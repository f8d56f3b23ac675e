import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgfourier import (
    DualValidationError,
    FourierCoeffs,
    IrrepData,
    ell2_norm,
    make_onplus_dual,
    make_su2_dual,
    make_suq2_dual,
    make_trivial_dual,
    onplus_dims,
)
from qgfourier.dual_data import WEIGHT_SQ_LIMIT, DualDescriptor, suq2_kmax_limit


def test_trivial_dual():
    dual = make_trivial_dual()
    assert len(dual.irreps) == 1
    assert dual.irreps[0].d == 1.0
    np.testing.assert_array_equal(dual.irreps[0].q_diag, [1.0])


def test_trivial_dual_ell2_smoke():
    dual = make_trivial_dual()
    f = FourierCoeffs(dual, {0: np.array([[3.0 - 4.0j]])})
    assert ell2_norm(f) == pytest.approx(5.0, abs=1e-15)


def test_su2_dims():
    dual = make_su2_dual(3)
    assert [ir.n for ir in dual.irreps] == [1, 2, 3, 4]
    assert [ir.d for ir in dual.irreps] == [1, 2, 3, 4]
    for ir in dual.irreps:
        np.testing.assert_array_equal(ir.q_diag, np.ones(ir.n))


def test_su2_kmax_zero_is_trivial():
    dual = make_su2_dual(0)
    assert len(dual.irreps) == 1
    assert dual.irreps[0].n == 1


def test_suq2_level_one():
    dual = make_suq2_dual(0.5, 1)
    ir = dual.irrep(1)
    np.testing.assert_allclose(ir.q_diag, [0.5, 2.0])
    assert ir.d == pytest.approx(2.5, rel=1e-15)


def test_suq2_level_two_dimension():
    dual = make_suq2_dual(0.5, 2)
    assert dual.irrep(2).d == pytest.approx(4.0 + 1.0 + 0.25, rel=1e-15)


def test_suq2_not_kac():
    np.testing.assert_array_equal(make_suq2_dual(0.5, 2).irrep(2).q_diag, [0.25, 1.0, 4.0])


@pytest.mark.parametrize("q", [0.5, 1.5, 0.0, 1.0, -0.3])
def test_suq2_domain(q):
    if 0 < q < 1:
        make_suq2_dual(q, 2)
    else:
        with pytest.raises(DualValidationError):
            make_suq2_dual(q, 2)


def test_suq2_refuses_an_infinite_quantum_dimension():
    # q^{-k} overflows past k = 589 at q = 0.3; d was inf and the trace test passed
    with np.errstate(over="ignore"), pytest.raises(DualValidationError, match="finite"):
        make_suq2_dual(0.3, 600)
    assert np.isfinite(make_suq2_dual(0.3, 589).irreps[-1].d)


@pytest.mark.parametrize("q", [1e-3, 0.1, 0.3, 0.5, 0.9])
def test_suq2_kmax_limit_is_the_last_level_in_range(q):
    # the largest weight d_k q^{-k} of each level, from the dual's own data
    k = suq2_kmax_limit(q)
    weights = [irrep.d * irrep.q_diag.max() for irrep in make_suq2_dual(q, k + 1).irreps]
    assert weights[k] ** 2 <= WEIGHT_SQ_LIMIT < weights[k + 1] ** 2


@pytest.mark.parametrize("q", [0.0, 1.0, -0.5])
def test_suq2_kmax_limit_domain(q):
    with pytest.raises(DualValidationError):
        suq2_kmax_limit(q)


@pytest.mark.parametrize("q_diag", [[np.inf, 0.5], [np.nan, 1.0], [1e308, 1e308]],
                         ids=["inf", "nan", "sum-overflows"])
def test_irrep_refuses_non_finite_data(q_diag):
    with np.errstate(over="ignore"), pytest.raises(DualValidationError):
        IrrepData(label=1, q_diag=np.array(q_diag))


@settings(max_examples=40, deadline=None)
@given(q=st.floats(0.05, 0.95), k=st.integers(0, 40))
def test_suq2_trace_symmetry(q, k):
    # the exponent multiset {k-2i} is symmetric under negation
    ir = make_suq2_dual(q, k).irrep(k)
    d = float(np.sum(ir.q_diag))
    d_inv = float(np.sum(1.0 / ir.q_diag))
    assert abs(d - d_inv) <= 1e-12 * d


def test_suq2_converges_to_su2():
    q = 1.0 - 1e-8
    deformed = make_suq2_dual(q, 8)
    classical = make_su2_dual(8)
    for k in range(9):
        d_q, d_c = deformed.irrep(k).d, classical.irrep(k).d
        assert abs(d_q - d_c) <= 1e-6 * d_c
        np.testing.assert_allclose(deformed.irrep(k).q_diag, classical.irrep(k).q_diag, rtol=1e-6)


def test_onplus_n2_matches_su2():
    assert [ir.n for ir in make_onplus_dual(2, 3).irreps] == [
        ir.n for ir in make_su2_dual(3).irreps
    ]


def test_onplus_n3():
    assert onplus_dims(3, 2) == [1, 3, 8]
    dual = make_onplus_dual(3, 2)
    assert [ir.n for ir in dual.irreps] == [1, 3, 8]
    for ir in dual.irreps:
        np.testing.assert_array_equal(ir.q_diag, np.ones(ir.n))


def test_onplus_domain():
    with pytest.raises(DualValidationError):
        make_onplus_dual(1, 3)


def test_onplus_recursion_exact_integers():
    for n_param in range(2, 11):
        dims = onplus_dims(n_param, 20)
        for k in range(2, 21):
            assert dims[k] == n_param * dims[k - 1] - dims[k - 2]
        assert all(isinstance(d, int) for d in dims)


def test_quantum_dimension_values():
    assert make_trivial_dual().irreps[0].d == 1.0
    assert make_suq2_dual(0.5, 1).irrep(1).d == pytest.approx(2.5)
    for ir in make_su2_dual(5).irreps:
        assert ir.d == ir.n


@pytest.mark.parametrize(
    "dual",
    [
        make_trivial_dual(),
        make_su2_dual(6),
        make_suq2_dual(0.5, 6),
        make_suq2_dual(0.9, 6),
        make_onplus_dual(3, 4),
    ],
    ids=lambda d: d.name,
)
def test_trace_identity_all_builtins(dual):
    for ir in dual.irreps:
        assert abs(np.sum(ir.q_diag) - np.sum(1.0 / ir.q_diag)) <= 1e-12 * ir.d


def test_irrep_validation_errors():
    with pytest.raises(DualValidationError):
        IrrepData(label=0, q_diag=np.array([]))
    with pytest.raises(DualValidationError):
        IrrepData(label=0, q_diag=np.array([1.0, -1.0]))
    with pytest.raises(DualValidationError):
        IrrepData(label=0, q_diag=np.array([2.0, 3.0]))  # trace identity fails
    with pytest.raises(DualValidationError, match="shape"):
        IrrepData(label=0, q_diag=np.ones((2, 2)))  # a matrix, not a diagonal


def test_irrep_dimension_is_read_off_q_diag():
    assert IrrepData(label=0, q_diag=np.ones(3)).n == 3
    assert make_suq2_dual(0.5, 4).irrep(4).n == 5


def test_dual_validation_errors():
    trivial = IrrepData(label="e", q_diag=np.ones(1))
    other = IrrepData(label="e", q_diag=np.ones(2))
    with pytest.raises(DualValidationError):
        DualDescriptor("dup", (trivial, other))
    with pytest.raises(DualValidationError):
        DualDescriptor("notrivial", (IrrepData(label="x", q_diag=np.ones(2)),))
    with pytest.raises(DualValidationError, match="at least the trivial irrep"):
        DualDescriptor("empty", ())


@pytest.mark.parametrize("build", [lambda: make_su2_dual(-1), lambda: make_suq2_dual(0.5, -1),
                                   lambda: make_onplus_dual(3, -1)], ids=["su2", "suq2", "onplus"])
def test_negative_kmax_is_refused(build):
    with pytest.raises(DualValidationError, match="kmax must be >= 0"):
        build()
