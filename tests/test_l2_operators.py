import gc
import weakref

import numpy as np
import pytest

from qgfourier import (
    DualMismatchError,
    FamilyError,
    FourierCoeffs,
    IrrepData,
    RngSeed,
    central_coeffs,
    central_sum_check,
    haar_state_pairing_check,
    make_su2_dual,
    make_suq2_dual,
    make_trivial_dual,
    symmetric_group_s3,
    multiplier_block_norm,
    plancherel_gram_norm,
    random_coeffs,
    trace_norm_duality,
)
from qgfourier import fourier_core, l2_operators

TRIVIAL = make_trivial_dual()
KAC = make_su2_dual(3)
SUQ2 = make_suq2_dual(0.5, 4)


def gram_route_block_norm(b, irrep) -> float:
    """Oracle for multiplier_block_norm: the largest singular value of the
    n^2 x n^2 matrix D2^{1/2} M D1^{-1/2} built from the Gram weights."""
    n = irrep.n
    gram_u, gram_ustar = irrep.gram_weights
    qinv_diag = 1.0 / irrep.q_diag
    m = np.zeros((n * n, n * n), dtype=complex)
    for j in range(n):
        for i in range(n):
            for p in range(n):
                # image of u_{j,i} has coefficient (Q^{-1})_{j,j} B_{p,i} on (u_{p,j})^*
                m[p * n + j, j * n + i] = qinv_diag[j] * b[p, i]
    d1 = np.array([gram_u[j] for j in range(n) for i in range(n)])
    d2 = np.array([gram_ustar[j] for p in range(n) for j in range(n)])
    scaled = np.sqrt(d2)[:, None] * m / np.sqrt(d1)[None, :]
    return float(np.linalg.svd(scaled, compute_uv=False)[0])


def repeated_gram(irrep) -> tuple[np.ndarray, np.ndarray]:
    """Reference weights as (n, n) matrices: that of u_{i,j} and that of
    (u_{i,j})^* at (i, j), each repeated from one vector."""
    n, d = irrep.n, irrep.d
    gram_u = np.repeat((1.0 / irrep.q_diag)[:, None], n, axis=1) / d
    gram_ustar = np.repeat(irrep.q_diag[None, :], n, axis=0) / d
    return gram_u, gram_ustar


def matrix_gram_routes(f, family) -> tuple[float, complex]:
    """Both oracle routes contracted against the (n, n) weight matrices."""
    total, lhs = 0.0, 0j
    for label, x in f.support.items():
        irrep = f.dual.irrep(label)
        gram_u, gram_ustar = repeated_gram(irrep)
        coeff = irrep.d * (x * irrep.q_diag)
        total += np.sum((coeff.real**2 + coeff.imag**2) * gram_u.T)
        xq = x * irrep.q_diag
        lhs += irrep.d * np.einsum("ij,ji,jk,k->", xq, family.support[label], gram_ustar,
                                   1.0 / irrep.q_diag)
    return float(np.sqrt(total)), complex(lhs)


class TestGramWeights:
    def test_trivial(self):
        assert TRIVIAL.irreps[0].gram_weights[0][0] == 1.0

    def test_kac_weight(self):
        assert KAC.irrep(1).gram_weights[0][0] == pytest.approx(0.5)

    def test_deformed_weight(self):
        # weight (Q^{-1})_{i,i} / d at i = 1: (1/2.0) / 2.5
        assert SUQ2.irrep(1).gram_weights[0][1] == pytest.approx((1 / 2.0) / 2.5)

    def test_kac_uniform(self):
        gram_u, gram_ustar = KAC.irrep(2).gram_weights
        np.testing.assert_allclose(gram_u, 1.0 / 3.0)
        np.testing.assert_allclose(gram_ustar, 1.0 / 3.0)

    def test_deformed_weights(self):
        ir = SUQ2.irrep(1)
        gram_u, gram_ustar = ir.gram_weights
        np.testing.assert_array_equal(gram_u, (1.0 / ir.q_diag) / ir.d)
        np.testing.assert_array_equal(gram_ustar, ir.q_diag / ir.d)
        assert gram_u.shape == gram_ustar.shape == (ir.n,)

    def test_an_underflowing_weight_is_refused(self):
        # sum(q) = sum(1/q) = 1e200, so (Q^{-1})_{0,0} / d = 1e-400 rounds to 0
        ir = IrrepData(label=0, q_diag=np.array([1e200, 1e-200]))
        with pytest.raises(ValueError, match="strictly positive"):
            ir.gram_weights

    def test_built_once_per_irrep_and_read_only(self):
        dual = make_suq2_dual(0.3, 3)
        g = dual.irrep(2).gram_weights
        assert dual.irrep(2).gram_weights is g
        assert dual.irrep(1).gram_weights is not g
        # an equal irrep of another dual gets its own weights
        assert make_suq2_dual(0.3, 3).irrep(2).gram_weights is not g
        for weights in g:
            with pytest.raises(ValueError, match="read-only"):
                weights[0] = 1.0

    def test_weights_die_with_their_dual(self):
        # with the cycle collector off, only reference counting frees them, so
        # a reference from the weights back to their irrep would keep both
        dual = make_suq2_dual(0.3, 3)
        irrep = weakref.ref(dual.irrep(3))
        weights = weakref.ref(dual.irrep(3).gram_weights[0])
        gc.disable()
        try:
            del dual
            assert irrep() is None and weights() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("dual", [make_suq2_dual(q, 16) for q in (0.3, 0.5, 0.9)]
                             + [symmetric_group_s3().dual], ids=lambda dual: dual.name)
    def test_routes_equal_the_matrix_weights_bit_for_bit(self, dual):
        # each weight vector runs along one axis of the block; broadcast along
        # the other, it weights a suq2 block with the wrong q_i and moves the sums
        rng = RngSeed(157).generator()
        for _ in range(5):
            f = random_coeffs(dual, rng)
            family = random_coeffs(dual, rng)
            norm, lhs = matrix_gram_routes(f, family)
            assert plancherel_gram_norm(f) == norm
            assert haar_state_pairing_check(f, family).lhs == lhs


class TestMultiplierBlockNorm:
    def test_zero(self):
        assert multiplier_block_norm(np.zeros((2, 2)), KAC.irrep(1)) == 0.0

    def test_kac_identity_is_isometry(self):
        assert multiplier_block_norm(np.eye(2), KAC.irrep(1)) == pytest.approx(1.0, abs=1e-12)

    def test_contraction_on_deformed_block(self):
        rng = RngSeed(83).generator()
        ir = make_suq2_dual(0.5, 2).irrep(2)
        for _ in range(100):
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            b = b / max(1e-12, np.linalg.norm(b, 2)) * rng.uniform(0, 1)
            assert multiplier_block_norm(b, ir) <= 1.0 + 1e-9

    def test_homogeneity(self):
        rng = RngSeed(89).generator()
        ir = SUQ2.irrep(2)
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        c = 3.7
        assert multiplier_block_norm(c * b, ir) == pytest.approx(
            c * multiplier_block_norm(b, ir), rel=1e-12
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            multiplier_block_norm(np.eye(2), SUQ2.irrep(2))

    @pytest.mark.parametrize("bad", [(4, 2, 2), (4, 3, 2), (3,), ()], ids=str)
    def test_stack_shape_mismatch(self, bad):
        with pytest.raises(ValueError):
            multiplier_block_norm(np.zeros(bad), SUQ2.irrep(2))

    def test_stack_equals_block_by_block(self):
        rng = RngSeed(139).generator()
        b = rng.standard_normal((4, 5, 3, 3)) + 1j * rng.standard_normal((4, 5, 3, 3))
        norms = multiplier_block_norm(b, SUQ2.irrep(2))
        assert norms.shape == (4, 5)
        np.testing.assert_array_equal(norms, [[np.linalg.norm(m, 2) for m in row] for row in b])
        # one block comes back as a float, the single-matrix norm bit for bit
        one = multiplier_block_norm(b[1, 2], SUQ2.irrep(2))
        assert isinstance(one, float) and one == float(np.linalg.norm(b[1, 2], 2))

    @pytest.mark.parametrize("dual", [
        make_su2_dual(6), make_suq2_dual(0.5, 8), make_suq2_dual(0.5, 16), make_suq2_dual(0.3, 12),
    ], ids=lambda dual: dual.name)
    def test_equals_gram_route(self, dual):
        rng = RngSeed(137).generator()
        for irrep in dual.irreps:
            b = rng.standard_normal((irrep.n,) * 2) + 1j * rng.standard_normal((irrep.n,) * 2)
            b = b / np.linalg.norm(b, 2) * rng.uniform(0, 1)
            oracle = gram_route_block_norm(b, irrep)
            assert abs(multiplier_block_norm(b, irrep) - oracle) <= 1e-12 * oracle


class TestPairingIdentity:
    def test_trivial_dual(self):
        f = FourierCoeffs(TRIVIAL, {0: np.array([[2.0 + 1.0j]])})
        fam = FourierCoeffs(TRIVIAL, {0: np.array([[0.5 - 0.25j]])})
        res = haar_state_pairing_check(f, fam)
        assert res.lhs == pytest.approx((2 + 1j) * (0.5 - 0.25j))
        assert res.rhs == pytest.approx(res.lhs)
        assert res.deviation <= 1e-15

    def test_random_pairs(self):
        rng = RngSeed(97).generator()
        for _ in range(20):
            f = random_coeffs(SUQ2, rng)
            fam = FourierCoeffs(SUQ2, {
                l: rng.standard_normal((SUQ2.irrep(l).n,) * 2)
                + 1j * rng.standard_normal((SUQ2.irrep(l).n,) * 2)
                for l in SUQ2.labels()
            })
            res = haar_state_pairing_check(f, fam)
            assert res.deviation <= 1e-12 * (1.0 + abs(res.rhs))

    def test_zero_multiplier(self):
        f = random_coeffs(SUQ2, RngSeed(101).generator())
        fam = FourierCoeffs(SUQ2, {l: np.zeros((SUQ2.irrep(l).n,) * 2) for l in SUQ2.labels()})
        res = haar_state_pairing_check(f, fam)
        assert res.lhs == 0.0 and res.rhs == 0.0

    def test_dual_mismatch(self):
        f = random_coeffs(SUQ2, RngSeed(139).generator())
        fam = FourierCoeffs(KAC, {l: np.eye(KAC.irrep(l).n) for l in KAC.labels()})
        with pytest.raises(DualMismatchError):
            haar_state_pairing_check(f, fam)

    def test_empty_family_raises(self):
        # skipping the labels the family lacks would give lhs = rhs = 0 and pass
        f = random_coeffs(SUQ2, RngSeed(103).generator())
        with pytest.raises(FamilyError, match=r"labels \[0, 1, 2, 3, 4\]"):
            haar_state_pairing_check(f, FourierCoeffs(SUQ2, {}))

    def test_family_missing_one_label_raises(self):
        f = random_coeffs(SUQ2, RngSeed(107).generator())
        fam = FourierCoeffs(SUQ2, {l: np.eye(SUQ2.irrep(l).n) for l in SUQ2.labels() if l != 2})
        with pytest.raises(FamilyError, match=r"labels \[2\]"):
            haar_state_pairing_check(f, fam)


def loop_gram_norm_sq(x, irrep) -> float:
    """Reference for one block of plancherel_gram_norm: the term-by-term sum over
    the delta-sparse pairs <u_{j,i}, u_{t,s}> = delta_{i,s} (Q^{-1})_{j,t} / d."""
    n, d, q = irrep.n, irrep.d, irrep.q_diag
    coeff = d * (x * q)
    acc = 0j
    for i, j, s, t in np.ndindex(n, n, n, n):
        if i == s and j == t:
            acc += np.conj(coeff[s, t]) * coeff[i, j] / q[j] / d
    return acc.real


def loop_pairing_lhs(x, b, irrep) -> complex:
    """Reference for one block of the Haar-state route, with
    h(u_{j,k} (u_{p,k})^*) = delta_{j,p} q_k / d applied term by term."""
    n, d, q = irrep.n, irrep.d, irrep.q_diag
    xq = x * q
    acc = 0j
    for i, j, k, p in np.ndindex(n, n, n, n):
        if j == p:
            acc += d * xq[i, j] * (1.0 / q[k]) * b[p, i] * (q[k] / d)
    return acc


@pytest.mark.parametrize("dual", [make_su2_dual(3), make_suq2_dual(0.5, 4)],
                         ids=lambda dual: dual.name)
def test_oracle_contractions_equal_term_by_term_sums(dual):
    rng = RngSeed(151).generator()
    f = random_coeffs(dual, rng)
    fam = FourierCoeffs(dual, {
        l: rng.standard_normal((dual.irrep(l).n,) * 2)
        + 1j * rng.standard_normal((dual.irrep(l).n,) * 2)
        for l in dual.labels()
    })
    norm = np.sqrt(sum(loop_gram_norm_sq(x, dual.irrep(l)) for l, x in f.support.items()))
    lhs = sum(loop_pairing_lhs(x, fam.support[l], dual.irrep(l)) for l, x in f.support.items())
    assert abs(plancherel_gram_norm(f) - norm) <= 1e-12 * norm
    assert abs(haar_state_pairing_check(f, fam).lhs - lhs) <= 1e-12 * abs(lhs)


def test_oracle_routes_stand_alone(monkeypatch):
    """Neither oracle route reaches the closed-form calculus it is checked against."""
    dual = make_suq2_dual(0.5, 6)
    rng = RngSeed(149).generator()
    f = random_coeffs(dual, rng)
    fam = FourierCoeffs(dual, {
        l: rng.standard_normal((dual.irrep(l).n,) * 2)
        + 1j * rng.standard_normal((dual.irrep(l).n,) * 2)
        for l in dual.labels()
    })
    norm = fourier_core.ell2_norm(f)
    closed = sum(dual.irrep(l).n * np.trace((x * dual.irrep(l).q_diag) @ fam.support[l])
                 for l, x in f.support.items())

    def forbidden(*args, **kwargs):
        raise AssertionError("an oracle route called the closed form")

    monkeypatch.setattr(IrrepData, "q_trace", forbidden)
    monkeypatch.setattr(fourier_core, "ell2_norm", forbidden)
    monkeypatch.setattr(l2_operators, "ell2_norm", forbidden)
    assert abs(plancherel_gram_norm(f) - norm) <= 1e-12 * norm
    assert abs(haar_state_pairing_check(f, fam).lhs - closed) <= 1e-12 * abs(closed)


class TestTraceDuality:
    def test_signed_diagonal(self):
        res = trace_norm_duality(np.diag([1.0, -2.0]), 100, RngSeed(103))
        assert res.exact == pytest.approx(3.0)
        assert res.aligned == pytest.approx(3.0, abs=1e-10)

    def test_zero_matrix(self):
        res = trace_norm_duality(np.zeros((3, 3)), 50, RngSeed(107))
        assert res.exact == 0.0
        assert res.aligned == 0.0
        assert res.random_sup <= 1e-12

    def test_aligned_and_cap_on_random_matrices(self):
        rng = RngSeed(109, 99).generator()
        for case in range(10):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            res = trace_norm_duality(a, 500, RngSeed(109, case))
            assert abs(res.aligned - res.exact) <= 1e-10
            assert res.random_sup <= res.exact + 1e-12

    def test_rank_deficient(self):
        a = np.outer([1.0, 0.0, 0.0], [0.0, 2.0, 0.0])
        res = trace_norm_duality(a, 50, RngSeed(113))
        assert res.aligned == pytest.approx(res.exact, abs=1e-10)

    def test_nan_chunk_is_kept(self, monkeypatch):
        # every second chunk of unitaries NaN, the first finite: the supremum is NaN
        stack = l2_operators.haar_unitary_stack
        calls = []

        def poisoned(n, count, rng):
            calls.append(n)
            w = stack(n, count, rng)
            return w * np.nan if len(calls) % 2 == 0 else w
        monkeypatch.setattr(l2_operators, "haar_unitary_stack", poisoned)
        res = trace_norm_duality(np.array([[1.0, 0.5j], [0.25, -1.0]]), 5000, RngSeed(131))
        assert len(calls) == 5 and np.isnan(res.random_sup)

    def test_random_sup_monotone_in_trials(self):
        a = np.array([[1.0, 0.5j], [0.25, -1.0]])
        sups = [
            trace_norm_duality(a, t, RngSeed(127)).random_sup
            for t in (50, 200, 1000, 5000)
        ]
        assert sups == sorted(sups)


class TestCentral:
    def test_trivial(self):
        f = central_coeffs([5.0], TRIVIAL)
        assert f.block(0)[0, 0] == pytest.approx(5.0)

    def test_kac_block(self):
        f = central_coeffs([0.0, 1.0], KAC)
        np.testing.assert_allclose(f.block(1), np.eye(2) / 2.0)

    def test_deformed_block(self):
        f = central_coeffs([0.0, 1.0], SUQ2)
        ir = SUQ2.irrep(1)
        np.testing.assert_allclose(f.block(1), np.diag(1.0 / ir.q_diag) / 2.5)

    def test_sum_check_zero(self):
        res = central_sum_check(np.zeros(3), SUQ2)
        assert res.ell2_sq == 0.0 and res.sum_c_sq == 0.0 and res.deviation == 0.0

    def test_sum_check_units(self):
        res = central_sum_check([1.0, 1.0, 1.0], make_suq2_dual(0.5, 2))
        assert res.ell2_sq == pytest.approx(3.0, rel=1e-12)
        assert res.sum_c_sq == 3.0

    def test_sum_check_random(self):
        rng = RngSeed(131).generator()
        for dual in (SUQ2, KAC):
            for _ in range(20):
                c = rng.standard_normal(len(dual.irreps)) + 1j * rng.standard_normal(
                    len(dual.irreps)
                )
                res = central_sum_check(c, dual)
                assert res.deviation <= 1e-12 * res.sum_c_sq

    def test_length_validation(self):
        with pytest.raises(ValueError):
            central_coeffs(np.ones(10), KAC)
