import numpy as np
import pytest

from qgfourier import (
    DualMismatchError,
    FourierCoeffs,
    convolve,
    ell1_norm,
    ell2_norm,
    ell_infty_norm,
    make_su2_dual,
    make_suq2_dual,
    make_trivial_dual,
    pairing,
    plancherel_gram_norm,
    random_coeffs,
)

TRIVIAL = make_trivial_dual()
SUQ2 = make_suq2_dual(0.5, 4)
KAC = make_su2_dual(3)


def trivial_coeffs(c):
    return FourierCoeffs(TRIVIAL, {0: np.array([[c]])})


class TestNorms:
    def test_empty_support_is_zero(self):
        zero = FourierCoeffs(SUQ2, {})
        assert ell_infty_norm(zero) == 0.0
        assert ell2_norm(zero) == 0.0
        assert ell1_norm(zero) == 0.0

    def test_scalar_modulus(self):
        f = trivial_coeffs(3 + 4j)
        assert ell_infty_norm(f) == pytest.approx(5.0)
        assert ell2_norm(f) == pytest.approx(5.0)
        assert ell1_norm(f) == pytest.approx(5.0)

    def test_ell_infty_diagonal(self):
        f = FourierCoeffs(KAC, {1: np.diag([1.0, 2.0])})
        assert ell_infty_norm(f) == pytest.approx(2.0)

    def test_ell2_deformed_identity(self):
        f = FourierCoeffs(SUQ2, {1: np.eye(2)})
        assert ell2_norm(f) == pytest.approx(2.5, rel=1e-14)

    def test_ell2_kac_identity(self):
        f = FourierCoeffs(KAC, {1: np.eye(2)})
        assert ell2_norm(f) == pytest.approx(2.0, rel=1e-14)

    def test_ell1_kac_signed_diagonal(self):
        f = FourierCoeffs(KAC, {1: np.diag([1.0, -1.0])})
        assert ell1_norm(f) == pytest.approx(4.0, rel=1e-14)

    def test_ell1_deformed_identity(self):
        f = FourierCoeffs(SUQ2, {1: np.eye(2)})
        assert ell1_norm(f) == pytest.approx(6.25, rel=1e-14)

    def test_norm_chain_is_equality_on_trivial_dual(self):
        f = trivial_coeffs(2.0 - 1.0j)
        assert ell_infty_norm(f) == pytest.approx(ell2_norm(f))
        assert ell2_norm(f) == pytest.approx(ell1_norm(f))

    @pytest.mark.parametrize("norm", [ell_infty_norm, ell2_norm, ell1_norm])
    def test_scaling_and_triangle(self, norm):
        rng = np.random.default_rng(42)
        for _ in range(10):
            f = random_coeffs(SUQ2, rng)
            g = random_coeffs(SUQ2, rng)
            c = complex(rng.standard_normal(), rng.standard_normal())
            scaled = FourierCoeffs(SUQ2, {l: c * m for l, m in f.support.items()})
            assert norm(scaled) == pytest.approx(abs(c) * norm(f), rel=1e-12)
            both = FourierCoeffs(
                SUQ2, {l: f.block(l) + g.block(l) for l in SUQ2.labels()}
            )
            assert norm(both) <= norm(f) + norm(g) + 1e-12

    def test_broadcast_q_matches_dense_q(self):
        # the definitions with Q formed as a dense diagonal matrix
        dual = make_suq2_dual(0.3, 12)
        rng = np.random.default_rng(7)
        f, g = random_coeffs(dual, rng), random_coeffs(dual, rng)
        ell2_sq_f = ell2_sq_g = ell1_f = 0.0
        pair = 0j
        for label in dual.labels():
            irrep = dual.irrep(label)
            q = np.diag(irrep.q_diag)
            x, y = f.support[label], g.support[label]
            ell2_sq_f += irrep.d * np.trace(q @ x.conj().T @ x).real
            ell2_sq_g += irrep.d * np.trace(q @ y.conj().T @ y).real
            ell1_f += irrep.d * np.sum(np.linalg.svd(x @ q, compute_uv=False))
            pair += irrep.d * np.trace(x @ q @ y.conj().T)
        assert abs(ell2_norm(f) - np.sqrt(ell2_sq_f)) <= 1e-12 * np.sqrt(ell2_sq_f)
        assert abs(ell1_norm(f) - ell1_f) <= 1e-12 * ell1_f
        assert abs(pairing(f, g) - pair) <= 1e-12 * np.sqrt(ell2_sq_f * ell2_sq_g)


class TestPairing:
    def test_trivial_dual(self):
        mu = trivial_coeffs(2.0 + 1.0j)
        f = trivial_coeffs(1.0 - 3.0j)
        assert pairing(mu, f) == pytest.approx((2 + 1j) * np.conj(1 - 3j))

    def test_self_pairing_is_squared_ell2(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            f = random_coeffs(SUQ2, rng)
            val = pairing(f, f)
            assert val.imag == pytest.approx(0.0, abs=1e-12 * abs(val))
            assert val.real == pytest.approx(ell2_norm(f) ** 2, rel=1e-12)

    def test_disjoint_supports(self):
        rng = np.random.default_rng(1)
        f = random_coeffs(SUQ2, rng, labels=[0, 1])
        g = random_coeffs(SUQ2, rng, labels=[2, 3])
        assert pairing(f, g) == 0.0

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(2)
        f = random_coeffs(SUQ2, rng)
        g = random_coeffs(SUQ2, rng)
        assert pairing(f, g) == pytest.approx(np.conj(pairing(g, f)), rel=1e-12)

    def test_dual_mismatch(self):
        with pytest.raises(DualMismatchError):
            pairing(trivial_coeffs(1.0), FourierCoeffs(KAC, {0: np.ones((1, 1))}))


class TestConvolve:
    def test_trivial_scalars(self):
        f = trivial_coeffs(2.0 + 1.0j)
        g = trivial_coeffs(-1.0 + 0.5j)
        assert convolve(f, g).block(0)[0, 0] == pytest.approx((2 + 1j) * (-1 + 0.5j))

    def test_identity_element(self):
        # the point mass at the identity has coefficient Id at every irrep
        rng = np.random.default_rng(3)
        f = random_coeffs(SUQ2, rng)
        delta = FourierCoeffs(SUQ2, {l: np.eye(SUQ2.irrep(l).n) for l in SUQ2.labels()})
        for conv in (convolve(f, delta), convolve(delta, f)):
            for l in SUQ2.labels():
                np.testing.assert_allclose(conv.block(l), f.block(l), atol=1e-15)

    def test_support_is_intersection(self):
        rng = np.random.default_rng(4)
        f = random_coeffs(SUQ2, rng, labels=[0, 1, 2])
        g = random_coeffs(SUQ2, rng, labels=[2, 3])
        assert convolve(f, g).labels() == [2]

    def test_dual_mismatch(self):
        with pytest.raises(DualMismatchError):
            convolve(trivial_coeffs(1.0), FourierCoeffs(KAC, {0: np.ones((1, 1))}))


class TestPlancherelGram:
    def test_trivial(self):
        assert plancherel_gram_norm(trivial_coeffs(3 - 4j)) == pytest.approx(5.0)

    def test_matches_ell2_on_random_families(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            f = random_coeffs(SUQ2, rng)
            e2 = ell2_norm(f)
            assert abs(plancherel_gram_norm(f) - e2) <= 1e-12 * e2

    def test_single_matrix_coefficient(self):
        # coefficient family making the series the single element u_{row,col};
        # its norm is ((Q^{-1})_{row,row} / d)^{1/2} by the orthogonality relations
        ir = SUQ2.irrep(1)
        for row in range(2):
            for col in range(2):
                fhat = np.zeros((2, 2), dtype=complex)
                fhat[col, row] = 1.0 / (ir.d * ir.q_diag[row])
                f = FourierCoeffs(SUQ2, {1: fhat})
                expected = np.sqrt((1.0 / ir.q_diag[row]) / ir.d)
                assert plancherel_gram_norm(f) == pytest.approx(expected, rel=1e-12)
                assert ell2_norm(f) == pytest.approx(expected, rel=1e-12)


def test_block_outside_the_support_is_zero():
    f = FourierCoeffs(SUQ2, {1: np.eye(2)})
    zero = f.block(3)
    assert zero.dtype == complex and zero.shape == (4, 4) and not zero.any()
    with pytest.raises(KeyError):
        f.block(99)  # not a label of the dual


def test_coeffs_validation():
    with pytest.raises(ValueError):
        FourierCoeffs(SUQ2, {1: np.eye(3)})  # wrong shape
    with pytest.raises(KeyError):
        FourierCoeffs(SUQ2, {99: np.eye(2)})  # unknown label
