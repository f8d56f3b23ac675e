import math
import weakref

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from qgfourier import (
    DualValidationError,
    FourierCoeffs,
    GroupTableError,
    RngSeed,
    character_l1,
    coefficient_bound_check,
    cotype2_ratio,
    cyclic_group,
    ell2_norm,
    gaussian_series_l1_mean,
    random_coeffs,
    randomized_l1_report,
    symmetric_group_s3,
    weyl_character_l1,
)
from qgfourier import classical_eval
from qgfourier.classical_eval import (
    MC_CHUNK,
    SCHUR_QUAD_TOL,
    FiniteGroupTable,
    make_su2_quadrature,
)
from qgfourier.cli import execute
from qgfourier.random_series import _chunks, haar_unitary_stack


SU2_INPUT_TOL = 1e-10  # special-unitarity tolerance on the reference's inputs


def su2_irrep_matrix(k: int, g) -> np.ndarray:
    """Reference: the (k+1)-dimensional unitary irrep of SU(2) at one element g,
    straight from the entry formula."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    g = np.asarray(g, dtype=complex)
    if g.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {g.shape}")
    if float(np.linalg.norm(g.conj().T @ g - np.eye(2), 2)) > SU2_INPUT_TOL:
        raise ValueError("input is not unitary within tolerance")
    if abs(np.linalg.det(g) - 1.0) > SU2_INPUT_TOL:
        raise ValueError("input does not have determinant 1 within tolerance")
    return classical_eval._su2_entry_stack(k, g[0, 0], g[0, 1], g[1, 0], g[1, 1])


def evaluate_su2(f: FourierCoeffs, g) -> complex:
    """Reference: the value sum_k (k+1) tr(f_k rho_k(g)) at one group element."""
    acc = 0j
    for label, m in f.support.items():
        acc += (label + 1) * np.trace(m @ su2_irrep_matrix(int(label), g))
    return complex(acc)


def su2_fourier_coeffs(quad, values, kmax: int, dual) -> FourierCoeffs:
    """Reference: the coefficients f_k = sum_g w_g v(g) rho_k(g)^* of node values,
    for levels 0..kmax, by the quadrature."""
    values = np.asarray(values, dtype=complex)
    return FourierCoeffs(dual, {
        k: np.einsum("g,g,gji->ij", quad.weights, values, quad.irrep_stack(k).conj())
        for k in range(kmax + 1)
    })


def l1_norm_classical(f: FourierCoeffs, haar) -> float:
    """Reference: the Haar integral of |f| over the rule's nodes."""
    return float(np.sum(haar.weights * np.abs(haar.coeff_values(f))))


def linfty_norm_classical(f: FourierCoeffs, haar) -> float:
    """Reference: the max of |f| over the rule's nodes (a lower bound for the true sup)."""
    return float(np.max(np.abs(haar.coeff_values(f))))


def euler_nodes(quad) -> np.ndarray:
    """Reference: the rule's nodes [[a, b], [-conj(b), conj(a)]] in node order,
    a = cos xi e^{i phi1} and b = sin xi e^{i phi2}, made from its angles."""
    shape = (len(quad.polar), len(quad.phases), len(quad.phases))
    a = np.cos(quad.polar)[:, None, None] * np.exp(1j * quad.phases)[None, :, None]
    b = np.sin(quad.polar)[:, None, None] * np.exp(1j * quad.phases)[None, None, :]
    a = np.broadcast_to(a, shape).reshape(-1)
    b = np.broadcast_to(b, shape).reshape(-1)
    nodes = np.empty((a.size, 2, 2), dtype=complex)
    nodes[:, 0, 0] = a
    nodes[:, 0, 1] = b
    nodes[:, 1, 0] = -b.conj()
    nodes[:, 1, 1] = a.conj()
    return nodes


def flat_weights(resolution: int) -> np.ndarray:
    """Reference: the node weights v_r / (2 P^2), broadcast over each ring and
    flattened to node order."""
    t, v = np.polynomial.legendre.leggauss(resolution)
    n_phase = 2 * resolution + 8
    return np.broadcast_to(
        (v / (2.0 * n_phase * n_phase))[:, None, None], (resolution, n_phase, n_phase)
    ).reshape(-1).copy()


def random_su2(rng):
    u = haar_unitary_stack(2, 1, rng)[0]
    return u / np.sqrt(np.linalg.det(u))


def term_loop_entry_stack(k: int, g00, g01, g10, g11) -> np.ndarray:
    """Reference for `_su2_entry_stack`: the entry formula one term (i, j, l) at a
    time, each entry summed over ascending l from zero."""
    g00, g01, g10, g11 = np.broadcast_arrays(
        np.asarray(g00, complex), np.asarray(g01, complex),
        np.asarray(g10, complex), np.asarray(g11, complex),
    )
    base = g00.shape
    if k == 0:
        return np.ones(base + (1, 1), dtype=complex)
    pow00 = np.stack([g00 ** m for m in range(k + 1)])
    pow01 = np.stack([g01 ** m for m in range(k + 1)])
    pow10 = np.stack([g10 ** m for m in range(k + 1)])
    pow11 = np.stack([g11 ** m for m in range(k + 1)])
    wt = [math.factorial(k - i) * math.factorial(i) for i in range(k + 1)]
    out = np.zeros(base + (k + 1, k + 1), dtype=complex)
    for j in range(k + 1):
        for i in range(k + 1):
            lo, hi = max(0, j - i), min(j, k - i)
            if lo > hi:
                continue
            acc = np.zeros(base, dtype=complex)
            for l in range(lo, hi + 1):
                m = k - i - l
                acc = acc + (
                    math.comb(k - j, m)
                    * math.comb(j, l)
                    * pow00[m] * pow10[(k - j) - m] * pow01[l] * pow11[j - l]
                )
            out[..., i, j] = acc * math.sqrt(wt[i] / wt[j])
    return out


def exp_assemble(rho0, e1, e2, phi1, phi2) -> np.ndarray:
    """Reference for `_euler_assemble`: each phase factor exponentiated where it
    is used, from the phase values."""
    return rho0 * (np.exp(1j * (e1 * phi1)) * np.exp(1j * (e2 * phi2)))


def exp_assemble_entries(quad, k, entries, phi2) -> np.ndarray:
    """Reference for `SU2Quadrature._assemble` on `exp_assemble`, for the phase
    values `phi2`."""
    rho0 = np.ascontiguousarray(quad._polar_stack(k).transpose(1, 2, 0)[entries])
    e1, e2 = (e[entries][..., None, None, None] for e in classical_eval._euler_exponents(k))
    return exp_assemble(rho0[..., None, None], e1, e2, quad.phases[:, None], phi2)


def assert_same_bits(actual, expected):
    """Equal bit for bit, signed zeros included."""
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.int64), expected.view(np.int64))


def polar_level_grams(quad, cap):
    """For k = 0..cap in turn, the Gram rows of level k against levels 0..k side
    by side, over every node, regrouped by polar angle.

    Entry ((i, j), (l, s, t)) is sum_g w_g conj(rho_k(g)_{ij}) rho_l(g)_{st}.
    At node (r, p1, p2), rho_k(g)_{ij} = e^{i a phi1} e^{i b phi2} rho_k(g0(xi_r))_{ij}
    with a = k-i-j and b = j-i (`SU2Quadrature.irrep_stack`).  Every node of the
    r-th polar angle weighs w_r = `quad.ring_weights[r]`, so the two phase sums
    split off:

        G = sum_r P^2 w_r conj(rho_k(g0(xi_r))_{ij}) rho_l(g0(xi_r))_{st}
                * S(a' - a) * S(b' - b),      S(m) = (1/P) sum_p e^{i m phi_p},

    (a', b') being the exponents of (l, s, t).  This is the node sum regrouped,
    not an approximation: S is summed from `quad.phases`, so a phase grid too
    coarse for level k shows as S(m) != 0 at some m != 0, just as a polar rule
    too coarse for it shows in the R-term sum.
    """
    n_polar, n_phase = len(quad.polar), len(quad.phases)
    ring_weights = quad.ring_weights * (n_phase * n_phase)
    m = np.arange(-2 * cap, 2 * cap + 1)                    # every a' - a and b' - b
    s_table = np.exp(1j * np.multiply.outer(m, quad.phases)).mean(axis=1)
    polar = np.empty((n_polar, 0), dtype=complex)
    exponents = np.empty((2, 0), dtype=int)
    for k in range(cap + 1):
        rows = quad._polar_stack(k).reshape(n_polar, -1)
        polar = np.concatenate([polar, rows], axis=1)
        level = np.reshape(classical_eval._euler_exponents(k), (2, -1))
        exponents = np.concatenate([exponents, level], axis=1)
        gram = (rows.conj() * ring_weights[:, None]).T @ polar
        for axis in (0, 1):
            gram *= s_table[exponents[axis] - level[axis][:, None] + 2 * cap]
        yield gram


def polar_valid_kmax(quad, cap: int) -> int:
    """Oracle for the derived `kmax_valid`: the largest k <= cap whose coefficient
    Gram against all levels <= k (`polar_level_grams`) is exact to
    SCHUR_QUAD_TOL, stopping at the first failing level; -1 if level 0 fails."""
    for k, gram in enumerate(polar_level_grams(quad, cap)):
        nk = (k + 1) ** 2
        gram[:, -nk:] -= np.eye(nk) / (k + 1)  # the expected blocks: I/(k+1), else 0
        if not float(np.max(np.abs(gram))) <= SCHUR_QUAD_TOL:
            return k - 1
    return cap


def einsum_level_gram(quad, k) -> np.ndarray:
    """Oracle for polar_level_grams: the Gram rows of level k against levels 0..k,
    as one einsum over all nodes.  It is contracted by BLAS: unoptimised, the
    einsum sums the nodes in sequence and drifts from a long-double Gram by
    up to 6e-14 on these rules, where the BLAS contraction stays below 6e-15."""
    ys = [quad.irrep_stack(l).reshape(len(quad.weights), -1) for l in range(k + 1)]
    return np.einsum("gi,g,gj->ij", ys[-1].conj(), quad.weights,
                     np.concatenate(ys, axis=1), optimize=True)


def einsum_pair_gram(yk, w, yp) -> np.ndarray:
    """sum_g w_g conj(yk[g, i]) yp[g, j] as one unoptimised three-operand einsum,
    which sums the nodes in sequence."""
    return np.einsum("gi,g,gj->ij", yk.conj(), w, yp)


def gemm_pair_gram(yk, w, yp) -> np.ndarray:
    """sum_g w_g conj(yk[g, i]) yp[g, j] as one weighted GEMM, (w * yk)^H yp."""
    return (yk.conj() * w[:, None]).T @ yp


def einsum_valid_kmax(quad, cap, pair_gram=einsum_pair_gram) -> int:
    """Oracle for polar_valid_kmax: a node sum over all nodes for each pair
    of levels, with no polar regrouping, stopping at the first failing level."""
    valid = -1
    flat = []
    for k in range(cap + 1):
        stack = quad.irrep_stack(k)
        yk = stack.reshape(stack.shape[0], -1)
        for kp, yp in enumerate(flat + [yk]):
            gram = pair_gram(yk, quad.weights, yp)
            if kp == k:
                expected = np.eye(yk.shape[1]) / (k + 1)
            else:
                expected = np.zeros((yk.shape[1], yp.shape[1]))
            if float(np.max(np.abs(gram - expected))) > SCHUR_QUAD_TOL:
                return valid
        flat.append(yk)
        valid = k
    return valid


_ONES = np.ones((2, 1, 1))
_SIGN = np.array([1.0, -1.0]).reshape(2, 1, 1)
_Z2_MULT = [[0, 1], [1, 0]]

#: name -> (mult, stacks, the refusal): each table fails one construction check
MALFORMED_TABLES = {
    "not-square": (np.zeros((2, 3), dtype=int), {0: _ONES}, "mult table shape"),
    "above-range": ([[0, 1], [1, 2]], {0: _ONES}, "out of range"),
    "below-range": ([[0, 1], [1, -1]], {0: _ONES}, "out of range"),
    "first-not-trivial": (_Z2_MULT, {1: _SIGN, 0: _ONES}, "first irrep must be the trivial one"),
    "wrong-element-count": (_Z2_MULT, {0: _ONES, 1: np.ones((3, 1, 1))}, "irrep 1: matrices shape"),
    # Peter-Weyl, unitarity and the homomorphism check pass; only Schur refuses
    "trivial-twice": (_Z2_MULT, {0: _ONES, 1: _ONES}, "Schur orthogonality failed"),
}


class TestFiniteGroups:
    def test_z4_characters(self):
        z4 = cyclic_group(4)
        assert z4.order == 4
        root = np.exp(2j * np.pi / 4)
        for j, stack in z4.stacks.items():
            np.testing.assert_allclose(
                stack[:, 0, 0], [root ** (j * g) for g in range(4)], atol=1e-14
            )

    def test_z344_builds(self):
        # at j g near n^2, exp(2 pi i j g / n) rounds past the homomorphism
        # tolerance from about n = 344 unless j g is reduced mod n first
        z344 = cyclic_group(344)
        assert z344.order == 344 and len(z344.stacks) == 344
        np.testing.assert_allclose(z344.irrep_stack(339)[343, 0, 0],
                                   np.exp(-2j * np.pi * 339 / 344), rtol=0, atol=1e-14)

    def test_trivial_group(self):
        z1 = cyclic_group(1)
        assert z1.order == 1 and len(z1.stacks) == 1

    def test_s3_peter_weyl(self, s3_table):
        assert sum(ir.n**2 for ir in s3_table.dual.irreps) == 6
        assert [ir.n for ir in s3_table.dual.irreps] == [1, 1, 2]
        assert s3_table.dual.labels() == list(s3_table.stacks) == ["triv", "sgn", "std"]

    def test_s3_schur_is_validated_at_construction(self, s3_table):
        # construction already runs the exhaustive orthogonality check; spot-check one entry
        std = s3_table.irrep_stack("std")
        gram = np.mean(std[:, 0, 0] * np.conj(std[:, 0, 0]))
        assert gram == pytest.approx(0.5, abs=1e-12)

    def test_rejects_broken_mult_table(self):
        mult = np.array([[0, 1], [1, 1]])  # not a group law
        with pytest.raises(GroupTableError):
            FiniteGroupTable(name="bad", mult=mult, stacks={0: np.ones((2, 1, 1))})

    @pytest.mark.parametrize("name", list(MALFORMED_TABLES))
    def test_malformed_table_is_refused(self, name):
        mult, stacks, refusal = MALFORMED_TABLES[name]
        with pytest.raises(GroupTableError, match=refusal):
            FiniteGroupTable(name=name, mult=np.array(mult), stacks=stacks)

    @pytest.mark.parametrize("stacks, refusal", [
        ({}, "at least the trivial irrep"),
        ({0: np.ones((2, 2, 2)), 1: _ONES}, "first irrep must be trivial"),
        ({0: np.ones((2, 0, 0))}, "non-empty vector"),
    ], ids=["no-stack", "first-not-size-one", "size-zero"])
    def test_the_dual_refuses_what_it_cannot_index(self, stacks, refusal):
        # the table's label index is its dual, built from the stacks' sizes first
        with pytest.raises(DualValidationError, match=refusal):
            FiniteGroupTable(name="bad", mult=np.array(_Z2_MULT), stacks=stacks)

    def test_dual_is_the_label_index(self, s3_table):
        assert s3_table.dual.name == "s3"
        assert all(np.all(ir.q_diag == 1.0) for ir in s3_table.dual.irreps)
        for label, stack in s3_table.stacks.items():
            assert s3_table.irrep_stack(label) is stack
            assert s3_table.dual.irrep(label).n == stack.shape[-1]
            assert not stack.flags.writeable

    def test_unknown_label_is_a_key_error(self, s3_table):
        with pytest.raises(KeyError, match="dual 's3' has no irrep labeled 'bogus'"):
            s3_table.irrep_stack("bogus")

    def test_extraction_needs_one_value_per_element(self, s3_table):
        with pytest.raises(ValueError, match="one value per element"):
            s3_table.fourier_coeffs(np.ones(5))

    def test_non_associative_loop_is_refused(self):
        # an identity (0) and two-sided inverses, but (1*1)*2 = 2 != 1*(1*2) = 4:
        # no check of associativity runs, and z5's characters are not homomorphisms
        mult = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                         [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])
        assert mult[mult[1, 1], 2] != mult[1, mult[1, 2]]
        with pytest.raises(GroupTableError, match="not a homomorphism"):
            FiniteGroupTable(name="loop", mult=mult, stacks=cyclic_group(5).stacks)

    def test_rejects_non_unitary_irrep(self, z8_table):
        stacks = dict(z8_table.stacks)
        stacks[3] = stacks[3].copy()
        stacks[3][5] *= 1 + 1e-9
        with pytest.raises(GroupTableError, match="unitarity defect"):
            FiniteGroupTable(name="z8", mult=z8_table.mult, stacks=stacks)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_irrep_is_refused(self, bad, z8_table):
        # the tolerance checks read `nan > tol` as False, so the build refuses it
        stacks = dict(z8_table.stacks)
        stacks[3] = stacks[3].copy()
        stacks[3][5] = bad
        with pytest.raises(GroupTableError, match="irrep 3: non-finite"):
            FiniteGroupTable(name="z8", mult=z8_table.mult, stacks=stacks)

    def test_dimension_is_read_off_the_matrices(self, s3_table):
        assert s3_table.order == len(s3_table.mult) == 6
        with pytest.raises(GroupTableError, match="irrep 'bad': matrices shape"):
            FiniteGroupTable(name="bad", mult=s3_table.mult,
                             stacks={"triv": np.ones((6, 1, 1)), "bad": np.ones((6, 2, 3))})

    def test_build_memory_is_a_few_square_arrays(self, traced_peak):
        # with N = 128 and n = 1, the table keeps its N x N `mult` and N
        # characters of N values.  The Schur check holds the N x N coefficient
        # matrix Y, the operands numpy makes for Y^T conj(Y) and the Gram: four
        # N^2 complex arrays, and the homomorphism check under four; one more
        # covers the objects.  One N^3 table of int64 would be N / 2 = 64 of them.
        n = 128
        cyclic_group(2)  # numpy's lazy set-up outside the trace
        table, peak = traced_peak(lambda: cyclic_group(n))
        kept = table.mult.nbytes + sum(m.nbytes for m in table.stacks.values())
        assert peak <= kept + 5 * n * n * np.dtype(complex).itemsize

    @pytest.mark.parametrize("table", ["z8_table", "s3_table"])
    def test_weights_are_stored_once_and_read_only(self, table, request):
        t = request.getfixturevalue(table)
        assert t.weights is t.weights
        assert not t.weights.flags.writeable
        np.testing.assert_array_equal(t.weights, np.full(t.order, 1 / t.order))

    def test_rejects_wrong_peter_weyl(self):
        z2 = cyclic_group(2)
        with pytest.raises(GroupTableError):
            FiniteGroupTable(name="half", mult=z2.mult, stacks={0: z2.stacks[0]})

    def test_sign_character_values(self):
        z2 = cyclic_group(2)
        f = FourierCoeffs(z2.dual, {1: np.array([[1.0]])})
        np.testing.assert_allclose(z2.coeff_values(f), [1.0, -1.0], atol=1e-15)
        assert l1_norm_classical(f, z2) == pytest.approx(1.0)
        assert linfty_norm_classical(f, z2) == pytest.approx(1.0)

    def test_constant_function(self, s3_table):
        f = FourierCoeffs(s3_table.dual, {"triv": np.array([[2.0 - 1.0j]])})
        np.testing.assert_allclose(s3_table.coeff_values(f), [2.0 - 1.0j] * 6, atol=1e-15)
        assert l1_norm_classical(f, s3_table) == pytest.approx(abs(2 - 1j))

    @pytest.mark.parametrize("build", [symmetric_group_s3, lambda: cyclic_group(8),
                                       lambda: cyclic_group(2)], ids=["s3", "z8", "z2"])
    def test_round_trip_extraction(self, build):
        # Schur orthogonality makes extraction invert evaluation; no build-time check runs it
        table = build()
        rng = RngSeed(137).generator()
        f = random_coeffs(table.dual, rng)
        back = table.fourier_coeffs(table.coeff_values(f))
        for l in f.labels():
            np.testing.assert_allclose(back.block(l), f.block(l), atol=1e-12)

    def test_holder_chain(self, s3_table):
        rng = RngSeed(139).generator()
        for _ in range(10):
            f = random_coeffs(s3_table.dual, rng)
            l1 = l1_norm_classical(f, s3_table)
            l2 = ell2_norm(f)  # Plancherel: the L2 norm of the function
            linf = linfty_norm_classical(f, s3_table)
            assert l1 <= l2 + 1e-12
            assert l2 <= linf + 1e-12


class TestSU2Irreps:
    def test_level_zero(self):
        g = np.eye(2)
        np.testing.assert_array_equal(su2_irrep_matrix(0, g), np.ones((1, 1)))

    def test_level_one_is_defining(self):
        rng = RngSeed(149).generator()
        g = random_su2(rng)
        np.testing.assert_allclose(su2_irrep_matrix(1, g), g, atol=1e-12)

    def test_diagonal_weights(self):
        theta = 0.37
        g = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
        d = su2_irrep_matrix(2, g)
        np.testing.assert_allclose(
            np.diag(d), [np.exp(2j * theta), 1.0, np.exp(-2j * theta)], atol=1e-12
        )
        np.testing.assert_allclose(d - np.diag(np.diag(d)), 0, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_unitary_and_multiplicative(self, k):
        rng = RngSeed(151, k).generator()
        for _ in range(5):
            g, h = random_su2(rng), random_su2(rng)
            dg, dh = su2_irrep_matrix(k, g), su2_irrep_matrix(k, h)
            assert np.linalg.norm(dg.conj().T @ dg - np.eye(k + 1), 2) <= 1e-10
            np.testing.assert_allclose(dg @ dh, su2_irrep_matrix(k, g @ h), atol=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 4, 6])
    def test_character(self, k):
        theta = 0.61
        g = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
        chi = np.trace(su2_irrep_matrix(k, g))
        assert chi == pytest.approx(np.sin((k + 1) * theta) / np.sin(theta), abs=1e-9)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            su2_irrep_matrix(2, 2.0 * np.eye(2))  # not unitary
        with pytest.raises(ValueError):
            su2_irrep_matrix(2, np.diag([1j, 1j]))  # det != 1


class TestQuadrature:
    def test_weights_normalized(self, su2_quad):
        assert abs(np.sum(su2_quad.weights) - 1.0) <= 1e-14

    @pytest.mark.parametrize("resolution, cap, level",
                             [(10, 6, 6), (4, 9, 7), (5, 10, 8), (8, 12, 11), (10, 20, 13)])
    def test_weights_are_the_flat_construction(self, resolution, cap, level):
        quad = make_su2_quadrature(resolution, cap)
        assert quad.kmax_valid == level
        np.testing.assert_array_equal(quad.weights, flat_weights(resolution))

    def test_nodes_are_special_unitary(self, su2_quad):
        g = euler_nodes(su2_quad)
        prod = np.einsum("gji,gjk->gik", g.conj(), g)
        assert np.max(np.abs(prod - np.eye(2))) <= 1e-12
        assert np.max(np.abs(np.linalg.det(g) - 1.0)) <= 1e-12

    def test_validity_level(self, su2_quad):
        assert su2_quad.kmax_valid >= 6

    def test_nontrivial_character_integrates_to_zero(self, su2_quad):
        tr = np.einsum("gii->g", su2_quad.irrep_stack(1))
        assert abs(np.sum(su2_quad.weights * tr)) <= 1e-10

    def test_schur_orthogonality_to_level_six(self, su2_quad):
        w = su2_quad.weights
        for k in range(7):
            yk = su2_quad.irrep_stack(k).reshape(len(w), -1)
            gram = np.einsum("gi,g,gj->ij", yk.conj(), w, yk)
            np.testing.assert_allclose(gram, np.eye(yk.shape[1]) / (k + 1), atol=1e-8)

    def test_round_trip(self, su2_quad):
        from qgfourier import make_su2_dual

        dual = make_su2_dual(4)
        f = random_coeffs(dual, RngSeed(157).generator())
        back = su2_fourier_coeffs(su2_quad, su2_quad.coeff_values(f), 4, dual)
        for k in range(5):
            np.testing.assert_allclose(back.block(k), f.block(k), atol=1e-8)

    def test_bad_level_is_a_key_error(self, su2_quad, s3_table):
        for label in (-1, "std"):
            with pytest.raises(KeyError, match=rf"SU\(2\) rule has no irrep labeled {label!r}"):
                su2_quad.irrep_stack(label)
        f = FourierCoeffs(s3_table.dual, {"std": np.eye(2)})
        with pytest.raises(KeyError, match="no irrep labeled 'std'"):
            su2_quad.coeff_values(f)

    def test_pointwise_evaluation_matches_stack(self, su2_quad):
        from qgfourier import make_su2_dual

        dual = make_su2_dual(3)
        f = random_coeffs(dual, RngSeed(163).generator())
        vals = su2_quad.coeff_values(f)
        nodes = euler_nodes(su2_quad)
        for idx in (0, 17, 101):
            assert evaluate_su2(f, nodes[idx]) == pytest.approx(vals[idx], rel=1e-10)

    def test_resolution_precondition(self):
        with pytest.raises(ValueError, match="resolution must be >= 4"):
            make_su2_quadrature(3)
        with pytest.raises(ValueError, match="validate_kmax must be >= 0"):
            make_su2_quadrature(10, -1)


def mutant_exponents(phi1, phi2, from_level=0):
    """A planted assembly fault: `_euler_exponents` with other phase exponents
    from level `from_level` on."""
    def exponents(k):
        i, j = np.indices((k + 1, k + 1))
        if k < from_level:
            return k - i - j, j - i
        return phi1(k, i, j), phi2(k, i, j)
    return exponents


ASSEMBLY_MUTANTS = {
    "phi2 exponent i - j": mutant_exponents(lambda k, i, j: k - i - j, lambda k, i, j: i - j),
    "phi1 exponent k - 2i": mutant_exponents(lambda k, i, j: k - 2 * i, lambda k, i, j: j - i),
    # level 1 is right here, so only the ring comparison can see it
    "phi2 exponent i - j above level 1": mutant_exponents(
        lambda k, i, j: k - i - j, lambda k, i, j: i - j, from_level=2),
}


class TestEulerStacks:
    @pytest.mark.parametrize("resolution", [4, 5, 10])
    def test_stacks_match_entry_formula_at_every_node(self, resolution):
        quad = make_su2_quadrature(resolution, 0)
        g = euler_nodes(quad)
        for k in range(15):
            formula = classical_eval._su2_entry_stack(
                k, g[:, 0, 0], g[:, 0, 1], g[:, 1, 0], g[:, 1, 1])
            assert float(np.max(np.abs(quad.irrep_stack(k) - formula))) <= 1e-13

    def test_entry_formula_is_the_term_loop_bit_for_bit(self):
        # one batch of terms per row, in the term loop's product and sum order,
        # on the polar angles and on random elements in the three shapes the
        # rule uses: (R,) polar, (R, P) ring and (nodes,)
        quad = make_su2_quadrature(10, 0)
        c, s = np.cos(quad.polar), np.sin(quad.polar)
        rng = RngSeed(173).generator()
        n_polar, n_phase = len(quad.polar), len(quad.phases)
        for shape in [(n_polar,), (n_polar, n_phase), (n_polar * n_phase ** 2,)]:
            a, b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in "ab")
            norm = np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)
            g = (a / norm, b / norm, -(b / norm).conj(), (a / norm).conj())
            for k in range(16):
                assert_same_bits(classical_eval._su2_entry_stack(k, *g), term_loop_entry_stack(k, *g))
                if shape == (n_polar,):
                    assert_same_bits(classical_eval._su2_entry_stack(k, c, s, -s, c),
                                     term_loop_entry_stack(k, c, s, -s, c))

    @pytest.mark.parametrize("resolution", [4, 5, 10])
    def test_assembly_is_the_exp_route_bit_for_bit(self, resolution):
        # phase factors gathered from one table of exponentials are the
        # per-entry exponentials: the stack, a column, the diagonal at the
        # first phi2 and the ring of the build's tie
        quad = make_su2_quadrature(resolution, 0)
        phases = quad.phases
        n_polar, n_phase = len(quad.polar), len(phases)
        r, p1 = np.indices((n_polar, n_phase))
        p2 = (p1 + r + 1) % n_phase
        for k in range(8):
            e1, e2 = classical_eval._euler_exponents(k)
            rho0 = quad._polar_stack(k)
            assert_same_bits(quad.irrep_stack(k), exp_assemble(
                rho0[:, None, None], e1, e2, phases[:, None, None, None], phases[:, None, None],
            ).reshape(-1, k + 1, k + 1))
            for j in range(k + 1):
                assert_same_bits(quad._assemble(k, np.s_[:, j]),
                                 exp_assemble_entries(quad, k, np.s_[:, j], phases))
            diagonal = np.diag_indices(k + 1)
            assert_same_bits(quad._assemble(k, diagonal, p2=np.arange(1)),
                             exp_assemble_entries(quad, k, diagonal, phases[:1]))
            assert_same_bits(
                classical_eval._euler_assemble(rho0[:, None], e1, e2, phases,
                                               p1[..., None, None], p2[..., None, None]),
                exp_assemble(rho0[:, None], e1, e2, phases[p1][..., None, None],
                             phases[p2][..., None, None]))

    @pytest.mark.parametrize("resolution, cap, level", [(10, 6, 6), (10, 0, 0), (4, 9, 7)])
    def test_build_keeps_no_stack_and_ties_every_valid_level(self, resolution, cap, level,
                                                              monkeypatch):
        # the ring tie is the entry formula at R x P nodes; the polar stacks
        # call it at the R polar angles alone
        formula = classical_eval._su2_entry_stack
        calls = []

        def spy(k, g00, g01, g10, g11):
            calls.append((k, np.shape(g00)))
            return formula(k, g00, g01, g10, g11)

        monkeypatch.setattr(classical_eval, "_su2_entry_stack", spy)
        quad = make_su2_quadrature(resolution, cap)
        ring = (len(quad.polar), len(quad.phases))
        assert quad.kmax_valid == level
        assert [k for k, shape in calls if shape == ring] == list(range(level + 1))
        stack = weakref.ref(quad.irrep_stack(level))
        assert stack() is None  # the rule keeps no stack it returns

    @pytest.mark.parametrize("seed, digest", [(7, "36ce25e3634a266b"), (11, "f3cbbcd2f0cc55cd"),
                                              (1234, "5aa53de9b52b2320")])
    def test_all_runs_without_an_irrep_stack(self, seed, digest, monkeypatch, capsys):
        # `all` reads the rule through its Euler factors alone, with the same records;
        # the three pinned hashes hold every record of `all` to its last bit
        def refuse(self, k):
            raise AssertionError(f"the level-{k} stack was made")

        monkeypatch.setattr(classical_eval.SU2Quadrature, "irrep_stack", refuse)
        code, doc = execute(["all", "--seed", str(seed)])
        capsys.readouterr()
        assert code == 0
        assert doc["content_hash"].startswith(digest)

    def test_build_memory_is_the_arrays_it_keeps(self, traced_peak):
        # the rule keeps its four arrays and the polar stacks.  The largest
        # transients are the ring tie's at level K = kmax_valid, in units of
        # one (R, P, K+1, K+1) complex ring.  While the entry formula runs at
        # level K, the tie holds the assembled ring (1) and the formula its
        # output, a contiguous copy of it and its power tables (about 3.1 at
        # K = 6).  The assembly before it gathers both phase factors from one
        # small table and stays under 3.5 with level K-1's ring still live;
        # after it, the ring, the formula, their difference and its modulus
        # come to 3.5.  The build peaks at 4.25 rings; the stacks of levels
        # 0..6 alone would be 7 times the ring.
        make_su2_quadrature(10, 6)  # numpy's lazy set-up outside the trace
        quad, peak = traced_peak(lambda: make_su2_quadrature(10, 6))
        kept = sum(a.nbytes for a in (quad.polar, quad.ring_weights, quad.phases, quad.weights))
        kept += sum(stack.nbytes for stack in quad._polar_stacks.values())
        n = quad.kmax_valid + 1
        ring = len(quad.polar) * len(quad.phases) * n * n * np.dtype(complex).itemsize
        assert peak <= kept + 5 * ring

    def test_rule_keeps_no_node_array_but_weights(self):
        # the rule stores its Euler factors: no nodes, and no array of R P^2
        # entries or more except the node weights derived from `ring_weights`
        quad = make_su2_quadrature(10, 6)
        assert not hasattr(quad, "nodes")
        n_nodes = len(quad.polar) * len(quad.phases) ** 2
        arrays = [v for v in vars(quad).values() if isinstance(v, np.ndarray)]
        arrays += list(quad._polar_stacks.values())
        assert [a.size >= n_nodes for a in arrays] == [a is quad.weights for a in arrays]

    def test_rule_is_read_only(self):
        # the premises checked at build time (the ring tie, the angles and
        # weights the exactness level rests on) cannot be edited away afterwards
        quad = make_su2_quadrature(4, 0)
        for array in (quad.ring_weights, quad.weights, quad.polar, quad.phases,
                      quad._polar_stack(3)):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_level_one_is_the_nodes(self, su2_quad):
        # level 1 at every node, against the nodes made from the angles
        assert float(np.max(np.abs(su2_quad.irrep_stack(1) - euler_nodes(su2_quad)))) <= 1e-15

    @pytest.mark.parametrize("angles", ["polar", "phases"])
    def test_nan_angle_raises(self, angles, monkeypatch):
        # planted after the premise check, so only the ring tie can see it
        exact_level = classical_eval._exact_level

        def planted(quad, cap):
            level = exact_level(quad, cap)
            getattr(quad, angles)[3] = np.nan
            return level

        monkeypatch.setattr(classical_eval, "_exact_level", planted)
        with pytest.raises(ValueError, match="differs from the entry formula by nan"):
            make_su2_quadrature(10, 6)

    @pytest.mark.parametrize("array, slot", [("polar", 0), ("ring_weights", 1)])
    def test_non_finite_rule_input_raises_in_the_premise_check(self, array, slot, monkeypatch):
        # the ring tie at level 0 reads no angle, so a NaN polar angle or ring
        # weight must be refused before it: every moment but the zeroth reads
        # each angle, and every moment reads each weight
        leggauss = np.polynomial.legendre.leggauss
        exact_level = classical_eval._exact_level
        checked = []

        def poisoned(n):
            nodes = list(leggauss(n))
            nodes[slot][3] = np.nan
            return tuple(nodes)

        def spy(quad, cap):
            checked.append(np.isnan(getattr(quad, array)[3]))
            return exact_level(quad, cap)

        def unreached(quad):
            raise AssertionError("the ring tie ran")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", poisoned)
        monkeypatch.setattr(classical_eval, "_exact_level", spy)
        monkeypatch.setattr(classical_eval, "_check_stacks", unreached)
        with pytest.raises(ValueError, match="polar moments differ from the Legendre ones by nan"):
            make_su2_quadrature(10, 0)
        assert checked == [True]

    @pytest.mark.parametrize("name", ASSEMBLY_MUTANTS)
    def test_assembly_fault_raises_at_build(self, name, monkeypatch):
        # the premise check passes every mutant: only the tie to the formula sees it
        exact_level = classical_eval._exact_level
        levels = []

        def spy(quad, cap):
            levels.append(exact_level(quad, cap))
            return levels[-1]

        monkeypatch.setattr(classical_eval, "_exact_level", spy)
        monkeypatch.setattr(classical_eval, "_euler_exponents", ASSEMBLY_MUTANTS[name])
        with pytest.raises(ValueError, match="differs from the"):
            make_su2_quadrature()
        assert levels == [6]

    def test_level_22_is_refused_by_the_tie(self, monkeypatch):
        # the rule is exact to level 27 and its premises hold; the entry
        # formula's own rounding exceeds STACK_TIE_TOL at level 22
        exact_level = classical_eval._exact_level
        levels = []

        def spy(quad, cap):
            levels.append(exact_level(quad, cap))
            return levels[-1]

        monkeypatch.setattr(classical_eval, "_exact_level", spy)
        with pytest.raises(ValueError, match="level 22 stack differs from the entry formula"):
            make_su2_quadrature(24, 48)
        assert levels == [27]


class TestValidityMeasurement:
    # every case but the last crosses a failing level
    @pytest.mark.parametrize("resolution, cap, level",
                             [(4, 9, 7), (5, 10, 8), (6, 10, 9), (8, 12, 11), (10, 6, 6)])
    def test_agrees_with_einsum_route(self, resolution, cap, level):
        # the level decisions against a weighted GEMM per pair of levels, still
        # a sum over every node; the rows against the contracted einsum at 1e-14
        quad = make_su2_quadrature(resolution, 0)
        assert polar_valid_kmax(quad, cap) == level
        assert einsum_valid_kmax(quad, cap, gemm_pair_gram) == level
        for k, gram in enumerate(polar_level_grams(quad, min(level + 1, cap))):
            assert float(np.max(np.abs(gram - einsum_level_gram(quad, k)))) <= 1e-14

    # each cap lies past the derived level, so the Gram crosses a failing level
    @pytest.mark.parametrize("resolution, cap",
                             [(4, 9), (5, 10), (6, 10), (8, 12), (10, 20), (12, 20), (16, 22)])
    def test_derived_level_is_the_measured_one(self, resolution, cap):
        quad = make_su2_quadrature(resolution, cap)
        assert quad.kmax_valid == min(2 * resolution - 1, resolution + 3) < cap
        assert polar_valid_kmax(quad, cap) == quad.kmax_valid

    def test_moved_phase_is_refused(self):
        # one phase moved by 1e-6 leaves S(1) about 3.6e-8 off zero on 28 phases
        quad = make_su2_quadrature(10, 6)
        phases = quad.phases.copy()
        phases[3] += 1e-6
        moved = classical_eval.SU2Quadrature(polar=quad.polar, ring_weights=quad.ring_weights,
                                             phases=phases, kmax_valid=-1)
        assert classical_eval._exact_level(quad, 6) == 6
        with pytest.raises(ValueError, match="phase sums differ from the uniform ones"):
            classical_eval._exact_level(moved, 6)

    def test_default_rule_is_exact_to_level_13(self):
        assert make_su2_quadrature(10, 20).kmax_valid == 13

    def test_perturbed_weight_fails_at_level_zero(self, monkeypatch):
        # the first ring's weight scaled by 1 + 1e-6: the zeroth polar moment,
        # the polar Gram and the node sum over every node all see the wrong
        # Legendre weight
        leggauss = np.polynomial.legendre.leggauss

        def perturbed(n):
            t, v = leggauss(n)
            v[0] *= 1 + 1e-6
            return t, v

        exact_level = classical_eval._exact_level
        levels = []

        def spy(quad, cap):
            levels.extend([polar_valid_kmax(quad, cap), einsum_valid_kmax(quad, cap)])
            return exact_level(quad, cap)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", perturbed)
        monkeypatch.setattr(classical_eval, "_exact_level", spy)
        with pytest.raises(ValueError, match="polar moments differ from the Legendre ones"):
            make_su2_quadrature()
        assert levels == [-1, -1]


SU2_RULES = [(4, 9), (5, 10), (10, 6)]  # (resolution, validate_kmax): kmax_valid 7, 8, 6


def einsum_bound_check(a, stack, i, j, haar, side):
    """Reference for `coefficient_bound_check`: an einsum over the (conjugated)
    column of `stack`, the level-k stack of `haar`."""
    k = stack.shape[-1] - 1
    row_norm = float(np.linalg.norm(a[i, :]))
    if side == "upper":
        actual = float(np.max(np.abs(np.einsum("m,gm->g", a[i, :], stack[:, :, j].conj()))))
        return classical_eval.BoundCheck(side, row_norm, actual, row_norm - actual)
    vals = np.einsum("m,gm->g", a[i, :], stack[:, :, j])
    actual = float(np.sum(haar.weights * np.abs(vals)))
    return classical_eval.BoundCheck(side, row_norm / (k + 1), actual, actual - row_norm / (k + 1))


class TestCoefficientBounds:
    def test_matrix_unit_upper(self, su2_quad):
        k = 2
        a = np.zeros((3, 3), dtype=complex)
        a[1, 0] = 1.0
        res = coefficient_bound_check(a, k, 1, 2, su2_quad, "upper")
        assert res.bound == pytest.approx(1.0)
        assert res.actual <= 1.0 + 1e-12
        assert res.margin >= -1e-6

    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_random_instances(self, su2_quad, side):
        rng = RngSeed(167).generator()
        for _ in range(25):
            k = int(rng.integers(1, 5))
            n = k + 1
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
            res = coefficient_bound_check(a, k, i, j, su2_quad, side)
            assert res.margin >= -1e-6

    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_agrees_with_einsum_form(self, side):
        # the column from the Euler factors gives the einsum's values over the
        # node stack bit for bit, at every valid level and every (i, j) of three
        # rules; one stack is held at a time
        rng = RngSeed(169).generator()
        for resolution, cap in SU2_RULES:
            quad = make_su2_quadrature(resolution, cap)
            for k in range(quad.kmax_valid + 1):
                n = k + 1
                a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                stack = quad.irrep_stack(k)
                for i in range(n):
                    for j in range(n):
                        res = coefficient_bound_check(a, k, i, j, quad, side)
                        assert res == einsum_bound_check(a, stack, i, j, quad, side)

    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_shared_column_gives_the_same_check(self, su2_quad, side):
        rng = RngSeed(179).generator()
        for k in range(1, su2_quad.kmax_valid + 1):
            n = k + 1
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
            column = su2_quad.column(k, j)
            assert (coefficient_bound_check(a, k, i, j, su2_quad, side, column)
                    == coefficient_bound_check(a, k, i, j, su2_quad, side))

    def test_rejects_a_column_of_another_level(self, su2_quad):
        with pytest.raises(ValueError, match="column shape"):
            coefficient_bound_check(np.eye(3), 2, 0, 0, su2_quad, "upper", su2_quad.column(3, 0))

    def test_rejects_level_beyond_measured_rule(self, su2_quad):
        k = su2_quad.kmax_valid + 1
        with pytest.raises(ValueError, match="validity level"):
            coefficient_bound_check(np.eye(k + 1), k, 0, 0, su2_quad, "upper")

    @pytest.mark.parametrize("matrix, i, j, error, refusal", [
        (np.eye(2), 0, 0, ValueError, "matrix shape"),
        (np.eye(3), 3, 0, IndexError, "out of range"),
        (np.eye(3), 0, -1, IndexError, "out of range"),
    ], ids=["shape", "row", "column"])
    def test_rejects_a_malformed_case(self, su2_quad, matrix, i, j, error, refusal):
        with pytest.raises(error, match=refusal):
            coefficient_bound_check(matrix, 2, i, j, su2_quad, "upper")

    def test_rejects_unknown_side(self, su2_quad):
        with pytest.raises(ValueError):
            coefficient_bound_check(np.eye(2), 1, 0, 0, su2_quad, "sideways")


class TestCharacterL1:
    def test_level_zero(self, su2_quad):
        assert character_l1(0, su2_quad) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("resolution, cap", SU2_RULES)
    def test_euler_route_equals_stack_trace(self, resolution, cap):
        # the (R, P) traces broadcast over phi2 give the node-stack integral bit for bit
        quad = make_su2_quadrature(resolution, cap)
        for k in range(quad.kmax_valid + 1):
            tr = np.einsum("gii->g", quad.irrep_stack(k))
            assert character_l1(k, quad) == float(np.sum(quad.weights * np.abs(tr)))

    @pytest.mark.parametrize("level", [-1, 2.5, 20.5, "1"])
    def test_bad_level_is_a_key_error(self, su2_quad, level):
        with pytest.raises(KeyError, match="SU\\(2\\) rule has no irrep labeled"):
            character_l1(level, su2_quad)

    def test_weyl_route_refuses_a_negative_level(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            weyl_character_l1(-1)

    def test_level_one_regression_value(self):
        # frozen from the one-dimensional oracle: (2/pi) * 4/3
        assert weyl_character_l1(1) == pytest.approx(8.0 / (3.0 * np.pi), abs=1e-14)

    def test_euler_route_agrees_with_weyl_route(self, su2_quad):
        # |tr| has kinks, so the product rule is a few 1e-3 off the exact value
        for k in range(su2_quad.kmax_valid + 1):
            assert character_l1(k, su2_quad) == pytest.approx(weyl_character_l1(k), abs=2e-2)

    @pytest.mark.parametrize("k", [1, 3, 10, 57])
    def test_weyl_route_against_adaptive_quadrature(self, k):
        integrand = lambda t: abs(np.sin((k + 1) * t) * np.sin(t))
        total = 0.0
        cuts = np.linspace(0.0, np.pi, k + 2)
        for a, b in zip(cuts[:-1], cuts[1:]):
            total += scipy_quad(integrand, a, b, limit=200)[0]
        assert weyl_character_l1(k) == pytest.approx((2.0 / np.pi) * total, abs=1e-10)

    def test_large_level_limit(self):
        assert weyl_character_l1(200) == pytest.approx(8.0 / np.pi**2, abs=0.01)

    def test_floor_through_200(self):
        assert min(weyl_character_l1(k) for k in range(201)) >= 0.5


class TestGaussianSeriesL1:
    def test_singleton_half_normal(self):
        z1 = cyclic_group(1)
        f = FourierCoeffs(z1.dual, {0: np.array([[1.7]])})
        res = gaussian_series_l1_mean(f, 20_000, RngSeed(173), z1)
        assert res.predicted == pytest.approx(np.sqrt(2 / np.pi) * 1.7, rel=1e-12)
        assert abs(res.mean - res.predicted) <= 3 * res.stderr

    def test_real_family_on_s3(self, s3_table):
        f = random_coeffs(s3_table.dual, RngSeed(179).generator(), real=True)
        res = gaussian_series_l1_mean(f, 10_000, RngSeed(181), s3_table)
        assert abs(res.mean - res.predicted) <= 3 * res.stderr

    def test_zero_family(self, s3_table):
        f = FourierCoeffs(s3_table.dual, {})
        res = gaussian_series_l1_mean(f, 10, RngSeed(191), s3_table)
        assert res.mean == 0.0 and res.predicted == 0.0

    def test_complex_corpus_respects_lower_bound(self, z8_table):
        # for general complex coefficients only the one-sided bound holds:
        # mean >= sqrt(2/pi) * coefficient energy root (up to MC error)
        f = random_coeffs(z8_table.dual, RngSeed(193).generator(), labels=[1, 3, 5])
        res = gaussian_series_l1_mean(f, 10_000, RngSeed(197), z8_table)
        assert res.mean + 3 * res.stderr >= res.predicted


class TestCotype:
    def test_singleton_ratio(self, s3_table):
        xs = [random_coeffs(s3_table.dual, RngSeed(199).generator())]
        res = cotype2_ratio(s3_table, xs, 20_000, RngSeed(211))
        assert abs(res.ratio - np.sqrt(2 / np.pi)) <= 3 * res.stderr

    def test_z8_characters(self, z8_table):
        xs = [
            FourierCoeffs(z8_table.dual, {j: np.array([[1.0]])})
            for j in range(8)
        ]
        res = cotype2_ratio(z8_table, xs, 5000, RngSeed(223))
        assert res.ratio >= 0.2

    def test_rejects_empty_and_zero(self, s3_table):
        with pytest.raises(ValueError):
            cotype2_ratio(s3_table, [], 100, RngSeed(227))
        zero = FourierCoeffs(s3_table.dual, {})
        with pytest.raises(ValueError):
            cotype2_ratio(s3_table, [zero, zero], 100, RngSeed(229))


def einsum_series_l1(haar, f, draw):
    """Reference chunk draw for `_series_l1`: one three-operand einsum per label."""
    def l1(rng, take):
        vals = np.zeros((take, len(haar.weights)), dtype=complex)
        for label, m in f.support.items():
            scale, x = draw(rng, m.shape[0])
            vals += scale * np.einsum("tij,jm,gmi->tg", x[:take], m, haar.irrep_stack(label))
        return np.abs(vals) @ haar.weights
    return l1


def stacked_series_l1(haar, f, draw):
    """Reference chunk draw for `_series_l1`: X f as a stack of `take` n x n products."""
    def l1(rng, take):
        vals = np.zeros((take, len(haar.weights)), dtype=complex)
        for label, m in f.support.items():
            scale, x = draw(rng, m.shape[0])
            stack = haar.irrep_stack(label)
            xm_t = np.swapaxes(x[:take] @ m, 1, 2).reshape(take, -1)
            vals += scale * (xm_t @ stack.reshape(len(stack), -1).T)
        return np.abs(vals) @ haar.weights
    return l1


def series_l1_chunks(series, haar, f, trials, seed, draw):
    """The L1 norms of each chunk of `trials`, drawn by `series(haar, f, draw)`."""
    return list(_chunks(trials, MC_CHUNK, seed, series(haar, f, draw), 1))


SERIES_DRAWS = {
    "gaussian": lambda rng, n: (np.sqrt(n), rng.standard_normal((MC_CHUNK, n, n))),
    "unitary": lambda rng, n: (n, haar_unitary_stack(n, MC_CHUNK, rng)),
}


@pytest.mark.parametrize("draw", SERIES_DRAWS)
@pytest.mark.parametrize("rule, trials", [("s3_table", 1500), ("z8_table", 1500),
                                          ("su2_quad", 40)])
def test_series_l1_agrees_with_einsum(rule, trials, draw, request):
    haar = request.getfixturevalue(rule)
    if rule == "su2_quad":
        from qgfourier import make_su2_dual

        dual = make_su2_dual(3)
    else:
        dual = haar.dual
    f = random_coeffs(dual, RngSeed(269).generator())
    got = series_l1_chunks(classical_eval._series_l1, haar, f, trials, RngSeed(271),
                           SERIES_DRAWS[draw])
    ref = series_l1_chunks(einsum_series_l1, haar, f, trials, RngSeed(271), SERIES_DRAWS[draw])
    assert [len(l1) for l1 in got] == [len(l1) for l1 in ref]
    np.testing.assert_allclose(np.concatenate(got), np.concatenate(ref), rtol=1e-13, atol=0)


@pytest.mark.parametrize("n", range(1, 7))
def test_flat_product_equals_stacked_products(n):
    rng = RngSeed(283, n).generator()
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for x in (rng.standard_normal((MC_CHUNK, n, n)), haar_unitary_stack(n, MC_CHUNK, rng)):
        for take in (MC_CHUNK, 1000):
            flat = (x[:take].reshape(take * n, n) @ m).reshape(take, n, n)
            np.testing.assert_array_equal(flat, x[:take] @ m)


@pytest.mark.parametrize("draw", SERIES_DRAWS)
@pytest.mark.parametrize("rule, trials", [("s3_table", 1500), ("z8_table", 1500),
                                          ("su2_quad", 40)])
def test_series_l1_equals_stacked_products(rule, trials, draw, request):
    # one (take n, n) @ (n, n) product gives the stacked products bit for bit,
    # on real (Gaussian) and complex (Haar) stacks; su2 levels 0..5 are n = 1..6
    haar = request.getfixturevalue(rule)
    if rule == "su2_quad":
        from qgfourier import make_su2_dual

        dual = make_su2_dual(5)
    else:
        dual = haar.dual
    f = random_coeffs(dual, RngSeed(277).generator())
    got = series_l1_chunks(classical_eval._series_l1, haar, f, trials, RngSeed(281),
                           SERIES_DRAWS[draw])
    ref = series_l1_chunks(stacked_series_l1, haar, f, trials, RngSeed(281), SERIES_DRAWS[draw])
    assert len(got) == len(ref)
    for l1, r in zip(got, ref):
        np.testing.assert_array_equal(l1, r)


class TestRandomizedL1Report:
    def test_trivial_coefficient(self, s3_table):
        f = FourierCoeffs(s3_table.dual, {"triv": np.array([[2.0]])})
        res = randomized_l1_report(s3_table, f, 200, RngSeed(233))
        assert res.sup_l1_over_u == pytest.approx(2.0, abs=1e-12)
        assert res.ell2 == pytest.approx(2.0)
        assert res.ratio == pytest.approx(1.0, abs=1e-12)

    def test_sign_character_is_phase_invariant(self):
        z2 = cyclic_group(2)
        f = FourierCoeffs(z2.dual, {1: np.array([[1.0]])})
        res = randomized_l1_report(z2, f, 500, RngSeed(239))
        assert res.sup_l1_over_u == pytest.approx(1.0, abs=1e-12)
        assert res.ell2 == pytest.approx(1.0)

    def test_stability_under_more_unitaries(self, s3_table):
        f = random_coeffs(s3_table.dual, RngSeed(241).generator())
        r1 = randomized_l1_report(s3_table, f, 1000, RngSeed(251))
        r2 = randomized_l1_report(s3_table, f, 10_000, RngSeed(251))
        assert abs(r1.ratio - r2.ratio) <= 0.1 * r2.ratio
        assert r2.sup_l1_over_u >= r1.sup_l1_over_u  # nested seeds: sup is monotone


    def test_only_an_exact_zero_ell2_gives_ratio_zero(self, s3_table):
        # a NaN ell2 read as ratio 0.0, which a stability gate 0 <= 0.1 * 0 passes
        dual = s3_table.dual
        nan = randomized_l1_report(s3_table, FourierCoeffs(dual, {"std": np.full((2, 2), np.nan)}),
                                   2, RngSeed(233))
        assert math.isnan(nan.ell2) and math.isnan(nan.ratio)
        zero = randomized_l1_report(s3_table, FourierCoeffs(dual, {}), 2, RngSeed(233))
        assert zero.ell2 == zero.ratio == 0.0

    def test_nan_chunk_is_kept(self, s3_table, monkeypatch):
        # one label, so one draw per chunk; the second of three chunks NaN
        calls = []

        def poisoned(n, count, rng):
            calls.append(n)
            w = haar_unitary_stack(n, count, rng)
            return w * np.nan if len(calls) == 2 else w
        monkeypatch.setattr(classical_eval, "haar_unitary_stack", poisoned)
        f = FourierCoeffs(s3_table.dual, {"std": np.eye(2)})
        res = randomized_l1_report(s3_table, f, 3 * MC_CHUNK, RngSeed(233))
        assert len(calls) == 3 and np.isnan(res.sup_l1_over_u)

    def test_su2_rule_ratio_is_at_most_one(self, su2_quad):
        # on a probability measure L1 <= L2, and the L2 norm of f_U is ell2(f)
        from qgfourier import make_su2_dual

        f = random_coeffs(make_su2_dual(2), RngSeed(257).generator())
        res = randomized_l1_report(su2_quad, f, 256, RngSeed(263))
        assert 0.0 < res.ratio <= 1.0 + 1e-9
