import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from qgfourier import (
    ClassicalDomainError,
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
    weyl_character_l1,
)
from qgfourier import classical_eval
from qgfourier.classical_eval import (
    MC_CHUNK,
    SCHUR_QUAD_TOL,
    FiniteGroupTable,
    GroupIrrep,
    make_su2_quadrature,
)
from qgfourier.cli import execute
from qgfourier.random_series import haar_unitary_stack, iter_chunks


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


def einsum_level_gram(quad, k) -> np.ndarray:
    """Oracle for _level_gram: the Gram rows of level k against levels 0..k,
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


def einsum_valid_kmax(quad, cap, pair_gram=einsum_pair_gram, stacks=None) -> int:
    """Oracle for _measure_valid_kmax: a node sum over all nodes for each pair
    of levels, with no polar regrouping, stopping at the first failing level.
    `stacks`, if given, holds the level stacks 0..cap, made by the caller."""
    valid = -1
    flat = []
    for k in range(cap + 1):
        stack = quad.irrep_stack(k) if stacks is None else stacks[k]
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


class TestFiniteGroups:
    def test_z4_characters(self):
        z4 = cyclic_group(4)
        assert z4.order == 4
        root = np.exp(2j * np.pi / 4)
        for j, ir in enumerate(z4.irreps):
            np.testing.assert_allclose(
                ir.matrices[:, 0, 0], [root ** (j * g) for g in range(4)], atol=1e-14
            )

    def test_trivial_group(self):
        z1 = cyclic_group(1)
        assert z1.order == 1 and len(z1.irreps) == 1

    def test_s3_peter_weyl(self, s3_table):
        assert sum(ir.n**2 for ir in s3_table.irreps) == 6
        assert [ir.n for ir in s3_table.irreps] == [1, 1, 2]

    def test_s3_schur_is_validated_at_construction(self, s3_table):
        # construction already runs the exhaustive orthogonality check; spot-check one entry
        std = s3_table.irrep("std")
        gram = np.mean(std.matrices[:, 0, 0] * np.conj(std.matrices[:, 0, 0]))
        assert gram == pytest.approx(0.5, abs=1e-12)

    def test_rejects_broken_mult_table(self):
        mult = np.array([[0, 1], [1, 1]])  # not a group law
        irreps = (GroupIrrep(0, 1, np.ones((2, 1, 1))),)
        with pytest.raises(GroupTableError):
            FiniteGroupTable(name="bad", order=2, mult=mult, irreps=irreps)

    def test_rejects_non_unitary_irrep(self, z8_table):
        irreps = list(z8_table.irreps)
        mats = irreps[3].matrices.copy()
        mats[5] *= 1 + 1e-9
        irreps[3] = GroupIrrep(3, 1, mats)
        with pytest.raises(GroupTableError, match="unitarity defect"):
            FiniteGroupTable(name="z8", order=8, mult=z8_table.mult, irreps=irreps)

    def test_nan_round_trip_fails(self, monkeypatch):
        # a NaN in a later label's block must not drop out of the worst error
        extract = FiniteGroupTable.fourier_coeffs

        def poisoned(self, values):
            f = extract(self, values)
            last = f.labels()[-1]
            return FourierCoeffs(f.dual, {**f.support, last: np.full_like(f.support[last], np.nan)})
        monkeypatch.setattr(FiniteGroupTable, "fourier_coeffs", poisoned)
        with pytest.raises(GroupTableError, match="round trip"):
            cyclic_group(3)

    @pytest.mark.parametrize("table", ["z8_table", "s3_table"])
    def test_weights_are_stored_once_and_read_only(self, table, request):
        t = request.getfixturevalue(table)
        assert t.weights is t.weights
        assert not t.weights.flags.writeable
        np.testing.assert_array_equal(t.weights, np.full(t.order, 1 / t.order))

    def test_rejects_wrong_peter_weyl(self):
        z2 = cyclic_group(2)
        with pytest.raises(GroupTableError):
            FiniteGroupTable(
                name="half", order=2, mult=z2.mult, irreps=(z2.irreps[0],)
            )

    def test_sign_character_values(self):
        z2 = cyclic_group(2)
        f = FourierCoeffs(z2.dual_descriptor(), {1: np.array([[1.0]])})
        np.testing.assert_allclose(z2.coeff_values(f), [1.0, -1.0], atol=1e-15)
        assert l1_norm_classical(f, z2) == pytest.approx(1.0)
        assert linfty_norm_classical(f, z2) == pytest.approx(1.0)

    def test_constant_function(self, s3_table):
        f = FourierCoeffs(s3_table.dual_descriptor(), {"triv": np.array([[2.0 - 1.0j]])})
        np.testing.assert_allclose(s3_table.coeff_values(f), [2.0 - 1.0j] * 6, atol=1e-15)
        assert l1_norm_classical(f, s3_table) == pytest.approx(abs(2 - 1j))

    def test_round_trip_extraction(self, s3_table):
        rng = RngSeed(137).generator()
        f = random_coeffs(s3_table.dual_descriptor(), rng)
        back = s3_table.fourier_coeffs(s3_table.coeff_values(f))
        for l in f.labels():
            np.testing.assert_allclose(back.block(l), f.block(l), atol=1e-12)

    def test_holder_chain(self, s3_table):
        rng = RngSeed(139).generator()
        for _ in range(10):
            f = random_coeffs(s3_table.dual_descriptor(), rng)
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

    def test_bad_level_is_a_domain_error(self, su2_quad, s3_table):
        for label in (-1, "std"):
            with pytest.raises(ClassicalDomainError):
                su2_quad.irrep_stack(label)
        f = FourierCoeffs(s3_table.dual_descriptor(), {"std": np.eye(2)})
        with pytest.raises(ClassicalDomainError):
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

    def test_all_runs_without_an_irrep_stack(self, monkeypatch, capsys):
        # `all` reads the rule through its Euler factors alone, with the same records
        def refuse(self, k):
            raise AssertionError(f"the level-{k} stack was made")

        monkeypatch.setattr(classical_eval.SU2Quadrature, "irrep_stack", refuse)
        code, doc = execute(["all", "--seed", "7"])
        capsys.readouterr()
        assert code == 0
        assert doc["content_hash"].startswith("36ce25e3634a266b")

    def test_build_memory_is_the_arrays_it_keeps(self):
        # the rule keeps its four arrays and the polar stacks.  The largest
        # transients are the ring tie's at level K = kmax_valid, in units of
        # one (R, P, K+1, K+1) complex ring: while level K is assembled, level
        # K-1's assembly and formula (under 2) and the assembly's two phase
        # factors with the second one's argument (3) are live, under 5 in all;
        # after it, the formula's power tables and output come to under 3 next
        # to the assembly, and the difference and its modulus to 1.5.  The
        # stacks of levels 0..6 alone would be 7 times the ring.
        make_su2_quadrature(10, 6)  # numpy's lazy set-up outside the trace
        tracemalloc.start()
        try:
            quad = make_su2_quadrature(10, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
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
        # the premises checked at build time (the ring tie, the ring weights
        # the Gram was measured with, kmax_valid) cannot be edited away afterwards
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
        # planted after the measurement, so only the ring tie can see it
        measure = classical_eval._measure_valid_kmax

        def planted(quad, cap):
            level = measure(quad, cap)
            getattr(quad, angles)[3] = np.nan
            return level

        monkeypatch.setattr(classical_eval, "_measure_valid_kmax", planted)
        with pytest.raises(ValueError, match="differs from the entry formula by nan"):
            make_su2_quadrature(10, 6)

    @pytest.mark.parametrize("array, slot", [("polar", 0), ("ring_weights", 1)])
    def test_non_finite_rule_input_raises_before_the_measurement(self, array, slot, monkeypatch):
        # a NaN polar angle would pass the measurement (it stops at level 1) and
        # the ring tie at level 0, which reads no angle; a NaN weight would fail
        # at level 0 under the wrong message.  Both are refused by name first.
        leggauss = np.polynomial.legendre.leggauss

        def poisoned(n):
            nodes = list(leggauss(n))
            nodes[slot][3] = np.nan
            return tuple(nodes)

        def unreached(quad, cap):
            raise AssertionError("the measurement ran")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", poisoned)
        monkeypatch.setattr(classical_eval, "_measure_valid_kmax", unreached)
        with pytest.raises(ValueError, match=f"quadrature {array} has a non-finite entry"):
            make_su2_quadrature(10, 6)

    @pytest.mark.parametrize("name", ASSEMBLY_MUTANTS)
    def test_assembly_fault_raises_at_build(self, name, monkeypatch):
        # the Gram validation passes every mutant: only the tie to the formula sees it
        measure = classical_eval._measure_valid_kmax
        levels = []

        def spy(quad, cap):
            levels.append(measure(quad, cap))
            return levels[-1]

        monkeypatch.setattr(classical_eval, "_measure_valid_kmax", spy)
        monkeypatch.setattr(classical_eval, "_euler_exponents", ASSEMBLY_MUTANTS[name])
        with pytest.raises(ValueError, match="differs from the"):
            make_su2_quadrature()
        assert levels == [6]


class TestValidityMeasurement:
    # every case but the last crosses a failing level
    @pytest.mark.parametrize("resolution, cap, level",
                             [(4, 9, 7), (5, 10, 8), (6, 10, 9), (8, 12, 11), (10, 6, 6)])
    def test_agrees_with_einsum_route(self, resolution, cap, level):
        # the level decisions against a weighted GEMM per pair of levels, still
        # a sum over every node; the rows against the contracted einsum at 1e-14
        quad = make_su2_quadrature(resolution, 0)
        assert classical_eval._measure_valid_kmax(quad, cap) == level
        assert einsum_valid_kmax(quad, cap, gemm_pair_gram) == level
        for k in range(min(level + 1, cap) + 1):
            gram = classical_eval._level_gram(quad, k)
            assert float(np.max(np.abs(gram - einsum_level_gram(quad, k)))) <= 1e-14

    def test_reads_no_irrep_stack(self, monkeypatch):
        quad = make_su2_quadrature(10, 0)

        def refuse(self, k):
            raise AssertionError(f"the measurement read the level-{k} stack")

        monkeypatch.setattr(classical_eval.SU2Quadrature, "irrep_stack", refuse)
        assert classical_eval._measure_valid_kmax(quad, 20) == 13

    def test_default_rule_is_exact_to_level_13(self):
        assert make_su2_quadrature(10, 20).kmax_valid == 13

    def test_perturbed_weight_fails_at_level_zero(self, monkeypatch):
        # the first ring's weight scaled by 1 + 1e-6: the polar Gram and the
        # node sum over every node both see the wrong Legendre weight
        leggauss = np.polynomial.legendre.leggauss

        def perturbed(n):
            t, v = leggauss(n)
            v[0] *= 1 + 1e-6
            return t, v

        measure = classical_eval._measure_valid_kmax
        levels = []

        def spy(quad, cap):
            levels.extend([measure(quad, cap), einsum_valid_kmax(quad, cap)])
            return levels[0]

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", perturbed)
        monkeypatch.setattr(classical_eval, "_measure_valid_kmax", spy)
        with pytest.raises(ValueError, match="level 0"):
            make_su2_quadrature()
        assert levels == [-1, -1]

    def test_peak_memory_not_above_einsum_route(self, su2_quad):
        # the einsum route's stacks, made before tracing
        stacks = [su2_quad.irrep_stack(k) for k in range(7)]
        peaks = []
        for route in (classical_eval._measure_valid_kmax,
                      lambda quad, cap: einsum_valid_kmax(quad, cap, stacks=stacks)):
            tracemalloc.start()
            try:
                assert route(su2_quad, 6) == 6
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1]


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

    def test_rejects_level_beyond_measured_rule(self, su2_quad):
        k = su2_quad.kmax_valid + 1
        with pytest.raises(ValueError, match="validity level"):
            coefficient_bound_check(np.eye(k + 1), k, 0, 0, su2_quad, "upper")

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
    def test_bad_level_is_a_domain_error(self, su2_quad, level):
        with pytest.raises(ClassicalDomainError):
            character_l1(level, su2_quad)

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
        f = FourierCoeffs(z1.dual_descriptor(), {0: np.array([[1.7]])})
        res = gaussian_series_l1_mean(f, 20_000, RngSeed(173), z1)
        assert res.predicted == pytest.approx(np.sqrt(2 / np.pi) * 1.7, rel=1e-12)
        assert abs(res.mean - res.predicted) <= 3 * res.stderr

    def test_real_family_on_s3(self, s3_table):
        f = random_coeffs(s3_table.dual_descriptor(), RngSeed(179).generator(), real=True)
        res = gaussian_series_l1_mean(f, 10_000, RngSeed(181), s3_table)
        assert abs(res.mean - res.predicted) <= 3 * res.stderr

    def test_zero_family(self, s3_table):
        f = FourierCoeffs(s3_table.dual_descriptor(), {})
        res = gaussian_series_l1_mean(f, 10, RngSeed(191), s3_table)
        assert res.mean == 0.0 and res.predicted == 0.0

    def test_complex_corpus_respects_lower_bound(self, z8_table):
        # for general complex coefficients only the one-sided bound holds:
        # mean >= sqrt(2/pi) * coefficient energy root (up to MC error)
        f = random_coeffs(z8_table.dual_descriptor(), RngSeed(193).generator(), labels=[1, 3, 5])
        res = gaussian_series_l1_mean(f, 10_000, RngSeed(197), z8_table)
        assert res.mean + 3 * res.stderr >= res.predicted


class TestCotype:
    def test_singleton_ratio(self, s3_table):
        xs = [random_coeffs(s3_table.dual_descriptor(), RngSeed(199).generator())]
        res = cotype2_ratio(s3_table, xs, 20_000, RngSeed(211))
        assert abs(res.ratio - np.sqrt(2 / np.pi)) <= 3 * res.stderr

    def test_z8_characters(self, z8_table):
        xs = [
            FourierCoeffs(z8_table.dual_descriptor(), {j: np.array([[1.0]])})
            for j in range(8)
        ]
        res = cotype2_ratio(z8_table, xs, 5000, RngSeed(223))
        assert res.ratio >= 0.2

    def test_rejects_empty_and_zero(self, s3_table):
        with pytest.raises(ValueError):
            cotype2_ratio(s3_table, [], 100, RngSeed(227))
        zero = FourierCoeffs(s3_table.dual_descriptor(), {})
        with pytest.raises(ValueError):
            cotype2_ratio(s3_table, [zero, zero], 100, RngSeed(229))


def einsum_series_l1(haar, f, trials, seed, draw):
    """Reference for `_series_l1`: one three-operand einsum per label and chunk."""
    for index, take in iter_chunks(trials, MC_CHUNK):
        rng = seed.chunk_generator(index)
        vals = np.zeros((take, len(haar.weights)), dtype=complex)
        for label, m in f.support.items():
            scale, x = draw(rng, m.shape[0])
            vals += scale * np.einsum("tij,jm,gmi->tg", x[:take], m, haar.irrep_stack(label))
        yield np.abs(vals) @ haar.weights


def stacked_series_l1(haar, f, trials, seed, draw):
    """Reference for `_series_l1`: X f as a stack of `take` n x n products."""
    for index, take in iter_chunks(trials, MC_CHUNK):
        rng = seed.chunk_generator(index)
        vals = np.zeros((take, len(haar.weights)), dtype=complex)
        for label, m in f.support.items():
            scale, x = draw(rng, m.shape[0])
            stack = haar.irrep_stack(label)
            xm_t = np.swapaxes(x[:take] @ m, 1, 2).reshape(take, -1)
            vals += scale * (xm_t @ stack.reshape(len(stack), -1).T)
        yield np.abs(vals) @ haar.weights


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
        dual = haar.dual_descriptor()
    f = random_coeffs(dual, RngSeed(269).generator())
    got = list(classical_eval._series_l1(haar, f, trials, RngSeed(271), SERIES_DRAWS[draw]))
    ref = list(einsum_series_l1(haar, f, trials, RngSeed(271), SERIES_DRAWS[draw]))
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
        dual = haar.dual_descriptor()
    f = random_coeffs(dual, RngSeed(277).generator())
    got = list(classical_eval._series_l1(haar, f, trials, RngSeed(281), SERIES_DRAWS[draw]))
    ref = list(stacked_series_l1(haar, f, trials, RngSeed(281), SERIES_DRAWS[draw]))
    assert len(got) == len(ref)
    for l1, r in zip(got, ref):
        np.testing.assert_array_equal(l1, r)


class TestRandomizedL1Report:
    def test_trivial_coefficient(self, s3_table):
        f = FourierCoeffs(s3_table.dual_descriptor(), {"triv": np.array([[2.0]])})
        res = randomized_l1_report(s3_table, f, 200, RngSeed(233))
        assert res.sup_l1_over_u == pytest.approx(2.0, abs=1e-12)
        assert res.ell2 == pytest.approx(2.0)
        assert res.ratio == pytest.approx(1.0, abs=1e-12)

    def test_sign_character_is_phase_invariant(self):
        z2 = cyclic_group(2)
        f = FourierCoeffs(z2.dual_descriptor(), {1: np.array([[1.0]])})
        res = randomized_l1_report(z2, f, 500, RngSeed(239))
        assert res.sup_l1_over_u == pytest.approx(1.0, abs=1e-12)
        assert res.ell2 == pytest.approx(1.0)

    def test_stability_under_more_unitaries(self, s3_table):
        f = random_coeffs(s3_table.dual_descriptor(), RngSeed(241).generator())
        r1 = randomized_l1_report(s3_table, f, 1000, RngSeed(251))
        r2 = randomized_l1_report(s3_table, f, 10_000, RngSeed(251))
        assert abs(r1.ratio - r2.ratio) <= 0.1 * r2.ratio
        assert r2.sup_l1_over_u >= r1.sup_l1_over_u  # nested seeds: sup is monotone


    def test_nan_chunk_is_kept(self, s3_table, monkeypatch):
        # one label, so one draw per chunk; the second of three chunks NaN
        calls = []

        def poisoned(n, count, rng):
            calls.append(n)
            w = haar_unitary_stack(n, count, rng)
            return w * np.nan if len(calls) == 2 else w
        monkeypatch.setattr(classical_eval, "haar_unitary_stack", poisoned)
        f = FourierCoeffs(s3_table.dual_descriptor(), {"std": np.eye(2)})
        res = randomized_l1_report(s3_table, f, 3 * MC_CHUNK, RngSeed(233))
        assert len(calls) == 3 and np.isnan(res.sup_l1_over_u)

    def test_su2_rule_ratio_is_at_most_one(self, su2_quad):
        # on a probability measure L1 <= L2, and the L2 norm of f_U is ell2(f)
        from qgfourier import make_su2_dual

        f = random_coeffs(make_su2_dual(2), RngSeed(257).generator())
        res = randomized_l1_report(su2_quad, f, 256, RngSeed(263))
        assert 0.0 < res.ratio <= 1.0 + 1e-9
