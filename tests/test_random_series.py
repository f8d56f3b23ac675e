import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qgfourier import (
    ContractionError,
    DualDescriptor,
    DualMismatchError,
    FamilyError,
    FourierCoeffs,
    RngSeed,
    cyclic_group,
    ell2_norm,
    expected_operator_norm,
    four_unitary_decomposition,
    haar_family,
    identity_family,
    l2_invariance_check,
    make_onplus_dual,
    make_su2_dual,
    make_suq2_dual,
    make_trivial_dual,
    random_coeffs,
    randomize,
    randomize_ball,
    symmetric_group_s3,
)
from qgfourier import random_series
from qgfourier.random_series import (
    _BRACKET_ROWS,
    _MAX_PASSES,
    _NEWTON_SWEEPS,
    _TOL_ULPS,
    NORM_SLACK,
    UNITARY_TOL,
    MeanAccumulator,
    _above_spectrum,
    _gram_schmidt,
    _newton_sweep,
    bidiagonal_norms,
    bidiagonals_per_chunk,
    coefficient_traces,
    gaussian_bidiagonal_stack,
    haar_unitary_stack,
    is_unitary,
    iter_chunks,
    matrices_per_chunk,
)

SUQ2 = make_suq2_dual(0.5, 5)


class TestSamplers:
    def test_gaussian_matrix_determinism(self):
        seed = RngSeed(123, 4)
        a = gaussian_matrix(5, seed.generator())
        b = gaussian_matrix(5, seed.generator())
        np.testing.assert_array_equal(a, b)

    def test_gaussian_matrix_rejects_size_zero(self):
        with pytest.raises(ValueError):
            gaussian_matrix(0, RngSeed(0).generator())

    def test_gaussian_entry_statistics(self):
        rng = RngSeed(7, 0).generator()
        draws = rng.standard_normal(100_000)
        mean_abs = np.mean(np.abs(draws))
        stderr = np.std(np.abs(draws), ddof=1) / np.sqrt(draws.size)
        assert abs(mean_abs - np.sqrt(2 / np.pi)) <= 3 * stderr
        assert abs(np.mean(draws)) <= 3 / np.sqrt(draws.size)

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 16])
    def test_haar_unitary_defect(self, n):
        assert unitarity_defects(haar_unitary_stack(n, 1, RngSeed(11).generator())[0]) <= 1e-14
        assert np.max(unitarity_defects(haar_unitary_stack(n, 256, RngSeed(11).generator()))) <= 1e-14

    def test_haar_phase_mean_is_zero(self):
        u = haar_unitary_stack(1, 100_000, RngSeed(13).generator())[:, 0, 0]
        assert abs(np.mean(u)) <= 3.0 / np.sqrt(u.size)

    def test_haar_trace_second_moment(self):
        # E |tr U|^2 = 1 for the 2x2 unitary group
        u = haar_unitary_stack(2, 100_000, RngSeed(17).generator())
        t = np.abs(np.einsum("tii->t", u)) ** 2
        stderr = np.std(t, ddof=1) / np.sqrt(t.size)
        assert abs(np.mean(t) - 1.0) <= 3 * stderr


def random_coeffs_reference(dual, rng, labels=None, real=False):
    """The per-block expression that `random_coeffs` is held to, bit for bit:
    two draws per complex block, summed and divided by sqrt(2)."""
    labels = dual.labels() if labels is None else list(labels)
    support = {}
    for label in labels:
        n = dual.irrep(label).n
        if real:
            support[label] = rng.standard_normal((n, n)).astype(complex)
        else:
            support[label] = (rng.standard_normal((n, n))
                              + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    return support


def qr_haar_stack(n, count, rng):
    """LAPACK reference for `haar_unitary_stack`: QR of the same Ginibre draw,
    each column turned by the conjugate phase of R's diagonal entry."""
    q, r = np.linalg.qr(ginibre_reference(n, count, rng))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag.conj() / np.abs(diag))[:, None, :]


def ginibre_reference(n, count, rng):
    return (rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))) / np.sqrt(2.0)


def unitarity_defects(q):
    n = q.shape[-1]
    return np.linalg.norm(q.swapaxes(-1, -2).conj() @ q - np.eye(n), 2, axis=(-2, -1))


def next_draws_equal(a, b):
    return np.array_equal(a.standard_normal(4), b.standard_normal(4))


SAMPLER_DUALS = {
    "suq2": make_suq2_dual(0.5, 60),
    "su2": make_su2_dual(6),
    "o3plus": make_onplus_dual(3, 3),
    "s3": symmetric_group_s3().dual_descriptor(),
    "z8": cyclic_group(8).dual_descriptor(),
}
LABEL_SETS = {
    "full": lambda labels: None,
    "partial": lambda labels: labels[1::2],
    "out-of-order": lambda labels: labels[::-1][: max(1, len(labels) - 1)],
}


class TestSamplerReferences:
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("which", list(LABEL_SETS))
    @pytest.mark.parametrize("name", list(SAMPLER_DUALS))
    def test_random_coeffs_is_the_per_block_expression(self, name, which, real):
        dual = SAMPLER_DUALS[name]
        labels = LABEL_SETS[which](dual.labels())
        a, b = RngSeed(211, len(name)).generator(), RngSeed(211, len(name)).generator()
        f = random_coeffs(dual, a, labels=labels, real=real)
        reference = random_coeffs_reference(dual, b, labels=labels, real=real)
        assert f.labels() == list(reference)
        for label, m in reference.items():
            assert np.array_equal(f.support[label].view(float), m.view(float))
        assert next_draws_equal(a, b)

    @pytest.mark.parametrize("count", [1, 1024])
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 16])
    def test_haar_stack_matches_lapack(self, n, count):
        a, b = RngSeed(223, n).generator(), RngSeed(223, n).generator()
        u = haar_unitary_stack(n, count, a)
        reference = qr_haar_stack(n, count, b)
        assert u.shape == (count, n, n)
        assert np.max(np.abs(u - reference)) <= 1e-12
        assert next_draws_equal(a, b)

    @pytest.mark.parametrize("dual", [
        SUQ2, DualDescriptor("suq2-out-of-order", tuple(SUQ2.irrep(l) for l in (0, 5, 3))),
    ], ids=["full", "out-of-order"])
    def test_haar_family_matches_lapack_per_label(self, dual):
        a, b = RngSeed(227).generator(), RngSeed(227).generator()
        fam = haar_family(dual, a)
        for label in dual.labels():
            reference = qr_haar_stack(dual.irrep(label).n, 1, b)[0]
            assert np.max(np.abs(fam[label] - reference)) <= 1e-12
        assert list(fam.support) == dual.labels()
        assert next_draws_equal(a, b)

    def test_unitarity_defect_of_nearly_dependent_columns(self):
        rng = RngSeed(233).generator()
        z = ginibre_reference(4, 256, rng)
        z[:, :, 1] = z[:, :, 0] + 1e-8 * ginibre_reference(4, 256, rng)[:, :, 0]
        assert np.max(unitarity_defects(_gram_schmidt(z))) <= 1e-14

    def test_haar_family_unitarity_defect(self):
        fam = haar_family(make_su2_dual(15), RngSeed(239).generator())
        assert max(float(unitarity_defects(m)) for m in fam.support.values()) <= 1e-14

    @pytest.mark.parametrize("count", [1, 256])
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 16])
    def test_r_is_upper_triangular_with_positive_diagonal(self, n, count):
        u = haar_unitary_stack(n, count, RngSeed(241, n).generator())
        z = ginibre_reference(n, count, RngSeed(241, n).generator())
        r = u.swapaxes(-1, -2).conj() @ z
        assert np.max(np.abs(np.tril(r, -1))) <= 1e-12
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        assert np.max(np.abs(diag.imag)) <= 1e-12
        assert np.min(diag.real) > 1e-12

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_deep_small_stacks_and_coefficients_take_no_qr(self, monkeypatch, n):
        monkeypatch.setattr(np.linalg, "qr", raiser("np.linalg.qr"))
        u = haar_unitary_stack(n, random_series._GS_MIN_COUNT, RngSeed(251).generator())
        f = random_coeffs(SUQ2, RngSeed(251).generator())
        assert np.max(unitarity_defects(u)) <= 1e-14
        assert f.labels() == SUQ2.labels()

    @pytest.mark.parametrize("n,count", [(7, 1024), (2, 255), (16, 1), (41, 1)])
    def test_shallow_stacks_and_large_blocks_take_lapack(self, monkeypatch, n, count):
        monkeypatch.setattr(np.linalg, "qr", raiser("np.linalg.qr"))
        with pytest.raises(AssertionError, match="np.linalg.qr"):
            haar_unitary_stack(n, count, RngSeed(251).generator())

    def test_nan_draw_spoils_its_own_matrix_only(self):
        z = ginibre_reference(3, 8, RngSeed(257).generator())
        clean = _gram_schmidt(z)
        z[5, 1, 2] = np.nan
        q = _gram_schmidt(z)
        assert np.isnan(q[5]).any()
        np.testing.assert_array_equal(np.delete(q, 5, axis=0), np.delete(clean, 5, axis=0))

    def test_nan_draw_spoils_its_own_label_only(self, monkeypatch):
        clean = haar_family(SUQ2, RngSeed(263).generator())
        ginibre = random_series._ginibre
        calls = []

        def poisoned(rng, shape):
            z = ginibre(rng, shape)
            calls.append(shape)
            if len(calls) == 3:
                z[0, 0] = np.nan
            return z
        monkeypatch.setattr(random_series, "_ginibre", poisoned)
        fam = haar_family(SUQ2, RngSeed(263).generator())
        assert np.isnan(fam[2]).any()
        for label in SUQ2.labels():
            if label != 2:
                np.testing.assert_array_equal(fam[label], clean[label])


class TestExpectedOperatorNorm:
    def test_half_normal_limit(self):
        est = expected_operator_norm(1, 100_000, RngSeed(19))
        assert abs(est.mean - np.sqrt(2 / np.pi)) <= 3 * est.stderr

    def test_large_n_window(self):
        est = expected_operator_norm(128, 1000, RngSeed(23))
        assert 1.4 <= est.mean <= 2.3

    @pytest.mark.parametrize("n", [8, 64])
    def test_boundedness_across_sizes(self, n):
        est = expected_operator_norm(n, 1000, RngSeed(29))
        assert 1.2 <= est.mean <= 2.6

    def test_trials_precondition(self):
        with pytest.raises(ValueError):
            expected_operator_norm(4, 1, RngSeed(0))

    def test_deterministic_and_prefix_stable(self):
        a = expected_operator_norm(3, 500, RngSeed(31))
        b = expected_operator_norm(3, 500, RngSeed(31))
        assert a == b


def gaussian_matrix_stack(n, count, rng):
    """`count` i.i.d. real n x n matrices with entries N(0,1)/sqrt(n): the dense
    samples of G_n that the reference routes below norm."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    g = rng.standard_normal((count, n, n))
    g /= np.sqrt(n)  # in place: a chunk is never held twice
    return g


def gaussian_matrix(n, rng):
    return gaussian_matrix_stack(n, 1, rng)[0]


def svd_operator_norm(n, trials, seed):
    """Reference route: full singular spectrum of every sample, each chunk
    drawn at full size and sliced."""
    chunk = matrices_per_chunk(n)
    acc = MeanAccumulator()
    for index, take in iter_chunks(trials, chunk):
        g = gaussian_matrix_stack(n, chunk, seed.chunk_generator(index))[:take]
        acc.add(np.linalg.svd(g, compute_uv=False)[:, 0])
    return acc.mean_stderr()


# Gram matrices are built a few at a time so that their stack stays small next
# to the chunk they come from: one 256 x 256 Gram, or more of smaller sizes.
GRAM_STACK_SCALARS = 65_536


def gram_spectral_norms(g):
    """Largest singular value of each real matrix in the stack `g`, as
    sqrt(lambda_max(G^T G)) from `eigvalsh`."""
    n = g.shape[-1]
    per_stack = max(1, GRAM_STACK_SCALARS // (n * n))
    norms = np.empty(len(g))
    for start in range(0, len(g), per_stack):
        part = g[start:start + per_stack]
        gram = np.swapaxes(part, -1, -2) @ part
        norms[start:start + per_stack] = np.sqrt(np.linalg.eigvalsh(gram)[:, -1])
    return norms


def gram_operator_norm(n, trials, seed):
    """Dense reference route: n x n Gaussian samples, each chunk drawn only as
    far as it is used, normed by `gram_spectral_norms`."""
    acc = MeanAccumulator()
    for index, take in iter_chunks(trials, matrices_per_chunk(n)):
        acc.add(gram_spectral_norms(gaussian_matrix_stack(n, take, seed.chunk_generator(index))))
    return acc.mean_stderr()


class TestGramRoute:
    @pytest.mark.parametrize("n", [1, 17, 256])
    def test_short_draw_is_prefix_of_full_chunk(self, n):
        chunk = matrices_per_chunk(n)
        seed = RngSeed(83, 2)
        full = gaussian_matrix_stack(n, chunk, seed.chunk_generator(1))
        short = gaussian_matrix_stack(n, chunk // 3 + 1, seed.chunk_generator(1))
        np.testing.assert_array_equal(short, full[:len(short)])

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 256])
    def test_matches_svd_per_matrix(self, n):
        # one past a whole sub-stack, so the last sub-stack is partial (n=256
        # has sub-stacks of one matrix)
        take = max(1, GRAM_STACK_SCALARS // (n * n)) + 1
        g = gaussian_matrix_stack(n, take, RngSeed(89, n).generator())
        reference = np.linalg.svd(g, compute_uv=False)[:, 0]
        np.testing.assert_allclose(gram_spectral_norms(g), reference, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n, trials", [(1, 2000), (5, 1500), (256, 70)])
    def test_estimate_matches_svd_route(self, n, trials):
        # 2000 and 1500 span two chunks of 1024; 70 spans two chunks of 64
        mean_gram, stderr_gram = gram_operator_norm(n, trials, RngSeed(97, n))
        mean, stderr = svd_operator_norm(n, trials, RngSeed(97, n))
        assert mean_gram == pytest.approx(mean, rel=1e-12, abs=0.0)
        assert stderr_gram == pytest.approx(stderr, rel=1e-9, abs=0.0)

    def test_does_not_take_an_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        mean, _ = gram_operator_norm(17, 300, RngSeed(101))
        assert 1.2 <= mean <= 2.6

    def test_peak_memory_is_one_chunk(self):
        n = 256
        chunk_bytes = matrices_per_chunk(n) * n * n * 8
        tracemalloc.start()
        try:
            gram_operator_norm(n, 70, RngSeed(103))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= chunk_bytes + 4 * 2**20


def golub_kahan(diag, sup):
    """The Golub-Kahan off-diagonal (a_1, b_1, ..., a_n) of one bidiagonal B."""
    e = np.zeros(2 * len(diag) - 1)
    e[0::2] = diag
    e[1::2] = sup
    return e


def dense_bidiagonal(e):
    """The n x n upper-bidiagonal matrix whose Golub-Kahan off-diagonal is `e`."""
    return np.diag(e[0::2]) + np.diag(e[1::2], 1)


def bisection_norms(e):
    """Reference: `bidiagonal_norms` by plain bisection, each of up to
    `_MAX_PASSES` passes sweeping every row, from the same bracket to the same
    stopping rule."""
    e2 = np.square(np.asarray(e, dtype=float).T, order="C")
    lo2 = np.maximum(e2[0], e2[-1])
    hi = np.sqrt(lo2)
    for start in range(0, len(e2) - 1, _BRACKET_ROWS):
        rows = e2[start:start + _BRACKET_ROWS + 1]
        lo2 = np.maximum(lo2, (rows[:-1] + rows[1:]).max(axis=0))
        roots = np.sqrt(rows)
        hi = np.maximum(hi, (roots[:-1] + roots[1:]).max(axis=0))
    lo = np.sqrt(lo2)
    hi = np.maximum(hi, lo)
    target = _TOL_ULPS * np.spacing(lo)
    pivmin = np.finfo(float).tiny * np.maximum(1.0, e2.max(axis=0))
    with np.errstate(all="ignore"):
        for _ in range(_MAX_PASSES):
            bisect = hi - lo > target
            if not bisect.any():
                break
            x = 0.5 * (lo + hi)
            above = _above_spectrum(e2, x, pivmin)
            hi = np.where(bisect & above, x, hi)
            lo = np.where(bisect & ~above, x, lo)
        return np.where(hi - lo <= target, 0.5 * (lo + hi), np.nan)


def sturm_inputs(e):
    """The squared off-diagonal rows and pivmin of a stack, as `bidiagonal_norms`
    hands them to its sweeps."""
    e2 = np.square(np.asarray(e, dtype=float).T, order="C")
    return e2, np.finfo(float).tiny * np.maximum(1.0, e2.max(axis=0))


def counting(fn, counts):
    def counted(*args):
        counts.append(fn.__name__)
        return fn(*args)
    return counted


HAND_BUILT = [
    ([0.0], []),
    ([0.0, 0.0, 0.0], [0.0, 0.0]),
    ([0.0, 0.0], [1.0]),                            # zero diagonal
    ([3.0, 0.0, 2.0], [0.0, 0.0]),                  # three 1 x 1 blocks
    ([1.0, 0.0, 1.0], [1.0, 1.0]),                  # zero inside the diagonal
    ([2.0, 1.0, 0.0, 5.0], [0.0, 3.0, 0.0]),        # split blocks
    ([1.0, 1.0], [1.0]),                            # bracket sqrt(2) wide
]
HAND_BUILT_IDS = ["n1-zero", "n3-zero", "zero-diag", "diagonal", "zero-inside", "split", "widest"]

def golub_kahan_rows(n):
    """Golub-Kahan off-diagonals (a_1, b_1, ..., a_n), each entry zero or in
    [1e-3, 1e3], so with zero pivots and split blocks."""
    return arrays(float, 2 * n - 1, elements=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)))


SCALES = [1e-8, 1e-4, 1.0, 1e4, 1e8]


class CountingGenerator:
    """A generator that counts the variates it hands out and names the
    methods that drew them."""

    def __init__(self, rng):
        self.rng = rng
        self.drawn = 0
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            self.calls.append(name)
            self.drawn += np.size(out)
            return out
        return counted


def raiser(what):
    def fail(*args, **kwargs):
        raise AssertionError(f"{what} called")
    return fail


class TestBidiagonalRoute:
    @pytest.mark.parametrize("n", [1, 17, 256])
    def test_short_draw_is_prefix_of_full_chunk(self, n):
        chunk = bidiagonals_per_chunk(n)
        seed = RngSeed(83, 3)
        full = gaussian_bidiagonal_stack(n, chunk, seed.chunk_generator(1))
        short = gaussian_bidiagonal_stack(n, chunk // 3 + 1, seed.chunk_generator(1))
        assert full.shape == (chunk, 2 * n - 1)
        np.testing.assert_array_equal(short, full[:len(short)])

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 256])
    def test_matches_dense_svd_and_tridiagonal_per_matrix(self, n):
        e = gaussian_bidiagonal_stack(n, 25, RngSeed(89, n).generator())
        norms = bidiagonal_norms(e)
        svd = np.array([np.linalg.svd(dense_bidiagonal(row), compute_uv=False)[0] for row in e])
        top = 2 * n - 1
        tridiagonal = np.array([
            scipy.linalg.eigvalsh_tridiagonal(np.zeros(2 * n), row, select="i",
                                              select_range=(top, top))[0]
            for row in e])
        np.testing.assert_allclose(norms, svd, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(norms, tridiagonal, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("diag, sup", HAND_BUILT, ids=HAND_BUILT_IDS)
    def test_hand_built_matrices(self, diag, sup):
        e = golub_kahan(diag, sup)
        expected = np.linalg.svd(dense_bidiagonal(e), compute_uv=False)[0]
        (norm,) = bidiagonal_norms(e[None, :])
        assert norm == pytest.approx(expected, rel=1e-13, abs=0.0)
        np.testing.assert_array_equal(norm, bisection_norms(e[None, :]))

    def test_zero_pivots_count_as_negative(self):
        # B = I_2 at x = 1: every other pivot of T - xI is exactly zero and the
        # next squared off-diagonal is zero, so a bare recurrence reads 0/0
        e2 = np.square(golub_kahan([1.0, 1.0], [0.0]))[:, None]
        pivmin = np.array([np.finfo(float).tiny])
        assert _above_spectrum(e2, np.array([1.0]), pivmin).tolist() == [True]
        # diag(1, 2) at x = 1: the zero pivot is followed by a positive one
        e2 = np.square(golub_kahan([1.0, 2.0], [0.0]))[:, None]
        assert _above_spectrum(e2, np.array([1.0]), pivmin).tolist() == [False]
        # B = 0 at x = 0: every pivot is zero
        e2 = np.zeros((5, 1))
        assert _above_spectrum(e2, np.array([0.0]), pivmin).tolist() == [True]

    def test_each_norm_depends_on_its_own_row(self):
        e = gaussian_bidiagonal_stack(40, 60, RngSeed(113).generator())
        norms = bidiagonal_norms(e)
        np.testing.assert_array_equal(norms, bisection_norms(e))
        np.testing.assert_array_equal(bidiagonal_norms(e[:7]), norms[:7])
        np.testing.assert_array_equal(bidiagonal_norms(e[::-1]), norms[::-1])
        np.testing.assert_array_equal(bidiagonal_norms(e[59:]), norms[59:])
        np.testing.assert_array_equal(bidiagonal_norms(e[::-3]), norms[::-3])

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_row_reads_nan_alone(self, bad):
        e = gaussian_bidiagonal_stack(16, 10, RngSeed(127).generator())
        clean = bidiagonal_norms(e)
        e[3, 5] = bad
        norms = bidiagonal_norms(e)
        assert np.isnan(norms[3])
        np.testing.assert_array_equal(np.delete(norms, 3), np.delete(clean, 3))
        e[7, 0] = -bad
        e[9] = bad
        np.testing.assert_array_equal(bidiagonal_norms(e), bisection_norms(e))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_draw_fails_closed(self, bad, monkeypatch):
        def poisoned(n, count, rng):
            return np.full((count, 2 * n - 1), bad)
        monkeypatch.setattr(random_series, "gaussian_bidiagonal_stack", poisoned)
        est = expected_operator_norm(8, 1500, RngSeed(131))
        assert np.isnan(est.mean) and np.isnan(est.stderr)

    def test_pass_bound(self):
        # the widest bracket, (sqrt(2) - 1) lo, at the lo with the fewest ulps
        # per unit, just below a power of two, needs between 49 and 50 passes
        lo = np.nextafter(2.0, 0.0)
        passes = np.log2((np.sqrt(2.0) - 1.0) * lo / (4 * np.spacing(lo)))
        assert _MAX_PASSES == 50 and _MAX_PASSES - 1 < passes <= _MAX_PASSES
        c = lo / np.sqrt(2.0)
        (norm,) = bidiagonal_norms(golub_kahan([c, c], [c])[None, :])
        assert norm == pytest.approx(c * (1.0 + np.sqrt(5.0)) / 2.0, rel=1e-15, abs=0.0)

    @settings(max_examples=150, deadline=None)
    @given(e=st.integers(1, 8).flatmap(golub_kahan_rows), scale=st.sampled_from(SCALES))
    def test_sturm_test_is_monotone_in_x(self, e, scale):
        # x <= y and above(x) imply above(y): on a grid over the bracket, and on
        # the 16 doubles on each side of the computed norm
        e = e * scale
        (norm,) = bisection_norms(e[None, :])
        grid = np.linspace(0.0, 2.0 * norm, 101)
        near = [norm]
        for _ in range(16):
            near = [np.nextafter(near[0], -np.inf), *near, np.nextafter(near[-1], np.inf)]
        x = np.sort(np.concatenate([grid, near]))
        e2, pivmin = sturm_inputs(np.repeat(e[None, :], len(x), axis=0))
        above = _above_spectrum(e2, x, pivmin)
        assert not np.any(above[:-1] & ~above[1:])

    @pytest.mark.parametrize("n", [1, 2, 17, 256])
    def test_newton_sweep_decides_as_the_sturm_test(self, n):
        # Gaussian rows, then the hand-built rows cut or repeated to this length
        e = gaussian_bidiagonal_stack(n, 200, RngSeed(167, n).generator())
        e = np.concatenate([e, *(np.resize(golub_kahan(d, s), (1, 2 * n - 1))
                                 for d, s in HAND_BUILT)])
        e2, pivmin = sturm_inputs(e)
        norms = bisection_norms(e)
        spread = RngSeed(173, n).generator().uniform(0.5, 1.5, len(norms))
        for x in (norms * spread, norms, np.nextafter(norms, 0.0), np.nextafter(norms, np.inf),
                  np.zeros_like(norms)):
            with np.errstate(all="ignore"):
                up, _ = _newton_sweep(e2, x, pivmin)
            np.testing.assert_array_equal(up, _above_spectrum(e2, x, pivmin))

    def test_newton_sweep_takes_the_log_derivative(self):
        # above the spectrum, G = p'/p = sum_i 1/(x - lambda_i) over the 2n
        # eigenvalues +/- sigma_i of the Golub-Kahan tridiagonal
        n = 17
        e = gaussian_bidiagonal_stack(n, 20, RngSeed(179).generator())
        x = 1.1 * bisection_norms(e)
        e2, pivmin = sturm_inputs(e)
        _, g = _newton_sweep(e2, x, pivmin)
        expected = [np.sum(1.0 / (xi - scipy.linalg.eigvalsh_tridiagonal(np.zeros(2 * n), row)))
                    for xi, row in zip(x, e)]
        np.testing.assert_allclose(g, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 256, 1024])
    def test_equals_bisection_on_seeded_stacks(self, n):
        e = gaussian_bidiagonal_stack(n, 300, RngSeed(181, n).generator())
        np.testing.assert_array_equal(bidiagonal_norms(e), bisection_norms(e))

    @settings(max_examples=100, deadline=None)
    @given(rows=st.integers(1, 8).flatmap(lambda n: st.lists(
        st.tuples(golub_kahan_rows(n), st.sampled_from(SCALES)), min_size=1, max_size=6)))
    def test_equals_bisection_on_scaled_stacks_with_zeros(self, rows):
        e = np.stack([r * scale for r, scale in rows])
        np.testing.assert_array_equal(bidiagonal_norms(e), bisection_norms(e))

    @pytest.mark.parametrize("sweeps", [0, 1, 3])
    def test_capped_newton_phase_leaves_the_norms(self, sweeps, monkeypatch):
        # whatever Newton leaves open, the replay sweeps
        e = gaussian_bidiagonal_stack(64, 200, RngSeed(197).generator())
        monkeypatch.setattr(random_series, "_NEWTON_SWEEPS", sweeps)
        np.testing.assert_array_equal(bidiagonal_norms(e), bisection_norms(e))

    @pytest.mark.parametrize("spoil", [np.nan, np.inf, 1e-30, 1e30], ids=["nan", "inf", "tiny", "huge"])
    def test_spoilt_newton_steps_leave_the_norms(self, spoil, monkeypatch):
        # a non-finite, far too long or far too short step falls back to a
        # probe or the midpoint
        def spoilt(e2, x, pivmin):
            up, g = _newton_sweep(e2, x, pivmin)
            return up, g * spoil
        e = gaussian_bidiagonal_stack(64, 200, RngSeed(199).generator())
        monkeypatch.setattr(random_series, "_newton_sweep", spoilt)
        np.testing.assert_array_equal(bidiagonal_norms(e), bisection_norms(e))

    @pytest.mark.parametrize("case", ["seeded-256", "widest", "nan-row"])
    def test_sweep_bound(self, case, monkeypatch):
        # about `_BISECT_FIRST` + 7 sweeps on a Gaussian stack; never more than
        # `_MAX_PASSES` + `_NEWTON_SWEEPS`
        if case == "seeded-256":
            e, bound = gaussian_bidiagonal_stack(256, 1000, RngSeed(157).generator()), 20
        elif case == "widest":
            c = np.nextafter(2.0, 0.0) / np.sqrt(2.0)
            e, bound = golub_kahan([c, c], [c])[None, :], _MAX_PASSES + _NEWTON_SWEEPS
        else:
            e = gaussian_bidiagonal_stack(16, 50, RngSeed(211).generator())
            e[7, 3] = np.nan
            bound = _MAX_PASSES + _NEWTON_SWEEPS
        expected = bisection_norms(e)
        counts = []
        monkeypatch.setattr(random_series, "_above_spectrum", counting(_above_spectrum, counts))
        monkeypatch.setattr(random_series, "_newton_sweep", counting(_newton_sweep, counts))
        np.testing.assert_array_equal(bidiagonal_norms(e), expected)
        assert 0 < len(counts) <= bound

    @pytest.mark.parametrize("n", [2, 16, 64])
    def test_two_sample_z_against_dense_route(self, n):
        trials = 2000
        est = expected_operator_norm(n, trials, RngSeed(137, n))
        mean, stderr = gram_operator_norm(n, trials, RngSeed(139, n))
        z = (est.mean - mean) / np.hypot(est.stderr, stderr)
        assert abs(z) <= 4.0

    def test_never_takes_the_dense_route(self, monkeypatch):
        # the dense sampler lives in this file only, so the package cannot draw it
        assert not hasattr(random_series, "gaussian_matrix_stack")
        monkeypatch.setattr(np.linalg, "eigvalsh", raiser("np.linalg.eigvalsh"))
        monkeypatch.setattr(np.linalg, "svd", raiser("np.linalg.svd"))
        est = expected_operator_norm(64, 300, RngSeed(149))
        assert 1.2 <= est.mean <= 2.6

    @pytest.mark.parametrize("n, trials", [(1, 2500), (64, 1500)])
    def test_draws_2n_minus_1_variates_per_sample(self, n, trials, monkeypatch):
        generators = []
        chunk_generator = RngSeed.chunk_generator

        def counting(self, index):
            generators.append(CountingGenerator(chunk_generator(self, index)))
            return generators[-1]
        monkeypatch.setattr(RngSeed, "chunk_generator", counting)
        expected_operator_norm(n, trials, RngSeed(151))
        assert sum(g.drawn for g in generators) == trials * (2 * n - 1)

    def test_peak_memory_is_a_few_draws(self):
        # the draw, its squares, and the bracket's sums over a block of
        # `_BRACKET_ROWS` rows
        n, trials = 256, 1000
        draw_bytes = trials * (2 * n + 1) * 8
        tracemalloc.start()
        try:
            expected_operator_norm(n, trials, RngSeed(157))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * draw_bytes + 2**21


def matrix_route_traces(dual, families, rng):
    """Reference for `coefficient_traces`: t = tr(Q X^* X) of each block of
    `random_coeffs` families, one family at a time."""
    rows = []
    for _ in range(families):
        f = random_coeffs(dual, rng)
        rows.append([dual.irrep(label).q_trace(m) for label, m in f.support.items()])
    return np.array(rows)


TRACE_LEVELS = [0, 1, 5, 20]


class TestCoefficientTraces:
    @pytest.mark.parametrize("dual", [make_suq2_dual(0.5, 20), make_su2_dual(20)],
                             ids=lambda dual: dual.name)
    def test_two_sample_z_of_moments_against_matrix_route(self, dual):
        families = 4000
        levels = [dual.labels().index(k) for k in TRACE_LEVELS]
        drawn = coefficient_traces(dual, families, RngSeed(163).generator())[:, levels]
        reference = matrix_route_traces(dual, families, RngSeed(167).generator())[:, levels]
        for power in (1, 2):  # the mean and the second moment of each t_k
            a, b = drawn**power, reference**power
            z = (a.mean(axis=0) - b.mean(axis=0)) / np.hypot(
                a.std(axis=0, ddof=1), b.std(axis=0, ddof=1)) * np.sqrt(families)
            assert np.all(np.abs(z) <= 4.0), (power, z)

    def test_draws_families_times_sum_of_sizes_gamma_variates(self):
        dual = make_suq2_dual(0.5, 60)
        rng = CountingGenerator(RngSeed(173).generator())
        t = coefficient_traces(dual, 7, rng)
        assert t.shape == (7, 61)
        assert rng.calls == ["standard_gamma"]
        assert rng.drawn == 7 * sum(irrep.n for irrep in dual.irreps) == 7 * 1891

    def test_fewer_families_draw_a_prefix(self):
        dual = make_suq2_dual(0.3, 12)
        full = coefficient_traces(dual, 9, RngSeed(179).generator())
        short = coefficient_traces(dual, 4, RngSeed(179).generator())
        np.testing.assert_array_equal(short, full[:4])

    def test_is_the_q_weighted_sum_of_column_gammas(self):
        dual = make_suq2_dual(0.5, 3)
        t = coefficient_traces(dual, 5, RngSeed(181).generator())
        sizes = [irrep.n for irrep in dual.irreps]
        gammas = RngSeed(181).generator().standard_gamma(
            np.repeat(np.array(sizes, dtype=float), sizes), size=(5, sum(sizes)))
        expected = np.zeros((5, len(sizes)))
        for f in range(5):
            start = 0
            for j, irrep in enumerate(dual.irreps):
                for i in range(irrep.n):  # column i of the block at level j
                    expected[f, j] += irrep.q_diag[i] * gammas[f, start + i]
                start += irrep.n
        np.testing.assert_allclose(t, expected, rtol=1e-14, atol=0.0)


class TestRandomize:
    def test_identity_family_fixes_f(self):
        rng = RngSeed(37).generator()
        f = random_coeffs(SUQ2, rng)
        g = randomize(f, identity_family(SUQ2))
        for l in f.labels():
            np.testing.assert_array_equal(g.block(l), f.block(l))

    def test_trivial_phase(self):
        dual = make_trivial_dual()
        f = FourierCoeffs(dual, {0: np.array([[2.0 - 1.0j]])})
        theta = 0.7
        fam = FourierCoeffs(dual, {0: np.array([[np.exp(1j * theta)]])})
        assert randomize(f, fam).block(0)[0, 0] == pytest.approx(np.exp(1j * theta) * (2 - 1j))

    def test_missing_entry(self):
        rng = RngSeed(41).generator()
        f = random_coeffs(SUQ2, rng)
        partial = FourierCoeffs(SUQ2, {0: np.eye(1)})
        with pytest.raises(FamilyError):
            randomize(f, partial)

    def test_dual_mismatch(self):
        f = random_coeffs(SUQ2, RngSeed(42).generator())
        with pytest.raises(DualMismatchError):
            randomize(f, identity_family(make_suq2_dual(0.5, 4)))

    def test_left_action(self):
        rng = RngSeed(43).generator()
        f = random_coeffs(SUQ2, rng)
        u = haar_family(SUQ2, rng)
        v = haar_family(SUQ2, rng)
        twice = randomize(randomize(f, u), v)
        product = FourierCoeffs(SUQ2, {l: v[l] @ u[l] for l in SUQ2.labels()})
        once = randomize(f, product)
        for l in f.labels():
            np.testing.assert_allclose(twice.block(l), once.block(l), atol=1e-12)


class TestL2Invariance:
    def test_identity_family(self):
        f = random_coeffs(SUQ2, RngSeed(47).generator())
        assert l2_invariance_check(f, identity_family(SUQ2)) == 0.0

    def test_haar_families(self):
        rng = RngSeed(53).generator()
        for _ in range(10):
            f = random_coeffs(SUQ2, rng)
            dev = l2_invariance_check(f, haar_family(SUQ2, rng))
            assert dev <= 1e-10 * ell2_norm(f)

    def test_diagonal_phases(self):
        rng = RngSeed(59).generator()
        f = random_coeffs(SUQ2, rng)
        fam = FourierCoeffs(SUQ2, {
            l: np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, SUQ2.irrep(l).n)))
            for l in SUQ2.labels()
        })
        assert l2_invariance_check(f, fam) <= 1e-12 * ell2_norm(f)

    def test_rejects_non_unitary(self):
        f = random_coeffs(SUQ2, RngSeed(61).generator())
        fam = FourierCoeffs(SUQ2, {l: 2.0 * np.eye(SUQ2.irrep(l).n) for l in SUQ2.labels()})
        with pytest.raises(FamilyError):
            l2_invariance_check(f, fam)


class TestFourUnitary:
    def test_identity_input(self):
        v1, v2, v3, v4 = four_unitary_decomposition(np.eye(3))
        np.testing.assert_allclose(v1, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(v2, np.eye(3), atol=1e-12)
        np.testing.assert_allclose((v1 + v2 + v3 + v4) / 2, np.eye(3), atol=1e-12)

    def test_zero_input(self):
        v1, v2, v3, v4 = four_unitary_decomposition(np.zeros((2, 2)))
        np.testing.assert_allclose(v1, 1j * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(v2, -1j * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(v3, -np.eye(2), atol=1e-12)
        np.testing.assert_allclose(v4, np.eye(2), atol=1e-12)
        np.testing.assert_allclose((v1 + v2 + v3 + v4) / 2, 0 * v1, atol=1e-12)

    def test_rejects_expansion(self):
        with pytest.raises(ContractionError):
            four_unitary_decomposition(1.5 * np.eye(2))

    @pytest.mark.parametrize("n", [1, 3, 16])
    def test_stack_equals_single_matrices(self, n):
        rng = RngSeed(83, n).generator()
        x = rng.standard_normal((7, n, n)) + 1j * rng.standard_normal((7, n, n))
        x = x / np.linalg.norm(x, 2, axis=(-2, -1))[:, None, None] * rng.uniform(0, 1, (7, 1, 1))
        stacked = four_unitary_decomposition(x)
        for i in range(len(x)):
            for v_stack, v_single in zip(stacked, four_unitary_decomposition(x[i])):
                np.testing.assert_array_equal(v_stack[i], v_single)

    def test_stack_with_one_expansion_is_refused(self):
        x = np.stack([np.eye(3), 0.5 * np.eye(3), 1.5 * np.eye(3)])
        with pytest.raises(ContractionError):
            four_unitary_decomposition(x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_entry_is_refused(self, bad):
        # NaN fails no Cholesky factorisation, and the SVD's own failure on it
        # is a LinAlgError, not a refusal
        one = 0.5 * np.eye(3, dtype=complex)
        one[1, 2] = bad
        with pytest.raises(ContractionError, match="non-finite"):
            four_unitary_decomposition(one)
        stack = np.stack([0.5 * np.eye(3), 0.25 * np.eye(3), one])
        with pytest.raises(ContractionError, match="non-finite"):
            four_unitary_decomposition(stack)

    def test_guard_edges(self):
        # the guard accepts up to 1 + NORM_SLACK and refuses past it, with the
        # largest singular value in the message
        four_unitary_decomposition((1 + 0.5 * NORM_SLACK) * np.eye(3))
        four_unitary_decomposition(haar_unitary_stack(5, 4, RngSeed(89).generator()))
        x = np.diag([0.5, 1 + 2 * NORM_SLACK, 0.25])
        norm = float(np.linalg.norm(x, 2))
        with pytest.raises(ContractionError) as raised:
            four_unitary_decomposition(np.stack([0.5 * np.eye(3), x]))
        assert str(raised.value) == f"matrix norm {norm!r} exceeds 1 + {NORM_SLACK}"

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_guard_agrees_with_svd_norm(self, n):
        # the Cholesky guard refuses exactly the stacks whose SVD norm exceeds
        # 1 + NORM_SLACK, away from rounding distance of the edge
        rng = RngSeed(97, n).generator()
        x = rng.standard_normal((64, n, n)) + 1j * rng.standard_normal((64, n, n))
        x /= np.linalg.norm(x, 2, axis=(-2, -1))[:, None, None]
        for scale in (0.5, 1.0, 1 + 0.5 * NORM_SLACK, 1 + 2 * NORM_SLACK, 1.5, 1e200):
            refused = float(np.max(np.linalg.norm(scale * x, 2, axis=(-2, -1)))) > 1 + NORM_SLACK
            for stack in (scale * x, scale * x[:1]):
                if refused:
                    with pytest.raises(ContractionError, match="matrix norm"):
                        four_unitary_decomposition(stack)
                else:
                    four_unitary_decomposition(stack)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
    def test_eigvalsh_defect_is_the_svd_norm(self, n):
        # V^* V - I is Hermitian, so its largest |eigenvalue| is its 2-norm;
        # `four-unitary` reads the defect that way.  The computed defect D is
        # Hermitian only to rounding, and eigvalsh reads its lower triangle,
        # i.e. the Hermitian H built from it: per matrix the two norms differ
        # by at most ||H - D||_2 plus the rounding of either route, and their
        # maxima by at most 1e-17
        rng = RngSeed(101, n).generator()
        x = rng.standard_normal((50, n, n)) + 1j * rng.standard_normal((50, n, n))
        x = x / np.linalg.norm(x, 2, axis=(-2, -1))[:, None, None] * rng.uniform(0, 1, (50, 1, 1))
        v = np.concatenate(four_unitary_decomposition(x))
        defect = v.swapaxes(-1, -2).conj() @ v - np.eye(n)
        by_svd = np.linalg.norm(defect, 2, axis=(-2, -1))
        by_eig = np.max(np.abs(np.linalg.eigvalsh(defect)), axis=-1)
        lower = np.tril(defect, -1)
        read = lower + lower.swapaxes(-1, -2).conj() + np.real(np.tril(np.triu(defect)))
        asymmetry = np.linalg.norm(read - defect, 2, axis=(-2, -1))
        assert np.all(np.abs(by_eig - by_svd) <= asymmetry + 16 * np.finfo(float).eps * by_svd)
        assert abs(np.max(by_eig) - np.max(by_svd)) <= 1e-17

    @settings(max_examples=50, deadline=None)
    @given(
        re=arrays(np.float64, (4, 4), elements=st.floats(-1.0, 1.0)),
        im=arrays(np.float64, (4, 4), elements=st.floats(-1.0, 1.0)),
    )
    def test_reconstruction_property(self, re, im):
        x = re + 1j * im
        x = x / max(1.0, np.linalg.norm(x, 2))
        vs = four_unitary_decomposition(x)
        np.testing.assert_allclose(sum(vs) / 2.0, x, atol=1e-9)
        for v in vs:
            assert np.linalg.norm(v.conj().T @ v - np.eye(4), 2) <= 1e-9


class TestRandomizeBall:
    def test_unitary_family_averages_back(self):
        rng = RngSeed(67).generator()
        f = random_coeffs(SUQ2, rng)
        res = randomize_ball(f, haar_family(SUQ2, rng))
        assert res.max_deviation <= 1e-9
        for fam in res.families:
            assert is_unitary(fam)

    def test_zero_family(self):
        f = random_coeffs(SUQ2, RngSeed(71).generator())
        zero = FourierCoeffs(SUQ2, {l: np.zeros((SUQ2.irrep(l).n,) * 2) for l in SUQ2.labels()})
        res = randomize_ball(f, zero)
        assert ell2_norm(res.randomized) == 0.0
        assert res.max_deviation <= 1e-9

    def test_half_identity(self):
        f = random_coeffs(SUQ2, RngSeed(73).generator())
        half = FourierCoeffs(SUQ2, {l: 0.5 * np.eye(SUQ2.irrep(l).n) for l in SUQ2.labels()})
        res = randomize_ball(f, half)
        for l in f.labels():
            np.testing.assert_allclose(res.randomized.block(l), 0.5 * f.block(l), atol=1e-12)

    def test_nan_deviation_is_kept(self, monkeypatch):
        # the second label's unitaries NaN, the first finite: the deviation is NaN
        split = random_series.four_unitary_decomposition
        calls = []

        def poisoned(b):
            calls.append(b)
            vs = split(b)
            return tuple(v * np.nan for v in vs) if len(calls) == 2 else vs
        monkeypatch.setattr(random_series, "four_unitary_decomposition", poisoned)
        rng = RngSeed(83).generator()
        f = random_coeffs(SUQ2, rng)
        res = randomize_ball(f, haar_family(SUQ2, rng))
        assert len(calls) == len(SUQ2.labels()) > 2 and np.isnan(res.max_deviation)

    def test_rejects_out_of_ball(self):
        f = random_coeffs(SUQ2, RngSeed(79).generator())
        big = FourierCoeffs(SUQ2, {l: 1.1 * np.eye(SUQ2.irrep(l).n) for l in SUQ2.labels()})
        with pytest.raises(ContractionError):
            randomize_ball(f, big)
        # every block of the family is split, also one at a label f does not hold
        low = random_coeffs(SUQ2, RngSeed(79).generator(), labels=[0, 1])
        outside = {l: 0.5 * np.eye(SUQ2.irrep(l).n) for l in SUQ2.labels()}
        outside[4] = 1.1 * np.eye(SUQ2.irrep(4).n)
        with pytest.raises(ContractionError, match="matrix norm"):
            randomize_ball(low, FourierCoeffs(SUQ2, outside))
        poisoned = {l: 0.5 * np.eye(SUQ2.irrep(l).n) for l in SUQ2.labels()}
        poisoned[2] = np.full((SUQ2.irrep(2).n,) * 2, np.nan)
        with pytest.raises(ContractionError, match="non-finite"):
            randomize_ball(f, FourierCoeffs(SUQ2, poisoned))


def test_family_unitary_flag():
    fam = identity_family(SUQ2)
    assert is_unitary(fam)
    bad = FourierCoeffs(SUQ2, {0: np.array([[1.0 + 1e-6]])})
    assert not is_unitary(bad)


def svd_is_unitary(family) -> bool:
    """Reference for `is_unitary`: the SVD norm of every defect."""
    return all(np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0]), 2) <= UNITARY_TOL
               for m in family.support.values())


@pytest.mark.parametrize("eps", [0.0, 0.5, 0.9, 1.0, 1.1, 2.0, 1e6])
def test_unitary_flag_matches_svd_route(eps):
    # M = sqrt(1 + eps tol) I_n has defect eps tol I_n: spectral norm eps tol,
    # Frobenius norm eps tol sqrt(n).  At eps in (1/2, 1] only the SVD accepts
    dual = make_su2_dual(3)
    fam = FourierCoeffs(dual, {l: np.sqrt(1 + eps * UNITARY_TOL) * np.eye(dual.irrep(l).n)
                              for l in dual.labels()})
    assert is_unitary(fam) == svd_is_unitary(fam)
    haar = haar_family(dual, RngSeed(103).generator())
    assert is_unitary(haar) and svd_is_unitary(haar)


def test_unitary_flag_takes_the_svd_when_frobenius_cannot_decide():
    n = 4
    m = np.sqrt(1 + 0.9 * UNITARY_TOL) * np.eye(n)
    defect = m.conj().T @ m - np.eye(n)
    assert np.linalg.norm(defect) > UNITARY_TOL >= np.linalg.norm(defect, 2)
    dual = make_su2_dual(n - 1)
    assert is_unitary(FourierCoeffs(dual, {n - 1: m}))
