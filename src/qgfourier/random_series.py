"""Random matrix ensembles and randomized coefficient families.

Sampling is reproducible: every stochastic routine is keyed by a
(`seed`, `stream`) pair.  Every Monte Carlo driver of the package draws its
trials through one loop, `_chunks`, reduced by `sample_mean` or
`sample_max`: fixed-size chunks, one child generator per chunk, reduced in
chunk order.  So the draw sequence is a stable prefix in the trial count
(suprema are monotone under nested seeds), results do not depend on how
chunks would be scheduled, and too few trials are refused before any draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual_data import DualDescriptor
from .fourier_core import FourierCoeffs, _require_same_dual, ell2_norm

#: Uniform norm slack used by every contraction / unitarity contract here.
NORM_SLACK = 1e-9

#: Unitarity tolerance for flagging a family as unitary.
UNITARY_TOL = 1e-10


class ContractionError(ValueError):
    """Input exceeds the unit-ball precondition."""


class FamilyError(ValueError):
    """A matrix family is missing entries or fails its unitarity precondition."""


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RngSeed:
    """64-bit seed plus stream id; identical pairs reproduce identical draws."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,)))
        )

    def chunk_generator(self, chunk_index: int) -> np.random.Generator:
        """Independent child generator for one Monte Carlo chunk."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream, chunk_index))
        return np.random.Generator(np.random.PCG64(ss))


def matrices_per_chunk(n: int) -> int:
    # keep chunks near 4M scalars, capped so tiny matrices do not overdraw
    return max(1, min(1024, 4_194_304 // max(1, n * n)))


def bidiagonals_per_chunk(n: int) -> int:
    # a bidiagonal model of G_n is 2n - 1 scalars; keep chunks near 2M of them
    return max(1, min(1024, 1_048_576 // max(1, n)))


def _chunks(trials: int, chunk: int, seed: RngSeed, draw, least: int):
    """The values `draw(rng, take)` of each chunk of `trials`, in order: chunk
    i has `seed.chunk_generator(i)` and `take` = min(chunk, trials left).
    Fewer than `least` trials raise ValueError before any draw.

    Contract.  A draw reads its own generator only, and a short chunk's values
    are a prefix of a full chunk's (the draw takes a full chunk and slices it,
    or its sampler draws a prefix), so the values for fewer trials are a
    prefix of those for more.
    """
    if trials < least:
        raise ValueError(f"trials must be >= {least}, got {trials}")
    return (draw(seed.chunk_generator(index), min(chunk, trials - start))
            for index, start in enumerate(range(0, trials, chunk)))


def sample_mean(trials: int, chunk: int, seed: RngSeed, draw) -> tuple[float, float]:
    """Sample mean and standard error of the `_chunks` values, from their sum
    and sum of squares added chunk by chunk in order; at least 2 trials."""
    count = 0
    total = 0.0
    total_sq = 0.0
    for values in _chunks(trials, chunk, seed, draw, 2):
        count += len(values)
        total += float(np.sum(values))
        total_sq += float(np.sum(values * values))
    mean = total / count
    var = float(np.maximum(0.0, (total_sq - count * mean * mean) / (count - 1)))  # NaN stays NaN
    return mean, float(np.sqrt(var / count))


def sample_max(trials: int, chunk: int, seed: RngSeed, draw) -> float:
    """Largest of the `_chunks` values, a NaN value kept; at least 1 trial."""
    best = -np.inf
    for values in _chunks(trials, chunk, seed, draw, 1):
        best = float(np.maximum(best, np.max(values)))
    return best


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

#: Scale of each part of a standard complex Gaussian.  numpy divides a complex
#: array by a real scalar as Smith's algorithm does, by multiplying with the
#: reciprocal, so this scaling rounds exactly as `(re + 1j * im) / np.sqrt(2.0)`.
_PART_SCALE = 1.0 / np.sqrt(2.0)


def _ginibre(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Complex array of `shape` with independent standard complex Gaussian
    entries (re + i im)/sqrt(2): all real parts, then all imaginary parts, in
    one draw, the same variates in the same order as two draws of `shape`."""
    parts = rng.standard_normal((2, *shape))
    parts *= _PART_SCALE
    z = np.empty(shape, dtype=complex)
    z.real = parts[0]
    z.imag = parts[1]
    return z


def _gram_schmidt(z: np.ndarray) -> np.ndarray:
    """Q of Z = QR with R's diagonal positive real, for each matrix of a stack
    (..., n, n) of full-rank Z.

    Classical Gram-Schmidt, column by column over the whole stack: each column
    is projected off the earlier ones twice and then normalised, so r_jj is the
    norm of what is left.  Each Q depends on its own Z only.
    """
    q = z.swapaxes(-1, -2).copy()  # row j holds column j
    for j in range(q.shape[-1]):
        v = q[..., j, :]
        if j:
            basis = q[..., :j, :]
            conj = basis.conj()
            for _ in range(2):
                v -= np.einsum("...k,...kr->...r", np.einsum("...kr,...r->...k", conj, v), basis)
        parts = v.view(float)  # re, im interleaved along the row
        parts *= (1.0 / np.sqrt(np.einsum("...r,...r->...", parts, parts)))[..., None]
    return q.swapaxes(-1, -2)


#: Stacks of at least `_GS_MIN_COUNT` blocks of size at most `_GS_MAX_N` are
#: orthonormalised by `_gram_schmidt`; LAPACK QR is faster on shallower stacks
#: and larger blocks.  On a 2-core x86 VM with OpenBLAS, 1024 blocks take 2.3
#: vs 3.3 ms at n = 6 and 42 vs 17 ms at n = 16; one block takes 0.09 vs
#: 0.03 ms at n = 6 and 283 vs 23 ms at n = 377.
_GS_MAX_N = 6
_GS_MIN_COUNT = 256


def haar_unitary_stack(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` Haar-distributed n x n unitaries.

    A complex Ginibre matrix Z (independent standard complex Gaussian entries)
    factors uniquely as Z = QR with R upper triangular with a positive real
    diagonal, and that Q is exactly Haar distributed on U(n) (Mezzadri, Notices
    AMS 54, 2007).  Deep stacks of small blocks take Q by classical
    Gram-Schmidt projecting each column twice, which leaves the columns
    orthonormal to working precision (Giraud, Langou and Rozloznik, Comput.
    Math. Appl. 50, 2005); its r_jj are norms, so positive.  Other stacks take
    LAPACK's QR and multiply the columns by the conjugate phases of R's
    diagonal, which makes that diagonal positive.  The two routes agree to
    rounding, and the route depends on (n, count) only.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    z = _ginibre(rng, (count, n, n))
    if n <= _GS_MAX_N and count >= _GS_MIN_COUNT:
        return _gram_schmidt(z)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    with np.errstate(invalid="ignore"):  # a NaN draw runs through to a NaN unitary
        phase = diag.conj() / np.abs(diag)
    return q * phase[:, None, :]


@dataclass(frozen=True)
class NormEstimate:
    mean: float
    stderr: float
    trials: int


#: Width, in ulps of its lower end, at which a bisection bracket is closed.
_TOL_ULPS = 4

#: Passes after which every finite bracket is closed: it starts at most
#: (sqrt(2) - 1) lo wide, and an ulp of lo is at least eps lo / 2.
_MAX_PASSES = int(np.ceil(np.log2((np.sqrt(2.0) - 1.0) / (_TOL_ULPS * np.finfo(float).eps / 2))))
_BRACKET_ROWS = 64  # rows per neighbour-pair sum of the bracket
_DRAW_BLOCK = 64  # samples per chisquare call of `gaussian_bidiagonal_squares`

#: Bisection passes swept before Newton's method pins each threshold, and the
#: most Newton sweeps it may take.
_BISECT_FIRST = 11
_NEWTON_SWEEPS = 12


def gaussian_bidiagonal_squares(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` bidiagonal models of G_n in the sweep's layout: column j holds the
    squares of sample j's Golub-Kahan off-diagonal (a_1, b_1, ..., b_{n-1}, a_n)
    / sqrt(n), with independent a_i ~ chi_{n-i+1} and b_i ~ chi_{n-i}.

    Drawn in sample order, `_DRAW_BLOCK` samples at a time, each block divided
    by n, rooted and squared into its columns: a short draw is a column prefix.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    dof = np.repeat(np.arange(n, 0, -1), 2)[1:]  # n, n-1, n-1, ..., 1, 1
    e2 = np.empty((2 * n - 1, count))
    for start in range(0, count, _DRAW_BLOCK):
        e = rng.chisquare(dof, size=(min(_DRAW_BLOCK, count - start), 2 * n - 1))
        e /= n
        np.square(np.sqrt(e, out=e).T, out=e2[:, start:start + len(e)])
    return e2


def _above_spectrum(e2: np.ndarray, x: np.ndarray, pivmin: np.ndarray) -> np.ndarray:
    """True where x exceeds every eigenvalue of the tridiagonal T with zero
    diagonal whose squared off-diagonal is `e2` (one row per position, one
    column per matrix): there every pivot of the LDL^T factorisation of T - xI
    is negative.

    The recurrence runs on u = -pivot: u_1 = x, u_{k+1} = x - e2_k / u_k.  A
    pivot smaller than `pivmin` in magnitude counts as -pivmin, as in LAPACK's
    stebz.  A positive pivot settles its column, whose u is then clamped like a
    tiny one so that the column runs on without a branch.
    """
    low = x.copy()  # the smallest u so far
    u = np.maximum(x, pivmin)
    t = np.empty_like(u)
    for row in e2:
        np.divide(row, u, out=t)
        np.subtract(x, t, out=t)
        np.minimum(low, t, out=low)
        np.maximum(t, pivmin, out=u)
    return low > -pivmin


def _newton_sweep(e2: np.ndarray, x: np.ndarray, pivmin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_above_spectrum(e2, x, pivmin)`, by the same operations in the same
    order, and G = p'/p at x, where p = det(xI - T) = u_1 u_2 ... u_2n.

    G = sum_k r_k with r_k = u_k'/u_k: r_1 = 1/u_1 and, since
    u_{k+1}' = 1 + t_k r_k with t_k = e2_k/u_k, r_{k+1} = (1 + t_k r_k)/u_{k+1}.
    Above the spectrum every u_k is positive, and in exact arithmetic the
    Newton step x - 1/G moves down towards the largest eigenvalue without
    passing it.
    """
    low = x.copy()
    u = np.maximum(x, pivmin)
    r = 1.0 / u
    g = r.copy()
    t = np.empty_like(u)
    for row in e2:
        np.divide(row, u, out=t)
        np.multiply(r, t, out=r)
        np.subtract(x, t, out=t)
        np.minimum(low, t, out=low)
        np.maximum(t, pivmin, out=u)
        r += 1.0
        r /= u
        g += r
    return low > -pivmin, g


def _bisect(e2, pivmin, lo, hi, target, below, above, passes):
    """Up to `passes` bisection passes of each bracket [lo, hi] wider than
    `target`.  A midpoint at or above `above` is above the spectrum and one at
    or below `below` is not, since the test is monotone; only the other
    midpoints are swept, and each sweep moves `below` or `above` to them."""
    for _ in range(passes):
        bisect = hi - lo > target
        if not bisect.any():
            break
        x = 0.5 * (lo + hi)
        up = x >= above
        undecided = bisect & ~up & (x > below)
        if undecided.any():
            up = np.where(undecided, _above_spectrum(e2, x, pivmin), up)
            above = np.where(undecided & up, x, above)
            below = np.where(undecided & ~up, x, below)
        hi = np.where(bisect & up, x, hi)
        lo = np.where(bisect & ~up, x, lo)
    return lo, hi


def _newton_thresholds(e2, pivmin, below, above, todo):
    """Narrow `below` < `above`, points tested not above and above the
    spectrum (or bracket ends, which no midpoint reaches), to adjacent doubles
    in each `todo` column, in at most `_NEWTON_SWEEPS` sweeps.

    The first sweep takes G at `above`; each later one tests the Newton step
    from the lowest point tested above.  A step that rounds to `above` or
    lands at or below `below` leaves at most rounding between the threshold
    and that end, so the double next to it is tested instead; a non-finite
    step tests the midpoint.
    """
    x = above
    step = np.full_like(above, np.nan)  # 1/G at `above`
    for _ in range(_NEWTON_SWEEPS):
        todo = todo & (np.nextafter(below, np.inf) < above)
        if not todo.any():
            break
        up, g = _newton_sweep(e2, x, pivmin)
        below = np.where(todo & ~up, x, below)
        above = np.where(todo & up, x, above)
        step = np.where(todo & up, 1.0 / g, step)
        x = above - step
        x = np.where(x <= below, np.nextafter(below, np.inf), x)
        x = np.where(x >= above, np.nextafter(above, -np.inf), x)
        x = np.where(np.isfinite(x), x, 0.5 * (below + above))
    return below, above


def bidiagonal_norms(e2: np.ndarray) -> np.ndarray:
    """Largest singular value of each upper-bidiagonal matrix in a stack, given one
    per column as the squares of its Golub-Kahan off-diagonal (see `expected_operator_norm`).

    Each column is bisected on its own; a column that a NaN or inf entry keeps
    from closing its bracket within `_MAX_PASSES` passes reads NaN.

    The first `_BISECT_FIRST` passes sweep every column; Newton sweeps then pin
    each column's threshold between adjacent doubles (`_newton_thresholds`), and
    the remaining passes are replayed by comparison with the tested points,
    sweeping only where a midpoint is still undecided.  The norms are those of
    plain bisection bit for bit.  A Gaussian stack takes 16 to 21 sweeps, a
    Newton sweep costing about two; no stack takes more than `_MAX_PASSES` +
    `_NEWTON_SWEEPS`.
    """
    e2 = np.asarray(e2, dtype=float)  # a row per position
    # Neighbour pairs are the rows and columns of B, the two end entries pairing
    # with a zero.  They are summed `_BRACKET_ROWS` rows at a time, so the
    # bracket needs no second array the size of the stack.
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
    with np.errstate(all="ignore"):  # a NaN or inf entry runs through to a NaN norm
        # while every midpoint lies strictly inside the bracket, its ends serve
        # as the tested points, so these passes all sweep
        lo, hi = _bisect(e2, pivmin, lo, hi, target, lo, hi, _BISECT_FIRST)
        below, above = _newton_thresholds(e2, pivmin, lo, hi, hi - lo > target)
        lo, hi = _bisect(e2, pivmin, lo, hi, target, below, above, _MAX_PASSES - _BISECT_FIRST)
        return np.where(hi - lo <= target, 0.5 * (lo + hi), np.nan)


def expected_operator_norm(n: int, trials: int, seed: RngSeed) -> NormEstimate:
    """Monte Carlo mean and standard error of the spectral norm of G_n.

    Model.  Householder bidiagonalisation of an n x n matrix of independent
    N(0,1) entries leaves an upper-bidiagonal B with diagonal chi_n, ..., chi_1
    and superdiagonal chi_{n-1}, ..., chi_1, all independent, and the same
    singular values (Silverstein 1985, Ann. Probab. 13; Dumitriu and Edelman
    2002, J. Math. Phys. 43).  So ||G_n|| has the law of ||B||/sqrt(n), drawn
    with 2n - 1 chi variables (`gaussian_bidiagonal_squares`).

    Norm.  The 2n x 2n tridiagonal T with zero diagonal and off-diagonal
    a_1, b_1, a_2, ..., a_n has the eigenvalues +/- sigma_i(B) (Golub and Kahan
    1965, SIAM J. Numer. Anal. 2), so ||B|| = lambda_max(T), and a Sturm count
    of T - xI decides x > ||B|| in O(n) (`bidiagonal_norms`), vectorised over
    the samples of a chunk.  Zero pivots are handled as in LAPACK's stebz.
    Each step of the computed test is monotone in x under round-to-nearest: a
    non-negative e_k^2 divided by a positive pivot, then x minus that, a
    minimum and a maximum.  So the computed test is monotone in x, and each
    sample has one double at and above which it holds (Demmel, Dhillon and
    Ren 1995, ETNA 3, on the monotonicity of floating-point Sturm counts).

    Bracket.  [largest row or column norm of B, Gershgorin bound of T]: the
    norm of each row and column of B is at most ||B||, and each Gershgorin
    radius |e_{k-1}| + |e_k| is at most sqrt(2) times the norm of the row or
    column of B made of the same two entries, so the bracket is at most a
    factor sqrt(2) wide.

    Stopping rule.  Bisection stops when the bracket is 4 ulps of its lower
    end wide, at most `_MAX_PASSES` (50) passes; the norm is its midpoint.
    By monotonicity every decision of the bisection is fixed once that double
    lies between a point tested not above and an adjacent point tested above.
    So only the first 11 passes sweep; Newton's method on det(xI - T), from
    above, pins the double in about 6 more sweeps, and the other passes are
    replayed by comparison, with the same norms bit for bit.
    Bisection on this zero-diagonal form finds every singular value to high
    relative accuracy (Demmel and Kahan 1990, SIAM J. Sci. Stat. Comput. 11);
    the tests hold it to 1e-13 of the dense SVD of B.  A bracket that does not
    close, from a NaN or inf draw, gives a NaN norm and a NaN mean.

    Chunks hold `bidiagonals_per_chunk(n)` samples, in one (2n - 1, samples)
    array of squares plus one block of `_DRAW_BLOCK` samples while it is
    filled.  No n x n matrix, Gram product, eigvalsh or SVD is formed.
    """
    mean, stderr = sample_mean(
        trials, bidiagonals_per_chunk(n), seed,
        lambda rng, take: bidiagonal_norms(gaussian_bidiagonal_squares(n, take, rng)))
    return NormEstimate(mean=mean, stderr=stderr, trials=trials)


# ---------------------------------------------------------------------------
# matrix families over a dual
# ---------------------------------------------------------------------------

#: A randomizer or multiplier family lies in the coefficients' space, so it is a
#: `FourierCoeffs`; this old name stays only because `bench/workloads.py` builds
#: its oracle families as `rs.MatrixFamily(...)`.  No code in src/ or tests/ uses it.
MatrixFamily = FourierCoeffs


def is_unitary(family: FourierCoeffs) -> bool:
    """Every block has ||M^* M - I||_2 <= UNITARY_TOL.  The Frobenius norm of
    the defect bounds its 2-norm from above, so a Frobenius norm within the
    tolerance accepts; the SVD is taken only when it cannot decide."""
    for m in family.support.values():
        defect = m.conj().T @ m - np.eye(m.shape[0])
        if not (np.linalg.norm(defect) <= UNITARY_TOL
                or np.linalg.norm(defect, 2) <= UNITARY_TOL):
            return False
    return True


def identity_family(dual: DualDescriptor) -> FourierCoeffs:
    return FourierCoeffs(dual, {l: np.eye(dual.irrep(l).n, dtype=complex) for l in dual.labels()})


def haar_family(dual: DualDescriptor, rng: np.random.Generator) -> FourierCoeffs:
    return FourierCoeffs(dual, {
        l: haar_unitary_stack(dual.irrep(l).n, 1, rng)[0] for l in dual.labels()
    })


def random_coeffs(
    dual: DualDescriptor, rng: np.random.Generator, labels=None, real: bool = False
) -> FourierCoeffs:
    """Random coefficient family with independent standard Gaussian entries,
    complex unless `real`, drawn block by block in label order."""
    labels = dual.labels() if labels is None else list(labels)
    support = {}
    for label in labels:
        n = dual.irrep(label).n
        support[label] = rng.standard_normal((n, n)) if real else _ginibre(rng, (n, n))
    return FourierCoeffs(dual, support)


def coefficient_traces(dual: DualDescriptor, families: int, rng: np.random.Generator) -> np.ndarray:
    """t = tr(Q X^* X) of each block of `families` complex `random_coeffs`
    families, drawn without the blocks: row f, column j is the trace of family
    f at the j-th label of `dual.labels()`.

    Law.  An entry z = (a + i b)/sqrt(2) of a block has |z|^2 = (a^2 + b^2)/2,
    half a chi-square with 2 degrees of freedom, which is Gamma(1, 1).  So the
    squared norm of each column of an n x n block, a sum of n independent
    |z|^2, is Gamma(n, 1), independently over the columns, the blocks and the
    families, and t = sum_i q_i ||X e_i||^2 = sum_i q_i gamma_i holds exactly
    in law.  The draw is one `standard_gamma` call of families x sum_j n_j
    variates, family-major, so fewer families draw a prefix.
    """
    irreps = [dual.irrep(label) for label in dual.labels()]
    sizes = [irrep.n for irrep in irreps]
    gammas = rng.standard_gamma(np.repeat(np.array(sizes, dtype=float), sizes),
                                size=(families, sum(sizes)))
    gammas *= np.concatenate([irrep.q_diag for irrep in irreps])
    starts = np.cumsum([0] + sizes[:-1])
    return np.add.reduceat(gammas, starts, axis=1)


# ---------------------------------------------------------------------------
# randomization
# ---------------------------------------------------------------------------

def _require_family(f: FourierCoeffs, family: FourierCoeffs) -> None:
    """`family` lies over f's dual (else DualMismatchError) and has an entry
    at every label of f's support (else FamilyError)."""
    _require_same_dual(f, family)
    missing = [l for l in f.support if l not in family.support]
    if missing:
        raise FamilyError(f"family has no entry for labels {missing!r}")


def randomize(f: FourierCoeffs, family: FourierCoeffs) -> FourierCoeffs:
    """Coefficient at alpha becomes U_alpha @ X_alpha; support unchanged."""
    _require_family(f, family)
    return FourierCoeffs(f.dual, {l: family.support[l] @ m for l, m in f.support.items()})


def l2_invariance_check(f: FourierCoeffs, family: FourierCoeffs) -> float:
    """|ell2(f_U) - ell2(f)| for a unitary family; tiny by unitary invariance."""
    if not is_unitary(family):
        raise FamilyError("randomizer family is not unitary within tolerance")
    return abs(ell2_norm(randomize(f, family)) - ell2_norm(f))


# ---------------------------------------------------------------------------
# four-unitary decomposition of a contraction
# ---------------------------------------------------------------------------

def _adjoint(x: np.ndarray) -> np.ndarray:
    return x.swapaxes(-1, -2).conj()


def _hermitian_unitary_pair(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For Hermitian h with ||h|| <= 1, returns h +/- i sqrt(I - h^2), both
    unitary; h may be a stack (..., n, n)."""
    w, v = np.linalg.eigh(h)
    # eigenvalues of a numerical contraction can exceed 1 by ~1e-15; clamp
    w = np.clip(w, -1.0, 1.0)
    root = (v * np.sqrt(1.0 - w * w)[..., None, :]) @ _adjoint(v)
    return h + 1j * root, h - 1j * root


def four_unitary_decomposition(x) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split a contraction X into four unitaries with X = (v1+v2+v3+v4)/2.

    X = h1 + i h2 with h1 = (X+X^*)/2, h2 = (X-X^*)/(2i); each Hermitian part
    contributes the unitary pair h +/- i sqrt(I - h^2), and the skew part is
    rotated by i:  v1,2 = h1 +/- i sqrt(I-h1^2),  v3,4 = i(h2 +/- i sqrt(I-h2^2)).

    `x` is one (n, n) matrix or a stack (..., n, n), and each v has its
    shape.  A stack is split matrix by matrix with stacked `eigh` and matmul
    calls, so each matrix of the stack gets exactly the unitaries it would get
    alone.  ContractionError if any entry is not finite, or any matrix has
    norm above 1 + NORM_SLACK.

    Guard.  With r = 1 + NORM_SLACK, ||X|| <= r exactly when r^2 I - X^* X is
    positive semidefinite.  A Cholesky factorisation of it that succeeds
    accepts the whole stack without an SVD; when one fails, the largest
    singular value decides, so a rounding miss of the factorisation near
    ||X|| = r does not refuse a contraction.  Non-finite entries are refused
    first: a factorisation can return a NaN factor instead of failing, and an
    inf entry gives a NaN singular value, which no comparison refuses.
    """
    x = np.array(x, dtype=complex)
    if x.ndim < 2 or x.shape[-1] != x.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ContractionError("matrix has a non-finite entry")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves no finite factor
        gap = (1.0 + NORM_SLACK) ** 2 * np.eye(x.shape[-1]) - _adjoint(x) @ x
    try:
        bounded = bool(np.all(np.isfinite(np.linalg.cholesky(gap))))
    except np.linalg.LinAlgError:
        bounded = False
    if not bounded:
        norm = float(np.max(np.linalg.norm(x, 2, axis=(-2, -1))))
        if norm > 1.0 + NORM_SLACK:
            raise ContractionError(f"matrix norm {norm!r} exceeds 1 + {NORM_SLACK}")
    h1 = (x + _adjoint(x)) / 2.0
    h2 = (x - _adjoint(x)) / 2j
    v1, v2 = _hermitian_unitary_pair(h1)
    w1, w2 = _hermitian_unitary_pair(h2)
    return v1, v2, 1j * w1, 1j * w2


@dataclass(frozen=True)
class BallDecomposition:
    """B-randomization of f plus the four unitary families realizing it."""

    randomized: FourierCoeffs
    families: tuple[FourierCoeffs, FourierCoeffs, FourierCoeffs, FourierCoeffs]
    max_deviation: float


def randomize_ball(f: FourierCoeffs, family: FourierCoeffs) -> BallDecomposition:
    """Randomize by a norm-<=1 family B and express the result as an average
    of four unitary randomizations: f_B = (sum_j f_{V_j}) / 2.

    Every block of B is split, also at labels outside f's support, so
    `four_unitary_decomposition` refuses a family with any non-finite or
    out-of-ball block (ContractionError).
    """
    f_b = randomize(f, family)
    parts: list[dict] = [{}, {}, {}, {}]
    for label, b in family.support.items():
        for slot, v in zip(parts, four_unitary_decomposition(b)):
            slot[label] = v
    families = tuple(FourierCoeffs(f.dual, p) for p in parts)
    acc = {l: np.zeros_like(m) for l, m in f_b.support.items()}
    for fam in families:
        piece = randomize(f, fam)
        for label in acc:
            acc[label] = acc[label] + piece.support[label]
    deviation = 0.0
    for label, m in f_b.support.items():
        if m.size:  # a NaN deviation is kept
            deviation = float(np.maximum(deviation, np.max(np.abs(acc[label] / 2.0 - m))))
    return BallDecomposition(randomized=f_b, families=families, max_deviation=deviation)
