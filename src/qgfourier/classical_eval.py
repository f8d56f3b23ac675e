"""Function-side evaluation for classical compact groups.

Two concrete Haar realizations, each a :class:`HaarRule`, back the classical
checks:

* :class:`FiniteGroupTable` -- a finite group given by its multiplication
  table together with a complete set of unitary irreps; the Haar integral is
  the exact uniform average.  Every structural invariant (group law, unitary
  homomorphisms, Peter-Weyl count, orthogonality of matrix coefficients,
  coefficient-extraction round trip) is checked exhaustively at construction.
* :class:`SU2Quadrature` -- a product rule for the 2x2 special unitary group
  (Gauss-Legendre in the polar angle, uniform in the two phases) with the
  degree of validity measured, not assumed: ``kmax_valid`` is the largest
  irrep level whose orthogonality relations the rule reproduces to 1e-8.

On top of these: pointwise evaluation of coefficient families, L1/Linf norms,
the Gaussian-randomized L1 mean, the coefficient row-norm bounds, character
L1 integrals, an empirical cotype-2 ratio, and a randomized-L1 report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dual_data import DualDescriptor, IrrepData
from .fourier_core import FourierCoeffs, ell2_norm
from .random_series import MeanAccumulator, RngSeed, haar_unitary_stack, iter_chunks

GROUP_TOL = 1e-12          # exact-group checks
SU2_INPUT_TOL = 1e-10      # special-unitarity tolerance on inputs
SCHUR_QUAD_TOL = 1e-8      # orthogonality reproduction threshold for quadrature
MC_CHUNK = 1024
QUAD_NODE_BLOCK = 1024     # quadrature nodes per product in _measure_valid_kmax


class ClassicalDomainError(ValueError):
    """Raised when an operation needs a classical (Kac, realized) dual."""


class GroupTableError(ValueError):
    """Raised when a finite-group table fails a construction-time invariant."""


class HaarRule:
    """A positive Haar rule: node `weights` summing to 1, and `irrep_stack(label)`,
    the irrep at `label` evaluated at every node, of shape (nodes, n, n)."""

    weights: np.ndarray

    def irrep_stack(self, label) -> np.ndarray:
        raise NotImplementedError

    def coeff_values(self, f: FourierCoeffs) -> np.ndarray:
        """Values of sum_pi n_pi tr(f_pi pi(g)) at every node."""
        vals = np.zeros(len(self.weights), dtype=complex)
        for label, m in f.support.items():
            stack = self.irrep_stack(label)
            vals += stack.shape[-1] * np.einsum("ij,gji->g", m, stack)
        return vals


# ---------------------------------------------------------------------------
# finite groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GroupIrrep:
    label: str | int
    n: int
    matrices: np.ndarray  # (order, n, n), complex, unitary

    def __post_init__(self):
        mats = np.array(self.matrices, dtype=complex)
        mats.flags.writeable = False
        object.__setattr__(self, "matrices", mats)


@dataclass(frozen=True, eq=False)
class FiniteGroupTable(HaarRule):
    """A finite group with unitary irreps and the exact Haar average."""

    name: str
    order: int
    mult: np.ndarray
    irreps: tuple[GroupIrrep, ...]
    identity: int = field(init=False)
    inverse: np.ndarray = field(init=False)

    def __post_init__(self):
        mult = np.asarray(self.mult, dtype=int)
        mult.flags.writeable = False
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "irreps", tuple(self.irreps))
        self._validate_group_law()
        self._validate_irreps()
        self._validate_schur()
        object.__setattr__(
            self, "_by_label", {ir.label: ir for ir in self.irreps}
        )
        object.__setattr__(self, "_dual", self._build_dual())
        self._validate_round_trip()

    # -- structure ---------------------------------------------------------

    def _validate_group_law(self):
        n = self.order
        if self.mult.shape != (n, n):
            raise GroupTableError(f"mult table shape {self.mult.shape}, expected ({n}, {n})")
        if self.mult.min() < 0 or self.mult.max() >= n:
            raise GroupTableError("mult table entries out of range")
        rng_idx = np.arange(n)
        ids = [
            e
            for e in range(n)
            if np.array_equal(self.mult[e], rng_idx) and np.array_equal(self.mult[:, e], rng_idx)
        ]
        if len(ids) != 1:
            raise GroupTableError(f"expected exactly one identity element, found {ids}")
        e = ids[0]
        object.__setattr__(self, "identity", e)
        inverse = np.full(n, -1, dtype=int)
        for g in range(n):
            hs = np.nonzero(self.mult[g] == e)[0]
            if len(hs) != 1 or self.mult[hs[0], g] != e:
                raise GroupTableError(f"element {g} has no two-sided inverse")
            inverse[g] = hs[0]
        inverse.flags.writeable = False
        object.__setattr__(self, "inverse", inverse)
        left = self.mult[self.mult]               # (a,b,c) -> (a*b)*c
        right = self.mult[:, self.mult]           # (a,b,c) -> a*(b*c)
        if not np.array_equal(left, right):
            raise GroupTableError("multiplication table is not associative")

    def _validate_irreps(self):
        labels = [ir.label for ir in self.irreps]
        if len(set(labels)) != len(labels):
            raise GroupTableError("duplicate irrep labels")
        if sum(ir.n * ir.n for ir in self.irreps) != self.order:
            raise GroupTableError("Peter-Weyl count failed: sum n^2 != order")
        first = self.irreps[0]
        if first.n != 1 or np.max(np.abs(first.matrices - 1.0)) > GROUP_TOL:
            raise GroupTableError("the first irrep must be the trivial one")
        for ir in self.irreps:
            mats = ir.matrices
            if mats.shape != (self.order, ir.n, ir.n):
                raise GroupTableError(
                    f"irrep {ir.label!r}: matrices shape {mats.shape}"
                )
            eye = np.eye(ir.n)
            defect = max(
                float(np.linalg.norm(m.conj().T @ m - eye, 2)) for m in mats
            )
            if defect > GROUP_TOL:
                raise GroupTableError(f"irrep {ir.label!r}: unitarity defect {defect!r}")
            prod = np.einsum("aij,bjk->abik", mats, mats)
            if float(np.max(np.abs(prod - mats[self.mult]))) > GROUP_TOL:
                raise GroupTableError(f"irrep {ir.label!r}: not a homomorphism")

    def _validate_schur(self):
        # flatten all matrix coefficients and check the uniform-average Gram
        cols = []
        expected_diag = []
        for ir in self.irreps:
            cols.append(ir.matrices.reshape(self.order, ir.n * ir.n))
            expected_diag.extend([1.0 / ir.n] * (ir.n * ir.n))
        y = np.concatenate(cols, axis=1)
        gram = (y.T @ y.conj()) / self.order
        expected = np.diag(expected_diag)
        if float(np.max(np.abs(gram - expected))) > GROUP_TOL:
            raise GroupTableError("Schur orthogonality failed for the uniform average")

    def _build_dual(self) -> DualDescriptor:
        return DualDescriptor(
            self.name,
            tuple(IrrepData(label=ir.label, n=ir.n, q_diag=np.ones(ir.n)) for ir in self.irreps),
        )

    def _validate_round_trip(self):
        rng = np.random.default_rng(20240917)
        support = {
            ir.label: rng.standard_normal((ir.n, ir.n))
            + 1j * rng.standard_normal((ir.n, ir.n))
            for ir in self.irreps
        }
        f = FourierCoeffs(self.dual_descriptor(), support)
        back = self.fourier_coeffs(self.coeff_values(f))
        err = max(
            float(np.max(np.abs(back.support[l] - f.support[l]))) for l in support
        )
        if err > GROUP_TOL:
            raise GroupTableError(f"coefficient extraction round trip failed ({err!r})")

    # -- Haar realization ---------------------------------------------------

    def dual_descriptor(self) -> DualDescriptor:
        return self._dual

    def irrep(self, label) -> GroupIrrep:
        try:
            return self._by_label[label]
        except KeyError:
            raise ClassicalDomainError(
                f"group {self.name!r} has no irrep labeled {label!r}"
            ) from None

    @property
    def weights(self) -> np.ndarray:
        return np.full(self.order, 1.0 / self.order)

    def irrep_stack(self, label) -> np.ndarray:
        return self.irrep(label).matrices

    def fourier_coeffs(self, values: np.ndarray) -> FourierCoeffs:
        """Exact coefficient extraction f(pi)_{i,j} = (1/|G|) sum_g v(g) conj(pi(g)_{j,i})."""
        values = np.asarray(values, dtype=complex)
        if values.shape != (self.order,):
            raise ValueError(f"need one value per element, got shape {values.shape}")
        support = {
            ir.label: np.einsum("g,gji->ij", values, ir.matrices.conj()) / self.order
            for ir in self.irreps
        }
        return FourierCoeffs(self.dual_descriptor(), support)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "order": self.order,
            "mult": self.mult.tolist(),
            "irreps": [
                {
                    "label": ir.label,
                    "n": ir.n,
                    "matrices": [
                        {"re": np.real(m).tolist(), "im": np.imag(m).tolist()}
                        for m in ir.matrices
                    ],
                }
                for ir in self.irreps
            ],
        }


def table_to_json(table: FiniteGroupTable) -> str:
    return json.dumps(table.to_json_dict())


def table_from_json(text: str) -> FiniteGroupTable:
    doc = json.loads(text)
    irreps = tuple(
        GroupIrrep(
            label=e["label"],
            n=int(e["n"]),
            matrices=np.array(
                [np.array(m["re"], dtype=float) + 1j * np.array(m["im"], dtype=float) for m in e["matrices"]]
            ),
        )
        for e in doc["irreps"]
    )
    return FiniteGroupTable(
        name=doc.get("name", "custom"),
        order=int(doc["order"]),
        mult=np.array(doc["mult"], dtype=int),
        irreps=irreps,
    )


def cyclic_group(n: int) -> FiniteGroupTable:
    """The cyclic group of order n with its n characters."""
    if n < 1:
        raise GroupTableError(f"order must be >= 1, got {n}")
    mult = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    irreps = tuple(
        GroupIrrep(
            label=j,
            n=1,
            matrices=np.exp(2j * np.pi * j * np.arange(n) / n).reshape(n, 1, 1),
        )
        for j in range(n)
    )
    return FiniteGroupTable(name=f"z{n}", order=n, mult=mult, irreps=irreps)


_S3_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def _perm_sign(p) -> int:
    sign = 1
    p = list(p)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def symmetric_group_s3() -> FiniteGroupTable:
    """The symmetric group on three letters: irreps of dimensions (1, 1, 2)."""
    perms = _S3_PERMS
    index = {p: i for i, p in enumerate(perms)}
    order = len(perms)
    mult = np.zeros((order, order), dtype=int)
    for a, p in enumerate(perms):
        for b, q in enumerate(perms):
            mult[a, b] = index[tuple(p[q[x]] for x in range(3))]
    triv = GroupIrrep("triv", 1, np.ones((order, 1, 1), dtype=complex))
    sgn = GroupIrrep(
        "sgn", 1, np.array([_perm_sign(p) for p in perms], dtype=complex).reshape(order, 1, 1)
    )
    # standard 2-dim irrep: permutation matrices restricted to the plane
    # orthogonal to (1,1,1), in an orthonormal basis -> real orthogonal blocks
    basis = np.array(
        [
            [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(6.0)],
            [-1.0 / np.sqrt(2.0), 1.0 / np.sqrt(6.0)],
            [0.0, -2.0 / np.sqrt(6.0)],
        ]
    )
    std_mats = np.zeros((order, 2, 2), dtype=complex)
    for a, p in enumerate(perms):
        perm_mat = np.zeros((3, 3))
        for j in range(3):
            perm_mat[p[j], j] = 1.0
        std_mats[a] = basis.T @ perm_mat @ basis
    std = GroupIrrep("std", 2, std_mats)
    return FiniteGroupTable(name="s3", order=order, mult=mult, irreps=(triv, sgn, std))


# ---------------------------------------------------------------------------
# the 2x2 special unitary group
# ---------------------------------------------------------------------------

def _su2_entry_stack(k: int, g00, g01, g10, g11) -> np.ndarray:
    """Irrep matrices of level k at a batch of group elements.

    Realized on homogeneous polynomials of degree k in two variables with the
    orthonormalized monomial basis; entries come from binomial expansion of
    the substituted linear forms.  Shapes: inputs (...), output (..., k+1, k+1).
    """
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


def su2_irrep_matrix(k: int, g) -> np.ndarray:
    """The (k+1)-dimensional unitary irrep of the 2x2 special unitary group at g."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    g = np.asarray(g, dtype=complex)
    if g.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {g.shape}")
    if float(np.linalg.norm(g.conj().T @ g - np.eye(2), 2)) > SU2_INPUT_TOL:
        raise ValueError("input is not unitary within tolerance")
    if abs(np.linalg.det(g) - 1.0) > SU2_INPUT_TOL:
        raise ValueError("input does not have determinant 1 within tolerance")
    return _su2_entry_stack(k, g[0, 0], g[0, 1], g[1, 0], g[1, 1])


@dataclass(eq=False)
class SU2Quadrature(HaarRule):
    """Nodes/weights approximating the Haar integral, with measured validity."""

    nodes: np.ndarray            # (M, 2, 2)
    weights: np.ndarray          # (M,)
    kmax_valid: int
    _stacks: dict = field(default_factory=dict, repr=False)

    def irrep_stack(self, k: int) -> np.ndarray:
        if not isinstance(k, (int, np.integer)) or k < 0:
            raise ClassicalDomainError(f"label {k!r} is not a valid irrep level")
        k = int(k)
        if k not in self._stacks:
            g = self.nodes
            self._stacks[k] = _su2_entry_stack(k, g[:, 0, 0], g[:, 0, 1], g[:, 1, 0], g[:, 1, 1])
        return self._stacks[k]

    def fourier_coeffs(self, values: np.ndarray, kmax: int, dual: DualDescriptor) -> FourierCoeffs:
        values = np.asarray(values, dtype=complex)
        support = {}
        for k in range(kmax + 1):
            stack = self.irrep_stack(k)
            support[k] = np.einsum("g,g,gji->ij", self.weights, values, stack.conj())
        return FourierCoeffs(dual, support)


def make_su2_quadrature(resolution: int = 10, validate_kmax: int = 6) -> SU2Quadrature:
    """Product Haar rule: Gauss-Legendre in the polar angle, uniform phases.

    Writing a group element as [[a, b], [-conj(b), conj(a)]] with
    a = cos(xi) e^{i phi1}, b = sin(xi) e^{i phi2}, the Haar measure is
    sin(xi) cos(xi) dxi dphi1 dphi2 / (2 pi^2); substituting t = cos(2 xi)
    turns the polar factor into a plain Legendre weight.
    """
    if resolution < 4:
        raise ValueError(f"resolution must be >= 4, got {resolution}")
    t, v = np.polynomial.legendre.leggauss(resolution)
    xi = 0.5 * np.arccos(t)
    n_phase = 2 * resolution + 8
    phi = 2.0 * np.pi * np.arange(n_phase) / n_phase
    a = np.cos(xi)[:, None, None] * np.exp(1j * phi)[None, :, None]
    b = np.sin(xi)[:, None, None] * np.exp(1j * phi)[None, None, :]
    a = np.broadcast_to(a, (resolution, n_phase, n_phase)).reshape(-1)
    b = np.broadcast_to(b, (resolution, n_phase, n_phase)).reshape(-1)
    nodes = np.empty((a.size, 2, 2), dtype=complex)
    nodes[:, 0, 0] = a
    nodes[:, 0, 1] = b
    nodes[:, 1, 0] = -b.conj()
    nodes[:, 1, 1] = a.conj()
    weights = np.broadcast_to(
        (v / (2.0 * n_phase * n_phase))[:, None, None], (resolution, n_phase, n_phase)
    ).reshape(-1)
    quad = SU2Quadrature(nodes=nodes, weights=weights.copy(), kmax_valid=-1)
    quad.kmax_valid = _measure_valid_kmax(quad, validate_kmax)
    if quad.kmax_valid < 0:
        raise ValueError("quadrature fails orthogonality already at level 0")
    return quad


def _measure_valid_kmax(quad: SU2Quadrature, cap: int) -> int:
    """Largest k <= cap whose coefficient Gram (against all levels <= k) is exact to 1e-8.

    Level k takes one product per block of QUAD_NODE_BLOCK nodes: the weighted,
    conjugated level-k columns against the columns of levels 0..k side by side,
    summed over the blocks.  Beyond the cached irrep stacks, the extra memory is
    one node block of columns and the Gram rows of level k.  The measurement
    stops at the first failing level and reads only the stacks and the weights.
    """
    w = quad.weights
    flat = []
    for k in range(cap + 1):
        stack = quad.irrep_stack(k)
        flat.append(stack.reshape(stack.shape[0], -1))
        nk = flat[-1].shape[1]
        gram = np.zeros((nk, sum(y.shape[1] for y in flat)), dtype=complex)
        for lo in range(0, len(w), QUAD_NODE_BLOCK):
            blk = slice(lo, lo + QUAD_NODE_BLOCK)
            weighted = flat[-1][blk].conj() * w[blk, None]
            gram += weighted.T @ np.concatenate([y[blk] for y in flat], axis=1)
        gram[:, -nk:] -= np.eye(nk) / (k + 1)  # the expected blocks: I/(k+1), else 0
        if float(np.max(np.abs(gram))) > SCHUR_QUAD_TOL:
            return k - 1
    return max(cap, -1)


def evaluate_su2(f: FourierCoeffs, g) -> complex:
    """Pointwise value sum_k (k+1) tr(f_k rho_k(g)) at an arbitrary group element."""
    acc = 0j
    for label, m in f.support.items():
        acc += (label + 1) * np.trace(m @ su2_irrep_matrix(int(label), g))
    return complex(acc)


# ---------------------------------------------------------------------------
# norms and verification chains
# ---------------------------------------------------------------------------

def l1_norm_classical(f: FourierCoeffs, haar: HaarRule) -> float:
    """Haar integral of |f| over the realization's nodes."""
    vals = haar.coeff_values(f)
    return float(np.sum(haar.weights * np.abs(vals)))


def linfty_norm_classical(f: FourierCoeffs, haar: HaarRule) -> float:
    """Max of |f| over the realization's nodes (a lower bound for the true sup)."""
    vals = haar.coeff_values(f)
    return float(np.max(np.abs(vals))) if vals.size else 0.0


def hilbert_schmidt_sq(f: FourierCoeffs) -> float:
    """sum_pi n_pi tr(f_pi^* f_pi), the unweighted coefficient energy."""
    total = 0.0
    for label, m in f.support.items():
        total += f.dual.irrep(label).n * float(np.sum(np.abs(m) ** 2))
    return total


@dataclass(frozen=True)
class GaussianL1:
    mean: float
    stderr: float
    predicted: float


def _series_l1(haar: HaarRule, f: FourierCoeffs, trials: int, seed: RngSeed, draw):
    """Per chunk of trials, the L1 norms of sum_pi s_pi tr(X_pi f_pi pi(g)), where
    `draw(rng, n)` gives (s, a stack of MC_CHUNK random n x n matrices X)."""
    for index, take in iter_chunks(trials, MC_CHUNK):
        rng = seed.chunk_generator(index)
        vals = np.zeros((take, len(haar.weights)), dtype=complex)
        for label, m in f.support.items():
            scale, x = draw(rng, m.shape[0])
            vals += scale * np.einsum("tij,jm,gmi->tg", x[:take], m, haar.irrep_stack(label))
        yield np.abs(vals) @ haar.weights


def gaussian_series_l1_mean(
    f: FourierCoeffs, trials: int, seed: RngSeed, haar: HaarRule
) -> GaussianL1:
    """Monte Carlo E ||f_G||_{L1} for Gaussian-randomized coefficients.

    Each trial multiplies the coefficient at pi on the left by an independent
    normalized Gaussian matrix; the predicted value sqrt(2/pi) times the
    coefficient energy root is exact whenever the randomized series is a real
    Gaussian at every group point (real coefficient data in a real-matrix
    realization, or supports whose characters share a common phase pointwise).
    """
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials}")
    predicted = float(np.sqrt(2.0 / np.pi) * np.sqrt(hilbert_schmidt_sq(f)))
    if not f.support:
        return GaussianL1(mean=0.0, stderr=0.0, predicted=predicted)
    acc = MeanAccumulator()
    for l1 in _series_l1(haar, f, trials, seed,
                         lambda rng, n: (np.sqrt(n), rng.standard_normal((MC_CHUNK, n, n)))):
        acc.add(l1)
    mean, stderr = acc.mean_stderr()
    return GaussianL1(mean=mean, stderr=stderr, predicted=predicted)


@dataclass(frozen=True)
class BoundCheck:
    side: str
    bound: float
    actual: float
    margin: float


def coefficient_bound_check(
    matrix, k: int, i: int, j: int, haar: SU2Quadrature, side: str
) -> BoundCheck:
    """Row-norm bounds for coefficient combinations on the classical group (Q = I).

    side="upper": the sup norm of sum_m A_{i,m} (u_{m,j})^* is at most the
    i-th row norm of A.  side="lower": the L1 norm of sum_m B_{i,m} u_{m,j}
    is at least the i-th row norm of B divided by the dimension.  Margins are
    signed so that nonnegative means the bound holds; quadrature error is
    allowed to push them slightly negative.  Levels above `haar.kmax_valid`
    are refused: the rule is not measured there.
    """
    if k > haar.kmax_valid:
        raise ValueError(f"level {k} exceeds the quadrature's measured validity level "
                         f"{haar.kmax_valid}")
    a = np.asarray(matrix, dtype=complex)
    n = k + 1
    if a.shape != (n, n):
        raise ValueError(f"matrix shape {a.shape}, expected ({n}, {n})")
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"indices ({i}, {j}) out of range for dimension {n}")
    stack = haar.irrep_stack(k)
    row_norm = float(np.linalg.norm(a[i, :]))
    if side == "upper":
        vals = np.einsum("m,gm->g", a[i, :], stack[:, :, j].conj())
        actual = float(np.max(np.abs(vals)))
        bound = row_norm
        margin = bound - actual
    elif side == "lower":
        vals = np.einsum("m,gm->g", a[i, :], stack[:, :, j])
        actual = float(np.sum(haar.weights * np.abs(vals)))
        bound = row_norm / n
        margin = actual - bound
    else:
        raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")
    return BoundCheck(side=side, bound=bound, actual=actual, margin=margin)


def weyl_character_l1(k: int) -> float:
    """Exact character L1 integral via the reduced one-dimensional form.

    h(|chi_k|) = (2/pi) * int_0^pi |sin((k+1) t) sin(t)| dt, evaluated with
    the closed-form antiderivative on each interval where sin((k+1) t) keeps
    its sign.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return 1.0
    kk = k + 1

    def anti(theta):
        return np.sin(k * theta) / (2 * k) - np.sin((kk + 1) * theta) / (2 * (kk + 1))

    cuts = np.pi * np.arange(kk + 1) / kk
    vals = anti(cuts)
    return float((2.0 / np.pi) * np.sum(np.abs(np.diff(vals))))


def character_l1(k: int, haar: SU2Quadrature) -> float:
    """Haar integral of |chi_k|; 3D quadrature while it is valid, 1D beyond."""
    if k <= haar.kmax_valid:
        tr = np.einsum("gii->g", haar.irrep_stack(k))
        return float(np.sum(haar.weights * np.abs(tr)))
    return weyl_character_l1(k)


@dataclass(frozen=True)
class CotypeRatio:
    ratio: float
    stderr: float


def cotype2_ratio(
    haar: HaarRule, xs: list[FourierCoeffs], trials: int, seed: RngSeed
) -> CotypeRatio:
    """E ||sum_j g_j x_j||_{L1} / (sum_j ||x_j||_{L1}^2)^{1/2} against a Haar rule."""
    if not xs:
        raise ValueError("need at least one coefficient family")
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials}")
    values = np.stack([haar.coeff_values(x) for x in xs])  # (J, nodes)
    weights = haar.weights
    l1s = np.abs(values) @ weights
    denom = float(np.sqrt(np.sum(l1s * l1s)))
    if denom == 0.0:
        raise ValueError("all families are zero; the ratio is undefined")
    j = len(xs)
    acc = MeanAccumulator()
    for index, take in iter_chunks(trials, MC_CHUNK):
        g = seed.chunk_generator(index).standard_normal((MC_CHUNK, j))[:take]
        acc.add(np.abs(g @ values) @ weights)
    mean, stderr = acc.mean_stderr()
    return CotypeRatio(ratio=mean / denom, stderr=stderr / denom)


@dataclass(frozen=True)
class L1Report:
    sup_l1_over_u: float
    ell2: float
    ratio: float


def randomized_l1_report(
    haar: HaarRule, f: FourierCoeffs, num_unitaries: int, seed: RngSeed
) -> L1Report:
    """Sup over sampled unitary randomizers of ||f_U||_{L1}, with the ell2 norm.

    No inequality between the two is asserted; the pair is reported for
    stability checks.
    """
    ell2 = ell2_norm(f)
    if not f.support or num_unitaries < 1:
        return L1Report(sup_l1_over_u=0.0, ell2=ell2, ratio=0.0)
    best = 0.0
    for l1 in _series_l1(haar, f, num_unitaries, seed,
                         lambda rng, n: (n, haar_unitary_stack(n, MC_CHUNK, rng))):
        best = max(best, float(np.max(l1)))
    ratio = best / ell2 if ell2 > 0 else 0.0
    return L1Report(sup_l1_over_u=best, ell2=ell2, ratio=ratio)
