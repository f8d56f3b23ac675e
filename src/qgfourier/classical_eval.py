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
  Its irrep stacks and its validity Gram both come from the Euler-angle
  structure of the grid: the entry formula runs at the polar angles only,
  and the phase sums factor out.  The stacks are tied to the entry formula
  when the rule is built.

On top of these: values of coefficient families at the nodes, the
Gaussian-randomized L1 mean, the coefficient row-norm bounds, character
L1 integrals, an empirical cotype-2 ratio, and a randomized-L1 report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dual_data import DualDescriptor, IrrepData
from .fourier_core import FourierCoeffs, ell2_norm
from .random_series import MeanAccumulator, RngSeed, haar_unitary_stack, iter_chunks

GROUP_TOL = 1e-12          # exact-group checks
SCHUR_QUAD_TOL = 1e-8      # orthogonality reproduction threshold for quadrature
STACK_TIE_TOL = 1e-13      # assembled irrep stacks against the entry formula
MC_CHUNK = 1024


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
    weights: np.ndarray = field(init=False, repr=False)   # the uniform 1/order, read-only

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
        weights = np.full(self.order, 1.0 / self.order)
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)  # `coeff_values` reads it in the round trip
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
            gram = np.swapaxes(mats.conj(), -2, -1) @ mats
            defect = float(np.max(np.linalg.norm(gram - np.eye(ir.n), 2, axis=(-2, -1))))
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
        err = float(np.max([np.max(np.abs(back.support[l] - f.support[l])) for l in support]))
        if not err <= GROUP_TOL:  # a NaN error fails
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


def _euler_exponents(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponents of e^{i phi1} and e^{i phi2} in rho_k(g)_{ij}, as (k+1, k+1) tables
    (see `SU2Quadrature.irrep_stack`)."""
    i, j = np.indices((k + 1, k + 1))
    return k - i - j, j - i


def _euler_assemble(rho0, e1, e2, phi1, phi2) -> np.ndarray:
    """rho0 * (e^{i e1 phi1} e^{i e2 phi2}): irrep entries at Euler-product nodes.

    `rho0` holds polar-stack entries rho_k(g0(xi)), `e1` and `e2` their phase
    exponents (`_euler_exponents`) and `phi1`, `phi2` the node phases, each
    shaped by the caller so that the five broadcast to the layout it wants.
    The stacks, the ties of `_check_stacks` and the two factor routes all
    multiply here, in this one order, so the ties cover the arithmetic the
    routes run, and every route's entries are the stack's bit for bit.
    """
    return rho0 * (np.exp(1j * (e1 * phi1)) * np.exp(1j * (e2 * phi2)))


def _check_level(k) -> int:
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ClassicalDomainError(f"label {k!r} is not a valid irrep level")
    return int(k)


@dataclass(eq=False)
class SU2Quadrature(HaarRule):
    """Product Haar rule with measured validity, stored as its Euler factors.

    The nodes form a product grid: polar angles xi, then phases phi1, then
    phases phi2 (node index (r * P + p1) * P + p2 for P phases), the node being
    [[cos xi e^{i phi1}, sin xi e^{i phi2}], [-sin xi e^{-i phi2}, cos xi e^{-i phi1}]].
    The rule keeps the angles and one weight per polar angle, never the nodes:
    each of the P^2 nodes at the r-th polar angle weighs `ring_weights[r]`, and
    `weights`, the node weights in node order, is derived from those once.
    All four arrays are read-only once built; so are the (R, k+1, k+1) polar
    stacks.  Full irrep stacks are made on demand by `irrep_stack`, never by
    the build.
    """

    polar: np.ndarray            # (R,) the angles xi
    ring_weights: np.ndarray     # (R,) the weight of each node at one polar angle
    phases: np.ndarray           # (P,) the angles phi1 and phi2 both run over
    kmax_valid: int
    weights: np.ndarray = field(init=False, repr=False)   # (R P^2,) in node order
    _polar_stacks: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.weights = np.repeat(self.ring_weights, len(self.phases) ** 2)

    def _polar_stack(self, k: int) -> np.ndarray:
        """rho_k(g0(xi)) at the R polar angles, shape (R, k+1, k+1) (see `irrep_stack`)."""
        if k not in self._polar_stacks:
            c, s = np.cos(self.polar), np.sin(self.polar)
            stack = _su2_entry_stack(k, c, s, -s, c)
            stack.flags.writeable = False
            self._polar_stacks[k] = stack
        return self._polar_stacks[k]

    def _assemble(self, k: int, entries=np.s_[...], phi2=None) -> np.ndarray:
        """The entries of rho_k that `entries` picks from a (k+1, k+1) table (all
        of them, a column, the diagonal) on the product grid, for the phases
        phi2 in `phi2` (default: all of `phases`): shape picked + (R, P, P').
        The picked axes lead, so each product runs over the nodes innermost."""
        rho0 = np.ascontiguousarray(self._polar_stack(k).transpose(1, 2, 0)[entries])
        e1, e2 = (e[entries][..., None, None, None] for e in _euler_exponents(k))
        phi2 = self.phases if phi2 is None else phi2
        return _euler_assemble(rho0[..., None, None], e1, e2, self.phases[:, None], phi2)

    def irrep_stack(self, k: int) -> np.ndarray:
        """rho_k at every node, from the Euler-angle structure of the grid.

        Every node is g = D(alpha) g0(xi) D(beta), with D(t) = diag(e^{it}, e^{-it}),
        g0(xi) = [[cos xi, sin xi], [-sin xi, cos xi]], phi1 = alpha + beta and
        phi2 = alpha - beta: multiplying out gives a = cos xi e^{i(alpha+beta)} and
        b = sin xi e^{i(alpha-beta)}.  In the orthonormal monomial basis
        rho_k(D(t)) = diag(e^{i(k-2i)t}), so, rho_k being a homomorphism,

            rho_k(g)_{ij} = e^{i(k-2i)alpha} rho_k(g0(xi))_{ij} e^{i(k-2j)beta}
                          = e^{i(k-i-j)phi1} e^{i(j-i)phi2} rho_k(g0(xi))_{ij}.

        The entry formula runs at the R polar angles only; two (P, k+1, k+1) phase
        tables, broadcast over the grid, give the stack in node order (Vilenkin,
        Special Functions and the Theory of Group Representations, 1968, ch. III).
        Each call makes a fresh stack and the rule keeps none: `coeff_values`,
        the Monte Carlo series and the tests read it, while the build and the
        two checks of `all` (`coefficient_bound_check`, `character_l1`)
        evaluate the factors directly and never make one.
        """
        k = _check_level(k)
        phi = self.phases
        stack = _euler_assemble(self._polar_stack(k)[:, None, None], *_euler_exponents(k),
                                phi[:, None, None, None], phi[:, None, None])
        return stack.reshape(-1, k + 1, k + 1)     # (R, P, P, n, n) in node order


def make_su2_quadrature(resolution: int = 10, validate_kmax: int = 6) -> SU2Quadrature:
    """Product Haar rule: Gauss-Legendre in the polar angle, uniform phases.

    Writing a group element as [[a, b], [-conj(b), conj(a)]] with
    a = cos(xi) e^{i phi1}, b = sin(xi) e^{i phi2}, the Haar measure is
    sin(xi) cos(xi) dxi dphi1 dphi2 / (2 pi^2); substituting t = cos(2 xi)
    turns the polar factor into a plain Legendre weight, so node (r, p1, p2)
    carries v_r / (2 P^2) for Legendre weight v_r and P phases.

    The build measures `kmax_valid` on the R polar angles alone: every node is
    D(alpha) g0(xi_r) D(beta), so the Gram of the irrep coefficients over the
    R P^2 nodes is a sum over r of polar-angle products times two phase sums
    S(m) = (1/P) sum_p e^{i m phi_p}, taken from the phases themselves (see
    `_level_gram`).  That is exact because the rule stores one weight per
    polar angle.  The build then ties the assembly of levels 0..`kmax_valid`
    to the entry formula (`_check_stacks`) and makes `polar`, `ring_weights`,
    `phases` and `weights` read-only, so what was checked here holds for the
    rule's life.  It keeps the polar stacks the measurement made, and no full
    irrep stack.  A non-finite polar angle or ring weight, a rule valid below
    level 0, or an assembly off the formula raises ValueError.
    """
    if resolution < 4:
        raise ValueError(f"resolution must be >= 4, got {resolution}")
    if validate_kmax < 0:
        raise ValueError(f"validate_kmax must be >= 0, got {validate_kmax}")
    t, v = np.polynomial.legendre.leggauss(resolution)
    n_phase = 2 * resolution + 8
    quad = SU2Quadrature(polar=0.5 * np.arccos(t), ring_weights=v / (2.0 * n_phase * n_phase),
                         phases=2.0 * np.pi * np.arange(n_phase) / n_phase, kmax_valid=-1)
    # the measurement stops at the first failing level, and the ring tie at
    # level 0 reads no angle, so a NaN here could leave a rule that reads NaN
    for name in ("polar", "ring_weights"):
        if not np.all(np.isfinite(getattr(quad, name))):
            raise ValueError(f"quadrature {name} has a non-finite entry")
    quad.kmax_valid = _measure_valid_kmax(quad, validate_kmax)
    if quad.kmax_valid < 0:
        raise ValueError("quadrature fails validation already at level 0")
    _check_stacks(quad)
    for array in (quad.polar, quad.ring_weights, quad.phases, quad.weights):
        array.flags.writeable = False
    return quad


def _check_stacks(quad: SU2Quadrature) -> None:
    """Raise ValueError unless the Euler assembly agrees with the entry formula.

    The Gram validation cannot see an assembly fault: a relabelled or re-phased
    orthonormal set is still orthonormal.  So the assembly of every level
    0..`kmax_valid` must match `_su2_entry_stack` to STACK_TIE_TOL on one ring
    of nodes per polar angle, the group elements taken from the angles.  On
    the ring at the r-th polar angle, phi1 runs over every phase and phi2 runs
    r + 1 steps ahead of it, so the two phase axes cannot trade places unseen.
    The tie runs `_euler_assemble`, the product every stack and factor route
    runs.
    """
    n_polar, n_phase = len(quad.polar), len(quad.phases)
    r, p = np.indices((n_polar, n_phase))
    phi1, phi2 = quad.phases[p], quad.phases[(p + r + 1) % n_phase]       # (R, P)
    a = np.cos(quad.polar)[:, None] * np.exp(1j * phi1)
    b = np.sin(quad.polar)[:, None] * np.exp(1j * phi2)
    for k in range(quad.kmax_valid + 1):
        ring = _euler_assemble(quad._polar_stack(k)[:, None], *_euler_exponents(k),
                               phi1[..., None, None], phi2[..., None, None])
        formula = _su2_entry_stack(k, a, b, -b.conj(), a.conj())
        err = float(np.max(np.abs(ring - formula)))                    # (R, P, n, n)
        if not err <= STACK_TIE_TOL:
            raise ValueError(f"level {k} stack differs from the entry formula by {err!r}")


def _level_gram(quad: SU2Quadrature, k: int) -> np.ndarray:
    """Gram rows of level k against levels 0..k side by side, over every node.

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
    polar = [quad._polar_stack(l).reshape(n_polar, -1) for l in range(k + 1)]
    gram = (polar[-1].conj() * ring_weights[:, None]).T @ np.concatenate(polar, axis=1)
    m = np.arange(-2 * k, 2 * k + 1)                        # every a' - a and b' - b
    s_table = np.exp(1j * np.multiply.outer(m, quad.phases)).mean(axis=1)
    exponents = [_euler_exponents(l) for l in range(k + 1)]
    for axis in (0, 1):
        cols = np.concatenate([e[axis].reshape(-1) for e in exponents])
        rows = exponents[-1][axis].reshape(-1, 1)
        gram *= s_table[cols - rows + 2 * k]
    return gram


def _measure_valid_kmax(quad: SU2Quadrature, cap: int) -> int:
    """Largest k <= cap whose coefficient Gram (against all levels <= k) is exact to 1e-8.

    Level k is one product over the R polar angles and two gathers from a
    phase-sum table (`_level_gram`), equal to the Gram over all R P^2 nodes up
    to rounding; the rule's one weight per polar angle makes that regrouping
    exact.  The measurement reads the angles and the ring weights, never an
    irrep stack; beyond R x (k+1)^2 polar tables its memory is the Gram rows
    of level k.  It stops at the first failing level.
    """
    for k in range(cap + 1):
        gram = _level_gram(quad, k)
        nk = (k + 1) ** 2
        gram[:, -nk:] -= np.eye(nk) / (k + 1)  # the expected blocks: I/(k+1), else 0
        if not float(np.max(np.abs(gram))) <= SCHUR_QUAD_TOL:
            return k - 1
    return cap


# ---------------------------------------------------------------------------
# norms and verification chains
# ---------------------------------------------------------------------------

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
    `draw(rng, n)` gives (s, a stack of MC_CHUNK random n x n matrices X).

    tr(X f pi(g)) = sum_{m,i} (X f)^T_{mi} pi(g)_{mi}: per label, X f for the
    chunk as one (take n, n) @ (n, n) product, then one product of its
    transposes, flattened to (take, n^2), against the stack flattened to
    (nodes, n^2).  Each label's stack is made once per call, before the chunks.
    """
    stacks = {label: haar.irrep_stack(label).reshape(len(haar.weights), -1)
              for label in f.support}
    for index, take in iter_chunks(trials, MC_CHUNK):
        rng = seed.chunk_generator(index)
        vals = np.zeros((take, len(haar.weights)), dtype=complex)
        for label, m in f.support.items():
            n = m.shape[0]
            scale, x = draw(rng, n)
            xm = (x[:take].reshape(take * n, n) @ m).reshape(take, n, n)
            xm_t = np.swapaxes(xm, 1, 2).reshape(take, -1)
            vals += scale * (xm_t @ stacks[label].T)
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

    The column u_{.,j} is assembled at every node from the Euler factors
    (`SU2Quadrature._assemble`), in the product order of the stack, and the
    row is summed against it in sequence, as a matvec on the stack's column
    would: the values are the stack route's bit for bit, with no stack made.
    A GEMM of the polar column against the two phase tables would regroup
    the products and move last bits.
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
    if side not in ("upper", "lower"):
        raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")
    column = haar._assemble(k, np.s_[:, j]).reshape(n, -1)  # u_{m,j} at each node
    row_norm = float(np.linalg.norm(a[i, :]))
    if side == "upper":
        # |sum_m A_{i,m} conj(u_{m,j})| = |sum_m conj(A_{i,m}) u_{m,j}|
        vals = np.einsum("mg,m->g", column, a[i, :].conj())
        actual = float(np.max(np.abs(vals)))
        bound = row_norm
        margin = bound - actual
    else:
        vals = np.einsum("mg,m->g", column, a[i, :])
        actual = float(np.sum(haar.weights * np.abs(vals)))
        bound = row_norm / n
        margin = actual - bound
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
    """Haar integral of |chi_k|; 3D quadrature while it is valid, 1D beyond.

    On the diagonal the phi2 exponent j - i is 0, so chi_k depends on (xi, phi1)
    only: the (R, P) traces are taken from the assembly at the first phi2 (the
    factor e^{0i} is exactly 1, so they are the traces at every phi2 bit for
    bit), broadcast over phi2 and summed against `weights` in node order, as
    the trace of the full stack would be.
    """
    k = _check_level(k)
    if k <= haar.kmax_valid:
        diagonal = haar._assemble(k, np.diag_indices(k + 1), phi2=haar.phases[:1])
        tr = np.einsum("i...->...", diagonal)                                # (R, P, 1)
        tr = np.broadcast_to(np.abs(tr), tr.shape[:2] + (len(haar.phases),))
        return float(np.sum(haar.weights * tr.reshape(-1)))
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
        best = float(np.maximum(best, np.max(l1)))  # a NaN value is kept
    ratio = best / ell2 if ell2 > 0 else 0.0
    return L1Report(sup_l1_over_u=best, ell2=ell2, ratio=ratio)
