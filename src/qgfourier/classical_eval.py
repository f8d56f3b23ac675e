"""Function-side evaluation for classical compact groups.

Two concrete Haar realizations, each a :class:`HaarRule`, back the classical
checks:

* :class:`FiniteGroupTable` -- a finite group given by its multiplication
  table and one stack of unitary irrep matrices per label of its dual; the
  Haar integral is the exact uniform average.  Construction checks
  exhaustively that the irreps are unitary homomorphisms, the Peter-Weyl
  count and the orthogonality of matrix coefficients; the group law and the
  coefficient-extraction round trip follow from these.
* :class:`SU2Quadrature` -- a product rule for the 2x2 special unitary group
  (Gauss-Legendre in the polar angle, uniform in the two phases) whose
  validity level ``kmax_valid``, up to which it reproduces the irrep
  orthogonality relations, is derived from its sizes; the build checks the
  two premises of that derivation on the rule's own angles and weights.  Its
  irrep stacks come from the Euler-angle structure of the grid: the entry
  formula runs at the polar angles only, and the phase factors are gathered
  from one table.  The stacks are tied to the entry formula when the rule is
  built.

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
from .random_series import RngSeed, _unitarity_defects, haar_unitary_stack, sample_max, sample_mean

GROUP_TOL = 1e-12          # exact-group checks
SCHUR_QUAD_TOL = 1e-8      # the quadrature premises: polar moments and phase sums
STACK_TIE_TOL = 1e-13      # assembled irrep stacks against the entry formula
MC_CHUNK = 1024


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
class FiniteGroupTable(HaarRule):
    """A finite group with unitary irreps and the exact Haar average.

    `stacks` maps each irrep label, the trivial one first, to the irrep's
    matrices at every group element, (order, n, n); the build makes them
    complex arrays, read-only (as it does `mult`; a complex array is kept, not
    copied), and reads its `dual` off them, a Kac dual of the stacks' sizes
    that is the table's label index.  The order is ``len(mult)``.
    Construction checks that `mult` is a square table of elements, that the
    irreps are unitary homomorphisms (the first one trivial) whose squared
    dimensions sum to the order, and Schur orthogonality under the uniform
    average.  The rest follows from these.  The coefficient matrix Y (an
    element per row, a matrix coefficient per column) is square, and Schur
    says its columns are orthogonal, so its rows are too:
    sum_pi n_pi |pi(g) - pi(h)|_F^2 = 2 order for g != h, and the direct sum
    of the irreps is injective.  A homomorphism into a group that is injective
    makes `mult` a group law: associative, with an identity and inverses,
    which are then read off the table.  And `fourier_coeffs` after
    `coeff_values` is the Schur Gram applied to the coefficients, which
    returns them to rounding.
    """

    name: str
    mult: np.ndarray
    stacks: dict
    dual: DualDescriptor = field(init=False, repr=False)
    order: int = field(init=False)
    inverse: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False, repr=False)   # the uniform 1/order, read-only

    def __post_init__(self):
        stacks = {}
        for label, stack in self.stacks.items():
            mats = np.asarray(stack, dtype=complex)
            if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
                raise GroupTableError(f"irrep {label!r}: matrices shape {mats.shape}")
            if not np.isfinite(mats).all():
                raise GroupTableError(f"irrep {label!r}: non-finite matrix entry")
            mats.flags.writeable = False
            stacks[label] = mats
        object.__setattr__(self, "stacks", stacks)
        object.__setattr__(self, "dual", DualDescriptor(self.name, tuple(
            IrrepData(label=label, q_diag=np.ones(m.shape[1])) for label, m in stacks.items())))
        mult = np.asarray(self.mult, dtype=int)
        if mult.ndim != 2 or mult.shape[0] != mult.shape[1]:
            raise GroupTableError(f"mult table shape {mult.shape}, expected (order, order)")
        if mult.min() < 0 or mult.max() >= len(mult):
            raise GroupTableError("mult table entries out of range")
        mult.flags.writeable = False
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "order", len(mult))
        self._validate_irreps()
        self._validate_schur()
        identity = int(np.argmax(mult[:, 0] == 0))   # x * 0 = 0 only for x = e
        inverse = np.argmax(mult == identity, axis=1)
        inverse.flags.writeable = False
        object.__setattr__(self, "inverse", inverse)
        weights = np.full(self.order, 1.0 / self.order)
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)

    # -- structure ---------------------------------------------------------

    def _validate_irreps(self):
        if sum(ir.n * ir.n for ir in self.dual.irreps) != self.order:
            raise GroupTableError("Peter-Weyl count failed: sum n^2 != order")
        if np.max(np.abs(self.stacks[self.dual.irreps[0].label] - 1.0)) > GROUP_TOL:
            raise GroupTableError("the first irrep must be the trivial one")
        for label, mats in self.stacks.items():
            if len(mats) != self.order:
                raise GroupTableError(f"irrep {label!r}: matrices shape {mats.shape}")
            defect = float(np.max(_unitarity_defects(mats)))
            if defect > GROUP_TOL:
                raise GroupTableError(f"irrep {label!r}: unitarity defect {defect!r}")
            prod = np.einsum("aij,bjk->abik", mats, mats)
            if float(np.max(np.abs(prod - mats[self.mult]))) > GROUP_TOL:
                raise GroupTableError(f"irrep {label!r}: not a homomorphism")

    def _validate_schur(self):
        # flatten all matrix coefficients and check the uniform-average Gram
        y = np.concatenate([m.reshape(self.order, -1) for m in self.stacks.values()], axis=1)
        expected = np.concatenate([np.full(ir.n * ir.n, 1.0 / ir.n) for ir in self.dual.irreps])
        gram = (y.T @ y.conj()) / self.order
        if float(np.max(np.abs(gram - np.diag(expected)))) > GROUP_TOL:
            raise GroupTableError("Schur orthogonality failed for the uniform average")

    # -- Haar realization ---------------------------------------------------

    def irrep_stack(self, label) -> np.ndarray:
        return self.stacks[self.dual.irrep(label).label]   # KeyError if the label is unknown

    def fourier_coeffs(self, values: np.ndarray) -> FourierCoeffs:
        """Exact coefficient extraction f(pi)_{i,j} = (1/|G|) sum_g v(g) conj(pi(g)_{j,i})."""
        values = np.asarray(values, dtype=complex)
        if values.shape != (self.order,):
            raise ValueError(f"need one value per element, got shape {values.shape}")
        support = {
            label: np.einsum("g,gji->ij", values, m.conj()) / self.order
            for label, m in self.stacks.items()
        }
        return FourierCoeffs(self.dual, support)


def cyclic_group(n: int) -> FiniteGroupTable:
    """The cyclic group of order n with its n characters.  Character j at g is
    exp(2 pi i (j g mod n) / n): reduced first, the angle stays below 2 pi,
    where exp rounds to a few ulps, so the homomorphism check holds at any n."""
    if n < 1:
        raise GroupTableError(f"order must be >= 1, got {n}")
    g = np.arange(n)
    mult = (g[:, None] + g[None, :]) % n
    stacks = {j: np.exp(2j * np.pi * (j * g % n) / n).reshape(n, 1, 1) for j in range(n)}
    return FiniteGroupTable(name=f"z{n}", mult=mult, stacks=stacks)


_S3_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def symmetric_group_s3() -> FiniteGroupTable:
    """The symmetric group on three letters: irreps of dimensions (1, 1, 2)."""
    perms = _S3_PERMS
    index = {p: i for i, p in enumerate(perms)}
    order = len(perms)
    mult = np.zeros((order, order), dtype=int)
    for a, p in enumerate(perms):
        for b, q in enumerate(perms):
            mult[a, b] = index[tuple(p[q[x]] for x in range(3))]
    # from each permutation matrix: its determinant, the sign character, and its
    # restriction to the plane orthogonal to (1,1,1) in an orthonormal basis,
    # the standard 2-dim irrep as real orthogonal blocks
    basis = np.array(
        [
            [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(6.0)],
            [-1.0 / np.sqrt(2.0), 1.0 / np.sqrt(6.0)],
            [0.0, -2.0 / np.sqrt(6.0)],
        ]
    )
    sgn_vals = np.zeros((order, 1, 1), dtype=complex)
    std_mats = np.zeros((order, 2, 2), dtype=complex)
    for a, p in enumerate(perms):
        perm_mat = np.zeros((3, 3))
        for j in range(3):
            perm_mat[p[j], j] = 1.0
        sgn_vals[a] = np.linalg.det(perm_mat)   # exactly +-1: LU pivots a permutation
        std_mats[a] = basis.T @ perm_mat @ basis
    stacks = {"triv": np.ones((order, 1, 1)), "sgn": sgn_vals, "std": std_mats}
    return FiniteGroupTable(name="s3", mult=mult, stacks=stacks)


# ---------------------------------------------------------------------------
# the 2x2 special unitary group
# ---------------------------------------------------------------------------

def _su2_entry_stack(k: int, g00, g01, g10, g11) -> np.ndarray:
    """Irrep matrices of level k at a batch of group elements.

    Realized on homogeneous polynomials of degree k in two variables with the
    orthonormalized monomial basis; entries come from binomial expansion of
    the substituted linear forms.  Shapes: inputs (...), output (..., k+1, k+1).

    Entry (i, j) is sqrt((k-i)! i! / ((k-j)! j!)) times the sum over l of C(k-j, m) C(j, l)
    g00^m g10^(k-j-m) g01^l g11^(j-l), m = k-i-l.  Row i's terms are made together, multiplied
    in that order and summed by ascending l: numpy's complex products round by operand order.
    """
    g = np.array(np.broadcast_arrays(g00, g01, g10, g11), dtype=complex)
    base = g.shape[1:]
    if k == 0:
        return np.ones(base + (1, 1), dtype=complex)
    n = k + 1
    g = g.reshape(4, 1, -1)
    a, b, c, d = np.concatenate([g ** m for m in range(n)], axis=1)   # (k+1, elements) each
    c = c[::-1].copy()                  # c[k - t] = g10^t: each row reads one block
    coef = np.array([math.comb(k - l - t, k - i - l) * math.comb(l + t, l) for i in range(n)
                     for l in range(n - i) for t in range(i + 1)], dtype=complex)
    out = np.zeros((n, n, g.shape[-1]), dtype=complex)
    for i in range(n):
        size = (n - i) * (i + 1)
        term = coef[:size].reshape(n - i, i + 1, 1) * a[k - i::-1, None]
        coef = coef[size:]
        term *= c[k - i:]               # term[l, t] is the term (i, j = l + t)
        term *= b[:n - i, None]
        term *= d[:i + 1]
        for l in range(n - i):
            out[i, l:l + i + 1] += term[l]
    wt = [math.factorial(k - x) * math.factorial(x) for x in range(n)]
    out *= np.array([[math.sqrt(wt[x] / wt[y]) for y in range(n)] for x in range(n)])[..., None]
    return np.ascontiguousarray(out.reshape(n * n, -1).T).reshape(base + (n, n))


def _euler_exponents(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponents of e^{i phi1} and e^{i phi2} in rho_k(g)_{ij}, as (k+1, k+1) tables
    (see `SU2Quadrature.irrep_stack`)."""
    i, j = np.indices((k + 1, k + 1))
    return k - i - j, j - i


def _euler_assemble(rho0, e1, e2, phases, p1, p2) -> np.ndarray:
    """rho0 * (e^{i e1 phi1} e^{i e2 phi2}): irrep entries at Euler-product nodes.

    `rho0` holds polar-stack entries rho_k(g0(xi)), `e1` and `e2` their phase
    exponents (`_euler_exponents`) and `p1`, `p2` the indices of phi1, phi2 in
    `phases`, each shaped by the caller so that the five broadcast to the layout
    it wants; both factors are gathered from one table of e^{i e phi}.  The
    stacks, the ties of `_check_stacks` and the two factor routes all multiply
    here, in this one order, so the ties cover the arithmetic the routes run,
    and every route's entries are the stack's bit for bit.
    """
    lo = min(e1.min(), e2.min())
    table = np.exp(1j * np.multiply.outer(np.arange(lo, max(e1.max(), e2.max()) + 1), phases))
    return rho0 * (table[e1 - lo, p1] * table[e2 - lo, p2])


def _check_level(k) -> int:
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise KeyError(f"the SU(2) rule has no irrep labeled {k!r}")
    return int(k)


@dataclass(eq=False)
class SU2Quadrature(HaarRule):
    """Product Haar rule with a derived validity level, stored as its Euler factors.

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

    def _assemble(self, k: int, entries=np.s_[...], p2=None) -> np.ndarray:
        """The entries of rho_k that `entries` picks from a (k+1, k+1) table (all
        of them, a column, the diagonal) on the product grid, for the phases at
        the indices `p2` (default: all of `phases`): shape picked + (R, P, P').
        The picked axes lead, so each product runs over the nodes innermost."""
        rho0 = np.ascontiguousarray(self._polar_stack(k).transpose(1, 2, 0)[entries])
        e1, e2 = (e[entries][..., None, None, None] for e in _euler_exponents(k))
        p = np.arange(len(self.phases))
        return _euler_assemble(rho0[..., None, None], e1, e2, self.phases, p[:, None],
                               p if p2 is None else p2)

    def column(self, k: int, j: int) -> np.ndarray:
        """rho_k(g)_{mj} at (m, g) for every node g in node order, from the Euler factors."""
        return self._assemble(k, np.s_[:, j]).reshape(k + 1, -1)

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
        p = np.arange(len(self.phases))
        stack = _euler_assemble(self._polar_stack(k)[:, None, None], *_euler_exponents(k),
                                self.phases, p[:, None, None, None], p[:, None, None])
        return stack.reshape(-1, k + 1, k + 1)     # (R, P, P, n, n) in node order


def make_su2_quadrature(resolution: int = 10, validate_kmax: int = 6) -> SU2Quadrature:
    """Product Haar rule: Gauss-Legendre in the polar angle, uniform phases.

    Writing a group element as [[a, b], [-conj(b), conj(a)]] with
    a = cos(xi) e^{i phi1}, b = sin(xi) e^{i phi2}, the Haar measure is
    sin(xi) cos(xi) dxi dphi1 dphi2 / (2 pi^2); substituting t = cos(2 xi)
    turns the polar factor into a plain Legendre weight, so node (r, p1, p2)
    carries v_r / (2 P^2) for Legendre weight v_r and P phases.

    Exactness level.  With R polar angles and P phases, the rule reproduces
    the orthogonality relations of every level up to

        K = min(2R - 1, ceil(P/2) - 1),

    and `kmax_valid` is min(K, `validate_kmax`).  Entry (i, j) of
    rho_k(g0(xi)) is a combination of terms cos^alpha xi sin^beta xi with
    alpha + beta = k and beta = i - j + 2l, so beta = i - j (mod 2)
    (`_su2_entry_stack` at g0(xi)).  A Gram entry conj(rho_k(g)_{ij}) rho_l(g)_{st} carries the
    phase exponents a' - a and b' - b, with (a, b) = (k-i-j, j-i) and
    (a', b') = (l-s-t, t-s) (`SU2Quadrature.irrep_stack`).
    * Where both match, k - l = 2(i - s), and the sine powers add to
      i - j + s - t = 2(i - j) modulo 2: both total powers are even, so the
      polar factor is a polynomial in cos^2 xi = (1 + t)/2 and
      sin^2 xi = (1 - t)/2 of degree (k + l)/2 <= K.  Gauss-Legendre with R
      nodes integrates it exactly when K <= 2R - 1, and the phase sums are
      S(0) = 1.
    * Where one differs, its phase sum S(m) = (1/P) sum_p e^{i m phi_p} has
      0 < |m| <= k + l <= 2K, and on P uniform phases it vanishes for
      0 < |m| < P, that is when K <= ceil(P/2) - 1; Haar measure gives 0 too.
    K is sharp where it was measured: at every R = 4..18 the coefficient Gram
    first misses Schur orthogonality by more than SCHUR_QUAD_TOL at level K + 1.
    The build checks both premises on the arrays the rule stores
    (`_exact_level`), ties the assembly of levels 0..`kmax_valid` to the
    entry formula (`_check_stacks`) and makes `polar`, `ring_weights`,
    `phases` and `weights` read-only, so what was checked here holds for the
    rule's life.  It keeps the polar stacks the tie made, and no full irrep
    stack.  A non-finite or perturbed angle or ring weight, or an assembly
    off the formula, raises ValueError.
    """
    if resolution < 4:
        raise ValueError(f"resolution must be >= 4, got {resolution}")
    if validate_kmax < 0:
        raise ValueError(f"validate_kmax must be >= 0, got {validate_kmax}")
    t, v = np.polynomial.legendre.leggauss(resolution)
    n_phase = 2 * resolution + 8
    quad = SU2Quadrature(polar=0.5 * np.arccos(t), ring_weights=v / (2.0 * n_phase * n_phase),
                         phases=2.0 * np.pi * np.arange(n_phase) / n_phase, kmax_valid=-1)
    quad.kmax_valid = _exact_level(quad, validate_kmax)
    _check_stacks(quad)
    for array in (quad.polar, quad.ring_weights, quad.phases, quad.weights):
        array.flags.writeable = False
    return quad


def _exact_level(quad: SU2Quadrature, cap: int) -> int:
    """min(2R - 1, ceil(P/2) - 1, cap), the level `make_su2_quadrature` derives,
    after checking the two premises of its derivation on the rule's arrays.

    Polar: sum_r v_r t_r^m = int_{-1}^{1} t^m dt for m <= 2R - 1, with
    t_r = cos(2 `polar[r]`) and v_r = 2 P^2 `ring_weights[r]`.  Phases:
    S(m) = (1/P) sum_p e^{i m phi_p} is 1 at m = 0 and 0 for 0 < m <= 2K, from
    `phases` (S(-m) is conj(S(m))).  Each is off by at most SCHUR_QUAD_TOL or
    raises ValueError; a NaN fails the comparison, so a non-finite angle or
    weight is refused too.  Cost O(R^2 + P K).
    """
    n_polar, n_phase = len(quad.polar), len(quad.phases)
    level = min(2 * n_polar - 1, (n_phase + 1) // 2 - 1, cap)
    m = np.arange(2 * n_polar)
    legendre_weights = 2.0 * n_phase * n_phase * quad.ring_weights
    moments = np.cos(2.0 * quad.polar) ** m[:, None] @ legendre_weights
    err = float(np.max(np.abs(moments - (1.0 + (-1.0) ** m) / (m + 1))))  # int_{-1}^1 t^m dt
    if not err <= SCHUR_QUAD_TOL:
        raise ValueError(f"quadrature polar moments differ from the Legendre ones by {err!r}")
    sums = np.exp(1j * np.multiply.outer(np.arange(2 * level + 1), quad.phases)).mean(axis=1)
    sums[0] -= 1.0
    err = float(np.max(np.abs(sums)))
    if not err <= SCHUR_QUAD_TOL:
        raise ValueError(f"quadrature phase sums differ from the uniform ones by {err!r}")
    return level


def _check_stacks(quad: SU2Quadrature) -> None:
    """Raise ValueError unless the Euler assembly agrees with the entry formula.

    The premise check (`_exact_level`) cannot see an assembly fault: it reads
    the angles and weights, never an irrep entry, and a relabelled or re-phased
    orthonormal set is still orthonormal.  So the assembly of every level
    0..`kmax_valid` must match `_su2_entry_stack` to STACK_TIE_TOL on one ring
    of nodes per polar angle, the group elements taken from the angles.  On
    the ring at the r-th polar angle, phi1 runs over every phase and phi2 runs
    r + 1 steps ahead of it, so the two phase axes cannot trade places unseen.
    The tie runs `_euler_assemble`, the product every stack and factor route
    runs.
    """
    n_polar, n_phase = len(quad.polar), len(quad.phases)
    r, p1 = np.indices((n_polar, n_phase))
    p2 = (p1 + r + 1) % n_phase                                          # (R, P)
    a = np.cos(quad.polar)[:, None] * np.exp(1j * quad.phases[p1])
    b = np.sin(quad.polar)[:, None] * np.exp(1j * quad.phases[p2])
    for k in range(quad.kmax_valid + 1):    # phi1's factor is the same on every ring
        ring = _euler_assemble(quad._polar_stack(k)[:, None], *_euler_exponents(k),
                               quad.phases, p1[0, :, None, None], p2[..., None, None])
        err = float(np.max(np.abs(ring - _su2_entry_stack(k, a, b, -b.conj(), a.conj()))))
        if not err <= STACK_TIE_TOL:
            raise ValueError(f"level {k} stack differs from the entry formula by {err!r}")


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


def _series_l1(haar: HaarRule, f: FourierCoeffs, draw):
    """The chunk draw `l1(rng, take)` of the L1 norms of `take` series
    sum_pi s_pi tr(X_pi f_pi pi(g)), where `draw(rng, n)` gives (s, a stack of
    MC_CHUNK random n x n matrices X) of which the first `take` are used.

    tr(X f pi(g)) = sum_{m,i} (X f)^T_{mi} pi(g)_{mi}: per label, X f for the
    chunk as one (take n, n) @ (n, n) product, then one product of its
    transposes, flattened to (take, n^2), against the stack flattened to
    (nodes, n^2).  Each label's stack is made once per call, before the chunks.
    """
    stacks = {label: haar.irrep_stack(label).reshape(len(haar.weights), -1)
              for label in f.support}

    def l1(rng: np.random.Generator, take: int) -> np.ndarray:
        vals = np.zeros((take, len(haar.weights)), dtype=complex)
        for label, m in f.support.items():
            n = m.shape[0]
            scale, x = draw(rng, n)
            xm = (x[:take].reshape(take * n, n) @ m).reshape(take, n, n)
            xm_t = np.swapaxes(xm, 1, 2).reshape(take, -1)
            vals += scale * (xm_t @ stacks[label].T)
        return np.abs(vals) @ haar.weights
    return l1


def gaussian_series_l1_mean(
    f: FourierCoeffs, trials: int, seed: RngSeed, haar: HaarRule
) -> GaussianL1:
    """Monte Carlo E ||f_G||_{L1} for Gaussian-randomized coefficients.

    Each trial multiplies the coefficient at pi on the left by an independent
    normalized Gaussian matrix; the predicted value sqrt(2/pi) times the
    coefficient energy root is exact whenever the randomized series is a real
    Gaussian at every group point (real coefficient data in a real-matrix
    realization, or supports whose characters share a common phase pointwise).
    An empty family has every L1 norm 0, so mean and stderr 0.
    """
    predicted = float(np.sqrt(2.0 / np.pi) * np.sqrt(hilbert_schmidt_sq(f)))
    mean, stderr = sample_mean(trials, MC_CHUNK, seed, _series_l1(
        haar, f, lambda rng, n: (np.sqrt(n), rng.standard_normal((MC_CHUNK, n, n)))))
    return GaussianL1(mean=mean, stderr=stderr, predicted=predicted)


@dataclass(frozen=True)
class BoundCheck:
    side: str
    bound: float
    actual: float
    margin: float


def coefficient_bound_check(
    matrix, k: int, i: int, j: int, haar: SU2Quadrature, side: str, column=None
) -> BoundCheck:
    """Row-norm bounds for coefficient combinations on the classical group (Q = I).

    side="upper": the sup norm of sum_m A_{i,m} (u_{m,j})^* is at most the
    i-th row norm of A.  side="lower": the L1 norm of sum_m B_{i,m} u_{m,j}
    is at least the i-th row norm of B divided by the dimension.  Margins are
    signed so that nonnegative means the bound holds; quadrature error is
    allowed to push them slightly negative.  Levels above `haar.kmax_valid`
    are refused: the rule is not exact there.

    The column u_{.,j} is assembled at every node from the Euler factors
    (`SU2Quadrature.column`), in the product order of the stack, and the
    row is summed against it in sequence, as a matvec on the stack's column
    would: the values are the stack route's bit for bit, with no stack made.
    A GEMM of the polar column against the two phase tables would regroup
    the products and move last bits.  A caller checking several cases of one
    (k, j) may assemble `haar.column(k, j)` once and pass it as `column`.
    """
    if k > haar.kmax_valid:
        raise ValueError(f"level {k} exceeds the quadrature's derived validity level "
                         f"{haar.kmax_valid}")
    a = np.asarray(matrix, dtype=complex)
    n = k + 1
    if a.shape != (n, n):
        raise ValueError(f"matrix shape {a.shape}, expected ({n}, {n})")
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"indices ({i}, {j}) out of range for dimension {n}")
    if side not in ("upper", "lower"):
        raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")
    column = haar.column(k, j) if column is None else column  # u_{m,j} at each node
    if column.shape != (n, len(haar.weights)):
        raise ValueError(f"column shape {column.shape}, expected ({n}, {len(haar.weights)})")
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
        diagonal = haar._assemble(k, np.diag_indices(k + 1), p2=np.arange(1))
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
    values = np.stack([haar.coeff_values(x) for x in xs])  # (J, nodes)
    weights = haar.weights
    l1s = np.abs(values) @ weights
    denom = float(np.sqrt(np.sum(l1s * l1s)))
    if denom == 0.0:
        raise ValueError("all families are zero; the ratio is undefined")
    mean, stderr = sample_mean(trials, MC_CHUNK, seed, lambda rng, take: np.abs(
        rng.standard_normal((MC_CHUNK, len(xs)))[:take] @ values) @ weights)
    return CotypeRatio(ratio=mean / denom, stderr=stderr / denom)


@dataclass(frozen=True)
class L1Report:
    sup_l1_over_u: float
    ell2: float
    ratio: float


def randomized_l1_report(
    haar: HaarRule, f: FourierCoeffs, num_unitaries: int, seed: RngSeed
) -> L1Report:
    """Sup over `num_unitaries` >= 1 sampled unitary randomizers of ||f_U||_{L1},
    with the ell2 norm.

    No inequality between the two is asserted; the pair is reported for
    stability checks.
    """
    ell2 = ell2_norm(f)
    best = sample_max(num_unitaries, MC_CHUNK, seed, _series_l1(
        haar, f, lambda rng, n: (n, haar_unitary_stack(n, MC_CHUNK, rng))))
    ratio = best / ell2 if ell2 != 0.0 else 0.0  # a NaN ell2 gives a NaN ratio
    return L1Report(sup_l1_over_u=best, ell2=ell2, ratio=ratio)
