"""Discrete-dual descriptors: irreducible-representation data for built-in duals.

A compact quantum group enters this toolkit only through its discrete dual:
a finite (truncated) list of irreducible-representation entries.  An entry is
its label and the diagonal of a positive deformation matrix ``Q`` (``q_diag``),
and two numbers are read off it: the classical dimension ``n``, its length,
and the quantum dimension ``d = tr(Q) = tr(Q^{-1})``.

The Kac case is ``Q = I`` for every entry, where ``d = n``.  Built-in
constructors cover the trivial dual, the rank-one special unitary group, its
q-deformation, and the free orthogonal family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

#: Relative tolerance for the trace identity sum(q) == sum(1/q), and the
#: tolerance on q = 1 for the trivial first irrep.
TRACE_TOL = 1e-12
KAC_TOL = 1e-12

#: Largest squared suq2 weight d_k q^{-k} accepted; 1.8e8 of range left for draws and sums.
WEIGHT_SQ_LIMIT = 1e300


def _read_only(array: np.ndarray) -> np.ndarray:
    """`array`, its writeable flag cleared."""
    array.flags.writeable = False
    return array


class DualValidationError(ValueError):
    """Raised when irrep or dual data violates a structural invariant."""


@dataclass(frozen=True, eq=False)
class IrrepData:
    """One irreducible representation: its label and Q diagonal, off which `n` and `d` are read."""

    label: str | int
    q_diag: np.ndarray
    n: int = field(init=False)
    d: float = field(init=False)

    def __post_init__(self):
        q = _read_only(np.asarray(self.q_diag, dtype=float))
        object.__setattr__(self, "q_diag", q)
        if q.ndim != 1 or q.size < 1:
            raise DualValidationError(f"irrep {self.label!r}: q_diag has shape {q.shape}, "
                                      "expected a non-empty vector")
        object.__setattr__(self, "n", q.size)
        if not np.all(q > 0):
            raise DualValidationError(f"irrep {self.label!r}: q_diag entries must be > 0")
        if not np.all(np.isfinite(q)):
            raise DualValidationError(f"irrep {self.label!r}: q_diag entries must be finite")
        d = float(np.sum(q))
        if not np.isfinite(d):
            raise DualValidationError(f"irrep {self.label!r}: quantum dimension {d!r} is not finite")
        d_inv = float(np.sum(1.0 / q))
        # written so that a NaN or inf side fails the comparison
        if not (abs(d - d_inv) <= TRACE_TOL * d):
            raise DualValidationError(
                f"irrep {self.label!r}: sum(q)={d!r} != sum(1/q)={d_inv!r}"
            )
        object.__setattr__(self, "d", d)

    def q_trace(self, x: np.ndarray) -> float:
        """tr(Q X^* X) = sum_i q_i ||X[:, i]||^2, with Q applied by broadcasting."""
        return float((x.real**2 + x.imag**2).sum(axis=0) @ self.q_diag)

    @cached_property
    def gram_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Haar-state Gram weights of the block, from the orthogonality relations

            h((u_{s,t})^* u_{i,j}) = delta_{i,s} delta_{j,t} (Q^{-1})_{i,i} / d
            h(u_{s,t} (u_{i,j})^*) = delta_{i,s} delta_{j,t} (Q)_{j,j} / d

        (Woronowicz, Comm. Math. Phys. 111, 1987): the weight of u_{i,j},
        indexed by the row i, and that of (u_{i,j})^*, indexed by the column j.
        The only place in the package that writes them.  Built on the first
        read, read-only, and kept with the irrep, so they live as long as it does.
        """
        gram_u = (1.0 / self.q_diag) / self.d
        gram_ustar = self.q_diag / self.d
        if not (np.all(gram_u > 0) and np.all(gram_ustar > 0)):
            raise ValueError("gram weights must be strictly positive")
        return _read_only(gram_u), _read_only(gram_ustar)


@dataclass(frozen=True, eq=False)
class DualDescriptor:
    """An ordered, finitely truncated discrete dual.

    Labels are unique and the first entry is the trivial irrep
    (``n = 1``, ``q_diag = (1,)``).
    """

    name: str
    irreps: tuple[IrrepData, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "irreps", tuple(self.irreps))
        if not self.irreps:
            raise DualValidationError("a dual needs at least the trivial irrep")
        labels = [ir.label for ir in self.irreps]
        if len(set(labels)) != len(labels):
            raise DualValidationError(f"duplicate irrep labels in dual {self.name!r}")
        first = self.irreps[0]
        if first.n != 1 or abs(first.q_diag[0] - 1.0) > KAC_TOL:
            raise DualValidationError(
                f"dual {self.name!r}: the first irrep must be trivial (n=1, q=(1,))"
            )
        object.__setattr__(self, "_index", {ir.label: ir for ir in self.irreps})

    def irrep(self, label) -> IrrepData:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"dual {self.name!r} has no irrep labeled {label!r}") from None

    def labels(self) -> list:
        return [ir.label for ir in self.irreps]


def make_trivial_dual() -> DualDescriptor:
    """The one-irrep dual: a single trivial representation."""
    return DualDescriptor("trivial", (IrrepData(label=0, q_diag=np.ones(1)),))


def make_su2_dual(kmax: int) -> DualDescriptor:
    """Classical rank-one dual truncated at level `kmax`: n_k = k+1, Q = I."""
    if kmax < 0:
        raise DualValidationError(f"kmax must be >= 0, got {kmax}")
    irreps = tuple(IrrepData(label=k, q_diag=np.ones(k + 1)) for k in range(kmax + 1))
    return DualDescriptor(f"su2(kmax={kmax})", irreps)


def make_suq2_dual(q: float, kmax: int) -> DualDescriptor:
    """q-deformed rank-one dual for 0 < q < 1, truncated at level `kmax`.

    Level k has n_k = k+1 and Q_k = diag(q^{k-2i}), i = 0..k, exponents in
    descending order; the quantum dimension is the two-sided geometric sum
    d_k = q^{-k} + q^{-k+2} + ... + q^k.
    """
    if not (0.0 < q < 1.0):
        raise DualValidationError(f"q must lie in (0, 1), got {q}")
    if kmax < 0:
        raise DualValidationError(f"kmax must be >= 0, got {kmax}")
    irreps = []
    for k in range(kmax + 1):
        exponents = k - 2 * np.arange(k + 1)
        irreps.append(IrrepData(label=k, q_diag=np.power(q, exponents.astype(float))))
    return DualDescriptor(f"suq2(q={q!r},kmax={kmax})", tuple(irreps))


def suq2_kmax_limit(q: float) -> int:
    """Largest kmax at which the routes weighting suq2 coefficients stay in float
    range at `q`.  An entry x of level k is weighted by d_k q_i, at most
    w_k = d_k q^{-k} = q^{-2k} (1 - q^{2k+2}) / (1 - q^2) < q^{-2k} / (1 - q^2):
    `ell2_norm` and `pairing` add d_k q_i |x|^2, the corollary chain d_k t_k / n_k
    with t_k = sum_i q_i gamma_i, and `plancherel_gram_norm` squares d_k q_i x.
    So w_k^2 bounds every weight they form, and the limit is the largest k with
    (q^{-2k} / (1 - q^2))^2 <= `WEIGHT_SQ_LIMIT`: 74, 143, 248 at q = 0.1, 0.3, 0.5."""
    if not (0.0 < q < 1.0):
        raise DualValidationError(f"q must lie in (0, 1), got {q}")
    return int((np.log(WEIGHT_SQ_LIMIT) / 2 + np.log1p(-q * q)) / (-2.0 * np.log(q)))


def onplus_dims(N: int, kmax: int) -> list[int]:
    """Dimension sequence of the free orthogonal dual, in exact integer arithmetic.

    n_0 = 1, n_1 = N, n_{k+1} = N*n_k - n_{k-1} (Chebyshev-type recursion).
    """
    if N < 2:
        raise DualValidationError(f"N must be >= 2, got {N}")
    if kmax < 0:
        raise DualValidationError(f"kmax must be >= 0, got {kmax}")
    dims = [1]
    if kmax >= 1:
        dims.append(N)
    for _ in range(2, kmax + 1):
        dims.append(N * dims[-1] - dims[-2])
    return dims


def make_onplus_dual(N: int, kmax: int) -> DualDescriptor:
    """Free orthogonal dual at parameter N >= 2 (Kac: Q = I, d = n)."""
    dims = onplus_dims(N, kmax)
    irreps = tuple(IrrepData(label=k, q_diag=np.ones(nk)) for k, nk in enumerate(dims))
    return DualDescriptor(f"onplus(N={N},kmax={kmax})", irreps)
