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

import numpy as np

#: Relative tolerance for the trace identity sum(q) == sum(1/q), and the
#: tolerance on q = 1 for the trivial first irrep.
TRACE_TOL = 1e-12
KAC_TOL = 1e-12


class DualValidationError(ValueError):
    """Raised when irrep or dual data violates a structural invariant."""


@dataclass(frozen=True, eq=False)
class IrrepData:
    """One irreducible representation: its label and Q diagonal, off which `n` and `d` are read."""

    label: str | int
    q_diag: np.ndarray
    n: int = field(init=False)
    d: float = field(init=False)
    # the weights `block_gram` built for this irrep, kept here so that they
    # live exactly as long as the irrep (and its dual) does; they hold no
    # reference back, so reference counting frees them
    _gram: BlockGram | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        q = np.asarray(self.q_diag, dtype=float)
        q.flags.writeable = False
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


@dataclass(frozen=True, eq=False)
class BlockGram:
    """Diagonal Gram weights of one block: basis {u_{i,j}} and basis {(u_{i,j})^*}."""

    gram_u: np.ndarray      # weight of u_{i,j} at (i, j): (Q^{-1})_{i,i} / d
    gram_ustar: np.ndarray  # weight of (u_{i,j})^* at (i, j): (Q)_{j,j} / d


def block_gram(irrep: IrrepData) -> BlockGram:
    """Haar-state Gram weights of one block, from the orthogonality relations

        h((u_{s,t})^* u_{i,j}) = delta_{i,s} delta_{j,t} (Q^{-1})_{i,i} / d
        h(u_{s,t} (u_{i,j})^*) = delta_{i,s} delta_{j,t} (Q)_{j,j} / d

    (Woronowicz, Comm. Math. Phys. 111, 1987).  The only place in the
    package that writes these weights.  They are built on the first call for
    `irrep`, stored on it read-only, and the same object is returned after.
    """
    if irrep._gram is not None:
        return irrep._gram
    n, d = irrep.n, irrep.d
    qinv_diag = 1.0 / irrep.q_diag
    gram_u = np.repeat(qinv_diag[:, None], n, axis=1) / d
    gram_ustar = np.repeat(irrep.q_diag[None, :], n, axis=0) / d
    if not (np.all(gram_u > 0) and np.all(gram_ustar > 0)):
        raise ValueError("gram weights must be strictly positive")
    gram_u.flags.writeable = False
    gram_ustar.flags.writeable = False
    gram = BlockGram(gram_u=gram_u, gram_ustar=gram_ustar)
    object.__setattr__(irrep, "_gram", gram)
    return gram


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
