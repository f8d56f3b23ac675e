"""Fourier-coefficient families and the weighted ell^p calculus on the dual.

A coefficient family assigns to finitely many irreps alpha a complex
n_alpha x n_alpha matrix, written X_alpha below.  The three norms are

* ell_infty: sup_alpha ||X_alpha||            (operator norm per block)
* ell2:      (sum_alpha d_alpha tr(Q_alpha X_alpha^* X_alpha))^{1/2}
* ell1:      sum_alpha d_alpha tr|X_alpha Q_alpha|

together with the duality pairing sum_alpha d_alpha tr(X_alpha Q_alpha Y_alpha^*),
the dual-side convolution product, and an independent Gram-expansion route to
the ell2 norm (the Plancherel consistency check).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dual_data import DualDescriptor, _read_only


class DualMismatchError(ValueError):
    """Raised when two families (coefficients or matrices) live on different duals."""


def _checked_blocks(dual: DualDescriptor, blocks: dict, what: str) -> dict:
    """Read-only complex copies of `blocks`, each n x n for the irrep at its label."""
    clean = {}
    for label, mat in blocks.items():
        irrep = dual.irrep(label)  # KeyError if the label is unknown
        m = np.array(mat, dtype=complex)
        if m.shape != (irrep.n, irrep.n):
            raise ValueError(
                f"{what} at {label!r} has shape {m.shape}, expected ({irrep.n}, {irrep.n})"
            )
        clean[label] = _read_only(m)
    return clean


def _require_same_dual(a, b):
    if a.dual is not b.dual and a.dual.name != b.dual.name:
        raise DualMismatchError(f"duals differ: {a.dual.name!r} vs {b.dual.name!r}")


@dataclass(frozen=True, eq=False)
class FourierCoeffs:
    """Finitely supported family: irrep label -> complex n x n coefficient matrix."""

    dual: DualDescriptor
    support: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "support", _checked_blocks(self.dual, self.support, "coefficient"))

    def labels(self) -> list:
        return list(self.support.keys())

    def block(self, label) -> np.ndarray:
        """Coefficient at `label`; zero matrix if the label is outside the support."""
        if label in self.support:
            return self.support[label]
        irrep = self.dual.irrep(label)
        return np.zeros((irrep.n, irrep.n), dtype=complex)


def ell_infty_norm(x: FourierCoeffs) -> float:
    """sup over the support of the per-block operator (spectral) norms."""
    if not x.support:
        return 0.0
    return max(float(np.linalg.norm(m, 2)) for m in x.support.values())


def ell2_norm(x: FourierCoeffs) -> float:
    """Weighted Hilbert-Schmidt norm (sum_alpha d tr(Q X^* X))^{1/2}."""
    total = 0.0
    for label, m in x.support.items():
        irrep = x.dual.irrep(label)
        total += irrep.d * irrep.q_trace(m)
    return float(np.sqrt(total))


def ell1_norm(x: FourierCoeffs) -> float:
    """sum_alpha d tr|X Q|, the trace norms taken via singular values."""
    total = 0.0
    for label, m in x.support.items():
        irrep = x.dual.irrep(label)
        total += irrep.d * float(np.sum(np.linalg.svd(m * irrep.q_diag, compute_uv=False)))
    return total


def pairing(mu: FourierCoeffs, f: FourierCoeffs) -> complex:
    """Duality pairing sum_alpha d tr(mu_alpha Q f_alpha^*).

    Bilinear in `mu`, conjugate-linear in `f`; only the common support
    contributes.  pairing(f, f) equals ell2_norm(f)^2.
    """
    _require_same_dual(mu, f)
    acc = 0j
    for label, m in mu.support.items():
        if label not in f.support:
            continue
        irrep = mu.dual.irrep(label)
        acc += irrep.d * np.vdot(f.support[label], m * irrep.q_diag)
    return complex(acc)


def convolve(f1: FourierCoeffs, f2: FourierCoeffs) -> FourierCoeffs:
    """Dual-side convolution: block at alpha is f2_alpha @ f1_alpha.

    The product order is reversed relative to the written order of the
    factors; it is fixed by the coefficient convention mu(alpha)_{i,j} =
    mu((u_{j,i})^*) together with the comultiplication of matrix
    coefficients, and is cross-checked against brute-force group
    convolution on a concrete finite group in the test suite.
    """
    _require_same_dual(f1, f2)
    support = {}
    for label, m1 in f1.support.items():
        if label in f2.support:
            support[label] = f2.support[label] @ m1
    return FourierCoeffs(f1.dual, support)


def plancherel_gram_norm(f: FourierCoeffs) -> float:
    """L2 norm of the expanded series, via the matrix-coefficient Gram data.

    The element f = sum_alpha d_alpha tr(X_alpha Q_alpha u^alpha) is expanded
    into individual matrix coefficients u_{j,i} with scalar weights
    C[i, j] = d_alpha (X_alpha Q_alpha)_{i,j}.  The u_{j,i} are orthogonal with
    <u_{j,i}, u_{j,i}> = (Q^{-1})_{j,j} / d, the row weight of
    `IrrepData.gram_weights` at j, so ||f||^2 is the sum of
    |C[i, j]|^2 (Q^{-1})_{j,j} / d: C's last axis runs along that row weight.

    This is an independent evaluation route; it must agree with ell2_norm.
    Cross-irrep contributions vanish by orthogonality and are not summed.
    """
    total = 0.0
    for label, x in f.support.items():
        irrep = f.dual.irrep(label)
        coeff = irrep.d * (x * irrep.q_diag)  # coeff[i, j] multiplies u_{j,i}
        total += np.sum((coeff.real**2 + coeff.imag**2) * irrep.gram_weights[0])
    return float(np.sqrt(total))
