"""Operators built on the Gram data of matrix coefficients.

The Haar-state orthogonality relations make {u_{i,j}} and {(u_{i,j})^*}
orthogonal bases of each block of L2, with the diagonal Gram weights of
`dual_data.block_gram`.  On top of these: the block norm of the
coefficient-multiplier operator, a two-route evaluation of a Haar-state
pairing identity, trace-norm duality against unitaries, and central
(character-type) coefficient families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual_data import DualDescriptor, IrrepData, block_gram
from .fourier_core import FourierCoeffs, _require_same_dual, ell2_norm
from .random_series import RngSeed, haar_unitary_stack, iter_chunks, matrices_per_chunk


def multiplier_block_norm(b, irrep: IrrepData) -> float:
    """Exact L2 operator norm of u_{j,i} |-> sum_p (Q^{-1})_{j,j} (u_{p,j})^* B_{p,i}
    on one block.

    Input basis {u_{j,i}} and output basis {(u_{p,j})^*} are orthogonal with
    diagonal Gram weights (Q^{-1})_{j,j}/d and (Q)_{j,j}/d, so the norm is the
    largest singular value of D2^{1/2} M D1^{-1/2}, where M is the coefficient
    matrix of the map and D1, D2 the Gram diagonals.  The weights cancel the
    factor (Q^{-1})_{j,j}, which leaves a matrix that is block diagonal in j
    with every block equal to B: the norm is ||B||.

    `b` is one (n, n) block or a stack (..., n, n); the norms come back with
    shape (...), so one block gives a numpy float64, which is a float.
    """
    b = np.asarray(b, dtype=complex)
    n = irrep.n
    if b.shape[-2:] != (n, n):
        raise ValueError(f"multiplier block has shape {b.shape}, expected (..., {n}, {n})")
    return np.linalg.norm(b, 2, axis=(-2, -1))


@dataclass(frozen=True)
class PairingIdentity:
    lhs: complex
    rhs: complex
    deviation: float


def haar_state_pairing_check(f: FourierCoeffs, family: FourierCoeffs) -> PairingIdentity:
    """Two-route evaluation of h(x) for x = sum d (XQ)_{i,j} (Q^{-1})_{k,k} B_{p,i}
    u_{j,k} (u_{p,k})^*.

    Route one contracts the terms against the Haar-state Gram weights of
    `block_gram`; route two is the closed form
    sum_alpha n_alpha tr(X_alpha Q_alpha B_alpha).  Pure algebra: the
    deviation is floating-point noise only.
    """
    _require_same_dual(f, family)
    lhs = 0j
    rhs = 0j
    for label, x in f.support.items():
        if label not in family.support:
            continue
        irrep = f.dual.irrep(label)
        q = irrep.q_diag
        bm = family.support[label]
        xq = x * q
        # h(u_{j,k} (u_{p,k})^*) = delta_{j,p} gram_ustar[p, k]: fold p into j
        gram_ustar = block_gram(irrep).gram_ustar
        lhs += irrep.d * np.einsum("ij,ji,jk,k->", xq, bm, gram_ustar, 1.0 / q)
        rhs += irrep.n * np.trace(xq @ bm)
    deviation = abs(lhs - rhs)
    return PairingIdentity(lhs=complex(lhs), rhs=complex(rhs), deviation=float(deviation))


@dataclass(frozen=True)
class TraceDuality:
    exact: float
    aligned: float
    random_sup: float


def trace_norm_duality(a, trials: int, seed: RngSeed) -> TraceDuality:
    """Trace norm of A three ways: singular values, the aligned unitary
    Re tr(U0 A) with U0 = V U^* from the SVD A = U S V^*, and the best of
    `trials` Haar unitaries.  The random supremum can never exceed tr|A|.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    u, s, vh = np.linalg.svd(a)
    exact = float(np.sum(s))
    u0 = vh.conj().T @ u.conj().T  # full SVD factors cover rank-deficient A
    aligned = float(np.trace(u0 @ a).real)
    best = -np.inf
    chunk = matrices_per_chunk(n)
    for index, take in iter_chunks(trials, chunk):
        w = haar_unitary_stack(n, chunk, seed.chunk_generator(index))[:take]
        vals = np.einsum("tij,ji->t", w, a).real
        best = float(np.maximum(best, np.max(vals)))  # a NaN value is kept
    return TraceDuality(exact=exact, aligned=aligned, random_sup=best)


def central_coeffs(c, dual: DualDescriptor) -> FourierCoeffs:
    """Central coefficient family: block at the k-th irrep is (c_k / d) Q^{-1}.

    These are the coefficient families of character combinations; `c` maps
    positionally onto the first len(c) irreps of the dual.
    """
    c = np.asarray(c, dtype=complex)
    if c.ndim != 1 or len(c) > len(dual.irreps):
        raise ValueError(
            f"need a vector with at most {len(dual.irreps)} entries, got shape {c.shape}"
        )
    support = {}
    for coeff, irrep in zip(c, dual.irreps):
        support[irrep.label] = (coeff / irrep.d) * np.diag(1.0 / irrep.q_diag)
    return FourierCoeffs(dual, support)


@dataclass(frozen=True)
class CentralSum:
    ell2_sq: float
    sum_c_sq: float
    deviation: float


def central_sum_check(c, dual: DualDescriptor) -> CentralSum:
    """ell2(central family)^2 against sum |c_k|^2; equal up to rounding."""
    c = np.asarray(c, dtype=complex)
    ell2_sq = ell2_norm(central_coeffs(c, dual)) ** 2
    sum_c_sq = float(np.sum(np.abs(c) ** 2))
    return CentralSum(ell2_sq=ell2_sq, sum_c_sq=sum_c_sq, deviation=abs(ell2_sq - sum_c_sq))
