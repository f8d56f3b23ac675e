"""Exact Gram data of matrix coefficients and the operators built on it.

Everything here rests on the two orthogonality relations for the Haar state
(diagonal Q):

    h((u_{s,t})^* u_{i,j}) = delta_{i,s} delta_{j,t} (Q^{-1})_{i,i} / d
    h(u_{s,t} (u_{i,j})^*) = delta_{i,s} delta_{j,t} (Q)_{j,j} / d

which make {u_{i,j}} and {(u_{i,j})^*} orthogonal bases of each block of L2
with explicit diagonal Gram weights.  On top of these: the block norm of the
coefficient-multiplier operator, a two-route evaluation of a Haar-state
pairing identity, trace-norm duality against unitaries, and central
(character-type) coefficient families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual_data import DualDescriptor, IrrepData
from .fourier_core import FourierCoeffs, _require_same_dual, ell2_norm
from .random_series import MatrixFamily, RngSeed, haar_unitary_stack, iter_chunks, matrices_per_chunk


@dataclass(frozen=True, eq=False)
class BlockGram:
    """Diagonal Gram weights of one block: basis {u_{i,j}} and basis {(u_{i,j})^*}."""

    irrep: IrrepData
    gram_u: np.ndarray      # weight of u_{i,j} at (i, j): (Q^{-1})_{i,i} / d
    gram_ustar: np.ndarray  # weight of (u_{i,j})^* at (i, j): (Q)_{j,j} / d


def block_gram(irrep: IrrepData) -> BlockGram:
    n, d = irrep.n, irrep.d
    qinv_diag = 1.0 / irrep.q_diag
    gram_u = np.repeat(qinv_diag[:, None], n, axis=1) / d
    gram_ustar = np.repeat(irrep.q_diag[None, :], n, axis=0) / d
    if not (np.all(gram_u > 0) and np.all(gram_ustar > 0)):
        raise ValueError("gram weights must be strictly positive")
    return BlockGram(irrep=irrep, gram_u=gram_u, gram_ustar=gram_ustar)


def schur_inner(irrep: IrrepData, ij: tuple[int, int], st: tuple[int, int]) -> complex:
    """Haar inner product <u_{i,j}, u_{s,t}> = h((u_{s,t})^* u_{i,j})."""
    i, j = ij
    s, t = st
    n = irrep.n
    for idx in (i, j, s, t):
        if not (0 <= idx < n):
            raise IndexError(f"index {idx} out of range for dimension {n}")
    if i != s or j != t:
        return 0j
    return complex((1.0 / irrep.q_diag[i]) / irrep.d)


def multiplier_block_norm(b, irrep: IrrepData) -> float:
    """Exact L2 operator norm of u_{j,i} |-> sum_p (Q^{-1})_{j,j} (u_{p,j})^* B_{p,i}
    on one block.

    Input basis {u_{j,i}} and output basis {(u_{p,j})^*} are orthogonal with
    diagonal Gram weights (Q^{-1})_{j,j}/d and (Q)_{j,j}/d, so the norm is the
    largest singular value of D2^{1/2} M D1^{-1/2}, where M is the coefficient
    matrix of the map and D1, D2 the Gram diagonals.  The weights cancel the
    factor (Q^{-1})_{j,j}, which leaves a matrix that is block diagonal in j
    with every block equal to B: the norm is ||B||.
    """
    b = np.asarray(b, dtype=complex)
    n = irrep.n
    if b.shape != (n, n):
        raise ValueError(f"multiplier block has shape {b.shape}, expected ({n}, {n})")
    return float(np.linalg.norm(b, 2))


@dataclass(frozen=True)
class PairingIdentity:
    lhs: complex
    rhs: complex
    deviation: float


def haar_state_pairing_check(f: FourierCoeffs, family: MatrixFamily) -> PairingIdentity:
    """Two-route evaluation of h(x) for x = sum d (XQ)_{i,j} (Q^{-1})_{k,k} B_{p,i}
    u_{j,k} (u_{p,k})^*.

    Route one applies the Haar inner products term by term; route two is the
    closed form sum_alpha n_alpha tr(X_alpha Q_alpha B_alpha).  Pure algebra:
    the deviation is floating-point noise only.
    """
    _require_same_dual(f, family)
    lhs = 0j
    rhs = 0j
    for label, x in f.support.items():
        if label not in family.entries:
            continue
        irrep = f.dual.irrep(label)
        n, d = irrep.n, irrep.d
        q = irrep.q_diag
        bm = family.entries[label]
        xq = x * q
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for p in range(n):
                        # h(u_{j,k} (u_{p,k})^*) = delta_{j,p} q_k / d
                        hval = (q[k] / d) if j == p else 0.0
                        if hval != 0.0:
                            lhs += d * xq[i, j] * (1.0 / q[k]) * bm[p, i] * hval
        rhs += n * np.trace(xq @ bm)
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
        best = max(best, float(np.max(vals)))
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
