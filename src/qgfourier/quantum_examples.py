"""q-deformed rank-one arithmetic: dimension growth and series bound chains."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dual_data import DualDescriptor
from .fourier_core import FourierCoeffs

#: Magnitude guard for large powers of the quantum dimension.
OVERFLOW_GUARD = 1e280


def nonkac_quantity(f: FourierCoeffs) -> float:
    """sum over the support of (d/n) tr(Q X^* X).

    On a Kac dual (d = n) this is exactly ell2_norm(f)^2.
    """
    total = 0.0
    for label, m in f.support.items():
        irrep = f.dual.irrep(label)
        total += (irrep.d / irrep.n) * irrep.q_trace(m)
    return total


@dataclass(frozen=True)
class ChainCheck:
    lhs: float
    rhs: float
    termwise_ok: bool


def suq2_chain_check(q: float, eps: float, f: FourierCoeffs) -> ChainCheck:
    """The chain of `suq2_chain_table` at one eps for one family, with
    t_k = `IrrepData.q_trace` of each block, in the order of `f.support`.
    An empty support gives (0.0, 0.0, True)."""
    irreps = [f.dual.irrep(label) for label in f.support]
    t = np.array([[irrep.q_trace(m) for irrep, m in zip(irreps, f.support.values())]])
    lhs, rhs, ok = suq2_chain_table(q, (eps,), irreps, t)
    return ChainCheck(lhs=float(lhs[0, 0]), rhs=float(rhs[0, 0]), termwise_ok=bool(ok[0, 0]))


def _ordered_sums(terms: np.ndarray) -> np.ndarray:
    # each row left to right, one term at a time, as a loop over the levels
    # adds them; np.sum would add pairwise and round differently
    return np.cumsum(terms, axis=1)[:, -1] if terms.shape[1] else np.zeros(len(terms))


def suq2_chain_table(q: float, epsilons, irreps, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Geometric-series bound chain on the q-deformed rank-one dual for a
    table `t` of shape (families, levels), column j at the level of
    `irreps[j]` (its label is k).  Returns (lhs, rhs, termwise_ok), each of
    shape (len(epsilons), families): row e holds the chain at `epsilons[e]`.

    With t_k = tr(Q_k X_k^* X_k) >= 0 the chain is

        lhs = sum_k d_k^{1-eps} t_k
            = sum_k ((k+1)/d_k^eps) (d_k/(k+1)) t_k      (exact rewrite)
           <= sum_k (k+1) q^{eps k} (d_k/(k+1)) t_k      (d_k >= q^{-k})
           <= (1/(1-q^eps)^2) sum_k (d_k/(k+1)) t_k = rhs

    because (k+1) x^k <= sum_m (m+1) x^m = 1/(1-x)^2 at x = q^eps < 1.
    `termwise_ok` confirms both displayed inequalities term by term; powers
    of d_k go through the log domain, and a level where d_k^{1-eps} would
    pass `OVERFLOW_GUARD` raises an OverflowError.

    The terms that do not depend on t (d_k^{1-eps}, q^{eps k}, the geometric
    constant and the d_k >= q^{-k} test) are taken once per call, with
    `math.log`, `math.exp` and `**` on each level; lhs and the tail sum are
    added left to right along each row, so each row is bit-identical to a
    level-by-level loop over that family.  Overflow gives inf and inf * 0
    NaN, silently, as the Python floats of such a loop do.
    """
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must lie in (0, 1), got {q}")
    for eps in epsilons:
        if eps <= 0.0:
            raise ValueError(f"eps must be > 0, got {eps}")
    t = np.asarray(t, dtype=float)
    if t.ndim != 2 or t.shape[1] != len(irreps):
        raise ValueError(f"need a (families, {len(irreps)}) table of traces, got shape {t.shape}")
    k = np.array([int(irrep.label) for irrep in irreps], dtype=float)
    n = np.array([irrep.n for irrep in irreps], dtype=float)
    d = np.array([irrep.d for irrep in irreps])
    log_d = np.array([math.log(d_k) for d_k in d.tolist()])
    with np.errstate(over="ignore", invalid="ignore"):
        ratio_term = d / n * t
        tail = _ordered_sums(ratio_term)
        # first displayed inequality: d_k >= q^{-k}, hence d_k^{-eps} <= q^{eps k}
        growth_ok = not np.any(d < np.power(q, -k))
        lhs, rhs, termwise_ok = [], [], []
        for eps in epsilons:
            geom = 1.0 / (1.0 - q**eps) ** 2
            log_pow = (1.0 - eps) * log_d
            over = np.flatnonzero(log_pow > math.log(OVERFLOW_GUARD))
            if over.size:
                raise OverflowError(
                    f"d_k^(1-eps) at k={int(k[over[0]])} exceeds the {OVERFLOW_GUARD:g} guard"
                )
            d_pow = np.array([math.exp(x) for x in log_pow.tolist()])
            coeff = (k + 1) * np.array([q**x for x in (eps * k).tolist()])
            lhs_terms = d_pow * t
            # second: the k-th coefficient never exceeds the full geometric sum
            levels_ok = growth_ok and not np.any(coeff > geom * (1.0 + 1e-12))
            # and the combined per-term comparison, family by family
            within = ~np.any(lhs_terms > coeff * ratio_term * (1.0 + 1e-12) + 1e-300, axis=1)
            lhs.append(_ordered_sums(lhs_terms))
            rhs.append(geom * tail)
            termwise_ok.append(within & levels_ok)
    shape = (len(epsilons), len(t))
    return (np.array(lhs).reshape(shape), np.array(rhs).reshape(shape),
            np.array(termwise_ok, dtype=bool).reshape(shape))


@dataclass(frozen=True)
class GrowthRow:
    k: int
    n: int
    d: float
    ratio: float


def growth_report(dual: DualDescriptor, q: float | None = None) -> list[GrowthRow]:
    """Per-level table (k, n_k, d_k, d_k/n_k) for a dual.

    When `q` is supplied (a deformation parameter in (0,1)), the lower bound
    d_k >= q^{-k} is asserted exactly for every level.
    """
    rows = []
    for k, irrep in enumerate(dual.irreps):
        d = irrep.d
        if q is not None:
            if not (0.0 < q < 1.0):
                raise ValueError(f"q must lie in (0, 1), got {q}")
            if d < float(np.power(q, float(-k))):
                raise AssertionError(f"growth bound failed at k={k}: d={d!r} < q^-k")
        rows.append(GrowthRow(k=k, n=irrep.n, d=d, ratio=d / irrep.n))
    return rows
