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
    """The chain of `suq2_chain_checks` at one eps."""
    return suq2_chain_checks(q, (eps,), f)[0]


def _ordered_sum(terms: np.ndarray) -> float:
    # left to right, one term at a time, as a loop over the levels adds them;
    # np.sum would add pairwise and round differently
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


def suq2_chain_checks(q: float, epsilons, f: FourierCoeffs) -> list[ChainCheck]:
    """Geometric-series bound chain on the q-deformed rank-one dual, one
    `ChainCheck` per eps in `epsilons`, in that order.

    With t_k = tr(Q_k X_k^* X_k) >= 0 the chain is

        lhs = sum_k d_k^{1-eps} t_k
            = sum_k ((k+1)/d_k^eps) (d_k/(k+1)) t_k      (exact rewrite)
           <= sum_k (k+1) q^{eps k} (d_k/(k+1)) t_k      (d_k >= q^{-k})
           <= (1/(1-q^eps)^2) sum_k (d_k/(k+1)) t_k = rhs

    because (k+1) x^k <= sum_m (m+1) x^m = 1/(1-x)^2 at x = q^eps < 1.
    `termwise_ok` confirms both displayed inequalities term by term; powers
    of d_k go through the log domain, and a level where d_k^{1-eps} would
    pass `OVERFLOW_GUARD` raises an OverflowError.

    The level data k, n_k, d_k and t_k (from `IrrepData.q_trace`) are read
    once per family and shared by every eps; the checks are array operations
    over the levels.  lhs and the tail sum are added left to right in the
    order of `f.support`, and the scalar powers are taken with `math.log`,
    `math.exp` and `**` on each level, so each value is bit-identical to a
    level-by-level loop.  An empty support gives (0.0, 0.0, True).
    """
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must lie in (0, 1), got {q}")
    for eps in epsilons:
        if eps <= 0.0:
            raise ValueError(f"eps must be > 0, got {eps}")
    irreps = [f.dual.irrep(label) for label in f.support]
    k = np.array([int(label) for label in f.support], dtype=float)
    n = np.array([irrep.n for irrep in irreps], dtype=float)
    d = np.array([irrep.d for irrep in irreps])
    t = np.array([irrep.q_trace(m) for irrep, m in zip(irreps, f.support.values())])
    log_d = np.array([math.log(d_k) for d_k in d.tolist()])
    # overflow to inf and inf * 0 to NaN silently, as the Python floats of a loop do
    with np.errstate(over="ignore", invalid="ignore"):
        ratio_term = d / n * t
        tail = _ordered_sum(ratio_term)
        # first displayed inequality: d_k >= q^{-k}, hence d_k^{-eps} <= q^{eps k}
        growth_ok = not np.any(d < np.power(q, -k))
        checks = []
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
            termwise_ok = (
                growth_ok
                # second: the k-th coefficient never exceeds the full geometric sum
                and not np.any(coeff > geom * (1.0 + 1e-12))
                # and the combined per-term comparison
                and not np.any(lhs_terms > coeff * ratio_term * (1.0 + 1e-12) + 1e-300)
            )
            checks.append(ChainCheck(lhs=_ordered_sum(lhs_terms), rhs=geom * tail,
                                     termwise_ok=termwise_ok))
    return checks


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
