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
    """Geometric-series bound chain on the q-deformed rank-one dual.

    With t_k = tr(Q_k X_k^* X_k) >= 0 the chain is

        lhs = sum_k d_k^{1-eps} t_k
            = sum_k ((k+1)/d_k^eps) (d_k/(k+1)) t_k      (exact rewrite)
           <= sum_k (k+1) q^{eps k} (d_k/(k+1)) t_k      (d_k >= q^{-k})
           <= (1/(1-q^eps)^2) sum_k (d_k/(k+1)) t_k = rhs

    because (k+1) x^k <= sum_m (m+1) x^m = 1/(1-x)^2 at x = q^eps < 1.
    `termwise_ok` confirms both displayed inequalities term by term; powers
    of d_k go through the log domain with an overflow guard.
    """
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must lie in (0, 1), got {q}")
    if eps <= 0.0:
        raise ValueError(f"eps must be > 0, got {eps}")
    geom = 1.0 / (1.0 - q**eps) ** 2
    lhs = 0.0
    tail = 0.0
    termwise_ok = True
    for label, m in f.support.items():
        k = int(label)
        irrep = f.dual.irrep(label)
        t_k = irrep.q_trace(m)
        d_k = irrep.d
        log_pow = (1.0 - eps) * math.log(d_k)
        if log_pow > math.log(OVERFLOW_GUARD):
            raise OverflowError(
                f"d_k^(1-eps) at k={k} exceeds the {OVERFLOW_GUARD:g} guard"
            )
        d_pow = math.exp(log_pow)
        lhs += d_pow * t_k
        ratio_term = (d_k / irrep.n) * t_k
        tail += ratio_term
        # first displayed inequality: d_k >= q^{-k}, hence d_k^{-eps} <= q^{eps k}
        if d_k < float(np.power(q, float(-k))):
            termwise_ok = False
        # second: the k-th coefficient never exceeds the full geometric sum
        if (k + 1) * q ** (eps * k) > geom * (1.0 + 1e-12):
            termwise_ok = False
        # and the combined per-term comparison
        if d_pow * t_k > (k + 1) * q ** (eps * k) * ratio_term * (1.0 + 1e-12) + 1e-300:
            termwise_ok = False
    return ChainCheck(lhs=lhs, rhs=geom * tail, termwise_ok=termwise_ok)


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
