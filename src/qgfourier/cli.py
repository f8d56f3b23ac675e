"""Reproducible experiment runner.

Every verification in the package is exposed as a subcommand with seeded,
machine-readable output.  Exit codes: 0 when every contract in the run holds,
1 when a contract fails (the failing records are listed), 2 on usage errors.
A subcommand that raises fails with one record naming the exception, and the
subcommands after it in the run still run.

Output documents look like ``{"meta": ..., "records": [...], "verdict": ...,
"content_hash": ...}``.  The content hash is taken over the document with
elapsed-time fields stripped, so two runs with the same seed hash identically.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import re
import sys
import time

import numpy as np

from . import __version__
from .classical_eval import (
    character_l1,
    coefficient_bound_check,
    cotype2_ratio,
    cyclic_group,
    gaussian_series_l1_mean,
    make_su2_quadrature,
    randomized_l1_report,
    symmetric_group_s3,
)
from .dual_data import (
    make_onplus_dual,
    make_su2_dual,
    make_suq2_dual,
    make_trivial_dual,
    suq2_kmax_limit,
)
from .fourier_core import FourierCoeffs, convolve, ell2_norm, pairing, plancherel_gram_norm
from .l2_operators import (
    central_sum_check,
    haar_state_pairing_check,
    multiplier_block_norm,
    trace_norm_duality,
)
from .quantum_examples import growth_report, suq2_chain_table
from .random_series import (
    RngSeed,
    _per_label,
    _unitarity_defects,
    coefficient_traces,
    expected_operator_norm,
    four_unitary_decomposition,
    haar_family,
    identity_family,
    l2_invariance_check,
    random_coeffs,
    randomize_ball,
)

VOLATILE_KEYS = {"elapsed_ms", "content_hash"}

#: Families whose coefficient traces corollary-suq2 draws and checks at once.
FAMILY_CHUNK = 256
CHAIN_QS = (0.3, 0.5, 0.9)  # the q at which corollary-suq2 checks its chain


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _native(value):
    """Coerce numpy scalars/arrays into JSON-clean Python values."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _native(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_native(v) for v in value]
    return value


def _strip_volatile(doc):
    if isinstance(doc, dict):
        return {k: _strip_volatile(v) for k, v in doc.items() if k not in VOLATILE_KEYS}
    if isinstance(doc, list):
        return [_strip_volatile(v) for v in doc]
    return doc


def content_hash(doc: dict) -> str:
    canonical = json.dumps(_strip_volatile(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def build_dual(spec: str, q: float, kmax: int):
    if spec == "trivial":
        return make_trivial_dual()
    if spec == "su2":
        return make_su2_dual(kmax)
    if spec == "suq2":
        return make_suq2_dual(q, kmax)
    if spec == "s3":
        return symmetric_group_s3().dual
    m = re.fullmatch(r"z(\d+)", spec)
    if m:
        return cyclic_group(int(m.group(1))).dual
    m = re.fullmatch(r"o(\d+)plus", spec)
    if m:
        return make_onplus_dual(int(m.group(1)), kmax)
    raise ValueError(f"unknown dual {spec!r} (use trivial, zN, s3, su2, suq2, oNplus)")


class Context:
    """Lazily built heavy objects shared across subcommands in one run."""

    def __init__(self):
        # subcommand -> the dual `resolve_config` built for it; its run pops it,
        # so the dual is built once and does not outlive its subcommand
        self.duals = {}

    @functools.cached_property
    def s3(self):
        return symmetric_group_s3()

    @functools.cached_property
    def z8(self):
        return cyclic_group(8)

    @functools.cached_property
    def quad(self):
        return make_su2_quadrature()


def _seed_for(cfg: dict, name: str, case: int = 0) -> RngSeed:
    return RngSeed(cfg["seed"], STREAM_BASE[name] + case)


def _fold(pick, *values):
    """`pick` (max or min) of `values`, but NaN if any value is NaN: Python's max
    and min keep a NaN only when it comes first (max(0.0, nan) is 0.0), so a NaN
    deviation would drop out of the worst value and pass its gate."""
    if any(math.isnan(v) for v in values):
        return math.nan
    return pick(values)


def _gaps(a: FourierCoeffs, b: FourierCoeffs) -> list[float]:
    """max |a - b| over each block, in label order."""
    return [float(np.max(np.abs(a.block(l) - b.block(l)))) for l in a.dual.labels()]


def _gaussian(rng, n: int) -> np.ndarray:
    """An n x n complex Gaussian matrix: its real part drawn first."""
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _contract(x: np.ndarray, scale) -> np.ndarray:
    """Each matrix of `x` (one matrix or a stack) rescaled to its operator norm in `scale`."""
    norm = np.maximum(1e-12, np.linalg.norm(x, 2, axis=(-2, -1)))
    return x / norm[..., None, None] * np.asarray(scale)[..., None, None]


# ---------------------------------------------------------------------------
# experiments: each returns its records; a record with "ok" is gated
# ---------------------------------------------------------------------------

def run_plancherel(cfg, ctx):
    dual = ctx.duals.pop("plancherel")
    rng = _seed_for(cfg, "plancherel").generator()
    tol = 1e-12
    max_rel = 0.0
    for _ in range(cfg["families"]):
        f = random_coeffs(dual, rng)
        e2 = ell2_norm(f)
        max_rel = _fold(max, max_rel, abs(plancherel_gram_norm(f) - e2) / e2)
    return [{"dual": dual.name, "families": cfg["families"], "max_rel_deviation": max_rel,
             "tolerance": tol, "ok": max_rel <= tol}]


def run_pairing(cfg, ctx):
    dual = ctx.duals.pop("pairing")
    rng = _seed_for(cfg, "pairing").generator()
    tol = 1e-12
    max_self = 0.0
    max_herm = 0.0
    for _ in range(cfg["families"]):
        f = random_coeffs(dual, rng)
        g = random_coeffs(dual, rng)
        e2sq = ell2_norm(f) ** 2
        max_self = _fold(max, max_self, abs(pairing(f, f) - e2sq) / e2sq)
        fg = pairing(f, g)
        max_herm = _fold(max, max_herm, abs(fg - np.conj(pairing(g, f))) / max(1.0, abs(fg)))
    labels = dual.labels()
    disjoint = 0.0
    if len(labels) >= 2:
        fa = random_coeffs(dual, rng, labels=labels[:1])
        fb = random_coeffs(dual, rng, labels=labels[1:2])
        disjoint = abs(pairing(fa, fb))
    return [{"dual": dual.name, "families": cfg["families"], "max_rel_self_deviation": max_self,
             "max_hermitian_deviation": max_herm, "disjoint_pairing": disjoint,
             "tolerance": tol, "ok": max_self <= tol and max_herm <= tol and disjoint == 0.0}]


def run_convolve_check(cfg, ctx):
    table = ctx.s3
    dual = table.dual
    rng = _seed_for(cfg, "convolve-check").generator()
    tol = 1e-12
    max_match = 0.0
    max_assoc = 0.0
    for _ in range(cfg["families"]):
        f1 = random_coeffs(dual, rng)
        f2 = random_coeffs(dual, rng)
        dual_side = convolve(f1, f2)
        v1 = table.coeff_values(f1)
        v2 = table.coeff_values(f2)
        brute_vals = np.array([
            np.sum(v1 * v2[table.mult[table.inverse, g]]) / table.order
            for g in range(table.order)
        ])
        brute = table.fourier_coeffs(brute_vals)
        max_match = _fold(max, max_match, *_gaps(brute, dual_side))
        f3 = random_coeffs(dual, rng)
        left = convolve(convolve(f1, f2), f3)
        right = convolve(f1, convolve(f2, f3))
        max_assoc = _fold(max, max_assoc, *_gaps(left, right))
    delta = identity_family(dual)
    f = random_coeffs(dual, rng)
    gaps = zip(_gaps(convolve(f, delta), f), _gaps(convolve(delta, f), f))
    delta_err = _fold(max, *(a + b for a, b in gaps))  # per label, the two gaps added
    return [{"group": table.name, "pairs": cfg["families"], "max_bruteforce_mismatch": max_match,
             "max_associativity_defect": max_assoc, "identity_element_defect": delta_err,
             "tolerance": tol, "ok": max_match <= tol and max_assoc <= tol and delta_err <= tol}]


def run_randomize_l2(cfg, ctx):
    dual = ctx.duals.pop("randomize-l2")
    rng = _seed_for(cfg, "randomize-l2").generator()
    tol = 1e-10
    max_rel = 0.0
    for _ in range(cfg["families"]):
        f = random_coeffs(dual, rng)
        fam = haar_family(dual, rng)
        max_rel = _fold(max, max_rel, l2_invariance_check(f, fam) / ell2_norm(f))
    f = random_coeffs(dual, rng)
    ident_dev = l2_invariance_check(f, identity_family(dual))
    phases = _per_label(dual, lambda n: np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=n))))
    phase_rel = l2_invariance_check(f, phases) / ell2_norm(f)
    return [{"dual": dual.name, "pairs": cfg["families"], "max_rel_deviation": max_rel,
             "identity_deviation": ident_dev, "phase_rel_deviation": phase_rel,
             "tolerance": tol, "ok": max_rel <= tol and ident_dev == 0.0 and phase_rel <= 1e-12}]


def _four_unitary_errors(group) -> tuple[float, float]:
    """Reconstruction error and unitarity defect of one size's (matrix, scale) draws, split
    as one stack."""
    mats, scales = zip(*group)
    x = _contract(np.stack(mats), scales)
    vs = four_unitary_decomposition(x)
    defects = [float(np.max(_unitarity_defects(v))) for v in vs]
    return float(np.max(np.abs(sum(vs) / 2.0 - x))), _fold(max, *defects)


def run_four_unitary(cfg, ctx):
    rng = _seed_for(cfg, "four-unitary").generator()
    tol = 1e-9
    draws = {}  # n -> the (matrix, scale) draws of that size, in trial order
    for _ in range(cfg["trials"]):
        n = int(rng.integers(1, 17))
        draws.setdefault(n, []).append((_gaussian(rng, n), rng.uniform(0.0, 1.0)))
    # one size at a time, its draws dropped once split; each value is per matrix
    errors = [_four_unitary_errors(draws.pop(n)) for n in list(draws)]
    max_rec, max_unit = (_fold(max, 0.0, *column) for column in zip(*errors))
    return [{"contractions": cfg["trials"], "max_dim": 16, "max_reconstruction_error": max_rec,
             "max_unitarity_defect": max_unit, "tolerance": tol,
             "ok": max_rec <= tol and max_unit <= tol}]


def run_ball_decomposition(cfg, ctx):
    dual = ctx.duals.pop("ball-decomposition")
    rng = _seed_for(cfg, "ball-decomposition").generator()
    tol = 1e-9
    max_dev = 0.0
    for _ in range(cfg["families"]):
        f = random_coeffs(dual, rng)
        ball = _per_label(dual, lambda n: _contract(_gaussian(rng, n), rng.uniform(0.0, 1.0)))
        max_dev = _fold(max, max_dev, randomize_ball(f, ball).max_deviation)
    f = random_coeffs(dual, rng)
    unitary_dev = randomize_ball(f, haar_family(dual, rng)).max_deviation
    zero = randomize_ball(f, _per_label(dual, lambda n: np.zeros((n, n))))
    zero_norm = ell2_norm(zero.randomized)
    half = randomize_ball(f, _per_label(dual, lambda n: 0.5 * np.eye(n)))
    half_f = FourierCoeffs(dual, {l: 0.5 * m for l, m in f.support.items()})
    half_err = _fold(max, *_gaps(half.randomized, half_f))
    ok = (max_dev <= tol and unitary_dev <= tol and zero_norm == 0.0
          and zero.max_deviation <= tol and half_err <= 1e-12)
    return [{"dual": dual.name, "families": cfg["families"], "max_identity_deviation": max_dev,
             "unitary_family_deviation": unitary_dev, "zero_family_norm": zero_norm,
             "half_identity_error": half_err, "tolerance": tol, "ok": ok}]


def run_gaussian_norms(cfg, ctx):
    records = []
    sizes = [1, *(2**e for e in range(1, cfg["nmax"].bit_length()))]  # powers of 2 up to nmax
    for case, n in enumerate(sizes):
        trials = cfg["trials"] if n > 1 else max(cfg["trials"], 10_000)
        start = time.perf_counter()
        est = expected_operator_norm(n, trials, _seed_for(cfg, "gaussian-norms", case))
        rec = {"op": "gaussian-norms", "n": n, "trials": trials, "seed": cfg["seed"],
               "mean": est.mean, "stderr": est.stderr,
               "elapsed_ms": (time.perf_counter() - start) * 1000.0}
        if n == 1:
            target = float(np.sqrt(2.0 / np.pi))
            rec["target"] = target
            rec["ok"] = abs(est.mean - target) <= 3.0 * est.stderr
        else:
            rec["window"] = [1.2, 2.6]
            rec["ok"] = 1.2 <= est.mean <= 2.6
        records.append(rec)
    return records


def _helgason_corpus(cfg, ctx):
    """20 deterministic cases whose randomized series is a real Gaussian pointwise."""
    rng = _seed_for(cfg, "helgason-gaussian", 999).generator()
    s3, z8 = ctx.s3, ctx.z8
    cases = []
    s3_labels = s3.dual.labels()
    for _ in range(12):
        size = int(rng.integers(1, len(s3_labels) + 1))
        labels = list(rng.choice(len(s3_labels), size=size, replace=False))
        support = [s3_labels[i] for i in labels]
        f = random_coeffs(s3.dual, rng, labels=support, real=True)
        cases.append(("s3", s3, f))
    for _ in range(8):
        # supports inside one residue class mod 4 keep the phases aligned
        cls = int(rng.integers(0, 4))
        size = int(rng.integers(1, 3))
        support = [cls, cls + 4][:size] if rng.uniform() < 0.5 else [cls + 4, cls][:size]
        f = random_coeffs(z8.dual, rng, labels=sorted(set(support)), real=True)
        cases.append(("z8", z8, f))
    return cases


def run_helgason_gaussian(cfg, ctx):
    records = []
    for case, (group_name, table, f) in enumerate(_helgason_corpus(cfg, ctx)):
        res = gaussian_series_l1_mean(f, cfg["trials"], _seed_for(cfg, "helgason-gaussian", case), table)
        dev = abs(res.mean - res.predicted)
        records.append({"group": group_name, "support": [str(l) for l in f.labels()],
                        "trials": cfg["trials"], "mean": res.mean, "stderr": res.stderr,
                        "predicted": res.predicted, "deviation": dev,
                        "ok": dev <= 3.0 * res.stderr})
    return records


def run_helgason_instance(cfg, ctx):
    s3 = ctx.s3
    dual = s3.dual
    rng = _seed_for(cfg, "helgason-instance", 999).generator()
    f = random_coeffs(dual, rng)
    r1 = randomized_l1_report(s3, f, cfg["trials"], _seed_for(cfg, "helgason-instance", 0))
    r2 = randomized_l1_report(s3, f, 10 * cfg["trials"], _seed_for(cfg, "helgason-instance", 0))
    # an exactly zero ell2 reads ratio 0, which `0 <= 0.1 * 0` would pass
    stable = r2.ratio > 0 and abs(r1.ratio - r2.ratio) <= 0.1 * r2.ratio
    z2 = cyclic_group(2)
    sign = FourierCoeffs(z2.dual, {1: np.array([[1.0]])})
    rs = randomized_l1_report(z2, sign, cfg["trials"], _seed_for(cfg, "helgason-instance", 1))
    sign_ok = abs(rs.sup_l1_over_u - 1.0) <= 1e-10 and abs(rs.ell2 - 1.0) <= 1e-12
    return [
        {"group": "s3", "unitaries": cfg["trials"], "sup_l1": r1.sup_l1_over_u,
         "ell2": r1.ell2, "ratio": r1.ratio, "ok": True},
        {"group": "s3", "unitaries": 10 * cfg["trials"], "sup_l1": r2.sup_l1_over_u,
         "ell2": r2.ell2, "ratio": r2.ratio,
         "stability_rel_diff": abs(r1.ratio - r2.ratio) / r2.ratio if r2.ratio else math.nan,
         "ok": stable},
        {"group": "z2-sign", "unitaries": cfg["trials"], "sup_l1": rs.sup_l1_over_u,
         "ell2": rs.ell2, "ratio": rs.ratio, "ok": sign_ok},
    ]


def run_lemma35(cfg, ctx):
    quad = ctx.quad
    rng = _seed_for(cfg, "lemma35").generator()
    allowance = -1e-6
    records = []
    for side in ("upper", "lower"):
        cases = {}      # (k, j) -> [(a, i)]: one column per pair, shared by its cases
        for _ in range(cfg["families"]):
            k = int(rng.integers(1, cfg["kmax"] + 1))
            n = k + 1
            a = _gaussian(rng, n)
            i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
            cases.setdefault((k, j), []).append((a, i))
        min_margin = np.inf
        for (k, j), group in cases.items():
            column = quad.column(k, j)
            for a, i in group:
                res = coefficient_bound_check(a, k, i, j, quad, side, column)
                min_margin = _fold(min, min_margin, res.margin)
        records.append({"side": side, "cases": cfg["families"], "kmax": cfg["kmax"],
                        "min_margin": float(min_margin), "allowance": allowance,
                        "ok": min_margin >= allowance})
    return records


def run_tb_contraction(cfg, ctx):
    rng = _seed_for(cfg, "tb-contraction").generator()
    tol = 1.0 + 1e-9
    records = []
    cases = cfg["families"]
    for dual in (make_su2_dual(6), make_suq2_dual(0.5, 8)):
        worst = 0.0
        for irrep in dual.irreps:
            n = irrep.n
            # draws in case order: normal, normal, uniform
            mats, scales = zip(*[(_gaussian(rng, n), rng.uniform(0.0, 1.0)) for _ in range(cases)])
            b = _contract(np.stack(mats), scales)
            worst = _fold(max, worst, float(np.max(multiplier_block_norm(b, irrep))))
        records.append({"dual": dual.name, "irreps": len(dual.irreps),
                        "cases_per_irrep": cases, "max_block_norm": worst,
                        "bound": tol, "ok": worst <= tol})
    return records


def run_hx_identity(cfg, ctx):
    dual = ctx.duals.pop("hx-identity")
    rng = _seed_for(cfg, "hx-identity").generator()
    max_rel = 0.0
    for _ in range(cfg["families"]):
        f = random_coeffs(dual, rng)
        res = haar_state_pairing_check(f, _per_label(dual, lambda n: _gaussian(rng, n)))
        max_rel = _fold(max, max_rel, res.deviation / (1.0 + abs(res.rhs)))
    return [{"dual": dual.name, "pairs": cfg["families"], "max_rel_deviation": max_rel,
             "tolerance": 1e-12, "ok": max_rel <= 1e-12}]


def run_trace_duality(cfg, ctx):
    rng = _seed_for(cfg, "trace-duality", 999).generator()
    records = []
    for case in range(cfg["families"]):
        a = _gaussian(rng, 2)
        res = trace_norm_duality(a, cfg["trials"], _seed_for(cfg, "trace-duality", case))
        aligned_ok = abs(res.aligned - res.exact) <= 1e-10
        cap_ok = res.random_sup <= res.exact + 1e-12
        coverage = res.random_sup / res.exact
        records.append({"case": case, "n": 2, "trials": cfg["trials"], "exact": res.exact,
                        "aligned": res.aligned, "random_sup": res.random_sup,
                        "coverage": coverage, "ok": aligned_ok and cap_ok and coverage >= 0.9})
    return records


def run_central_sum(cfg, ctx):
    rng = _seed_for(cfg, "central-sum").generator()
    records = []
    for dual in (make_suq2_dual(0.5, 6), make_su2_dual(6)):
        max_rel = 0.0
        for _ in range(cfg["families"]):
            c = rng.standard_normal(len(dual.irreps)) + 1j * rng.standard_normal(len(dual.irreps))
            res = central_sum_check(c, dual)
            max_rel = _fold(max, max_rel, res.deviation / res.sum_c_sq)
        records.append({"dual": dual.name, "families": cfg["families"],
                        "max_rel_deviation": max_rel, "tolerance": 1e-12, "ok": max_rel <= 1e-12})
    return records


def run_corollary_suq2(cfg, ctx):
    rng = _seed_for(cfg, "corollary-suq2").generator()
    epsilons = (0.1, 0.5, 1.0)
    records = []
    for q in CHAIN_QS:
        dual = make_suq2_dual(q, cfg["kmax"])
        # the chain reads each block only through t_k, so the traces are drawn
        # from their law and no coefficient matrix is formed; the draws are
        # family-major, so chunks of families draw what one call would
        worst_excess = np.full(len(epsilons), -np.inf)
        worst_ratio = np.full(len(epsilons), -np.inf)
        finite = np.ones(len(epsilons), dtype=bool)
        termwise = np.ones(len(epsilons), dtype=bool)
        for start in range(0, cfg["families"], FAMILY_CHUNK):
            t = coefficient_traces(dual, min(FAMILY_CHUNK, cfg["families"] - start), rng)
            lhs, rhs, termwise_ok = suq2_chain_table(q, epsilons, dual.irreps, t)  # rows by eps
            with np.errstate(invalid="ignore"):  # inf - inf and inf / inf are NaN
                excess = lhs - rhs * (1.0 + 1e-12)
                ratio = lhs / rhs
            # an infinite side gives a -inf or NaN excess, so every value must
            # be finite, and np.maximum passes NaN on
            worst_excess = np.maximum(worst_excess, np.max(excess, axis=1))
            worst_ratio = np.maximum(worst_ratio, np.max(ratio, axis=1))
            finite &= np.isfinite([lhs, rhs, excess]).all(axis=(0, 2))
            termwise &= termwise_ok.all(axis=1)
        for e, eps in enumerate(epsilons):
            records.append({"q": q, "eps": eps, "kmax": cfg["kmax"],
                            "families": cfg["families"], "max_excess": float(worst_excess[e]),
                            "max_ratio": float(worst_ratio[e]), "termwise_ok": bool(termwise[e]),
                            "ok": bool(finite[e] and worst_excess[e] <= 0.0 and termwise[e])})
    return records


def run_growth(cfg, ctx):
    dual = ctx.duals.pop("growth")
    q = cfg["q"] if cfg["dual"] == "suq2" else None
    rows = growth_report(dual, q=q)
    return [{"k": r.k, "n": r.n, "d": r.d, "ratio": r.ratio} for r in rows]


def run_characters(cfg, ctx):
    quad = ctx.quad
    records = []
    values = []
    for k in range(cfg["kmax"] + 1):
        v = character_l1(k, quad)
        values.append(v)
        records.append({"k": k, "value": v,
                        "method": "euler3d" if k <= quad.kmax_valid else "weyl1d"})
    min_value = _fold(min, *values)
    min_ok = min_value >= 0.5
    # the exact 1D tail decreases toward 8/pi^2; the 3D segment is excluded
    # because its quadrature error is larger than successive differences
    tail = values[quad.kmax_valid + 1:]
    tail_monotone = all(a >= b for a, b in zip(tail, tail[1:]))
    summary = {"kmax": cfg["kmax"], "min_value": min_value, "floor": 0.5,
               "tail_monotone": tail_monotone, "ok": min_ok and tail_monotone}
    if cfg["kmax"] >= 200:
        limit = 8.0 / np.pi**2
        limit_ok = abs(values[200] - limit) <= 0.01
        summary["value_at_200"] = values[200]
        summary["limit"] = limit
        summary["limit_ok"] = limit_ok
        summary["ok"] = summary["ok"] and limit_ok
    records.append(summary)
    return records


def run_cotype2(cfg, ctx):
    s3, z8 = ctx.s3, ctx.z8
    rng = _seed_for(cfg, "cotype2", 999).generator()
    records = []
    floor = 0.2
    target = float(np.sqrt(2.0 / np.pi))

    single = [random_coeffs(s3.dual, rng)]
    res = cotype2_ratio(s3, single, cfg["trials"], _seed_for(cfg, "cotype2", 0))
    records.append({"case": "singleton-s3", "ratio": res.ratio, "stderr": res.stderr,
                    "target": target, "ok": abs(res.ratio - target) <= 3.0 * res.stderr})

    chars = [FourierCoeffs(z8.dual, {j: np.array([[1.0]])}) for j in range(8)]
    res = cotype2_ratio(z8, chars, cfg["trials"], _seed_for(cfg, "cotype2", 1))
    records.append({"case": "z8-characters", "ratio": res.ratio, "stderr": res.stderr,
                    "floor": floor, "ok": res.ratio >= floor})

    mixed = [random_coeffs(s3.dual, rng) for _ in range(5)]
    res = cotype2_ratio(s3, mixed, cfg["trials"], _seed_for(cfg, "cotype2", 2))
    records.append({"case": "random-s3-5", "ratio": res.ratio, "stderr": res.stderr,
                    "floor": floor, "ok": res.ratio >= floor})
    return records


#: The experiments, in the order `all` runs them.  Each entry holds the run
#: function, whether it draws random numbers (and so needs --seed), and the
#: flags it reads with their defaults; its subcommand's parser takes exactly
#: those flags, and --q wherever --dual is read.
TABLE = {
    "plancherel": (run_plancherel, True, {"dual": "suq2", "kmax": 4, "families": 50}),
    "pairing": (run_pairing, True, {"dual": "suq2", "kmax": 4, "families": 50}),
    "convolve-check": (run_convolve_check, True, {"families": 50}),
    "randomize-l2": (run_randomize_l2, True, {"dual": "suq2", "kmax": 5, "families": 100}),
    "four-unitary": (run_four_unitary, True, {"trials": 1000}),
    "ball-decomposition": (run_ball_decomposition, True,
                           {"dual": "suq2", "kmax": 4, "families": 20}),
    "gaussian-norms": (run_gaussian_norms, True, {"nmax": 256, "trials": 1000}),
    "helgason-gaussian": (run_helgason_gaussian, True, {"trials": 10_000}),
    "helgason-instance": (run_helgason_instance, True, {"trials": 1000}),
    "lemma35": (run_lemma35, True, {"kmax": 4, "families": 100}),
    "tb-contraction": (run_tb_contraction, True, {"families": 100}),
    "hx-identity": (run_hx_identity, True, {"dual": "suq2", "kmax": 4, "families": 100}),
    "trace-duality": (run_trace_duality, True, {"trials": 100_000, "families": 3}),
    "central-sum": (run_central_sum, True, {"families": 100}),
    "corollary-suq2": (run_corollary_suq2, True, {"kmax": 60, "families": 50}),
    "growth": (run_growth, False, {"dual": "suq2", "kmax": 40}),
    "characters": (run_characters, False, {"kmax": 200}),
    "cotype2": (run_cotype2, True, {"trials": 10_000}),
}

#: Subcommand -> run function: `run_one` dispatches through this dict, so a
#: test or the benchmark's tracer can rebind a run here.
EXPERIMENTS = {name: run for name, (run, _, _) in TABLE.items()}

#: The subcommands, in the order `all` runs them.
SUBCOMMANDS = [*EXPERIMENTS, "all"]

#: Per-subcommand RNG stream bases, from the order of the table, so every draw
#: moves if that order does; case i inside a subcommand uses base+i.
STREAM_BASE = {name: 1000 * (k + 1) for k, name in enumerate(EXPERIMENTS)}


def resolve_config(name: str, args: argparse.Namespace, ctx: Context) -> dict:
    """The subcommand's config; a ValueError for flags the run could not honour."""
    q = getattr(args, "q", None)
    cfg = {"q": 0.5 if q is None else q, "seed": args.seed}
    _, _, flags = TABLE[name]
    for key, default in flags.items():
        supplied = getattr(args, key)
        cfg[key] = default if supplied is None else supplied
    if q is not None and cfg.get("dual", "suq2") != "suq2":
        raise ValueError(f"argument --q: only the suq2 dual is deformed; {name} "
                         f"runs on --dual {cfg['dual']}")
    if "dual" in cfg:
        # an unknown or invalid spec is refused here, before any run
        try:
            ctx.duals[name] = build_dual(cfg["dual"], cfg["q"], cfg["kmax"])
        except MemoryError as exc:
            raise ValueError(f"argument --dual: {cfg['dual']} does not fit in memory "
                             f"({exc})") from None
    if name == "corollary-suq2" or (cfg.get("dual") == "suq2" and name != "growth"):
        q = min(CHAIN_QS) if name == "corollary-suq2" else cfg["q"]  # growth weights nothing
        if cfg["kmax"] > suq2_kmax_limit(q):
            raise ValueError(f"argument --kmax: {name} on suq2 at q={q!r} needs <= "
                             f"{suq2_kmax_limit(q)}, its weights' float range, got {cfg['kmax']}")
    if name == "lemma35":
        if cfg["kmax"] < 1:  # its levels are drawn from 1..kmax
            raise ValueError(f"argument --kmax: lemma35 needs >= 1, got {cfg['kmax']}")
        valid = ctx.quad.kmax_valid
        if cfg["kmax"] > valid:
            raise ValueError(f"argument --kmax: lemma35 needs <= {valid}, the quadrature's "
                             f"derived validity level, got {cfg['kmax']}")
    return cfg


def run_one(name: str, cfg: dict, ctx: Context) -> dict:
    start = time.perf_counter()
    try:
        records = EXPERIMENTS[name](cfg, ctx)
    except Exception as exc:  # a broken contract fails this block; the run goes on
        import traceback  # only here: the module adds about 0.5 MB to every run's peak RSS

        traceback.print_exc(file=sys.stderr)
        records = [{"error": f"{type(exc).__name__}: {exc}", "ok": False}]
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    records = _native(records)
    ok = all(rec["ok"] for rec in records if "ok" in rec)
    meta = {"toolkit_version": __version__, "subcommand": name, "config": _native(cfg),
            "seed": cfg.get("seed"), "elapsed_ms": elapsed_ms}
    return {"meta": meta, "records": records, "verdict": "pass" if ok else "fail"}


def assemble_document(subcommand: str, blocks: list[dict], args) -> dict:
    ok = all(b["verdict"] == "pass" for b in blocks)
    if len(blocks) == 1 and subcommand != "all":
        doc = dict(blocks[0])
    else:
        total_ms = sum(b["meta"]["elapsed_ms"] for b in blocks)
        doc = {
            "meta": {"toolkit_version": __version__, "subcommand": "all",
                     "config": {"seed": args.seed}, "seed": args.seed,
                     "elapsed_ms": total_ms},
            "records": blocks,
            "verdict": "pass" if ok else "fail",
        }
    doc["content_hash"] = content_hash(doc)
    return doc


def write_output(doc: dict, path: str, fmt: str):
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    import csv  # only here: `all` writes no csv, so its runs never load the module

    records = doc["records"]  # one table: `execute` refuses a csv file for `all`
    columns = list(dict.fromkeys(key for rec in records for key in rec))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")  # quotes a cell holding a comma
        writer.writerow(columns)
        writer.writerows([_csv_cell(rec.get(c, "")) for c in columns] for rec in records)


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, dict)):
        return json.dumps(value)
    return str(value)


def print_summary(doc: dict):
    meta = doc["meta"]
    print(f"qgfourier {meta['toolkit_version']} :: {meta['subcommand']} "
          f"(seed={meta['seed']}, {meta['elapsed_ms']:.0f} ms)")
    blocks = doc["records"]
    if meta["subcommand"] == "all":
        for block in blocks:
            line = f"  [{block['verdict']:4s}] {block['meta']['subcommand']}"
            print(line)
            if block["verdict"] != "pass":
                for rec in block["records"]:
                    if isinstance(rec, dict) and rec.get("ok") is False:
                        print(f"         FAIL {json.dumps(rec, sort_keys=True)}")
    else:
        for rec in blocks:
            if isinstance(rec, dict):
                mark = "ok " if rec.get("ok", True) else "FAIL"
                brief = {k: v for k, v in rec.items() if k != "ok"}
                print(f"  [{mark}] {json.dumps(_round_floats(brief), sort_keys=True)}")
    print(f"verdict: {doc['verdict']}  content_hash: {doc['content_hash'][:16]}")


def _round_floats(value):
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_round_floats(v) for v in value]
    return value


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser by name."""
    def at_least(floor: int):
        # a run that does no work would pass vacuously; two trials are the
        # fewest for which every Monte Carlo driver has a standard error;
        # level 0 is the smallest truncation a dual has; a seed must be non-negative
        def count(text: str) -> int:
            value = int(text)
            if value < floor:
                raise argparse.ArgumentTypeError(f"must be >= {floor}, got {value}")
            return value
        return count

    options = {
        "trials": dict(type=at_least(2), help="Monte Carlo trials (at least 2)"),
        "families": dict(type=at_least(1), help="number of random families/cases"),
        "q": dict(type=float, help="deformation parameter of suq2, in (0,1); default 0.5"),
        "kmax": dict(type=at_least(0), help="dual truncation level"),
        "nmax": dict(type=at_least(1), help="largest matrix size"),
        "dual": dict(type=str, help="dual to use: trivial, zN, s3, su2, suq2, oNplus"),
    }
    parser = argparse.ArgumentParser(
        prog="qgfourier",
        description="Seeded verification experiments for the dual-side Fourier calculus.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    subparsers = {}
    for name in SUBCOMMANDS:
        entries = TABLE.values() if name == "all" else [TABLE[name]]
        reads = set().union(*(flags for _, _, flags in entries))
        if "dual" in reads:
            reads.add("q")
        p = subparsers[name] = sub.add_parser(name, help=f"run the {name} experiment" if name != "all" else "run every experiment")
        p.add_argument("--seed", type=at_least(0), default=0,
                       required=any(draws for _, draws, _ in entries),
                       help="RNG seed (required where the run draws random numbers)")
        p.add_argument("--out", type=str, default=None, help="write the full document to this path")
        p.add_argument("--format", choices=("json", "csv"), default="json", help="output format for --out")
        for key, option in options.items():
            if key in reads:
                p.add_argument(f"--{key}", default=None, **option)
    return parser, subparsers


def execute(argv=None) -> tuple[int, dict | None]:
    parser, subparsers = build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
        if extras:  # refused with the usage of the subcommand that did not read them
            subparsers[args.subcommand].error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as exc:
        return int(exc.code or 0), None
    name = args.subcommand
    targets = list(EXPERIMENTS) if name == "all" else [name]
    ctx = Context()
    try:
        if name == "all" and args.out and args.format == "csv":
            raise ValueError("argument --format: csv output is only available for single "
                             "subcommands")
        configs = [resolve_config(t, args, ctx) for t in targets]  # every refusal before any run
        blocks = [run_one(t, cfg, ctx) for t, cfg in zip(targets, configs)]
    except ValueError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2, None
    doc = assemble_document(name, blocks, args)
    if args.out:
        write_output(doc, args.out, args.format)
    print_summary(doc)
    return (0 if doc["verdict"] == "pass" else 1), doc


def main(argv=None) -> int:
    code, _ = execute(argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
