"""The benchmark's workloads: seeded set-up, one item of work, correctness gates.

A workload builds its inputs when it is constructed (calculus-suq2 and
oracles from ``RngSeed(seed, stream)``; cli-all has a fixed command line) and
then runs items one after another (a closed loop with one caller).  An item
returns a list of named checks; a check fails on a raise, a non-finite value
or a missed tolerance.  Library calls go through module attributes
(``fc.ell2_norm``), so the tracer in `spans` sees them.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass

import numpy as np

import qgfourier
from qgfourier import cli
from qgfourier import classical_eval as ce
from qgfourier import dual_data as dd
from qgfourier import fourier_core as fc
from qgfourier import l2_operators as l2
from qgfourier import quantum_examples as qe
from qgfourier import random_series as rs

MODULES = {
    "dual_data": dd,
    "fourier_core": fc,
    "random_series": rs,
    "l2_operators": l2,
    "classical_eval": ce,
    "quantum_examples": qe,
    "cli": cli,
}
#: Modules whose namespaces hold bindings of the traced functions.
BINDINGS = [qgfourier, *MODULES.values()]

#: Work sizes of `qgfourier all` at this commit, per subcommand.  The cli-all
#: guard compares each run's resolved config with these, so a speed-up that
#: does less work fails the benchmark instead of passing as a gain.
CLI_ALL_SIZES = {
    "plancherel": {"kmax": 4, "families": 50},
    "pairing": {"kmax": 4, "families": 50},
    "convolve-check": {"families": 50},
    "randomize-l2": {"kmax": 5, "families": 100},
    "four-unitary": {"trials": 1000},
    "ball-decomposition": {"kmax": 4, "families": 20},
    "gaussian-norms": {"nmax": 256, "trials": 1000},
    "helgason-gaussian": {"trials": 10_000},
    "helgason-instance": {"trials": 1000},
    "lemma35": {"kmax": 4, "families": 100},
    "tb-contraction": {"families": 100},
    "hx-identity": {"kmax": 4, "families": 100},
    "trace-duality": {"trials": 100_000, "families": 3},
    "central-sum": {"families": 100},
    "corollary-suq2": {"kmax": 60, "families": 50},
    "growth": {"kmax": 40},
    "characters": {"kmax": 200},
    "cotype2": {"trials": 10_000},
}
SIZE_KEYS = ("trials", "families", "kmax", "nmax")

CALCULUS_Q, CALCULUS_KMAX, CALCULUS_POOL = 0.5, 60, 16
CHAIN_EPS = (0.1, 0.5, 1.0)
ORACLE_Q, ORACLE_KMAX, ORACLE_POOL, ORACLE_FAMILIES = 0.5, 16, 6, 2
QUAD_RESOLUTION, QUAD_VALIDATE_KMAX = 10, 6

REL_TOL = 1e-12
BALL_TOL = 1.0 + 1e-9


@dataclass
class Tally:
    """Checks attempted and failed over a run."""

    attempted: int = 0
    failed: int = 0

    def add(self, checks: list[tuple[str, bool]]) -> list[str]:
        """Count `checks`; return the names of the failed ones."""
        self.attempted += len(checks)
        bad = [name for name, ok in checks if not ok]
        self.failed += len(bad)
        return bad

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def finite(*values) -> bool:
    return all(math.isfinite(abs(v)) for v in values)


# ---------------------------------------------------------------------------
# cli-all: the run a user makes to get a verdict
# ---------------------------------------------------------------------------

#: Program seed of cli-all.  `all` gates each Monte Carlo case at 3 standard
#: errors (helgason-gaussian alone has 20 cases), so its verdict is "fail" at
#: some seeds: at seed 107 two helgason-gaussian cases miss by 3.02 and 3.06.
#: A benchmark workload must not fail, so cli-all runs the reference seed 7
#: whatever the benchmark seed is.
CLI_ALL_SEED = 7


class CliAll:
    """In-process `qgfourier all --seed 7` at the shipped defaults."""

    round_items = 1

    def __init__(self, seed: int):
        self.argv = ["all", "--seed", str(CLI_ALL_SEED)]
        self.hashes: list[str] = []

    def sizes(self) -> list[tuple[str, bool]]:
        return []

    def item(self, index: int) -> list[tuple[str, bool]]:
        with contextlib.redirect_stdout(io.StringIO()):
            code, doc = cli.execute(self.argv)
        if doc is None:
            return [("exit-code", False)]
        self.hashes.append(doc["content_hash"])
        return cli_all_checks(code, doc, self.hashes[0])


def cli_all_checks(code: int, doc: dict, first_hash: str) -> list[tuple[str, bool]]:
    checks = [
        ("exit-code", code == 0),
        ("verdict", doc["verdict"] == "pass"),
        ("same-hash", doc["content_hash"] == first_hash),
    ]
    blocks = {b["meta"]["subcommand"]: b for b in doc["records"]}
    checks.append(("subcommands", sorted(blocks) == sorted(CLI_ALL_SIZES)))
    for name, sizes in CLI_ALL_SIZES.items():
        config = blocks[name]["meta"]["config"] if name in blocks else {}
        resolved = {k: config[k] for k in SIZE_KEYS if k in config}
        checks.append((f"size:{name}", resolved == sizes))
    return checks


# ---------------------------------------------------------------------------
# calculus-suq2: the dual-side calculus at the corollary size
# ---------------------------------------------------------------------------

class CalculusSuq2:
    """Norms, pairings, convolution and the bound chain on suq2(q=0.5, kmax=60)."""

    round_items = 10

    def __init__(self, seed: int):
        self.dual = dd.make_suq2_dual(CALCULUS_Q, CALCULUS_KMAX)
        rng = rs.RngSeed(seed, 1).generator()
        self.pool = [rs.random_coeffs(self.dual, rng) for _ in range(CALCULUS_POOL)]
        self.pairs = rng.integers(0, CALCULUS_POOL, size=(CALCULUS_POOL * CALCULUS_POOL, 2))

    def sizes(self) -> list[tuple[str, bool]]:
        return [
            ("size:irreps", len(self.dual.irreps) == CALCULUS_KMAX + 1),
            ("size:pool", len(self.pool) == CALCULUS_POOL),
            ("size:support", all(len(f.support) == CALCULUS_KMAX + 1 for f in self.pool)),
        ]

    def item(self, index: int) -> list[tuple[str, bool]]:
        i, j = self.pairs[index % len(self.pairs)]
        f, g = self.pool[i], self.pool[j]
        linf_g = fc.ell_infty_norm(g)
        l2_f = fc.ell2_norm(f)
        l1_f = fc.ell1_norm(f)
        p_fg = fc.pairing(f, g)
        p_ff = fc.pairing(f, f)
        l2_conv = fc.ell2_norm(fc.convolve(f, g))
        nonkac = qe.nonkac_quantity(f)
        chains = [qe.suq2_chain_check(CALCULUS_Q, eps, f) for eps in CHAIN_EPS]
        return calculus_checks(linf_g, l2_f, l1_f, p_fg, p_ff, l2_conv, nonkac, chains)


def calculus_checks(linf_g, l2_f, l1_f, p_fg, p_ff, l2_conv, nonkac, chains):
    slack = 1.0 + REL_TOL
    checks = [
        ("finite", finite(linf_g, l2_f, l1_f, p_fg, p_ff, l2_conv, nonkac)),
        ("pairing-self", abs(p_ff - l2_f**2) <= REL_TOL * l2_f**2),
        ("holder", abs(p_fg) <= l1_f * linf_g * slack),
        ("young", l2_conv <= linf_g * l2_f * slack),
    ]
    for eps, chain in zip(CHAIN_EPS, chains):
        ok = finite(chain.lhs, chain.rhs) and chain.lhs <= chain.rhs * slack
        checks.append((f"chain:{eps}", ok and chain.termwise_ok))
    return checks


# ---------------------------------------------------------------------------
# oracles: the independent routes
# ---------------------------------------------------------------------------

@dataclass
class OracleInput:
    f: fc.FourierCoeffs
    family: rs.MatrixFamily       # random family for the Haar-state route
    contractions: dict            # irrep label -> matrix of norm <= 1


class Oracles:
    """Gram route, Haar-state route, multiplier block norms, quadrature build."""

    round_items = 1

    def __init__(self, seed: int):
        self.dual = dd.make_suq2_dual(ORACLE_Q, ORACLE_KMAX)
        rng = rs.RngSeed(seed, 2).generator()
        self.pool = [self._input(rng) for _ in range(ORACLE_POOL)]

    def _input(self, rng) -> OracleInput:
        f = rs.random_coeffs(self.dual, rng)
        family = rs.MatrixFamily(self.dual, {
            label: _complex_gaussian(rng, self.dual.irrep(label).n) for label in self.dual.labels()
        })
        contractions = {}
        for irrep in self.dual.irreps:
            b = _complex_gaussian(rng, irrep.n)
            contractions[irrep.label] = b / max(1e-12, np.linalg.norm(b, 2)) * rng.uniform(0.0, 1.0)
        return OracleInput(f, family, contractions)

    def sizes(self) -> list[tuple[str, bool]]:
        return [
            ("size:irreps", len(self.dual.irreps) == ORACLE_KMAX + 1),
            ("size:pool", len(self.pool) == ORACLE_POOL),
        ]

    def item(self, index: int) -> list[tuple[str, bool]]:
        checks = []
        for k in range(ORACLE_FAMILIES):
            data = self.pool[(index * ORACLE_FAMILIES + k) % ORACLE_POOL]
            gram = fc.plancherel_gram_norm(data.f)
            closed = fc.ell2_norm(data.f)
            haar = l2.haar_state_pairing_check(data.f, data.family)
            norms = [l2.multiplier_block_norm(data.contractions[irrep.label], irrep)
                     for irrep in self.dual.irreps]
            checks += oracle_checks(gram, closed, haar, norms)
        quad = ce.make_su2_quadrature(resolution=QUAD_RESOLUTION, validate_kmax=QUAD_VALIDATE_KMAX)
        checks.append(("size:kmax_valid", quad.kmax_valid >= QUAD_VALIDATE_KMAX))
        return checks


def oracle_checks(gram, closed, haar, norms) -> list[tuple[str, bool]]:
    return [
        ("finite", finite(gram, closed, haar.lhs, haar.rhs, *norms)),
        ("gram-route", abs(gram - closed) <= REL_TOL * closed),
        ("haar-state", haar.deviation / (1.0 + abs(haar.rhs)) <= REL_TOL),
        ("block-norms", max(norms) <= BALL_TOL),
    ]


def _complex_gaussian(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


WORKLOADS = {
    "cli-all": CliAll,
    "calculus-suq2": CalculusSuq2,
    "oracles": Oracles,
}
