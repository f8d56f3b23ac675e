"""qgfourier benchmark runner.

    python3 bench/run.py --workload cli-all --seed 7 --seconds 36 --trace 0

Runs one workload (see BENCHMARK.json) in this process as a closed loop with
one caller.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it runs untraced and traced rounds in turn and reports the
per-layer metrics.  The last line of standard output is the result as JSON;
the full result, with the machine fingerprint (and the spans, when traced),
goes to bench/out/.  ``--workload all`` runs every workload, each in its own
process.  Exit code 0 when every check passed, 1 when one failed, 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 9          # set-up samples per run: this process plus eight children
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here (missing program, mismatched spec)."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text())


def import_program():
    """Import the package from this checkout's src/ and the workloads on top."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import workloads
    except ImportError as exc:
        raise BenchError(f"cannot import qgfourier from {src}: {exc}") from None
    origin = Path(workloads.qgfourier.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise BenchError(f"qgfourier was imported from {origin}, not from {src}")
    return workloads


def timed_setup(name: str, seed: int):
    """Import, dual construction and input generation; returns (module, workload, seconds)."""
    start = time.perf_counter()
    workloads = import_program()
    workload = workloads.WORKLOADS[name](seed)
    return workloads, workload, time.perf_counter() - start


def probe_setup(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter, so imports are paid again."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------

def fits(start: float, last: float, seconds: float) -> bool:
    """Whether one more step as long as the last one ends within `seconds` of `start`."""
    return time.perf_counter() - start + last <= seconds


class Loop:
    """Runs rounds of `round_items` items within a time budget.

    A round starts only if a round as long as the previous one still ends
    within the budget, so a run never overshoots it by a long round; at least
    `min_rounds` rounds always run.
    """

    def __init__(self, workload, tally):
        self.workload = workload
        self.tally = tally
        self.index = 0
        self.failures: list[str] = []

    def run(self, seconds: float, tracer=None, min_rounds: int = 1):
        rounds, items = [], []
        start = time.perf_counter()
        while len(rounds) < min_rounds or fits(start, rounds[-1], seconds):
            round_start = time.perf_counter()
            for _ in range(self.workload.round_items):
                item_start = time.perf_counter()
                checks = self._item(tracer)
                items.append(time.perf_counter() - item_start)
                bad = self.tally.add(checks)
                self.failures += [f"item {self.index}: {name}" for name in bad]
                self.index += 1
            rounds.append(time.perf_counter() - round_start)
        return rounds, items

    def _item(self, tracer):
        try:
            if tracer is None:
                return self.workload.item(self.index)
            with tracer.span("bench.item"):
                return self.workload.item(self.index)
        except Exception as exc:  # a raise is a failed check, and the run goes on
            return [(f"{type(exc).__name__}: {exc}", False)]


# ---------------------------------------------------------------------------
# per-layer metrics from the traced run
# ---------------------------------------------------------------------------

FUNCTIONS = (
    "random_series.expected_operator_norm", "random_series.four_unitary_decomposition",
    "random_series.randomize_ball", "random_series.haar_unitary_stack",
    "random_series.random_coeffs",
    "fourier_core.ell2_norm", "fourier_core.ell1_norm", "fourier_core.ell_infty_norm",
    "fourier_core.pairing", "fourier_core.convolve", "fourier_core.plancherel_gram_norm",
    "quantum_examples.suq2_chain_check", "quantum_examples.nonkac_quantity",
    "quantum_examples.growth_report",
    "l2_operators.haar_state_pairing_check", "l2_operators.multiplier_block_norm",
    "l2_operators.trace_norm_duality", "l2_operators.central_sum_check",
    "classical_eval.make_su2_quadrature", "classical_eval.coefficient_bound_check",
    "classical_eval.gaussian_series_l1_mean", "classical_eval.cotype2_ratio",
    "classical_eval.randomized_l1_report", "classical_eval.character_l1",
)
GROUP_TABLES = ("classical_eval.symmetric_group_s3", "classical_eval.cyclic_group")


def _blocks(args, result):
    first = next(iter(args.values()))
    return {"blocks": len(first.support)}


OBSERVERS = {
    **{f"fourier_core.{fn}": _blocks for fn in
       ("ell2_norm", "ell1_norm", "ell_infty_norm", "pairing", "convolve", "plancherel_gram_norm")},
    "random_series.expected_operator_norm": lambda args, result: {"used": args["trials"]},
    "random_series.gaussian_matrix_stack": lambda args, result: {"drawn": args["count"]},
    "classical_eval.make_su2_quadrature": lambda args, result: {"kmax_valid": result.kmax_valid},
}


def layer_metrics(setup, rounds, n_rounds, spans, subcommands, layers) -> dict:
    """Per-layer values for one set-up plus one round of the traced run.

    `setup` and `rounds` are `spans.Totals` of the traced set-up and of all
    traced rounds; round sums are divided by the number of rounds.
    """
    def per(table: str, key: str) -> float:
        return getattr(setup, table)[key] + getattr(rounds, table)[key] / n_rounds

    m = {f"{name}.s": per("self_s", name) for name in FUNCTIONS}
    for layer in layers + ("bench",):
        m[f"{layer}.self_s"] = setup.layer_self_s(layer) + rounds.layer_self_s(layer) / n_rounds
    for layer in layers:
        m[f"{layer}.calls"] = setup.layer_calls(layer) + rounds.layer_calls(layer) / n_rounds
    m["classical_eval.group_tables.s"] = sum(per("inclusive_s", name) for name in GROUP_TABLES)
    for sub in subcommands:
        m[f"cli.subcommand.{sub}.s"] = per("inclusive_s", "cli.run_" + sub.replace("-", "_"))
    m["fourier_core.blocks"] = per("counts", "blocks")
    drawn = per("child_counts", "random_series.expected_operator_norm/drawn")
    m["random_series.draw_use_ratio"] = per("counts", "used") / drawn if drawn else 0.0
    valid = [s.counts["kmax_valid"] for s in spans if "kmax_valid" in s.counts]
    m["classical_eval.kmax_valid"] = min(valid) if valid else 0
    return m


# ---------------------------------------------------------------------------
# fingerprint and output
# ---------------------------------------------------------------------------

def fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    model = platform.processor() or None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():  # a checkout without .git must not report an enclosing repo
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": commit,
    }


def write_out(name: str, seed: int, trace: int, doc: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def with_units(values: dict, entries: list[dict]) -> dict:
    units = {e["name"]: e["unit"] for e in entries}
    if set(values) != set(units):
        missing, extra = sorted(set(units) - set(values)), sorted(set(values) - set(units))
        raise BenchError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    return {k: {"value": values[k], "unit": units[k]} for k in units}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def run_plain(args):
    """End-to-end run: timed set-ups, then rounds until `args.seconds` pass."""
    workloads, workload, first = timed_setup(args.workload, args.seed)
    setup_s = [first] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_RUNS - 1)]
    loop = Loop(workload, workloads.Tally())
    loop.tally.add(workload.sizes())
    # two rounds at least, so that cli-all compares the hashes of two runs
    rounds, items = loop.run(args.seconds, min_rounds=2)
    values = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(rounds),
        "item_s.p50": statistics.median(items),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"setup_samples_s": setup_s, "round_s": rounds, "item_s": items}
    if len(items) >= 100:
        extra["item_s.p90"] = statistics.quantiles(items, n=10)[-1]
    return loop, values, extra, []


def run_traced(args):
    """Per-layer run: traced set-up, a warm-up round, then untraced and traced
    rounds in turn, so that drift in machine speed cancels out of
    trace.overhead_ratio."""
    workloads = import_program()
    import spans as sp

    tracer = sp.Tracer(workloads.MODULES, workloads.BINDINGS, OBSERVERS)
    with tracer, tracer.span("bench.setup"):
        workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_spans, tracer.spans = tracer.spans, []
    loop = Loop(workload, workloads.Tally())
    loop.tally.add(workload.sizes())
    loop.run(0.0)
    plain_rounds, rounds, items = [], [], []
    start, pair = time.perf_counter(), 0.0
    while not rounds or fits(start, pair, args.seconds):
        pair_start = time.perf_counter()
        plain_rounds += loop.run(0.0)[0]
        with tracer:
            traced_rounds, traced_items = loop.run(0.0, tracer)
        rounds += traced_rounds
        items += traced_items
        pair = time.perf_counter() - pair_start
    values = layer_metrics(sp.Totals.of(setup_spans), sp.Totals.of(tracer.spans), len(rounds),
                           setup_spans + tracer.spans, workloads.CLI_ALL_SIZES,
                           tuple(workloads.MODULES))
    values["trace.wall_s"] = statistics.median(rounds)
    values["trace.overhead_ratio"] = values["trace.wall_s"] / statistics.median(plain_rounds)
    layer_sum = sum(values[f"{layer}.self_s"] for layer in (*workloads.MODULES, "bench"))
    setup_time = sum(s.duration for s in setup_spans if s.parent < 0)
    extra = {"layer_sum_over_traced_time": layer_sum / (setup_time + statistics.mean(rounds)),
             "round_s": rounds, "item_s": items}
    return loop, values, extra, setup_spans + tracer.spans


def measure(args, spec) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
    loop, values, extra, spans = (run_traced if args.trace else run_plain)(args)
    metrics = with_units(values, spec["per_layer" if args.trace else "end_to_end"])
    workload, tally = loop.workload, loop.tally
    extra.update(round_items=workload.round_items, fail_ratio=tally.fail_ratio,
                 failures=loop.failures[:20])
    if hasattr(workload, "hashes"):
        extra["content_hashes"] = sorted(set(workload.hashes))
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "fingerprint": fingerprint(), "result": result, "extra": extra}
    if spans:
        doc["spans"] = [[s.name, s.start, s.end, s.parent] for s in spans]
    path = write_out(args.workload, args.seed, args.trace, doc)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("fingerprint " + json.dumps(doc["fingerprint"], sort_keys=True))
    for key, metric in metrics.items():
        print(f"  {key:48s} {metric['value']:.6g} {metric['unit']}")
    for key in ("fail_ratio", "item_s.p90", "layer_sum_over_traced_time", "content_hashes"):
        if key in extra:
            print(f"  {key:48s} {extra[key]}")
    for line in loop.failures[:20]:
        print(f"  FAIL {line}", file=sys.stderr)
    print(f"full result: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args, spec) -> int:
    """Every workload, each in its own process, one after another."""
    codes = [
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                        "--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--trace", str(args.trace)], cwd=ROOT).returncode
        for w in spec["workloads"]
    ]
    return max(codes)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            print(timed_setup(args.workload, args.seed)[2])
            return 0
        spec = load_spec()
        return run_all(args, spec) if args.workload == "all" else measure(args, spec)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
