"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench
"""

import json
import math

import pytest

import run
import spans as sp

workloads = run.import_program()
from qgfourier import classical_eval as ce  # noqa: E402  (import_program puts src/ on the path)
from qgfourier import cli  # noqa: E402
from qgfourier import fourier_core as fc  # noqa: E402
from qgfourier import l2_operators as l2  # noqa: E402
from qgfourier import random_series as rs  # noqa: E402
from qgfourier.quantum_examples import ChainCheck  # noqa: E402
from qgfourier.l2_operators import PairingIdentity  # noqa: E402


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def synthetic_tree():
    #   a.root [0, 10]
    #     b.left [1, 4]
    #     c.right [5, 9]
    #       a.leaf [6, 7]
    return [
        sp.Span("a.root", 0.0, 10.0, -1),
        sp.Span("b.left", 1.0, 4.0, 0, {"drawn": 3}),
        sp.Span("c.right", 5.0, 9.0, 0),
        sp.Span("a.leaf", 6.0, 7.0, 2, {"drawn": 5}),
    ]


def test_self_time_subtracts_direct_children_only():
    assert sp.self_times(synthetic_tree()) == [3.0, 3.0, 3.0, 1.0]


def test_layer_self_times_add_up_to_the_root():
    totals = sp.Totals.of(synthetic_tree())
    assert totals.layer_self_s("a") == 4.0
    assert totals.layer_self_s("b") == 3.0
    assert totals.layer_self_s("c") == 3.0
    assert sum(totals.layer_self_s(x) for x in "abc") == 10.0
    assert totals.layer_calls("a") == 2
    assert totals.inclusive_s["c.right"] == 4.0


def test_counts_are_attributed_to_the_calling_span():
    totals = sp.Totals.of(synthetic_tree())
    assert totals.counts["drawn"] == 8
    assert totals.child_counts["a.root/drawn"] == 3
    assert totals.child_counts["c.right/drawn"] == 5


def test_layer_metrics_divide_round_totals_by_round_count():
    setup = sp.Totals.of([sp.Span("random_series.random_coeffs", 0.0, 2.0, -1)])
    rounds = sp.Totals.of([sp.Span("random_series.random_coeffs", 0.0, 1.0, -1),
                           sp.Span("random_series.random_coeffs", 5.0, 6.0, -1)])
    m = run.layer_metrics(setup, rounds, 2, [], workloads.CLI_ALL_SIZES, tuple(workloads.MODULES))
    assert m["random_series.random_coeffs.s"] == 3.0
    assert m["random_series.self_s"] == 3.0
    assert m["random_series.calls"] == 2.0


# ---------------------------------------------------------------------------
# fail_ratio
# ---------------------------------------------------------------------------

def calculus_values(**change):
    values = dict(linf_g=2.0, l2_f=3.0, l1_f=5.0, p_fg=1.0 + 1.0j, p_ff=9.0 + 0j, l2_conv=4.0,
                  nonkac=7.0, chains=[ChainCheck(1.0, 2.0, True)] * 3)
    values.update(change)
    return values


def test_clean_calculus_result_passes():
    tally = workloads.Tally()
    assert tally.add(workloads.calculus_checks(**calculus_values())) == []
    assert tally.fail_ratio == 0.0


@pytest.mark.parametrize("change, failed", [
    ({"p_ff": 9.0 * (1 + 1e-9) + 0j}, "pairing-self"),
    ({"p_fg": 10.1 + 0j}, "holder"),
    ({"l2_conv": 6.0 + 1e-9}, "young"),
    ({"nonkac": math.nan}, "finite"),
    ({"chains": [ChainCheck(1.0, 2.0, True)] * 2 + [ChainCheck(3.0, 2.0, True)]}, "chain:1.0"),
    ({"chains": [ChainCheck(1.0, 2.0, False)] * 3}, "chain:0.1"),
])
def test_perturbed_calculus_result_counts_in_fail_ratio(change, failed):
    tally = workloads.Tally()
    tally.add(workloads.calculus_checks(**calculus_values()))
    bad = tally.add(workloads.calculus_checks(**calculus_values(**change)))
    assert failed in bad
    assert tally.failed == len(bad)
    assert tally.fail_ratio == len(bad) / tally.attempted


def test_perturbed_oracle_results_fail():
    haar = PairingIdentity(lhs=1.0, rhs=1.0, deviation=0.0)
    assert all(ok for _, ok in workloads.oracle_checks(2.0, 2.0, haar, [0.5, 1.0]))
    bad = dict(workloads.oracle_checks(2.0 * (1 + 1e-9), 2.0, haar, [1.0 + 1e-6]))
    assert not bad["gram-route"] and not bad["block-norms"] and bad["haar-state"]
    off = PairingIdentity(lhs=1.0, rhs=1.0, deviation=1e-9)
    assert not dict(workloads.oracle_checks(2.0, 2.0, off, [0.5]))["haar-state"]


def test_cli_all_gates_on_verdict_hash_and_work_size():
    doc = {
        "verdict": "pass",
        "content_hash": "abc",
        "records": [{"meta": {"subcommand": name, "config": {"seed": 7, "q": 0.5, **sizes}}}
                    for name, sizes in workloads.CLI_ALL_SIZES.items()],
    }
    assert all(ok for _, ok in workloads.cli_all_checks(0, doc, "abc"))
    assert not dict(workloads.cli_all_checks(0, doc, "other"))["same-hash"]
    assert not dict(workloads.cli_all_checks(1, {**doc, "verdict": "fail"}, "abc"))["verdict"]
    doc["records"][6]["meta"]["config"]["trials"] = 500
    assert not dict(workloads.cli_all_checks(0, doc, "abc"))["size:gaussian-norms"]


def test_an_item_that_raises_is_a_failed_check():
    class Broken:
        round_items = 3

        def item(self, index):
            if index == 1:
                raise OverflowError("boom")
            return [("ok", True), ("ok", True)]

    tally = workloads.Tally()
    loop = run.Loop(Broken(), tally)
    rounds, items = loop.run(0.0)
    assert (len(rounds), len(items)) == (1, 3)
    assert (tally.attempted, tally.failed) == (5, 1)
    assert "OverflowError" in loop.failures[0]


def test_loop_runs_min_rounds_and_starts_no_round_past_the_budget():
    class Quick:
        round_items = 2

        def item(self, index):
            return [("ok", True)]

    loop = run.Loop(Quick(), workloads.Tally())
    assert len(loop.run(0.0, min_rounds=2)[0]) == 2
    assert len(loop.run(0.0)[0]) == 1
    assert loop.index == 6
    assert not run.fits(0.0, 1.0, 0.5)


# ---------------------------------------------------------------------------
# wrapping and restoring
# ---------------------------------------------------------------------------

def snapshot():
    state = {}
    for module in workloads.BINDINGS:
        for key, value in vars(module).items():
            state[(module.__name__, key)] = value
            if isinstance(value, dict) and not key.startswith("__"):
                for dkey, dvalue in value.items():
                    state[(module.__name__, key, dkey)] = dvalue
    return state


def test_every_wrapped_attribute_is_restored():
    before = snapshot()
    tracer = sp.Tracer(workloads.MODULES, workloads.BINDINGS, run.OBSERVERS)
    with pytest.raises(ZeroDivisionError):
        with tracer:
            assert fc.ell2_norm is not before[("qgfourier.fourier_core", "ell2_norm")]
            assert cli.ell2_norm is fc.ell2_norm
            assert workloads.qgfourier.ell2_norm is fc.ell2_norm
            assert cli.EXPERIMENTS["plancherel"] is cli.run_plancherel
            assert cli.run_plancherel is not before[("qgfourier.cli", "run_plancherel")]
            1 / 0
    after = snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert not any(hasattr(v, "__wrapped__") for v in after.values() if callable(v))


def test_spans_follow_from_imports_between_modules():
    tracer = sp.Tracer(workloads.MODULES, workloads.BINDINGS, run.OBSERVERS)
    dual = workloads.dd.make_suq2_dual(0.5, 3)
    with tracer:
        l2.central_sum_check([1.0, 2.0], dual)   # l2_operators calls its own ell2_norm binding
        rs.expected_operator_norm(4, 10, rs.RngSeed(1))
        quad = ce.make_su2_quadrature(resolution=6, validate_kmax=2)
    names = [s.name for s in tracer.spans]
    parents = {s.name: tracer.spans[s.parent].name for s in tracer.spans if s.parent >= 0}
    assert names[0] == "l2_operators.central_sum_check"
    assert parents["fourier_core.ell2_norm"] == "l2_operators.central_sum_check"
    assert parents["random_series.gaussian_matrix_stack"] == "random_series.expected_operator_norm"
    totals = sp.Totals.of(tracer.spans)
    assert totals.counts["used"] == 10
    assert totals.child_counts["random_series.expected_operator_norm/drawn"] >= 10
    assert [s.counts for s in tracer.spans if s.name.endswith("make_su2_quadrature")] == [
        {"kmax_valid": quad.kmax_valid}]
    assert not hasattr(fc.ell2_norm, "__wrapped__")


# ---------------------------------------------------------------------------
# the spec
# ---------------------------------------------------------------------------

def test_metrics_match_the_spec_and_the_metric_map():
    spec = run.load_spec()
    empty = sp.Totals()
    names = set(run.layer_metrics(empty, empty, 1, [], workloads.CLI_ALL_SIZES,
                                  tuple(workloads.MODULES)))
    names |= {"trace.wall_s", "trace.overhead_ratio"}
    assert names == {m["name"] for m in spec["per_layer"]}
    metric_map = json.loads((run.HERE / "metric_map.json").read_text())
    assert set(metric_map) == names
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workload_names = {w["name"] for w in spec["workloads"]}
    assert workload_names == set(workloads.WORKLOADS)
    for entry in metric_map.values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) <= workload_names
