import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from qgfourier import FourierCoeffs, cli, cyclic_group, random_series
from qgfourier.cli import build_dual, content_hash, execute, main
from qgfourier.random_series import ContractionError


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["definitely-not-a-subcommand"]) == 2
    capsys.readouterr()


def test_missing_seed_is_usage_error(capsys):
    assert main(["plancherel"]) == 2
    err = capsys.readouterr().err
    assert "--seed" in err


def test_bad_dual_is_usage_error(capsys):
    assert main(["plancherel", "--seed", "1", "--dual", "bogus"]) == 2
    capsys.readouterr()


ZERO_WORK = [
    (["plancherel", "--seed", "1", "--families", "0"], 1),
    (["four-unitary", "--seed", "1", "--trials", "0"], 2),
    (["tb-contraction", "--seed", "1", "--families", "0"], 1),
    (["gaussian-norms", "--seed", "1", "--nmax", "0"], 1),
    (["all", "--seed", "1", "--trials", "-1"], 2),
    # one trial has no standard error; refused before the n=1 case runs
    (["gaussian-norms", "--seed", "1", "--trials", "1", "--nmax", "2"], 2),
    (["characters", "--kmax", "-1"], 0),
    (["growth", "--kmax", "-1"], 0),
]


@pytest.mark.parametrize("argv, floor", ZERO_WORK,
                         ids=[f"argv{i}" for i in range(len(ZERO_WORK))])
def test_zero_work_is_usage_error(argv, floor, capsys):
    assert execute(argv) == (2, None)
    err = capsys.readouterr().err
    assert "error: argument --" in err  # refused by the parser, before any experiment
    assert f"must be >= {floor}" in err


CONFIG_REFUSALS = [
    # levels are drawn from 1..kmax; this raised "low >= high" mid-run
    (["lemma35", "--seed", "1", "--kmax", "0"], "argument --kmax", False),
    (["all", "--seed", "1", "--kmax", "0"], "argument --kmax", False),
    # --q deforms only suq2; elsewhere it was ignored and the run passed
    (["plancherel", "--seed", "1", "--dual", "su2", "--q", "0.3"], "argument --q", False),
    (["all", "--seed", "1", "--dual", "s3", "--q", "0.3"], "argument --q", False),
    # level 7 is past the quadrature's measured validity level; the rule is
    # built to tell, and this was refused only after nine subcommands ran
    (["all", "--seed", "1", "--kmax", "7"], "argument --kmax", True),
    # neither runs on a --dual: four-unitary ignored --q, corollary-suq2 ran its own q values
    (["four-unitary", "--seed", "1", "--q", "0.3", "--trials", "10"],
     "unrecognized arguments: --q", False),
    (["corollary-suq2", "--seed", "1", "--q", "0.3"], "unrecognized arguments: --q", False),
    # neither runs on a --dual; both ignored it and passed
    (["four-unitary", "--seed", "1", "--dual", "bogus", "--trials", "2"],
     "unrecognized arguments: --dual", False),
    (["corollary-suq2", "--seed", "1", "--dual", "su2", "--families", "1", "--kmax", "2"],
     "unrecognized arguments: --dual", False),
    # each run's dual is built with its config, so a bad spec stops `all` up front
    (["all", "--seed", "1", "--dual", "bogus"], "unknown dual", False),
    (["plancherel", "--seed", "1", "--dual", "z0"], "order must be >= 1", False),
    # a csv file holds one table; this ran the whole suite before failing in write_output
    (["all", "--seed", "1", "--out", "x.csv", "--format", "csv"], "argument --format", False),
    # a flag no subcommand of the run reads was ignored, yet written into its config
    (["plancherel", "--seed", "1", "--trials", "5"], "unrecognized arguments: --trials", False),
    (["plancherel", "--seed", "1", "--nmax", "3"], "unrecognized arguments: --nmax", False),
    (["four-unitary", "--seed", "1", "--kmax", "3"], "unrecognized arguments: --kmax", False),
    (["four-unitary", "--seed", "1", "--families", "9"], "unrecognized arguments: --families",
     False),
    (["characters", "--families", "2"], "unrecognized arguments: --families", False),
    (["growth", "--trials", "3"], "unrecognized arguments: --trials", False),
]


@pytest.mark.parametrize("argv, flag, builds_rule", CONFIG_REFUSALS,
                         ids=[f"argv{i}" for i in range(len(CONFIG_REFUSALS))])
def test_config_is_refused_before_any_run(argv, flag, builds_rule, monkeypatch, capsys):
    def must_not_run(*args):
        raise ValueError("ran before the config was checked")

    if not builds_rule:
        monkeypatch.setattr(cli, "make_su2_quadrature", must_not_run)
    for name in cli.EXPERIMENTS:
        monkeypatch.setitem(cli.EXPERIMENTS, name, must_not_run)
    assert execute(argv) == (2, None)
    assert f"error: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("extra, q", [(["--q", "0.3"], 0.3), ([], 0.5)], ids=["q0.3", "default"])
def test_q_on_suq2_is_used(extra, q, capsys):
    code, doc = execute(["plancherel", "--seed", "1", "--dual", "suq2", "--families", "2"] + extra)
    capsys.readouterr()
    assert code == 0
    assert doc["meta"]["config"]["q"] == q
    assert doc["records"][0]["dual"].startswith(f"suq2(q={q},")


def test_q_on_all_is_accepted(monkeypatch, capsys):
    # the subcommands of `all` that run on a --dual honour --q
    seen = {}

    def recorder(name):
        def run(cfg, ctx):
            seen[name] = cfg
            return [{"ok": True}]
        return run

    for name in cli.EXPERIMENTS:
        monkeypatch.setitem(cli.EXPERIMENTS, name, recorder(name))
    code, doc = execute(["all", "--seed", "1", "--q", "0.3", "--families", "2", "--trials", "2"])
    capsys.readouterr()
    assert code == 0 and doc["verdict"] == "pass"
    assert set(seen) == set(cli.EXPERIMENTS)
    assert all(cfg["q"] == 0.3 for cfg in seen.values())


def test_csv_format_without_out_is_accepted_on_all(monkeypatch, capsys):
    # --format only shapes the file that --out writes; without one nothing is refused
    for name in cli.EXPERIMENTS:
        monkeypatch.setitem(cli.EXPERIMENTS, name, lambda cfg, ctx: [{"ok": True}])
    code, doc = execute(["all", "--seed", "1", "--format", "csv"])
    capsys.readouterr()
    assert code == 0 and doc["verdict"] == "pass"


def test_dual_out_of_memory_is_usage_error(monkeypatch, capsys):
    # z2000 asks numpy for 59.6 GiB while its group law is checked; this ended
    # in a MemoryError traceback.  Nothing is allocated for real here.
    def no_memory(n):
        raise MemoryError(f"Unable to allocate the {n}^3 associativity table")

    monkeypatch.setattr(cli, "cyclic_group", no_memory)
    for name in cli.EXPERIMENTS:
        monkeypatch.setitem(cli.EXPERIMENTS, name, lambda cfg, ctx: [{"ok": True}])
    assert execute(["plancherel", "--seed", "1", "--dual", "z2000"]) == (2, None)
    assert "error: argument --dual: z2000 does not fit in memory" in capsys.readouterr().err


def test_infinite_quantum_dimension_is_usage_error(capsys):
    # q^{-k} overflows past k = 589 at q = 0.3; this printed rows of d = inf
    with np.errstate(over="ignore"):
        assert execute(["growth", "--dual", "suq2", "--q", "0.3", "--kmax", "600"]) == (2, None)
    assert "must be finite" in capsys.readouterr().err


def test_corollary_suq2_holds_a_bounded_chunk_of_families():
    # 1000 families at kmax 60 are 15.1 MB of Gamma variates; drawn in chunks
    # of FAMILY_CHUNK families the peak stays the same at any family count
    cfg = {"seed": 1, "q": 0.5, "kmax": 60, "families": 1000}
    tracemalloc.start()
    try:
        records = cli.run_corollary_suq2(cfg, cli.Context())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(rec["ok"] for rec in records)
    assert peak <= 8 * 2**20


def test_corollary_suq2_chunks_match_one_draw(monkeypatch):
    cfg = {"seed": 3, "q": 0.5, "kmax": 12, "families": 11}
    whole = cli.run_corollary_suq2(cfg, cli.Context())
    monkeypatch.setattr(cli, "FAMILY_CHUNK", 4)
    assert cli.run_corollary_suq2(cfg, cli.Context()) == whole


def test_failing_record_fails_the_run(monkeypatch, capsys):
    monkeypatch.setitem(cli.EXPERIMENTS, "growth", lambda cfg, ctx: [{"k": 0}, {"ok": False}])
    code, doc = execute(["growth"])
    capsys.readouterr()
    assert code == 1
    assert doc["verdict"] == "fail"


@pytest.mark.parametrize("lhs, rhs", [(math.inf, math.inf), (1.0, math.inf), (math.nan, 1.0)],
                         ids=["both-inf", "rhs-inf", "lhs-nan"])
def test_corollary_suq2_fails_closed_on_non_finite(lhs, rhs, monkeypatch, capsys):
    # inf - inf is NaN and finite - inf is -inf; neither may read as a pass
    def chain_table(q, epsilons, irreps, t):
        shape = (len(epsilons), len(t))
        return np.full(shape, lhs), np.full(shape, rhs), np.ones(shape, bool)

    monkeypatch.setattr(cli, "suq2_chain_table", chain_table)
    code, doc = execute(["corollary-suq2", "--seed", "1", "--kmax", "2", "--families", "2"])
    capsys.readouterr()
    assert code == 1
    assert doc["verdict"] == "fail"
    assert [rec["ok"] for rec in doc["records"]] == [False] * 9


def test_corollary_suq2_overflow_at_kmax_400_fails(capsys):
    # at q = 0.3 both sides of the chain pass 1e308 (rhs alone at eps = 1);
    # at q = 0.5 and 0.9 they stay finite
    code, doc = execute(["corollary-suq2", "--seed", "1", "--kmax", "400", "--families", "2"])
    capsys.readouterr()
    assert code == 1 and doc["verdict"] == "fail"
    records = doc["records"]
    assert [rec["q"] for rec in records] == [0.3] * 3 + [0.5] * 3 + [0.9] * 3
    for rec in records[:3]:
        assert rec["ok"] is False
        assert not math.isfinite(rec["max_excess"])
    for rec in records[3:]:
        assert rec["ok"] is True
        assert rec["max_excess"] < 0.0 and 0.0 < rec["max_ratio"] <= 1.0


def tb_contraction_reference(cfg):
    """The per-case loop that `run_tb_contraction` is held to, bit for bit: one
    normalisation and one single-block norm per case."""
    rng = cli._seed_for(cfg, "tb-contraction").generator()
    records = []
    for dual in (cli.make_su2_dual(6), cli.make_suq2_dual(0.5, 8)):
        worst = 0.0
        for irrep in dual.irreps:
            for _ in range(cfg["families"]):
                b = rng.standard_normal((irrep.n, irrep.n)) + 1j * rng.standard_normal((irrep.n, irrep.n))
                b = b / max(1e-12, np.linalg.norm(b, 2)) * rng.uniform(0.0, 1.0)
                worst = max(worst, cli.multiplier_block_norm(b, irrep))
        records.append({"dual": dual.name, "irreps": len(dual.irreps),
                        "cases_per_irrep": cfg["families"], "max_block_norm": worst,
                        "bound": 1.0 + 1e-9, "ok": worst <= 1.0 + 1e-9})
    return records


@pytest.mark.parametrize("seed, families", [(7, 100), (1007, 100), (3, 7)])
def test_tb_contraction_matches_per_case_loop(seed, families):
    cfg = {"seed": seed, "families": families}
    assert cli.run_tb_contraction(cfg, cli.Context()) == tb_contraction_reference(cfg)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_gaussian_norms_fails_closed_on_non_finite(bad, monkeypatch, capsys):
    def poisoned(n, count, rng):
        return np.full((count, 2 * n - 1), bad)

    monkeypatch.setattr(random_series, "gaussian_bidiagonal_stack", poisoned)
    code, doc = execute(["gaussian-norms", "--seed", "1", "--nmax", "2", "--trials", "10"])
    capsys.readouterr()
    assert code == 1
    assert doc["verdict"] == "fail"
    assert [rec["ok"] for rec in doc["records"]] == [False, False]


def nan_like(value):
    """`value` with every number in it NaN: a scalar, an array, a coefficient
    family, or a result record of those."""
    if isinstance(value, FourierCoeffs):
        return FourierCoeffs(value.dual, {l: np.full_like(m, math.nan)
                                          for l, m in value.support.items()})
    if isinstance(value, np.ndarray):
        return np.full_like(value, math.nan)
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(value, **{
            f.name: nan_like(getattr(value, f.name)) for f in dataclasses.fields(value)
        })
    if isinstance(value, (float, complex)):
        return type(value)(math.nan)
    return value


#: (argv, the kernel `cli` calls that returns NaN on its second call)
NAN_KERNELS = [
    (["plancherel", "--seed", "1", "--families", "3"], "plancherel_gram_norm"),
    (["pairing", "--seed", "1", "--families", "3"], "pairing"),
    (["convolve-check", "--seed", "1", "--families", "2"], "convolve"),
    (["randomize-l2", "--seed", "1", "--families", "3"], "l2_invariance_check"),
    (["ball-decomposition", "--seed", "1", "--families", "3"], "randomize_ball"),
    (["lemma35", "--seed", "1", "--families", "3"], "coefficient_bound_check"),
    (["tb-contraction", "--seed", "1", "--families", "3"], "multiplier_block_norm"),
    (["hx-identity", "--seed", "1", "--families", "3"], "haar_state_pairing_check"),
    (["central-sum", "--seed", "1", "--families", "3"], "central_sum_check"),
    (["characters", "--kmax", "3"], "character_l1"),
]


@pytest.mark.parametrize("argv, kernel", NAN_KERNELS, ids=[argv[0] for argv, _ in NAN_KERNELS])
def test_nan_from_a_kernel_fails_the_run(argv, kernel, monkeypatch, capsys):
    # Python's max(0.0, nan) is 0.0: a NaN after the first value must still
    # reach the worst value and fail its gate
    real = getattr(cli, kernel)
    calls = itertools.count(1)

    def second_is_nan(*args, **kwargs):
        result = real(*args, **kwargs)
        return nan_like(result) if next(calls) == 2 else result

    monkeypatch.setattr(cli, kernel, second_is_nan)
    code, doc = execute(argv)
    capsys.readouterr()
    assert code == 1 and doc["verdict"] == "fail"
    assert not any("error" in rec for rec in doc["records"])
    assert False in [rec["ok"] for rec in doc["records"] if "ok" in rec]


@pytest.mark.parametrize("seed", [7, 11])
def test_four_unitary_defect_is_the_svd_norm(seed, monkeypatch, capsys):
    # the record reads each defect V^* V - I by eigvalsh; the SVD norm of the
    # same unitaries is the reference, equal to 1e-17
    split = cli.four_unitary_decomposition
    unitaries = []

    def recording(x):
        vs = split(x)
        unitaries.extend(vs)
        return vs

    monkeypatch.setattr(cli, "four_unitary_decomposition", recording)
    code, doc = execute(["four-unitary", "--seed", str(seed)])
    capsys.readouterr()
    assert code == 0 and len(unitaries) == 4 * 16
    by_svd = max(float(np.max(np.linalg.norm(
        v.swapaxes(-1, -2).conj() @ v - np.eye(v.shape[-1]), 2, axis=(-2, -1))))
        for v in unitaries)
    assert abs(doc["records"][0]["max_unitarity_defect"] - by_svd) <= 1e-17


def test_shared_tables_are_built_once_across_all(monkeypatch, capsys):
    # a run of `all` builds s3, z8 and the SU(2) rule once each, however many
    # subcommands share them; z2 is helgason-instance's own
    built = []

    def counting(build):
        def wrapped(*args):
            built.append((build.__name__, *args))
            return build(*args)
        return wrapped

    for name in ("symmetric_group_s3", "cyclic_group", "make_su2_quadrature"):
        monkeypatch.setattr(cli, name, counting(getattr(cli, name)))
    execute(["all", "--seed", "1", "--families", "2", "--trials", "2"])
    capsys.readouterr()
    assert sorted(built) == [("cyclic_group", 2), ("cyclic_group", 8),
                             ("make_su2_quadrature",), ("symmetric_group_s3",)]


def subparsers() -> dict:
    return cli.build_parser()[1]


def test_subcommand_order_is_the_experiment_table():
    assert cli.SUBCOMMANDS == [*cli.EXPERIMENTS, "all"]
    assert list(subparsers()) == cli.SUBCOMMANDS
    # the stream bases fix every draw, so they are pinned
    assert cli.STREAM_BASE == {
        "plancherel": 1000, "pairing": 2000, "convolve-check": 3000, "randomize-l2": 4000,
        "four-unitary": 5000, "ball-decomposition": 6000, "gaussian-norms": 7000,
        "helgason-gaussian": 8000, "helgason-instance": 9000, "lemma35": 10000,
        "tb-contraction": 11000, "hx-identity": 12000, "trace-duality": 13000,
        "central-sum": 14000, "corollary-suq2": 15000, "growth": 16000,
        "characters": 17000, "cotype2": 18000,
    }


@pytest.mark.parametrize("name", cli.SUBCOMMANDS)
def test_parser_takes_exactly_the_flags_of_the_table(name, capsys):
    entries = cli.TABLE.values() if name == "all" else [cli.TABLE[name]]
    reads = {key for _, _, flags in entries for key in flags}
    if "dual" in reads:
        reads.add("q")
    parser = subparsers()[name]
    options = set(vars(parser.parse_args(["--seed", "1"])))
    assert options == reads | {"seed", "out", "format"}
    # --seed is required exactly where the run draws random numbers
    if name in ("growth", "characters"):
        assert parser.parse_args([]).seed == 0
    else:
        with pytest.raises(SystemExit):
            parser.parse_args([])
        assert "the following arguments are required: --seed" in capsys.readouterr().err


def test_help_names_only_the_flags_read():
    text = subparsers()["four-unitary"].format_help()
    assert "--trials" in text
    assert not any(flag in text for flag in ("--dual", "--q", "--kmax"))


@pytest.mark.parametrize("argv, message", [
    (["four-unitary", "--seed", "1", "--q", "0.3"], "unrecognized arguments: --q 0.3"),
    (["four-unitary", "--seed", "1", "--trials", "1"], "argument --trials: must be >= 2, got 1"),
], ids=["unread flag", "bad value"])
def test_subcommand_reports_its_own_usage(argv, message, capsys):
    # an unread flag is refused by the subcommand's parser, as a bad value is
    assert execute(argv) == (2, None)
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("usage: qgfourier four-unitary [-h] --seed SEED")
    assert lines[-1] == f"qgfourier four-unitary: error: {message}"


RAISED = [ContractionError("matrix norm 2.0 exceeds 1 + 1e-09"),
          AssertionError("d_k >= q^-k fails at k = 3"),
          OverflowError("(34, 'Numerical result out of range')")]


@pytest.mark.parametrize("exc", RAISED, ids=[type(e).__name__ for e in RAISED])
def test_exception_in_a_run_is_a_failing_record(exc, monkeypatch, capsys):
    def broken(cfg, ctx):
        raise exc

    ran = []

    def recorder(name):
        def run(cfg, ctx):
            ran.append(name)
            return [{"ok": True}]
        return run

    for name in cli.EXPERIMENTS:
        monkeypatch.setitem(cli.EXPERIMENTS, name, recorder(name))
    monkeypatch.setitem(cli.EXPERIMENTS, "four-unitary", broken)
    failing = [{"error": f"{type(exc).__name__}: {exc}", "ok": False}]

    code, doc = execute(["four-unitary", "--seed", "1", "--trials", "2"])
    assert code == 1 and doc["verdict"] == "fail"
    assert doc["records"] == failing
    assert "Traceback" in capsys.readouterr().err  # where it was raised goes to stderr

    code, doc = execute(["all", "--seed", "1"])
    assert "FAIL" in capsys.readouterr().out
    assert code == 1 and doc["verdict"] == "fail"
    blocks = {b["meta"]["subcommand"]: b for b in doc["records"]}
    assert [name for name, b in blocks.items() if b["verdict"] == "fail"] == ["four-unitary"]
    assert blocks["four-unitary"]["records"] == failing
    assert ran == [name for name in cli.EXPERIMENTS if name != "four-unitary"]


def test_lemma35_beyond_measured_rule_is_usage_error(capsys):
    assert execute(["lemma35", "--seed", "1", "--kmax", "7"]) == (2, None)
    assert "validity level" in capsys.readouterr().err


def test_deterministic_subcommands_need_no_seed(capsys):
    assert main(["characters", "--kmax", "8"]) == 0
    capsys.readouterr()


def test_plancherel_document(tmp_path, capsys):
    out = tmp_path / "plancherel.json"
    code, doc = execute(
        ["plancherel", "--dual", "suq2", "--q", "0.5", "--kmax", "4", "--seed", "7",
         "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    assert doc["verdict"] == "pass"
    assert doc["meta"]["subcommand"] == "plancherel"
    assert doc["meta"]["config"]["q"] == 0.5
    assert doc["records"][0]["max_rel_deviation"] <= 1e-12
    on_disk = json.loads(out.read_text())
    assert on_disk["content_hash"] == doc["content_hash"]


def test_document_schema_and_hash_reproducibility(capsys):
    code1, doc1 = execute(["pairing", "--seed", "42", "--families", "5"])
    code2, doc2 = execute(["pairing", "--seed", "42", "--families", "5"])
    capsys.readouterr()
    assert code1 == code2 == 0
    assert set(doc1) == {"meta", "records", "verdict", "content_hash"}
    assert doc1["content_hash"] == doc2["content_hash"]
    assert doc1["content_hash"] == content_hash(doc2)


def test_hash_ignores_elapsed_time(capsys):
    _, doc = execute(["pairing", "--seed", "42", "--families", "5"])
    capsys.readouterr()
    mutated = json.loads(json.dumps(doc))
    mutated["meta"]["elapsed_ms"] = 123456.0
    assert content_hash(mutated) == doc["content_hash"]


def test_different_seeds_differ(capsys):
    _, a = execute(["trace-duality", "--seed", "1", "--trials", "200", "--families", "1"])
    _, b = execute(["trace-duality", "--seed", "2", "--trials", "200", "--families", "1"])
    capsys.readouterr()
    assert a["content_hash"] != b["content_hash"]


def test_growth_csv_output(tmp_path, capsys):
    out = tmp_path / "growth.csv"
    code = main(["growth", "--dual", "suq2", "--q", "0.5", "--kmax", "6",
                 "--out", str(out), "--format", "csv"])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,n,d,ratio"
    assert len(lines) == 8
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1"


def test_csv_keeps_keys_of_later_records(tmp_path, capsys):
    # the header came from the first record alone, so the n=2 window was lost
    out = tmp_path / "g.csv"
    code = main(["gaussian-norms", "--seed", "1", "--nmax", "2", "--trials", "10",
                 "--out", str(out), "--format", "csv"])
    capsys.readouterr()
    assert code == 0
    header, first, second = (line.split(",") for line in out.read_text().splitlines())
    assert header[-1] == "window"  # keys in first-seen order
    assert first[-1] == ""
    assert second[-1] == "[1.2; 2.6]"
    assert second[header.index("target")] == ""


def test_gaussian_norms_small(capsys):
    code, doc = execute(["gaussian-norms", "--nmax", "16", "--trials", "400", "--seed", "7"])
    capsys.readouterr()
    assert code == 0
    by_n = {rec["n"]: rec for rec in doc["records"]}
    assert set(by_n) == {1, 2, 4, 8, 16}
    for n, rec in by_n.items():
        if n > 1:
            assert 1.2 <= rec["mean"] <= 2.6


def test_build_dual_forms():
    assert build_dual("trivial", 0.5, 3).name == "trivial"
    assert build_dual("z8", 0.5, 3).name == "z8"
    assert build_dual("s3", 0.5, 3).name == "s3"
    assert build_dual("o3plus", 0.5, 3).name.startswith("onplus")
    assert build_dual("suq2", 0.25, 2).irrep(1).d == pytest.approx(0.25 + 4.0)
    with pytest.raises(ValueError):
        build_dual("zz", 0.5, 3)


DUAL_RUNS = ["plancherel", "pairing", "randomize-l2", "ball-decomposition", "hx-identity",
             "growth"]


@pytest.mark.parametrize("sub", DUAL_RUNS)
def test_dual_is_built_once_per_subcommand(sub, monkeypatch, capsys):
    # the dual resolve_config builds to refuse a bad spec is the one the run uses
    built = []

    def counting(n):
        built.append(n)
        return cyclic_group(n)

    monkeypatch.setattr(cli, "cyclic_group", counting)
    argv = [sub, "--dual", "z8"] + ([] if sub == "growth" else ["--seed", "1", "--families", "1"])
    code, doc = execute(argv)
    capsys.readouterr()
    assert code == 0 and doc["meta"]["config"]["dual"] == "z8"
    assert built == [8]
