import json
import math

import pytest

from qgfourier import cli
from qgfourier.cli import build_dual, content_hash, execute, main
from qgfourier.quantum_examples import ChainCheck


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
    (["lemma35", "--seed", "1", "--kmax", "0"], "argument --kmax"),
    (["all", "--seed", "1", "--kmax", "0"], "argument --kmax"),
    # --q deforms only suq2; elsewhere it was ignored and the run passed
    (["plancherel", "--seed", "1", "--dual", "su2", "--q", "0.3"], "argument --q"),
    (["all", "--seed", "1", "--dual", "s3", "--q", "0.3"], "argument --q"),
]


@pytest.mark.parametrize("argv, flag", CONFIG_REFUSALS,
                         ids=[f"argv{i}" for i in range(len(CONFIG_REFUSALS))])
def test_config_is_refused_before_any_run(argv, flag, monkeypatch, capsys):
    def must_not_run(*args):
        raise ValueError("ran before the config was checked")

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
    monkeypatch.setattr(cli, "suq2_chain_check", lambda q, eps, f: ChainCheck(lhs, rhs, True))
    code, doc = execute(["corollary-suq2", "--seed", "1", "--kmax", "2", "--families", "2"])
    capsys.readouterr()
    assert code == 1
    assert doc["verdict"] == "fail"
    assert [rec["ok"] for rec in doc["records"]] == [False] * 9


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
