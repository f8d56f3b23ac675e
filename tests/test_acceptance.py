"""End-to-end acceptance suite.

Each criterion is one row of ACCEPTANCE: a number, a name and the `qgfourier`
command lines that check it.  The experiments are defined once, as the CLI's
`run_*` functions; a criterion passes when each of its command lines exits 0
with verdict "pass" and every record that carries an `ok` flag has it set.
Each criterion prints one PASS/FAIL line; run with ``pytest -s`` to see them.
"""

from pathlib import Path

from qgfourier.cli import execute

README = Path(__file__).resolve().parents[1] / "README.md"

ACCEPTANCE = [
    (1, "plancherel_consistency", [
        f"plancherel --seed 1001 --families 25 --dual {dual}"
        for dual in ("trivial", "z8", "s3", "su2 --kmax 6", "suq2 --kmax 6",
                     "suq2 --q 0.9 --kmax 5", "o2plus --kmax 6", "o3plus --kmax 2")
    ]),
    (2, "l2_invariance", [
        f"randomize-l2 --seed 1002 --families 100 --dual {dual}"
        for dual in ("trivial", "s3", "su2 --kmax 5", "suq2 --kmax 5")
    ]),
    (3, "four_unitary_and_ball", [
        "four-unitary --seed 1003 --trials 1000",
        "ball-decomposition --seed 1003 --dual suq2 --kmax 4 --families 25",
    ]),
    (4, "gaussian_norm_window", [
        "gaussian-norms --seed 1004 --nmax 1 --trials 100000",
        "gaussian-norms --seed 1004 --nmax 256 --trials 1000",
    ]),
    (5, "gaussian_series_l1_chain", ["helgason-gaussian --seed 1005 --trials 10000"]),
    (6, "coefficient_row_bounds", ["lemma35 --seed 1006 --kmax 4 --families 100"]),
    (7, "multiplier_contraction", ["tb-contraction --seed 1007 --families 100"]),
    (8, "pairing_identity", ["hx-identity --seed 1008 --dual suq2 --kmax 4 --families 100"]),
    (9, "trace_norm_duality", ["trace-duality --seed 1009 --trials 100000 --families 3"]),
    (10, "central_sum_identity", ["central-sum --seed 1010 --families 100"]),
    (11, "deformed_series_chain", ["corollary-suq2 --seed 1011 --kmax 60 --families 50"]),
    (12, "character_l1_floor", ["characters --kmax 200"]),
    (13, "cotype_floor", ["cotype2 --seed 1013 --trials 10000"]),
    (14, "convolution_oracle", ["convolve-check --seed 1014 --families 50"]),
]


def report(num: int, name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {num:02d} {name}: {detail}")
    assert ok, f"acceptance {num:02d} {name}: {detail}"


def criterion(num: int, name: str, command_lines: list[str]):
    """The test of one ACCEPTANCE row."""

    def test(capsys):
        failures = []
        checked = 0
        for line in command_lines:
            code, doc = execute(line.split())
            gated = [rec for rec in doc["records"] if "ok" in rec] if doc else []
            bad = [rec for rec in gated if rec["ok"] is not True]
            if code != 0 or not gated or bad or doc["verdict"] != "pass":
                failures.append(f"`{line}` exited {code}, failing records {bad}")
            checked += len(gated)
        capsys.readouterr()
        with capsys.disabled():
            report(num, name.replace("_", " "), not failures, "; ".join(failures)
                   or f"{checked} records ok across {len(command_lines)} run(s)")

    return test


# One test per row, collected under the row's name (test_01_plancherel_consistency, ...).
for _num, _name, _lines in ACCEPTANCE:
    globals()[f"test_{_num:02d}_{_name}"] = criterion(_num, _name, _lines)


def test_15_cli_determinism(capsys):
    code1, doc1 = execute(["all", "--seed", "7"])
    code2, doc2 = execute(["all", "--seed", "7"])
    capsys.readouterr()
    ok = code1 == 0 and code2 == 0 and doc1["content_hash"] == doc2["content_hash"]
    line = (f"all --seed 7 twice: exit codes ({code1}, {code2}), "
            f"hash {doc1['content_hash'][:16]} == {doc2['content_hash'][:16]}")
    with capsys.disabled():
        report(15, "seeded CLI determinism", ok, line)
    # the README quotes this line as its sample output
    assert f"[PASS] acceptance 15 seeded CLI determinism: {line}" in README.read_text()
