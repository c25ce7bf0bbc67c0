import csv
import json
import os
import subprocess
import json
import sys
from pathlib import Path

import pytest

from signalcraft import cli
from signalcraft.cli import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    ExperimentRecord,
    emit_report,
    main,
    parse_distribution,
)
from signalcraft.model import ValueDistribution, load_instance, make_example3


def run(*argv):
    return main(list(argv))


def test_gen_instance_matches_generator(tmp_path):
    out = tmp_path / "ex3.json"
    assert run("gen-instance", "example3", "--epsilon", "0.1", "--out", str(out)) == EXIT_OK
    assert load_instance(out) == make_example3(0.1)


def test_solve_public_exact_writes_scheme(tmp_path):
    inst = tmp_path / "ex3.json"
    run("gen-instance", "example3", "--epsilon", "0.1", "--out", str(inst))
    scheme_path = tmp_path / "scheme.json"
    assert run(
        "solve-public-exact", "--instance", str(inst), "--out", str(scheme_path)
    ) == EXIT_OK
    doc = json.loads(scheme_path.read_text())
    assert doc["kind"] == "explicit"
    for row in doc["table"].values():
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)


def test_compare_orders_by_revenue(tmp_path):
    inst = tmp_path / "ex3.json"
    run("gen-instance", "example3", "--epsilon", "0.1", "--out", str(inst))
    out = tmp_path / "cmp.csv"
    assert run(
        "compare", "--instance", str(inst),
        "--schemes", "full,none,optimal,private", "--out", str(out),
    ) == EXIT_OK
    with open(out) as f:
        rows = list(csv.DictReader(f))
    revenue = {r["scheme"]: float(r["revenue"]) for r in rows}
    assert revenue["full"] == pytest.approx(0.27)
    assert revenue["none"] == pytest.approx(0.28)
    assert revenue["optimal"] <= 0.30 + 1e-6
    assert revenue["private"] >= 0.90 - 1e-6
    ordered = [float(r["revenue"]) for r in rows]
    assert ordered == sorted(ordered, reverse=True)
    # the private row is exact, so nothing in compare takes a seed
    assert run("compare", "--instance", str(inst), "--seed", "1") == EXIT_USAGE


def test_malformed_instance_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run("solve-public-exact", "--instance", str(bad)) == EXIT_VALIDATION
    assert "malformed JSON" in capsys.readouterr().err

    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"kind": "kvs", "n": 2, "states": [], "bogus": 1}))
    assert run("solve-public-exact", "--instance", str(wrong)) == EXIT_VALIDATION

    nan_mass = tmp_path / "nan_mass.json"
    nan_mass.write_text(json.dumps({"kind": "kvs", "n": 2, "states": [
        {"id": "a", "mass": float("nan"), "values": [0.1, 0.2]},
        {"id": "b", "mass": 1.0, "values": [0.9, 0.3]},
    ]}))
    assert run("solve-public-exact", "--instance", str(nan_mass)) == EXIT_VALIDATION
    assert "not a finite" in capsys.readouterr().err

    # missing or mistyped fields are validation errors, not tracebacks
    state = {"id": "a", "mass": 1.0, "values": [0.1, 0.2]}
    bvs = {"kind": "bvs", "n": 2, "high": {"point": 1}, "low": {"point": 0}}
    for doc in (
        {"kind": "kvs", "states": [state]},
        {"kind": "kvs", "n": 2, "states": [{**state, "mass": "abc"}]},
        {"kind": "kvs", "n": 2, "states": [{**state, "values": 0.5}]},
        {**bvs, "prior": {"explicit": [{"bits": "0x", "mass": 1.0}]}},
    ):
        wrong.write_text(json.dumps(doc))
        assert run("solve-public-exact", "--instance", str(wrong)) == EXIT_VALIDATION
        assert "validation error" in capsys.readouterr().err

    # a bidder count that is not an integer is an error, not truncated to
    # int(n), which the rest of the document fits
    for n, width in ((2.7, 2), (True, 2), ("3", 3)):
        values = [0.1 * (b + 1) for b in range(width)]
        for doc, argv in (
            ({"kind": "kvs", "n": n, "states": [{**state, "values": values}]},
             ["solve-public-exact"]),
            ({**bvs, "n": n, "prior": {"iid": 0.2}}, ["bvs-pool", "--state", "01" + "0" * (width - 2)]),
        ):
            wrong.write_text(json.dumps(doc))
            assert run(*argv, "--instance", str(wrong)) == EXIT_VALIDATION
            assert "n must be an integer" in capsys.readouterr().err


def test_internal_error_is_not_a_solver_failure(tmp_path, monkeypatch):
    def broken(args):
        raise RuntimeError("a bug, not a solver failure")

    monkeypatch.setattr(cli, "cmd_gen_instance", broken)
    with pytest.raises(RuntimeError, match="a bug"):
        run("gen-instance", "example3", "--out", str(tmp_path / "x.json"))


def test_unknown_command_exits_64(capsys):
    assert run("definitely-not-a-command") == EXIT_USAGE
    assert run("solve-public-exact", "--no-such-flag") == EXIT_USAGE


def test_kvs_command_rejects_bvs_instance(tmp_path):
    inst = tmp_path / "bvs.json"
    run("gen-instance", "theorem2", "--n", "4", "--epsilon", "0.1", "--out", str(inst))
    assert run("solve-public-exact", "--instance", str(inst)) == EXIT_VALIDATION


def test_sign_and_eval_public_mc(tmp_path):
    inst = tmp_path / "ex3.json"
    run("gen-instance", "example3", "--epsilon", "0.1", "--out", str(inst))
    assert run(
        "sign-public-mc", "--instance", str(inst), "--state", "A",
        "--epsilon", "0.2", "--override-k", "200", "--seed", "7",
    ) == EXIT_OK
    assert run(
        "eval-public-mc", "--instance", str(inst), "--epsilon", "0.3",
        "--override-k", "100", "--trials", "20", "--seed", "1",
    ) == EXIT_OK


def test_bvs_pool_and_check(tmp_path):
    inst = tmp_path / "ex2.json"
    run("gen-instance", "example2", "--n", "4", "--out", str(inst))
    pool_out = tmp_path / "pool.json"
    assert run(
        "bvs-pool", "--instance", str(inst), "--state", "0100",
        "--seed", "3", "--out", str(pool_out),
    ) == EXIT_OK
    doc = json.loads(pool_out.read_text())
    assert doc["bidders"] == [0, 1, 2, 3]
    for state in ("0200", "01a0", "010", "01001"):
        assert run("bvs-pool", "--instance", str(inst), "--state", state) == EXIT_VALIDATION
    assert run(
        "bvs-check-lemma6", "--n", "22", "--high", "uniform:0,1",
        "--low", "point:0", "--theta-weight", "1", "--trials", "5000",
    ) == EXIT_OK
    assert run(
        "bvs-check-lemma6", "--n", "10", "--high", "uniform:0,1",
        "--low", "point:0", "--theta-weight", "1",
    ) == EXIT_VALIDATION


def test_private_scheme_report(tmp_path):
    inst = tmp_path / "ex3.json"
    run("gen-instance", "example3", "--epsilon", "0.1", "--out", str(inst))
    report = tmp_path / "private.csv"
    assert run(
        "private-scheme", "--instance", str(inst), "--epsilon", "0.05",
        "--delta", "0.01", "--seed", "1", "--trials", "500",
        "--report", str(report),
    ) == EXIT_OK
    with open(report) as f:
        rows = list(csv.DictReader(f))
    assert {r["state"] for r in rows} == {"A", "B"}
    assert all(float(r["worst_revenue"]) >= 0.9 - 1e-9 for r in rows)


def test_oracle_subcommands(tmp_path):
    kvs = tmp_path / "ex3.json"
    run("gen-instance", "example3", "--epsilon", "0.1", "--out", str(kvs))
    bvs = tmp_path / "t2.json"
    run("gen-instance", "theorem2", "--n", "4", "--epsilon", "0.1", "--out", str(bvs))
    assert run("oracle", "public-optimal", "--instance", str(kvs)) == EXIT_OK
    assert run(
        "oracle", "partition-welfare", "--instance", str(bvs), "--max-signals", "2"
    ) == EXIT_OK
    assert run("oracle", "theorem2", "--n", "16", "--epsilon", "0.3") == EXIT_OK
    assert run(
        "oracle", "binom-tail", "--m", "1000", "--p", "0.2", "--k", "100"
    ) == EXIT_OK


def test_parse_distribution():
    assert parse_distribution("uniform:0,1") == ValueDistribution.uniform(0, 1)
    assert parse_distribution("point:0") == ValueDistribution.point(0)
    assert parse_distribution("bernoulli:1,0.5") == ValueDistribution.bernoulli(1, 0.5)
    with pytest.raises(Exception):
        parse_distribution("uniform")
    with pytest.raises(Exception):
        parse_distribution("cauchy:0,1")


def test_emit_report_shapes(tmp_path):
    record = ExperimentRecord(
        "demo", "abc", 7, {"alpha": 0.25}, {"revenue": 1 / 3}, 0.01
    )
    base = str(tmp_path / "report")
    csv_path, json_path = emit_report([record], base)
    text = open(csv_path).read()
    assert "0.333333333333" in text  # 12 significant digits
    assert "param:alpha" in text and "metric:revenue" in text
    doc = json.loads(open(json_path).read())
    assert doc[0]["seed"] == 7
    with pytest.raises(Exception):
        emit_report([], base)


def test_record_replay_is_byte_identical(tmp_path):
    inst = tmp_path / "ex3.json"
    run("gen-instance", "example3", "--epsilon", "0.1", "--out", str(inst))

    def run_once(base):
        assert run(
            "eval-public-mc", "--instance", str(inst), "--epsilon", "0.3",
            "--override-k", "100", "--trials", "25", "--seed", "42",
            "--record", str(tmp_path / base),
        ) == EXIT_OK
        return (tmp_path / (base + ".csv")).read_bytes()

    assert run_once("first") == run_once("second")

    def run_private(base):
        assert run(
            "private-scheme", "--instance", str(inst), "--seed", "9",
            "--trials", "200", "--record", str(tmp_path / base),
        ) == EXIT_OK
        return (tmp_path / (base + ".csv")).read_bytes()

    assert run_private("p1") == run_private("p2")


# Run in a fresh interpreter, since this test process has scipy loaded already.
IMPORT_GUARD = """
import json
import sys
import signalcraft.cli as cli
def loaded():
    print("scipy:", json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
loaded()
ex2, ex3 = sys.argv[1:]
assert cli.main(["gen-instance", "example2", "--n", "4", "--out", ex2]) == 0
assert cli.main(["oracle", "theorem2", "--n", "16", "--epsilon", "0.3"]) == 0
assert cli.main(["oracle", "binom-tail", "--m", "10000", "--p", "0.1", "--k", "1100"]) == 0
assert cli.main(["bvs-pool", "--instance", ex2, "--state", "0100", "--seed", "3"]) == 0
loaded()
# the production LP commands of the README on example 3: their LPs are
# small enough for the native simplex
assert cli.main(["gen-instance", "example3", "--epsilon", "0.1", "--out", ex3]) == 0
for argv in (
    ["solve-public-exact"],
    ["sign-public-mc", "--state", "A", "--epsilon", "0.2", "--seed", "7"],
    ["eval-public-mc", "--epsilon", "0.2", "--trials", "1000", "--seed", "1"],
    ["compare", "--schemes", "full,none,optimal,private"],
):
    assert cli.main([*argv, "--instance", ex3]) == 0
loaded()
"""


def test_commands_without_an_lp_load_no_scipy(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    files = [str(tmp_path / "ex2.json"), str(tmp_path / "ex3.json")]
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, *files],
        cwd=tmp_path,  # compare writes compare.csv into the working directory
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    after_import, after_commands, after_lp_commands = [
        json.loads(line.removeprefix("scipy:"))
        for line in proc.stdout.splitlines() if line.startswith("scipy:")
    ]
    assert after_import == []
    for heavy in ("scipy.stats", "scipy.special", "scipy.integrate"):
        assert heavy not in after_commands
    assert after_lp_commands == []
