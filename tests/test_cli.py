"""CLI contract: flags, exit codes, JSON shapes, determinism.

Core claims:
    - exit 0 on success, 1 on usage/input errors, 2 on invariant failures
    - every JSON output validates against the schemas shipped in docs/, as
      do the library's exhaustive reports of either strategy
    - ``exhaustive --help`` says what ``--shards`` does
    - repeated invocations with fixed flags are byte-identical, including
      multi-shard exhaustive runs
    - the matrix dump and subgraph file formats round-trip
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from cubesense import EnumerationPlan, Exhaustive, RandomSample, enumerate_and_verify

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def run_cli(*args, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "cubesense", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect, (proc.returncode, proc.stdout, proc.stderr)
    return proc


def test_verify_operator_uniform():
    proc = run_cli("verify-operator", "--n", "4", "--a", "1", "--b", "1")
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, load_schema("operator_report.schema.json"))
    assert payload["ok"]
    assert payload["pairing"] == "4"
    assert payload["eigenvalue"] == "2"
    assert payload["spectral"]["trace"] == "0"
    assert payload["spectral"]["multiplicity_plus"] == 8
    assert payload["spectral"]["multiplicity_minus"] == 8
    assert payload["square_identity"]["expected"] == "4"
    assert payload["square_identity"]["max_deviation"] == 0


def test_verify_operator_explicit_weights():
    proc = run_cli("verify-operator", "--n", "2", "--v", "1,2", "--lambda", "3,4")
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, load_schema("operator_report.schema.json"))
    assert payload["pairing"] == "11"
    assert payload["square_identity"]["expected"] == "11"
    assert payload["ok"]


def test_verify_operator_rejects_negative_pairing():
    proc = run_cli(
        "verify-operator", "--n", "2", "--v", "1,-2", "--lambda", "1,1", expect=1
    )
    assert "positive" in proc.stderr


def test_verify_operator_float_mode():
    proc = run_cli("verify-operator", "--n", "3", "--a", "2", "--b", "1/2",
                   "--mode", "float")
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, load_schema("operator_report.schema.json"))
    assert payload["mode"] == "float"
    assert payload["ok"]
    assert payload["pairing"] == "3"


def test_dump_matrix(tmp_path):
    out = tmp_path / "matrix.txt"
    run_cli("verify-operator", "--n", "1", "--a", "1", "--b", "1",
            "--dump-matrix", str(out))
    assert out.read_text() == "1 0 1\n0 1 1\n"


def test_witness_inline():
    proc = run_cli("witness", "--subgraph", "00,01,11")
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, load_schema("witness_report.schema.json"))
    assert payload == {
        "n": 2,
        "mode": "exact",
        "C": "1",
        "beta": "01",
        "omega_beta": "1",
        "indegree": 1,
        "outdegree": 1,
        "degree": 2,
        "bound_lhs": "0+1*sqrt(2)",
        "bound_rhs": "2",
        "certified": True,
        "marginal": False,
    }


def test_witness_from_file_with_ratio(tmp_path):
    subgraph = tmp_path / "H.txt"
    subgraph.write_text("# lower half plus one vertex of Q_4\n" + "\n".join(
        format(u, "04b") for u in list(range(8)) + [8]
    ) + "\n")
    proc = run_cli("witness", "--subgraph", str(subgraph), "--C", "2")
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, load_schema("witness_report.schema.json"))
    assert payload["C"] == "2"
    assert payload["beta"] == "0000"
    assert payload["bound_lhs"] == "2"
    assert payload["bound_rhs"] == "2"
    assert payload["certified"] is True


def test_witness_random_source_requires_n():
    run_cli("witness", "--subgraph", "random:5:7", expect=1)
    proc = run_cli("witness", "--subgraph", "random:5:7", "--n", "3")
    payload = json.loads(proc.stdout)
    assert payload["certified"] is True


def test_witness_float_mode():
    proc = run_cli("witness", "--subgraph", "00,01,11", "--mode", "float")
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, load_schema("witness_report.schema.json"))
    assert payload["mode"] == "float"
    assert payload["certified"] is True
    assert payload["omega_beta"] == "1"


def test_witness_float_solve_refused_before_it_allocates():
    # n = 16 would need a ~4 GiB dense solve; the popcount check refuses it
    start = time.perf_counter()
    proc = run_cli(
        "witness", "--n", "16", "--subgraph", "random:32769:0", "--mode", "float", expect=1
    )
    assert "MiB bound" in proc.stderr
    assert proc.stdout == ""
    assert time.perf_counter() - start < 30


def test_witness_float_solve_refused_at_n15():
    # minimal H at n = 15: one copy of M[E', O] (505 MiB) would fit the bound,
    # the three copies its QR holds at once (1515 MiB) do not
    start = time.perf_counter()
    proc = run_cli(
        "witness", "--n", "15", "--subgraph", "random:16385:0", "--mode", "float", expect=1
    )
    assert "MiB bound" in proc.stderr
    assert proc.stdout == ""
    assert time.perf_counter() - start < 30


def test_witness_float_full_cube_needs_no_dense_solve():
    # the whole of Q_15 leaves no even vertex outside H, so no QR runs
    proc = run_cli("witness", "--n", "15", "--subgraph", "random:32768:0", "--mode", "float")
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, load_schema("witness_report.schema.json"))
    assert payload["certified"] is True


def test_tol_reaches_auto_mode():
    # n = 13 is float under --mode auto, so --tol must reach its residual check
    proc = run_cli("witness", "--n", "13", "--subgraph", "random:4097:0", "--tol", "1e-300",
                   expect=1)
    assert "residual exceeds tolerance" in proc.stderr
    assert proc.stdout == ""


def test_witness_small_subgraph_exit_code():
    proc = run_cli("witness", "--subgraph", "00,01", expect=1)
    assert "more than half" in proc.stderr


def test_weighted_scan():
    proc = run_cli("weighted-scan", "--subgraph", "000,001,010,011,101",
                   "--C-grid", "0.5,1,2")
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, load_schema("weighted_scan.schema.json"))
    assert [r["C"] for r in payload] == ["1/2", "1", "2"]
    assert all(r["certified"] for r in payload)
    assert [r["beta"] for r in payload] == ["000", "001", "011"]


def test_exhaustive_basic():
    proc = run_cli("exhaustive", "--n", "3")
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, load_schema("exhaustive_report.schema.json"))
    assert payload["subsets_checked"] == 56
    assert payload["min_max_degree"] == 2
    assert payload["histogram"] == {"2": 24, "3": 32}
    assert payload["violations"] == 0


def test_exhaustive_random_strategy():
    proc = run_cli("exhaustive", "--n", "4", "--strategy", "random:50:11")
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, load_schema("exhaustive_report.schema.json"))
    assert payload["plan"]["strategy"] == {"kind": "random", "count": 50, "seed": 11}
    assert payload["subsets_checked"] == 50
    assert payload["violations"] == 0


@pytest.mark.parametrize(
    "strategy", [Exhaustive(), RandomSample(50, 11)], ids=["exhaustive", "random"]
)
def test_exhaustive_library_reports_match_schema(strategy):
    plan = EnumerationPlan(4, 9, strategy, parallel_shards=2)
    payload = enumerate_and_verify(plan).to_json_dict()
    jsonschema.validate(payload, load_schema("exhaustive_report.schema.json"))


def test_exhaustive_help_says_what_shards_do():
    help_text = " ".join(run_cli("exhaustive", "--help").stdout.split())
    assert "--shards SHARDS shard jobs for an exhaustive plan, at most one per CPU; " in help_text
    assert "a seeded sample runs in one process" in help_text


def test_exhaustive_budget_exit():
    proc = run_cli("exhaustive", "--n", "5", expect=1)
    assert "budget" in proc.stderr


def test_exhaustive_random_budget_exit():
    proc = run_cli(
        "exhaustive", "--n", "4", "--strategy", "random:11:0", "--budget", "10", expect=1
    )
    assert "budget" in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("verify-operator", "--n", "3", "--a", "2", "--b", "3"),
        ("witness", "--subgraph", "00,01,11"),
        ("witness", "--subgraph", "random:9:3", "--n", "4", "--C", "1/2"),
        ("witness", "--subgraph", "0000,0001,0010,0100,1000,0011,0101,1001,0110",
         "--mode", "float"),
        ("weighted-scan", "--subgraph", "000,001,010,011,101", "--C-grid", "0.5,1,2"),
        ("exhaustive", "--n", "3"),
        ("exhaustive", "--n", "4", "--shards", "4"),
        ("exhaustive", "--n", "4", "--strategy", "random:64:123", "--shards", "3"),
    ],
)
def test_repeated_runs_byte_identical(args):
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout


def test_shard_count_does_not_change_output():
    single = run_cli("exhaustive", "--n", "4", "--shards", "1")
    sharded = run_cli("exhaustive", "--n", "4", "--shards", "8")
    assert single.stdout == sharded.stdout


def test_text_format():
    proc = run_cli("witness", "--subgraph", "00,01,11", "--format", "text")
    assert "certified: True" in proc.stdout
    assert "beta: 01" in proc.stdout
    proc = run_cli("exhaustive", "--n", "2", "--format", "text")
    assert "min_max_degree: 2" in proc.stdout
    proc = run_cli("weighted-scan", "--subgraph", "00,01,11", "--C-grid", "1,2",
                   "--format", "text")
    assert "[0].C: 1" in proc.stdout
    assert "[1].C: 2" in proc.stdout


def test_usage_errors_exit_one():
    run_cli("verify-operator", expect=1)  # missing --n
    run_cli("no-such-command", expect=1)
    run_cli("verify-operator", "--n", "2", "--v", "1,2", expect=1)  # missing --lambda
    run_cli("exhaustive", "--n", "3", "--strategy", "bogus", expect=1)
    run_cli("witness", "--subgraph", "no/such/file.txt", expect=1)
    run_cli("witness", "--subgraph", "00,01,11", "--C", "-1", expect=1)
    run_cli("witness", "--subgraph", "00,01,11", "--mode", "float", "--tol", "inf", expect=1)


@pytest.mark.parametrize("text", ["random:9", "random:9:0:1", "random:x:0", "random:9:1/2"])
@pytest.mark.parametrize(
    "args,form",
    [
        (["witness", "--n", "4", "--subgraph"], "source must look like random:<size>:<seed>"),
        (["exhaustive", "--n", "4", "--strategy"], "strategy must look like random:<count>:<seed>"),
    ],
)
def test_malformed_random_sources_exit_one(args, form, text, capsys):
    # a missing field, an extra field or a non-integer: exit 1, naming the form
    import cubesense.cli as cli

    assert cli.main([*args, text]) == 1
    assert form in capsys.readouterr().err


def test_uncertified_witness_exits_two(monkeypatch, capsys):
    # the theorem makes an uncertified report unreachable through honest
    # inputs; force one to pin the exit-code mapping
    import dataclasses

    import cubesense.cli as cli

    real = cli.run_pipeline
    monkeypatch.setattr(
        cli,
        "run_pipeline",
        lambda w, H, mode=None: dataclasses.replace(real(w, H, mode), certified=False),
    )
    assert cli.main(["witness", "--subgraph", "00,01,11"]) == 2
    capsys.readouterr()


def test_invariant_violation_exits_two(monkeypatch, capsys):
    import cubesense.cli as cli
    from cubesense import InvariantViolation

    def boom(w, H, mode=None):
        raise InvariantViolation("forced")

    monkeypatch.setattr(cli, "run_pipeline", boom)
    assert cli.main(["witness", "--subgraph", "00,01,11"]) == 2
    assert "invariant failure" in capsys.readouterr().err


def test_numerical_rank_error_exits_one(monkeypatch, capsys):
    import cubesense.cli as cli
    from cubesense import NumericalRankError

    def flaky(w, H, mode=None):
        raise NumericalRankError("rerun in exact mode")

    monkeypatch.setattr(cli, "run_pipeline", flaky)
    assert cli.main(["witness", "--subgraph", "00,01,11"]) == 1
    assert "exact mode" in capsys.readouterr().err


def test_random_source_checks_dimension_before_drawing(monkeypatch, capsys):
    # a draw over 2^40 vertices would build ints of up to 2^40 bits; the
    # dimension must be refused before sample_mask ever runs
    import cubesense.cli as cli

    def never(*args):
        raise AssertionError("sample_mask called before the dimension check")

    monkeypatch.setattr(cli.exhaustive_mod, "sample_mask", never)
    assert cli.main(["witness", "--n", "40", "--subgraph", "random:2:0"]) == 1
    assert "dimension must be in" in capsys.readouterr().err
