"""Frozen CLI reports: stdout must match the committed goldens byte for byte.

Each case runs ``cli.main`` in process and compares its stdout with
``tests/goldens/<name>``. Float ``witness`` runs are left out: their digits
depend on the BLAS build. Float ``verify-operator`` is pure Python binary64
arithmetic and is pinned.

The n = 5 exhaustive reports (every 16- and 17-subset of Q_5) take
seconds to minutes, so CI diffs them in their own steps; here the
committed files are checked for internal consistency. The every-size
n = 5 golden holds the text reports of k = 1..32 in turn; CI diffs all 32
sizes, and here the sizes that take well under a second are run.

To re-record after an intended report change: ``PYTHONPATH=src python
tests/test_cli_goldens.py``. The every-size golden is the output of
``exhaustive --n 5 --size k --budget 601080390 --format text`` for
k = 1..32, concatenated in order.
"""

import json
import math
from pathlib import Path

import pytest

from cubesense import cli
from cubesense.cube import InducedSubgraph, parse_vertex

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

GOLDENS = {
    "verify-operator-uniform.json": ["verify-operator", "--n", "4", "--a", "1", "--b", "1"],
    "verify-operator-irrational.json": ["verify-operator", "--n", "3", "--a", "2", "--b", "1"],
    "verify-operator-explicit.json": [
        "verify-operator", "--n", "3", "--v", "1,2,1/3", "--lambda", "3,1/2,2", "--seed", "5",
    ],
    "verify-operator-float.json": [
        "verify-operator", "--n", "4", "--v", "1,2,1/3,5", "--lambda", "3,1/2,2,1/7",
        "--mode", "float",
    ],
    "verify-operator-float-uniform.json": [
        "verify-operator", "--n", "5", "--a", "2", "--b", "1/2", "--mode", "float",
    ],
    "witness-exact-n5.json": ["witness", "--n", "5", "--subgraph", "random:17:0", "--mode", "exact"],
    "witness-exact-n6-C2.txt": [
        "witness", "--n", "6", "--subgraph", "random:33:1", "--C", "2", "--mode", "exact",
        "--format", "text",
    ],
    "witness-auto-ab.json": ["witness", "--n", "4", "--subgraph", "random:9:3", "--a", "2", "--b", "1"],
    "witness-exact-n7-C3over5.json": [
        "witness", "--n", "7", "--subgraph", "random:65:4", "--C", "3/5", "--mode", "exact",
    ],
    "weighted-scan-exact.json": [
        "weighted-scan", "--n", "5", "--subgraph", "random:17:2", "--C-grid", "1/2,1,2,3",
        "--mode", "exact",
    ],
    "weighted-scan-exact.txt": [
        "weighted-scan", "--n", "4", "--subgraph", "random:10:6", "--C-grid", "1,5/4",
        "--mode", "exact", "--format", "text",
    ],
    "exhaustive-random.json": ["exhaustive", "--n", "5", "--strategy", "random:500:42"],
    "exhaustive-n4.txt": ["exhaustive", "--n", "4", "--format", "text"],
}

N5_GOLDEN = GOLDEN_DIR / "exhaustive-n5-size17.json"
N5_EVERY_SIZE = GOLDEN_DIR / "exhaustive-n5-every-size.txt"


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_cli_report_matches_golden(name, capsys):
    assert cli.main(GOLDENS[name]) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / name).read_text()


def n5_reports():
    """The every-size golden cut into its reports, k = 1..32 in turn."""
    return ["plan.n:" + part for part in N5_EVERY_SIZE.read_text().split("plan.n:")[1:]]


def test_n5_every_size_golden_holds_each_size_once():
    reports = n5_reports()
    assert len(reports) == 32
    for size, report in enumerate(reports, 1):
        assert f"\nplan.subset_size: {size}\n" in report
        assert f"\nsubsets_checked: {math.comb(32, size)}\n" in report


# the sizes that take under 0.3 s each; k = 11..22 take seconds
@pytest.mark.parametrize("size", [*range(1, 11), *range(23, 33)])
def test_n5_every_size_golden(size, capsys):
    args = ["exhaustive", "--n", "5", "--size", str(size), "--budget", "601080390"]
    args += ["--format", "text"]
    assert cli.main(args) == (2 if size <= 16 else 0)  # violations up to half the cube
    assert capsys.readouterr().out == n5_reports()[size - 1]


def test_n5_exhaustive_golden_is_consistent():
    report = json.loads(N5_GOLDEN.read_text())
    assert report["plan"] == {
        "n": 5,
        "subset_size": 17,
        "strategy": {"kind": "exhaustive"},
        "budget": 565722720,
    }
    assert sum(report["histogram"].values()) == math.comb(32, 17) == 565722720
    assert report["subsets_checked"] == 565722720
    assert report["violations"] == 0
    assert report["min_max_degree"] == math.isqrt(5 - 1) + 1 == 3
    assert min(int(d) for d in report["histogram"]) == 3
    argmin = [parse_vertex(line, 5) for line in report["argmin_subset"]]
    assert len(set(argmin)) == 17
    assert InducedSubgraph.from_vertices(5, argmin).max_degree()[1] == 3


def test_n5_size16_golden_is_consistent():
    # half the cube: the two parity classes have max degree 0, and the even
    # one comes first in colex order
    report = json.loads((GOLDEN_DIR / "exhaustive-n5-size16.json").read_text())
    assert report["plan"]["subset_size"] == 16 and report["plan"]["budget"] == 601080390
    assert sum(report["histogram"].values()) == math.comb(32, 16) == report["subsets_checked"]
    assert report["violations"] == sum(v for d, v in report["histogram"].items() if int(d) < 3)
    assert report["violations"] == 2952 and report["histogram"]["0"] == 2
    argmin = [parse_vertex(line, 5) for line in report["argmin_subset"]]
    assert argmin == [u for u in range(32) if u.bit_count() % 2 == 0]
    assert report["min_max_degree"] == InducedSubgraph.from_vertices(5, argmin).max_degree()[1] == 0


if __name__ == "__main__":
    import contextlib
    import io

    for name, args in GOLDENS.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(args) == 0, name
        (GOLDEN_DIR / name).write_text(buf.getvalue())
        print(f"wrote {name}")
