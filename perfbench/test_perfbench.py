"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import concurrent.futures  # noqa: E402

import numpy  # noqa: E402,F401  imported so the svd wrapper is installed too
import pytest  # noqa: E402

import bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cubesense import cube, matrices, scalars  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.mark.parametrize(
    "n, value, percentile, beyond",
    [
        (100, 90, 90.0, 10),
        (11, 1, 100 / 11, 10),
        (55, 45, 100 * 45 / 55, 10),
        (10, 10, 100.0, 0),  # no percentile has ten beyond: the maximum
        (1, 1, 100.0, 0),
    ],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, value, percentile, beyond):
    samples = list(range(n, 0, -1))  # 1..n, unsorted
    assert bench.tail(samples) == (value, pytest.approx(percentile), beyond)


def test_self_time_subtracts_union_of_children():
    spans = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 3.0, 0, 0),
        ("b", 2.0, 5.0, 0, 0),  # overlaps its sibling: counted once
        ("c", 9.0, 12.0, 0, 0),  # clipped to the parent's end
        ("d", 1.5, 2.5, 1, 0),  # grandchild: only its own parent loses it
    ]
    times = tracing.self_times(spans)
    assert times["a"] == (1, pytest.approx(10 - (4 + 1)))
    assert times["b"] == (2, pytest.approx((2 - 1) + 3))
    assert times["c"] == (1, pytest.approx(3))
    assert times["d"] == (1, pytest.approx(1))


def _patchable():
    owners = [m for name, m in sys.modules.items() if name == "cubesense" or name.startswith("cubesense.")]
    owners += [scalars.QuadraticScalar, matrices.SignedCubeMatrix, matrices.EigenSplit,
               cube.InducedSubgraph, numpy.linalg, concurrent.futures]
    return owners


def test_wrappers_fully_removed():
    concurrent.futures.ProcessPoolExecutor  # resolve the lazy attribute first
    before = [dict(vars(owner)) for owner in _patchable()]
    mul = vars(scalars.QuadraticScalar)["__mul__"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.installed > 0
        assert vars(scalars.QuadraticScalar)["__mul__"] is not mul
        workloads.witness_exact_pool(0)[0]()
    finally:
        tracer.remove()
    assert tracer.installed == 0
    assert tracer.counts["qs_mul"] > 0 and len(tracer.starts) > 0
    for owner, saved in zip(_patchable(), before):
        now = vars(owner)
        assert now.keys() == saved.keys(), owner
        assert all(now[key] is saved[key] for key in saved), owner


def _deterministic(metrics):
    return {k: v for k, v in metrics.items() if tracing.DETERMINISTIC.match(k)}


@pytest.mark.parametrize("name", ["witness-exact", "operator-exact"])
def test_traced_counts_repeat_exactly(name):
    wl = workloads.WORKLOADS[name]
    ops = wl.build(3)[:2]
    first = bench.traced(wl, 3, ops)
    second = bench.traced(wl, 3, ops)
    assert first["failed"] == 0 and second["failed"] == 0
    counts = _deterministic(first["metrics"])
    assert counts["scalars.qs_mul"] > 0 and counts["witness.rows" if name == "witness-exact" else "matrices.apply.calls"] > 0
    assert counts == _deterministic(second["metrics"])


def test_names_follow_grammar_and_benchmark_json():
    spec = bench.benchmark_spec()
    names = [s["name"] for s in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert all(UNIT.match(s["unit"]) for s in spec["end_to_end"] + spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert any(s["name"] == "setup_s" and s["unit"] == "s" for s in spec["end_to_end"])

    scan = workloads.WORKLOADS["scan"]
    untraced = bench.untraced(scan, 0, 0.2)
    assert untraced["failed"] == 0
    assert bench.emitted(untraced["metrics"], spec["end_to_end"]).keys() == set(
        s["name"] for s in spec["end_to_end"]
    )
    assert all(v > 0 for v in untraced["metrics"].values())
    traced = bench.traced(scan, 0, scan.build(0)[:1])
    assert traced["failed"] == 0
    layer = bench.emitted(traced["metrics"], spec["per_layer"])
    assert list(layer) == [s["name"] for s in spec["per_layer"]]
    assert traced["metrics"]["scalars.qs_mul"] == 0
    json.dumps(layer)


def test_checks_catch_a_wrong_report():
    op = workloads.witness_exact_pool(0)[0]
    report = op()
    assert op.problems(report) == []
    members = op.H.members
    outside = next(u for u in range(64) if not members >> u & 1)
    forged = type(report)(**{**report.__dict__, "beta": outside})
    assert op.problems(forged)
