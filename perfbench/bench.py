"""Closed-loop benchmark of the cubesense checker.

One client, this process, sends the library one op at a time and sends the
next only when the previous one has returned. The untraced run measures
end-to-end metrics for ``--seconds``; the traced run replays a fixed head
of the same op pool with span and counter wrappers installed from
``tracing``, removes them, replays it again untraced, and adds the CLI
layer (and, on ``scan``, the shard path). Every op's output is checked,
after the timed phase, against the benchmark's own recomputation and, for
inputs recorded in ``reference/``, against the reports of the seed commit.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import calibration
import tracing
import workloads
from cubesense import exhaustive

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
CLI_REPEATS = 3
SHARD_REPEATS = 3
SHARD_WORKERS = 2
TAIL_BEYOND = 10

clock = time.perf_counter

SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import importlib, sys
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
wl = workloads.WORKLOADS[{name!r}]
for module in wl.lazy_modules:
    importlib.import_module(module)
wl.build({seed})
elapsed = time.perf_counter() - t0
import calibration
loops = [calibration.python_loop() for _ in range(5)]
print(elapsed, elapsed * calibration.speed(loops))
"""

ENV_CHILD = """\
import json, numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except (TypeError, KeyError):
    blas = {}
print(json.dumps({"numpy": numpy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}))
"""

Record = Tuple[object, object, float, Optional[str]]  # op, result, latency, error


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples beyond) for the highest percentile that
    has at least ten samples beyond it: the 11th largest sample. With ten
    samples or fewer no percentile qualifies and the maximum is returned."""
    xs = sorted(samples)
    rank = len(xs) - TAIL_BEYOND if len(xs) > TAIL_BEYOND else len(xs)
    return xs[rank - 1], 100.0 * rank / len(xs), len(xs) - rank


def child_env() -> Dict[str, str]:
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def run_child(args: List[str], timeout: float = 120) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=ROOT,
        env=child_env(), timeout=timeout,
    )


def setup_time(wl: workloads.Workload, seed: int) -> Tuple[float, float]:
    """A fresh interpreter importing cubesense and the modules its path
    imports lazily, and building the workload's inputs: (seconds, seconds
    at the reference speed)."""
    code = SETUP_CHILD.format(src=str(SRC), bench=str(BENCH), name=wl.name, seed=seed)
    proc = run_child(["-c", code])
    if proc.returncode != 0:
        raise RuntimeError(f"setup child failed: {proc.stderr.strip()}")
    raw, scaled = proc.stdout.split()
    return float(raw), float(scaled)


def environment(blas_threads: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or commit
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((l.split(":", 1)[1].strip() for l in info if l.startswith("model name")), cpu)
    except OSError:
        pass
    proc = run_child(["-c", ENV_CHILD])
    numpy_info = json.loads(proc.stdout) if proc.returncode == 0 else {"numpy": None, "blas": None}
    return {
        "commit": commit,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **numpy_info,
        "blas_threads": blas_threads,
        "loadavg": list(os.getloadavg()),
    }


def load_reference(name: str) -> Dict[str, dict]:
    path = BENCH / "reference" / f"{name}.json"
    return json.loads(path.read_text())["reports"] if path.exists() else {}


def run_ops(ops: Sequence, tracer: Optional[tracing.Tracer] = None, seconds: Optional[float] = None,
            loop: Optional[Callable[[], float]] = None):
    """Call ops in turn, cycling the list until ``seconds`` have passed when
    given, else once through. Returns (records, wall time, loop times):
    with a calibration ``loop``, it is timed before each op and once after
    the last one, outside the ops' latencies."""
    records: List[Record] = []
    loops: List[float] = []
    start = stop = clock()
    deadline = None if seconds is None else start + seconds
    i = 0
    while deadline is not None or i < len(ops):
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.op_id = i
        if loop is not None:
            loops.append(loop())
        t0 = clock()
        try:
            result, error = op(), None
        except Exception as exc:  # a failed op is recorded and the loop goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        stop = clock()
        records.append((op, result, stop - t0, error))
        i += 1
        if deadline is not None and stop >= deadline:
            break
    if loop is not None:
        loops.append(loop())
    return records, stop - start, loops


def check(records: Sequence[Record], references: Dict[str, dict]) -> Tuple[int, int, List[str]]:
    """(failed ops, ops compared with a reference, problem lines)."""
    failed = compared = 0
    problems = []
    for op, result, _, error in records:
        found = [error] if error else op.problems(result)
        reference = references.get(op.key)
        if error is None and reference is not None:
            compared += 1
            found += op.compare(result, reference)
        if found:
            failed += 1
            problems.append(f"{op.key}: {'; '.join(found)}")
    return failed, compared, problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(wl: workloads.Workload, seed: int, seconds: float) -> dict:
    """End-to-end metrics. Times are reported at the reference speed (see
    ``calibration``); the raw times go into the notes."""
    setups = [setup_time(wl, seed) for _ in range(SETUP_REPEATS)]
    pool = wl.build(seed)
    pool[0]()  # lazy imports and first-call costs stay out of the timed phase
    records, wall, loops = run_ops(pool, seconds=seconds, loop=wl.calibration)
    latencies = [latency for _, _, latency, _ in records]
    scaled = [latency * factor for latency, factor in zip(latencies, calibration.op_speeds(loops))]
    tail_s, percentile, beyond = tail(scaled)
    failed, compared, problems = check(records, load_reference(wl.name))
    subsets = sum(getattr(op, "subsets", 0) for op, *_ in records)
    metrics = {
        "setup_s": statistics.median(s for _, s in setups),
        "op_p50_s": statistics.median(scaled),
        "op_tail_s": tail_s,
        "ops_per_s": len(records) / sum(scaled),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "op_tail_percentile": percentile,
        "op_tail_beyond": beyond,
        "samples": len(records),
        "failed_ratio": failed / len(records),
        "reference_compared": compared,
        "raw_setup_s": statistics.median(raw for raw, _ in setups),
        "raw_op_p50_s": statistics.median(latencies),
        "raw_op_tail_s": tail(latencies)[0],
        "raw_ops_per_s": len(records) / wall,
        "calibration_loop": statistics.median(loops),
    }
    if subsets:
        notes["subsets_per_s"] = subsets / sum(scaled)
        notes["raw_subsets_per_s"] = subsets / wall
    return {"attempted": len(records), "failed": failed, "metrics": metrics, "notes": notes,
            "problems": problems}


def cli_layer(wl: workloads.Workload) -> Tuple[float, float, List[str]]:
    """Whole-process time of one small CLI request, and that time minus the
    in-process library time of the same request."""
    process_s, outputs = [], set()
    for _ in range(CLI_REPEATS):
        t0 = clock()
        proc = run_child(["-m", "cubesense", *wl.cli_args])
        process_s.append(clock() - t0)
        outputs.add((proc.returncode, proc.stdout))
    library_s = []
    for _ in range(CLI_REPEATS):
        t0 = clock()
        result = wl.cli_op()
        library_s.append(clock() - t0)
    problems = wl.cli_op.problems(result)
    if len(outputs) != 1:
        problems.append("CLI stdout differs between invocations")
    if any(code != 0 for code, _ in outputs):
        problems.append(f"CLI exit codes {sorted(code for code, _ in outputs)}")
    process = statistics.median(process_s)
    return process, process - statistics.median(library_s), problems


def shard_layer() -> Tuple[float, int, List[str]]:
    """One n=4 plan at 1 and at SHARD_WORKERS workers: speed-up, whether
    every multi-worker run really used a process pool, and report equality."""
    times: Dict[int, List[float]] = {1: [], SHARD_WORKERS: []}
    reports = set()
    counts: Dict[str, int] = {}
    patcher = tracing.Patcher()
    tracing.watch_process_pools(patcher, counts)
    try:
        for _ in range(SHARD_REPEATS):
            for shards in times:
                plan = exhaustive.EnumerationPlan(4, 9, parallel_shards=shards)
                t0 = clock()
                report = exhaustive.enumerate_and_verify(plan)
                times[shards].append(clock() - t0)
                reports.add(json.dumps(report.to_json_dict(), sort_keys=True))
    finally:
        patcher.restore()
    problems = [] if len(reports) == 1 else ["shard count changed the report"]
    speedup = statistics.median(times[1]) / statistics.median(times[SHARD_WORKERS])
    return speedup, int(counts["pool_mapped"] == SHARD_REPEATS), problems


def traced(wl: workloads.Workload, seed: int, ops: Optional[Sequence] = None) -> dict:
    ops = list(ops if ops is not None else wl.build(seed)[: wl.traced_ops])
    ops[0]()  # imports numpy on the float path, so its svd gets wrapped
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_records, traced_wall, _ = run_ops(ops, tracer)
    finally:
        tracer.remove()
    replay_records, replay_wall, _ = run_ops(ops)
    failed, _, problems = check(traced_records + replay_records, load_reference(wl.name))
    attempted = len(traced_records) + len(replay_records)

    layers = tracing.self_times(tracer.spans())
    metrics: Dict[str, float] = {f"scalars.{key}": tracer.counts[key] for key in tracing.SCALAR_COUNTERS}
    for name in tracing.SPAN_NAMES:
        calls, self_s = layers.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
    cube = [layers.get(name, (0, 0.0)) for name in tracing.SPAN_NAMES if name.startswith("cube.")]
    metrics["cube.calls"] = sum(calls for calls, _ in cube)
    metrics["cube.self_s"] = sum(self_s for _, self_s in cube)
    shapes = [workloads.omega_counts(H, omega) for H, omega in tracer.eigenvectors]
    for i, key in enumerate(("rows", "cols", "free_col", "omega_max_bits")):
        metrics[f"witness.{key}"] = max((shape[i] for shape in shapes), default=0)
    metrics["trace.overhead_ratio"] = traced_wall / replay_wall

    process_s, overhead_s, cli_problems = cli_layer(wl)
    metrics["cli.process_s"] = process_s
    metrics["cli.overhead_s"] = overhead_s
    attempted += 1
    failed += bool(cli_problems)
    problems += [f"cli: {p}" for p in cli_problems]

    metrics["exhaustive.shard_speedup"] = metrics["exhaustive.pool_used"] = 0
    if wl.shard_check:
        speedup, pool_used, shard_problems = shard_layer()
        metrics["exhaustive.shard_speedup"] = speedup
        metrics["exhaustive.pool_used"] = pool_used
        attempted += 1
        failed += bool(shard_problems)
        problems += [f"shards: {p}" for p in shard_problems]
    notes = {"traced_ops": len(ops), "spans": len(tracer.starts),
             "pools_in_traced_ops": tracer.counts["pool_created"]}
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "notes": notes,
            "problems": problems, "tracer": tracer}


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def emitted(metrics: Dict[str, float], specs: Sequence[dict]) -> Dict[str, dict]:
    """The metrics BENCHMARK.json lists, in its order, with its units."""
    return {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in specs}


def main(name: str, seed: int, seconds: float, trace: bool, blas_threads: int) -> int:
    wl = workloads.WORKLOADS.get(name)
    if wl is None:
        print(f"error: unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 1
    spec = benchmark_spec()
    env = environment(blas_threads)
    print(f"# {wl.name} seed={seed} trace={int(trace)} " + " ".join(f"{k}={v}" for k, v in env.items()))
    outcome = traced(wl, seed) if trace else untraced(wl, seed, seconds)
    metrics = emitted(outcome["metrics"], spec["per_layer" if trace else "end_to_end"])
    for key, metric in metrics.items():
        print(f"{wl.name:<15} {key:<44} {metric['value']:>14.6g} {metric['unit']}")
    for key, value in outcome["notes"].items():
        print(f"{wl.name:<15} {key:<44} {value:>14.6g}")
    for problem in outcome["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)

    stamp = f"{wl.name}-trace{int(trace)}-seed{seed}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    if trace:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        outcome["tracer"].write(OUT / "spans" / f"{stamp}.tsv")
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }
    record = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": env, **result, "all_metrics": outcome["metrics"], "notes": outcome["notes"],
              "problems": outcome["problems"]}
    (OUT / "results" / f"{stamp}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0
