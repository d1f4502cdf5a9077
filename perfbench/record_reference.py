"""Record the reference reports the benchmark compares outputs against.

    python3 perfbench/record_reference.py [workload ...]

Runs every op of each workload's pool on the default seed (0) and writes
``perfbench/reference/<workload>.json``. Record only at a commit whose
reports are known good; every op must pass its own checks first. For
float witnesses it also records whether beta is determined by the input:
only when the restricted kernel is one-dimensional and the largest
coordinate is unique does the vector SVD returns not depend on LAPACK.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from run import BLAS_THREADS  # noqa: E402

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(BLAS_THREADS)  # float reports as the benchmark computes them

import workloads  # noqa: E402
from cubesense import matrices, witness  # noqa: E402

DEFAULT_SEED = 0
UNIQUE_GAP = 1e-6  # relative gap between the two largest |coordinates|


def beta_unique(op: workloads.WitnessOp) -> bool:
    import numpy as np

    columns = list(op.H.vertices())
    s = op.w.eigenvalue(op.mode)
    rows = witness._restricted_rows(matrices.build_matrix(op.w, op.mode), s, columns)
    a = np.zeros((len(rows), len(columns)))
    for i, row in enumerate(rows):
        for j, val in row.items():
            a[i, j] = val
    singular = np.linalg.svd(a, compute_uv=False)
    if singular[-2] <= op.mode.tol * max(singular[0], 1.0):
        return False
    omega = witness.positive_eigenvector_in_span(op.w, op.H, op.mode)
    top, second = sorted((abs(c) for _, c in omega.items()), reverse=True)[:2]
    return top - second > UNIQUE_GAP * top


def record(name: str, commit: str) -> None:
    wl = workloads.WORKLOADS[name]
    reports = {}
    for op in wl.build(DEFAULT_SEED):
        result = op()
        problems = op.problems(result)
        if problems:
            raise SystemExit(f"{name} {op.key}: {problems}; not recording")
        entry = {"report": op.reference_view(result)}
        if isinstance(op, workloads.WitnessOp) and not op.mode.is_exact:
            entry["beta_unique"] = beta_unique(op)
        reports[op.key] = entry
    out = BENCH / "reference" / f"{name}.json"
    out.parent.mkdir(exist_ok=True)
    payload = {"commit": commit, "seed": DEFAULT_SEED, "reports": reports}
    out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"{name}: {len(reports)} reports -> {out.relative_to(ROOT)}")


def main() -> None:
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    commit = proc.stdout.strip() or "unknown"
    for name in sys.argv[1:] or list(workloads.WORKLOADS):
        record(name, commit)


if __name__ == "__main__":
    main()
