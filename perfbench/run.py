"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload witness-exact --seed 0 --seconds 25 --trace 0

Prints one line per metric, then one JSON object as the last line. Exits
with code 2, printing no result, when the tree holds no cubesense sources.
"""

import argparse
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
BLAS_THREADS = 1  # fixed, at most nproc; recorded with every result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "cubesense" / "__init__.py").is_file():
        print(f"error: no cubesense sources at {SRC}", file=sys.stderr)
        return 2
    # before anything imports numpy; children inherit the environment
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import bench

    return bench.main(args.workload, args.seed, args.seconds, bool(args.trace), BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
