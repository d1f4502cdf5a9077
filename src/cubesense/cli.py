"""Command-line front end; every subcommand prints a machine-readable report.

Exit codes: 0 success (all identities hold / witness certified), 1 usage or
input error, 2 mathematical-invariant failure (always a bug, never an
expected outcome). Reports go to stdout, diagnostics to stderr. No
environment variables: flags only, for reproducibility.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from . import exhaustive as exhaustive_mod
from .cube import InducedSubgraph, check_dimension, parse_subgraph
from .exterior import WeightConfig
from .matrices import build_matrix, spectral_report, verify_square_identity
from .scalars import DEFAULT_TOL, ScalarMode, parse_rational, resolve_mode
from .witness import InvariantViolation, NumericalRankError, run_pipeline, weighted_scan


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract wants 1
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_mode_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mode",
        choices=["auto", "exact", "float"],
        default="auto",
        help="scalar arithmetic: exact field arithmetic or binary64 (default: auto by n)",
    )
    parser.add_argument(
        "--tol", type=float, default=DEFAULT_TOL, help="float-mode tolerance (default %(default)g)"
    )
    parser.add_argument(
        "--format", choices=["json", "text"], default="json", help="output format"
    )


def _resolve_mode(args: argparse.Namespace, n: int) -> ScalarMode:
    return ScalarMode(resolve_mode(n, None).kind if args.mode == "auto" else args.mode, args.tol)


def _parse_coords(text: str, n: int, what: str) -> List[Fraction]:
    coords = [parse_rational(part) for part in text.split(",")]
    if len(coords) != n:
        raise ValueError(f"{what} needs exactly {n} comma-separated coordinates")
    return coords


def _weights_from_flags(args: argparse.Namespace, n: int) -> WeightConfig:
    v = getattr(args, "v", None)
    lam = getattr(args, "lam", None)
    if v is not None or lam is not None:
        if v is None or lam is None:
            raise ValueError("--v and --lambda must be given together")
        return WeightConfig(n, tuple(_parse_coords(lam, n, "--lambda")),
                            tuple(_parse_coords(v, n, "--v")))
    ratio = getattr(args, "ratio", None)
    if ratio is not None:
        c = parse_rational(ratio)
        if c <= 0:
            raise ValueError("--C must be positive")
        return WeightConfig.from_ratio(n, c)
    a = parse_rational(args.a)
    b = parse_rational(args.b)
    if a <= 0 or b <= 0:
        raise ValueError("uniform weights --a and --b must be positive")
    return WeightConfig.uniform(n, a, b)


def _random_fields(text: str, what: str, field: str) -> Tuple[int, int]:
    """The two integers of ``random:<field>:<seed>``, the random ``what``."""
    try:
        _, a, b = text.split(":")
        return int(a), int(b)
    except ValueError:
        raise ValueError(f"random {what} must look like random:<{field}>:<seed>") from None


def _load_subgraph(args: argparse.Namespace) -> InducedSubgraph:
    """Subgraph sources: ``random:<size>:<seed>`` (needs --n), an inline
    comma-separated vertex list (optionally ``inline:`` prefixed), or a
    file in the one-binary-string-per-line format."""
    source: str = args.subgraph
    n: Optional[int] = args.n
    if source.startswith("random:"):
        size, seed = _random_fields(source, "source", "size")
        if n is None:
            raise ValueError("--n is required with a random subgraph source")
        check_dimension(n)  # before drawing: a draw builds ints of up to 2^n bits
        mask = exhaustive_mod.sample_mask(random.Random(seed), 1 << n, size)
        return InducedSubgraph(n, mask)
    if source.startswith("inline:") or "," in source:
        body = source.split(":", 1)[1] if source.startswith("inline:") else source
        text = "\n".join(part.strip() for part in body.split(","))
        return parse_subgraph(text, n)
    return parse_subgraph(Path(source).read_text(), n)


def _emit(args: argparse.Namespace, payload: object) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in _text_lines(payload, ""):
            print(line)


def _text_lines(value: object, prefix: str) -> List[str]:
    if isinstance(value, dict):
        lines: List[str] = []
        for key, item in value.items():
            label = f"{prefix}.{key}" if prefix else str(key)
            lines.extend(_text_lines(item, label))
        return lines
    if isinstance(value, list):
        if any(isinstance(x, (dict, list)) for x in value):
            lines = []
            for i, item in enumerate(value):
                lines.extend(_text_lines(item, f"{prefix}[{i}]" if prefix else f"[{i}]"))
            return lines
        joined = " ".join(str(x) for x in value)
        return [f"{prefix}: {joined}"]
    return [f"{prefix}: {value}"]


def _cmd_verify_operator(args: argparse.Namespace) -> int:
    n = args.n
    mode = _resolve_mode(args, n)
    w = _weights_from_flags(args, n)
    matrix = build_matrix(w, mode)
    if args.dump_matrix:
        with open(args.dump_matrix, "w") as stream:
            matrix.dump(stream, mode)
    square = verify_square_identity(matrix, w, mode)
    spectral = spectral_report(matrix, w, mode, seed=args.seed)
    half = 1 << (n - 1)
    payload = {
        "n": n,
        "mode": mode.kind,
        "lambda": [mode.format(a) for a in w.lam_in(mode)],
        "v": [mode.format(b) for b in w.v_in(mode)],
        "pairing": mode.format(mode.convert(w.pairing)),
        "eigenvalue": mode.format(spectral.eigenvalue),
        "square_identity": {
            "expected": mode.format(square.expected),
            "max_deviation": square.max_deviation,
            "ok": square.ok,
        },
        "spectral": {
            "trace": mode.format(spectral.trace),
            "multiplicity_plus": _as_count(spectral.multiplicity_plus, half),
            "multiplicity_minus": _as_count(spectral.multiplicity_minus, half),
            "projector_max_deviation": spectral.projector_max_deviation,
            "projector_ok": spectral.projector_ok,
            "ok": spectral.ok,
        },
        "ok": square.ok and spectral.ok,
    }
    _emit(args, payload)
    return 0 if payload["ok"] else 2


def _as_count(value: object, expected: int) -> object:
    """Eigenvalue multiplicities are integers when all is well; fall back to
    the raw value (stringified) so a failure stays visible in the report."""
    if value == expected:
        return expected
    try:
        return int(round(float(value)))  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return str(value)


def _cmd_witness(args: argparse.Namespace) -> int:
    H = _load_subgraph(args)
    mode = _resolve_mode(args, H.n)
    w = _weights_from_flags(args, H.n)
    report = run_pipeline(w, H, mode)
    _emit(args, report.to_json_dict())
    return 0 if report.certified else 2


def _cmd_weighted_scan(args: argparse.Namespace) -> int:
    H = _load_subgraph(args)
    mode = _resolve_mode(args, H.n)
    grid = [parse_rational(part) for part in args.ratio_grid.split(",")]
    if any(c <= 0 for c in grid):
        raise ValueError("--C-grid entries must be positive")
    reports = weighted_scan(H, grid, mode)
    _emit(args, [r.to_json_dict() for r in reports])
    return 0 if all(r.certified for r in reports) else 2


def _cmd_exhaustive(args: argparse.Namespace) -> int:
    if args.strategy == "exhaustive":
        strategy: exhaustive_mod.Strategy = exhaustive_mod.Exhaustive()
    elif args.strategy.startswith("random:"):
        strategy = exhaustive_mod.RandomSample(*_random_fields(args.strategy, "strategy", "count"))
    else:
        raise ValueError(f"unknown strategy {args.strategy!r}")
    plan = exhaustive_mod.EnumerationPlan(
        n=args.n,
        subset_size=args.size,
        strategy=strategy,
        parallel_shards=args.shards,
        budget=args.budget,
    )
    report = exhaustive_mod.enumerate_and_verify(plan)
    _emit(args, report.to_json_dict())
    return 0 if report.ok else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="cubesense", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "verify-operator",
        help="certify the square identity and the spectral split of the operator",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--v", help="comma-separated vector coordinates")
    p.add_argument("--lambda", dest="lam", help="comma-separated covector coordinates")
    p.add_argument("--a", default="1", help="uniform covector weight (default 1)")
    p.add_argument("--b", default="1", help="uniform vector weight (default 1)")
    p.add_argument("--seed", type=int, default=0, help="seed for projector spot checks")
    p.add_argument("--dump-matrix", help="write 'row col value' triplets to this file")
    _add_mode_flags(p)
    p.set_defaults(func=_cmd_verify_operator)

    p = sub.add_parser(
        "witness", help="extract and certify an eigenvector witness for a subgraph"
    )
    p.add_argument("--subgraph", required=True)
    p.add_argument("--n", type=int, help="dimension (required for random:<size>:<seed>)")
    p.add_argument("--C", dest="ratio", help="weight ratio C (a=C, b=1/C)")
    p.add_argument("--a", default="1")
    p.add_argument("--b", default="1")
    _add_mode_flags(p)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser(
        "weighted-scan", help="run the witness pipeline over a grid of weight ratios"
    )
    p.add_argument("--subgraph", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--C-grid", dest="ratio_grid", required=True)
    _add_mode_flags(p)
    p.set_defaults(func=_cmd_weighted_scan)

    p = sub.add_parser(
        "exhaustive", help="brute-force the degree bound over subsets of Q_n"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--size", type=int, help="subset size (default 2^(n-1)+1)")
    p.add_argument(
        "--strategy",
        default="exhaustive",
        help="'exhaustive' or 'random:<count>:<seed>'",
    )
    p.add_argument("--shards", type=int, default=1, help="shard jobs for an exhaustive plan, "
                   "at most one per CPU; a seeded sample runs in one process")
    p.add_argument("--budget", type=int, default=exhaustive_mod.DEFAULT_BUDGET)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_exhaustive)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 2
    except (NumericalRankError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
