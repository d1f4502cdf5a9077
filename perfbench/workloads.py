"""The benchmark's workloads: seeded input pools, the op each input runs,
and the checks every op's output must pass.

An op is one certificate request: one ``run_pipeline`` call, one
``verify_square_identity`` + ``spectral_report`` pair, or one
``enumerate_and_verify`` plan. Ops call the library through module
attributes (``witness.run_pipeline``, not a name bound at import), so the
wrappers the traced run installs on those attributes see every call.

Pools are stratified: each round walks every (size, weight) stratum once,
so a run that stops mid-pool still sees a balanced mix.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Tuple

import calibration
from cubesense import exhaustive, matrices, witness
from cubesense.cube import InducedSubgraph
from cubesense.exterior import WeightConfig
from cubesense.scalars import ScalarMode, sqrt_decompose

RATIOS = (Fraction(1, 2), Fraction(1), Fraction(2))


def random_members(rng: random.Random, n: int, size: int) -> int:
    """A uniform size-subset of Q_n's vertices as a membership bitmask."""
    mask = 0
    for u in rng.sample(range(1 << n), size):
        mask |= 1 << u
    return mask


def induced_degrees(members: int, n: int, vertex: int) -> Tuple[int, int]:
    """(indegree, outdegree) of ``vertex`` inside the subset, from the bitmask."""
    indeg = outdeg = 0
    for b in range(n):
        if members >> (vertex ^ (1 << b)) & 1:
            if vertex >> b & 1:
                indeg += 1
            else:
                outdeg += 1
    return indeg, outdeg


def max_degree(members: int, n: int) -> int:
    return max(
        sum(induced_degrees(members, n, u))
        for u in range(1 << n)
        if members >> u & 1
    )


class WitnessOp:
    """``run_pipeline`` on one subgraph with weights a = C, b = 1/C."""

    def __init__(self, n: int, members: int, ratio: Fraction, mode: ScalarMode):
        self.H = InducedSubgraph(n, members)
        self.w = WeightConfig.from_ratio(n, ratio)
        self.ratio = ratio
        self.mode = mode
        self.key = f"n={n} C={ratio} H={members:x}"

    def __call__(self):
        return witness.run_pipeline(self.w, self.H, self.mode)

    def reference_view(self, report) -> dict:
        view = report.to_json_dict()
        if self.mode.is_exact:
            return view
        # float digits depend on BLAS; keep what the certificate decides
        return {k: view[k] for k in ("beta", "indegree", "outdegree", "degree", "certified")}

    def problems(self, report) -> List[str]:
        n, members = self.H.n, self.H.members
        if not report.certified:
            return ["not certified"]
        if not members >> report.beta & 1:
            return [f"witness vertex {report.beta} is not in H"]
        indeg, outdeg = induced_degrees(members, n, report.beta)
        if (indeg, outdeg) != (report.profile.indegree, report.profile.outdegree):
            return [
                f"degrees of {report.beta}: report {report.profile.indegree}/"
                f"{report.profile.outdegree}, recomputed {indeg}/{outdeg}"
            ]
        c = float(self.ratio)
        if c * indeg + outdeg / c < math.sqrt(n) * (1 - 1e-12):
            return [f"C*in + out/C = {c * indeg + outdeg / c} < sqrt({n})"]
        return []

    def compare(self, report, reference: dict) -> List[str]:
        view = self.reference_view(report)
        if not self.mode.is_exact and not reference.get("beta_unique"):
            # several kernel vectors fit: which one SVD returns is up to LAPACK
            view = {"certified": view["certified"]}
            reference = {"certified": reference["report"]["certified"]}
        else:
            reference = reference["report"]
        return [] if view == reference else [f"report differs from reference: {view} != {reference}"]


class OperatorOp:
    """Exact square identity plus spectral report of one weight configuration."""

    mode = ScalarMode.exact()

    def __init__(self, w: WeightConfig, spot_seed: int):
        self.w = w
        self.spot_seed = spot_seed
        lam = ",".join(str(a) for a in w.lam)
        v = ",".join(str(b) for b in w.v)
        self.key = f"n={w.n} lambda={lam} v={v} seed={spot_seed}"

    def __call__(self):
        M = matrices.build_matrix(self.w, self.mode)
        square = matrices.verify_square_identity(M, self.w, self.mode)
        spectral = matrices.spectral_report(M, self.w, self.mode, seed=self.spot_seed)
        return square, spectral

    def reference_view(self, result) -> dict:
        square, spectral = result
        fmt = self.mode.format
        return {
            "expected": fmt(square.expected),
            "square_ok": square.ok,
            "eigenvalue": fmt(spectral.eigenvalue),
            "trace": fmt(spectral.trace),
            "multiplicity_plus": fmt(spectral.multiplicity_plus),
            "multiplicity_minus": fmt(spectral.multiplicity_minus),
            "projector_ok": spectral.projector_ok,
            "ok": spectral.ok,
        }

    def problems(self, result) -> List[str]:
        square, spectral = result
        out = []
        if not square.ok:
            out.append("square identity not ok")
        if not spectral.ok:
            out.append("spectral report not ok")
        if spectral.eigenvalue * spectral.eigenvalue != self.w.pairing:
            out.append("eigenvalue squared is not the pairing")
        return out

    def compare(self, result, reference: dict) -> List[str]:
        view = self.reference_view(result)
        return [] if view == reference["report"] else [f"report differs from reference: {view}"]


class ScanOp:
    """One ``enumerate_and_verify`` plan, run serially."""

    def __init__(self, plan: exhaustive.EnumerationPlan):
        self.plan = plan
        self.subsets = plan.total_to_scan
        echo = plan.plan_echo()["strategy"]
        strategy = "exhaustive" if echo["kind"] == "exhaustive" else f"random:{echo['count']}:{echo['seed']}"
        self.key = f"n={plan.n} size={plan.subset_size} {strategy}"

    def __call__(self):
        return exhaustive.enumerate_and_verify(self.plan)

    def reference_view(self, report) -> dict:
        return report.to_json_dict()

    def problems(self, report) -> List[str]:
        out = []
        if not report.ok or report.violations:
            out.append(f"scan not ok: {report.violations} violations")
        if sum(report.histogram.values()) != report.subsets_checked:
            out.append("histogram does not sum to subsets_checked")
        if report.subsets_checked != self.plan.total_to_scan:
            out.append(f"checked {report.subsets_checked} of {self.plan.total_to_scan} subsets")
        argmin = report.argmin_subset
        if argmin.bit_count() != self.plan.subset_size:
            out.append("argmin subset has the wrong size")
        elif max_degree(argmin, self.plan.n) != report.min_max_degree:
            out.append("argmin subset's max degree is not min_max_degree")
        return out

    def compare(self, report, reference: dict) -> List[str]:
        view = self.reference_view(report)
        return [] if view == reference["report"] else ["report differs from reference"]


def _witness_pool(seed: int, name: str, n: int, sizes, rounds: int, mode: ScalarMode) -> list:
    rng = random.Random(f"{name}:{seed}")
    return [
        WitnessOp(n, random_members(rng, n, size), ratio, mode)
        for _ in range(rounds)
        for size in sizes
        for ratio in RATIOS
    ]


def witness_exact_pool(seed: int) -> list:
    return _witness_pool(seed, "witness-exact", 6, (33, 36, 39, 42, 45, 48), 8, ScalarMode.exact())


def witness_float_pool(seed: int) -> list:
    return _witness_pool(
        seed, "witness-float", 10, (513, 577, 641, 705, 768), 6, ScalarMode.floating()
    )


def _small_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def _irrational_weights(rng: random.Random, n: int, uniform: bool) -> WeightConfig:
    """Weights whose pairing is not a perfect square, so sqrt(lambda(v))
    is irrational and the arithmetic runs in Q(sqrt d) with d > 1."""
    while True:
        if uniform:
            w = WeightConfig.uniform(n, _small_rational(rng), _small_rational(rng))
        else:
            w = WeightConfig(
                n,
                tuple(_small_rational(rng) for _ in range(n)),
                tuple(_small_rational(rng) for _ in range(n)),
            )
        if sqrt_decompose(w.pairing)[1] > 1:
            return w


def operator_exact_pool(seed: int) -> list:
    rng = random.Random(f"operator-exact:{seed}")
    return [
        OperatorOp(_irrational_weights(rng, 5, uniform), rng.randrange(1 << 31))
        for _ in range(40)
        for uniform in (True, False)
    ]


def scan_pool(seed: int) -> list:
    rng = random.Random(f"scan:{seed}")
    Plan, Sample = exhaustive.EnumerationPlan, exhaustive.RandomSample
    pool = []
    for _ in range(12):
        pool += [ScanOp(Plan(4, size)) for size in (9, 10, 11, 12)]
        pool.append(ScanOp(Plan(5, 17, Sample(1500, rng.randrange(1 << 31)))))
        pool.append(ScanOp(Plan(6, 33, Sample(800, rng.randrange(1 << 31)))))
    return pool


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], list]  # seed -> op pool
    traced_ops: int  # the traced run replays this many ops from the pool's head
    lazy_modules: Tuple[str, ...]  # imported by the library on first use
    cli_args: Tuple[str, ...]  # one small CLI request of the matching subcommand
    cli_op: Callable[[], object]  # the same request made in process
    shard_check: bool = False  # also time one plan at 1 and 2 workers
    calibration: Callable[[], float] = calibration.python_loop  # timed beside each op


def _cli_witness(n: int, size: int, seed: int, ratio: Fraction, mode: ScalarMode) -> WitnessOp:
    # the CLI's random:<size>:<seed> source draws with the library's sampler
    mask = exhaustive.sample_mask(random.Random(seed), 1 << n, size)
    return WitnessOp(n, mask, ratio, mode)


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "witness-exact",
            witness_exact_pool,
            traced_ops=36,
            lazy_modules=(),
            cli_args=("witness", "--n", "5", "--subgraph", "random:20:1", "--C", "2", "--mode", "exact"),
            cli_op=_cli_witness(5, 20, 1, Fraction(2), ScalarMode.exact()),
        ),
        Workload(
            "operator-exact",
            operator_exact_pool,
            traced_ops=20,
            lazy_modules=(),
            cli_args=("verify-operator", "--n", "4", "--mode", "exact"),
            cli_op=OperatorOp(WeightConfig.uniform(4), 0),
        ),
        Workload(
            "witness-float",
            witness_float_pool,
            traced_ops=15,
            lazy_modules=("numpy",),
            cli_args=("witness", "--n", "8", "--subgraph", "random:129:1", "--mode", "float"),
            cli_op=_cli_witness(8, 129, 1, Fraction(1), ScalarMode.floating()),
            calibration=calibration.blas_loop,
        ),
        Workload(
            "scan",
            scan_pool,
            traced_ops=24,
            lazy_modules=(),
            cli_args=("exhaustive", "--n", "4", "--size", "12"),
            cli_op=ScanOp(exhaustive.EnumerationPlan(4, 12)),
            shard_check=True,
        ),
    )
}


def omega_counts(H: InducedSubgraph, omega) -> Tuple[int, int, int, int]:
    """Shape of the restricted system behind one eigenvector, from outside:
    rows |H u N(H)|, columns |H|, the first free column (the position of
    omega's largest support vertex among H's vertices), and the largest
    numerator or denominator bit length in omega (0 in float mode)."""
    n, members = H.n, H.members
    closed = members
    for u in range(1 << n):
        if members >> u & 1:
            for b in range(n):
                closed |= 1 << (u ^ (1 << b))
    top = max(omega.support())
    free_col = (members & ((1 << top) - 1)).bit_count()
    bits = 0
    for _, c in omega.items():
        for q in _rational_parts(c):
            bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
    return closed.bit_count(), members.bit_count(), free_col, bits


def _rational_parts(c) -> Tuple[Fraction, ...]:
    if isinstance(c, float):
        return ()
    if isinstance(c, (int, Fraction)):
        return (Fraction(c),)
    return (c.x, c.y)
