"""Brute-force verification of the degree bound at small n.

Enumerates induced subgraphs of a fixed size (all of them, or a seeded
random sample) and aggregates: the minimum over subsets of the max degree
(with the first subset reaching it), a histogram, and the count of
bound violations (which must be zero).

Subsets are bitmasks over the 2^n vertices, scanned in order. A
seeded sample's draws (``_plan_masks``) are one stream, packed with
``_pack`` in the calling process; an exhaustive plan's symmetry slice is
cut into rank intervals, one job ``_scan_shard`` each, merged in order.
Both reach one block loop, ``_scan``, as bytes: it cuts them in blocks of
up to ``BLOCK_BITS`` bits, one lane per subset, and gets every lane's max
degree from a single bit-sliced ``cube.degree_sets`` call, so each
big-int operation serves the whole block. It builds a full block's lane
word ``cube.lane_ones`` once: the kernel derives its direction masks
from it and the scan its flags.

An exhaustive plan scans one symmetry slice of the cube (``_slice``):
the subsets ``{0, e_1..e_j} | S``, or ``{e_1..e_j} | S`` if that side is
smaller, S running over the vertices of weight at least 2. Every other
k-subset is an image of one of them under the cube's automorphisms,
which keep the max degree, so weighting part j by ``C(n, j) 2^n`` and
dividing by k (or by 2^n - k) gives the histogram of all C(2^n, k)
subsets. The argmin, the subset of smallest colex rank that reaches the
minimum, is not kept by the automorphisms: a colex scan from rank 0 finds
it (``_first_argmin``). Max degree is hereditary, so that scan skips
every branch whose vertices taken so far already exceed the minimum.

Both enumerate "the r-subsets of a vertex pool, in colex order" with one
packed enumerator, ``_pool_bytes``. Colex order is numeric order, so by
Pascal's rule a pool's r-subsets are those without its top vertex, in
colex order, then the (r - 1)-subsets of the rest, each with the top
vertex added. ``_pool_bytes`` follows these two branches depth first,
carrying the vertices taken so far as ``base``, until a branch's subsets
fit one block. Such a leaf is one table of the r-subsets of the pool's
lowest vertices, packed once per (pool, r) in ``_pool_table`` and kept,
ORed with ``base`` in every lane: one big-int operation per leaf, not
one step per subset. A rank interval only picks branches, so a shard
starts anywhere without unranking, and the interval of one rank is that
subset (``cross_check_with_witness``).
"""

from __future__ import annotations

import functools
import math
import os
import random
import struct
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import chain, combinations, islice, repeat
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from .cube import InducedSubgraph, check_dimension, degree_sets, iter_bits, lane_ones, lane_width
from .exterior import WeightConfig
from .scalars import EXACT_DEFAULT_LIMIT
from .witness import InvariantViolation, run_pipeline

DEFAULT_BUDGET = 10**8
# a scan packs one block of subsets, at most this many bits, into one int:
# 4096 subsets at n = 4, 1024 at n = 6. A block's fixed cost is a few dozen
# big-int operations, so larger blocks save little time and hold more
# masks alive at once.
BLOCK_BITS = 1 << 16
_LANE_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}  # struct codes, standard size
_BYTE_BITS = bytes.maketrans(b"\x00\x01", b"01")  # membership bytes -> binary digits


class BudgetExceededError(ValueError):
    """The plan scans more subsets than the configured budget allows."""


def _require_ints(fields: object, *names: str) -> None:
    """Refuses a named field that is a bool or not an int, which would fail
    late in the scan or reach a report where its schema wants an integer."""
    for name in names:
        if type(getattr(fields, name)) is not int:
            raise ValueError(f"{name} must be an integer, got {getattr(fields, name)!r}")


@dataclass(frozen=True)
class Exhaustive:
    """Scan every subset of the given size."""


@dataclass(frozen=True)
class RandomSample:
    """Scan a seeded uniform sample of subsets (with replacement across
    draws, without replacement within each subset)."""

    count: int
    seed: int

    def __post_init__(self) -> None:
        _require_ints(self, "count", "seed")
        if self.count < 1:
            raise ValueError("sample count must be positive")


Strategy = Union[Exhaustive, RandomSample]


@dataclass(frozen=True)
class EnumerationPlan:
    n: int
    subset_size: Optional[int] = None
    strategy: Strategy = Exhaustive()
    parallel_shards: int = 1
    budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        _require_ints(self, "n", "parallel_shards", "budget")
        check_dimension(self.n)
        if self.subset_size is None:
            object.__setattr__(self, "subset_size", (1 << (self.n - 1)) + 1)
        _require_ints(self, "subset_size")
        if not 1 <= self.subset_size <= (1 << self.n):
            raise ValueError(f"subset size must be in [1, 2^{self.n}]")
        if self.parallel_shards < 1:
            raise ValueError("shard count must be positive")
        if self.budget < 1:
            raise ValueError("budget must be positive")
        if self.total_to_scan > self.budget:
            raise BudgetExceededError(
                f"the plan scans {self.total_to_scan} subsets, over the budget {self.budget}"
            )

    @property
    def universe_size(self) -> int:
        return math.comb(1 << self.n, self.subset_size)

    @property
    def total_to_scan(self) -> int:
        """The subsets the plan covers, which the budget counts and a report
        gives as ``subsets_checked``: the sample count of a seeded sample,
        and all C(2^n, k) of an exhaustive plan, although its scan visits
        only one symmetry slice and, up to the argmin, the colex subsets
        that no pruned branch holds."""
        if isinstance(self.strategy, RandomSample):
            return self.strategy.count
        return self.universe_size

    def degree_bound(self) -> int:
        """ceil(sqrt(n)): the integer degree forced by the theorem."""
        return math.isqrt(self.n - 1) + 1

    def plan_echo(self) -> dict:
        # parallel_shards is an execution detail: reports must be identical
        # across shard-count variations of the same plan
        if isinstance(self.strategy, RandomSample):
            strategy = {"kind": "random", **asdict(self.strategy)}
        else:
            strategy = {"kind": "exhaustive"}
        return {
            "n": self.n,
            "subset_size": self.subset_size,
            "strategy": strategy,
            "budget": self.budget,
        }


def sample_mask(rng: random.Random, universe: int, size: int) -> int:
    """Floyd's sampling: a uniform size-subset of [0, universe) as a
    bitmask, from ``randrange`` alone (not random.sample) so that seeded
    runs stay stable."""
    if not 0 < size <= universe:
        raise ValueError(f"cannot sample {size} of {universe}")
    seen = bytearray(universe)
    for j in range(universe - size, universe):
        t = rng.randrange(j + 1)
        seen[j if seen[t] else t] = 1
    return int(seen[::-1].translate(_BYTE_BITS), 2)


def max_induced_degree(members: int, n: int) -> int:
    """Maximum induced degree over the subset bitmask (0 for the empty set)."""
    return sum(1 for vertices in degree_sets(members, n, 1)[1:] if vertices)


@dataclass
class _ShardResult:
    histogram: Counter = field(default_factory=Counter)  # max degree -> weighted count
    best: Optional[Tuple[int, int]] = None  # (max degree, mask) of the argmin

    def merge(self, other: "_ShardResult") -> None:
        """Adds a later result of the same scan: a tie keeps the earlier
        argmin, as every merge is in scan order."""
        self.histogram.update(other.histogram)
        if other.best is not None and (self.best is None or other.best[0] < self.best[0]):
            self.best = other.best


def _lanes(n: int) -> int:
    """The subsets one block holds."""
    return max(1, BLOCK_BITS // lane_width(n))


def _pack(masks: List[int], n: int) -> bytes:
    """The bytes of the masks' lanes, mask i in lane i."""
    width = lane_width(n)
    if width in _LANE_FORMATS:
        return struct.pack(f"<{len(masks)}{_LANE_FORMATS[width]}", *masks)
    return b"".join(m.to_bytes(width // 8, "little") for m in masks)


def _scan_block(
    n: int, packed: int, count: int, ones: int, runs: List[Tuple[int, int]]
) -> _ShardResult:
    """Statistics of ``count`` packed subsets, from one ``degree_sets`` call
    on their lane word ``ones``. ``runs`` lists ``(lanes, weight)`` for the
    block's runs of lanes in turn: each subset of a run counts weight times
    in the histogram.

    A lane's flag is its top bit, set by ``((x & low) + low | x) & top``
    iff the lane of x is nonzero, so the popcount of the flags of
    ``at_least[d]`` counts the subsets of max degree at least d.
    """
    width = lane_width(n)
    top = ones << (width - 1)
    low = top - ones
    flags = [((x & low) + low | x) & top for x in degree_sets(packed, n, ones)] + [0]
    counts = [f.bit_count() for f in flags]
    least = max(d for d in range(n + 1) if counts[d] == count)
    tied = top ^ flags[least + 1]  # the lanes whose max degree is `least`
    lane = ((tied & -tied).bit_length() - 1) // width  # the first of them
    result = _ShardResult(best=(least, packed >> (lane * width) & ((1 << width) - 1)))
    at = 0
    for lanes, weight in runs:
        if lanes < count:  # the run's own flags
            run = top & ((1 << (at + lanes) * width) - (1 << at * width))
            counts = [(f & run).bit_count() for f in flags]
        at += lanes
        for d in range(n + 1):
            if counts[d] > counts[d + 1]:
                result.histogram[d] += (counts[d] - counts[d + 1]) * weight
    return result


def _plan_masks(plan: EnumerationPlan) -> Iterator[int]:
    """A seeded sample's subsets in scan order."""
    rng, universe, size = random.Random(plan.strategy.seed), 1 << plan.n, plan.subset_size
    return (sample_mask(rng, universe, size) for _ in range(plan.total_to_scan))


@functools.cache
def _pool_table(n: int, pool: int, r: int) -> Tuple[int, int, int]:
    """Every r-subset of the vertex set ``pool`` in colex order, packed and
    kept for the life of the process: ``(table, ones, size)``, where
    ``ones`` has a 1 at the bottom of each of the table's lanes and
    ``size`` is their length in bytes. ``_pool_bytes`` asks only for
    tables that fit one block."""
    masks = sorted(sum(1 << v for v in c) for c in combinations(iter_bits(pool), r))
    data = _pack(masks, n)
    return int.from_bytes(data, "little"), lane_ones(n, len(masks)), len(data)


def _pool_bytes(
    n: int, pool: int, r: int, start: int, stop: int, base: int = 0, cap: int = sys.maxsize
) -> Iterator[bytes]:
    """The r-subsets of the vertex set ``pool`` of colex ranks start..stop-1,
    each ORed with ``base``, as the bytes of their lanes in turn, less
    the branches below that already hold a vertex of induced degree above
    ``cap``: every subset of max degree at most cap is kept.

    If they fit one block, they are a slice of pool's kept table ORed with
    base in every lane: one big-int operation. Otherwise, by Pascal's rule,
    the first C(|pool| - 1, r) ranks are the r-subsets of pool without its
    top vertex, and the rest the (r - 1)-subsets of the same vertices with
    the top one added. Each branch gets the part of start..stop-1 in it.
    Max degree is hereditary, so the second branch is dropped whole if its
    base already has a vertex of degree above cap; a cap of n or more
    prunes nothing. Branches wait on a stack, not in nested calls: a pool
    can be nearly as many levels deep as it has vertices, 2^n, past
    Python's recursion limit.
    """
    lanes, step, prune = _lanes(n), lane_width(n) // 8, cap < n
    branches = [(pool, r, start, stop, base)]
    while branches:
        pool, r, start, stop, base = branches.pop()
        if start >= stop:
            continue
        if math.comb(pool.bit_count(), r) <= lanes:
            if r in (0, pool.bit_count()):  # one subset: every such leaf shares one table
                pool, r, base = 0, 0, base | (pool if r else 0)
            table, ones, size = _pool_table(n, pool, r)
            yield (table | ones * base).to_bytes(size, "little")[start * step : stop * step]
            continue
        top = 1 << (pool.bit_length() - 1)
        rest, without, taken = pool ^ top, math.comb(pool.bit_count() - 1, r), base | top
        # cap + 1 vertices or fewer have no vertex of degree above cap
        if not (prune and taken.bit_count() > cap + 1 and degree_sets(taken, n, 1)[cap + 1]):
            branches.append((rest, r - 1, max(start - without, 0), stop - without, taken))
        branches.append((rest, r, start, min(stop, without), base))  # popped first


def _blocks(
    pieces: Iterable[Tuple[bytes, int]], n: int, sizes: Iterator[int]
) -> Iterator[Tuple[int, int, List[Tuple[int, int]]]]:
    """Cuts ``(data, weight)`` pieces of whole lanes into blocks of
    ``next(sizes)`` lanes: ``(packed, count, runs)``, runs being the
    ``(lanes, weight)`` of the block's pieces in turn."""
    step = lane_width(n) // 8
    want, buf, runs = next(sizes) * step, bytearray(), []
    for data, weight in pieces:
        view = memoryview(data)
        while len(view):
            part, view = view[: want - len(buf)], view[want - len(buf) :]
            buf += part
            if runs and runs[-1][1] == weight:
                runs[-1] = (runs[-1][0] + len(part) // step, weight)
            else:
                runs.append((len(part) // step, weight))
            if len(buf) == want:
                yield int.from_bytes(buf, "little"), want // step, runs
                want, buf, runs = next(sizes) * step, bytearray(), []
    if buf:
        yield int.from_bytes(buf, "little"), len(buf) // step, runs


def _cube(n: int) -> int:
    """Every vertex of Q_n, as a vertex set."""
    return (1 << (1 << n)) - 1


@functools.cache
def _slice(n: int, k: int) -> Tuple[int, Tuple[Tuple[int, int, int, int], ...]]:
    """The smaller symmetry slice of the k-subsets of Q_n: ``(divisor,
    parts)``, part j being ``(weight, base, r, length)``.

    On the 0-in-H side part j is ``{0, e_1..e_j} | S``, on the other
    ``{e_1..e_j} | S``, where S runs over the ``length`` r-subsets of the
    vertices of weight at least 2. Translations move every subset onto
    either side, and coordinate permutations every j-set of 0's neighbours
    onto ``{e_1..e_j}``, so a statistic the cube's automorphisms keep sums
    over all k-subsets to that over the parts, part j taken ``weight =
    C(n, j) 2^n`` times, divided by ``divisor``: k with 0 in H, and
    2^n - k without (orbit-stabilizer double counting).
    """
    units = [1 << (1 << i) for i in range(n)]
    m = (1 << n) - n - 1
    sides = [
        tuple(
            (math.comb(n, j) << n, zero | sum(units[:j]), k - zero - j, math.comb(m, k - zero - j))
            for j in range(n + 1)
            if 0 <= k - zero - j <= m
        )
        for zero in (1, 0)
    ]
    inside, outside = (sum(part[3] for part in side) for side in sides)
    if k < 1 << n and outside < inside:
        return (1 << n) - k, sides[1]
    return k, sides[0]


def _scan(
    n: int, pieces: Iterable[Tuple[bytes, int]], prefix: Tuple[int, ...] = ()
) -> Iterator[_ShardResult]:
    """``_scan_block`` of each block ``_blocks`` cuts from pieces, in turn:
    blocks of the ``prefix`` sizes, capped at a full block, then full
    blocks. The full block's lane word is built once, when the first full
    block comes."""
    lanes, full = _lanes(n), 0
    sizes = chain((min(size, lanes) for size in prefix), repeat(lanes))
    for packed, count, runs in _blocks(pieces, n, sizes):
        if count < lanes:
            ones = lane_ones(n, count)
        else:
            ones = full = full or lane_ones(n, lanes)
        yield _scan_block(n, packed, count, ones, runs)


def _merged(results: Iterable[_ShardResult]) -> _ShardResult:
    total = _ShardResult()
    for result in results:
        total.merge(result)
    return total


def _scan_shard(job: Tuple[EnumerationPlan, int, int]) -> _ShardResult:
    """An exhaustive plan's slice subsets of ranks start..stop-1, the
    parts' subsets in turn, each weighted by its part. Its argmin is the
    slice's, which gives only the minimum: the plan's argmin comes from
    ``_first_argmin``."""
    plan, start, stop = job
    n = plan.n
    _, parts = _slice(n, plan.subset_size)
    rest = _cube(n) ^ 1 ^ sum(1 << (1 << i) for i in range(n))
    pieces, at = [], 0
    for weight, base, r, length in parts:
        first, last = max(start - at, 0), min(stop - at, length)
        pieces.append(zip(_pool_bytes(n, rest, r, first, last, base), repeat(weight)))
        at += length
    return _merged(_scan(n, chain.from_iterable(pieces)))


def _first_argmin(plan: EnumerationPlan, least: int) -> int:
    """The subset of smallest colex rank whose max degree is ``least``, the
    slice's minimum: the colex order, less the branches whose base already
    has a vertex of degree above ``least``, is scanned in blocks of 64, 256
    and 1024 subsets, then full blocks, until one holds such a subset."""
    n = plan.n
    pieces = _pool_bytes(n, _cube(n), plan.subset_size, 0, plan.universe_size, cap=least)
    for block in _scan(n, zip(pieces, repeat(1)), (64, 256, 1024)):
        degree, mask = block.best
        if degree < least:
            raise InvariantViolation("a subset's max degree is below the slice's minimum")
        if degree == least:
            return mask
    raise InvariantViolation("no subset reaches the slice's minimum max degree")


def _run_shards(jobs: list) -> _ShardResult:
    """Merge ``_scan_shard`` of each job in job order, one process per job.
    If the pool fails, its partial merge is dropped and every job runs
    here."""
    if len(jobs) > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
                return _merged(pool.map(_scan_shard, jobs))
        except OSError:  # pools can be unavailable in sandboxes
            pass
    return _merged(map(_scan_shard, jobs))


@dataclass(frozen=True)
class ExhaustiveReport:
    plan: EnumerationPlan
    subsets_checked: int
    min_max_degree: int
    argmin_subset: int  # membership bitmask of one subset achieving the min
    histogram: Dict[int, int]
    violations: int

    @property
    def ok(self) -> bool:
        return self.violations == 0 and self.min_max_degree >= self.plan.degree_bound()

    def to_json_dict(self) -> dict:
        return {
            "plan": self.plan.plan_echo(),
            "subsets_checked": self.subsets_checked,
            "min_max_degree": self.min_max_degree,
            "argmin_subset": InducedSubgraph(self.plan.n, self.argmin_subset).to_lines(),
            "histogram": {str(k): self.histogram[k] for k in sorted(self.histogram)},
            "violations": self.violations,
        }


def random_masks(plan: EnumerationPlan) -> List[int]:
    """The full seeded sample for a RandomSample plan, in scan order."""
    if not isinstance(plan.strategy, RandomSample):
        raise ValueError("plan does not use random sampling")
    return list(_plan_masks(plan))


def enumerate_and_verify(plan: EnumerationPlan) -> ExhaustiveReport:
    """Scan the plan's subsets and aggregate max-degree statistics.

    An exhaustive plan scans only the smaller symmetry slice (``_slice``)
    and weighs its histogram up to all C(2^n, k) subsets, which
    ``subsets_checked`` reports, although far fewer were scanned. Every
    weighted bin must divide exactly and the bins must sum to C(2^n, k),
    or InvariantViolation is raised. The argmin, the subset of smallest
    colex rank reaching the minimum, comes from a colex scan that skips
    every branch already above the minimum (``_first_argmin``).

    Deterministic for a fixed plan regardless of parallel_shards: a seeded
    sample runs here as one stream, and an exhaustive plan's shards are
    fixed rank intervals, merged in order. A sample's argmin is its first
    draw reaching the minimum.
    """
    n, divisor = plan.n, 1
    sample = isinstance(plan.strategy, RandomSample)
    if sample:
        masks, lanes = _plan_masks(plan), _lanes(n)
        chunks = iter(lambda: list(islice(masks, lanes)), [])
        total = _merged(_scan(n, ((_pack(chunk, n), 1) for chunk in chunks)))
    else:
        divisor, parts = _slice(n, plan.subset_size)
        scanned = sum(part[3] for part in parts)
        # more shards than CPUs would add processes that only wait, and
        # more than subsets only empty intervals
        shards = min(plan.parallel_shards, os.cpu_count() or 1, scanned)
        cuts = [scanned * i // shards for i in range(shards + 1)]
        total = _run_shards([(plan, start, stop) for start, stop in zip(cuts, cuts[1:])])

    if total.best is None:
        raise InvariantViolation("scan produced no subsets")
    least, argmin = total.best
    histogram = {}
    for d, weighted in total.histogram.items():
        histogram[d], remainder = divmod(weighted, divisor)
        if remainder:
            raise InvariantViolation(f"the weighted bin {d} is not a multiple of {divisor}")
    if sum(histogram.values()) != plan.total_to_scan:
        raise InvariantViolation(f"the bins do not sum to the plan's {plan.total_to_scan} subsets")
    if not sample:
        argmin = _first_argmin(plan, least)
    return ExhaustiveReport(
        plan=plan,
        subsets_checked=plan.total_to_scan,
        min_max_degree=least,
        argmin_subset=argmin,
        histogram=histogram,
        violations=sum(histogram[d] for d in histogram if d < plan.degree_bound()),
    )


@dataclass(frozen=True)
class CrossCheckReport:
    checked: int
    consistent: int

    @property
    def ok(self) -> bool:
        return self.checked == self.consistent

    def to_json_dict(self) -> dict:
        return {"checked": self.checked, "consistent": self.consistent}


def cross_check_with_witness(plan: EnumerationPlan, sample: int) -> CrossCheckReport:
    """Tie the spectral pipeline to the combinatorial scan: on sampled
    subsets, the certified witness degree at C=1 must not exceed the true
    max degree, and both must reach sqrt(n).

    Samples ranks without replacement from the plan's subset pool (seeded
    by the plan's strategy, or 0 for exhaustive plans, whose rank i is the
    colex one); sample == pool size reproduces the full cross product.
    ``random.sample`` draws the ranks, so a pool over ``sys.maxsize``
    subsets is refused with ValueError.
    """
    if plan.n > EXACT_DEFAULT_LIMIT:
        raise ValueError(f"cross-check is limited to n <= {EXACT_DEFAULT_LIMIT}")
    pool_size = plan.total_to_scan
    if not 1 <= sample <= pool_size:
        raise ValueError(f"sample must be in [1, {pool_size}]")
    if pool_size > sys.maxsize:
        raise ValueError(f"cannot draw ranks from a pool of {pool_size} subsets, over sys.maxsize")
    pool = random_masks(plan) if isinstance(plan.strategy, RandomSample) else None
    seed = plan.strategy.seed if pool is not None else 0
    chosen = sorted(random.Random(seed).sample(range(pool_size), sample))

    n, w = plan.n, WeightConfig.uniform(plan.n, 1, 1)
    checked = consistent = 0
    for i in chosen:
        members = pool[i] if pool is not None else int.from_bytes(
            b"".join(_pool_bytes(n, _cube(n), plan.subset_size, i, i + 1)), "little"
        )
        H = InducedSubgraph(n, members)
        report = run_pipeline(w, H)
        witness_degree = report.profile.degree
        _, true_max = H.max_degree()
        checked += 1
        if report.certified and plan.degree_bound() <= witness_degree <= true_max:
            consistent += 1
    return CrossCheckReport(checked=checked, consistent=consistent)
