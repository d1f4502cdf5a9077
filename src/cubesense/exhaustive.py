"""Brute-force verification of the degree bound at small n.

Enumerates induced subgraphs of a fixed size (all of them, or a seeded
random sample) and aggregates: the minimum over subsets of the max degree
(with the smallest-rank subset reaching it), a histogram, and the count of
bound violations (which must be zero).

Subsets are bitmasks over the 2^n vertices, scanned in rank order: colex
order for an exhaustive plan, draw order for a seeded sample. A shard
job is ``(plan, start, stop)``, so each shard derives its own subsets. It
packs them in blocks of up to ``BLOCK_BITS`` bits, one lane per subset,
and gets every lane's max degree from a single bit-sliced
``cube.degree_sets`` call, so each big-int operation serves the whole
block. A shard builds a full block's lane word ``cube.lane_ones`` once:
the kernel derives its direction masks from it and the scan its flags.

Colex order is numeric order, so an exhaustive plan's subsets fall into
one contiguous rank interval per high half h (the vertices at or above
2^(n-1)), h ascending, and within it the low halves are all
(k - |h|)-subsets of the low vertices in colex order. Those are packed
once per (n, k - |h|) in ``_low_table``, and a block is built from them
as ``table_chunk | ones * (h << 2^(n-1))``: one big-int OR per chunk,
not one step per subset. A seeded sample replays its draws from the
plan's seed (``_plan_masks``) and packs them with ``_pack``.
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
from itertools import islice
from typing import Dict, Iterator, List, Optional, Tuple, Union

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
# a packed low-half table of at most this many bits is kept for the life of
# the process; a larger one is packed again for each high half that uses
# it, one chunk at a time. Every table at n <= 5 fits (385 KiB for all of
# n = 5's), while n = 12, k = 2 would keep 1 GiB.
TABLE_BITS = 1 << 24
_LANE_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}  # struct codes, standard size
_BYTE_BITS = bytes.maketrans(b"\x00\x01", b"01")  # membership bytes -> binary digits


class BudgetExceededError(ValueError):
    """The plan scans more subsets than the configured budget allows."""


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
        if self.count < 1:
            raise ValueError("sample count must be positive")
        if not isinstance(self.seed, int):
            raise ValueError("random sampling requires an integer seed")


Strategy = Union[Exhaustive, RandomSample]


@dataclass(frozen=True)
class EnumerationPlan:
    n: int
    subset_size: Optional[int] = None
    strategy: Strategy = Exhaustive()
    parallel_shards: int = 1
    budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        check_dimension(self.n)
        if self.subset_size is None:
            object.__setattr__(self, "subset_size", (1 << (self.n - 1)) + 1)
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


def _colex_from(mask: int) -> Iterator[int]:
    """Gosper's hack (HAKMEM item 175): mask, then each next bitmask with
    the same popcount, ascending."""
    while True:
        yield mask
        low = mask & -mask
        ripple = mask + low
        mask = (((ripple ^ mask) >> 2) // low) | ripple


def unrank_combination(rank: int, k: int) -> int:
    """The rank-th (0-based) k-element bitmask in colex order.

    Combinatorial number system: rank = sum C(c_i, i) over the descending
    bit positions c_k > ... > c_1.
    """
    mask = 0
    for i in range(k, 0, -1):
        c = i - 1
        while math.comb(c + 1, i) <= rank:
            c += 1
        rank -= math.comb(c, i)
        mask |= 1 << c
    return mask


def _floyd_marks(rng: random.Random, seen: bytearray, size: int) -> bytearray:
    """Floyd's loop: sets the bytes of a uniform size-subset of seen's
    positions. Its ``randrange`` bounds do not depend on seen's bytes."""
    for j in range(len(seen) - size, len(seen)):
        t = rng.randrange(j + 1)
        seen[j if seen[t] else t] = 1
    return seen


def sample_mask(rng: random.Random, universe: int, size: int) -> int:
    """Floyd's sampling: a uniform size-subset of [0, universe) as a
    bitmask, from ``randrange`` alone (not random.sample) so that seeded
    runs stay stable."""
    if not 0 < size <= universe:
        raise ValueError(f"cannot sample {size} of {universe}")
    seen = _floyd_marks(rng, bytearray(universe), size)
    return int(seen[::-1].translate(_BYTE_BITS), 2)


def max_induced_degree(members: int, n: int) -> int:
    """Maximum induced degree over the subset bitmask (0 for the empty set)."""
    return sum(1 for vertices in degree_sets(members, n, 1)[1:] if vertices)


@dataclass
class _ShardResult:
    checked: int = 0
    violations: int = 0
    min_max_degree: Optional[int] = None
    argmin_rank: Optional[int] = None
    argmin_mask: Optional[int] = None
    histogram: Counter = field(default_factory=Counter)

    def merge(self, other: "_ShardResult") -> None:
        self.checked += other.checked
        self.violations += other.violations
        self.histogram.update(other.histogram)
        if other.min_max_degree is None:
            return
        # argmin ties across shards break by smallest scan rank
        if (
            self.min_max_degree is None
            or (other.min_max_degree, other.argmin_rank)
            < (self.min_max_degree, self.argmin_rank)
        ):
            self.min_max_degree = other.min_max_degree
            self.argmin_rank = other.argmin_rank
            self.argmin_mask = other.argmin_mask


def _pack(masks: List[int], n: int) -> int:
    """The masks side by side in one int, mask i in lane i."""
    width = lane_width(n)
    if width in _LANE_FORMATS:
        data = struct.pack(f"<{len(masks)}{_LANE_FORMATS[width]}", *masks)
    else:
        data = b"".join(m.to_bytes(width // 8, "little") for m in masks)
    return int.from_bytes(data, "little")


def _scan_block(
    n: int, first_rank: int, packed: int, count: int, ones: int, bound: int
) -> _ShardResult:
    """Statistics of ``count`` packed subsets, of ranks first_rank on, from
    one ``degree_sets`` call on their lane word ``ones``.

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
    lane = ((tied & -tied).bit_length() - 1) // width  # the smallest rank
    return _ShardResult(
        checked=count,
        violations=count - counts[bound],
        min_max_degree=least,
        argmin_rank=first_rank + lane,
        argmin_mask=packed >> (lane * width) & ((1 << width) - 1),
        histogram=Counter(
            {d: counts[d] - counts[d + 1] for d in range(n + 1) if counts[d] > counts[d + 1]}
        ),
    )


def _plan_masks(plan: EnumerationPlan, start: int) -> Iterator[int]:
    """A seeded sample's subsets in scan order from rank ``start``,
    whatever the shard count. The first ``start`` draws are skipped: they
    mark one shared buffer, which is dropped, and build no mask."""
    rng, universe, size = random.Random(plan.strategy.seed), 1 << plan.n, plan.subset_size
    skipped = bytearray(universe)
    for _ in range(start):
        _floyd_marks(rng, skipped, size)
    return (sample_mask(rng, universe, size) for _ in range(plan.total_to_scan - start))


def _colex_rank(mask: int) -> int:
    """The inverse of ``unrank_combination``: ``sum C(c_i, i)`` over the
    set bits ``c_1 < c_2 < ...`` of mask."""
    return sum(math.comb(b, i) for i, b in enumerate(iter_bits(mask), 1))


def _low_chunks(n: int, c: int, lanes: int) -> Iterator[Tuple[int, int, int]]:
    """Every c-subset of the low half's 2^(n-1) vertices in colex order,
    packed ``lanes`` to a chunk: ``(chunk, ones, size)``, where ``ones``
    has a 1 at the bottom of each of the chunk's lanes and ``size`` is
    their length in bytes."""
    masks = islice(_colex_from((1 << c) - 1), math.comb(1 << (n - 1), c))
    full = lane_ones(n, lanes)
    while chunk := list(islice(masks, lanes)):
        count = len(chunk)
        ones = full if count == lanes else lane_ones(n, count)
        yield _pack(chunk, n), ones, count * lane_width(n) // 8


@functools.cache
def _low_table(n: int, c: int, lanes: int) -> Tuple[Tuple[int, int, int], ...]:
    """``_low_chunks``, kept for the life of the process."""
    return tuple(_low_chunks(n, c, lanes))


def _high_halves(half: int, k: int, first: int) -> Iterator[int]:
    """The high halves from ``first`` on, ascending, that leave 0 to
    ``half`` of the k vertices to the low half: those with ``lo`` to ``hi``
    bits. After h, h + 1 has at most one bit too many; clearing its lowest
    set bit and carrying its lowest run of ones one place up then gives
    the next mask with at most ``hi`` bits. One with too few bits gets
    its lowest clear bits set."""
    lo, hi, end = max(0, k - half), min(k, half), 1 << half
    h = first
    while h < end:
        yield h
        h += 1
        if h.bit_count() > hi:
            h &= h - 1
            h += h & -h
        for _ in range(lo - h.bit_count()):
            h |= h + 1


def _colex_blocks(
    plan: EnumerationPlan, start: int, stop: int, lanes: int
) -> Iterator[Tuple[int, int]]:
    """An exhaustive plan's subsets of ranks start..stop-1, packed ``lanes``
    to a block: ``(packed, count)``. Each high half h contributes its low
    table's chunks with h ORed into every lane; the chunks' bytes are
    cut into blocks, so a block may span several high halves."""
    if start >= stop:
        return
    n, k = plan.n, plan.subset_size
    half, step = 1 << (n - 1), lane_width(n) // 8
    first = unrank_combination(start, k)
    high = first >> half
    tables = {
        c: _low_table(n, c, lanes)
        for c in range(max(0, k - half), min(k, half) + 1)
        if math.comb(half, c) * step * 8 <= TABLE_BITS
    }
    # the bytes of h's group before start, dropped as they come
    drop = _colex_rank(first & ((1 << half) - 1)) * step
    remaining, want = (stop - start) * step, min(lanes, stop - start) * step
    buf = bytearray()
    for h in _high_halves(half, k, high):
        c, spread = k - h.bit_count(), h << half
        for chunk, ones, size in tables.get(c) or _low_chunks(n, c, lanes):
            buf += (chunk | ones * spread).to_bytes(size, "little")
            if drop:
                dropped = min(drop, len(buf))
                del buf[:dropped]
                drop -= dropped
            while len(buf) >= want:
                yield int.from_bytes(buf[:want], "little"), want // step
                del buf[:want]
                remaining -= want
                if not remaining:
                    return
                want = min(want, remaining)


def _scan_shard(job: Tuple[EnumerationPlan, int, int]) -> _ShardResult:
    plan, start, stop = job
    bound = plan.degree_bound()
    lanes = max(1, BLOCK_BITS // lane_width(plan.n))
    if isinstance(plan.strategy, RandomSample):
        masks = _plan_masks(plan, start)
        chunks = (list(islice(masks, min(lanes, stop - at))) for at in range(start, stop, lanes))
        blocks = ((_pack(chunk, plan.n), len(chunk)) for chunk in chunks)
    else:
        blocks = _colex_blocks(plan, start, stop, lanes)
    result, full = _ShardResult(), lane_ones(plan.n, lanes)
    for packed, count in blocks:
        ones = full if count == lanes else lane_ones(plan.n, count)
        result.merge(_scan_block(plan.n, start + result.checked, packed, count, ones, bound))
    return result


def _run_shards(jobs: list, shards: int) -> _ShardResult:
    """Merge the shard results in job order. Shards only partition the
    work: the pool never starts more processes than there are CPUs."""
    total = _ShardResult()
    if shards > 1 and len(jobs) > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor

            workers = min(shards, os.cpu_count() or 1)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for result in pool.map(_scan_shard, jobs):
                    total.merge(result)
            return total
        except OSError:  # pools can be unavailable in sandboxes
            pass
    for job in jobs:
        total.merge(_scan_shard(job))
    return total


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

    def argmin_lines(self) -> List[str]:
        return InducedSubgraph(self.plan.n, self.argmin_subset).to_lines()

    def to_json_dict(self) -> dict:
        return {
            "plan": self.plan.plan_echo(),
            "subsets_checked": self.subsets_checked,
            "min_max_degree": self.min_max_degree,
            "argmin_subset": self.argmin_lines(),
            "histogram": {str(k): self.histogram[k] for k in sorted(self.histogram)},
            "violations": self.violations,
        }


def random_masks(plan: EnumerationPlan) -> List[int]:
    """The full seeded sample for a RandomSample plan, in scan order."""
    if not isinstance(plan.strategy, RandomSample):
        raise ValueError("plan does not use random sampling")
    return list(_plan_masks(plan, 0))


def enumerate_and_verify(plan: EnumerationPlan) -> ExhaustiveReport:
    """Scan the plan's subsets and aggregate max-degree statistics.

    Deterministic for a fixed plan regardless of parallel_shards: shard
    boundaries are fixed rank intervals and the merge is ordered.
    """
    shards = min(plan.parallel_shards, plan.total_to_scan)  # more would add only empty intervals
    cuts = [plan.total_to_scan * i // shards for i in range(shards + 1)]
    jobs = [(plan, start, stop) for start, stop in zip(cuts, cuts[1:]) if start < stop]
    total = _run_shards(jobs, shards)

    if total.min_max_degree is None:
        raise InvariantViolation("scan produced no subsets")
    return ExhaustiveReport(
        plan=plan,
        subsets_checked=total.checked,
        min_max_degree=total.min_max_degree,
        argmin_subset=total.argmin_mask,
        histogram=dict(total.histogram),
        violations=total.violations,
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
    by the plan's strategy, or 0 for exhaustive plans); sample == pool size
    reproduces the full cross product. ``random.sample`` draws the ranks,
    so a pool over ``sys.maxsize`` subsets is refused with ValueError.
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

    w = WeightConfig.uniform(plan.n, 1, 1)
    checked = consistent = 0
    for index in chosen:
        members = pool[index] if pool is not None else unrank_combination(
            index, plan.subset_size
        )
        H = InducedSubgraph(plan.n, members)
        report = run_pipeline(w, H)
        witness_degree = report.profile.degree
        _, true_max = H.max_degree()
        checked += 1
        if report.certified and plan.degree_bound() <= witness_degree <= true_max:
            consistent += 1
    return CrossCheckReport(checked=checked, consistent=consistent)
