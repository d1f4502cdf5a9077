"""Packed scan: the bit-sliced degree kernel against the plain loops.

Core claims:
    - ``degree_sets`` gives, for every vertex, exactly the thresholds of
      its induced degree, also with many subsets packed side by side
      (padded 8-bit lanes for n <= 3, machine-word lanes for n = 4..6,
      wide lanes for n = 7..12) and no bit crossing a lane
    - ``enumerate_and_verify`` reproduces the oracle's histogram,
      violations, minimum and argmin (the smallest rank) for exhaustive and
      random plans, below and above half the cube
    - block and shard boundaries change nothing, ties across them included
    - the full cube's colex order, packed from its low-part tables one
      high part at a time, gives every size at n <= 4 exactly, from
      starts and to stops inside one high part, with blocks ending
      inside high parts and tables kept or packed again; each low table
      fits one block
    - the smallest rank wins a tie across a high-part boundary, in the
      block loop from any start and in the colex prefix scan
    - an exhaustive plan's report, weighed up from the smaller symmetry
      slice with its argmin from the colex prefix scan, equals the colex
      oracle's for every size at n <= 4 and the smallest and largest
      sizes at n = 5, with blocks across parts and shards across j; a
      wrong weight is refused
    - the seeded draw equals the plain Floyd loop, and each shard streams
      its subsets from the plan from any start rank, building no mask for
      the draws before its start
"""

import concurrent.futures
import functools
import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubesense import (
    EnumerationPlan,
    InducedSubgraph,
    InvariantViolation,
    RandomSample,
    enumerate_and_verify,
)
from cubesense import exhaustive
from cubesense.cube import degree_sets, lane_ones, lane_width
from cubesense.exhaustive import max_induced_degree, random_masks, sample_mask

from helpers import (
    oracle_colex,
    oracle_max_degree,
    oracle_random_masks,
    oracle_sample_mask,
    oracle_scan,
)


def degrees(n, members):
    return {
        u: sum(members >> (u ^ (1 << b)) & 1 for b in range(n))
        for u in range(1 << n)
        if members >> u & 1
    }


def assert_kernel(n, masks):
    width = lane_width(n)
    packed = sum(m << (i * width) for i, m in enumerate(masks))
    at_least = degree_sets(packed, n, lane_ones(n, len(masks)))
    assert len(at_least) == n + 1
    for i, members in enumerate(masks):
        deg = degrees(n, members)
        for k in range(n + 1):
            lane = at_least[k] >> (i * width) & ((1 << width) - 1)
            assert lane == sum(1 << u for u, d in deg.items() if d >= k), (n, members, k)
        expected = max(deg.values(), default=0)
        assert max_induced_degree(members, n) == expected
        if members:
            H = InducedSubgraph(n, members)
            best = min(u for u, d in deg.items() if d == expected)
            assert H.max_degree() == (best, expected)


def report_view(n, plan):
    report = enumerate_and_verify(plan).to_json_dict()
    return {
        "subsets_checked": report["subsets_checked"],
        "min_max_degree": report["min_max_degree"],
        "argmin_subset": sum(1 << int(line, 2) for line in report["argmin_subset"]),
        "histogram": {int(k): v for k, v in report["histogram"].items()},
        "violations": report["violations"],
    }


def plan_masks(plan):
    if isinstance(plan.strategy, RandomSample):
        strategy = plan.strategy
        return oracle_random_masks(plan.n, plan.subset_size, strategy.count, strategy.seed)
    return oracle_colex(plan.n, plan.subset_size)


@pytest.mark.parametrize("n", range(1, 13))
def test_kernel_matches_loop_in_packed_lanes(n):
    rng = random.Random(n)
    universe = 1 << n
    masks = [0, (1 << universe) - 1] + [
        sample_mask(rng, universe, rng.randrange(1, universe + 1)) for _ in range(20)
    ]
    assert_kernel(n, masks)
    assert_kernel(n, masks[2:3])


@pytest.mark.parametrize(
    "n,size",
    [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (3, 5), (3, 8),
     (4, 2), (4, 8), (4, 9), (4, 16), (5, 3), (5, 4), (5, 31), (6, 2), (6, 64), (7, 2)],
)
def test_exhaustive_plans_match_oracle(n, size):
    # (5, 4) is 35,960 subsets: 18 blocks of BLOCK_BITS // 32 = 2048
    plan = EnumerationPlan(n, size)
    assert report_view(n, plan) == oracle_scan(n, plan_masks(plan))


@pytest.mark.parametrize(
    "n,size,count",
    [(3, 4, 40), (4, 8, 300), (4, 9, 300), (5, 16, 500), (5, 17, 20000), (6, 33, 300),
     (7, 64, 40), (7, 65, 40), (8, 129, 10)],
)
def test_random_plans_match_oracle(n, size, count):
    plan = EnumerationPlan(n, size, RandomSample(count, n + size))
    assert report_view(n, plan) == oracle_scan(n, plan_masks(plan))


def test_sizes_at_or_below_half_report_violations():
    for n, size in ((3, 4), (4, 8), (5, 3)):
        report = enumerate_and_verify(EnumerationPlan(n, size))
        assert report.violations > 0
        assert not report.ok


class SerialPool:
    """Stands in for ProcessPoolExecutor and runs the shard jobs inline."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.mark.parametrize("block_bits", [8, 7 * 16, 64 * 16, exhaustive.BLOCK_BITS])
def test_block_and_shard_boundaries(monkeypatch, block_bits):
    # ties for the minimum fall in many blocks and shards: the argmin must
    # stay the smallest rank whichever block or shard holds it (blocks of
    # 8 bits hold one subset each)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    monkeypatch.setattr(exhaustive, "BLOCK_BITS", block_bits)
    plans = [
        EnumerationPlan(3, 5),
        EnumerationPlan(4, 9),
        EnumerationPlan(4, 13),
        EnumerationPlan(5, 17, RandomSample(3000, 5)),
        EnumerationPlan(7, 65, RandomSample(30, 2)),
    ]
    if block_bits > 7 * 16:
        plans.append(EnumerationPlan(5, 4))
    for plan in plans:
        expected = oracle_scan(plan.n, plan_masks(plan))
        for shards in (1, 2, 3):
            sharded = EnumerationPlan(
                plan.n, plan.subset_size, plan.strategy, parallel_shards=shards
            )
            assert report_view(plan.n, sharded) == expected, (plan, shards)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 7), data=st.data())
def test_random_plans_match_oracle_property(n, data):
    universe = 1 << n
    size = data.draw(st.integers(1, universe), label="size")
    count = data.draw(st.integers(1, 60), label="count")
    seed = data.draw(st.integers(0, 2**31), label="seed")
    shards = data.draw(st.integers(1, 3), label="shards")
    block_bits = data.draw(st.integers(1, 40), label="block_subsets") * lane_width(n)
    with mock.patch.object(concurrent.futures, "ProcessPoolExecutor", SerialPool), \
            mock.patch("os.cpu_count", lambda: 3), \
            mock.patch.object(exhaustive, "BLOCK_BITS", block_bits):
        plan = EnumerationPlan(n, size, RandomSample(count, seed), parallel_shards=shards)
        assert report_view(n, plan) == oracle_scan(n, plan_masks(plan))
        if math.comb(universe, size) <= 2000:
            plan = EnumerationPlan(n, size, parallel_shards=shards)
            assert report_view(n, plan) == oracle_scan(n, plan_masks(plan))


@pytest.mark.parametrize("n", range(1, 11))
def test_sample_mask_matches_oracle(n):
    universe = 1 << n
    for seed in (0, 1, 7, 2**31 + 5):
        for size in (1, universe // 2 + 1, universe):
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            for _ in range(3):  # later draws continue the same rng
                assert sample_mask(rng, universe, size) == oracle_sample_mask(
                    oracle_rng, universe, size
                ), (n, seed, size)
            assert rng.getstate() == oracle_rng.getstate()


def unpacked(n, blocks):
    """The masks of packed ``(packed, count, runs)`` blocks, lane by lane."""
    width = lane_width(n)
    lane = (1 << width) - 1
    return [packed >> (i * width) & lane for packed, count, _ in blocks for i in range(count)]


def test_plan_masks_from_any_start():
    # a shard starting at rank r scans exactly the stream's tail from r:
    # the seeded draws replayed by _plan_masks, the exhaustive subsets
    # packed from the low-half tables (in blocks of 3 lanes, which end
    # inside high halves' groups)
    plans = [
        EnumerationPlan(3, 4),
        EnumerationPlan(4, 9, RandomSample(50, 3)),
        EnumerationPlan(2, 4, RandomSample(5, 0)),
    ]
    for plan in plans:
        stream = plan_masks(plan)
        assert len(stream) == plan.total_to_scan
        for start in sorted({0, 1, 17, len(stream) - 1, len(stream)}):
            if isinstance(plan.strategy, RandomSample):
                tail = list(exhaustive._plan_masks(plan, start))
            else:
                pieces = exhaustive._pool_bytes(
                    plan.n, exhaustive._cube(plan.n), plan.subset_size, start, len(stream)
                )
                blocks = exhaustive._blocks(
                    zip(pieces, itertools.repeat(1)), plan.n, itertools.repeat(3)
                )
                tail = unpacked(plan.n, blocks)
            assert tail == stream[start:], (plan, start)
        if isinstance(plan.strategy, RandomSample):
            assert random_masks(plan) == stream


def high_groups(masks, split):
    """The rank intervals [first, stop) of equal high parts, the vertices
    from ``split`` on, in a colex list."""
    cuts = [0] + [r for r in range(1, len(masks)) if masks[r] >> split != masks[r - 1] >> split]
    return list(zip(cuts, cuts[1:] + [len(masks)]))


def cube_split(n, size):
    """Where ``_pool_bytes`` splits the full cube's vertices for size-subsets."""
    return exhaustive._split(exhaustive._cube(n), size, exhaustive._lanes(n))[0]


def cube_blocks(n, size, start, stop, lanes):
    """The blocks of ``lanes`` subsets that ``_blocks`` cuts from the full
    cube's colex ranks start..stop-1."""
    pieces = exhaustive._pool_bytes(n, exhaustive._cube(n), size, start, stop)
    return exhaustive._blocks(zip(pieces, itertools.repeat(1)), n, itertools.repeat(lanes))


def cube_scan(n, size, start, stop, prefix=()):
    """The merged ``_scan`` of the full cube's colex ranks start..stop-1."""
    pieces = exhaustive._pool_bytes(n, exhaustive._cube(n), size, start, stop)
    return exhaustive._merged(exhaustive._scan(n, zip(pieces, itertools.repeat(1)), start, prefix))


def shard_view(n, result):
    least, _, argmin = result.best
    return {
        "subsets_checked": sum(result.histogram.values()),
        "min_max_degree": least,
        "argmin_subset": argmin,
        "histogram": dict(result.histogram),
        "violations": sum(c for d, c in result.histogram.items() if d <= math.isqrt(n - 1)),
    }


def keep_tables(monkeypatch, table_bits):
    """Keeps ``_pool_table``'s tables only up to ``table_bits`` bits in all:
    past that, a table is packed again for each high part's group that
    asks for it. Returns the ``(n, pool, r)`` of every table packed."""
    build, kept, packed = exhaustive._pool_table.__wrapped__, {}, []

    def table(n, pool, r):
        if (n, pool, r) in kept:
            return kept[n, pool, r]
        packed.append((n, pool, r))
        result = build(n, pool, r)
        if 8 * (sum(size for *_, size in kept.values()) + result[2]) <= table_bits:
            kept[n, pool, r] = result
        return result

    monkeypatch.setattr(exhaustive, "_pool_table", table)
    return packed


@functools.lru_cache(maxsize=None)
def colex_scan(n, size):
    masks = oracle_colex(n, size)
    return masks, oracle_scan(n, masks)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("lanes", [3, 7, 4096])
@pytest.mark.parametrize("table_bits", [0, 1 << 24])
def test_every_size_matches_oracle_across_chunks_and_high_halves(
    monkeypatch, n, lanes, table_bits
):
    # 3 and 7 lanes to a block: blocks end inside high parts' groups.
    # table_bits = 0 keeps no table and packs it again for each group;
    # 2^24 bits keep every table. The whole colex order, its block loop
    # and the report all match
    monkeypatch.setattr(exhaustive, "BLOCK_BITS", lanes * lane_width(n))
    packed = keep_tables(monkeypatch, table_bits)
    inside = False
    for size in range(1, (1 << n) + 1):
        masks, expected = colex_scan(n, size)
        assert unpacked(n, cube_blocks(n, size, 0, len(masks), lanes)) == masks, size
        assert shard_view(n, cube_scan(n, size, 0, len(masks))) == expected, size
        assert report_view(n, EnumerationPlan(n, size)) == expected, size
        starts = {first for first, _ in high_groups(masks, cube_split(n, size))}
        inside = inside or any(end not in starts for end in range(lanes, len(masks), lanes))
    assert inside or n < 4 or lanes == 4096  # a block ends inside a group
    repacked = len(packed) > len(set(packed))
    assert repacked == (table_bits == 0), len(packed)


def test_tie_across_a_high_half_boundary(monkeypatch):
    # consecutive subsets of the minimum max degree in adjacent high parts:
    # whatever the blocks, the earlier one is the argmin, in the block loop
    # from either start and in the colex prefix scan
    n, size = 4, 9
    masks, expected = colex_scan(n, size)
    least = expected["min_max_degree"]
    degree = [oracle_max_degree(n, [u for u in range(1 << n) if m >> u & 1]) for m in masks]
    tied = [r for r, d in enumerate(degree) if d == least]
    for lanes in (1, 2, 7, 64):
        monkeypatch.setattr(exhaustive, "BLOCK_BITS", lanes * lane_width(n))
        split = cube_split(n, size)
        pairs = [(i, j) for i, j in zip(tied, tied[1:]) if masks[i] >> split != masks[j] >> split]
        assert pairs[0][0] == tied[0], lanes  # the argmin itself ties across a boundary
        assert exhaustive._first_argmin(EnumerationPlan(n, size), least) == masks[tied[0]]
        for i, j in pairs[:4]:
            boundary = next(first for first, _ in high_groups(masks, split) if i < first <= j)
            # the first block ends one past i, at the boundary, at j or past j
            for first_block in (1, boundary - i, j - i, j + 1 - i):
                result = cube_scan(n, size, i, j + 1, (first_block,))
                assert result.best == (least, i, masks[i]), (i, j, lanes, first_block)
                result = cube_scan(n, size, boundary, j + 1, (first_block,))
                assert result.best == (least, j, masks[j]), (i, j, lanes, first_block)


@pytest.mark.parametrize("half", [1, 2, 4, 8])
def test_high_halves_are_exactly_those_with_room(half):
    # every high part leaving 0..half of the k vertices to a low part of
    # half vertices, ascending from any of them, and no other; the high
    # part has as many vertices, or more (a pool split off centre)
    for high in (half, half + 1, 2 * half + 1):
        for k in range(1, half + high + 1):
            fits = [h for h in range(1 << high) if 0 <= k - h.bit_count() <= half]
            for i in range(0, len(fits), max(1, len(fits) // 7)):
                got = list(exhaustive._high_halves(half, high, k, fits[i]))
                assert got == fits[i:], (high, k, fits[i])


def table_sizes(split, others, r):
    """The sizes of the c-subset tables of a low part of split vertices,
    for every c that a high part of ``others`` vertices leaves of r."""
    return [math.comb(split, c) for c in range(max(0, r - others), min(r, split) + 1)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_split_sizes_each_table_to_one_block(n):
    # low is the pool's lowest vertices, as many as keep every table it
    # needs within one block, so no packed table outgrows a block; the
    # n = 4 slice's pool of 11 is kept whole
    lanes, step = exhaustive._lanes(n), lane_width(n) // 8
    rest = exhaustive._cube(n) ^ 1 ^ sum(1 << (1 << i) for i in range(n))
    for pool in (exhaustive._cube(n), rest):
        size = pool.bit_count()
        for r in range(size + 1):
            split, low, high = exhaustive._split(pool, r, lanes)
            assert low.bit_count() == split and low | sum(1 << v for v in high) == pool
            assert low < 1 << min(high, default=1 << n)
            assert max(table_sizes(split, size - split, r)) <= lanes, (r, split)
            for c in range(max(0, r - (size - split)), min(r, split) + 1):
                _, ones, nbytes = exhaustive._pool_table(n, low, c)
                assert ones == lane_ones(n, math.comb(split, c))
                assert nbytes == math.comb(split, c) * step <= lanes * step, (r, c)
            if split < size:
                assert max(table_sizes(split + 1, size - split - 1, r)) > lanes, (r, split)
            if n == 4 and pool == rest:
                assert split == size == 11


@pytest.mark.parametrize("n,size", [(3, 4), (4, 3), (4, 9), (4, 14), (5, 3)])
def test_shard_cut_inside_a_high_half(monkeypatch, n, size):
    # start and stop both fall inside one high part's group of the full
    # cube's colex order: its masks in blocks of 3, and the block loop's
    # statistics with the argmin's rank, match the oracle's slice
    masks = oracle_colex(n, size)
    for lanes in (7, 4096):  # groups of at most 7, and as long as a table of 4096
        monkeypatch.setattr(exhaustive, "BLOCK_BITS", lanes * lane_width(n))
        groups = high_groups(masks, cube_split(n, size))
        groups = [(first, stop) for first, stop in groups if stop - first >= 4]
        assert groups, lanes
        for first, stop in groups[:: max(1, len(groups) // 5)]:
            for start, end in ((first + 1, stop - 1), (first + 1, first + 2), (first + 2, stop)):
                assert unpacked(n, cube_blocks(n, size, start, end, 3)) == masks[start:end]
                result = cube_scan(n, size, start, end)
                expected = oracle_scan(n, masks[start:end])
                assert shard_view(n, result) == expected, (first, stop, start, end)
                assert result.best[1] == start + masks[start:end].index(result.best[2])


@pytest.mark.parametrize("start, stop", [(0, 7), (13, 20), (49, 50)])
def test_shard_builds_only_its_own_draws(monkeypatch, start, stop):
    # the draws before a shard's start make their randrange calls, no masks
    calls = []

    def counted(rng, universe, size):
        calls.append(size)
        return sample_mask(rng, universe, size)

    monkeypatch.setattr(exhaustive, "sample_mask", counted)
    plan = EnumerationPlan(4, 9, RandomSample(50, 3))
    result = exhaustive._scan_shard((plan, start, stop))
    assert len(calls) == stop - start
    expected = oracle_scan(4, oracle_random_masks(4, 9, 50, 3)[start:stop])
    assert dict(result.histogram) == expected["histogram"]
    assert sum(result.histogram.values()) == stop - start


@pytest.mark.parametrize("shards", [1, 3])
def test_random_scan_builds_no_sample_list(monkeypatch, shards):
    def never(plan):
        raise AssertionError("the scan built the whole sample")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    monkeypatch.setattr(exhaustive, "random_masks", never)
    plan = EnumerationPlan(5, 17, RandomSample(700, 9), parallel_shards=shards)
    assert report_view(5, plan) == oracle_scan(5, plan_masks(plan))


# -- the symmetry slice --------------------------------------------------------


def slice_sides(n, k):
    """The lengths of the 0-in-H and 0-not-in-H slices, counted directly:
    the subsets of each form ``{0?, e_1..e_j} | S`` with S of weight >= 2."""
    m = (1 << n) - n - 1
    inside = sum(math.comb(m, k - 1 - j) for j in range(n + 1) if 0 <= k - 1 - j <= m)
    outside = sum(math.comb(m, k - j) for j in range(n + 1) if 0 <= k - j <= m)
    return inside, outside


@pytest.mark.parametrize("n", range(1, 7))
def test_slice_is_the_smaller_side(n):
    for k in range(1, (1 << n) + 1):
        divisor, parts = exhaustive._slice(n, k)
        inside, outside = slice_sides(n, k)
        length = sum(part[3] for part in parts)
        if k < 1 << n and outside < inside:
            assert (divisor, length) == ((1 << n) - k, outside), k
            assert all(base & 1 == 0 for _, base, _, _ in parts)
        else:
            assert (divisor, length) == (k, inside), k
            assert all(base & 1 for _, base, _, _ in parts)
        assert [base.bit_count() + r for _, base, r, _ in parts] == [k] * len(parts)


def test_n5_slices_hold_the_stated_shares():
    # k = 17 scans 8.1% of its subsets, on the side without 0; both sides
    # of k = 16 hold 50,480,055 subsets
    divisor, parts = exhaustive._slice(5, 17)
    assert (divisor, sum(part[3] for part in parts)) == (15, 45_878_445)
    assert slice_sides(5, 16) == (50_480_055, 50_480_055)
    divisor, parts = exhaustive._slice(5, 16)
    assert (divisor, sum(part[3] for part in parts)) == (16, 50_480_055)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("lanes", [1, 7, 4096])
@pytest.mark.parametrize("table_bits", [0, 40 * 16, 1 << 24])
def test_slice_matches_the_colex_oracle(monkeypatch, n, lanes, table_bits):
    # every size, on 1-3 shards. 7 lanes to a block cut blocks inside
    # parts and across j; 1 lane splits every pool, and 4096 keeps the
    # n <= 4 pools whole. table_bits = 0 keeps no table, 640 bits keep
    # some and pack others again, 2^24 bits keep every one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    monkeypatch.setattr(exhaustive, "BLOCK_BITS", lanes * lane_width(n))
    packed = keep_tables(monkeypatch, table_bits)
    runs = []
    scan_block = exhaustive._scan_block

    def recorded(*args):
        runs.append(args[-1])
        return scan_block(*args)

    monkeypatch.setattr(exhaustive, "_scan_block", recorded)
    for size in range(1, (1 << n) + 1):
        _, expected = colex_scan(n, size)
        for shards in (1, 2, 3):
            plan = EnumerationPlan(n, size, parallel_shards=shards)
            assert report_view(n, plan) == expected, (size, shards)
    repacked = len(packed) > len(set(packed))
    assert repacked == (table_bits == 0) or table_bits == 40 * 16
    if n == 4 and lanes == 7:
        assert any(len(block) > 1 for block in runs)  # a block across parts
        assert repacked == (table_bits < 1 << 24)  # 640 bits leave some to pack again


@pytest.mark.parametrize("size", [1, 2, 3, 4, 28, 29, 30, 31, 32])
def test_slice_matches_the_colex_oracle_at_n5(size):
    _, expected = colex_scan(5, size)
    assert report_view(5, EnumerationPlan(5, size)) == expected


@pytest.mark.parametrize("n,size", [(2, 3), (3, 5), (4, 9), (4, 16), (5, 31)])
def test_a_wrong_weight_is_refused(monkeypatch, n, size):
    # one part's weight off by one: a bin stops dividing, or the bins stop
    # summing to C(2^n, k)
    sliced = exhaustive._slice

    def wrong(n, k):
        divisor, ((weight, *rest), *parts) = sliced(n, k)
        return divisor, ((weight + 1, *rest), *parts)

    monkeypatch.setattr(exhaustive, "_slice", wrong)
    with pytest.raises(InvariantViolation):
        enumerate_and_verify(EnumerationPlan(n, size))


@pytest.mark.parametrize("lanes", [1, 64, 4096])
def test_argmin_past_the_first_prefix_block(monkeypatch, lanes):
    # n = 4, k = 9: the first subset of max degree 2 has colex rank 637,
    # past the prefix scan's first block of 64 subsets
    monkeypatch.setattr(exhaustive, "BLOCK_BITS", lanes * lane_width(4))
    masks, expected = colex_scan(4, 9)
    assert masks.index(expected["argmin_subset"]) == 637
    report = enumerate_and_verify(EnumerationPlan(4, 9))
    assert report.argmin_subset == expected["argmin_subset"]
    counts, scan_block = [], exhaustive._scan_block
    monkeypatch.setattr(
        exhaustive, "_scan_block", lambda *args: counts.append(args[3]) or scan_block(*args)
    )
    assert exhaustive._first_argmin(EnumerationPlan(4, 9), 2) == masks[637]
    # blocks of 64, 256 and 1024 subsets, each capped at a full block, up
    # to the one that holds rank 637
    sizes = [min(size, lanes) for size in (64, 256, 1024)] + [lanes] * 637
    last = next(i for i, end in enumerate(itertools.accumulate(sizes)) if end > 637)
    assert counts == sizes[: last + 1]
    with pytest.raises(InvariantViolation, match="no subset"):  # the minimum is 2
        exhaustive._first_argmin(EnumerationPlan(4, 9), 1)
    if lanes > 1:  # rank 0 has max degree 4, and the first block goes below it
        with pytest.raises(InvariantViolation, match="below"):
            exhaustive._first_argmin(EnumerationPlan(4, 9), 4)
