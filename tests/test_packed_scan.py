"""Packed scan: the bit-sliced degree kernel against the plain loops.

Core claims:
    - ``degree_sets`` gives, for every vertex, exactly the thresholds of
      its induced degree, also with many subsets packed side by side
      (padded 8-bit lanes for n <= 3, machine-word lanes for n = 4..6,
      wide lanes for n = 7..12) and no bit crossing a lane
    - ``enumerate_and_verify`` reproduces the oracle's histogram,
      violations, minimum and argmin (the first reaching it) for exhaustive and
      random plans, below and above half the cube
    - block and shard boundaries change nothing, ties across them included
    - the full cube's colex order, packed one leaf table at a time by
      Pascal's rule, gives every size at n <= 4 exactly, one piece per
      leaf, from starts and to stops inside one leaf or in different
      leaves, with blocks ending inside leaves and tables kept or packed
      again; every table asked for holds the r-subsets of the pool's
      lowest vertices and fits one block, at n <= 6; the 1024 vertices
      of n = 10 need no nested calls, and their one-subset leaves share
      one table
    - the earlier subset wins a tie across a leaf boundary, in the block
      loop from any start and in the colex argmin scan
    - the argmin scan, which skips every branch whose base already exceeds
      the minimum, finds the unpruned colex scan's argmin for every size at
      n <= 4 with blocks cut inside leaves, and at n = 5 for k <= 10 and
      k >= 17
    - an exhaustive plan's report, weighed up from the smaller symmetry
      slice with its argmin from the colex argmin scan, equals the colex
      oracle's for every size at n <= 4 and the smallest and largest
      sizes at n = 5, with blocks across parts and shards across j; a
      wrong weight is refused
    - the seeded draw equals the plain Floyd loop over ``randrange``, and
      leaves the rng in the same state, at sizes 1..3 up to n = 16 and on
      both sides of the set / byte-per-vertex crossover; a seeded sample
      draws each subset once, in one stream, whatever the shard count

In test names a "high half" is a leaf and "split" the branching into
leaves: the words of the low/high split these tests first covered.
"""

import concurrent.futures
import functools
import itertools
import math
import random
from pathlib import Path
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
from cubesense.cube import degree_sets, iter_bits, lane_ones, lane_width
from cubesense.exhaustive import max_induced_degree, random_masks, sample_mask

from helpers import (
    colex_from,
    oracle_colex,
    oracle_first_argmin,
    oracle_max_degree,
    oracle_random_masks,
    oracle_sample_mask,
    oracle_scan,
    unrank_combination,
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


@pytest.mark.parametrize("n", range(1, 17))
def test_sample_mask_matches_oracle(n):
    # sizes 1..3; the largest size kept in a set and the next one, which
    # marks a byte per vertex; and up to n = 10, where the oracle's
    # quadratic cost stays small, half the cube plus one and all of it
    universe = 1 << n
    sparse = universe // exhaustive.SPARSE_RATIO
    sizes = {1, 2, 3, sparse, sparse + 1}
    if n <= 10:
        sizes |= {universe // 2 + 1, universe}
    for seed in (0, 1, 7, 2**31 + 5):
        for size in sorted(size for size in sizes if 0 < size <= universe):
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            for _ in range(3):  # later draws continue the same rng
                assert sample_mask(rng, universe, size) == oracle_sample_mask(
                    oracle_rng, universe, size
                ), (n, seed, size)
            assert rng.getstate() == oracle_rng.getstate()


@pytest.mark.parametrize("n", range(1, 13))
def test_plan_stream_matches_oracle(n):
    # a plan draws its whole sample from one Floyd loop, which reads each
    # member's bit count once per run of members: sizes 1 and 2, the largest
    # kept in a set and the next, half the cube plus one and all of it, and
    # each size whose first member is 2^k - 2, 2^k - 1 or 2^k, the edges of
    # the runs. Three draws each, so every draw starts where the last ended
    universe = 1 << n
    sparse = universe // exhaustive.SPARSE_RATIO
    sizes = {1, 2, sparse, sparse + 1, universe // 2 + 1, universe}
    sizes |= {universe - (1 << k) + d for k in range(n + 1) for d in (2, 1, 0)}
    for size in sorted(size for size in sizes if 0 < size <= universe):
        for seed in (0, 5):
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            oracle = [oracle_sample_mask(oracle_rng, universe, size) for _ in range(3)]
            plan = EnumerationPlan(n, size, RandomSample(3, seed))
            assert random_masks(plan) == oracle, (n, size, seed)
            assert list(itertools.islice(exhaustive._draws(rng, universe, size), 3)) == oracle
            assert rng.getstate() == oracle_rng.getstate(), (n, size, seed)


def unpacked(n, blocks):
    """The masks of packed ``(packed, count, runs)`` blocks, lane by lane:
    each block's bytes once, sliced per lane."""
    step, masks = lane_width(n) // 8, []
    for packed, count, _ in blocks:
        data = packed.to_bytes(count * step, "little")
        masks += (int.from_bytes(data[i : i + step], "little") for i in range(0, len(data), step))
    return masks


def test_plan_masks_from_any_start():
    # a shard starting at rank r scans exactly the stream's tail from r:
    # the exhaustive subsets packed from the leaf tables (in blocks of 3
    # lanes, which end inside leaves). A seeded sample is one whole stream
    n, size = 3, 4
    stream = plan_masks(EnumerationPlan(n, size))
    assert len(stream) == math.comb(1 << n, size)
    for start in sorted({0, 1, 17, len(stream) - 1, len(stream)}):
        pieces = exhaustive._pool_bytes(n, exhaustive._cube(n), size, start, len(stream))
        blocks = exhaustive._blocks(zip(pieces, itertools.repeat(1)), n, itertools.repeat(3))
        assert unpacked(n, blocks) == stream[start:], start
    for n, size, sample in ((4, 9, RandomSample(50, 3)), (2, 4, RandomSample(5, 0))):
        plan = EnumerationPlan(n, size, sample)
        stream = plan_masks(plan)
        assert list(exhaustive._plan_masks(plan)) == random_masks(plan) == stream


def leaf_lengths(p, r, lanes):
    """The lengths of the leaves of a pool of p vertices' r-subsets, in
    rank order: Pascal's rule, without the top vertex and then with it,
    until a branch's subsets fit one block of ``lanes``."""
    if math.comb(p, r) <= lanes:
        return [math.comb(p, r)]
    return leaf_lengths(p - 1, r, lanes) + leaf_lengths(p - 1, r - 1, lanes)


def cube_leaves(n, size, lanes):
    """The rank intervals [first, stop) of the full cube's leaves."""
    cuts = [0, *itertools.accumulate(leaf_lengths(1 << n, size, lanes))]
    return list(zip(cuts, cuts[1:]))


def cube_blocks(n, size, start, stop, lanes):
    """The blocks of ``lanes`` subsets that ``_blocks`` cuts from the full
    cube's colex ranks start..stop-1."""
    pieces = exhaustive._pool_bytes(n, exhaustive._cube(n), size, start, stop)
    return exhaustive._blocks(zip(pieces, itertools.repeat(1)), n, itertools.repeat(lanes))


def cube_scan(n, size, start, stop, prefix=()):
    """The merged ``_scan`` of the full cube's colex ranks start..stop-1."""
    pieces = exhaustive._pool_bytes(n, exhaustive._cube(n), size, start, stop)
    return exhaustive._merged(exhaustive._scan(n, zip(pieces, itertools.repeat(1)), prefix))


def shard_view(n, result):
    least, argmin = result.best
    return {
        "subsets_checked": sum(result.histogram.values()),
        "min_max_degree": least,
        "argmin_subset": argmin,
        "histogram": dict(result.histogram),
        "violations": sum(c for d, c in result.histogram.items() if d <= math.isqrt(n - 1)),
    }


def keep_tables(monkeypatch, table_bits):
    """Keeps ``_pool_table``'s tables only up to ``table_bits`` bits in all:
    past that, a table is packed again for each leaf that asks for it.
    Returns the ``(n, pool, r)`` of every table packed."""
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
@pytest.mark.parametrize("lanes", [1, 3, 7, 4096])
@pytest.mark.parametrize("table_bits", [0, 1 << 24])
def test_every_size_matches_oracle_across_chunks_and_high_halves(monkeypatch, n, lanes, table_bits):
    # 1 lane to a block makes every subset its own leaf; 3 and 7 lanes, and
    # 4096 at n = 4, end blocks inside leaves. table_bits = 0 keeps no
    # table and packs it again for each leaf; 2^24 bits keep every table.
    # The whole colex order, one piece per leaf, its block loop and the
    # report all match
    monkeypatch.setattr(exhaustive, "BLOCK_BITS", lanes * lane_width(n))
    packed = keep_tables(monkeypatch, table_bits)
    step = lane_width(n) // 8
    inside = False
    for size in range(1, (1 << n) + 1):
        masks, expected = colex_scan(n, size)
        pieces = exhaustive._pool_bytes(n, exhaustive._cube(n), size, 0, len(masks))
        lengths = [len(data) // step for data in pieces]
        assert lengths == leaf_lengths(1 << n, size, lanes), size
        assert unpacked(n, cube_blocks(n, size, 0, len(masks), lanes)) == masks, size
        assert shard_view(n, cube_scan(n, size, 0, len(masks))) == expected, size
        assert report_view(n, EnumerationPlan(n, size)) == expected, size
        starts = {first for first, _ in cube_leaves(n, size, lanes)}
        inside = inside or any(end not in starts for end in range(lanes, len(masks), lanes))
    assert inside or n < 4 or lanes == 1  # a block ends inside a leaf
    repacked = len(packed) > len(set(packed))
    assert repacked == (table_bits == 0), len(packed)


def test_tie_across_a_high_half_boundary(monkeypatch):
    # consecutive subsets of the minimum max degree in adjacent leaves:
    # whatever the blocks, the earlier one is the argmin, in the block loop
    # from either start and in the argmin scan
    n, size = 4, 9
    masks, expected = colex_scan(n, size)
    least = expected["min_max_degree"]
    degree = [oracle_max_degree(n, [u for u in range(1 << n) if m >> u & 1]) for m in masks]
    tied = [r for r, d in enumerate(degree) if d == least]
    for lanes in (1, 3, 7, 4096):
        monkeypatch.setattr(exhaustive, "BLOCK_BITS", lanes * lane_width(n))
        starts = [first for first, _ in cube_leaves(n, size, lanes)]
        pairs = [(i, j) for i, j in zip(tied, tied[1:]) if any(i < s <= j for s in starts)]
        assert pairs, lanes
        if lanes < 4096:
            assert pairs[0][0] == tied[0], lanes  # the argmin itself ties across a boundary
        assert exhaustive._first_argmin(EnumerationPlan(n, size), least) == masks[tied[0]]
        for i, j in pairs[:4]:
            boundary = next(s for s in starts if i < s <= j)
            # the first block ends one past i, at the boundary, at j or past j
            for first_block in (1, boundary - i, j - i, j + 1 - i):
                result = cube_scan(n, size, i, j + 1, (first_block,))
                assert result.best == (least, masks[i]), (i, j, lanes, first_block)
                result = cube_scan(n, size, boundary, j + 1, (first_block,))
                assert result.best == (least, masks[j]), (i, j, lanes, first_block)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_split_sizes_each_table_to_one_block(monkeypatch, n):
    # for the full cube and the slice's pool, at every r, from a start at
    # either end and one inside: every table _pool_bytes asks for holds the
    # r'-subsets of the pool's lowest vertices (of none, for a leaf of one
    # subset) and fits one block, one piece comes per table, and the pieces
    # are the pool's subsets in colex order. At 4096 lanes the n = 4
    # slice's pool of 11 is one table for each r with more than one subset
    table, asked = exhaustive._pool_table, []
    monkeypatch.setattr(exhaustive, "_pool_table", lambda *args: asked.append(args) or table(*args))
    width, step = lane_width(n), lane_width(n) // 8
    rest = exhaustive._cube(n) ^ 1 ^ sum(1 << (1 << i) for i in range(n))
    for lanes in (1, 3, 7, 4096):
        monkeypatch.setattr(exhaustive, "BLOCK_BITS", lanes * width)
        for pool in (exhaustive._cube(n), rest):
            vertices = list(iter_bits(pool))
            size = len(vertices)
            for r in range(size + 1):
                total, span = math.comb(size, r), 2 * lanes + 5
                for start in sorted({0, total // 3, max(0, total - span)}):
                    stop = min(total, start + span)
                    asked.clear()
                    pieces = list(exhaustive._pool_bytes(n, pool, r, start, stop))
                    assert len(pieces) == len(asked), (lanes, r, start)
                    for _, low, c in asked:
                        length = math.comb(low.bit_count(), c)
                        assert length <= lanes and low == pool & ((1 << low.bit_length()) - 1)
                        _, ones, nbytes = table(n, low, c)
                        assert (ones, nbytes) == (lane_ones(n, length), length * step)
                    first = sum(1 << vertices[i] for i in iter_bits(unrank_combination(start, r)))
                    expected = list(itertools.islice(colex_from(first, pool), stop - start))
                    data = b"".join(pieces)
                    got = unpacked(n, [(int.from_bytes(data, "little"), len(data) // step, None)])
                    assert got == expected, (lanes, r, start)
                if n == 4 and pool == rest and lanes == 4096 and 0 < r < size:
                    assert len(asked) == 1 and asked[0][1] == rest


@pytest.mark.parametrize("r", [1, 2, 1022, 1023])
def test_a_deep_pool_needs_no_deep_calls(monkeypatch, r):
    # n = 10 has 64 lanes to a block, so the cube's 1024 vertices take about
    # a thousand levels of branches for r near 1 or 1023, past Python's
    # recursion limit, and each level has a leaf of one subset: those share
    # one table. 300 subsets at either end match Gosper's order
    table, asked = exhaustive._pool_table, set()
    monkeypatch.setattr(exhaustive, "_pool_table", lambda *args: asked.add(args) or table(*args))
    n, pool, step = 10, exhaustive._cube(10), lane_width(10) // 8
    total = math.comb(1024, r)
    for start in (0, total - 300):
        data = b"".join(exhaustive._pool_bytes(n, pool, r, start, start + 300))
        got = unpacked(n, [(int.from_bytes(data, "little"), len(data) // step, None)])
        assert got == list(itertools.islice(colex_from(unrank_combination(start, r), pool), 300))
    assert (n, 0, 0) in asked and len(asked) < 30, len(asked)  # not one per leaf


@pytest.mark.parametrize("n,size", [(3, 4), (4, 3), (4, 9), (4, 14), (5, 3)])
def test_shard_cut_inside_a_high_half(monkeypatch, n, size):
    # start and stop inside one leaf of the full cube's colex order, or in
    # different leaves: the masks in blocks of 3, and the block loop's
    # statistics with its argmin, match the oracle's slice
    masks = oracle_colex(n, size)
    for lanes in (1, 3, 7, 4096):
        monkeypatch.setattr(exhaustive, "BLOCK_BITS", lanes * lane_width(n))
        leaves = cube_leaves(n, size, lanes)
        long = [(first, stop) for first, stop in leaves if stop - first >= 3]
        inside = [
            cut
            for first, stop in long[:: max(1, len(long) // 5)]
            for cut in ((first + 1, stop - 1), (first + 1, first + 2), (first + 2, stop))
        ]
        # from the middle of one leaf to the middle of one 1 to 3 leaves on
        across = []
        for i in range(0, len(leaves) - 1, max(1, len(leaves) // 5)):
            (a, b), (c, d) = leaves[i], leaves[min(i + 1 + i % 3, len(leaves) - 1)]
            across.append(((a + b) // 2, (c + d + 1) // 2))
        assert (inside or lanes == 1) and (across or len(leaves) == 1), lanes
        for start, end in inside + across:
            assert unpacked(n, cube_blocks(n, size, start, end, 3)) == masks[start:end]
            result = cube_scan(n, size, start, end)
            expected = oracle_scan(n, masks[start:end])
            assert shard_view(n, result) == expected, (lanes, start, end)


@pytest.mark.parametrize("shards", [1, 3, 400])
def test_sample_draws_each_subset_once(monkeypatch, shards):
    # a seeded sample is one stream in this process, whatever the shard
    # count: each of its draws is made once, and none is replayed
    calls, draws = [], exhaustive._draws

    def counted(rng, universe, size):
        for mask in draws(rng, universe, size):
            calls.append(size)
            yield mask

    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setattr(exhaustive, "_draws", counted)
    plan = EnumerationPlan(4, 9, RandomSample(50, 3), parallel_shards=shards)
    assert report_view(4, plan) == oracle_scan(4, plan_masks(plan))
    assert len(calls) == 50


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


def pruned_colex(n, vertices, r, base, cap, lanes):
    """The pool ``vertices``' (ascending) r-subsets, each with base, in
    colex order, less the branches with the top vertex whose base has a
    max degree above cap: Pascal's rule, until a branch's subsets fit one
    block of ``lanes``."""
    if math.comb(len(vertices), r) <= lanes:
        return sorted(base | sum(1 << v for v in c) for c in itertools.combinations(vertices, r))
    *rest, top = vertices
    masks = pruned_colex(n, rest, r, base, cap, lanes)
    if oracle_max_degree(n, [u for u in range(1 << n) if (base | 1 << top) >> u & 1]) <= cap:
        masks += pruned_colex(n, rest, r - 1, base | 1 << top, cap, lanes)
    return masks


@pytest.mark.parametrize("lanes", [1, 64, 4096])
def test_argmin_past_the_first_prefix_block(monkeypatch, lanes):
    # n = 4, k = 9: the first subset of max degree 2 has colex rank 637,
    # past the argmin scan's first block of 64 subsets. The scan skips the
    # branches whose base has max degree above 2, and so reaches it sooner
    # in blocks of 1 or 64 lanes (rank 252 and 581 of what it scans). In
    # blocks of 4096 it lies in a leaf before any branch is skipped
    monkeypatch.setattr(exhaustive, "BLOCK_BITS", lanes * lane_width(4))
    masks, expected = colex_scan(4, 9)
    assert masks.index(expected["argmin_subset"]) == 637
    report = enumerate_and_verify(EnumerationPlan(4, 9))
    assert report.argmin_subset == expected["argmin_subset"]
    counts, scan_block = [], exhaustive._scan_block
    monkeypatch.setattr(
        exhaustive, "_scan_block", lambda *args: counts.append(args[2]) or scan_block(*args)
    )
    assert exhaustive._first_argmin(EnumerationPlan(4, 9), 2) == masks[637]
    # blocks of 64, 256 and 1024 subsets, each capped at a full block, up
    # to the one that holds the argmin in the pruned order
    pruned = pruned_colex(4, range(16), 9, 0, 2, lanes)
    data = b"".join(exhaustive._pool_bytes(4, exhaustive._cube(4), 9, 0, len(masks), cap=2))
    assert unpacked(4, [(int.from_bytes(data, "little"), len(pruned), None)]) == pruned
    at = pruned.index(masks[637])
    assert set(pruned) <= set(masks) and (at < 637) == (lanes < 4096)
    sizes = [min(size, lanes) for size in (64, 256, 1024)] + [lanes] * 637
    last = next(i for i, end in enumerate(itertools.accumulate(sizes)) if end > at)
    assert counts == sizes[: last + 1]
    with pytest.raises(InvariantViolation, match="no subset"):  # the minimum is 2
        exhaustive._first_argmin(EnumerationPlan(4, 9), 1)
    if lanes > 1:  # rank 0 has max degree 4, and the first block goes below it
        with pytest.raises(InvariantViolation, match="below"):
            exhaustive._first_argmin(EnumerationPlan(4, 9), 4)


def n5_minima():
    """min_max_degree of each n = 5 size, k = 1..32, read off the frozen
    every-size golden."""
    lines = (Path(__file__).parent / "goldens" / "exhaustive-n5-every-size.txt").read_text()
    return [int(line.split()[1]) for line in lines.splitlines() if "min_max_degree" in line]


@pytest.mark.parametrize(
    "n,lanes", [(n, lanes) for n in (1, 2, 3, 4) for lanes in (1, 3, 7, None)] + [(5, None)]
)
def test_pruned_argmin_matches_the_unpruned_oracle(monkeypatch, n, lanes):
    # the argmin scan skips every branch whose base already has a max
    # degree above the minimum; the unpruned colex scan, in the same block
    # schedule, must find the same subset. 1, 3 and 7 lanes (None: the
    # default block) end blocks inside leaves. Every size at n <= 4,
    # minimum 0 (k = 1) to n (k = 2^n); at n = 5 the sizes whose oracle
    # scan takes under a second, with the minima of the frozen golden
    if lanes:
        monkeypatch.setattr(exhaustive, "BLOCK_BITS", lanes * lane_width(n))
    if n < 5:
        sizes = range(1, (1 << n) + 1)
        minima = [colex_scan(n, size)[1]["min_max_degree"] for size in sizes]
        assert (minima[0], minima[-1]) == (0, n)
    else:
        sizes, minima = [*range(1, 11), *range(17, 33)], n5_minima()
        minima = [minima[size - 1] for size in sizes]
    for size, least in zip(sizes, minima):
        plan = EnumerationPlan(n, size, budget=math.comb(1 << n, size))
        expected = oracle_first_argmin(plan, least)
        assert exhaustive._first_argmin(plan, least) == expected, (size, least)
        assert max_induced_degree(expected, n) == least and expected.bit_count() == size
