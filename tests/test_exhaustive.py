"""Brute-force verifier: enumeration order, sharding, goldens, cross-checks.

Core claims:
    - Gosper iteration and colex (un)ranking agree and cover every subset;
      the packed enumerator's interval of one rank is the unranked subset
    - the scan reproduces the independent itertools oracle for n = 2, 3, 4
      (goldens below were first computed by that oracle, then frozen)
    - zero violations of the ceil(sqrt(n)) bound anywhere
    - reports are identical across shard-count variations and reruns, and
      no plan cuts more shard jobs than there are CPUs
    - the spectral pipeline agrees with the combinatorial scan on samples
"""

import math
import random
import sys
import tracemalloc

import pytest

from cubesense import (
    BudgetExceededError,
    EnumerationPlan,
    Exhaustive,
    InducedSubgraph,
    RandomSample,
    cross_check_with_witness,
    enumerate_and_verify,
)
from cubesense import exhaustive
from cubesense.cube import lane_width
from cubesense.exhaustive import max_induced_degree, random_masks, sample_mask

from helpers import (
    next_combination,
    oracle_exhaustive,
    oracle_max_degree,
    rank_combination,
    unrank_combination,
)

# min-max degree, histogram, violations: first derived by oracle_exhaustive
# (plain itertools enumeration), then frozen; the scan must reproduce them.
GOLDEN = {
    (1, 2): (1, {1: 1}, 0),
    (2, 3): (2, {2: 4}, 0),
    (3, 5): (2, {2: 24, 3: 32}, 0),
    (4, 9): (2, {2: 48, 3: 6752, 4: 4640}, 0),
}


def test_gosper_enumerates_colex():
    masks = []
    mask = unrank_combination(0, 3)
    for _ in range(math.comb(6, 3)):
        masks.append(mask)
        mask = next_combination(mask)
    assert masks[0] == 0b000111
    assert masks == sorted(masks)
    assert len(set(masks)) == 20
    assert all(m.bit_count() == 3 for m in masks)
    assert masks[-1] == 0b111000


def one_rank(n, pool, k, rank):
    """The k-subset of the vertex set ``pool`` of colex rank ``rank``: the
    one lane of ``_pool_bytes`` from rank to rank + 1."""
    lane = b"".join(exhaustive._pool_bytes(n, pool, k, rank, rank + 1))
    assert len(lane) == lane_width(n) // 8
    return int.from_bytes(lane, "little")


def test_rank_unrank_round_trip():
    # the pool is the lowest 9 vertices of Q_4
    for k in (1, 2, 5):
        for rank in range(math.comb(9, k)):
            mask = one_rank(4, (1 << 9) - 1, k, rank)
            assert rank_combination(mask) == rank


@pytest.mark.parametrize("n", range(1, 7))
def test_one_rank_matches_unrank_oracle(n):
    # every rank of every size up to n = 3; past that ranks 0, the last,
    # the middle and 20 drawn ones of the sizes at the ends and the middle
    rng, cube, universe = random.Random(n), exhaustive._cube(n), 1 << n
    sizes = range(1, universe + 1) if n <= 3 else (1, 2, universe // 2, universe // 2 + 1, universe)
    for k in sizes:
        total = math.comb(universe, k)
        ranks = range(total) if n <= 3 else {0, total - 1, total // 2}
        ranks = sorted({*ranks, *(rng.randrange(total) for _ in range(20))})
        assert ranks[0] == 0 and ranks[-1] == total - 1
        for rank in ranks:
            assert one_rank(n, cube, k, rank) == unrank_combination(rank, k), (k, rank)


def test_max_induced_degree_matches_oracle():
    rng = random.Random(61)
    for _ in range(300):
        n = rng.randrange(1, 6)
        size = rng.randrange(1, (1 << n) + 1)
        members = sample_mask(rng, 1 << n, size)
        subset = [u for u in range(1 << n) if members >> u & 1]
        assert max_induced_degree(members, n) == oracle_max_degree(n, subset)
        H = InducedSubgraph(n, members)
        assert max_induced_degree(members, n) == H.max_degree()[1]


@pytest.mark.parametrize("n,size", sorted(GOLDEN))
def test_exhaustive_matches_frozen_goldens(n, size):
    report = enumerate_and_verify(EnumerationPlan(n=n, subset_size=size))
    min_max, histogram, violations = GOLDEN[(n, size)]
    assert report.subsets_checked == math.comb(1 << n, size)
    assert report.min_max_degree == min_max
    assert report.histogram == histogram
    assert report.violations == violations
    assert report.ok
    assert report.min_max_degree >= report.plan.degree_bound()


@pytest.mark.parametrize("n,size", [(1, 2), (2, 3), (3, 5)])
def test_goldens_against_live_oracle(n, size):
    # re-derive with the independent oracle so the fixtures cannot drift
    assert oracle_exhaustive(n, size) == GOLDEN[(n, size)]


def test_argmin_subset_is_deterministic():
    report = enumerate_and_verify(EnumerationPlan(n=3))
    assert report.to_json_dict()["argmin_subset"] == ["000", "010", "011", "100", "101"]
    assert max_induced_degree(report.argmin_subset, 3) == report.min_max_degree


def test_shard_variations_produce_identical_reports(monkeypatch):
    # a real pool of 2, 4 and 8 workers, whatever the machine's CPU count
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    base = enumerate_and_verify(EnumerationPlan(n=4)).to_json_dict()
    for shards in (2, 4, 8):
        sharded = enumerate_and_verify(
            EnumerationPlan(n=4, parallel_shards=shards)
        ).to_json_dict()
        assert sharded == base


@pytest.fixture
def serial_pool(monkeypatch):
    """Replaces ProcessPoolExecutor with a pool that runs jobs inline; the
    list returned collects the worker count each pool is asked for."""
    import concurrent.futures

    requested = []

    class SerialPool:
        def __init__(self, max_workers=None):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return requested


def test_pool_workers_capped_at_cpu_count(monkeypatch, serial_pool):
    requested = serial_pool
    base = enumerate_and_verify(EnumerationPlan(n=4)).to_json_dict()
    sample = RandomSample(count=100, seed=9)
    sample_base = enumerate_and_verify(EnumerationPlan(n=4, strategy=sample)).to_json_dict()
    assert requested == []  # one shard never builds a pool
    for cpus in (2, None, 1, 64):
        monkeypatch.setattr("os.cpu_count", lambda cpus=cpus: cpus)
        for shards in (5, 1000):
            requested.clear()
            plan = EnumerationPlan(n=4, parallel_shards=shards)
            assert enumerate_and_verify(plan).to_json_dict() == base
            plan = EnumerationPlan(n=4, strategy=sample, parallel_shards=shards)
            assert enumerate_and_verify(plan).to_json_dict() == sample_base
            # one CPU, or an unknown count, runs the one job here: no pool;
            # a seeded sample always runs here
            workers = min(shards, cpus or 1)
            assert requested == ([workers] if workers > 1 else [])


@pytest.mark.parametrize(
    "strategy", [Exhaustive(), RandomSample(count=400, seed=0)], ids=["exhaustive", "random"]
)
def test_shard_jobs_capped_at_cpu_count(monkeypatch, serial_pool, strategy):
    # a job past the CPU count would only wait: 400 shards on 2 CPUs run an
    # exhaustive plan's slice as 2 jobs. A seeded sample is one stream of
    # draws, each continuing the last: it starts no pool and no job
    scan_shard, jobs = exhaustive._scan_shard, []

    def counted(job):
        jobs.append(job[1:])
        return scan_shard(job)

    base = enumerate_and_verify(EnumerationPlan(n=4, strategy=strategy)).to_json_dict()
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setattr(exhaustive, "_scan_shard", counted)
    plan = EnumerationPlan(n=4, strategy=strategy, parallel_shards=400)
    assert enumerate_and_verify(plan).to_json_dict() == base
    if isinstance(strategy, RandomSample):
        assert jobs == [] and serial_pool == []
    else:
        assert len(jobs) == 2 and jobs[0][0] == 0 and jobs[0][1] == jobs[1][0]
        assert serial_pool == [2]


def test_failing_pool_counts_no_shard_twice(monkeypatch):
    # a pool that returns one shard's result and then fails: the serial
    # rerun must start from nothing, not from the pool's partial merge.
    # Only an exhaustive plan's slice reaches the pool, so both plans are
    # exhaustive, each cut into 2 and 3 shard jobs
    import concurrent.futures

    entered = []

    class FailingPool:
        def __init__(self, max_workers=None):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            entered.append(len(jobs))
            yield fn(jobs[0])
            raise OSError("pool lost")

    plans = [EnumerationPlan(n=4), EnumerationPlan(n=4, subset_size=11)]
    serial = [enumerate_and_verify(plan).to_json_dict() for plan in plans]
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FailingPool)
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    for plan, expected in zip(plans, serial):
        for shards in (2, 3):
            entered.clear()
            sharded = EnumerationPlan(plan.n, plan.subset_size, plan.strategy, shards)
            report = enumerate_and_verify(sharded).to_json_dict()
            assert report == expected, shards
            assert entered == [shards], (plan.subset_size, shards)
    assert [r["subsets_checked"] for r in serial] == [11440, 4368]


def test_shard_count_beyond_the_plan_allocates_nothing(monkeypatch, serial_pool):
    # 4 subsets: a million shards must cost what 4 do, not a million cut
    # points, even with as many CPUs
    monkeypatch.setattr("os.cpu_count", lambda: 10**6)
    base = enumerate_and_verify(EnumerationPlan(n=2)).to_json_dict()
    plan = EnumerationPlan(n=2, parallel_shards=10**6)
    tracemalloc.start()
    try:
        report = enumerate_and_verify(plan).to_json_dict()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report == base
    assert peak < 1 << 20


def test_monotone_in_subset_size():
    previous = 0
    for size in (5, 6, 7, 8):
        report = enumerate_and_verify(EnumerationPlan(n=3, subset_size=size))
        assert report.min_max_degree >= previous
        previous = report.min_max_degree


def test_budget_gate():
    with pytest.raises(BudgetExceededError):
        EnumerationPlan(n=5, subset_size=17)
    # an explicit override admits the plan (construction only; the scan
    # itself would take hours and is not attempted here)
    plan = EnumerationPlan(n=5, subset_size=17, budget=10**9)
    assert plan.universe_size == math.comb(32, 17)


def test_budget_gate_random_plan():
    # a random plan's size is its sample count, refused over the budget
    # like an exhaustive plan's universe
    with pytest.raises(BudgetExceededError):
        EnumerationPlan(4, 9, RandomSample(11, 0), budget=10)
    assert EnumerationPlan(4, 9, RandomSample(10, 0), budget=10).total_to_scan == 10


def test_random_strategy_reproducible():
    plan = EnumerationPlan(n=4, strategy=RandomSample(count=100, seed=9))
    first = enumerate_and_verify(plan).to_json_dict()
    second = enumerate_and_verify(plan).to_json_dict()
    assert first == second
    assert first["subsets_checked"] == 100
    assert first["violations"] == 0
    sharded = enumerate_and_verify(
        EnumerationPlan(n=4, strategy=RandomSample(count=100, seed=9), parallel_shards=4)
    ).to_json_dict()
    assert sharded == first
    other_seed = enumerate_and_verify(
        EnumerationPlan(n=4, strategy=RandomSample(count=100, seed=10))
    ).to_json_dict()
    assert other_seed != first


def test_random_strategy_validation():
    with pytest.raises(ValueError):
        RandomSample(count=0, seed=1)
    with pytest.raises(ValueError):
        RandomSample(count=5, seed=None)


@pytest.mark.parametrize("value", [True, False, 2.5, 9.0, "9"])
@pytest.mark.parametrize(
    "field", ["n", "subset_size", "parallel_shards", "budget", "count", "seed"]
)
def test_integer_fields_refuse_non_integers(field, value):
    # a bool passes isinstance(value, int) and a report would echo it where
    # its schema wants an integer; a float or str would fail late, or not at all
    sample = {"count": 5, "seed": 0}
    plan = {"n": 4, "subset_size": 9, "parallel_shards": 2, "budget": 10**6}
    (sample if field in sample else plan)[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        EnumerationPlan(**plan, strategy=RandomSample(**sample))


def test_plan_validation():
    with pytest.raises(ValueError):
        EnumerationPlan(n=3, subset_size=9)
    with pytest.raises(ValueError):
        EnumerationPlan(n=3, parallel_shards=0)
    with pytest.raises(ValueError):
        EnumerationPlan(n=3, budget=0)
    assert EnumerationPlan(n=3).subset_size == 5  # 2^(n-1) + 1 default
    assert EnumerationPlan(n=3).total_to_scan == 56
    assert EnumerationPlan(n=3, strategy=RandomSample(9, 0)).total_to_scan == 9


def test_sampling_helpers():
    rng = random.Random(3)
    mask = sample_mask(rng, 16, 9)
    assert mask.bit_count() == 9 and mask < (1 << 16)
    for size in (5, 0):
        with pytest.raises(ValueError):
            sample_mask(rng, 4, size)
    with pytest.raises(ValueError):
        random_masks(EnumerationPlan(n=3))  # an exhaustive plan has no seeded sample


def test_cross_check_full_products():
    # n = 3: all 56 subsets, full cross product of scan vs pipeline
    report = cross_check_with_witness(EnumerationPlan(n=3), sample=56)
    assert report.checked == report.consistent == 56
    assert report.to_json_dict() == {"checked": 56, "consistent": 56}
    # n = 1: the single 2-subset; witness degree 1 >= sqrt(1)
    tiny = cross_check_with_witness(EnumerationPlan(n=1), sample=1)
    assert tiny.checked == tiny.consistent == 1


def test_cross_check_sampled_n4():
    report = cross_check_with_witness(EnumerationPlan(n=4), sample=200)
    assert report.checked == report.consistent == 200
    assert report.ok


def test_cross_check_random_plan_pool():
    plan = EnumerationPlan(n=3, strategy=RandomSample(count=12, seed=2))
    report = cross_check_with_witness(plan, sample=12)
    assert report.checked == report.consistent == 12


def test_cross_check_validation():
    with pytest.raises(ValueError):
        cross_check_with_witness(EnumerationPlan(n=13, subset_size=2, budget=10**10), 1)
    with pytest.raises(ValueError):
        cross_check_with_witness(EnumerationPlan(n=2), sample=0)


def test_cross_check_refuses_pools_past_sys_maxsize():
    # random.sample draws ranks from a range, whose length must fit a C ssize_t
    with pytest.raises(ValueError, match="sys.maxsize"):
        cross_check_with_witness(EnumerationPlan(7, budget=10**40), 2)
    # C(64, 33) ~ 1.8e18 subsets still fits under sys.maxsize and is drawn from
    plan = EnumerationPlan(6, budget=10**19)
    assert plan.total_to_scan <= sys.maxsize
    assert cross_check_with_witness(plan, 1).to_json_dict() == {"checked": 1, "consistent": 1}
