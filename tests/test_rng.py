import math

import numpy as np
import pytest

from unitax.rng import SplitMix64, _normal_pairs


def test_same_seed_same_stream():
    a = SplitMix64(123)
    b = SplitMix64(123)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_different_seeds_differ():
    assert SplitMix64(1).next_u64() != SplitMix64(2).next_u64()


def test_uniform_range_and_log_safety():
    rng = SplitMix64(7)
    for _ in range(10000):
        u = rng.uniform()
        assert 0.0 < u < 1.0
        math.log(u)  # must never raise


def test_normal_moments():
    rng = SplitMix64(42)
    xs = rng.normals(200000)
    n = len(xs)
    mean = sum(xs) / n
    var = sum((x - mean) ** 2 for x in xs) / n
    assert abs(mean) < 4 / math.sqrt(n)
    assert abs(var - 1.0) < 0.02


def test_fork_independence_and_determinism():
    base = SplitMix64(9)
    f1 = base.fork(1)
    f2 = base.fork(2)
    again = SplitMix64(9).fork(1)
    s1 = [f1.next_u64() for _ in range(10)]
    assert s1 == [again.next_u64() for _ in range(10)]
    assert s1 != [f2.next_u64() for _ in range(10)]


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 1000, 3901])
@pytest.mark.parametrize("before", [0, 1, 2])
def test_normals_equal_scalar_normals_bit_for_bit(seed, n, before):
    # ``before`` scalar draws leave a spare pending on entry when odd
    batch, scalar = SplitMix64(seed), SplitMix64(seed)
    for _ in range(before):
        assert batch.normal() == scalar.normal()
    drawn = batch.normals(n)
    assert drawn.dtype == np.float64 and drawn.shape == (n,)
    assert drawn.tolist() == [scalar.normal() for _ in range(n)]
    assert batch.state == scalar.state
    assert batch._spare_normal == scalar._spare_normal
    # the streams go on together, spare first
    assert batch.normals(3).tolist() == [scalar.normal() for _ in range(3)]
    assert batch.uniform() == scalar.uniform()


@pytest.mark.parametrize("n", [1, 2, 7, 64, 1001])
def test_pairs_drawn_at_counter_positions_equal_normals(n):
    # pair p of normals(n) on a stream with no spare pending, the last pair
    # of an odd n ending in the spare
    seeds = [3, 2**64 - 1]
    drawn = []
    for seed in seeds:
        rng = SplitMix64(seed)
        values = rng.normals(n).tolist()
        drawn.append(values + ([rng.normal()] if n % 2 else []))
    pairs = np.array([p for _ in seeds for p in range((n + 1) // 2)][::-3], dtype=np.uint64)
    states = np.repeat(np.array(seeds, dtype=np.uint64), (n + 1) // 2)[::-3]
    draws = pairs[:, None] * np.uint64(2) + np.array([1, 2], dtype=np.uint64)
    got = _normal_pairs(states[:, None], draws)
    want = [drawn[seeds.index(int(s))][2 * p:2 * p + 2] for s, p in zip(states, pairs.tolist())]
    assert got.dtype == np.float64 and got.tolist() == want
    # a scalar state serves every row
    one = _normal_pairs(np.uint64(seeds[0]), draws)
    assert one.tolist() == [drawn[0][2 * p:2 * p + 2] for p in pairs.tolist()]
