import math

import numpy as np
import pytest

from unitax.rng import SplitMix64


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
