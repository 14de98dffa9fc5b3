import random

import numpy as np
import pytest

from unitax.errors import InvalidLogit, InvalidProbability, UnmappedLabel
from unitax.losses import (
    aggregate_mask_max,
    dataset_posterior,
    logsumexp,
    nll_plus,
    nll_plus_grad,
    two_head_joint,
    universal_posteriors,
)
from unitax.taxonomy import MappingSet


def make_maps(mapped):
    return MappingSet({"D": {"c": tuple(mapped)}})


LABEL = ("D", "c")


def test_logsumexp_handles_large_logits():
    v = np.array([1000.0, 1000.0])
    assert np.isclose(logsumexp(v), 1000.0 + np.log(2.0))


def test_universal_posteriors_sum_to_one():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(8, 5)) * 30
    p = universal_posteriors(logits)
    assert np.allclose(np.sum(p, axis=-1), 1.0)
    assert np.all(p >= 0)


def test_universal_posteriors_reject_nonfinite():
    with pytest.raises(InvalidLogit):
        universal_posteriors(np.array([0.0, np.inf]))


def test_nll_plus_reduces_to_standard_nll_for_singletons():
    rng = np.random.default_rng(1)
    for _ in range(50):
        logits = rng.normal(size=6) * 5
        k = int(rng.integers(6))
        loss = nll_plus(logits, LABEL, make_maps([k]))
        reference = -np.log(universal_posteriors(logits)[k])
        assert abs(loss - reference) < 1e-12


def test_nll_plus_zero_when_mapped_set_covers_everything():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=7)
    assert abs(nll_plus(logits, LABEL, make_maps(range(7)))) < 1e-12


def test_dataset_posterior_plus_void_sums_to_one():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=9)
    p = universal_posteriors(logits)
    mapped = [1, 4, 7]
    inside = dataset_posterior(p, LABEL, make_maps(mapped))
    void = float(np.sum(np.delete(p, mapped)))
    assert abs(inside + void - 1.0) < 1e-9


def test_unmapped_label_raises():
    with pytest.raises(UnmappedLabel):
        nll_plus(np.zeros(3), LABEL, make_maps([]))


def test_gradient_matches_finite_differences():
    rng = random.Random(4)
    npr = np.random.default_rng(4)
    step = 1e-5
    for _ in range(200):
        n = rng.randint(2, 10)
        logits = npr.normal(size=n)
        mapped = sorted(rng.sample(range(n), rng.randint(1, n)))
        maps = make_maps(mapped)
        grad = nll_plus_grad(logits, LABEL, maps)
        fd = np.zeros(n)
        for i in range(n):
            bump = np.zeros(n)
            bump[i] = step
            fd[i] = (nll_plus(logits + bump, LABEL, maps)
                     - nll_plus(logits - bump, LABEL, maps)) / (2 * step)
        denom = max(float(np.linalg.norm(fd)), 1e-9)
        assert float(np.linalg.norm(grad - fd)) / denom < 1e-6


def test_gradient_signs_and_zero_sum():
    rng = np.random.default_rng(5)
    for _ in range(100):
        logits = rng.normal(size=8) * 4
        mapped = [0, 3, 5]
        grad = nll_plus_grad(logits, LABEL, make_maps(mapped))
        assert abs(np.sum(grad)) < 1e-9
        for i in range(8):
            if i in mapped:
                assert grad[i] <= 0
            else:
                assert grad[i] > 0


def test_gradient_is_finite_when_the_mapped_set_is_far_below():
    # the mapped posteriors underflow to 0; their renormalised share does not
    logits = np.array([0.0, -800.0, 0.0, -800.0])
    grad = nll_plus_grad(logits, LABEL, make_maps([1, 3]))
    assert np.all(np.isfinite(grad))
    assert np.allclose(grad, [0.5, -0.5, 0.5, -0.5], rtol=0, atol=1e-15)
    assert abs(nll_plus(logits, LABEL, make_maps([1, 3])) - 800.0) <= 1e-12


def test_aggregate_mask_max_values_and_routing():
    stack = np.array([
        [[0.9, 0.1], [0.2, 0.5]],   # class 0
        [[0.3, 0.1], [0.8, 0.5]],   # class 1
        [[0.0, 0.0], [0.0, 0.0]],   # class 2 (not mapped)
    ])
    agg, routing = aggregate_mask_max(stack, LABEL, make_maps([0, 1]))
    assert np.allclose(agg, [[0.9, 0.1], [0.8, 0.5]])
    # ties go to the lowest mapped class id
    assert routing.tolist() == [[0, 0], [1, 0]]


def test_aggregate_mask_max_singleton_is_identity():
    stack = np.random.default_rng(6).uniform(size=(4, 5))
    agg, routing = aggregate_mask_max(stack, LABEL, make_maps([2]))
    assert np.array_equal(agg, stack[2])
    assert np.all(routing == 2)


def test_two_head_joint():
    assert two_head_joint(0.5, 0.4) == 0.2
    assert two_head_joint(0.0, 1.0) == 0.0
    with pytest.raises(InvalidProbability):
        two_head_joint(1.2, 0.5)
    with pytest.raises(InvalidProbability):
        two_head_joint(0.5, -0.1)


@pytest.mark.parametrize("post", [
    [np.nan, 0.5, 0.5],
    [-0.5, 0.7, 0.8],  # sums to 0.2 over the mapped set
    [0.0, 1.5, 0.0],
    [True, False, False],
    ["0.5", "0.5", "0"],
], ids=["nan", "negative", "above-one", "bool", "text"])
def test_dataset_posterior_rejects_what_is_not_a_probability(post):
    with pytest.raises(InvalidProbability):
        dataset_posterior(np.asarray(post), LABEL, make_maps([0, 1]))


@pytest.mark.parametrize("args", [
    (True, 0.5), (0.5, False), ("0.5", 0.5), (np.nan, 0.5), (0.5, None),
], ids=["bool", "bool-second", "text", "nan", "none"])
def test_two_head_joint_rejects_what_is_not_a_probability(args):
    with pytest.raises(InvalidProbability):
        two_head_joint(*args)


def test_two_head_joint_of_arrays_is_the_broadcast_product():
    rng = np.random.default_rng(7)
    cls, ds = rng.uniform(size=(5, 3)), rng.uniform(size=(5, 1))
    assert np.array_equal(two_head_joint(cls, ds), cls * ds)
    with pytest.raises(InvalidProbability):
        two_head_joint(cls, -ds)


def test_aggregate_mask_max_rejects_a_nan_map():
    stack = np.full((3, 2, 2), 0.5)
    stack[1, 0, 1] = np.nan
    with pytest.raises(InvalidProbability):
        aggregate_mask_max(stack, LABEL, make_maps([0, 1]))
