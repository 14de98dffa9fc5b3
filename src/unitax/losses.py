"""Universal posteriors, NLL+ loss with analytic gradient, mask-level
max aggregation and the two-head joint posterior.

All functions are stateless and operate on plain numpy arrays.  NLL+ is
computed as logsumexp(all logits) - logsumexp(mapped logits), never from
exponentiated probabilities, by one kernel, nll_plus_targets: the trainer
runs it, and nll_plus and nll_plus_grad run it on a batch of one.  The
other helpers run shipped code too: aggregate_mask_max picks with _top, as
the trainer's top rule does; dataset_posterior weighs with projection, as
training.dataset_scores does.  two_head_joint is the reference for the
join that training.own_posterior makes in place, one product per class
head of posteriors universal_posteriors has just made.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidLogit, InvalidProbability, ValidationError
from .taxonomy import MappingSet, projection


def logsumexp(values: np.ndarray) -> float:
    """Stable log(sum(exp(values))) over all entries, via max subtraction.
    Kept without a shipped caller: bench/tracing.py wraps it, tests compare to it."""
    values = np.asarray(values, dtype=np.float64)
    m = float(np.max(values))
    return m + float(np.log(np.sum(np.exp(values - m))))


def universal_posteriors(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of finite logits, computed with max
    subtraction.

    The work is class-major: on the transpose of the logits, made
    contiguous, every reduction over classes runs over whole rows of
    points rather than one short row at a time.  A caller that holds
    class-major logits passes their transpose, and no copy is made.  The
    result is a view of a class-major array.  Its bits are those of the
    row-major softmax of the same values, whatever the layout of the input,
    because _row_sum adds the classes in numpy's order for
    ``np.sum(e, axis=-1)`` over a contiguous row, and every eval report
    depends on those bits.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise InvalidLogit("logits must be finite")
    z = np.ascontiguousarray(logits.T)
    e = z - np.max(z, axis=0)
    np.exp(e, out=e)
    e /= _row_sum(e)
    return e.T


def _row_sum(e):
    """Sum of the rows of ``e``, in numpy's pairwise order for a contiguous
    run of len(e) numbers: below 8 in order; up to 128 in eight
    accumulators (rows j, j+8, ...) combined as the tree
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), which three strided adds of
    neighbours make, then the rest in order; above 128 the sum of two
    halves split at a multiple of 8."""
    k = len(e)
    if k > 128:
        n2 = k // 2 - (k // 2) % 8
        return _row_sum(e[:n2]) + _row_sum(e[n2:])
    if k < 8:
        total, rest = e[0].copy(), e[1:]
    else:
        r = e[:8].copy()
        for j in range(8, k - k % 8, 8):
            r += e[j:j + 8]
        r = r[0::2] + r[1::2]
        r = r[0::2] + r[1::2]
        total = r[0] + r[1]
        rest = e[k - k % 8:]
    for row in rest:
        total += row
    return total


def _probabilities(values) -> np.ndarray:
    """``values`` as a float array of real numbers in [0, 1], else InvalidProbability."""
    array = np.asarray(values)
    # NaN fails every comparison; an empty array passes on the initial values
    if array.dtype.kind not in "fiu" or not 0 <= array.min(initial=.5) <= array.max(initial=.5) <= 1:
        raise InvalidProbability(f"probabilities must be real numbers in [0, 1], not {values!r}")
    return array.astype(np.float64, copy=False)


def _top(ids, scores) -> np.ndarray:
    """Per position, the id of ``ids`` (candidates first) with the largest
    score; ties go to the first candidate, the lowest id when ids ascend."""
    return np.take_along_axis(ids, np.argmax(scores, axis=0)[None], axis=0)[0]


def dataset_posterior(post: np.ndarray, label, maps: MappingSet) -> float:
    """Posterior of a dataset-specific label: the universal posteriors
    summed over its mapped set, with the weights of taxonomy.projection."""
    post = _probabilities(post)
    mapped = maps.mapped(*label)
    for u in mapped:
        if u not in range(len(post)):
            raise ValidationError(f"label {label[0]}.{label[1]} maps to universal id {u!r}, "
                                  f"outside the ids 0..{len(post) - 1} of the posteriors")
    weights = projection([{u} for u in range(len(post))], [mapped])
    return float(post @ weights[:, 0])


def nll_plus_targets(logits, blocks, point, block, targets):
    """NLL+ of a batch of target groups on the point logits ``logits`` (P, K).

    Group g scores the class list ``targets[:, g]`` (padded with -1) within
    the softmax block ``blocks[block[g]]`` (a slice of classes) at point
    ``point[g]``.  Its loss is logsumexp over the block minus logsumexp
    over the targets.  Returns the per-group losses and the gradient of
    their sum, (P, K): each block's softmax at each point, times the number
    of groups there that use the block, minus every group's renormalised
    target posteriors, summed onto its point.

    Each block's softmax is computed once per point.  The target term takes
    the max of its own list, so it stays exact when every target lies far
    below another class of the block.  The work is class-major, (K, P) and
    (targets, groups), so that every reduction over classes runs over
    contiguous rows; the gradient is a view of a class-major array.
    """
    z = np.ascontiguousarray(logits.T)
    k, n = z.shape
    counts = np.bincount(block * n + point, minlength=len(blocks) * n).reshape(-1, n)
    grad = np.zeros((k, n))
    lse = np.empty((len(blocks), n))
    for b, classes in enumerate(blocks):
        peak = np.max(z[classes], axis=0)
        e = np.exp(z[classes] - peak)
        total = np.sum(e, axis=0)
        lse[b] = np.log(total) + peak
        grad[classes] = e * (counts[b] / total)
    valid = targets >= 0
    flat = np.where(valid, targets * n + point, 0)
    t = np.where(valid, np.take(z, flat), -np.inf)
    peak = np.max(t, axis=0)
    e = np.exp(t - peak)
    total = np.sum(e, axis=0)
    e /= total
    grad -= np.bincount(flat.ravel(), e.ravel(), minlength=k * n).reshape(k, n)
    return lse[block, point] - (np.log(total) + peak), grad.T


def _nll_plus_row(logits, label, maps: MappingSet):
    """Loss and gradient of one logit vector, through nll_plus_targets."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise InvalidLogit("logits must be finite")
    zero = np.zeros(1, dtype=np.int64)
    loss, grad = nll_plus_targets(logits.reshape(1, -1), (slice(None),), zero, zero,
                                  np.asarray(maps.mapped(*label)).reshape(-1, 1))
    return float(loss[0]), grad[0]


def nll_plus(logits: np.ndarray, label, maps: MappingSet) -> float:
    """Negative log-likelihood over aggregated universal posteriors.

    Equals logsumexp(all logits) - logsumexp(mapped logits), which reduces to
    the standard NLL for singleton mappings.
    """
    return _nll_plus_row(logits, label, maps)[0]


def nll_plus_grad(logits: np.ndarray, label, maps: MappingSet) -> np.ndarray:
    """Analytic gradient of nll_plus with respect to the logits.

    Component v equals p(v) minus, for mapped v, p(v) renormalized over the
    mapped set; it always sums to zero.  The renormalized posterior is the
    softmax of the mapped logits, which stays defined when every mapped
    posterior underflows to zero.
    """
    return _nll_plus_row(logits, label, maps)[1]


def aggregate_mask_max(stack: np.ndarray, label, maps: MappingSet):
    """Aggregate per-class probability maps over a mapped set by elementwise
    maximum.

    ``stack`` has shape (U, ...) with one probability map per universal
    class.  Returns (aggregated map, routing) where routing holds the
    universal class id receiving the subgradient at each position (ties go
    to the lowest class id).
    """
    mapped = np.asarray(sorted(maps.mapped(*label)))
    sub = _probabilities(stack)[mapped]
    return np.max(sub, axis=0), _top(mapped.reshape((-1,) + (1,) * (sub.ndim - 1)), sub)


def two_head_joint(class_given_dataset, dataset_prob):
    """Joint posterior of (class, dataset): P(c | D, x) * P(D | x), of two
    numbers or of two arrays that broadcast.
    Kept without a shipped caller: bench/tracing.py wraps it, tests compare to it."""
    return _probabilities(class_given_dataset) * _probabilities(dataset_prob)
