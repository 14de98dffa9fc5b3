"""Universal posteriors, NLL+ loss with analytic gradient, mask-level
max aggregation and the two-head joint posterior.

All functions are stateless and operate on plain numpy arrays.  The NLL+
loss is always computed in the numerically stable log-sum-exp form
logsumexp(all logits) - logsumexp(mapped logits); probabilities are never
exponentiated before taking the log.  One kernel, nll_plus_targets,
computes it for a batch of target groups: the trainer runs it on every
mode in every epoch, and nll_plus and nll_plus_grad run it on a batch of
one.  universal_posteriors is the softmax of inference.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidLogit, InvalidProbability, UnmappedLabel
from .taxonomy import MappingSet


def logsumexp(values: np.ndarray) -> float:
    """Stable log(sum(exp(values))) over all entries, via max subtraction."""
    values = np.asarray(values, dtype=np.float64)
    m = float(np.max(values))
    return m + float(np.log(np.sum(np.exp(values - m))))


def universal_posteriors(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of finite logits, computed with max
    subtraction."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise InvalidLogit("logits must be finite")
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def _mapped_ids(label, maps: MappingSet):
    dataset, cls = label
    mapped = maps.mapped(dataset, cls)
    if not mapped:
        raise UnmappedLabel(f"label {dataset}.{cls} maps to no universal class")
    return list(mapped)


def dataset_posterior(post: np.ndarray, label, maps: MappingSet) -> float:
    """Posterior of a dataset-specific label: sum of mapped universal
    posteriors."""
    post = np.asarray(post, dtype=np.float64)
    return float(np.sum(post[_mapped_ids(label, maps)]))


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
                                  np.asarray(_mapped_ids(label, maps)).reshape(-1, 1))
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
    stack = np.asarray(stack, dtype=np.float64)
    mapped = sorted(_mapped_ids(label, maps))
    sub = stack[mapped]
    agg = np.max(sub, axis=0)
    routing = np.asarray(mapped)[np.argmax(sub, axis=0)]
    return agg, routing


def two_head_joint(class_given_dataset: float, dataset_prob: float) -> float:
    """Joint posterior of (class, dataset): P(c | D, x) * P(D | x)."""
    for value in (class_given_dataset, dataset_prob):
        if not 0.0 <= value <= 1.0:
            raise InvalidProbability(f"probability {value} outside [0, 1]")
    return class_given_dataset * dataset_prob
