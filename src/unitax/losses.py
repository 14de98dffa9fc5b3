"""Universal posteriors, NLL+ loss with analytic gradient, mask-level
max aggregation and the two-head joint posterior.

All functions are stateless and operate on plain numpy arrays.  The NLL+
loss is always computed in the numerically stable log-sum-exp form
logsumexp(all logits) - logsumexp(mapped logits); probabilities are never
exponentiated before taking the log.  One kernel, nll_plus_rows, computes
it for a batch of rows: the trainer runs it on every softmax block of
every mode in every epoch, and nll_plus and nll_plus_grad run it on a
batch of one.  universal_posteriors is the package's one softmax.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidLogit, InvalidProbability, UnmappedLabel
from .taxonomy import MappingSet


def logsumexp(values: np.ndarray, axis=None) -> np.ndarray:
    """Stable log(sum(exp(values))) via max subtraction."""
    values = np.asarray(values, dtype=np.float64)
    if axis is None:
        m = float(np.max(values))
        return m + float(np.log(np.sum(np.exp(values - m))))
    m = np.max(values, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(values - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


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


def nll_plus_rows(z, in_set, off_set, grad, scratch=None, stats=None):
    """NLL+ of every row of the class-major logits ``z`` (K, rows).

    ``in_set`` is 1 on each row's mapped classes and 0 elsewhere;
    ``off_set`` is 0 on them and -inf elsewhere.  Returns the per-row
    losses, logsumexp over all classes minus logsumexp over the mapped set,
    and writes their gradient into ``grad`` (K, rows): the softmax minus
    the mapped set's renormalised posterior.  ``scratch`` (K, rows) and
    ``stats`` (4, rows) are work buffers, allocated when not given.

    Each entry is shifted by the maximum of its own group: the masked row
    max on the mapped set, the row max off it.  So exp runs once per entry
    and never sees -inf, and the mapped set's sum is at least 1 even when
    all its logits lie far below another class.
    """
    if stats is None:
        stats = np.empty((4, z.shape[1]))
    peak, peak_in, total, total_in = np.split(stats, 4)
    np.max(z, axis=0, keepdims=True, out=peak)
    t = np.add(z, off_set, out=scratch)
    np.max(t, axis=0, keepdims=True, out=peak_in)
    gap = peak_in - peak  # <= 0
    np.multiply(in_set, gap, out=t)
    np.subtract(z, t, out=t)
    t -= peak
    np.exp(t, out=t)
    np.sum(t, axis=0, keepdims=True, out=total)
    np.multiply(t, in_set, out=grad)
    np.sum(grad, axis=0, keepdims=True, out=total_in)
    # exp(gap) - 1 moves the mapped set's share of the sum onto the row
    # max, which makes total the softmax denominator.
    below = np.expm1(gap)
    total += total_in * below
    # softmax minus the mapped set's renormalised posterior
    grad *= below / total - 1.0 / total_in
    t /= total
    grad += t
    return (np.log(total / total_in) - gap)[0]


def _nll_plus_row(logits, label, maps: MappingSet):
    """Loss and gradient of one logit vector, through nll_plus_rows."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise InvalidLogit("logits must be finite")
    in_set = np.zeros((logits.size, 1))
    in_set[_mapped_ids(label, maps)] = 1.0
    grad = np.empty_like(in_set)
    loss = nll_plus_rows(logits.reshape(-1, 1), in_set,
                         np.where(in_set > 0, 0.0, -np.inf), grad)
    return float(loss[0]), grad[:, 0]


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
