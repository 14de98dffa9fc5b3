"""Universal posteriors, NLL+ loss with analytic gradient, mask-level
max aggregation and the two-head joint posterior.

All functions are stateless and operate on plain numpy arrays.  The NLL+
loss is always computed in the numerically stable log-sum-exp form
logsumexp(all logits) - logsumexp(mapped logits); probabilities are never
exponentiated before taking the log.
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
    """Softmax over universal logits, computed with max subtraction."""
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


def nll_plus(logits: np.ndarray, label, maps: MappingSet) -> float:
    """Negative log-likelihood over aggregated universal posteriors.

    Equals logsumexp(all logits) - logsumexp(mapped logits), which reduces to
    the standard NLL for singleton mappings.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise InvalidLogit("logits must be finite")
    mapped = _mapped_ids(label, maps)
    return float(logsumexp(logits) - logsumexp(logits[mapped]))


def nll_plus_grad(logits: np.ndarray, label, maps: MappingSet) -> np.ndarray:
    """Analytic gradient of nll_plus with respect to the logits.

    Component v equals p(v) minus, for mapped v, p(v) renormalized over the
    mapped set; it always sums to zero.  The renormalized posterior is the
    softmax of the mapped logits, which stays defined when every mapped
    posterior underflows to zero.
    """
    logits = np.asarray(logits, dtype=np.float64)
    mapped = _mapped_ids(label, maps)
    grad = universal_posteriors(logits)
    grad[mapped] -= universal_posteriors(logits[mapped])
    return grad


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
