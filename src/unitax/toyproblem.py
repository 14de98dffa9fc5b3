"""Deterministic 2D toy problem generation.

A problem places isotropic Gaussian blobs of universal concepts in the
plane.  Every dataset labels each sample with the (unique) dataset class
whose mapped set contains the sample's true universal class; samples whose
concept is foreign to a dataset are excluded from that dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, load_json, require_field, require_list
from .rng import SplitMix64, _normal_pairs
from .taxonomy import (
    Collection,
    MappingSet,
    UniversalTaxonomy,
    build_universal_from_atoms,
    collection_from_dict,
    collection_to_dict,
)

# samples per concept that a problem may ask for at most
COUNT_MAX = 100_000
# every HOLD_OUT-th sample of a concept is held out for testing
HOLD_OUT = 5
_PAIR_DRAWS = np.array([1, 2], dtype=np.uint64)


@dataclass(frozen=True)
class Concept:
    universal_id: int
    center: tuple  # (x, y)
    std: float
    count: int


@dataclass(frozen=True)
class ToyProblemSpec:
    collection: Collection
    concepts: tuple  # of Concept
    seed: int


@dataclass(frozen=True)
class ToyData:
    """Training points, each once, with every dataset's labels of them, plus
    a held-out test set."""

    points: np.ndarray  # (P, 2) training points
    universal: np.ndarray  # (P,) true universal ids
    train: dict  # dataset name -> (rows, 2) int64 (point index, index in ds.classes)
    test_points: np.ndarray  # (N, 2)
    test_universal: np.ndarray  # (N,) true universal ids


def problem_from_dict(data: dict):
    """Build (spec, taxonomy, mappings) from a problem JSON dict.

    Concepts reference their universal class by one of its atom names.  A
    missing, mistyped or out-of-range field raises ValidationError naming
    it, checked as the concept holding it is read.  Some concept must count
    HOLD_OUT samples or more, so that the test set is not empty.
    """
    col = collection_from_dict(data)
    tax, maps = build_universal_from_atoms(col)
    owner = {col.atoms[a]: u.id for u in tax.classes for a in u.atoms}
    concepts = []
    for i, entry in enumerate(require_field(data, "concepts", list)):
        where = f"concepts[{i}]."
        name = require_field(entry, "atom", str, where)
        if name not in owner:
            raise ValidationError(f"field {where + 'atom'!r}: concept references "
                                  f"unknown atom {name!r}")
        center = tuple(float(v) for v in require_list(
            require_field(entry, "center", list, where), float, where + "center", 2))
        if not np.all(np.isfinite(center)):
            raise ValidationError(f"field {where + 'center'!r} must be 2 finite numbers")
        std = float(require_field(entry, "std", float, where))
        if not 0 < std < np.inf:
            raise ValidationError(f"field {where + 'std'!r} must be positive and finite")
        count = require_field(entry, "count", int, where)
        if not 1 <= count <= COUNT_MAX:
            raise ValidationError(f"field {where + 'count'!r} must lie in 1..{COUNT_MAX}")
        concepts.append(Concept(owner[name], center, std, count))
    if not any(c.count >= HOLD_OUT for c in concepts):
        raise ValidationError(f"field 'concepts' must hold a concept with a count of at least "
                              f"{HOLD_OUT}: every {HOLD_OUT}th sample is held out for testing")
    seed = require_field(data, "seed", int) if "seed" in data else 0
    return ToyProblemSpec(col, tuple(concepts), seed), tax, maps


def problem_to_dict(spec: ToyProblemSpec, tax: UniversalTaxonomy) -> dict:
    data = collection_to_dict(spec.collection)
    by_id = {u.id: u for u in tax.classes}
    data["concepts"] = [
        {
            "atom": spec.collection.atoms[min(by_id[c.universal_id].atoms)],
            "center": list(c.center),
            "std": c.std,
            "count": c.count,
        }
        for c in spec.concepts
    ]
    data["seed"] = spec.seed
    return data


def load_problem(path):
    return load_json(path, problem_from_dict)


def held_out_points(spec: ToyProblemSpec):
    """The held-out test set: ``(points, universal)``, the (N, 2) points and
    their (N,) true universal ids, concept by concept.

    Every HOLD_OUT-th sample of a concept (the 5th, 10th, ...) is held out,
    whether or not a dataset labels the concept.  Only those samples are
    drawn; they equal, bit for bit, the ones a draw of every sample gives.
    """
    return _draw(spec, [np.arange(HOLD_OUT - 1, c.count, HOLD_OUT) for c in spec.concepts])


def generate_toy(spec: ToyProblemSpec, maps: MappingSet) -> ToyData:
    """Sample the blobs and split 80/20 train/test.

    The split is stratified per concept by deterministic interleaving: the
    test set is held_out_points(spec), every fifth sample of a concept, and
    the other samples are trained.  A dataset labels a training point with
    its class whose mapped set holds the point's concept, and skips
    concepts foreign to it; the trained samples of a concept that no
    dataset labels are not drawn.
    """
    datasets = spec.collection.datasets
    label_of = [maps.class_of(ds.name, ds.classes) for ds in datasets]
    none = np.empty(0, dtype=np.int64)
    samples = [np.flatnonzero(np.arange(c.count) % HOLD_OUT != HOLD_OUT - 1)
               if any(c.universal_id in labels for labels in label_of) else none
               for c in spec.concepts]
    points, universal = _draw(spec, samples)
    counts = [len(i) for i in samples]
    train = {}
    for ds, labels in zip(datasets, label_of):
        # each point's index in the dataset's classes, or -1
        classes = np.repeat(np.array([labels.get(c.universal_id, -1) for c in spec.concepts],
                                     dtype=np.int64), counts)
        rows = np.flatnonzero(classes >= 0)
        train[ds.name] = np.stack([rows, classes[rows]], axis=1)
    return ToyData(points, universal, train, *held_out_points(spec))


def _draw(spec: ToyProblemSpec, samples: list):
    """The points of every concept at its sample indices ``samples[tag]``,
    concept by concept, and their universal ids.

    Concept ``tag`` draws from the stream ``fork(tag + 1)`` of the seed's
    stream; sample i is ``center + std * (x, y)`` for the normal pair i of
    that stream, x first, as ``normals(2 * count)`` would draw it.  All
    concepts go through one counter-position draw.
    """
    rng = SplitMix64(spec.seed)
    states = np.array([rng.fork(tag + 1).state for tag in range(len(spec.concepts))],
                      dtype=np.uint64)
    counts = [len(i) for i in samples]
    # sample i is the normal pair of draws 2i + 1 and 2i + 2 of its stream
    draws = np.concatenate(samples).astype(np.uint64)[:, None] * np.uint64(2) + _PAIR_DRAWS
    z = _normal_pairs(np.repeat(states, counts)[:, None], draws)
    centers = np.repeat(np.array([c.center for c in spec.concepts], dtype=np.float64),
                        counts, axis=0)
    stds = np.repeat(np.array([c.std for c in spec.concepts]), counts)
    universal = np.repeat(np.array([c.universal_id for c in spec.concepts], dtype=np.int64),
                          counts)
    return centers + stds[:, None] * z, universal
