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
from .rng import SplitMix64
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


def generate_toy(spec: ToyProblemSpec, maps: MappingSet) -> ToyData:
    """Sample the blobs and split 80/20 train/test.

    The split is stratified per concept by deterministic interleaving: every
    fifth sample of a concept (the 5th, 10th, ...) is held out.  A dataset
    labels a training point with its class whose mapped set holds the
    point's concept, and skips concepts foreign to it; points that no
    dataset labels are dropped.
    """
    rng = SplitMix64(spec.seed)
    datasets = spec.collection.datasets
    label_of = [maps.class_of(ds.name, ds.classes) for ds in datasets]
    points, universal, test_points, test_universal = [], [], [], []
    parts = [[] for _ in datasets]
    first = 0
    for tag, concept in enumerate(spec.concepts):
        stream = rng.fork(tag + 1)
        uid = concept.universal_id
        # the scalar cx + std * z, with z drawn x first, then y
        xy = np.asarray(concept.center) + concept.std * stream.normals(
            2 * concept.count).reshape(-1, 2)
        held_out = np.arange(concept.count) % HOLD_OUT == HOLD_OUT - 1
        test_points.append(xy[held_out])
        test_universal.append(np.full(int(held_out.sum()), uid, dtype=np.int64))
        if not any(uid in labels for labels in label_of):
            continue
        trained = xy[~held_out]
        points.append(trained)
        universal.append(np.full(len(trained), uid, dtype=np.int64))
        index = np.arange(first, first + len(trained))
        first += len(trained)
        for rows, labels in zip(parts, label_of):
            if uid in labels:
                rows.append(np.stack([index, np.full_like(index, labels[uid])], axis=1))
    empty_points = np.empty((0, 2))
    empty_ids = np.empty(0, dtype=np.int64)
    empty_rows = np.empty((0, 2), dtype=np.int64)
    return ToyData(
        np.concatenate([empty_points, *points]),
        np.concatenate([empty_ids, *universal]),
        {ds.name: np.concatenate([empty_rows, *rows]) for ds, rows in zip(datasets, parts)},
        np.concatenate([empty_points, *test_points]),
        np.concatenate([empty_ids, *test_universal]),
    )
