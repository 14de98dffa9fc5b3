"""Deterministic 2D toy problem generation.

A problem places isotropic Gaussian blobs of universal concepts in the
plane.  Every dataset labels each sample with the (unique) dataset class
whose mapped set contains the sample's true universal class; samples whose
concept is foreign to a dataset are excluded from that dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, load_json
from .rng import SplitMix64
from .taxonomy import (
    Collection,
    MappingSet,
    UniversalTaxonomy,
    build_universal_from_atoms,
    collection_from_dict,
    collection_to_dict,
)


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

    def validate(self, tax: UniversalTaxonomy):
        uids = {u.id for u in tax.classes}
        for concept in self.concepts:
            if concept.count <= 0:
                raise ValidationError("concept sample counts must be positive")
            if concept.std <= 0:
                raise ValidationError("concept stds must be positive")
            if concept.universal_id not in uids:
                raise ValidationError(
                    f"concept references unknown universal class {concept.universal_id}"
                )


@dataclass(frozen=True)
class LabeledSample:
    x: tuple  # 2D point
    dataset: str
    label: str  # dataset class name
    true_universal: int


@dataclass(frozen=True)
class ToyData:
    """Per-dataset training lists plus a held-out test set."""

    train: dict  # dataset name -> list of LabeledSample
    test_points: np.ndarray  # (N, 2)
    test_universal: np.ndarray  # (N,) true universal ids


def problem_from_dict(data: dict):
    """Build (spec, taxonomy, mappings) from a problem JSON dict.

    Concepts reference their universal class by one of its atom names.
    """
    col = collection_from_dict(data)
    tax, maps = build_universal_from_atoms(col)
    atom_ids = {a.name: a.id for a in col.atoms}
    owner = {}
    for u in tax.classes:
        for a in u.atoms:
            owner[a] = u.id
    concepts = []
    for entry in data["concepts"]:
        name = entry["atom"]
        if name not in atom_ids:
            raise ValidationError(f"concept references unknown atom {name!r}")
        concepts.append(
            Concept(
                owner[atom_ids[name]],
                tuple(float(v) for v in entry["center"]),
                float(entry["std"]),
                int(entry["count"]),
            )
        )
    spec = ToyProblemSpec(col, tuple(concepts), int(data.get("seed", 0)))
    spec.validate(tax)
    return spec, tax, maps


def problem_to_dict(spec: ToyProblemSpec, tax: UniversalTaxonomy) -> dict:
    data = collection_to_dict(spec.collection)
    by_id = {u.id: u for u in tax.classes}
    data["concepts"] = [
        {
            "atom": spec.collection.atoms[min(by_id[c.universal_id].atoms)].name,
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


def _label_for(universal_id: int, dataset: str, maps: MappingSet):
    for cls, uids in maps.by_dataset[dataset].items():
        if universal_id in uids:
            return cls
    return None


def generate_toy(spec: ToyProblemSpec, maps: MappingSet) -> ToyData:
    """Sample the blobs and split 80/20 train/test.

    The split is stratified per concept by deterministic interleaving: every
    fifth sample of a concept (the 5th, 10th, ...) is held out.
    """
    rng = SplitMix64(spec.seed)
    train = {ds.name: [] for ds in spec.collection.datasets}
    test_points = []
    test_universal = []
    for tag, concept in enumerate(spec.concepts):
        stream = rng.fork(tag + 1)
        cx, cy = concept.center
        for i in range(concept.count):
            x = (cx + concept.std * stream.normal(), cy + concept.std * stream.normal())
            if i % 5 == 4:
                test_points.append(x)
                test_universal.append(concept.universal_id)
                continue
            for ds in spec.collection.datasets:
                label = _label_for(concept.universal_id, ds.name, maps)
                if label is not None:
                    train[ds.name].append(
                        LabeledSample(x, ds.name, label, concept.universal_id)
                    )
    return ToyData(
        train,
        np.asarray(test_points, dtype=np.float64).reshape(-1, 2),
        np.asarray(test_universal, dtype=np.int64),
    )
