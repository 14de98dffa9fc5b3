"""Helpers that several test modules share: seeded random collections, a
row-major softmax reference, and training a mode on a toy problem."""

import numpy as np

from unitax.taxonomy import collection_from_dict
from unitax.toyproblem import generate_toy, problem_from_dict
from unitax.training import TrainConfig, train


def random_collection(rng, max_datasets=6, max_classes=12, max_atoms=40, min_atoms=2):
    """A collection drawn from the ``random.Random`` ``rng``: up to
    ``max_datasets`` datasets of disjoint classes over random subsets of the
    atoms, the first dataset covering all of them."""
    n_atoms = rng.randint(min_atoms, max_atoms)
    atoms = [f"a{i}" for i in range(n_atoms)]
    datasets = []
    for d in range(rng.randint(1, max_datasets)):
        ids = list(range(n_atoms))
        rng.shuffle(ids)
        if d > 0:
            ids = ids[: rng.randint(1, n_atoms)]
        n_classes = rng.randint(1, min(max_classes, len(ids)))
        cuts = sorted(rng.sample(range(1, len(ids)), n_classes - 1)) if n_classes > 1 else []
        classes = []
        start = 0
        for ci, end in enumerate(cuts + [len(ids)]):
            classes.append({"name": f"c{ci}", "atoms": [atoms[i] for i in ids[start:end]]})
            start = end
        datasets.append({"name": f"D{d}", "classes": classes})
    return collection_from_dict({"atoms": atoms, "datasets": datasets})


def row_major_softmax(logits):
    """The softmax as a row-major three-liner: numpy sums each contiguous
    row of ``e`` in its own pairwise order."""
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def train_problem(problem, mode, epochs, seed):
    """Train ``mode`` on the toy problem dict ``problem``; returns the
    TrainResult with the spec, taxonomy, mappings and data it used."""
    spec, tax, maps = problem_from_dict(problem)
    data = generate_toy(spec, maps)
    config = TrainConfig(mode=mode, epochs=epochs, seed=seed)
    return train(config, spec, tax, maps, data), spec, tax, maps, data
