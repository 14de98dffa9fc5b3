"""Seeded input generators for the benchmark workloads.

Everything here derives from the workload seed through ``random.Random``,
so the same seed gives the same inputs on every Python 3 version.  The
generators are the benchmark's own: a change to the test suite cannot
silently change a workload.
"""

from __future__ import annotations

import json
import random

# The sizes of the small collections come from this fixed stream, so every
# seed gets the same size profile and only the contents differ.  Between
# two random draws of sizes the fixpoint cost of one collection varies
# tenfold, and the median over 100 collections by a third.
SIZE_DESIGN = "unitax-bench:collection-sizes"


def collection_dict(rng, n_atoms, sizes):
    """Collection JSON in the shape of the acceptance tests' random
    collections.  ``sizes`` holds one (atoms covered, classes) pair per
    dataset; each dataset partitions that many atoms of a shuffled order
    into contiguous runs at random cuts.
    """
    atoms = [f"a{i}" for i in range(n_atoms)]
    datasets = []
    for d, (covered, n_classes) in enumerate(sizes):
        ids = list(range(n_atoms))
        rng.shuffle(ids)
        ids = ids[:covered]
        cuts = sorted(rng.sample(range(1, len(ids)), n_classes - 1)) if n_classes > 1 else []
        classes = []
        start = 0
        for ci, end in enumerate(cuts + [len(ids)]):
            classes.append({"name": f"c{ci}", "atoms": [atoms[i] for i in ids[start:end]]})
            start = end
        datasets.append({"name": f"D{d}", "classes": classes})
    return {"atoms": atoms, "datasets": datasets}


def small_collections(rng, n):
    """``n`` collections of the acceptance tests' size class: up to 40
    atoms and 6 datasets of up to 12 classes.  Dataset 0 covers every atom,
    later ones a random number of them."""
    design = random.Random(SIZE_DESIGN)
    out = []
    for _ in range(n):
        n_atoms = design.randint(2, 40)
        sizes = []
        for d in range(design.randint(1, 6)):
            covered = n_atoms if d == 0 else design.randint(1, n_atoms)
            sizes.append((covered, design.randint(1, min(12, covered))))
        out.append(collection_dict(rng, n_atoms, sizes))
    return out


def large_collection(rng):
    """One collection of the large size class: 60 atoms, 6 datasets of 15
    classes, the later datasets covering half the atoms.  Its fixpoint
    costs about 0.4 s on one 2 GHz Xeon core, within 15% across seeds."""
    return collection_dict(rng, 60, [(60, 15)] + [(30, 15)] * 5)


def declaration_program(rng):
    """A declaration program over 6 datasets of 10 classes with 24
    statements, that always compiles.

    Every class appears in at most one statement, and statements only pair
    classes of different datasets, so each statement still sees atomic,
    disjoint operands when it is applied.
    """
    names = [f"S{d}" for d in range(6)]
    lines = [f"dataset {ds}: " + " ".join(f"k{c}" for c in range(10)) for ds in names]
    free = [(ds, f"k{c}") for ds in names for c in range(10)]
    rng.shuffle(free)
    for _ in range(24):
        first = free.pop()
        second = next((ref for ref in reversed(free) if ref[0] != first[0]), None)
        if second is None:
            break
        free.remove(second)
        kind = rng.choice(("equiv", "subset", "overlap"))
        lines.append(f"{kind} {first[0]}.{first[1]} {second[0]}.{second[1]}")
    return "\n".join(lines) + "\n"


def pseudo_records(rng, col, maps, n):
    """``n`` JSON-lines records over a two-dataset collection.

    Each record draws a ground-truth class, a true universal class from its
    mapped set and a posterior of the other dataset that favours the class
    containing the truth.  Returns (lines, ground-truth labels, true
    universal ids).
    """
    labels = [(ds.name, c.name) for ds in col.datasets for c in ds.classes]
    other = {col.datasets[0].name: col.datasets[1], col.datasets[1].name: col.datasets[0]}
    owner = {}
    for ds in col.datasets:
        for c in ds.classes:
            for u in maps.mapped(ds.name, c.name):
                owner[(ds.name, u)] = c.name
    lines, gts, truths = [], [], []
    for i in range(n):
        gt_ds, gt_cls = labels[rng.randrange(len(labels))]
        u = rng.choice(maps.mapped(gt_ds, gt_cls))
        foreign = other[gt_ds]
        weights = {c.name: rng.random() for c in foreign.classes}
        weights[owner[(foreign.name, u)]] += 0.5
        total = sum(weights.values())
        posterior = {c: w / total for c, w in weights.items()}
        lines.append(json.dumps({"sample_id": i, "gt_dataset": gt_ds, "gt_class": gt_cls,
                                 "foreign": {foreign.name: posterior}}))
        gts.append((gt_ds, gt_cls))
        truths.append(u)
    return lines, gts, truths


def held_out(rng, spec, per_concept):
    """Fresh labelled points from a toy problem's Gaussian blobs: (points of
    shape (N, 2), true universal ids).  Far larger than the problem's own
    test split, so that a model's accuracy barely depends on the draw."""
    import numpy as np

    points, labels = [], []
    for concept in spec.concepts:
        cx, cy = concept.center
        for _ in range(per_concept):
            points.append((rng.gauss(cx, concept.std), rng.gauss(cy, concept.std)))
            labels.append(concept.universal_id)
    return np.asarray(points, dtype=np.float64), np.asarray(labels, dtype=np.int64)


def point_batches(rng, n_batches, batch):
    """Uniform points in [-3, 3]^2, the toy problems' plane, as
    ``n_batches`` lists of ``batch`` (x, y) pairs."""
    return [[(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)) for _ in range(batch)]
            for _ in range(n_batches)]


def seeded(seed, tag):
    """Independent stream per input kind, so adding one kind does not shift
    the others."""
    return random.Random(f"{seed}:{tag}")
