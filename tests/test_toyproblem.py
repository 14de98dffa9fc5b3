import hashlib
import json
import math

import numpy as np
import pytest

from unitax import problems
from unitax.errors import ValidationError
from unitax.rng import SplitMix64
from unitax.toyproblem import (COUNT_MAX, HOLD_OUT, generate_toy, held_out_points,
                               problem_from_dict, problem_to_dict)


def test_split_sizes_are_exact():
    spec, tax, maps = problem_from_dict(problems.intersection_problem(0))
    data = generate_toy(spec, maps)
    # 3 concepts x 200 samples, 80/20 split
    assert len(data.test_points) == 120
    assert all(len(samples) == 480 for samples in data.train.values())


def test_each_training_point_appears_once():
    spec, tax, maps = problem_from_dict(problems.two_split_problem(0))
    data = generate_toy(spec, maps)
    assert data.points.shape == (len(data.universal), 2)
    assert len({p.tobytes() for p in data.points}) == len(data.points)
    for rows in data.train.values():
        assert rows.dtype == np.int64 and rows.shape == (len(rows), 2)
        # in point order, each point at most once per dataset
        assert np.all(np.diff(rows[:, 0]) > 0)
    # every point is labelled by some dataset
    labelled = np.concatenate([rows[:, 0] for rows in data.train.values()])
    assert set(labelled.tolist()) == set(range(len(data.points)))


def test_same_seed_is_byte_identical():
    spec, tax, maps = problem_from_dict(problems.intersection_problem(3))
    a = generate_toy(spec, maps)
    b = generate_toy(spec, maps)
    assert np.array_equal(a.test_points, b.test_points)
    assert np.array_equal(a.test_universal, b.test_universal)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.universal, b.universal)
    assert a.train.keys() == b.train.keys()
    for ds in a.train:
        assert np.array_equal(a.train[ds], b.train[ds])


def test_different_seeds_differ():
    spec0, _, maps = problem_from_dict(problems.intersection_problem(0))
    spec1, _, _ = problem_from_dict(problems.intersection_problem(1))
    a = generate_toy(spec0, maps)
    b = generate_toy(spec1, maps)
    assert not np.array_equal(a.test_points, b.test_points)


def test_sample_means_recover_concept_centers():
    spec, tax, maps = problem_from_dict(problems.intersection_problem(0))
    data = generate_toy(spec, maps)
    for concept in spec.concepts:
        rows = data.train[spec.collection.datasets[0].name][:, 0]
        pts = [tuple(p) for p in data.points[rows[data.universal[rows] == concept.universal_id]]]
        pts += [tuple(p) for p, u in zip(data.test_points, data.test_universal)
                if u == concept.universal_id]
        pts = np.asarray(pts, dtype=np.float64)
        bound = 3 * concept.std / math.sqrt(len(pts))
        assert abs(float(np.mean(pts[:, 0])) - concept.center[0]) < bound
        assert abs(float(np.mean(pts[:, 1])) - concept.center[1]) < bound


def test_labels_are_consistent_with_mappings():
    spec, tax, maps = problem_from_dict(problems.two_split_problem(0))
    data = generate_toy(spec, maps)
    for ds, rows in data.train.items():
        classes = spec.collection.dataset(ds).classes
        for p, c in rows.tolist():
            assert data.universal[p] in maps.mapped(ds, classes[c].name)


def test_foreign_concepts_are_excluded():
    spec, tax, maps = problem_from_dict(problems.cross_eval_problem(0))
    data = generate_toy(spec, maps)
    for ds in ("D1", "D2"):
        native = {u for uids in maps.by_dataset[ds].values() for u in uids}
        assert all(u in native for u in data.universal[data.train[ds][:, 0]].tolist())
    # each dataset misses the other's unique concept (x4 resp. x5)
    seen1 = set(data.universal[data.train["D1"][:, 0]].tolist())
    seen2 = set(data.universal[data.train["D2"][:, 0]].tolist())
    assert seen1 != seen2


def test_problem_round_trip():
    spec, tax, maps = problem_from_dict(problems.intersection_problem(5))
    data = problem_to_dict(spec, tax)
    spec2, tax2, maps2 = problem_from_dict(data)
    assert spec2.seed == spec.seed
    assert spec2.concepts == spec.concepts
    a = generate_toy(spec, maps)
    b = generate_toy(spec2, maps2)
    assert np.array_equal(a.test_points, b.test_points)


def test_unknown_concept_atom_rejected():
    data = problems.intersection_problem(0)
    data["concepts"][0]["atom"] = "wheelbarrow"
    with pytest.raises(ValidationError):
        problem_from_dict(data)


def test_count_is_bounded():
    data = problems.intersection_problem(0)
    data["concepts"][0]["count"] = COUNT_MAX
    assert problem_from_dict(data)[0].concepts[0].count == COUNT_MAX
    data["concepts"][0]["count"] = COUNT_MAX + 1
    with pytest.raises(ValidationError, match=r"'concepts\[0\]\.count' must lie in 1\.\.100000"):
        problem_from_dict(data)


# sha256 of json.dumps (key order kept) of each built-in problem factory's
# output with its default arguments
FACTORY_DIGESTS = {
    "intersection_problem": "9c4294f4b91c29e26b3410e836235ae365fd77882b82781f6be74a41fed1b411",
    "collapse_problem": "d2946aed8ad6250ce7d5b554fc89b99d14f510e75d498960f42ac4bb186f4dd4",
    "two_split_problem": "17addcbf7bf3f3fae453d3a7931fef506dba28226bb2de1f6f53121a7fa97c77",
    "cross_eval_problem": "0485bb32847be3cc34b3b868066c6a9790fd47c76b72f555d0ecb45d5c6266a8",
    "relabeled_city_collection":
        "85b3bd9f141bbf714e42d9a766afb1bec7c0365c8fc97dd562b6a655626c867c",
    "vehicle_mini_collection": "c0e3e082c8d2fadf4f5c3ce6a6037081c8b9d598716ec423fa223c9038a1712a",
    "rider_collection": "5ed9b810c2bfc3940a87b2cc158d7e563fabb08f3792e91b5ea9f07b51a6bb03",
}


@pytest.mark.parametrize("name", sorted(FACTORY_DIGESTS))
def test_problem_factories_are_golden(name):
    data = json.dumps(getattr(problems, name)()).encode()
    assert hashlib.sha256(data).hexdigest() == FACTORY_DIGESTS[name]


def scalar_toy(spec, maps):
    """generate_toy's data drawn one scalar normal and one point at a time:
    x, then y, of every sample; every fifth sample of a concept held out."""
    rng = SplitMix64(spec.seed)
    label_of = [{u: c for c, cls in reversed(list(enumerate(ds.classes)))
                 for u in maps.mapped(ds.name, cls.name)} for ds in spec.collection.datasets]
    points, universal, test_points, test_universal = [], [], [], []
    rows = [[] for _ in label_of]
    for tag, concept in enumerate(spec.concepts):
        stream = rng.fork(tag + 1)
        (cx, cy), uid = concept.center, concept.universal_id
        for i in range(concept.count):
            x = (cx + concept.std * stream.normal(), cy + concept.std * stream.normal())
            if i % 5 == 4:
                test_points.append(x)
                test_universal.append(uid)
            elif any(uid in labels for labels in label_of):
                for labelled, labels in zip(rows, label_of):
                    if uid in labels:
                        labelled.append((len(points), labels[uid]))
                points.append(x)
                universal.append(uid)
    return points, universal, rows, test_points, test_universal


FACTORIES = ["intersection_problem", "collapse_problem", "two_split_problem",
             "cross_eval_problem"]


def _specs(factory):
    """(spec, maps) of ``factory`` for seeds 0-9, each as given and with
    uneven counts: concept 0 counts HOLD_OUT - 2 samples, so none is held
    out, and concept 1 counts 2 * HOLD_OUT + 2, which HOLD_OUT does not
    divide."""
    for seed in range(10):
        for uneven in (False, True):
            problem = getattr(problems, factory)(seed)
            if uneven:
                problem["concepts"][0]["count"] = HOLD_OUT - 2
                problem["concepts"][1]["count"] = 2 * HOLD_OUT + 2
            spec, _, maps = problem_from_dict(problem)
            yield spec, maps


@pytest.mark.parametrize("factory", FACTORIES)
def test_generate_toy_equals_the_scalar_reference(factory):
    for spec, maps in _specs(factory):
        data = generate_toy(spec, maps)
        points, universal, rows, test_points, test_universal = scalar_toy(spec, maps)
        assert data.points.dtype == data.test_points.dtype == np.float64
        assert data.universal.dtype == data.test_universal.dtype == np.int64
        assert data.points.tolist() == [list(p) for p in points]
        assert data.universal.tolist() == universal
        assert data.test_points.tolist() == [list(p) for p in test_points]
        assert data.test_universal.tolist() == test_universal
        assert list(data.train) == [ds.name for ds in spec.collection.datasets]
        for ds, expected in zip(data.train, rows):
            assert data.train[ds].dtype == np.int64
            assert data.train[ds].tolist() == [list(r) for r in expected]


@pytest.mark.parametrize("factory", FACTORIES)
def test_held_out_points_are_the_test_split_bit_for_bit(factory):
    for spec, maps in _specs(factory):
        points, universal = held_out_points(spec)
        data = generate_toy(spec, maps)
        _, _, _, test_points, test_universal = scalar_toy(spec, maps)
        assert points.dtype == np.float64 and universal.dtype == np.int64
        assert points.tobytes() == data.test_points.tobytes()
        assert universal.tobytes() == data.test_universal.tobytes()
        assert points.tolist() == [list(p) for p in test_points]
        assert universal.tolist() == test_universal
        assert len(universal) == sum(c.count // HOLD_OUT for c in spec.concepts)
