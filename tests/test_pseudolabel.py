import json
import random

import pytest

from unitax import problems
from unitax.errors import NotFound, OrthogonalDataset, ValidationError
from unitax.pseudolabel import (
    ForeignPrediction,
    conditional_score,
    ensemble_pseudo_label,
    relabel_stream,
)
from unitax.rng import SplitMix64
from unitax.taxonomy import build_universal_from_atoms, collection_from_dict, filter_untrainable


def vehicle_setup():
    col = collection_from_dict(problems.vehicle_mini_collection())
    tax, maps = build_universal_from_atoms(col)
    uid = {u.display_name: u.id for u in tax.classes}
    return col, tax, maps, uid


def rich_vehicle_setup():
    # like the mini collection, but VIPER also labels cars and vans
    col = collection_from_dict({
        "atoms": ["truck", "pickup", "car", "van"],
        "datasets": [
            {"name": "VIPER", "classes": [
                {"name": "truck", "atoms": ["truck", "pickup"]},
                {"name": "car", "atoms": ["car"]},
                {"name": "van", "atoms": ["van"]},
            ]},
            {"name": "Vistas", "classes": [
                {"name": "car", "atoms": ["car", "van", "pickup"]},
            ]},
        ],
    })
    tax, maps = build_universal_from_atoms(col)
    uid = {u.display_name: u.id for u in tax.classes}
    return col, tax, maps, uid


def test_pickup_worked_example():
    # ground truth is Vistas car = {car, van, pickup}; the VIPER posterior
    # over the intersecting classes is truck 0.5, van 0.3, car 0.2, and the
    # truck mass is the vote for the hidden pickup subclass
    col, tax, maps, uid = rich_vehicle_setup()
    foreign = ForeignPrediction("VIPER", {"truck": 0.5, "van": 0.3, "car": 0.2})
    gt = ("Vistas", "car")
    assert conditional_score(foreign, gt, uid["pickup"], col, tax, maps) == 0.5
    assert conditional_score(foreign, gt, uid["van"], col, tax, maps) == 0.3
    assert conditional_score(foreign, gt, uid["car"], col, tax, maps) == 0.2
    label, scores, flags = ensemble_pseudo_label([foreign], gt, col, tax, maps)
    assert label == uid["pickup"]
    assert scores[uid["pickup"]] == 0.5
    assert flags == []


def test_renormalization_over_intersecting_classes():
    # mass on classes disjoint from the ground truth is discarded before
    # normalizing, so a half-confident bus vote doubles the other scores
    col = collection_from_dict({
        "atoms": ["truck", "pickup", "car", "van", "bus"],
        "datasets": [
            {"name": "VIPER", "classes": [
                {"name": "truck", "atoms": ["truck", "pickup"]},
                {"name": "car", "atoms": ["car"]},
                {"name": "van", "atoms": ["van"]},
                {"name": "bus", "atoms": ["bus"]},
            ]},
            {"name": "Vistas", "classes": [
                {"name": "car", "atoms": ["car", "van", "pickup"]},
            ]},
        ],
    })
    tax, maps = build_universal_from_atoms(col)
    uid = {u.display_name: u.id for u in tax.classes}
    foreign = ForeignPrediction(
        "VIPER", {"truck": 0.25, "van": 0.15, "car": 0.1, "bus": 0.5}
    )
    gt = ("Vistas", "car")
    assert conditional_score(foreign, gt, uid["pickup"], col, tax, maps) == pytest.approx(0.5)
    assert conditional_score(foreign, gt, uid["van"], col, tax, maps) == pytest.approx(0.3)
    assert conditional_score(foreign, gt, uid["car"], col, tax, maps) == pytest.approx(0.2)


def test_confident_foreign_truck_selects_pickup():
    col, tax, maps, uid = vehicle_setup()
    foreign = ForeignPrediction("VIPER", {"truck": 1.0})
    label, scores, _ = ensemble_pseudo_label([foreign], ("Vistas", "car"), col, tax, maps)
    assert label == uid["pickup"]
    assert scores[uid["pickup"]] == 1.0


def test_pseudo_label_always_in_mapped_set():
    spec = problems.two_split_problem(seed=0)
    col = collection_from_dict(
        {"atoms": spec["atoms"], "datasets": spec["datasets"]}
    )
    tax, maps = build_universal_from_atoms(col)
    rng = SplitMix64(123)
    labels = [(ds.name, c.name) for ds in col.datasets for c in ds.classes]
    for i in range(10000):
        gt = labels[int(rng.uniform() * len(labels)) % len(labels)]
        foreign_ds = "CityB" if gt[0] == "CityA" else "CityA"
        classes = [c.name for c in col.dataset(foreign_ds).classes]
        weights = [rng.uniform() for _ in classes]
        total = sum(weights)
        foreign = ForeignPrediction(
            foreign_ds, {c: w / total for c, w in zip(classes, weights)}
        )
        label, scores, _ = ensemble_pseudo_label([foreign], gt, col, tax, maps)
        mapped = maps.mapped(*gt)
        assert label in mapped
        assert set(scores) == set(mapped)


def test_orthogonal_dataset_flagged():
    # D2 puts all its mass on a class disjoint from the ground truth, so
    # the renormalization denominator is empty
    col = collection_from_dict({
        "atoms": ["a", "b"],
        "datasets": [
            {"name": "D1", "classes": [
                {"name": "x", "atoms": ["a"]},
                {"name": "y", "atoms": ["b"]},
            ]},
            {"name": "D2", "classes": [
                {"name": "w", "atoms": ["a"]},
                {"name": "z", "atoms": ["b"]},
            ]},
        ],
    })
    tax, maps = build_universal_from_atoms(col)
    foreign = ForeignPrediction("D2", {"w": 0.0, "z": 1.0})
    with pytest.raises(OrthogonalDataset):
        uid = next(iter(maps.mapped("D1", "x")))
        conditional_score(foreign, ("D1", "x"), uid, col, tax, maps)
    label, scores, flags = ensemble_pseudo_label([foreign], ("D1", "x"), col, tax, maps)
    assert "orthogonal:D2" in flags
    assert "all-zero-fallback" in flags
    assert label == sorted(maps.mapped("D1", "x"))[0]


def test_orthogonal_means_no_mass_where_the_ground_truth_is_met():
    # D2.v meets D1.x but carries no mass, which is flagged; no class of D3
    # meets D1.x at all, so D3 scores zero and is not flagged
    col = collection_from_dict({
        "atoms": ["a", "b", "c"],
        "datasets": [
            {"name": "D1", "classes": [{"name": "x", "atoms": ["a"]},
                                       {"name": "y", "atoms": ["b"]}]},
            {"name": "D2", "classes": [{"name": "v", "atoms": ["a"]},
                                       {"name": "t", "atoms": ["b"]}]},
            {"name": "D3", "classes": [{"name": "w", "atoms": ["c"]}]},
        ],
    })
    tax, maps = build_universal_from_atoms(col)
    (uid,) = maps.mapped("D1", "x")
    massless = ForeignPrediction("D2", {"v": 0.0, "t": 1.0})
    with pytest.raises(OrthogonalDataset) as info:
        conditional_score(massless, ("D1", "x"), uid, col, tax, maps)
    assert str(info.value) == "the classes of 'D2' that meet D1.x carry no probability mass"
    assert ensemble_pseudo_label([massless], ("D1", "x"), col, tax, maps)[2] == [
        "all-zero-fallback", "orthogonal:D2"]
    disjoint = ForeignPrediction("D3", {"w": 1.0})
    assert conditional_score(disjoint, ("D1", "x"), uid, col, tax, maps) == 0.0
    assert ensemble_pseudo_label([disjoint], ("D1", "x"), col, tax, maps)[2] == [
        "all-zero-fallback"]


def test_same_dataset_predictions_are_skipped():
    col, tax, maps, uid = vehicle_setup()
    native = ForeignPrediction("Vistas", {"car": 1.0})
    label, scores, flags = ensemble_pseudo_label([native], ("Vistas", "car"), col, tax, maps)
    assert "all-zero-fallback" in flags


def test_foreign_prediction_validation():
    col, _, _, _ = vehicle_setup()
    with pytest.raises(ValidationError):
        ForeignPrediction("VIPER", {"spaceship": 1.0}).validate(col)
    with pytest.raises(ValidationError):
        ForeignPrediction("VIPER", {"truck": 0.4, "car": 0.4}).validate(col)


@pytest.mark.parametrize("bad", [
    float("nan"), float("inf"), float("-inf"), -0.5, "0.5", None, [0.5], True, False,
])
def test_foreign_prediction_rejects_invalid_probabilities(bad):
    col, _, _, _ = rich_vehicle_setup()
    foreign = ForeignPrediction("VIPER", {"truck": 0.5, "car": bad, "van": 0.5})
    with pytest.raises(ValidationError, match="'VIPER'.*'car'"):
        foreign.validate(col)


def test_foreign_prediction_rejects_values_that_cancel_to_one():
    col, _, _, _ = rich_vehicle_setup()
    with pytest.raises(ValidationError, match="'VIPER'.*'truck'"):
        ForeignPrediction("VIPER", {"truck": 1.5, "car": -0.5}).validate(col)
    ForeignPrediction("VIPER", {"truck": 1, "car": 0}).validate(col)


def test_unknown_ground_truth_rejected():
    col = collection_from_dict(problems.rider_collection())
    tax, maps = build_universal_from_atoms(col)
    with pytest.raises(NotFound):
        ensemble_pseudo_label([], ("CamVid", "no-such-class"), col, tax, maps)
    with pytest.raises(NotFound):
        ensemble_pseudo_label([], ("A", "bicycle"), col, tax, maps)


def test_relabel_stream_round_trip():
    col, tax, maps, uid = vehicle_setup()
    lines = [
        json.dumps({
            "sample_id": "s1",
            "gt_dataset": "Vistas",
            "gt_class": "car",
            "foreign": {"VIPER": {"truck": 1.0}},
        }),
        "",  # blank lines skipped
        json.dumps({
            "gt_dataset": "VIPER",
            "gt_class": "truck",
            "foreign": {"Vistas": {"car": 1.0}},
        }),
    ]
    out = list(relabel_stream(lines, col, tax, maps))
    assert len(out) == 2
    assert out[0]["sample_id"] == "s1"
    assert out[0]["display_name"] == "pickup"
    assert out[1]["display_name"] == "pickup"
    assert out[1]["sample_id"] == 3  # falls back to the line number


def test_relabel_stream_rejects_bad_lines():
    col, tax, maps, _ = vehicle_setup()
    with pytest.raises(ValidationError):
        list(relabel_stream(["not json"], col, tax, maps))
    with pytest.raises(ValidationError):
        list(relabel_stream([json.dumps({"gt_dataset": "Vistas"})], col, tax, maps))


# ---------------------------------------------------------------------------
# the plan per (ground-truth label, foreign dataset) against the scan it
# replaced


def _reference_conditional_score(foreign, gt_label, u, col, tax, maps):
    """conditional_score as a scan of every foreign class per candidate."""
    gt_dataset, gt_class = gt_label
    if u not in maps.mapped(gt_dataset, gt_class):
        return 0.0
    u_atoms = tax.classes[u].atoms
    gt_atoms = next(
        c.atoms for c in col.dataset(gt_dataset).classes if c.name == gt_class
    )
    ds = col.dataset(foreign.dataset)
    numerator = None
    denominator = 0.0
    for cls in ds.classes:
        p = float(foreign.posterior.get(cls.name, 0.0))
        if cls.atoms & gt_atoms:
            denominator += p
        if u_atoms <= cls.atoms:
            numerator = p
    if numerator is None:
        return 0.0
    if denominator == 0.0:
        raise OrthogonalDataset(
            f"the classes of {foreign.dataset!r} that meet {gt_dataset}.{gt_class} "
            f"carry no probability mass"
        )
    return numerator / denominator


def _reference_ensemble(foreign_predictions, gt_label, col, tax, maps):
    """ensemble_pseudo_label over the reference scan."""
    gt_dataset, gt_class = gt_label
    candidates = sorted(maps.mapped(gt_dataset, gt_class))
    scores = {u: 0.0 for u in candidates}
    flags = []
    for foreign in foreign_predictions:
        if foreign.dataset == gt_dataset:
            continue
        foreign.validate(col)
        for u in candidates:
            try:
                scores[u] += _reference_conditional_score(foreign, gt_label, u, col, tax, maps)
            except OrthogonalDataset:
                flags.append(f"orthogonal:{foreign.dataset}")
                break
    best = max(candidates, key=lambda u: (scores[u], -u))
    if all(s == 0.0 for s in scores.values()):
        flags.append("all-zero-fallback")
        best = candidates[0]
    return best, scores, sorted(set(flags))


def _random_collection(rng):
    """Atoms and 2 to 4 datasets of disjoint classes over random subsets of
    them; each atom is labelled by at least one dataset."""
    atoms = [f"a{i}" for i in range(rng.randint(2, 7))]
    n_datasets = rng.randint(2, 4)
    home = {a: rng.randrange(n_datasets) for a in atoms}
    datasets = []
    for d in range(n_datasets):
        covered = [a for a in atoms if home[a] == d or rng.random() < 0.5]
        rng.shuffle(covered)
        classes = []
        while covered:
            k = rng.randint(1, len(covered))
            classes.append({"name": f"c{len(classes)}", "atoms": covered[:k]})
            covered = covered[k:]
        if classes:
            datasets.append({"name": f"D{d}", "classes": classes})
    return collection_from_dict({"atoms": atoms, "datasets": datasets})


def _random_posterior(rng, ds, gt_atoms):
    """A valid posterior over some classes of ``ds``: random weights, all
    mass on one class (sometimes as the integer 1), or all mass away from
    the classes that meet the ground truth, with -0.0 and 0 among the
    zeros."""
    names = [c.name for c in ds.classes]
    away = [c.name for c in ds.classes if not c.atoms & gt_atoms]
    kind = rng.random()
    if kind < 0.25 and away:
        post = {rng.choice(away): 1.0}
    elif kind < 0.5:
        post = {rng.choice(names): rng.choice([1, 1.0])}
    else:
        weights = {n: rng.random() for n in names if rng.random() < 0.8} or {names[0]: 1.0}
        total = sum(weights.values())
        post = {n: w / total for n, w in weights.items()}
    for n in names:
        if n not in post and rng.random() < 0.3:
            post[n] = rng.choice([0.0, -0.0, 0])
    return post


def test_plans_score_bit_for_bit_like_the_reference_scan():
    rng = random.Random(41)
    seen = dict.fromkeys(["several foreign", "unowned candidate", "orthogonal", "all-zero",
                          "no class meets", "own dataset", "integer 1", "-0.0",
                          "untrainable"], 0)
    for _ in range(300):
        col = _random_collection(rng)
        built = build_universal_from_atoms(col)
        filtered = filter_untrainable(*built)
        seen["untrainable"] += bool(filtered[2])
        # the built mappings, and the filtered ones, which hold the trainable ids alone
        inputs = [(*built, {}), (*filtered[:2], {})]
        for _ in range(20):
            gt_ds = rng.choice(col.datasets)
            gt_cls = rng.choice(gt_ds.classes)
            gt = (gt_ds.name, gt_cls.name)
            chosen = [ds for ds in col.datasets if rng.random() < 0.7] or [gt_ds]
            foreign = [ForeignPrediction(ds.name, _random_posterior(rng, ds, gt_cls.atoms))
                       for ds in chosen]
            for tax, maps, plans in inputs:
                _check_against_the_reference_scan(foreign, gt, col, tax, maps, plans, seen)
    assert all(seen.values()), seen


def _check_against_the_reference_scan(foreign, gt, col, tax, maps, plans, seen):
    """ensemble_pseudo_label, with and without ``plans``, and every
    conditional_score, bit for bit against the reference scan; ``seen``
    counts the cases met."""
    expected = _reference_ensemble(foreign, gt, col, tax, maps)
    for got in (ensemble_pseudo_label(foreign, gt, col, tax, maps, plans),
                ensemble_pseudo_label(foreign, gt, col, tax, maps)):
        assert got[0] == expected[0] and got[2] == expected[2]
        assert {u: s.hex() for u, s in got[1].items()} == {
            u: s.hex() for u, s in expected[1].items()}
    for f in foreign:
        for u in range(len(tax.classes)):
            try:
                want = _reference_conditional_score(f, gt, u, col, tax, maps).hex()
            except OrthogonalDataset as exc:
                want = str(exc)
            try:
                have = conditional_score(f, gt, u, col, tax, maps).hex()
            except OrthogonalDataset as exc:
                have = str(exc)
            assert have == want
    gt_atoms = next(c.atoms for c in col.dataset(gt[0]).classes if c.name == gt[1])
    others = [f for f in foreign if f.dataset != gt[0]]
    seen["several foreign"] += len(others) > 1
    seen["own dataset"] += len(others) < len(foreign)
    seen["orthogonal"] += any(flag.startswith("orthogonal") for flag in expected[2])
    seen["all-zero"] += "all-zero-fallback" in expected[2]
    for f in others:
        classes = col.dataset(f.dataset).classes
        seen["unowned candidate"] += any(
            all(not tax.classes[u].atoms <= c.atoms for c in classes)
            for u in maps.mapped(*gt))
        seen["no class meets"] += all(not c.atoms & gt_atoms for c in classes)
        seen["integer 1"] += any(type(p) is int and p == 1
                                 for p in f.posterior.values())
        seen["-0.0"] += any(p == 0 and str(p) == "-0.0" for p in f.posterior.values())
