import json

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
from unitax.taxonomy import build_universal_from_atoms, collection_from_dict


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
