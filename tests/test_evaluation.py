import numpy as np
import pytest

from unitax import problems
from unitax.errors import NotFound
from unitax.evaluation import VOID, ConfusionAccumulator
from unitax.mlp import MlpModel
from unitax.rng import SplitMix64
from unitax.taxonomy import build_universal_from_atoms, collection_from_dict
from unitax.training import build_space, dataset_scores


def vehicle_setup():
    col = collection_from_dict(problems.vehicle_mini_collection())
    tax, maps = build_universal_from_atoms(col)
    return col, tax, maps


def scores_for(post, mode, col, tax, maps, dataset, post_inference=False):
    """dataset_scores of a one-layer model whose posterior is ``post``
    everywhere: zero weights and the log posterior as bias."""
    space = build_space(mode, col, tax)
    model = MlpModel([2, len(post)], SplitMix64(0))
    model.weights[0][:] = 0.0
    model.biases[0][:] = np.log(post)
    names, scores = dataset_scores(space, model, np.zeros((1, 2)), dataset, maps, col,
                                   post_inference=post_inference)
    return dict(zip(names, scores[0]))


def test_project_with_void_sums_to_one():
    col, tax, maps = vehicle_setup()
    post = np.array([0.1, 0.2, 0.3, 0.4])
    by_name = scores_for(post, "universal-nll-plus", col, tax, maps, "VIPER")
    assert list(by_name)[-1] == VOID
    assert abs(sum(by_name.values()) - 1.0) < 1e-12
    # VIPER truck absorbs the truck and pickup parts, the rest is void
    truck = next(u.id for u in tax.classes if u.display_name == "truck")
    pickup = next(u.id for u in tax.classes if u.display_name == "pickup")
    assert np.isclose(by_name["truck"], post[truck] + post[pickup])
    assert np.isclose(by_name[VOID], 1.0 - post[truck] - post[pickup])


def test_project_with_void_unknown_dataset():
    col, tax, maps = vehicle_setup()
    with pytest.raises(NotFound):
        scores_for(np.ones(4) / 4, "universal-nll-plus", col, tax, maps, "COCO")


def test_post_inference_score_credits_intersecting_foreign_classes():
    # concat model over all three one-class datasets
    col, tax, maps = vehicle_setup()
    post = np.array([0.5, 0.2, 0.3])  # VIPER.truck, Vistas.car, ADE20k.van
    by_name = scores_for(post, "naive-concat", col, tax, maps, "Vistas",
                         post_inference=True)
    # the native class keeps its posterior and gains both intersecting
    # foreign classes; nothing is disjoint from it, so void scores zero
    assert np.isclose(by_name["car"], 1.0)
    assert by_name[VOID] == 0.0


def test_post_inference_void_collects_disjoint_foreign_mass():
    col = collection_from_dict({
        "atoms": ["a", "b"],
        "datasets": [
            {"name": "D1", "classes": [
                {"name": "x", "atoms": ["a"]},
                {"name": "y", "atoms": ["b"]},
            ]},
            {"name": "D2", "classes": [{"name": "x", "atoms": ["a"]}]},
        ],
    })
    tax, maps = build_universal_from_atoms(col)
    post = np.array([0.2, 0.5, 0.3])  # D1.x, D1.y, D2.x
    by_name = scores_for(post, "naive-concat", col, tax, maps, "D2", post_inference=True)
    assert np.isclose(by_name["x"], 0.5)   # native + intersecting D1.x
    assert np.isclose(by_name[VOID], 0.5)  # D1.y is disjoint from D2's space
    by_name = scores_for(post, "naive-concat", col, tax, maps, "D2")
    assert np.isclose(by_name["x"], 0.3)   # by default foreign D1.x is void
    assert np.isclose(by_name[VOID], 0.7)


# ---------------------------------------------------------------------------
# confusion accounting


def test_void_prediction_is_false_negative_only():
    acc = ConfusionAccumulator(["a", "b"])
    acc.update("a", "a")
    acc.update("a", VOID)
    acc.update("b", "b")
    iou = acc.iou()
    # the void column adds a false negative for a but no false positive
    assert iou["a"] == pytest.approx(1 / 2)
    assert iou["b"] == pytest.approx(1.0)
    assert acc.void_fraction() == pytest.approx(1 / 3)


def test_hand_enumerated_confusion_case():
    acc = ConfusionAccumulator(["a", "b", "c"])
    cases = [("a", "a"), ("a", "b"), ("b", "b"), ("b", "b"),
             ("c", VOID), ("c", "c")]
    for gt, pred in cases:
        acc.update(gt, pred)
    iou = acc.iou()
    assert iou["a"] == pytest.approx(1 / 2)   # tp=1 fn=1 fp=0
    assert iou["b"] == pytest.approx(2 / 3)   # tp=2 fn=0 fp=1
    assert iou["c"] == pytest.approx(1 / 2)   # tp=1 fn=1(void) fp=0
    assert acc.miou() == pytest.approx((1 / 2 + 2 / 3 + 1 / 2) / 3)


def test_classes_absent_everywhere_are_omitted():
    acc = ConfusionAccumulator(["a", "b"])
    acc.update("a", "a")
    assert "b" not in acc.iou()
    assert acc.miou() == pytest.approx(1.0)


def test_merge_equals_single_pass():
    classes = ["a", "b", "c"]
    rng = np.random.default_rng(0)
    preds = [classes[i] if i < 3 else VOID for i in rng.integers(0, 4, size=200)]
    gts = [classes[i] for i in rng.integers(0, 3, size=200)]
    whole = ConfusionAccumulator(classes)
    left = ConfusionAccumulator(classes)
    right = ConfusionAccumulator(classes)
    for i, (gt, pred) in enumerate(zip(gts, preds)):
        whole.update(gt, pred)
        (left if i % 2 else right).update(gt, pred)
    merged = left.merge(right)
    assert np.array_equal(merged.counts, whole.counts)
    assert merged.miou() == whole.miou()


def test_merge_requires_same_classes():
    with pytest.raises(ValueError):
        ConfusionAccumulator(["a"]).merge(ConfusionAccumulator(["b"]))


def test_add_equals_a_loop_of_update():
    classes = ["a", "b", "c"]
    rng = np.random.default_rng(1)
    truth = rng.integers(0, 3, size=500)
    predicted = rng.integers(0, 4, size=500)  # 3 is void
    looped = ConfusionAccumulator(classes)
    for t, p in zip(truth.tolist(), predicted.tolist()):
        looped.update(classes[t], classes[p] if p < 3 else VOID)
    batched = ConfusionAccumulator(classes)
    batched.add(truth[:200], predicted[:200])
    batched.add(truth[200:], predicted[200:])
    batched.add(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    assert batched.counts.dtype == looped.counts.dtype == np.int64
    assert np.array_equal(batched.counts, looped.counts)
    assert batched.report() == looped.report()


@pytest.mark.parametrize("truth,predicted", [([2], [0]), ([0], [3]), ([-1], [0]),
                                             ([0], [-1]), ([0, 1], [0])])
def test_add_rejects_indices_out_of_range(truth, predicted):
    acc = ConfusionAccumulator(["a", "b"])
    with pytest.raises(ValueError):
        acc.add(np.array(truth), np.array(predicted))
    assert not acc.counts.any()
