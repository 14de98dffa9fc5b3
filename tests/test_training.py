import dataclasses

import numpy as np
import pytest

from unitax import problems
from unitax.errors import ValidationError
from unitax.losses import logsumexp, nll_plus, nll_plus_grad, universal_posteriors
from unitax.mlp import MlpModel
from unitax.rng import SplitMix64
from unitax.taxonomy import build_universal_from_atoms, collection_from_dict
from unitax.toyproblem import generate_toy, problem_from_dict
from unitax.training import (
    HIDDEN,
    MODES,
    TrainConfig,
    _Objective,
    build_space,
    dataset_scores,
    dead_logit_report,
    decision_surface,
    load_model,
    predict_universal,
    save_model,
    surface_csv,
    train,
    universal_accuracy,
    universal_scores,
)


def cross_problem(seed=0):
    return problem_from_dict(problems.cross_eval_problem(seed))


def quick_train(mode, seed=0, epochs=30):
    spec, tax, maps = cross_problem(seed)
    data = generate_toy(spec, maps)
    config = TrainConfig(mode=mode, epochs=epochs, seed=seed)
    return train(config, spec, tax, maps, data), spec, tax, maps, data


def test_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(mode="nope").validate()
    with pytest.raises(ValidationError):
        TrainConfig(mode="oracle", epochs=0).validate()
    with pytest.raises(ValidationError):
        TrainConfig(mode="oracle", lr=-1.0).validate()


def test_output_width_per_mode():
    spec, tax, maps = cross_problem()
    expected = {
        "universal-nll-plus": 5,
        "universal-nll-max": 5,
        "oracle": 5,
        "naive-concat": 7,
        "partial-merge": 6,   # a1 and b1 merge (equal atom sets)
        "per-dataset-heads": 9,  # 7 class logits + 2 dataset logits
    }
    for mode in MODES:
        space = build_space(mode, spec.collection, tax, maps)
        assert space.k == expected[mode], mode


def test_partial_merge_merges_exactly_equal_classes():
    spec, tax, maps = cross_problem()
    space = build_space("partial-merge", spec.collection, tax, maps)
    merged = [e for e in space.entries if len(e.natives) > 1]
    assert len(merged) == 1
    assert set(merged[0].natives) == {("D1", "a1"), ("D2", "b1")}


# ---------------------------------------------------------------------------
# output classes are keyed by (dataset, class), whatever the names hold


def test_partial_merge_scores_datasets_with_dotted_names():
    col = collection_from_dict({
        "atoms": ["a", "b"],
        "datasets": [
            {"name": name, "classes": [{"name": "car", "atoms": ["a"]},
                                       {"name": "truck", "atoms": ["b"]}]}
            for name in ("V.1", "W")
        ],
    })
    tax, maps = build_universal_from_atoms(col)
    space = build_space("partial-merge", col, tax, maps)
    assert space.class_names() == ["V.1.car=W.car", "V.1.truck=W.truck"]
    model = MlpModel([2, *HIDDEN, space.k], SplitMix64(0))
    for w in model.weights:
        w[:] = 0.0  # uniform posterior over the two merged classes
    for dataset in ("V.1", "W"):
        for post in (False, True):
            names, scores = dataset_scores(space, model, np.zeros((1, 2)), dataset,
                                           maps, col, post_inference=post)
            assert names == ["car", "truck", "__void__"]
            assert scores.tolist() == [[0.5, 0.5, 0.0]], (dataset, post)


@pytest.mark.parametrize("mode", ["naive-concat", "partial-merge", "per-dataset-heads"])
def test_concat_objective_targets_the_rows_own_class_despite_equal_names(mode):
    # A's class "B.c" and A.B's class "c" both display as "A.B.c"
    spec, tax, maps = problem_from_dict({
        "atoms": ["x", "y", "z", "w"],
        "datasets": [{"name": "A", "classes": [{"name": "B.c", "atoms": ["x"]},
                                               {"name": "e", "atoms": ["z"]}]},
                     {"name": "A.B", "classes": [{"name": "c", "atoms": ["y"]},
                                                 {"name": "e", "atoms": ["w"]}]}],
        "concepts": [{"atom": a, "center": [float(i), 0.0], "std": 0.3, "count": 10}
                     for i, a in enumerate(["x", "y", "z", "w"])],
        "seed": 0,
    })
    data = generate_toy(spec, maps)
    space = build_space(mode, spec.collection, tax, maps)
    assert space.class_names() == ["A.B.c", "A.e", "A.B.c", "A.B.e"]
    objective = _Objective(mode, spec.collection, tax, maps, space, data)
    labels = _row_labels(data)
    _, grads = objective.row_losses(np.zeros((len(labels), space.k)))
    own = {("A", "B.c"): 0, ("A", "e"): 1, ("A.B", "c"): 2, ("A.B", "e"): 3}
    assert set(labels) == set(own)
    for label, grad in zip(labels, grads):
        # the label's own class is the only output class the loss pulls up
        assert np.flatnonzero(grad[:4] < 0).tolist() == [own[label]], label


@pytest.mark.parametrize("mode", MODES)
def test_training_is_deterministic(mode, tmp_path):
    result1, *_ = quick_train(mode, seed=1)
    result2, *_ = quick_train(mode, seed=1)
    assert result1.loss_trace == result2.loss_trace
    for w1, w2 in zip(result1.model.weights, result2.model.weights):
        assert np.array_equal(w1, w2)
    save_model(tmp_path / "a.json", result1)
    save_model(tmp_path / "b.json", result2)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@pytest.mark.parametrize("mode", MODES)
def test_loss_decreases(mode):
    result, *_ = quick_train(mode, epochs=60)
    assert result.loss_trace[-1] < result.loss_trace[0]


def test_predict_universal_baselines_leave_composites_unresolved():
    result, spec, tax, maps, data = quick_train("naive-concat", epochs=5)
    pred = predict_universal(result.space, result.model, data.test_points)
    assert set(np.unique(pred)) <= set(range(-1, len(tax.classes)))


def test_universal_scores_shape_and_positivity():
    for mode in ("universal-nll-plus", "naive-concat", "per-dataset-heads"):
        result, spec, tax, maps, data = quick_train(mode, epochs=5)
        scores = universal_scores(result.space, result.model, data.test_points[:7])
        assert scores.shape == (7, len(tax.classes))
        assert np.all(scores >= 0)


def test_dead_logit_frequencies_sum_to_one():
    result, spec, tax, maps, data = quick_train("universal-nll-plus", epochs=5)
    report = dead_logit_report(result.space, result.model, data.test_points)
    assert abs(sum(report["frequencies"]) - 1.0) < 1e-9
    assert len(report["dead"]) == len(tax.classes)


def test_decision_surface_grid():
    result, *_ = quick_train("oracle", epochs=5)
    rows, names = decision_surface(result.space, result.model, -1, 1, -1, 1, 3, 3)
    assert len(rows) == 9
    # row-major: y outer, x inner
    assert [r[:2] for r in rows[:3]] == [(-1.0, -1.0), (0.0, -1.0), (1.0, -1.0)]
    csv = surface_csv(rows, names)
    assert csv.splitlines()[0] == "x,y,class"
    assert len(csv.splitlines()) == 10


def test_constant_logits_tie_break_to_lowest_class():
    result, *_ = quick_train("oracle", epochs=1)
    for w in result.model.weights:
        w[:] = 0.0
    for b in result.model.biases:
        b[:] = 0.0
    rows, names = decision_surface(result.space, result.model, -1, 1, -1, 1, 2, 2)
    assert {r[2] for r in rows} == {0}


def test_save_load_round_trip(tmp_path):
    result, spec, tax, maps, data = quick_train("partial-merge", epochs=5)
    path = tmp_path / "model.json"
    save_model(path, result)
    loaded = load_model(path)
    assert loaded.space.mode == "partial-merge"
    assert loaded.loss_trace == result.loss_trace
    a = universal_scores(result.space, result.model, data.test_points)
    b = universal_scores(loaded.space, loaded.model, data.test_points)
    assert np.array_equal(a, b)


def test_accuracy_bounded():
    result, spec, tax, maps, data = quick_train("oracle", epochs=60)
    acc = universal_accuracy(result.space, result.model,
                             data.test_points, data.test_universal)
    assert 0.0 <= acc <= 1.0


def test_dataset_scores_default_vs_post_inference():
    result, spec, tax, maps, data = quick_train("naive-concat", epochs=60)
    names, default = dataset_scores(result.space, result.model,
                                    data.test_points[:11], "D2", maps,
                                    spec.collection)
    names_pi, mapped = dataset_scores(result.space, result.model,
                                      data.test_points[:11], "D2", maps,
                                      spec.collection, post_inference=True)
    assert names == names_pi
    assert names[-1] == "__void__"
    # default sends every foreign entry to void, evalmap reassigns the
    # intersecting ones, so the void score can only shrink
    assert np.all(mapped[:, -1] <= default[:, -1] + 1e-12)


# ---------------------------------------------------------------------------
# each distinct point goes through the MLP once


def _labelled_rows(data):
    """The duplicated training rows, stacked in dataset order."""
    return np.asarray([s.x for ds in data.train for s in data.train[ds]],
                      dtype=np.float64)


def _check_against_duplicated_rows(objective, model, rows):
    """Loss and gradient over the distinct points equal the loss over every
    labelled row, with each row's gradient summed onto its point."""
    loss, grad = objective(model.forward(objective.x))
    ref_loss, ref_grad = objective.row_loss(model.forward(rows))
    assert abs(loss - ref_loss) <= 1e-12
    point_of = {p.tobytes(): j for j, p in enumerate(objective.x)}
    summed = np.zeros_like(grad)
    for row, g in zip(rows, ref_grad):
        summed[point_of[row.tobytes()]] += g
    assert np.max(np.abs(grad - summed)) <= 1e-12


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name,points,rows", [
    ("two_split_problem", 1560, 3120),  # every point labelled twice
    ("collapse_problem", 480, 640),     # some points labelled twice
])
def test_objective_forwards_each_point_once(mode, name, points, rows):
    spec, tax, maps = problem_from_dict(getattr(problems, name)(0))
    data = generate_toy(spec, maps)
    result = train(TrainConfig(mode=mode, epochs=3, seed=0), spec, tax, maps, data)
    objective = _Objective(mode, spec.collection, tax, maps, result.space, data)
    assert objective.x.shape == (points, 2)
    assert len({p.tobytes() for p in objective.x}) == points
    assert len(objective.row_of) == rows
    dup = _labelled_rows(data)
    assert np.array_equal(objective.x[objective.row_of], dup)
    _check_against_duplicated_rows(objective, result.model, dup)


@pytest.mark.parametrize("mode", MODES)
def test_objective_sums_repeats_within_one_dataset(mode):
    # p appears three times in D1 and once in D2; a scatter that loses
    # updates to repeated destinations keeps only one of p's rows
    spec, tax, maps = cross_problem()
    data = generate_toy(spec, maps)
    s0, s1 = data.train["D1"][:2]
    t0 = dataclasses.replace(data.train["D2"][0], x=s0.x)
    toy = dataclasses.replace(data, train={"D1": [s0, s1, s0, s0], "D2": [t0]})
    result = train(TrainConfig(mode=mode, epochs=3, seed=0), spec, tax, maps, toy)
    objective = _Objective(mode, spec.collection, tax, maps, result.space, toy)
    assert objective.x.tolist() == [list(s0.x), list(s1.x)]
    assert objective.row_of.tolist() == [0, 1, 0, 0, 0]
    _check_against_duplicated_rows(objective, result.model, _labelled_rows(toy))


# ---------------------------------------------------------------------------
# the training kernel is the tested NLL+


def _row_labels(data):
    return [(ds, s.label) for ds in data.train for s in data.train[ds]]


@pytest.mark.parametrize("name", ["intersection_problem", "collapse_problem"])
def test_trainer_nll_plus_equals_losses_api(name):
    spec, tax, maps = problem_from_dict(getattr(problems, name)(0))
    data = generate_toy(spec, maps)
    result = train(TrainConfig(mode="universal-nll-plus", epochs=40, seed=0),
                   spec, tax, maps, data)
    objective = _Objective("universal-nll-plus", spec.collection, tax, maps,
                           result.space, data)
    logits = result.model.forward(_labelled_rows(data))
    row_losses, row_grads = objective.row_losses(logits)
    labels = _row_labels(data)
    assert len(labels) == len(row_losses) == len(row_grads)
    for z, label, loss, grad in zip(logits, labels, row_losses, row_grads):
        assert abs(loss - nll_plus(z, label, maps)) <= 1e-12
        assert np.max(np.abs(grad - nll_plus_grad(z, label, maps))) <= 1e-12


@pytest.mark.parametrize("mode", ["universal-nll-plus", "oracle"])
def test_nll_plus_gradient_is_finite_when_the_mapped_set_is_far_below(mode):
    # Every mapped logit of row 0 lies 800 below an unmapped one: the mapped
    # posteriors underflow to 0, yet the renormalised in-set term is defined.
    spec, tax, maps = problem_from_dict(problems.intersection_problem(0))
    data = generate_toy(spec, maps)
    space = build_space(mode, spec.collection, tax, maps)
    objective = _Objective(mode, spec.collection, tax, maps, space, data)
    ds = next(iter(data.train))
    sample = data.train[ds][0]
    mapped = ([sample.true_universal] if mode == "oracle"
              else sorted(maps.mapped(ds, sample.label)))
    assert len(mapped) < space.k
    logits = np.zeros((len(_labelled_rows(data)), space.k))
    logits[0, mapped] = -800.0
    loss, grad = objective.row_loss(logits)
    assert np.isfinite(loss)
    assert np.all(np.isfinite(grad))
    n = len(logits)
    others = space.k - len(mapped)
    expected = np.full(space.k, 1.0 / others)
    expected[mapped] = -1.0 / len(mapped)
    assert np.max(np.abs(grad[0] * n - expected)) <= 1e-12
    # row 0 costs 800 + log(others / its set size), each other row
    # log(K / its set size)
    sizes = ([1] * (n - 1) if mode == "oracle"
             else [len(maps.mapped(d, c)) for d, c in _row_labels(data)[1:]])
    rest = np.sum(np.log(space.k) - np.log(sizes))
    first = 800.0 + np.log(others) - np.log(len(mapped))
    assert abs(loss - (first + rest) / n) <= 1e-12


# ---------------------------------------------------------------------------
# universal-nll-max and per-dataset-heads train NLL+ on their own target
# sets and softmax blocks


def _objective_and_logits(mode):
    spec, tax, maps = cross_problem()
    data = generate_toy(spec, maps)
    space = build_space(mode, spec.collection, tax, maps)
    objective = _Objective(mode, spec.collection, tax, maps, space, data)
    logits = np.random.default_rng(0).normal(0.0, 3.0, (objective.n, space.k))
    return objective, space, maps, _row_labels(data), logits


def _one_hot(size, i):
    out = np.zeros(size)
    out[i] = 1.0
    return out


def test_per_dataset_heads_rows_are_the_sum_of_two_softmax_nlls():
    objective, space, _, labels, logits = _objective_and_logits("per-dataset-heads")
    own = {native: i for i, o in enumerate(space.entries) for native in o.natives}
    (_, head), *class_heads = space.blocks
    block_of = {ds: classes for ds, classes in class_heads}
    # row 0's own class lies 800 below the rest of its class head
    far = block_of[labels[0][0]]
    logits[0, far] = 0.0
    logits[0, own[labels[0]]] = -800.0
    losses, grads = objective.row_losses(logits)
    for r, ((ds, cls), z, loss, grad) in enumerate(zip(labels, logits, losses, grads)):
        d, c = space.datasets.index(ds), own[(ds, cls)] - block_of[ds].start
        p_ds = universal_posteriors(z[head])
        p_cls = universal_posteriors(z[block_of[ds]])
        if r == 0:
            expected = -np.log(p_ds[d]) + 800.0 + np.log(len(p_cls) - 1)
        else:
            expected = -np.log(p_ds[d]) - np.log(p_cls[c])
        assert abs(loss - expected) <= 1e-12 * max(1.0, expected), r
        ref = np.zeros(space.k)
        ref[head] = p_ds - _one_hot(len(p_ds), d)
        ref[block_of[ds]] = p_cls - _one_hot(len(p_cls), c)
        assert np.max(np.abs(grad - ref)) <= 1e-12, r
    assert losses[0] > 800.0


def test_universal_nll_max_rows_credit_the_best_mapped_class():
    objective, space, maps, labels, logits = _objective_and_logits("universal-nll-max")
    mapped = [sorted(maps.mapped(*label)) for label in labels]
    tied = next(r for r, m in enumerate(mapped) if len(m) > 1)
    # a first call credits other classes; the second must forget them
    objective.row_losses(-logits)
    logits[tied, mapped[tied]] = 2.0
    losses, grads = objective.row_losses(logits)
    for r, (z, m, loss, grad) in enumerate(zip(logits, mapped, losses, grads)):
        best = m[int(np.argmax(z[m]))]
        assert abs(loss - (logsumexp(z) - np.max(z[m]))) <= 1e-12, r
        ref = universal_posteriors(z) - _one_hot(space.k, best)
        assert np.max(np.abs(grad - ref)) <= 1e-12, r
    # ties go to the lowest id
    assert np.argmin(grads[tied]) == mapped[tied][0]
