import ast
import dataclasses
import io
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from unitax import problems, training
from unitax.errors import InvalidLogit, TrainingDiverged, UnmappedLabel, ValidationError
from unitax.losses import (dataset_posterior, logsumexp, nll_plus, nll_plus_grad,
                           nll_plus_targets, two_head_joint, universal_posteriors)
from unitax.mlp import MlpModel, blas_threads
from unitax.rng import SplitMix64
from unitax.pseudolabel import ensemble_pseudo_label
from unitax.taxonomy import (MappingSet, build_universal_from_atoms, collection_from_dict,
                             projection)
from unitax.toyproblem import generate_toy, problem_from_dict
from unitax.training import (
    EPOCHS_MAX,
    HIDDEN,
    MODES,
    ModelSpace,
    TrainConfig,
    _Objective,
    _own_argmax,
    build_space,
    dataset_scores,
    dead_logit_report,
    decision_surface,
    forward_logits,
    load_model,
    predict_universal,
    save_model,
    surface_csv,
    train,
    universal_accuracy,
    universal_scores,
)

from helpers import row_major_softmax, train_problem
from openblas_kernels import KERNELS, run_on_kernel


def cross_problem(seed=0):
    return problem_from_dict(problems.cross_eval_problem(seed))


def quick_train(mode, seed=0, epochs=30):
    return train_problem(problems.cross_eval_problem(seed), mode, epochs, seed)


def test_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(mode="nope").validate()
    with pytest.raises(ValidationError):
        TrainConfig(mode="oracle", epochs=0).validate()
    with pytest.raises(ValidationError):
        TrainConfig(mode="oracle", lr=-1.0).validate()


def test_epochs_are_bounded():
    # validate alone: no run starts
    TrainConfig(mode="oracle", epochs=EPOCHS_MAX).validate()
    for epochs in (0, EPOCHS_MAX + 1, 10**12):
        with pytest.raises(ValidationError, match=r"^--epochs must lie in 1\.\.100000, not "):
            TrainConfig(mode="oracle", epochs=epochs).validate()


@pytest.mark.parametrize("epochs", [1, 3])
def test_a_diverging_run_raises_before_returning(epochs):
    spec, tax, maps = cross_problem()
    with pytest.raises(TrainingDiverged, match=r"at learning rate \(--lr\) 1e\+308$"):
        train(TrainConfig("universal-nll-plus", epochs=epochs, lr=1e308), spec, tax, maps)


def test_train_leaves_the_blas_thread_count_as_it_found_it():
    calls = blas_threads()
    if calls is None:
        pytest.skip("this numpy build exports no OpenBLAS thread calls")
    get, set_threads = calls
    before = get()
    spec, tax, maps = cross_problem()
    try:
        for threads in (2, 1):
            set_threads(threads)
            train(TrainConfig("oracle", epochs=1), spec, tax, maps)
            assert get() == threads
            with pytest.raises(TrainingDiverged):
                train(TrainConfig("oracle", epochs=1, lr=1e308), spec, tax, maps)
            assert get() == threads
    finally:
        set_threads(before)


def _readers_of_an_empty_mapped_set():
    """Per reader of the mappings, a call on the cross-eval problem whose
    mappings give the first class of D1 no universal class."""
    spec, tax, maps = cross_problem()
    col = spec.collection
    label = (col.datasets[0].name, col.datasets[0].classes[0].name)
    by_dataset = {ds: dict(per) for ds, per in maps.by_dataset.items()}
    by_dataset[label[0]][label[1]] = ()
    broken = MappingSet(by_dataset)
    data = generate_toy(spec, maps)
    space = build_space("universal-nll-plus", col, tax)
    model = MlpModel([2, *HIDDEN, space.k], SplitMix64(0))
    return label, {
        "generate_toy": lambda: generate_toy(spec, broken),
        "train": lambda: train(TrainConfig("universal-nll-plus", epochs=1),
                               spec, tax, broken, data),
        "dataset_scores": lambda: dataset_scores(space, model, data.test_points[:4],
                                                 label[0], broken, col),
        "ensemble_pseudo_label": lambda: ensemble_pseudo_label([], label, col, broken),
        "nll_plus": lambda: nll_plus(np.zeros(space.k), label, broken),
    }


@pytest.mark.parametrize("reader", ["generate_toy", "train", "dataset_scores",
                                    "ensemble_pseudo_label", "nll_plus"])
def test_an_empty_mapped_set_fails_in_every_reader(reader):
    label, readers = _readers_of_an_empty_mapped_set()
    with pytest.raises(UnmappedLabel, match=rf"^label {label[0]}\.{label[1]} maps to no "):
        readers[reader]()


def test_output_width_per_mode():
    spec, tax, _ = cross_problem()
    expected = {
        "universal-nll-plus": 5,
        "universal-nll-max": 5,
        "oracle": 5,
        "naive-concat": 7,
        "partial-merge": 6,   # a1 and b1 merge (equal atom sets)
        "per-dataset-heads": 9,  # 7 class logits + 2 dataset logits
    }
    for mode in MODES:
        space = build_space(mode, spec.collection, tax)
        assert space.k == expected[mode], mode


def test_partial_merge_merges_exactly_equal_classes():
    spec, tax, _ = cross_problem()
    space = build_space("partial-merge", spec.collection, tax)
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
    space = build_space("partial-merge", col, tax)
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
    data = _one_point_per_row(generate_toy(spec, maps))
    space = build_space(mode, spec.collection, tax)
    assert space.class_names() == ["A.B.c", "A.e", "A.B.c", "A.B.e"]
    objective = _Objective(space, spec.collection, maps, data)
    labels = _row_labels(spec.collection, data)
    _, grads = _row_losses(objective, np.zeros((len(labels), space.k)))
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


def csv_text(xs, ys, classes, class_names):
    """What surface_csv writes, as one string."""
    out = io.StringIO()
    surface_csv(xs, ys, classes, class_names, out)
    return out.getvalue()


def test_decision_surface_grid():
    result, *_ = quick_train("oracle", epochs=5)
    xs, ys, classes, names = decision_surface(result.space, result.model, -1, 1, -1, 1, 3, 3)
    assert classes.shape == (3, 3)  # 9 cells
    csv = csv_text(xs, ys, classes, names)
    assert csv.splitlines()[0] == "x,y,class"
    assert len(csv.splitlines()) == 10
    # row-major: y outer, x inner
    assert [line.split(",")[:2] for line in csv.splitlines()[1:4]] == [
        ["-1.0", "-1.0"], ["0.0", "-1.0"], ["1.0", "-1.0"]]


def test_constant_logits_tie_break_to_lowest_class():
    result, *_ = quick_train("oracle", epochs=1)
    for w in result.model.weights:
        w[:] = 0.0
    for b in result.model.biases:
        b[:] = 0.0
    xs, ys, classes, names = decision_surface(result.space, result.model, -1, 1, -1, 1, 2, 2)
    assert set(classes.ravel().tolist()) == {0}


def _reference_surface_csv(space, model, xmin, xmax, ymin, ymax, nx, ny):
    """The surface CSV as the per-point implementation wrote it: one grid
    tuple, one row tuple and one formatted line per point."""
    xs = np.linspace(xmin, xmax, nx)
    ys = np.linspace(ymin, ymax, ny)
    grid = np.asarray([(x, y) for y in ys for x in xs], dtype=np.float64)
    pred = np.argmax(forward_logits(model, grid)[:, :len(space.outputs)], axis=1)
    rows = [(float(px), float(py), int(c)) for (px, py), c in zip(grid, pred)]
    class_names = space.class_names()
    lines = ["x,y,class"]
    for x, y, c in rows:
        lines.append(f"{x!r},{y!r},{class_names[c]}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("grid", [
    (-3, 3, -2.5, 2.5, 1, 1),
    (-3, 1e-3, -2.5, 2.5, 173, 91),
    (-3, 3, -2.5, 2.5, 1000, 3),
    (0.5, 0.5, -1, 1, 4, 5),  # zero-width x range
    (3, -3, 2, -2, 6, 4),  # xmin > xmax and ymin > ymax
], ids=["1x1", "173x91", "1000x3", "zero-width", "reversed"])
@pytest.mark.parametrize("mode", MODES)
def test_surface_csv_matches_the_per_point_reference(mode, grid):
    spec, tax, _ = cross_problem()
    space = build_space(mode, spec.collection, tax)
    model = MlpModel([2, *HIDDEN, space.k], SplitMix64(7))
    csv = csv_text(*decision_surface(space, model, *grid))
    want = _reference_surface_csv(space, model, *grid)
    same = csv == want  # kept out of the assert, whose diff of long texts is slow
    assert same, next(((i, a, b) for i, (a, b) in
                       enumerate(zip(csv.splitlines(), want.splitlines())) if a != b),
                      (len(csv), len(want)))


def _per_point_csv(xs, ys, classes, class_names):
    """The surface CSV with one formatted line per grid cell."""
    lines = ["x,y,class"]
    for j, y in enumerate(ys):
        for i, x in enumerate(xs):
            lines.append(f"{float(x)!r},{float(y)!r},{class_names[int(classes[j, i])]}")
    return "\n".join(lines) + "\n"


def _rows_continuing_a_class(nx, ny):
    """Each row ends in the class with which the next row starts."""
    classes = np.zeros((ny, nx), dtype=np.intp)
    classes[::2, nx // 2:] = 1
    classes[1::2, :nx // 2] = 1
    return classes


SURFACE_CLASSES = {
    "checkerboard": lambda nx, ny: np.indices((ny, nx)).sum(axis=0) % 2,
    "random": lambda nx, ny: np.random.default_rng(nx * ny).integers(0, 5, (ny, nx)),
    "one-class": lambda nx, ny: np.full((ny, nx), 3),
    "runs-across-rows": _rows_continuing_a_class,
}


@pytest.mark.parametrize("shape", [(7, 5), (1, 6), (11, 1), (1, 1), (64, 9), (0, 3)],
                         ids=lambda shape: "x".join(map(str, shape)))
@pytest.mark.parametrize("kind", SURFACE_CLASSES)
def test_surface_csv_matches_the_per_point_reference_on_given_classes(kind, shape):
    nx, ny = shape
    xs = np.linspace(-3, 1e-3, nx)
    ys = np.linspace(2.5, -2.5, ny)
    classes = SURFACE_CLASSES[kind](nx, ny)
    names = ["road", "car", "pickup", "truck", "van"]
    assert csv_text(xs, ys, classes, names) == _per_point_csv(xs, ys, classes, names)


@pytest.mark.parametrize("shape", [(7, 5), (1, 6), (11, 1), (1, 1), (64, 9), (0, 3)],
                         ids=lambda shape: "x".join(map(str, shape)))
@pytest.mark.parametrize("kind", SURFACE_CLASSES)
def test_surface_csv_bands_of_three_cells_keep_every_byte(monkeypatch, kind, shape):
    # bands of one row, or of three rows of one cell, so that every shape
    # but a single row spans several bands
    monkeypatch.setattr(training, "SURFACE_BAND", 3)
    test_surface_csv_matches_the_per_point_reference_on_given_classes(kind, shape)


class _CountingSink:
    """A text stream that keeps only the number of characters written."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


def _surface_csv_peak(kind, nx=1000, ny=1000):
    """(peak traced bytes, characters written) of surface_csv on an nx x ny
    grid of the given classes."""
    xs = np.linspace(-3, 1e-3, nx)
    ys = np.linspace(2.5, -2.5, ny)
    classes = SURFACE_CLASSES[kind](nx, ny)
    names = ["road", "car", "pickup", "truck", "van"]
    sink = _CountingSink()
    tracemalloc.start()
    try:
        surface_csv(xs, ys, classes, names, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.chars > 30 * nx * ny
    return peak, sink.chars


def test_surface_csv_holds_no_more_than_a_row_of_text():
    peak, chars = _surface_csv_peak("runs-across-rows")
    assert peak < chars / 20, (peak, chars)


@pytest.mark.parametrize("kind", ["checkerboard", "random"])
def test_surface_csv_holds_the_run_starts_of_one_band(monkeypatch, kind):
    # every cell, or four in five, starts a run: a whole-grid search for the
    # starts held 2.4 times the text (99 MiB at 1000 x 1000), one band of
    # SURFACE_BAND cells about a sixth of it.  Both grow with the cells, so
    # a 200 x 200 grid with the band cut by the same 25 times, 13 rows of
    # 200 against 65 of 1000, keeps the ratios at a 25th of the traced time
    monkeypatch.setattr(training, "SURFACE_BAND", training.SURFACE_BAND // 25)
    peak, chars = _surface_csv_peak(kind, 200, 200)
    assert peak < chars / 4, (peak, chars)


@pytest.mark.parametrize("mode", MODES)
def test_save_load_round_trip(mode, tmp_path):
    result, spec, tax, maps, data = quick_train(mode, epochs=5)
    assert ModelSpace.from_dict(result.space.to_dict()) == result.space
    path = tmp_path / "model.json"
    save_model(path, result)
    loaded = load_model(path)
    assert loaded.space.mode == mode
    assert loaded.space == result.space
    assert loaded.loss_trace == result.loss_trace
    a = universal_scores(result.space, result.model, data.test_points)
    b = universal_scores(loaded.space, loaded.model, data.test_points)
    assert np.array_equal(a, b)


UNIVERSAL_MODES = ("universal-nll-plus", "universal-nll-max", "oracle")


@pytest.mark.parametrize("written", MODES)
@pytest.mark.parametrize("named", MODES)
def test_a_space_reads_back_only_under_a_mode_of_its_output_space(written, named):
    spec, tax, _ = cross_problem()
    data = json.loads(json.dumps(build_space(written, spec.collection, tax).to_dict()))
    data["mode"] = named
    if written == named or {written, named} <= set(UNIVERSAL_MODES):
        assert ModelSpace.from_dict(data) == build_space(named, spec.collection, tax)
    else:
        with pytest.raises(ValidationError):
            ModelSpace.from_dict(data)


def test_own_argmax_of_a_heads_space_copies_no_columns():
    spec, tax, _ = problem_from_dict(problems.two_split_problem(0))
    space = build_space("per-dataset-heads", spec.collection, tax)
    assert len(space.outputs) < space.k
    # small integers, so that most rows hold ties
    logits = np.random.default_rng(0).integers(-2, 3, (50_000, space.k)).astype(np.float64)
    want = np.argmax(logits[:, :len(space.outputs)].copy(), axis=1)
    tracemalloc.start()
    try:
        got = _own_argmax(space, logits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    # the argmax itself holds 8 bytes a row; the own columns 8 bytes each
    assert peak < logits.nbytes / 8, peak


def test_decision_surface_checks_the_logits_of_every_block(monkeypatch):
    spec, tax, _ = cross_problem()
    space = build_space("per-dataset-heads", spec.collection, tax)
    model = MlpModel([2, *HIDDEN, space.k], SplitMix64(5))
    rows = []

    def forward(x, work=None):
        logits = MlpModel.forward(model, x, work)
        rows.append(len(x))
        if len(rows) == 3:
            logits[-1, -1] = np.nan  # in the dataset head, which no argmax reads
        return logits

    monkeypatch.setattr(model, "forward", forward)
    with pytest.raises(InvalidLogit):
        decision_surface(space, model, -1, 1, -1, 1, 40, 40)
    assert rows == [400, 400, 400]


def test_argmax_callers_hold_no_logits_of_the_whole_batch():
    spec, tax, _ = problem_from_dict(problems.two_split_problem(0))
    space = build_space("per-dataset-heads", spec.collection, tax)
    model = MlpModel([2, *HIDDEN, space.k], SplitMix64(3))
    x = np.random.default_rng(7).uniform(-4.0, 4.0, (200_000, 2))
    for call in (lambda: predict_universal(space, model, x),
                 lambda: decision_surface(space, model, -4, 4, -4, 4, 500, 400)):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the (N, K) float64 logits of 200,000 points
        assert peak < 200_000 * space.k * 8 / 3, peak


# Runs in a fresh process, so that OPENBLAS_CORETYPE picks the kernel.  For
# trained two-split models, the classes of predict_universal and
# decision_surface equal the argmax over the own columns of one forward()
# call on all rows, and the logits they reduce have its bits.
_ARGMAX_ON_A_KERNEL = """
import numpy as np

from unitax import problems, training
from unitax.toyproblem import generate_toy, problem_from_dict

seen, own_argmax = [], training._own_argmax

def recorded(space, logits, out=None):
    seen.append(logits.copy())
    return own_argmax(space, logits, out)

training._own_argmax = recorded
spec, tax, maps = problem_from_dict(problems.two_split_problem(0))
data = generate_toy(spec, maps)
grids = {0: (0, 3), 1: (1, 1), 511: (7, 73), 512: (32, 16), 513: (27, 19), 1560: (40, 39),
         40_000: (200, 200)}
for mode in ("universal-nll-plus", "naive-concat", "per-dataset-heads"):
    config = training.TrainConfig(mode, epochs=10, seed=1)
    result = training.train(config, spec, tax, maps, data)
    space, model = result.space, result.model
    own = len(space.outputs)
    for n, (nx, ny) in grids.items():
        x = np.random.default_rng(n).uniform(-4.0, 4.0, (n, 2))
        xs, ys, _, _ = training.decision_surface(space, model, -4, 4, -3, 3, nx, ny)
        grid = np.column_stack((np.tile(xs, ny), np.repeat(ys, nx)))
        for points, classes in (
                (x, lambda: training.predict_universal(space, model, x)),
                (grid, lambda: training.decision_surface(space, model, -4, 4, -3, 3,
                                                         nx, ny)[2].reshape(-1))):
            logits = model.forward(points)
            want = np.argmax(logits[:, :own], axis=1)
            if points is x:
                want = space.universal_of[want]
            seen.clear()
            assert np.array_equal(classes(), want), (mode, n)
            assert np.vstack(seen).tobytes() == logits.tobytes(), (mode, n)
"""


@pytest.mark.parametrize("kernel", KERNELS)
def test_argmax_callers_equal_the_argmax_of_forward_on_every_openblas_kernel(kernel):
    done = run_on_kernel(kernel, _ARGMAX_ON_A_KERNEL)
    assert done.returncode == 0, done.stderr


def _docstring_nodes(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                yield first.value


def test_mode_names_appear_only_in_the_mode_table():
    """No string constant of the package, docstrings aside, holds a mode
    name outside the table of training.py, so that no branch on a mode
    string comes back."""
    in_table, stray = set(), []
    for path in sorted(Path(training.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = {id(node) for node in _docstring_nodes(tree)}
        table = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign) and path.name == "training.py"
                    and [getattr(t, "id", None) for t in node.targets] == ["_MODES"]):
                table |= {id(n) for n in ast.walk(node.value)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and any(m in node.value for m in MODES) and id(node) not in docstrings):
                if id(node) in table:
                    in_table.add(node.value)
                else:
                    stray.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert stray == []
    assert in_table == set(MODES)


def test_every_parameter_is_read():
    """Each function of the package, methods included, reads every
    parameter it takes (self and cls aside), so that no argument is
    threaded through and dropped."""
    unread = []
    for path in sorted(Path(training.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.name}:{node.lineno}: {node.name}({p})" for p in params
                       if p not in ("self", "cls") and p not in read]
    assert unread == []


def test_exp_and_log_appear_only_in_losses():
    """np.exp and np.log are called in losses.py alone, so that no second
    softmax grows beside universal_posteriors."""
    found = {}
    for path in sorted(Path(training.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in ("exp", "log")
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                found.setdefault(path.name, []).append(node.lineno)
    assert list(found) == ["losses.py"], found


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


def test_dataset_posterior_is_the_dataset_score_of_a_universal_model():
    result, spec, tax, maps, data = quick_train("universal-nll-plus", epochs=5)
    x = data.test_points[:9]
    post = universal_posteriors(forward_logits(result.model, x))
    for ds in spec.collection.datasets:
        _, scores = dataset_scores(result.space, result.model, x, ds.name, maps,
                                   spec.collection)
        for c, cls in enumerate(ds.classes):
            helper = [dataset_posterior(p, (ds.name, cls.name), maps) for p in post]
            assert np.allclose(helper, scores[:, c], rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# every output space scores with the bits of a row-major softmax


def _row_major_own_posterior(space, model, x):
    """own_posterior worked row by row on C-order arrays: each block's
    softmax over its columns, the class heads joined by a plain product
    with their dataset's column and stacked side by side."""
    logits = forward_logits(model, x)
    (_, first), *heads = space.blocks
    post = row_major_softmax(logits[:, first])
    if not heads:
        return post
    return np.hstack([row_major_softmax(logits[:, classes]) * post[:, d:d + 1]
                      for d, (_, classes) in enumerate(heads)])


def _dataset_weights(space, dataset, maps, col, post_inference):
    """The weights dataset_scores multiplies the own posterior by, read off
    with an identity posterior."""
    identity = np.eye(len(space.outputs))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "own_posterior", lambda *args: identity)
        return dataset_scores(space, None, None, dataset, maps, col, post_inference)[1]


@pytest.mark.parametrize("mode", ["universal-nll-plus", "naive-concat", "partial-merge",
                                  "per-dataset-heads"])
def test_scores_equal_a_row_major_reference_bit_for_bit(mode):
    spec, tax, maps = problem_from_dict(problems.two_split_problem(0))
    result = train(TrainConfig(mode=mode, epochs=5, seed=2), spec, tax, maps)
    space, model, col = result.space, result.model, spec.collection
    rng = np.random.default_rng(9)
    for n in (1, 7, 512, 513, 2000):
        x = rng.uniform(-4.0, 4.0, (n, 2))
        ref = _row_major_own_posterior(space, model, x)
        assert np.array_equal(training.own_posterior(space, model, x), ref), n
        assert np.array_equal(universal_scores(space, model, x),
                              ref @ space.universal_weights), n
        for ds in col.datasets:
            for post_inference in (False, True) if space.entries else (False,):
                weights = _dataset_weights(space, ds.name, maps, col, post_inference)
                names, scores = dataset_scores(space, model, x, ds.name, maps, col,
                                               post_inference)
                assert len(names) == weights.shape[1], (n, ds.name)
                assert np.array_equal(scores, ref @ weights), (n, ds.name, post_inference)


def test_heads_own_posterior_equals_two_head_joint_per_head_bit_for_bit():
    spec, tax, maps = problem_from_dict(problems.two_split_problem(0))
    result = train(TrainConfig(mode="per-dataset-heads", epochs=5, seed=2), spec, tax, maps)
    space, model = result.space, result.model
    (_, first), *heads = space.blocks
    assert len(heads) == 2
    rng = np.random.default_rng(4)
    for n in (1, 7, 512, 513):
        x = rng.uniform(-4.0, 4.0, (n, 2))
        logits = forward_logits(model, x)
        post = universal_posteriors(logits[:, first])
        want = np.hstack([two_head_joint(universal_posteriors(logits[:, classes]),
                                         post[:, d:d + 1])
                          for d, (_, classes) in enumerate(heads)])
        assert np.array_equal(training.own_posterior(space, model, x), want), n


@pytest.mark.parametrize("block", [0, 1, 2], ids=["dataset-head", "class-head-0",
                                                   "class-head-1"])
def test_a_nan_in_any_head_fails_every_score(monkeypatch, block):
    spec, tax, maps = problem_from_dict(problems.two_split_problem(0))
    col = spec.collection
    space = build_space("per-dataset-heads", col, tax)
    model = MlpModel([2, *HIDDEN, space.k], SplitMix64(3))
    column = space.blocks[block][1].stop - 1

    def forward(x, work=None):
        logits = MlpModel.forward(model, x, work)
        logits[len(x) // 2, column] = np.nan
        return logits

    monkeypatch.setattr(model, "forward", forward)
    x = np.random.default_rng(5).uniform(-3.0, 3.0, (9, 2))
    with pytest.raises(InvalidLogit):
        universal_scores(space, model, x)
    for ds in col.datasets:
        for post_inference in (False, True):
            with pytest.raises(InvalidLogit):
                dataset_scores(space, model, x, ds.name, maps, col, post_inference)


def test_dataset_scores_weights_of_two_mapping_sets_over_one_space():
    spec, tax, maps = cross_problem()
    col = spec.collection
    other = MappingSet({**maps.by_dataset, "D2": {"b1": (0,), "b23": (1,), "b5": (2, 4)}})
    space = build_space("universal-nll-plus", col, tax)
    first = _dataset_weights(space, "D2", maps, col, False)
    second = _dataset_weights(space, "D2", other, col, False)
    assert not np.array_equal(first, second)
    for m, weights in ((maps, first), (other, second)):
        fresh = build_space("universal-nll-plus", col, tax)
        assert np.array_equal(_dataset_weights(fresh, "D2", m, col, False), weights)
        assert np.array_equal(_dataset_weights(space, "D2", m, col, False), weights)


@pytest.mark.parametrize("mode", ["universal-nll-plus", "naive-concat", "per-dataset-heads"])
def test_dataset_scores_builds_its_weights_once(monkeypatch, mode):
    spec, tax, maps = cross_problem()
    col = spec.collection
    space = build_space(mode, col, tax)
    model = MlpModel([2, *HIDDEN, space.k], SplitMix64(1))
    x = np.random.default_rng(2).uniform(-3.0, 3.0, (9, 2))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return projection(*args, **kwargs)

    monkeypatch.setattr(training, "projection", counted)
    for post_inference in (False, True):
        for ds in col.datasets:
            first = dataset_scores(space, model, x, ds.name, maps, col, post_inference)
            built = len(calls)
            again = dataset_scores(space, model, x, ds.name, maps, col, post_inference)
            assert len(calls) == built, (ds.name, post_inference)
            assert again[0] == first[0] and np.array_equal(again[1], first[1])


# ---------------------------------------------------------------------------
# each distinct point goes through the MLP once


def _one_point_per_row(data):
    """``data`` with every labelled row on a point of its own, stacked in
    dataset order."""
    index = np.concatenate([rows[:, 0] for rows in data.train.values()])
    train, start = {}, 0
    for ds, rows in data.train.items():
        train[ds] = np.stack([np.arange(start, start + len(rows)), rows[:, 1]], axis=1)
        start += len(rows)
    return dataclasses.replace(data, points=data.points[index],
                               universal=data.universal[index], train=train)


def _row_labels(col, data):
    """(dataset, class name) of every labelled row, in dataset order."""
    return [(ds, col.dataset(ds).classes[c].name)
            for ds, rows in data.train.items() for c in rows[:, 1].tolist()]


def _row_losses(objective, logits):
    """Per-point losses and gradients (not divided by the number of rows),
    from the kernel the objective calls: per row when every row has its own
    point."""
    losses, grad = nll_plus_targets(logits, objective.blocks, objective.point,
                                    objective.block, objective._targets(logits))
    return np.bincount(objective.point, losses, minlength=len(logits)), grad


def _check_against_duplicated_rows(space, col, maps, data, model):
    """Loss and gradient over the distinct points equal the loss over every
    labelled row, each on its own point, with each row's gradient summed
    onto its point."""
    loss, grad = _Objective(space, col, maps, data)(model.forward(data.points))
    per_row = _one_point_per_row(data)
    ref_loss, ref_grad = _Objective(space, col, maps, per_row)(model.forward(per_row.points))
    assert abs(loss - ref_loss) <= 1e-12
    summed = np.zeros_like(grad)
    np.add.at(summed, np.concatenate([rows[:, 0] for rows in data.train.values()]), ref_grad)
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
    assert data.points.shape == (points, 2)
    assert len({p.tobytes() for p in data.points}) == points
    assert sum(map(len, data.train.values())) == rows
    _check_against_duplicated_rows(result.space, spec.collection, maps, data, result.model)


@pytest.mark.parametrize("mode", MODES)
def test_objective_sums_repeats_within_one_dataset(mode):
    # p appears three times in D1 and once in D2; a scatter that loses
    # updates to repeated destinations keeps only one of p's rows
    spec, tax, maps = cross_problem()
    data = generate_toy(spec, maps)
    (p, c0), (q, c1) = data.train["D1"][:2].tolist()
    d2 = data.train["D2"][0, 1]
    toy = dataclasses.replace(
        data, points=data.points[[p, q]], universal=data.universal[[p, q]],
        train={"D1": np.asarray([[0, c0], [1, c1], [0, c0], [0, c0]]),
               "D2": np.asarray([[0, d2]])})
    result = train(TrainConfig(mode=mode, epochs=3, seed=0), spec, tax, maps, toy)
    _check_against_duplicated_rows(result.space, spec.collection, maps, toy, result.model)


# ---------------------------------------------------------------------------
# the training kernel is the tested NLL+


@pytest.mark.parametrize("name", ["intersection_problem", "collapse_problem"])
def test_trainer_nll_plus_equals_losses_api(name):
    spec, tax, maps = problem_from_dict(getattr(problems, name)(0))
    data = generate_toy(spec, maps)
    result = train(TrainConfig(mode="universal-nll-plus", epochs=40, seed=0),
                   spec, tax, maps, data)
    per_row = _one_point_per_row(data)
    objective = _Objective(result.space, spec.collection, maps, per_row)
    logits = result.model.forward(per_row.points)
    row_losses, row_grads = _row_losses(objective, logits)
    labels = _row_labels(spec.collection, per_row)
    assert len(labels) == len(row_losses) == len(row_grads)
    for z, label, loss, grad in zip(logits, labels, row_losses, row_grads):
        assert abs(loss - nll_plus(z, label, maps)) <= 1e-12
        assert np.max(np.abs(grad - nll_plus_grad(z, label, maps))) <= 1e-12


@pytest.mark.parametrize("mode", ["universal-nll-plus", "oracle"])
def test_nll_plus_gradient_is_finite_when_the_mapped_set_is_far_below(mode):
    # Every mapped logit of row 0 lies 800 below an unmapped one: the mapped
    # posteriors underflow to 0, yet the renormalised in-set term is defined.
    spec, tax, maps = problem_from_dict(problems.intersection_problem(0))
    data = _one_point_per_row(generate_toy(spec, maps))
    space = build_space(mode, spec.collection, tax)
    objective = _Objective(space, spec.collection, maps, data)
    labels = _row_labels(spec.collection, data)
    mapped = ([int(data.universal[0])] if mode == "oracle"
              else sorted(maps.mapped(*labels[0])))
    assert len(mapped) < space.k
    logits = np.zeros((len(labels), space.k))
    logits[0, mapped] = -800.0
    loss, grad = objective(logits)
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
             else [len(maps.mapped(d, c)) for d, c in labels[1:]])
    rest = np.sum(np.log(space.k) - np.log(sizes))
    first = 800.0 + np.log(others) - np.log(len(mapped))
    assert abs(loss - (first + rest) / n) <= 1e-12


# ---------------------------------------------------------------------------
# universal-nll-max and per-dataset-heads train NLL+ on their own target
# lists and softmax blocks


def _objective_and_logits(mode):
    spec, tax, maps = cross_problem()
    data = _one_point_per_row(generate_toy(spec, maps))
    space = build_space(mode, spec.collection, tax)
    objective = _Objective(space, spec.collection, maps, data)
    logits = np.random.default_rng(0).normal(0.0, 3.0, (len(data.points), space.k))
    return objective, space, maps, _row_labels(spec.collection, data), logits


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
    losses, grads = _row_losses(objective, logits)
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
    # a first call credits other classes; the second must not keep them
    _row_losses(objective, -logits)
    logits[tied, mapped[tied]] = 2.0
    losses, grads = _row_losses(objective, logits)
    for r, (z, m, loss, grad) in enumerate(zip(logits, mapped, losses, grads)):
        best = m[int(np.argmax(z[m]))]
        assert abs(loss - (logsumexp(z) - np.max(z[m]))) <= 1e-12, r
        ref = universal_posteriors(z) - _one_hot(space.k, best)
        assert np.max(np.abs(grad - ref)) <= 1e-12, r
    # ties go to the lowest id
    assert np.argmin(grads[tied]) == mapped[tied][0]


# ---------------------------------------------------------------------------
# training does not move beyond the last bits


LOSS_TRACES = json.loads((Path(__file__).parent / "loss_traces.json").read_text())


@pytest.mark.parametrize("name", sorted(LOSS_TRACES))
@pytest.mark.parametrize("mode", MODES)
def test_loss_trace_matches_the_pinned_trace(name, mode):
    # 30-epoch traces recorded with seed 0 before training moved from
    # labelled rows to points; summation order may change the last bits
    spec, tax, maps = problem_from_dict(getattr(problems, name)(0))
    result = train(TrainConfig(mode=mode, epochs=30, seed=0), spec, tax, maps)
    pinned = np.asarray(LOSS_TRACES[name][mode])
    assert len(result.loss_trace) == len(pinned)
    assert np.max(np.abs(np.asarray(result.loss_trace) / pinned - 1.0)) <= 1e-10
