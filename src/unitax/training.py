"""Training modes for the 2D toy problems.

Six modes share one MLP backbone and differ only in their output space and
loss:

- universal-nll-plus: softmax over universal classes, partial-label NLL+.
- universal-nll-max:  softmax over universal classes, but the label's
  posterior is the maximum (not the sum) over its mapped set.
- naive-concat:       softmax over the concatenation of all dataset classes.
- partial-merge:      like naive-concat but classes with identical atom sets
  are merged into one logit.
- per-dataset-heads:  per-dataset softmax heads plus a dataset-recognition
  head, composed via the product of posteriors.
- oracle:             softmax over universal classes with true universal
  labels (upper bound, extra supervision).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .errors import (TrainingDiverged, ValidationError, load_json, require_field,
                     require_list)
from .losses import nll_plus_rows, universal_posteriors
from .mlp import Adam, MlpModel
from .rng import SplitMix64
from .taxonomy import VOID, Collection, MappingSet, UniversalTaxonomy, projection
from .toyproblem import ToyData, ToyProblemSpec, generate_toy

MODES = (
    "universal-nll-plus",
    "universal-nll-max",
    "naive-concat",
    "partial-merge",
    "per-dataset-heads",
    "oracle",
)

# modes whose output space is the universal taxonomy
_UNIVERSAL = ("universal-nll-plus", "universal-nll-max", "oracle")

HIDDEN = (64, 64)


@dataclass(frozen=True)
class TrainConfig:
    mode: str
    epochs: int = 2000
    lr: float = 1e-3
    seed: int = 0

    def validate(self):
        if self.mode not in MODES:
            raise ValidationError(f"unknown mode {self.mode!r}; choose one of {MODES}")
        if self.epochs <= 0:
            raise ValidationError("epochs must be positive")
        if not 0 < self.lr < float("inf"):
            raise ValidationError(f"learning rate (--lr) must be positive and finite, "
                                  f"not {self.lr}")


@dataclass(frozen=True)
class OutputClass:
    """One class of a model's output space."""

    name: str  # display name
    atoms: frozenset  # of atom names
    natives: tuple = ()  # (dataset, class) pairs it stands for; () for a universal class


@dataclass(frozen=True)
class ModelSpace:
    """Interpretation of the model's output vector.

    ``universal`` holds one OutputClass per universal class.  ``entries``
    holds the concatenated (or merged) dataset classes of the naive-concat,
    partial-merge and per-dataset-heads modes and is empty otherwise;
    ``datasets`` names the dataset-recognition head of per-dataset-heads.
    The model's own output classes are the entries when there are any,
    else the universal classes, followed by one logit per dataset head.
    """

    mode: str
    universal: tuple
    entries: tuple = ()
    datasets: tuple = ()

    @property
    def n_universal(self) -> int:
        return len(self.universal)

    @property
    def outputs(self) -> tuple:
        return self.entries or self.universal

    @property
    def k(self) -> int:
        return len(self.outputs) + len(self.datasets)

    def class_names(self) -> list:
        """Display names of the model's own output classes."""
        return [o.name for o in self.outputs]

    @cached_property
    def blocks(self) -> tuple:
        """The softmax blocks of the output vector as (dataset, classes)
        pairs.  The first block, with dataset None, serves every row: all
        output classes, or the dataset head of per-dataset-heads.  Each
        further block is one dataset's class head among the entries, which
        are stacked dataset by dataset."""
        if not self.datasets:
            return ((None, slice(0, self.k)),)
        blocks, offset = [(None, slice(len(self.entries), self.k))], 0
        for ds in self.datasets:
            size = sum(1 for o in self.entries if o.natives[0][0] == ds)
            blocks.append((ds, slice(offset, offset + size)))
            offset += size
        return tuple(blocks)

    @cached_property
    def universal_weights(self) -> np.ndarray:
        """Which universal classes each output class meets (outputs x U)."""
        return projection([o.atoms for o in self.outputs], [u.atoms for u in self.universal])

    @cached_property
    def universal_of(self) -> np.ndarray:
        """Per output class, the universal class it equals, or -1.

        An output class is a union of universal classes, so it meets
        exactly one of them when it equals it.
        """
        w = self.universal_weights
        return np.where(w.sum(axis=1) == 1, np.argmax(w, axis=1), -1)

    def to_dict(self) -> dict:
        merged = self.mode == "partial-merge"
        entries = []
        for o in self.entries:
            entry = {"name": o.name, "atoms": sorted(o.atoms)}
            if merged:
                entry["members"] = [list(n) for n in o.natives]
            else:
                entry["dataset"], entry["class"] = o.natives[0]
            entries.append(entry)
        return {
            "mode": self.mode,
            "n_universal": self.n_universal,
            "universal_atoms": [sorted(u.atoms) for u in self.universal],
            "entries": entries,
            "datasets": list(self.datasets),
        }

    @classmethod
    def from_dict(cls, data) -> "ModelSpace":
        """Read the layout to_dict writes.  Raises ValidationError naming the
        first missing or mistyped field."""
        mode = require_field(data, "mode", str, "space.")
        if mode not in MODES:
            raise ValidationError(f"field 'space.mode' must be one of {MODES}")
        universal = []
        for i, atoms in enumerate(require_field(data, "universal_atoms", list, "space.")):
            atoms = require_list(atoms, str, f"space.universal_atoms[{i}]")
            universal.append(OutputClass("+".join(atoms), frozenset(atoms)))
        if require_field(data, "n_universal", int, "space.") != len(universal):
            raise ValidationError("field 'space.universal_atoms' must have one entry "
                                  "per universal class")
        entries = []
        for i, entry in enumerate(require_field(data, "entries", list, "space.")):
            where = f"space.entries[{i}]."
            if mode == "partial-merge":
                natives = [tuple(require_list(m, str, f"{where}members[{j}]", 2)) for j, m in
                           enumerate(require_field(entry, "members", list, where))]
            else:
                natives = [(require_field(entry, "dataset", str, where),
                            require_field(entry, "class", str, where))]
            atoms = require_list(require_field(entry, "atoms", list, where), str, where + "atoms")
            entries.append(OutputClass(require_field(entry, "name", str, where),
                                       frozenset(atoms), tuple(natives)))
        datasets = require_list(require_field(data, "datasets", list, "space."), str,
                                "space.datasets")
        if ((mode in _UNIVERSAL) == bool(entries)
                or (mode == "per-dataset-heads") != bool(datasets)):
            raise ValidationError(f"fields 'space.entries' and 'space.datasets' do not "
                                  f"fit a {mode} space")
        return cls(mode, tuple(universal), tuple(entries), tuple(datasets))


def build_space(mode: str, col: Collection, tax: UniversalTaxonomy,
                maps: MappingSet) -> ModelSpace:
    universal = []
    for u in tax.classes:
        atoms = sorted(col.atom_names(u.atoms))
        universal.append(OutputClass("+".join(atoms), frozenset(atoms)))
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}")
    if mode in _UNIVERSAL:
        return ModelSpace(mode, tuple(universal))
    entries = [OutputClass(f"{ds.name}.{c.name}", frozenset(col.atom_names(c.atoms)),
                           ((ds.name, c.name),))
               for ds in col.datasets for c in ds.classes]
    datasets = ()
    if mode == "per-dataset-heads":
        datasets = tuple(ds.name for ds in col.datasets)
    elif mode == "partial-merge":
        # classes with equal atom sets share one output class
        groups = {}
        for e in entries:
            groups.setdefault(e.atoms, []).append(e)
        entries = [OutputClass("=".join(e.name for e in group), atoms,
                               tuple(e.natives[0] for e in group))
                   for atoms, group in groups.items()]
    return ModelSpace(mode, tuple(universal), tuple(entries), datasets)


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    model: MlpModel
    space: ModelSpace
    loss_trace: list  # per-epoch mean loss


def _stack_training_data(data: ToyData):
    """All (dataset, sample) pairs as flat arrays, in dataset order.

    A point labelled by several datasets appears once per label.  ``row_of``
    numbers the distinct points in first-occurrence order and gives each
    row its point's number, so that training forwards each point once.
    Points are distinct when their float64 bytes differ.
    """
    rows, datasets, labels, universals = [], [], [], []
    for ds_name in data.train:
        for s in data.train[ds_name]:
            rows.append(s.x)
            datasets.append(ds_name)
            labels.append(s.label)
            universals.append(s.true_universal)
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 2)
    seen = {}
    row_of = np.asarray([seen.setdefault(r.tobytes(), len(seen)) for r in rows],
                        dtype=np.int64)
    return (
        rows,
        row_of,
        datasets,
        labels,
        np.asarray(universals, dtype=np.int64),
    )


class _Objective:
    """Loss and dL/dlogits for one mode over the full training batch.

    ``x`` holds each distinct training point once and ``row_of`` maps every
    labelled (dataset, sample) row to its point.  Calling the objective on
    the logits of ``x`` gathers them per row into a class-major (K, rows)
    array, so that every reduction over classes runs over contiguous
    memory.  It evaluates the mode's loss there, still averaged over all
    labelled rows, and sums each row's gradient back onto its point.  The
    MLP thus forwards and backwards every point once, whatever the number
    of datasets that label it.  The arrays a call writes come from
    ``workspace()``; train() makes one and reuses it in every epoch.

    The modes differ only in data.  Each labelled row has a target set of
    output classes: its mapped set (universal-nll-plus), its true universal
    class (oracle), the output class of its own label (naive-concat,
    partial-merge and per-dataset-heads, which also credits the row's
    dataset in its dataset head), or the most likely class of its mapped
    set, picked on every call (universal-nll-max).  Each softmax block of
    ``space.blocks`` runs the NLL+ kernel of ``losses`` over the rows it
    serves, and a row's loss is the sum over its blocks: the joint
    posterior of per-dataset-heads is the product of its heads'.
    """

    def __init__(self, mode, col, tax, maps, space, data: ToyData):
        self.mode = mode
        rows, row_of, ds_names, labels, universals = _stack_training_data(data)
        self.row_of = row_of
        self.n = n = len(row_of)
        self.k = k = space.k
        # copies[r][j] is the row of point j's r-th copy, or n when the
        # point has fewer copies: column n of the rows' gradient stays 0.
        points = int(row_of.max()) + 1 if n else 0
        count = [0] * points
        copies = []
        for r, j in enumerate(row_of.tolist()):
            if count[j] == len(copies):
                copies.append(np.full(points, n, dtype=np.int64))
            copies[count[j]][j] = r
            count[j] += 1
        self.copies = copies
        self.x = rows[copies[0]] if copies else rows
        self.cols = np.arange(n)
        own = {native: i for i, o in enumerate(space.entries) for native in o.natives}
        labelled = list(zip(ds_names, labels))
        if mode == "oracle":
            targets = [(u,) for u in universals.tolist()]
        elif space.entries:
            targets = [(own[label],) for label in labelled]
        else:
            targets = [maps.mapped(*label) for label in labelled]
        if space.datasets:
            head = len(space.entries)
            targets = [t + (head + space.datasets.index(ds),)
                       for t, ds in zip(targets, ds_names)]
        in_set = np.zeros((k, n), dtype=np.float64)
        in_set[[c for t in targets for c in t],
               [i for i, t in enumerate(targets) for _ in t]] = 1.0
        off_set = np.where(in_set > 0, 0.0, -np.inf)
        if mode == "universal-nll-max":
            # The targets start empty; each call credits one mapped class.
            self.mapped_off, self.top = off_set, np.zeros(n, dtype=np.int64)
            in_set, off_set = np.zeros((k, n)), np.full((k, n), -np.inf)
        self.in_set, self.off_set = in_set, off_set
        # (classes, rows) per softmax block; rows are stacked dataset by
        # dataset, so the rows of a class head are one range.
        self.blocks = []
        for ds, classes in space.blocks:
            start = ds_names.index(ds) if ds in ds_names else 0
            count = n if ds is None else ds_names.count(ds)
            self.blocks.append((classes, slice(start, start + count)))

    def workspace(self):
        """The arrays one call writes, all class-major: the points' and the
        rows' logits, scratch, the rows' gradient with a zero column for
        missing copies, per-row statistics, and the points' gradient.
        ``blocks`` holds each softmax block's rows and the views of them
        that nll_plus_rows takes."""
        k, n, points = self.k, self.n, len(self.x)
        work = SimpleNamespace(
            logits=np.empty((k, points)), z=np.empty((k, n)),
            scratch=np.empty((k, n)), grad_rows=np.zeros((k, n + 1)),
            stats=np.empty((4, n)), grad=np.empty((k, points)), copy=np.empty((k, points)),
        )
        work.blocks = []
        for classes, rows in self.blocks:
            views = [a[classes, rows] for a in (work.z, self.in_set, self.off_set,
                                                work.grad_rows, work.scratch)]
            work.blocks.append((rows, views + [work.stats[:, rows]]))
        return work

    def __call__(self, logits: np.ndarray, work=None):
        """Loss and gradient for the logits of the distinct points ``x``.

        The gradient is a (points, K) view of a class-major buffer of
        ``work``, or of a fresh workspace when none is given.
        """
        if work is None:
            work = self.workspace()
        np.copyto(work.logits, logits.T)
        np.take(work.logits, self.row_of, axis=1, out=work.z, mode="clip")
        loss = float(np.mean(self._rows(work)))
        grad = work.grad
        np.take(work.grad_rows, self.copies[0], axis=1, out=grad, mode="clip")
        for rows in self.copies[1:]:
            np.take(work.grad_rows, rows, axis=1, out=work.copy, mode="clip")
            grad += work.copy
        grad /= self.n
        return loss, grad.T

    def row_losses(self, logits: np.ndarray):
        """Per-row losses and gradients (not divided by the number of rows)
        for the logits of the labelled rows, from the kernel training runs."""
        work = self.workspace()
        np.copyto(work.z, logits.T)
        losses = self._rows(work)
        return losses, work.grad_rows[:, :self.n].T

    def row_loss(self, logits: np.ndarray):
        """Mean loss and its gradient for the logits of the labelled rows."""
        losses, grad = self.row_losses(logits)
        return float(np.mean(losses)), grad / self.n

    def _rows(self, work):
        """Per-row losses for the class-major row logits ``work.z``; the
        rows' gradient goes to ``work.grad_rows``."""
        if self.mode == "universal-nll-max":
            self._credit_top(work)
        loss = np.zeros(self.n)
        for rows, args in work.blocks:
            loss[rows] += nll_plus_rows(*args)
        return loss

    def _credit_top(self, work):
        """Make each row's target the most likely class of its mapped set
        (ties go to the lowest id), in place of the last call's."""
        top = np.argmax(np.add(work.z, self.mapped_off, out=work.scratch), axis=0)
        self.in_set[self.top, self.cols] = 0.0
        self.off_set[self.top, self.cols] = -np.inf
        self.in_set[top, self.cols] = 1.0
        self.off_set[top, self.cols] = 0.0
        self.top = top


def train(config: TrainConfig, spec: ToyProblemSpec, tax: UniversalTaxonomy,
          maps: MappingSet, data: ToyData = None) -> TrainResult:
    """Train one mode on a toy problem; deterministic given the seed."""
    config.validate()
    if data is None:
        data = generate_toy(spec, maps)
    space = build_space(config.mode, spec.collection, tax, maps)
    objective = _Objective(config.mode, spec.collection, tax, maps, space, data)
    rng = SplitMix64(config.seed ^ 0xA5A5A5A5A5A5A5A5)
    model = MlpModel([2, *HIDDEN, space.k], rng)
    optimizer = Adam(model.parameters(), lr=config.lr)
    # One cache and one workspace serve every epoch and go when train returns.
    cache = []
    work = objective.workspace()
    trace = []
    for _ in range(config.epochs):
        logits = model.forward(objective.x, cache)
        loss, grad_logits = objective(logits, work)
        if not np.isfinite(loss):
            raise TrainingDiverged(f"loss became non-finite ({loss})")
        grads_w, grads_b = model.backward(cache, grad_logits)
        optimizer.step(grads_w + grads_b)
        trace.append(loss)
    return TrainResult(model, space, trace)


# ---------------------------------------------------------------------------
# inference and reports


def forward_logits(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Batch forward pass of the 2D points ``x``."""
    return model.forward(np.asarray(x, dtype=np.float64).reshape(-1, 2))


def own_posterior(space: ModelSpace, model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Posterior over the model's own output classes (universal classes for
    the universal modes, concat/merged entries otherwise): the softmax of
    the first block, or for per-dataset-heads each class head's softmax
    times its dataset's posterior in the first block, the dataset head."""
    logits = forward_logits(model, x)
    (_, first), *heads = space.blocks
    post = universal_posteriors(logits[:, first])
    if not heads:
        return post
    joint = np.zeros((logits.shape[0], len(space.entries)))
    for d, (_, classes) in enumerate(heads):
        joint[:, classes] = universal_posteriors(logits[:, classes]) * post[:, d:d + 1]
    return joint


def universal_scores(space: ModelSpace, model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Scores over universal classes for any mode: each output class's
    posterior goes to every universal class it meets.

    That is the softmax posterior for the universal modes, and
    post-inference summation of intersecting output classes for the
    baselines.
    """
    return own_posterior(space, model, x) @ space.universal_weights


def dataset_scores(space: ModelSpace, model: MlpModel, x: np.ndarray,
                   dataset: str, maps: MappingSet, col,
                   post_inference: bool = False):
    """Scores over one dataset's classes plus void, for any mode.

    Each output class's posterior goes to every class of the dataset it
    meets, and to void when it meets none.  A universal class meets the
    classes whose mapped set holds it.  A concatenated output class meets
    by default only the classes it stands for, so everything foreign goes
    to void; with ``post_inference`` it meets every class its atoms
    intersect.  Within a dataset classes are disjoint, so a native output
    class meets its own class alone either way.

    Returns (names, scores) with names ending in "__void__" and scores of
    shape (len(x), len(names)).
    """
    classes = col.dataset(dataset).classes
    if not space.entries:
        sources = [{u} for u in range(space.n_universal)]
        targets = [maps.mapped(dataset, c.name) for c in classes]
    elif post_inference:
        sources = [o.atoms for o in space.entries]
        targets = [col.atom_names(c.atoms) for c in classes]
    else:
        sources = [o.natives for o in space.entries]
        targets = [{(dataset, c.name)} for c in classes]
    weights = projection(sources, targets, void=True)
    return [c.name for c in classes] + [VOID], own_posterior(space, model, x) @ weights


def predict_universal(space: ModelSpace, model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Native argmax prediction mapped onto universal ids.

    The model predicts in its own output space first.  An output class
    resolves to a universal class only when it equals one, which every
    class of the universal modes does; otherwise the prediction stays
    unresolved (-1), which the accuracy metrics count as wrong.
    """
    return space.universal_of[_own_argmax(space, forward_logits(model, x))]


def _own_argmax(space: ModelSpace, logits: np.ndarray) -> np.ndarray:
    """Argmax over the model's own output classes, leaving out the dataset
    head (ties go to the lowest index)."""
    return np.argmax(logits[:, :len(space.outputs)], axis=1)


def universal_accuracy(space, model, x, y_true) -> float:
    pred = predict_universal(space, model, x)
    return float(np.mean(pred == np.asarray(y_true)))


def per_class_accuracy(space, model, x, y_true) -> dict:
    pred = predict_universal(space, model, x)
    y_true = np.asarray(y_true)
    out = {}
    for u in sorted(set(y_true.tolist())):
        sel = y_true == u
        out[int(u)] = float(np.mean(pred[sel] == u))
    return out


def dead_logit_report(space: ModelSpace, model: MlpModel, x: np.ndarray,
                      threshold: float = 0.01) -> dict:
    """Prediction frequency per universal class plus dead flags
    (frequency below the threshold).  Baseline predictions are resolved with
    post-inference summation so every sample lands on a universal class."""
    pred = np.argmax(universal_scores(space, model, x), axis=1)
    n = len(pred)
    freqs = [float(np.sum(pred == u)) / n for u in range(space.n_universal)]
    return {
        "frequencies": freqs,
        "dead": [f < threshold for f in freqs],
    }


def decision_surface(space: ModelSpace, model: MlpModel, xmin, xmax, ymin, ymax,
                     nx: int, ny: int):
    """Argmax class of the model's own output space over a regular grid.

    Returns (rows, class_names) with rows of (x, y, class index) in
    row-major order (y outer, x inner).  Argmax ties go to the lowest index.
    """
    xs = np.linspace(xmin, xmax, nx)
    ys = np.linspace(ymin, ymax, ny)
    grid = np.asarray([(x, y) for y in ys for x in xs], dtype=np.float64)
    pred = _own_argmax(space, forward_logits(model, grid))
    rows = [(float(px), float(py), int(c)) for (px, py), c in zip(grid, pred)]
    return rows, space.class_names()


def surface_csv(rows, class_names) -> str:
    lines = ["x,y,class"]
    for x, y, c in rows:
        lines.append(f"{x!r},{y!r},{class_names[c]}")
    return "\n".join(lines) + "\n"


def save_model(path, result: TrainResult) -> None:
    data = {"space": result.space.to_dict(), "model": result.model.to_dict(),
            "loss_trace": result.loss_trace}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> TrainResult:
    """Read a model.json written by save_model.

    Raises ValidationError naming the file and the field when a key is
    missing or mistyped, when the layer sizes disagree with the weight and
    bias shapes or with the output space, or when a parameter is not
    finite.
    """
    return load_json(path, _result_from_dict)


def _result_from_dict(data) -> TrainResult:
    model = require_field(data, "model", dict)
    sizes = require_field(model, "sizes", list, "model.")
    weights = require_field(model, "weights", list, "model.")
    biases = require_field(model, "biases", list, "model.")
    if len(sizes) < 2 or not all(type(n) is int and n > 0 for n in sizes):
        raise ValidationError("field 'model.sizes' must list at least two positive integers")
    if sizes[0] != 2:
        raise ValidationError("field 'model.sizes' must start with the input width 2")
    params = {}
    for key, values in (("weights", weights), ("biases", biases)):
        if len(values) != len(sizes) - 1:
            raise ValidationError(f"field 'model.{key}' needs {len(sizes) - 1} layers "
                                  f"for sizes {sizes}, not {len(values)}")
        params[key] = []
        for i, value in enumerate(values):
            shape = (sizes[i], sizes[i + 1]) if key == "weights" else (sizes[i + 1],)
            try:
                array = np.asarray(value)
            except ValueError:  # ragged nesting
                array = None
            if array is None or array.dtype.kind not in "fi" or array.shape != shape:
                raise ValidationError(f"field 'model.{key}[{i}]' must hold numbers "
                                      f"of shape {shape} for sizes {sizes}")
            if not np.all(np.isfinite(array)):
                raise ValidationError(f"field 'model.{key}[{i}]' holds a non-finite value")
            params[key].append(array.astype(np.float64))
    space = ModelSpace.from_dict(require_field(data, "space", dict))
    if space.k != sizes[-1]:
        raise ValidationError(f"field 'model.sizes' ends in {sizes[-1]} outputs, "
                              f"but the {space.mode} space has {space.k}")
    trace = data.get("loss_trace", [])
    if not isinstance(trace, list):
        raise ValidationError("field 'loss_trace' is not list")
    return TrainResult(MlpModel.from_dict({"sizes": sizes, **params}), space, trace)
