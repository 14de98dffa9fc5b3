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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (InvalidLogit, TrainingDiverged, ValidationError, load_json,
                     require_field, require_list, write_json)
from .losses import nll_plus_targets, universal_posteriors
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

# training epochs that a run may ask for at most
EPOCHS_MAX = 100_000

# dead_logit_report flags a class predicted for fewer than this share of points
DEAD_FREQUENCY = 0.01


@dataclass(frozen=True)
class TrainConfig:
    mode: str
    epochs: int = 2000
    lr: float = 1e-3
    seed: int = 0

    def validate(self):
        if self.mode not in MODES:
            raise ValidationError(f"unknown mode {self.mode!r}; choose one of {MODES}")
        if not 1 <= self.epochs <= EPOCHS_MAX:
            raise ValidationError(f"--epochs must lie in 1..{EPOCHS_MAX}, not {self.epochs}")
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
        if datasets:
            # blocks reads each dataset's class head as a run of entries, in
            # the order of datasets
            if len(set(datasets)) < len(datasets):
                raise ValidationError("field 'space.datasets' names a dataset twice")
            rank, last = {ds: d for d, ds in enumerate(datasets)}, 0
            for i, entry in enumerate(entries):
                if rank.get(entry.natives[0][0], -1) < last:
                    raise ValidationError(f"field 'space.entries[{i}].dataset' must name one "
                                          f"of 'space.datasets', stacked in their order")
                last = rank[entry.natives[0][0]]
            if {o.natives[0][0] for o in entries} != set(datasets):
                raise ValidationError("field 'space.datasets' names a dataset without entries")
        return cls(mode, tuple(universal), tuple(entries), tuple(datasets))


def build_space(mode: str, col: Collection, tax: UniversalTaxonomy) -> ModelSpace:
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


class _Objective:
    """Loss and dL/dlogits for one mode over the training points.

    Every labelled row of ``data.train``, a (point, dataset label) pair,
    makes one target group, a list of output classes within one softmax
    block of ``space.blocks``: its mapped set (universal-nll-plus), its
    true universal class (oracle), the output class of its own label
    (naive-concat, partial-merge), or the most likely class of its mapped
    set, picked on every call (universal-nll-max).  A per-dataset-heads row
    makes two: its dataset in the dataset head and its own class in its
    dataset's class head, whose joint posterior is the product of the two.
    The loss is the groups' NLL+ summed and divided by the number of rows.
    """

    def __init__(self, space: ModelSpace, col: Collection, maps: MappingSet, data: ToyData):
        self.pick_top = space.mode == "universal-nll-max"
        self.blocks = [classes for _, classes in space.blocks]
        own = {native: i for i, o in enumerate(space.entries) for native in o.natives}
        point, block, targets = [], [], []
        for d, ds in enumerate(col.datasets):
            rows = data.train[ds.name]
            if space.mode == "oracle":
                lists = data.universal[rows[:, 0], None]
            else:
                if space.entries:
                    table = [[own[ds.name, c.name]] for c in ds.classes]
                else:
                    table = [sorted(maps.mapped(ds.name, c.name)) for c in ds.classes]
                width = max(map(len, table))
                lists = np.asarray([t + [-1] * (width - len(t)) for t in table])[rows[:, 1]]
            point.append(rows[:, 0])
            block.append(np.zeros(len(rows), dtype=np.int64))
            if space.datasets:
                # the row's dataset in the dataset head, block 0, and its own
                # class in its class head, block 1 + d
                targets.append(np.full((len(rows), 1), len(space.entries) + d))
                point.append(rows[:, 0])
                block.append(np.full(len(rows), 1 + d))
            targets.append(lists)
        width = max(t.shape[1] for t in targets)
        self.point, self.block = np.concatenate(point), np.concatenate(block)
        # (list slot, group): the kernel's class-major layout
        self.targets = np.concatenate([np.pad(t, ((0, 0), (0, width - t.shape[1])),
                                              constant_values=-1) for t in targets]).T.copy()
        self.rows = sum(len(data.train[ds.name]) for ds in col.datasets)

    def __call__(self, logits: np.ndarray):
        """Loss and gradient, (P, K), for the logits of the training points."""
        losses, grad = nll_plus_targets(logits, self.blocks, self.point, self.block,
                                        self._targets(logits))
        grad /= self.rows
        return float(np.sum(losses)) / self.rows, grad

    def _targets(self, logits):
        """The groups' target lists; for universal-nll-max, each list's most
        likely class (ties go to the lowest id)."""
        if not self.pick_top:
            return self.targets
        z = np.where(self.targets >= 0, logits[self.point, self.targets], -np.inf)
        return np.take_along_axis(self.targets, np.argmax(z, axis=0)[None], axis=0)


def train(config: TrainConfig, spec: ToyProblemSpec, tax: UniversalTaxonomy,
          maps: MappingSet, data: ToyData = None) -> TrainResult:
    """Train one mode on a toy problem; deterministic given the seed.

    Raises TrainingDiverged when an epoch's loss, or after the last step a
    parameter or a training point's logit, is not finite.
    """
    config.validate()
    if data is None:
        data = generate_toy(spec, maps)
    space = build_space(config.mode, spec.collection, tax)
    objective = _Objective(space, spec.collection, maps, data)
    rng = SplitMix64(config.seed ^ 0xA5A5A5A5A5A5A5A5)
    model = MlpModel([2, *HIDDEN, space.k], rng)
    optimizer = Adam(model.parameters(), lr=config.lr)
    # One cache serves every epoch and goes when train returns.
    cache = []
    trace = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.epochs):
            logits = model.forward(data.points, cache)
            loss, grad_logits = objective(logits)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"loss became non-finite ({loss}) "
                                       f"at learning rate (--lr) {config.lr}")
            grads_w, grads_b = model.backward(cache, grad_logits)
            optimizer.step(grads_w + grads_b)
            trace.append(loss)
        if not all(np.isfinite(p).all() for p in model.parameters()):
            raise TrainingDiverged(f"the last step left a non-finite parameter "
                                   f"at learning rate (--lr) {config.lr}")
        if not np.all(np.isfinite(model.forward(data.points, cache))):
            raise TrainingDiverged(f"the last step left non-finite logits "
                                   f"at learning rate (--lr) {config.lr}")
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


def dead_logit_report(space: ModelSpace, model: MlpModel, x: np.ndarray) -> dict:
    """Prediction frequency per universal class plus dead flags
    (frequency below DEAD_FREQUENCY).  Baseline predictions are resolved with
    post-inference summation so every sample lands on a universal class."""
    pred = np.argmax(universal_scores(space, model, x), axis=1)
    n = len(pred)
    freqs = [float(np.sum(pred == u)) / n for u in range(space.n_universal)]
    return {
        "frequencies": freqs,
        "dead": [f < DEAD_FREQUENCY for f in freqs],
    }


def decision_surface(space: ModelSpace, model: MlpModel, xmin, xmax, ymin, ymax,
                     nx: int, ny: int):
    """Argmax class of the model's own output space over a regular grid.

    Returns (xs, ys, classes, class_names): the nx x and the ny y
    coordinates, and the (ny, nx) array of class indices, y outer, so that
    ``classes[j, i]`` is the class at ``(xs[i], ys[j])``.  The grid goes
    through the model in row blocks of at most ``mlp.ROWS`` points, with
    the bits of a whole-batch pass, so a 1000 x 1000 grid peaks at 240-400
    MB by mode (about 1 GB whole-batch); argmax ties go to the lowest index.
    Raises InvalidLogit when a logit is not finite.
    """
    xs = np.linspace(xmin, xmax, nx)
    ys = np.linspace(ymin, ymax, ny)
    grid = np.column_stack((np.tile(xs, ny), np.repeat(ys, nx)))
    logits = forward_logits(model, grid)
    if not np.isfinite(logits).all():
        raise InvalidLogit("logits must be finite")
    classes = _own_argmax(space, logits).reshape(ny, nx)
    return xs, ys, classes, space.class_names()


def surface_csv(xs, ys, classes, class_names) -> str:
    """The surface as CSV lines ``x,y,class`` in row-major order (y outer,
    x inner), each coordinate as its shortest round-trip repr."""
    x_text = [repr(x) for x in xs.tolist()]
    lines = ["x,y,class"]
    for y, row in zip(ys.tolist(), classes.tolist()):
        y_text = repr(y)
        lines += [f"{x},{y_text},{class_names[c]}" for x, c in zip(x_text, row)]
    return "\n".join(lines) + "\n"


def save_model(path, result: TrainResult) -> None:
    write_json(path, {"space": result.space.to_dict(), "model": result.model.to_dict(),
                      "loss_trace": result.loss_trace})


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
