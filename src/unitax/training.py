"""Training modes for the 2D toy problems.

Six modes share one MLP backbone.  The table _MODES gives each its output
space, which ModelSpace describes, and its target rule, which _Objective
applies: the paper's NLL+ over universal classes (universal space, mapped
set), its max-aggregation variant (top of the mapped set), naive
concatenation, partial merge and per-dataset heads (own class), and an
oracle trained on true universal labels (true class).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (InvalidLogit, TrainingDiverged, ValidationError, load_json,
                     require_field, require_list, write_json)
from .losses import _top, nll_plus_targets, two_head_joint, universal_posteriors
from .mlp import Adam, MlpModel, Workspace, one_blas_thread, row_blocks
from .rng import SplitMix64
from .taxonomy import VOID, Collection, MappingSet, UniversalTaxonomy, projection
from .toyproblem import ToyData, ToyProblemSpec, generate_toy

# mode -> (output space, target rule), the one place that names a mode
_MODES = {
    "universal-nll-plus": ("universal", "mapped"),
    "universal-nll-max": ("universal", "top"),
    "naive-concat": ("concat", "own"),
    "partial-merge": ("merged", "own"),
    "per-dataset-heads": ("heads", "own"),
    "oracle": ("universal", "true"),
}

MODES = tuple(_MODES)

HIDDEN = (64, 64)

# training epochs that a run may ask for at most
EPOCHS_MAX = 100_000

# cells of the grid bands in which surface_csv finds run starts
SURFACE_BAND = 65_536

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
    """Interpretation of the model's output vector, in the output space
    that _MODES gives ``mode``.

    ``universal`` holds one OutputClass per universal class: all there is
    in the universal space.  ``entries`` holds one per dataset class in the
    concat and heads spaces, and one per set of classes with equal atoms in
    the merged space; ``datasets`` names the dataset head of the heads
    space.  The model's own output classes are the entries when there are
    any, else the universal classes, followed by one logit per dataset head.
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
        output classes, or the dataset head of the heads space.  Each
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
    def dataset_weights(self) -> dict:
        """dataset_scores's projection weights, filled as it asks for them,
        keyed by what they are read from: post_inference, the dataset's
        class names and the sets they meet the output classes by."""
        return {}

    @cached_property
    def universal_of(self) -> np.ndarray:
        """Per output class, the universal class it equals, or -1.

        An output class is a union of universal classes, so it meets
        exactly one of them when it equals it.
        """
        w = self.universal_weights
        return np.where(w.sum(axis=1) == 1, np.argmax(w, axis=1), -1)

    def to_dict(self) -> dict:
        entries = []
        for o in self.entries:
            entry = {"name": o.name, "atoms": sorted(o.atoms)}
            if _MODES[self.mode][0] == "merged":
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
        output_space, _ = _MODES[mode]
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
            if output_space == "merged":
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
        if ((output_space == "universal") == bool(entries)
                or (output_space == "heads") != bool(datasets)):
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
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}")
    output_space, _ = _MODES[mode]
    universal = []
    for u in tax.classes:
        atoms = sorted(col.atom_names(u.atoms))
        universal.append(OutputClass("+".join(atoms), frozenset(atoms)))
    if output_space == "universal":
        return ModelSpace(mode, tuple(universal))
    entries = [OutputClass(f"{ds.name}.{c.name}", frozenset(col.atom_names(c.atoms)),
                           ((ds.name, c.name),))
               for ds in col.datasets for c in ds.classes]
    if output_space == "merged":
        # classes with equal atom sets share one output class
        groups = {}
        for e in entries:
            groups.setdefault(e.atoms, []).append(e)
        entries = [OutputClass("=".join(e.name for e in group), atoms,
                               tuple(e.natives[0] for e in group))
                   for atoms, group in groups.items()]
    datasets = tuple(ds.name for ds in col.datasets) if output_space == "heads" else ()
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
    block of ``space.blocks``, by the mode's target rule: its mapped set,
    the most likely class of that set, picked on every call (top), its true
    universal class, or the output class of its own label.  A row of the
    heads space makes two: its dataset in the dataset head and its own class
    in its dataset's class head, whose joint posterior is the product of the
    two.  The loss is the groups' NLL+ summed and divided by the number of rows.
    """

    def __init__(self, space: ModelSpace, col: Collection, maps: MappingSet, data: ToyData):
        _, rule = _MODES[space.mode]
        self.pick_top = rule == "top"
        self.blocks = [classes for _, classes in space.blocks]
        own = {native: i for i, o in enumerate(space.entries) for native in o.natives}
        width = max(len(maps.mapped(ds.name, c.name)) for ds in col.datasets for c in ds.classes)
        point, block, targets = [], [], []
        for d, ds in enumerate(col.datasets):
            rows = data.train[ds.name]
            if rule == "true":
                lists = data.universal[rows[:, 0], None]
            elif rule == "own":
                lists = np.asarray([own[ds.name, c.name] for c in ds.classes])[rows[:, 1], None]
            else:
                table = [sorted(maps.mapped(ds.name, c.name)) for c in ds.classes]
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
        self.point, self.block = np.concatenate(point), np.concatenate(block)
        # (list slot, group): the kernel's class-major layout
        self.targets = np.concatenate(targets).T.copy()
        self.rows = sum(len(data.train[ds.name]) for ds in col.datasets)

    def __call__(self, logits: np.ndarray):
        """Loss and gradient, (P, K), for the logits of the training points."""
        losses, grad = nll_plus_targets(logits, self.blocks, self.point, self.block,
                                        self._targets(logits))
        grad /= self.rows
        return float(np.sum(losses)) / self.rows, grad

    def _targets(self, logits):
        """The groups' target lists; for the top rule, each list's most
        likely class (ties go to the lowest id)."""
        if not self.pick_top:
            return self.targets
        z = np.where(self.targets >= 0, logits[self.point, self.targets], -np.inf)
        return _top(self.targets, z)[None]


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
    optimizer = Adam(model.params, lr=config.lr)
    work = Workspace(model.sizes, len(data.points))
    trace = []
    with np.errstate(over="ignore", invalid="ignore"), one_blas_thread():
        for _ in range(config.epochs):
            logits = model.forward(data.points, work)
            loss, grad_logits = objective(logits)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"loss became non-finite ({loss}) "
                                       f"at learning rate (--lr) {config.lr}")
            model.backward(work, grad_logits)
            optimizer.step(work.grad)
            trace.append(loss)
        if not np.isfinite(model.params).all():
            raise TrainingDiverged(f"the last step left a non-finite parameter "
                                   f"at learning rate (--lr) {config.lr}")
        if not np.all(np.isfinite(model.forward(data.points, work))):
            raise TrainingDiverged(f"the last step left non-finite logits "
                                   f"at learning rate (--lr) {config.lr}")
    return TrainResult(model, space, trace)


# ---------------------------------------------------------------------------
# inference and reports


def forward_logits(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Batch forward pass of the 2D points ``x``."""
    return model.forward(np.asarray(x, dtype=np.float64).reshape(-1, 2))


def own_posterior(space: ModelSpace, model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Posterior over the model's own output classes: the softmax of the
    first block, or in the heads space each class head's softmax joined by
    two_head_joint with its dataset's posterior in the dataset head.

    The logits are transposed once, so that each block is a contiguous run
    of class rows that universal_posteriors takes without a copy; every
    block still checks its own logits.  The posterior is worked class-major
    and copied to a row-major (len(x), outputs) array at the end: BLAS
    multiplies a transposed matrix by the score weights in another
    summation order, which would move the last bits of every score.
    """
    z = np.ascontiguousarray(forward_logits(model, x).T)
    (_, first), *heads = space.blocks
    post = universal_posteriors(z[first].T).T
    if heads:
        # the class heads are stacked in the order of the dataset head
        post = np.vstack([two_head_joint(universal_posteriors(z[classes].T).T, post[d])
                          for d, (_, classes) in enumerate(heads)])
    return np.ascontiguousarray(post.T)


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
    names = tuple(c.name for c in classes)
    if not space.entries:
        targets = tuple(maps.mapped(dataset, name) for name in names)
    elif post_inference:
        targets = tuple(tuple(col.atom_names(c.atoms)) for c in classes)
    else:
        targets = tuple(((dataset, name),) for name in names)
    key = (post_inference, names, targets)
    weights = space.dataset_weights.get(key)
    if weights is None:
        if not space.entries:
            sources = [{u} for u in range(space.n_universal)]
        else:
            sources = [o.atoms if post_inference else o.natives for o in space.entries]
        weights = space.dataset_weights[key] = projection(sources, targets, void=True)
    return [*names, VOID], own_posterior(space, model, x) @ weights


def predict_universal(space: ModelSpace, model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Native argmax prediction mapped onto universal ids.

    The model predicts in its own output space first.  An output class
    resolves to a universal class only when it equals one, which every
    class of the universal modes does; otherwise the prediction stays
    unresolved (-1), which the accuracy metrics count as wrong.
    """
    return space.universal_of[_own_classes(space, model, x)]


def _own_classes(space: ModelSpace, model: MlpModel, x: np.ndarray,
                 finite: bool = False) -> np.ndarray:
    """_own_argmax of the logits of the 2D points ``x``, one forward() row
    block at a time.

    Each block of ``mlp.row_blocks`` goes through forward() on its own,
    which gives the bits of one call on all of ``x``, and its logits are
    reduced before the next block overwrites them, so no (len(x), K) array
    is ever held.  A single block takes forward()'s own buffers; more share
    one block's Workspace.  With ``finite``, raises InvalidLogit when a
    logit is not finite.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1, 2)
    blocks = row_blocks(len(x))
    work = None
    if len(blocks) > 1:
        work = Workspace(model.sizes, blocks[-1].stop - blocks[-1].start)
    classes = np.empty(len(x), dtype=np.intp)
    for rows in blocks:
        logits = model.forward(x[rows], work)
        if finite and not np.isfinite(logits).all():
            raise InvalidLogit("logits must be finite")
        _own_argmax(space, logits, classes[rows])
    return classes


def _own_argmax(space: ModelSpace, logits: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Argmax over the model's own output classes (ties go to the lowest
    index); sets the dataset head to -inf in place, to copy no columns."""
    logits[:, len(space.outputs):] = -np.inf
    return np.argmax(logits, axis=1, out=out)


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
    freqs = (np.bincount(pred, minlength=space.n_universal) / len(pred)).tolist()
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
    through the model by _own_classes, one row block at a time, so a
    1000 x 1000 grid holds no (10**6, K) logits; argmax ties go to the
    lowest index.  Raises InvalidLogit when a logit is not finite.
    """
    xs = np.linspace(xmin, xmax, nx)
    ys = np.linspace(ymin, ymax, ny)
    grid = np.empty((ny, nx, 2))
    grid[:, :, 0] = xs
    grid[:, :, 1] = ys[:, None]
    classes = _own_classes(space, model, grid, finite=True).reshape(ny, nx)
    return xs, ys, classes, space.class_names()


def surface_csv(xs, ys, classes, class_names, out) -> None:
    """Write the surface to the text stream ``out`` as CSV lines
    ``x,y,class`` in row-major order (y outer, x inner), each coordinate as
    its shortest round-trip repr.

    The lines are made one run at a time, a run being a stretch of equal
    classes within one grid row: every line of a run ends in the same
    ``,y,class``, so the run is one join of its x texts.  The run starts
    are found one band of whole grid rows at a time, at most SURFACE_BAND
    cells unless one row holds more, and each grid row goes to ``out`` as
    soon as its runs are made, so no more than one band's starts and one
    row's text are held.  A trained model's surface has few runs (2-4% of
    the cells at 200 x 200); a grid whose every cell starts a run takes 2-3
    times as long as a line per cell.
    """
    x_text = [repr(x) for x in xs.tolist()]
    y_text = [repr(y) for y in ys.tolist()]
    ny, nx = classes.shape
    rows = max(1, SURFACE_BAND // max(nx, 1))
    out.write("x,y,class\n")
    parts = []
    for top in range(0, ny, rows):
        band = classes[top:top + rows]
        # a run starts at each row's first cell and wherever the class changes
        starts = np.ones(band.shape, dtype=bool)
        np.not_equal(band[:, 1:], band[:, :-1], out=starts[:, 1:])
        starts = np.flatnonzero(starts)
        for start, stop, c in zip(starts.tolist(), [*starts[1:].tolist(), band.size],
                                  band.reshape(-1)[starts].tolist()):
            row, i = divmod(start, nx)
            if not i:  # a new grid row: the one before it is whole
                out.write("".join(parts))
                parts.clear()
            tail = f",{y_text[top + row]},{class_names[c]}\n"
            parts += (tail.join(x_text[i:i + stop - start]), tail)
    out.write("".join(parts))


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
    model = MlpModel.from_dict(require_field(data, "model", dict))
    space = ModelSpace.from_dict(require_field(data, "space", dict))
    if space.k != model.sizes[-1]:
        field = "space.entries" if space.entries else "space.universal_atoms"
        raise ValidationError(f"field 'model.sizes' ends in {model.sizes[-1]} outputs, but the "
                              f"{space.mode} space of field {field!r} has {space.k}")
    trace = data.get("loss_trace", [])
    if not isinstance(trace, list):
        raise ValidationError("field 'loss_trace' is not list")
    return TrainResult(model, space, trace)
