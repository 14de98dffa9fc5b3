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
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import TrainingDiverged, ValidationError
from .mlp import Adam, MlpModel
from .rng import SplitMix64
from .taxonomy import Collection, MappingSet, UniversalTaxonomy
from .toyproblem import ToyData, ToyProblemSpec, generate_toy

MODES = (
    "universal-nll-plus",
    "universal-nll-max",
    "naive-concat",
    "partial-merge",
    "per-dataset-heads",
    "oracle",
)

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
        if self.lr <= 0:
            raise ValidationError("learning rate must be positive")


@dataclass
class ModelSpace:
    """Interpretation of the model's output vector."""

    mode: str
    n_universal: int
    universal_atoms: list  # per universal id, sorted list of atom names
    entries: list = field(default_factory=list)  # concat/merged class descriptors
    datasets: list = field(default_factory=list)  # dataset names (heads mode)

    @property
    def k(self) -> int:
        if self.mode in ("universal-nll-plus", "universal-nll-max", "oracle"):
            return self.n_universal
        if self.mode == "per-dataset-heads":
            return len(self.entries) + len(self.datasets)
        return len(self.entries)

    def class_names(self) -> list:
        """Display names of the model's own output classes."""
        if self.mode in ("universal-nll-plus", "universal-nll-max", "oracle"):
            return ["+".join(atoms) for atoms in self.universal_atoms]
        return [e["name"] for e in self.entries]

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "n_universal": self.n_universal,
            "universal_atoms": self.universal_atoms,
            "entries": self.entries,
            "datasets": self.datasets,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelSpace":
        return cls(
            data["mode"],
            data["n_universal"],
            [list(a) for a in data["universal_atoms"]],
            [dict(e) for e in data["entries"]],
            list(data["datasets"]),
        )


def build_space(mode: str, col: Collection, tax: UniversalTaxonomy,
                maps: MappingSet) -> ModelSpace:
    universal_atoms = [sorted(col.atom_names(u.atoms)) for u in tax.classes]
    space = ModelSpace(mode, len(tax.classes), universal_atoms)
    if mode in ("universal-nll-plus", "universal-nll-max", "oracle"):
        return space
    entries = []
    for ds in col.datasets:
        for cls in ds.classes:
            entries.append(
                {
                    "name": f"{ds.name}.{cls.name}",
                    "dataset": ds.name,
                    "class": cls.name,
                    "atoms": sorted(col.atom_names(cls.atoms)),
                }
            )
    if mode in ("naive-concat", "per-dataset-heads"):
        space.entries = entries
        if mode == "per-dataset-heads":
            space.datasets = [ds.name for ds in col.datasets]
        return space
    if mode == "partial-merge":
        merged = []
        index = {}
        for entry in entries:
            key = tuple(entry["atoms"])
            if key in index:
                merged[index[key]]["members"].append(entry["name"])
            else:
                index[key] = len(merged)
                merged.append(
                    {
                        "name": entry["name"],
                        "atoms": entry["atoms"],
                        "members": [entry["name"]],
                    }
                )
        for m in merged:
            if len(m["members"]) > 1:
                m["name"] = "=".join(m["members"])
        space.entries = merged
        return space
    raise ValidationError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    model: MlpModel
    space: ModelSpace
    loss_trace: list  # per-epoch mean loss


def _softmax(z, axis=-1, out=None, peak=None, total=None):
    """Softmax of ``z`` over its class axis ``axis``.

    Writes the probabilities into ``out``, the maximum over the axis into
    ``peak`` and the sum of exp(z - peak) into ``total`` (both keep the
    axis), allocating whichever is not given.
    """
    peak = np.max(z, axis=axis, keepdims=True, out=peak)
    p = np.subtract(z, peak, out=out)
    np.exp(p, out=p)
    total = np.sum(p, axis=axis, keepdims=True, out=total)
    p /= total
    return p


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


_UNIVERSAL = ("universal-nll-plus", "universal-nll-max", "oracle")


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
    """

    def __init__(self, mode, col, tax, maps, space, data: ToyData):
        self.mode = mode
        self.space = space
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
        cols = np.arange(n)
        if mode in _UNIVERSAL:
            in_set = np.zeros((k, n), dtype=np.float64)
            if mode == "oracle":
                in_set[universals, cols] = 1.0
            else:
                for i, (ds, cls) in enumerate(zip(ds_names, labels)):
                    in_set[list(maps.mapped(ds, cls)), i] = 1.0
            self.in_set = in_set
            self.off_set = np.where(in_set > 0, 0.0, -np.inf)
            self.cols = cols
        elif mode in ("naive-concat", "partial-merge"):
            index = {}
            for idx, entry in enumerate(space.entries):
                if "members" in entry:
                    for member in entry["members"]:
                        index[member] = idx
                else:
                    index[entry["name"]] = idx
            targets = [index[f"{ds}.{cls}"] for ds, cls in zip(ds_names, labels)]
            # (classes, rows) blocks that each get a softmax, and the
            # (class, row) positions of the labels.
            self.blocks = [(slice(None), slice(None))]
            self.targets = [(np.asarray(targets, dtype=np.int64), cols)]
        elif mode == "per-dataset-heads":
            # The dataset head over every row, then each dataset's class
            # head over that dataset's rows; rows are stacked dataset by
            # dataset, so those are one range.
            n_entries = len(space.entries)
            ds_of = np.asarray([space.datasets.index(ds) for ds in ds_names],
                               dtype=np.int64)
            self.blocks = [(slice(n_entries, None), slice(None))]
            offset = 0
            for d, ds in enumerate(space.datasets):
                size = sum(1 for e in space.entries if e["dataset"] == ds)
                sel = np.flatnonzero(ds_of == d)
                span = slice(sel[0], sel[-1] + 1) if len(sel) else slice(0, 0)
                self.blocks.append((slice(offset, offset + size), span))
                offset += size
            entry_index = {e["name"]: i for i, e in enumerate(space.entries)}
            entry_of = [entry_index[f"{ds}.{cls}"] for ds, cls in zip(ds_names, labels)]
            self.targets = [(n_entries + ds_of, cols),
                            (np.asarray(entry_of, dtype=np.int64), cols)]
        else:
            raise ValidationError(f"unknown mode {mode!r}")

    def workspace(self):
        """The arrays one call writes, all class-major: the points' and the
        rows' logits, scratch, the rows' gradient with a zero column for
        missing copies, per-row statistics, and the points' gradient."""
        k, n, points = self.k, self.n, len(self.x)
        return SimpleNamespace(
            logits=np.empty((k, points)), z=np.empty((k, n)),
            scratch=np.empty((k, n)), grad_rows=np.zeros((k, n + 1)),
            peak=np.empty((1, n)), peak_in=np.empty((1, n)),
            total=np.empty((1, n)), total_in=np.empty((1, n)),
            grad=np.empty((k, points)), copy=np.empty((k, points)),
        )

    def __call__(self, logits: np.ndarray, work=None):
        """Loss and gradient for the logits of the distinct points ``x``.

        The gradient is a (points, K) view of a class-major buffer of
        ``work``, or of a fresh workspace when none is given.
        """
        if work is None:
            work = self.workspace()
        np.copyto(work.logits, logits.T)
        np.take(work.logits, self.row_of, axis=1, out=work.z, mode="clip")
        loss = float(np.mean(self._rows(work.z, work)))
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
        losses = self._rows(work.z, work)
        return losses, work.grad_rows[:, :self.n].T

    def row_loss(self, logits: np.ndarray):
        """Mean loss and its gradient for the logits of the labelled rows."""
        losses, grad = self.row_losses(logits)
        return float(np.mean(losses)), grad / self.n

    def _rows(self, z, work):
        """Per-row losses for class-major row logits ``z``; the rows'
        gradient goes to ``work.grad_rows``."""
        g = work.grad_rows[:, :self.n]
        if self.mode == "universal-nll-max":
            # Credit only the most likely mapped class instead of the whole
            # mapped set (ties at the max go to the lowest id).
            _softmax(z, 0, g, work.peak, work.total)
            masked = np.add(z, self.off_set, out=work.scratch)
            top = np.argmax(masked, axis=0)
            np.max(masked, axis=0, keepdims=True, out=work.peak_in)
            g[top, self.cols] -= 1.0
            return (work.peak + np.log(work.total) - work.peak_in)[0]
        if self.mode in _UNIVERSAL:
            return self._nll_plus(z, g, work)
        for classes, rows in self.blocks:
            _softmax(z[classes, rows], 0, g[classes, rows],
                     work.peak[:, rows], work.total[:, rows])
        loss = 0.0
        for t in self.targets:
            loss = loss - np.log(np.maximum(g[t], 1e-300))
        for t in self.targets:
            g[t] -= 1.0
        return loss

    def _nll_plus(self, z, g, work):
        """NLL+ rows: logsumexp over all classes minus logsumexp over the
        mapped set, with one exp per entry.

        Each entry is shifted by the maximum of its own group: the masked
        row max on the mapped set, the row max off it.  So exp never sees
        -inf, and the mapped set's sum is at least 1 even when all its
        logits lie far below another class.
        """
        peak = np.max(z, axis=0, keepdims=True, out=work.peak)
        t = np.add(z, self.off_set, out=work.scratch)
        peak_in = np.max(t, axis=0, keepdims=True, out=work.peak_in)
        gap = peak_in - peak  # <= 0
        np.multiply(self.in_set, gap, out=t)
        np.subtract(z, t, out=t)
        t -= peak
        np.exp(t, out=t)
        total = np.sum(t, axis=0, keepdims=True, out=work.total)
        np.multiply(t, self.in_set, out=g)
        total_in = np.sum(g, axis=0, keepdims=True, out=work.total_in)
        # exp(gap) - 1 moves the mapped set's share of the sum onto the row
        # max, which makes total the softmax denominator.
        below = np.expm1(gap)
        total += total_in * below
        # softmax minus the mapped set's renormalised posterior
        g *= below / total - 1.0 / total_in
        t /= total
        g += t
        return (np.log(total / total_in) - gap)[0]


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


def _thread_count() -> int:
    try:
        return max(1, int(os.environ.get("UNITAX_THREADS", "1")))
    except ValueError:
        return 1


def forward_logits(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Batch forward pass; optionally chunked over UNITAX_THREADS threads,
    reduced in fixed chunk order so results stay bit-identical."""
    x = np.asarray(x, dtype=np.float64).reshape(-1, 2)
    threads = _thread_count()
    if threads == 1 or x.shape[0] < 2 * threads:
        return model.forward(x)
    chunks = np.array_split(x, threads)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(model.forward, chunks))
    return np.concatenate(parts, axis=0)


def own_posterior(space: ModelSpace, model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Posterior over the model's own output classes (universal classes for
    the universal modes, concat/merged entries otherwise)."""
    logits = forward_logits(model, x)
    if space.mode == "per-dataset-heads":
        n_entries = len(space.entries)
        p_ds = _softmax(logits[:, n_entries:])
        joint = np.zeros((logits.shape[0], n_entries))
        offset = 0
        for d, ds in enumerate(space.datasets):
            size = sum(1 for e in space.entries if e["dataset"] == ds)
            joint[:, offset:offset + size] = (
                _softmax(logits[:, offset:offset + size]) * p_ds[:, d:d + 1]
            )
            offset += size
        return joint
    return _softmax(logits)


def universal_scores(space: ModelSpace, model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Scores over universal classes for any mode.

    Softmax posteriors for the universal modes, and post-inference summation
    of intersecting output classes for the baselines (ties at the argmax go
    to the lowest universal id).
    """
    p = own_posterior(space, model, x)
    if space.mode in ("universal-nll-plus", "universal-nll-max", "oracle"):
        return p
    scores = np.zeros((p.shape[0], space.n_universal))
    for u, atoms in enumerate(space.universal_atoms):
        atom_set = set(atoms)
        for idx, entry in enumerate(space.entries):
            if atom_set & set(entry["atoms"]):
                scores[:, u] += p[:, idx]
    return scores


def _entry_native_class(entry: dict, dataset: str):
    """Name of the entry's class in ``dataset``, or None if foreign."""
    if entry.get("dataset") == dataset:
        return entry["class"]
    for member in entry.get("members", ()):
        ds, _, cls = member.partition(".")
        if ds == dataset:
            return cls
    return None


def dataset_scores(space: ModelSpace, model: MlpModel, x: np.ndarray,
                   dataset: str, maps: MappingSet, col,
                   post_inference: bool = False):
    """Scores over one dataset's classes plus void, for any mode.

    Default scoring assigns each output class to its native evaluation class
    and sends everything foreign to void.  With ``post_inference`` enabled,
    a foreign output class is instead credited to every evaluation class its
    atoms intersect, and reaches void only when it intersects none.

    Returns (names, scores) with names ending in "__void__" and scores of
    shape (len(x), len(names)).
    """
    from .evaluation import VOID

    p = own_posterior(space, model, x)
    if space.mode in ("universal-nll-plus", "universal-nll-max", "oracle"):
        per_class = maps.by_dataset[dataset]
        names = list(per_class)
        weights = np.zeros((space.n_universal, len(names) + 1))
        for j, cls in enumerate(names):
            for u in per_class[cls]:
                weights[u, j] = 1.0
        weights[np.sum(weights, axis=1) == 0, -1] = 1.0
        return names + [VOID], p @ weights
    ds = col.dataset(dataset)
    names = [c.name for c in ds.classes]
    atom_names = {c.name: set(col.atom_names(c.atoms)) for c in ds.classes}
    weights = np.zeros((len(space.entries), len(names) + 1))
    for e, entry in enumerate(space.entries):
        native = _entry_native_class(entry, dataset)
        if native is not None:
            weights[e, names.index(native)] = 1.0
            continue
        if post_inference:
            for j, cls in enumerate(names):
                if atom_names[cls] & set(entry["atoms"]):
                    weights[e, j] = 1.0
        if not np.any(weights[e]):
            weights[e, -1] = 1.0
    return names + [VOID], p @ weights


def predict_universal(space: ModelSpace, model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Native argmax prediction mapped onto universal ids.

    Universal modes predict directly.  Baselines predict in their own output
    space first; an output class resolves to a universal class only when its
    atom set matches one exactly, otherwise the prediction stays unresolved
    (-1), which the accuracy metrics count as wrong.
    """
    logits = forward_logits(model, x)
    if space.mode in ("universal-nll-plus", "universal-nll-max", "oracle"):
        return np.argmax(logits, axis=1)
    if space.mode == "per-dataset-heads":
        logits = logits[:, : len(space.entries)]
    exact = {tuple(sorted(atoms)): u
             for u, atoms in enumerate(space.universal_atoms)}
    lookup = np.asarray(
        [exact.get(tuple(sorted(entry["atoms"])), -1) for entry in space.entries],
        dtype=np.int64,
    )
    return lookup[np.argmax(logits, axis=1)]


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
    logits = forward_logits(model, grid)
    if space.mode == "per-dataset-heads":
        logits = logits[:, : len(space.entries)]
    pred = np.argmax(logits, axis=1)
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
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"{path}: line {exc.lineno}: not valid JSON ({exc.msg})") from None
    try:
        return _result_from_dict(data)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _section(data, key, kind, where=""):
    value = data.get(key) if isinstance(data, dict) else None
    if not isinstance(value, kind):
        raise ValidationError(f"field {where + key!r} is missing or not {kind.__name__}")
    return value


def _result_from_dict(data) -> TrainResult:
    model = _section(data, "model", dict)
    sizes = _section(model, "sizes", list, "model.")
    weights = _section(model, "weights", list, "model.")
    biases = _section(model, "biases", list, "model.")
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
    space_data = _section(data, "space", dict)
    for key, kind in (("mode", str), ("n_universal", int), ("universal_atoms", list),
                      ("entries", list), ("datasets", list)):
        _section(space_data, key, kind, "space.")
    if space_data["mode"] not in MODES:
        raise ValidationError(f"field 'space.mode' must be one of {MODES}")
    try:
        space = ModelSpace.from_dict(space_data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"field 'space' is malformed ({exc})") from None
    if len(space.universal_atoms) != space.n_universal:
        raise ValidationError("field 'space.universal_atoms' must have one entry "
                              "per universal class")
    needed = {"naive-concat": ("dataset", "class"), "per-dataset-heads": ("dataset", "class"),
              "partial-merge": ("members",)}.get(space.mode, ())
    for i, entry in enumerate(space.entries):
        for key in ("name", "atoms") + needed:
            if key not in entry:
                raise ValidationError(f"field 'space.entries[{i}].{key}' is missing")
    if space.k != sizes[-1]:
        raise ValidationError(f"field 'model.sizes' ends in {sizes[-1]} outputs, "
                              f"but the {space.mode} space has {space.k}")
    trace = data.get("loss_trace", [])
    if not isinstance(trace, list):
        raise ValidationError("field 'loss_trace' is not list")
    return TrainResult(MlpModel.from_dict({"sizes": sizes, **params}), space, trace)
