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


def _softmax(z):
    s = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(s)
    return e / np.sum(e, axis=-1, keepdims=True)


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
    the logits of ``x`` gathers them per row, evaluates the mode's loss on
    the rows (still averaged over all labelled rows) and sums each row's
    gradient back onto its point, so the MLP forwards and backwards every
    point once whatever the number of datasets that label it.
    """

    def __init__(self, mode, col, tax, maps, space, data: ToyData):
        self.mode = mode
        self.space = space
        rows, row_of, ds_names, labels, universals = _stack_training_data(data)
        self.row_of = row_of
        # Scatter groups by occurrence rank: the rank-r rows are the r-th
        # copies of their points, so the destinations within a group are
        # distinct.  Rank 0 holds one row per point, in point order.
        copies = []
        rank = []
        for j in row_of.tolist():
            if j == len(copies):
                copies.append(0)
            rank.append(copies[j])
            copies[j] += 1
        rank = np.asarray(rank, dtype=np.int64)
        self.first_rows = np.flatnonzero(rank == 0)
        self.x = rows[self.first_rows]
        self.repeat_groups = []
        for r in range(1, max(copies, default=1)):
            sel = np.flatnonzero(rank == r)
            self.repeat_groups.append((row_of[sel], sel))
        n, k = len(row_of), space.k
        if mode in ("universal-nll-plus", "universal-nll-max", "oracle"):
            mask = np.zeros((n, k), dtype=np.float64)
            if mode == "oracle":
                mask[np.arange(n), universals] = 1.0
            else:
                for i, (ds, cls) in enumerate(zip(ds_names, labels)):
                    mask[i, list(maps.mapped(ds, cls))] = 1.0
            self.mask = mask
        elif mode in ("naive-concat", "partial-merge"):
            index = {}
            for idx, entry in enumerate(space.entries):
                if "members" in entry:
                    for member in entry["members"]:
                        index[member] = idx
                else:
                    index[entry["name"]] = idx
            targets = [index[f"{ds}.{cls}"] for ds, cls in zip(ds_names, labels)]
            self.targets = np.asarray(targets, dtype=np.int64)
        elif mode == "per-dataset-heads":
            self.slices = {}
            offset = 0
            for ds in space.datasets:
                size = sum(1 for e in space.entries if e["dataset"] == ds)
                self.slices[ds] = (offset, offset + size)
                offset += size
            self.ds_offset = offset
            entry_index = {e["name"]: i for i, e in enumerate(space.entries)}
            self.head_targets = np.asarray(
                [entry_index[f"{ds}.{cls}"] - self.slices[ds][0]
                 for ds, cls in zip(ds_names, labels)],
                dtype=np.int64,
            )
            self.ds_targets = np.asarray(
                [space.datasets.index(ds) for ds in ds_names], dtype=np.int64
            )
            # Per dataset: its rows, its head's logit columns, the head
            # targets of those rows and their positions.
            self.heads = []
            for ds in space.datasets:
                sel = np.flatnonzero([s == ds for s in ds_names])
                lo, hi = self.slices[ds]
                t = self.head_targets[sel]
                self.heads.append((sel, lo, hi, t, np.arange(len(t))))
        else:
            raise ValidationError(f"unknown mode {mode!r}")

    def __call__(self, logits: np.ndarray):
        """Loss and gradient for the logits of the distinct points ``x``."""
        loss, grad_rows = self.row_loss(logits[self.row_of])
        grad = grad_rows[self.first_rows]
        for dest, rows in self.repeat_groups:
            grad[dest] += grad_rows[rows]
        return loss, grad

    def row_loss(self, logits: np.ndarray):
        """Mean loss and its gradient for the logits of the labelled rows."""
        n = logits.shape[0]
        if self.mode in ("universal-nll-plus", "universal-nll-max", "oracle"):
            m = np.max(logits, axis=1, keepdims=True)
            lse_all = m[:, 0] + np.log(np.sum(np.exp(logits - m), axis=1))
            masked = np.where(self.mask > 0, logits, -np.inf)
            rows = np.arange(n)
            if self.mode == "universal-nll-max":
                # Credit only the most likely mapped class instead of the
                # whole mapped set (ties at the max go to the lowest id).
                top = np.argmax(masked, axis=1)
                loss = float(np.mean(lse_all - logits[rows, top]))
                grad = _softmax(logits)
                grad[rows, top] -= 1.0
                return loss, grad / n
            mm = np.max(masked, axis=1, keepdims=True)
            lse_in = mm[:, 0] + np.log(np.sum(np.exp(masked - mm), axis=1))
            loss = float(np.mean(lse_all - lse_in))
            p = _softmax(logits)
            p_in = p * self.mask
            grad = p - p_in / np.sum(p_in, axis=1, keepdims=True)
            return loss, grad / n
        if self.mode in ("naive-concat", "partial-merge"):
            p = _softmax(logits)
            rows = np.arange(n)
            loss = float(np.mean(-np.log(np.maximum(p[rows, self.targets], 1e-300))))
            grad = p.copy()
            grad[rows, self.targets] -= 1.0
            return loss, grad / n
        if self.mode == "per-dataset-heads":
            grad = np.zeros_like(logits)
            rows = np.arange(n)
            ds_logits = logits[:, self.ds_offset:]
            p_ds = _softmax(ds_logits)
            loss = -np.log(np.maximum(p_ds[rows, self.ds_targets], 1e-300))
            grad_ds = p_ds.copy()
            grad_ds[rows, self.ds_targets] -= 1.0
            grad[:, self.ds_offset:] = grad_ds
            for sel, lo, hi, t, pos in self.heads:
                p_cls = _softmax(logits[sel, lo:hi])
                loss[sel] += -np.log(np.maximum(p_cls[pos, t], 1e-300))
                g = p_cls
                g[pos, t] -= 1.0
                grad[sel, lo:hi] = g
        return float(np.mean(loss)), grad / n


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
    trace = []
    for _ in range(config.epochs):
        cache = []
        logits = model.forward(objective.x, cache)
        loss, grad_logits = objective(logits)
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
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return TrainResult(
        MlpModel.from_dict(data["model"]),
        ModelSpace.from_dict(data["space"]),
        list(data.get("loss_trace", [])),
    )
