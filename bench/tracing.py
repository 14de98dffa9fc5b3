"""Traced runs: spans around the package's public functions, from outside.

The tracer replaces each traced function at every name its callers look up
(``unitax.training`` imports ``generate_toy`` by name, ``unitax.resolve``
imports ``classify_relation`` by name, the CLI imports the taxonomy
functions by name), and replaces methods on their classes (``MlpModel``,
``Adam``, ``ConfusionAccumulator``, ``ForeignPrediction``).  ``restore()``
puts every original back.  No file of the package changes.

A wrapper records a span only while a benchmark operation is open, so the
spans of one pass form trees whose roots are the benchmark's own
``bench.<op>`` spans.  Spans are kept in memory as
``(id, parent id, name, start, end)`` tuples and written out at the end of
the run.  Functions called millions of times per pass
(``classify_relation``, ``resolve_step``, ``conditional_score``) are counted,
not spanned; their cost stays in the self time of the span that calls them.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import defaultdict

LAYERS = ("mlp", "training", "losses", "evaluation", "taxonomy", "resolve",
          "pseudolabel", "toyproblem", "cli")

MODES = ("universal-nll-plus", "universal-nll-max", "naive-concat",
         "partial-merge", "per-dataset-heads", "oracle")

LOSS_FUNCTIONS = ("logsumexp", "universal_posteriors", "dataset_posterior",
                  "nll_plus", "nll_plus_grad", "aggregate_mask_max",
                  "two_head_joint")

INFERENCE_FUNCTIONS = ("forward_logits", "universal_scores", "dataset_scores",
                       "predict_universal", "decision_surface")

TAXONOMY_FUNCTIONS = ("build_universal_from_atoms", "filter_untrainable",
                      "mapping_matrix", "taxonomy_to_dict", "taxonomy_from_dict")

CLI_COMMANDS = ("build", "filter", "export-matrix", "surface", "eval")


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = [
        ("mlp.forward.s", "s"), ("mlp.backward.s", "s"), ("mlp.adam_step.s", "s"),
        ("mlp.forward.rows", "count"), ("mlp.gemm_flop_computed", "flop"),
        ("mlp.unique_row_frac", "frac"),
    ]
    out += [(f"training.train.self_s.{mode}", "s") for mode in MODES]
    out.append(("training.epochs", "count"))
    out += [(f"training.{fn}.self_s", "s") for fn in INFERENCE_FUNCTIONS]
    out += [("training.surface_csv.s", "s"), ("training.load_model.s", "s"),
            ("training.save_model.s", "s")]
    for fn in LOSS_FUNCTIONS:
        out += [(f"losses.{fn}.s", "s"), (f"losses.{fn}.calls", "count")]
    out += [("evaluation.ConfusionAccumulator.update.calls", "count"),
            ("evaluation.ConfusionAccumulator.update.s", "s"),
            ("evaluation.report.s", "s")]
    out += [(f"taxonomy.{fn}.s", "s") for fn in TAXONOMY_FUNCTIONS]
    out.append(("taxonomy.validate.s", "s"))
    out += [("resolve.resolve_fixpoint.s", "s"),
            ("resolve.resolve_step.calls", "count"),
            ("resolve.classify_relation.calls", "count"),
            ("resolve.useful_compare_frac", "frac"),
            ("resolve.parse_declarations.s", "s"),
            ("resolve.build_universal_from_declarations.s", "s")]
    out += [("pseudolabel.relabel_stream.s", "s"),
            ("pseudolabel.ensemble_pseudo_label.s", "s"),
            ("pseudolabel.validate.s", "s"),
            ("pseudolabel.conditional_score.calls", "count")]
    out += [("toyproblem.generate_toy.s", "s"), ("toyproblem.problem_from_dict.s", "s")]
    out += [(f"cli.{cmd}.self_s", "s") for cmd in CLI_COMMANDS]
    out += [(f"{layer}.self_s", "s") for layer in LAYERS]
    out += [("trace.wall_s", "s"), ("trace.unattributed_s", "s"),
            ("trace.overhead_frac", "frac")]
    return out


class Tracer:
    """Span and count recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []  # (id, parent id or -1, name, start, end)
        self.counts = defaultdict(int)
        self._stack = []
        self._next_id = 0
        self._saved = []  # (owner, attribute, original), in install order
        self._unique_rows = {}  # (buffer address, shape) -> (array, distinct rows)

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack
        sid = self._next_id
        self._next_id += 1
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- wrappers with their own counts ------------------------------------

    def _mlp_forward(self, fn):
        @functools.wraps(fn)
        def forward(model, x, cache=None):
            if not self._stack:
                return fn(model, x, cache)
            rows = len(x)
            self.counts["mlp.forward.rows"] += rows
            self.counts["mlp.forward.unique_rows"] += self._distinct_rows(x)
            self.counts["mlp.gemm_flop_computed"] += sum(
                2 * rows * a * b for a, b in zip(model.sizes, model.sizes[1:]))
            return self.call("mlp.forward", fn, model, x, cache)
        return forward

    def _distinct_rows(self, x):
        # Training forwards the same array every epoch and inference the same
        # batch through fresh views, so count each buffer once.  The cached
        # array keeps its buffer alive, so the key cannot be reused.
        import numpy as np

        x = np.ascontiguousarray(x, dtype=np.float64).reshape(len(x), -1)
        key = (x.__array_interface__["data"][0], x.shape)
        cached = self._unique_rows.get(key)
        if cached is None:
            if len(self._unique_rows) >= 64:
                self._unique_rows.clear()
            rows = x.view(np.dtype((np.void, x.dtype.itemsize * x.shape[1])))
            cached = self._unique_rows[key] = (x, len(np.unique(rows)))
        return cached[1]

    def _mlp_backward(self, fn):
        @functools.wraps(fn)
        def backward(model, cache, grad_logits):
            if not self._stack:
                return fn(model, cache, grad_logits)
            rows = len(grad_logits)
            pairs = list(zip(model.sizes, model.sizes[1:]))
            # weight gradients for every layer, input deltas for all but the first
            flop = sum(2 * rows * a * b for a, b in pairs)
            flop += sum(2 * rows * a * b for a, b in pairs[1:])
            self.counts["mlp.gemm_flop_computed"] += flop
            return self.call("mlp.backward", fn, model, cache, grad_logits)
        return backward

    def _train(self, fn):
        @functools.wraps(fn)
        def train(config, *args, **kwargs):
            if not self._stack:
                return fn(config, *args, **kwargs)
            self.counts["training.epochs"] += config.epochs
            return self.call(f"training.train.{config.mode}", fn, config, *args, **kwargs)
        return train

    def _resolve_step(self, fn):
        @functools.wraps(fn)
        def resolve_step(state):
            result = fn(state)
            if self._stack:
                self.counts["resolve.resolve_step.calls"] += 1
                if result[1] is not None:
                    self.counts["resolve.rule_applications"] += 1
            return result
        return resolve_step

    def _relabel_stream(self, fn):
        # A generator does its work while it is consumed; consume it inside
        # the span and hand the caller an iterator over the results.
        def consume(*args, **kwargs):
            return list(fn(*args, **kwargs))

        @functools.wraps(fn)
        def relabel_stream(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            return iter(self.call("pseudolabel.relabel_stream", consume, *args, **kwargs))
        return relabel_stream

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attribute, wrapper):
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    def _patch_function(self, module, attribute, make_wrapper):
        """Wrap ``module.attribute`` at every package name bound to it."""
        original = getattr(module, attribute)
        wrapper = make_wrapper(original)
        for mod in package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def install(self):
        from unitax import (cli, evaluation, losses, mlp, pseudolabel, resolve,
                            taxonomy, toyproblem, training)

        def timed(name):
            return lambda fn: self.timed(name, fn)

        def counted(name):
            return lambda fn: self.counted(name, fn)

        self._patch(mlp.MlpModel, "forward", self._mlp_forward(mlp.MlpModel.forward))
        self._patch(mlp.MlpModel, "backward", self._mlp_backward(mlp.MlpModel.backward))
        self._patch(mlp.Adam, "step", self.timed("mlp.adam_step", mlp.Adam.step))
        self._patch_function(training, "train", self._train)
        for fn in INFERENCE_FUNCTIONS + ("surface_csv", "load_model", "save_model"):
            self._patch_function(training, fn, timed(f"training.{fn}"))
        for fn in LOSS_FUNCTIONS:
            self._patch_function(losses, fn, timed(f"losses.{fn}"))
        acc = evaluation.ConfusionAccumulator
        self._patch(acc, "update", self.timed("evaluation.ConfusionAccumulator.update",
                                              acc.update))
        self._patch(acc, "report", self.timed("evaluation.report", acc.report))
        for fn in TAXONOMY_FUNCTIONS:
            self._patch_function(taxonomy, fn, timed(f"taxonomy.{fn}"))
        self._patch_function(taxonomy, "validate_collection", timed("taxonomy.validate"))
        self._patch_function(taxonomy, "validate_universal", timed("taxonomy.validate"))
        self._patch_function(resolve, "resolve_fixpoint", timed("resolve.resolve_fixpoint"))
        self._patch_function(resolve, "resolve_step", self._resolve_step)
        self._patch_function(resolve, "classify_relation",
                             counted("resolve.classify_relation.calls"))
        for fn in ("parse_declarations", "build_universal_from_declarations"):
            self._patch_function(resolve, fn, timed(f"resolve.{fn}"))
        self._patch_function(pseudolabel, "relabel_stream", self._relabel_stream)
        self._patch_function(pseudolabel, "ensemble_pseudo_label",
                             timed("pseudolabel.ensemble_pseudo_label"))
        self._patch_function(pseudolabel, "conditional_score",
                             counted("pseudolabel.conditional_score.calls"))
        fp = pseudolabel.ForeignPrediction
        self._patch(fp, "validate", self.timed("pseudolabel.validate", fp.validate))
        for fn in ("generate_toy", "problem_from_dict"):
            self._patch_function(toyproblem, fn, timed(f"toyproblem.{fn}"))
        self._patch_function(cli, "run", timed("cli.run"))
        for attribute in sorted(vars(cli)):
            if attribute.startswith("_cmd_"):
                command = attribute[len("_cmd_"):].replace("_", "-")
                self._patch_function(cli, attribute, timed(f"cli.{command}"))

    def restore(self):
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    # -- output ------------------------------------------------------------

    def take_pass(self):
        """Spans and counts recorded since the last call, then reset."""
        spans, counts = self.spans, dict(self.counts)
        self.spans = []
        self.counts = defaultdict(int)
        return spans, counts


def package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "unitax" or name.startswith("unitax."))]


def self_times(spans):
    """Self time per span id: its duration minus the part of its interval
    that its direct children cover."""
    children = defaultdict(list)
    for sid, parent, name, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = {}
    for sid, parent, name, start, end in spans:
        covered = 0.0
        reach = start
        for s, e in sorted(children.get(sid, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out[sid] = (end - start) - covered
    return out


def summarize(spans):
    """Per span name: [calls, inclusive seconds, self seconds]."""
    own = self_times(spans)
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for sid, parent, name, start, end in spans:
        row = out[name]
        row[0] += 1
        row[1] += end - start
        row[2] += own[sid]
    return dict(out)


def layer_of(name):
    """Package layer a span belongs to, or None for the benchmark's own."""
    head = name.split(".", 1)[0]
    return head if head in LAYERS else None


def layer_metrics(summaries, counts, overhead_frac):
    """Per-layer metrics, as means over traced passes.

    ``summaries`` and ``counts`` hold one entry per traced pass.  Counts,
    span calls included, are the same on every pass of a run; the first
    pass's are reported.  The
    traced wall time is the time inside the benchmark's own root spans.
    """
    n = len(summaries)
    total = defaultdict(lambda: [0.0, 0.0, 0.0])
    for summary in summaries:
        for name, (calls, incl, own) in summary.items():
            row = total[name]
            row[0] += calls / n
            row[1] += incl / n
            row[2] += own / n
    count = defaultdict(int, counts[0])

    def incl(name):
        return total[name][1] if name in total else 0.0

    def own(name):
        return total[name][2] if name in total else 0.0

    def calls(name):
        return summaries[0][name][0] if name in summaries[0] else 0

    m = {
        "mlp.forward.s": incl("mlp.forward"),
        "mlp.backward.s": incl("mlp.backward"),
        "mlp.adam_step.s": incl("mlp.adam_step"),
        "mlp.forward.rows": count["mlp.forward.rows"],
        "mlp.gemm_flop_computed": count["mlp.gemm_flop_computed"],
        "mlp.unique_row_frac": (count["mlp.forward.unique_rows"] / count["mlp.forward.rows"]
                                if count["mlp.forward.rows"] else 0.0),
    }
    for mode in MODES:
        m[f"training.train.self_s.{mode}"] = own(f"training.train.{mode}")
    m["training.epochs"] = count["training.epochs"]
    for fn in INFERENCE_FUNCTIONS:
        m[f"training.{fn}.self_s"] = own(f"training.{fn}")
    for fn in ("surface_csv", "load_model", "save_model"):
        m[f"training.{fn}.s"] = incl(f"training.{fn}")
    for fn in LOSS_FUNCTIONS:
        m[f"losses.{fn}.s"] = incl(f"losses.{fn}")
        m[f"losses.{fn}.calls"] = calls(f"losses.{fn}")
    m["evaluation.ConfusionAccumulator.update.calls"] = calls(
        "evaluation.ConfusionAccumulator.update")
    m["evaluation.ConfusionAccumulator.update.s"] = incl(
        "evaluation.ConfusionAccumulator.update")
    m["evaluation.report.s"] = incl("evaluation.report")
    for fn in TAXONOMY_FUNCTIONS:
        m[f"taxonomy.{fn}.s"] = incl(f"taxonomy.{fn}")
    m["taxonomy.validate.s"] = incl("taxonomy.validate")
    m["resolve.resolve_fixpoint.s"] = incl("resolve.resolve_fixpoint")
    m["resolve.resolve_step.calls"] = count["resolve.resolve_step.calls"]
    m["resolve.classify_relation.calls"] = count["resolve.classify_relation.calls"]
    m["resolve.useful_compare_frac"] = (
        count["resolve.rule_applications"] / count["resolve.classify_relation.calls"]
        if count["resolve.classify_relation.calls"] else 0.0)
    m["resolve.parse_declarations.s"] = incl("resolve.parse_declarations")
    m["resolve.build_universal_from_declarations.s"] = incl(
        "resolve.build_universal_from_declarations")
    m["pseudolabel.relabel_stream.s"] = incl("pseudolabel.relabel_stream")
    m["pseudolabel.ensemble_pseudo_label.s"] = incl("pseudolabel.ensemble_pseudo_label")
    m["pseudolabel.validate.s"] = incl("pseudolabel.validate")
    m["pseudolabel.conditional_score.calls"] = count["pseudolabel.conditional_score.calls"]
    m["toyproblem.generate_toy.s"] = incl("toyproblem.generate_toy")
    m["toyproblem.problem_from_dict.s"] = incl("toyproblem.problem_from_dict")
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.self_s"] = own(f"cli.{cmd}")
    layer_self = defaultdict(float)
    unattributed = 0.0
    for name, (_, _, seconds) in total.items():
        layer = layer_of(name)
        if layer is None:
            unattributed += seconds
        else:
            layer_self[layer] += seconds
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.wall_s"] = sum(incl for name, (_, incl, _) in total.items()
                            if layer_of(name) is None and name.startswith("bench."))
    m["trace.unattributed_s"] = unattributed
    m["trace.overhead_frac"] = overhead_frac
    return m


def write_spans(path, spans):
    """Spans as gzip'd CSV lines: id,parent,name,start,end."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("id,parent,name,start,end\n")
        for sid, parent, name, start, end in spans:
            fh.write(f"{sid},{parent},{name},{start!r},{end!r}\n")
