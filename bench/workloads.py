"""The four workloads.

Each workload has a ``setup(seed, workdir)`` that builds its inputs from the
seed, a ``run_pass(state, rec)`` that performs one fixed list of operations
through ``rec.op`` and checks every output, and a ``summary(state, rec)``
that turns the recorded samples into metrics.  A run repeats the same pass,
so every output can also be checked against the first pass byte for byte.

Why these four (see README.md for the numbers behind them):

- train-large: full-batch training on the two-split problem, 3120 rows for
  1560 distinct points.  The MLP GEMMs dominate an epoch, so row
  deduplication and GEMM changes show here.
- train-small: the intersection, collapse and cross-eval problems, 640 to
  1280 rows.  The objective, Adam and the Python loop are a large share of
  an epoch, so trimming non-GEMM work shows here and barely on train-large.
- inference: forward passes without backward over large batches, the four
  label-space projection paths, decision surfaces and evaluation through
  the CLI.  A training-side change to forward that costs inference shows
  here.
- label-space: pure Python, no training.  Taxonomy build, trainability
  filter, mapping matrices, JSON round trip, the resolution fixpoint,
  declaration programs, pseudo-labels and the build/filter/export-matrix
  CLI.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from unitax import cli, problems, pseudolabel, resolve, taxonomy, toyproblem, training
from unitax.taxonomy import Relation

import inputs
from harness import digest

MODES = training.MODES
UNIVERSAL_MODES = ("universal-nll-plus", "universal-nll-max", "oracle")
# Held-out points per concept for test accuracy; the problems' own test
# splits (40 to 50 points per concept) leave the accuracy of one model
# varying by several percent from seed to seed.
HELD_OUT = 2000


# ---------------------------------------------------------------------------
# training


class Train:
    """Trains every problem in every mode, one model per operation.

    Epoch counts are one tenth of the acceptance criteria's (600 on
    two-split, 2000/800/400 on intersection/collapse/cross-eval): a sweep of
    all six modes at the full counts takes 40-50 s on one core, longer than
    one run may take, and a run needs several passes.  The cost of an epoch does not depend on the epoch
    count, so the per-epoch figures are those of the full runs.
    """

    SETUP_REPEATS = 5
    REFERENCE = "numpy"

    def __init__(self, problem_epochs):
        self.problem_epochs = problem_epochs

    def setup(self, seed, workdir):
        state = []
        for factory, epochs in self.problem_epochs:
            spec, tax, maps = toyproblem.problem_from_dict(factory(seed))
            data = toyproblem.generate_toy(spec, maps)
            test = inputs.held_out(inputs.seeded(seed, factory.__name__), spec, HELD_OUT)
            state.append((spec, tax, maps, data, test, epochs, seed))
        return state

    def run_pass(self, state, rec):
        accuracies = []
        for p, (spec, tax, maps, data, (points, truth), epochs, seed) in enumerate(state):
            n_universal = len(tax.classes)
            for mode in MODES:
                config = training.TrainConfig(mode, epochs=epochs, seed=seed)
                result = rec.op("train", training.train, config, spec, tax, maps, data,
                                units=epochs)
                losses = result.loss_trace
                rec.check(len(losses) == epochs and all(math.isfinite(v) for v in losses),
                          f"{mode}: non-finite or missing losses")
                rec.check(losses[-1] < losses[0], f"{mode}: final loss not below the first")
                rec.same_as_first(("train", p, mode),
                                  digest(np.asarray(losses), *result.model.parameters()))
                pred = rec.op("predict", training.predict_universal, result.space,
                              result.model, points)
                low = 0 if mode in UNIVERSAL_MODES else -1
                rec.check(len(pred) == len(points)
                          and bool(np.all((pred >= low) & (pred < n_universal))),
                          f"{mode}: prediction out of range")
                accuracies.append(float(np.mean(pred == truth)))
        rec.values.setdefault("test_acc_mean", sum(accuracies) / len(accuracies))

    def summary(self, state, rec):
        p50, tail, pct, n = rec.latency("train", per_unit=True)
        rate = rec.rate("train")
        e2e = {
            "items_per_s": rate,
            "op_ms_p50": p50 * 1e3,
            "op_ms_tail": tail * 1e3,
            "test_acc_mean": rec.values["test_acc_mean"],
        }
        detail = {
            "train_epochs_per_s": (rate, "1/s"),
            "epoch_ms_p50": (p50 * 1e3, "ms"),
            f"epoch_ms_p{pct:g}": (tail * 1e3, "ms"),
            "test_acc_mean": (rec.values["test_acc_mean"], "frac"),
        }
        return e2e, detail, {"op": "one epoch of a training call", "item": "epoch",
                             "tail_percentile": pct, "latency_samples": n}


TRAIN_LARGE = Train([(problems.two_split_problem, 60)])
TRAIN_SMALL = Train([(problems.intersection_problem, 200),
                     (problems.collapse_problem, 80),
                     (problems.cross_eval_problem, 40)])


# ---------------------------------------------------------------------------
# inference


class Inference:
    """Scoring calls on fixed-size batches, decision surfaces and eval."""

    SETUP_REPEATS = 3
    REFERENCE = "mixed"  # numpy scoring calls, pure-Python surfaces and eval
    MODES = ("universal-nll-plus", "naive-concat", "per-dataset-heads")
    EPOCHS = 60  # the models only need to exist; set-up cost stays small
    BATCHES = 24
    BATCH = 512
    GRID = "--grid=-3,3,-3,3,200,200"

    def setup(self, seed, workdir):
        problem = problems.two_split_problem(seed)
        spec, tax, maps = toyproblem.problem_from_dict(problem)
        data = toyproblem.generate_toy(spec, maps)
        test = inputs.held_out(inputs.seeded(seed, "two_split_problem"), spec, HELD_OUT)
        spec_path = os.path.join(workdir, "problem.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(problem, fh)
        models = []
        accuracies = []
        for mode in self.MODES:
            config = training.TrainConfig(mode, epochs=self.EPOCHS, seed=seed)
            result = training.train(config, spec, tax, maps, data)
            path = os.path.join(workdir, f"{mode}.json")
            training.save_model(path, result)
            models.append((mode, result, path))
            accuracies.append(training.universal_accuracy(result.space, result.model, *test))
        rng = inputs.seeded(seed, "points")
        batches = [np.asarray(b, dtype=np.float64)
                   for b in inputs.point_batches(rng, self.BATCHES, self.BATCH)]
        return {"spec": spec, "maps": maps, "n_universal": len(tax.classes),
                "spec_path": spec_path, "models": models, "batches": batches,
                "workdir": workdir, "test_acc_mean": sum(accuracies) / len(accuracies)}

    def run_pass(self, state, rec):
        maps, col = state["maps"], state["spec"].collection
        n_universal = state["n_universal"]
        datasets = [ds.name for ds in col.datasets]
        for m, (mode, result, path) in enumerate(state["models"]):
            space, model = result.space, result.model
            for b, x in enumerate(state["batches"]):
                n = len(x)
                logits = rec.op("score", training.forward_logits, model, x, units=n)
                rec.check(logits.shape == (n, space.k) and bool(np.all(np.isfinite(logits))),
                          f"{mode}: forward_logits shape or values")
                scores = rec.op("score", training.universal_scores, space, model, x, units=n)
                rec.check(bool(np.all(scores >= 0)) and scores.shape == (n, n_universal),
                          f"{mode}: universal_scores shape or sign")
                ds = datasets[b % 2]
                names, plain = rec.op("score", training.dataset_scores, space, model, x, ds,
                                      maps, col, units=n)
                rec.check(bool(np.all(plain >= 0)) and plain.shape == (n, len(names)),
                          f"{mode}: dataset_scores shape or sign")
                if mode in UNIVERSAL_MODES:
                    rec.check(bool(np.all(np.abs(plain.sum(axis=1) - 1.0) < 1e-9)),
                              f"{mode}: dataset_scores with void do not sum to 1")
                other = datasets[(b + 1) % 2]
                names2, post = rec.op("score", training.dataset_scores, space, model, x,
                                      other, maps, col, post_inference=True, units=n)
                rec.check(bool(np.all(np.isfinite(post) & (post >= 0))),
                          f"{mode}: post-inference scores not finite and non-negative")
                pred = rec.op("score", training.predict_universal, space, model, x, units=n)
                low = 0 if mode in UNIVERSAL_MODES else -1
                rec.check(bool(np.all((pred >= low) & (pred < n_universal))),
                          f"{mode}: prediction out of range")
                rec.same_as_first(("score", m, b), digest(logits, scores, plain, post, pred))
        workdir = state["workdir"]
        for m, (mode, result, path) in enumerate(state["models"]):
            out = os.path.join(workdir, f"surface-{m}.csv")
            code = rec.op("surface", cli.run, ["surface", "--model", path, self.GRID,
                                               "--out", out])
            rec.check(code == 0, f"surface {mode}: exit code {code}")
            with open(out, "rb") as fh:
                text = fh.read()
            rec.check(text.count(b"\n") == 200 * 200 + 1, f"surface {mode}: line count")
            rec.same_as_first(("surface", m), digest(text))
        for m, (mode, result, path) in enumerate(state["models"]):
            for ds in datasets:
                for post in ((False, True) if result.space.entries else (False,)):
                    out = os.path.join(workdir, f"eval-{m}-{ds}-{int(post)}.json")
                    argv = ["eval", "--model", path, "--spec", state["spec_path"],
                            "--dataset", ds, "--out", out]
                    code = rec.op("eval", cli.run, argv + (["--post-inference"] if post else []))
                    rec.check(code == 0, f"eval {mode} {ds}: exit code {code}")
                    with open(out, "rb") as fh:
                        text = fh.read()
                    report = json.loads(text)
                    rec.check(report["samples"] > 0 and 0.0 <= report["miou"] <= 1.0,
                              f"eval {mode} {ds}: report out of range")
                    rec.same_as_first(("eval", m, ds, post), digest(text))

    def summary(self, state, rec):
        p50, tail, pct, n = rec.latency("score")
        rate = rec.rate("score")
        e2e = {
            "items_per_s": rate,
            "op_ms_p50": p50 * 1e3,
            "op_ms_tail": tail * 1e3,
            "test_acc_mean": state["test_acc_mean"],
        }
        detail = {
            "infer_points_per_s": (rate, "1/s"),
            "score_ms_p50": (p50 * 1e3, "ms"),
            f"score_ms_p{pct:g}": (tail * 1e3, "ms"),
            "surface_ms_p50": (rec.latency("surface")[0] * 1e3, "ms"),
            "eval_ms_p50": (rec.latency("eval")[0] * 1e3, "ms"),
            "test_acc_mean": (state["test_acc_mean"], "frac"),
        }
        return e2e, detail, {"op": f"one scoring call on {self.BATCH} points", "item": "point",
                             "tail_percentile": pct, "latency_samples": n}


# ---------------------------------------------------------------------------
# label space


def brute_force_dominators(tax):
    out = {}
    for u in tax.classes:
        doms = [v for v in tax.classes if v.id != u.id and u.signature <= v.signature]
        if doms:
            out[u.id] = max(doms, key=lambda v: (len(v.signature), -v.id)).id
    return out


def collection_pipeline(col):
    """build -> filter -> mapping matrices -> JSON round trip -> fixpoint."""
    tax, maps = taxonomy.build_universal_from_atoms(col)
    ftax, fmaps, report = taxonomy.filter_untrainable(tax, maps)
    matrices = [taxonomy.mapping_matrix(ds.name, col, ftax, fmaps, include_void=True)
                for ds in col.datasets]
    text = json.dumps(taxonomy.taxonomy_to_dict(col, ftax, fmaps), sort_keys=True)
    back = taxonomy.taxonomy_from_dict(json.loads(text))
    fixpoint, _ = resolve.resolve_fixpoint(col)
    return tax, maps, ftax, fmaps, report, matrices, text, back, fixpoint


def declarations(text):
    return resolve.build_universal_from_declarations(resolve.parse_declarations(text))


def relabel(lines, col, tax, maps):
    return list(pseudolabel.relabel_stream(lines, col, tax, maps))


_EXPECTED = {"equiv": Relation.EQUAL, "subset": Relation.SUBSET, "overlap": Relation.OVERLAP}


class LabelSpace:
    """Collections through the label-space pipeline, declaration programs,
    pseudo-labels and the taxonomy CLI."""

    SETUP_REPEATS = 3
    REFERENCE = "python"
    SMALL = 250
    LARGE = 2
    RECORDS = 30_000
    CHUNK = 5_000

    def setup(self, seed, workdir):
        rng = inputs.seeded(seed, "collections")
        dicts = inputs.small_collections(rng, self.SMALL)
        dicts += [inputs.large_collection(rng) for _ in range(self.LARGE)]
        collections = [taxonomy.collection_from_dict(d) for d in dicts]
        program = inputs.declaration_program(inputs.seeded(seed, "declarations"))
        two_split = problems.two_split_problem(0)
        col = taxonomy.collection_from_dict(two_split)
        tax, maps = taxonomy.build_universal_from_atoms(col)
        lines, gts, truths = inputs.pseudo_records(inputs.seeded(seed, "records"), col,
                                                   maps, self.RECORDS)
        fixtures = {
            "two-split": {"atoms": two_split["atoms"], "datasets": two_split["datasets"]},
            "city": problems.relabeled_city_collection(),
            "vehicles": problems.vehicle_mini_collection(),
            "small": max(dicts[: self.SMALL], key=lambda d: len(d["atoms"])),
            "large": dicts[-1],
        }
        paths = {}
        for name, data in fixtures.items():
            paths[name] = os.path.join(workdir, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(data, fh)
        decl_path = os.path.join(workdir, "program.decl")
        with open(decl_path, "w", encoding="utf-8") as fh:
            fh.write(program)
        return {"collections": collections, "program": program, "pseudo": (col, tax, maps),
                "lines": lines, "gts": gts, "truths": truths, "fixtures": paths,
                "first_dataset": {name: data["datasets"][0]["name"]
                                  for name, data in fixtures.items()},
                "decl_path": decl_path, "workdir": workdir}

    def run_pass(self, state, rec):
        for i, col in enumerate(state["collections"]):
            (tax, maps, ftax, fmaps, report, matrices, text, back,
             fixpoint) = rec.op("collection", collection_pipeline, col)
            rec.check(back == (col, ftax, fmaps), f"collection {i}: JSON round trip differs")
            brute = brute_force_dominators(tax)
            rec.check(dict(report) == brute and ftax.dominators == brute,
                      f"collection {i}: filter differs from brute force")
            rec.check(sorted((wc.atoms for wc in fixpoint.classes), key=sorted) ==
                      sorted((u.atoms for u in tax.classes), key=sorted),
                      f"collection {i}: signature build differs from the fixpoint")
            by_uid = {wc.uid: wc.atoms for wc in fixpoint.classes}
            rec.check(all({by_uid[u] for u in uids} ==
                          {tax.classes[u].atoms for u in maps.mapped(*key)}
                          for key, uids in fixpoint.mappings.items()),
                      f"collection {i}: fixpoint mappings differ from the signature build")
            rec.check(all(sum(row) == len(fmaps.mapped(ds.name, name))
                          for ds, (names, _, rows) in zip(col.datasets, matrices)
                          for name, row in zip(names, rows) if name != "__void__"),
                      f"collection {i}: mapping matrix disagrees with the mappings")
            rec.same_as_first(("collection", i), digest(text))

        dcol, dtax, dmaps = rec.op("declarations", declarations, state["program"])
        lookup = {(ds.name, c.name): c.atoms for ds in dcol.datasets for c in ds.classes}
        program = resolve.parse_declarations(state["program"])
        rec.check(all(taxonomy.classify_relation(lookup[s.first], lookup[s.second])
                      is _EXPECTED[s.kind] for s in program.statements),
                  "declarations: a declared relation does not hold")
        rec.same_as_first("declarations", digest(json.dumps(
            taxonomy.taxonomy_to_dict(dcol, dtax, dmaps), sort_keys=True)))

        col, tax, maps = state["pseudo"]
        lines, gts, truths = state["lines"], state["gts"], state["truths"]
        hits = 0
        for start in range(0, len(lines), self.CHUNK):
            chunk = lines[start:start + self.CHUNK]
            out = rec.op("pseudo", relabel, chunk, col, tax, maps, units=len(chunk))
            ok = len(out) == len(chunk)
            for record, gt, truth in zip(out, gts[start:start + self.CHUNK],
                                         truths[start:start + self.CHUNK]):
                ok = ok and record["pseudo_label"] in maps.mapped(*gt)
                hits += record["pseudo_label"] == truth
            rec.check(ok, f"pseudo-labels {start}: a label outside the mapped set")
            rec.same_as_first(("pseudo", start), digest(json.dumps(out, sort_keys=True)))
        rec.values.setdefault("test_acc_mean", hits / len(lines))

        workdir = state["workdir"]
        for name, path in state["fixtures"].items():
            runs = [
                ("cli_build", ["build", "--atoms", path]),
                ("cli_filter", ["filter", "--atoms", path]),
                ("cli_export", ["export-matrix", "--atoms", path, "--dataset",
                                state["first_dataset"][name], "--include-void"]),
            ]
            for kind, argv in runs:
                out = os.path.join(workdir, f"{kind}-{name}.out")
                code = rec.op(kind, cli.run, argv + ["--out", out])
                rec.check(code == 0, f"{' '.join(argv[:1])} {name}: exit code {code}")
                with open(out, "rb") as fh:
                    rec.same_as_first((kind, name), digest(fh.read()))
        out = os.path.join(workdir, "cli_build-decls.out")
        code = rec.op("cli_build", cli.run, ["build", "--decls", state["decl_path"],
                                             "--out", out])
        rec.check(code == 0, f"build --decls: exit code {code}")

    def summary(self, state, rec):
        p50, tail, pct, n = rec.latency("collection")
        rate = rec.rate("pseudo")
        e2e = {
            "items_per_s": rate,
            "op_ms_p50": p50 * 1e3,
            "op_ms_tail": tail * 1e3,
            "test_acc_mean": rec.values["test_acc_mean"],
        }
        detail = {
            "collection_ms_p50": (p50 * 1e3, "ms"),
            f"collection_ms_p{pct:g}": (tail * 1e3, "ms"),
            "pseudo_records_per_s": (rate, "1/s"),
            "cli_build_ms_p50": (rec.latency("cli_build")[0] * 1e3, "ms"),
            "pseudo_label_acc": (rec.values["test_acc_mean"], "frac"),
        }
        return e2e, detail, {"op": "one collection through the label-space pipeline",
                             "item": "pseudo-label record", "tail_percentile": pct,
                             "latency_samples": n}


WORKLOADS = {
    "train-large": TRAIN_LARGE,
    "train-small": TRAIN_SMALL,
    "inference": Inference(),
    "label-space": LabelSpace(),
}
