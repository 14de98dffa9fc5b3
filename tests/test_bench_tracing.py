"""The traced benchmark (``bench/tracing.py``) wraps package functions and
methods by name.  A rename must fail here, not only in ``--trace 1`` runs."""

import importlib.util
import json
import random
from pathlib import Path

import numpy as np

from unitax import problems, resolve, taxonomy, training
from unitax.mlp import MlpModel
from unitax.rng import SplitMix64
from unitax.toyproblem import problem_from_dict

from helpers import random_collection

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_names_that_resolve_and_restores_them():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)  # (owner, attribute, original)
        assert saved
        assert all(vars(owner)[attribute] is not original
                   for owner, attribute, original in saved)
    finally:
        tracer.restore()
    assert all(vars(owner)[attribute] is original for owner, attribute, original in saved)


def test_traced_scores_of_a_heads_model_record_one_softmax_per_block():
    tracing = load_tracing()
    spec, tax, _ = problem_from_dict(problems.two_split_problem(0))
    space = training.build_space("per-dataset-heads", spec.collection, tax)
    model = MlpModel([2, *training.HIDDEN, space.k], SplitMix64(0))
    x = np.random.default_rng(0).uniform(-3.0, 3.0, (512, 2))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.call("bench.score", training.universal_scores, space, model, x)
    finally:
        tracer.restore()
    summary = tracing.summarize(tracer.spans)
    # the dataset head and two class heads; one join per class head
    assert summary["losses.universal_posteriors"][0] == 3
    assert summary["losses.two_head_joint"][0] == 2
    assert summary["training.universal_scores"][0] == 1


def test_a_traced_collection_pipeline_records_every_taxonomy_span():
    tracing = load_tracing()

    def pipeline():
        # through the module globals, as the benchmark calls them
        col = random_collection(random.Random(5), max_datasets=4)
        tax, maps = taxonomy.build_universal_from_atoms(col)
        ftax, fmaps, _ = taxonomy.filter_untrainable(tax, maps)
        for ds in col.datasets:
            taxonomy.mapping_matrix(ds.name, col, ftax, fmaps, include_void=True)
        text = json.dumps(taxonomy.taxonomy_to_dict(col, ftax, fmaps))
        taxonomy.taxonomy_from_dict(json.loads(text))
        resolve.resolve_fixpoint(col)

    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.call("bench.collection", pipeline)
    finally:
        tracer.restore()
    summary = tracing.summarize(tracer.spans)
    names = [f"taxonomy.{fn}" for fn in tracing.TAXONOMY_FUNCTIONS]
    names += ["taxonomy.validate", "resolve.resolve_fixpoint"]
    calls = {name: summary[name][0] if name in summary else 0 for name in names}
    assert min(calls.values()) >= 1, calls
