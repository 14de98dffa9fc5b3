"""Self-test of the benchmark's helpers.

    python3 bench/selftest.py

Covers the tail-percentile choice, the typical pass, self-time arithmetic over nested spans,
the per-layer sums, the wrappers being restored after a traced pass, and
BENCHMARK.json naming exactly the metrics the runner prints.  Exits 1 on
the first failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run  # noqa: E402  (pins the BLAS threads before numpy is imported)

run.import_package()

from harness import REFERENCES, Recorder, latency_stats, percentile, tail_percentile  # noqa: E402
from tracing import (LAYERS, Tracer, layer_metrics, package_modules,  # noqa: E402
                     per_layer_names, self_times, summarize)


def expect(condition, message):
    if not condition:
        raise SystemExit(f"selftest: FAILED: {message}")


def test_tail_percentile():
    expect(tail_percentile(18) == 50.0, "fewer than 20 samples falls back to the median")
    expect(tail_percentile(20) == 50.0, "20 samples leave ten beyond the median")
    expect(tail_percentile(99) == 50.0, "99 samples leave 9.9 beyond p90")
    expect(tail_percentile(100) == 90.0, "100 samples leave ten beyond p90")
    expect(tail_percentile(999) == 90.0, "999 samples leave 9.99 beyond p99")
    expect(tail_percentile(1000) == 99.0, "1000 samples leave ten beyond p99")
    expect(tail_percentile(10000) == 99.9, "10000 samples leave ten beyond p99.9")
    values = list(range(1, 101))
    expect(percentile(values, 90) == 90, "nearest-rank p90 of 1..100")
    expect(percentile(values, 99) == 99, "nearest-rank p99 of 1..100")
    expect(latency_stats([5.0, 1.0, 3.0]) == (3.0, 3.0, 50.0),
           "a small sample reports its median as the tail")
    expect(latency_stats(values) == (50.5, 90, 90.0), "p90 of 100 samples")


def test_typical_pass():
    rec = Recorder("python")
    nominal = REFERENCES["python"][1]
    rec.references = [(float(t), nominal) for t in range(200)]
    for ops in (((0, 1), (10, 20)), ((30, 33), (40, 60)), ((70, 72), (80, 170))):
        rec.passes.append({"traced": False,
                           "ops": {"step": [(s, e, 5) for s, e in ops]}})
    rec.passes.append({"traced": True, "ops": {"step": [(180, 180.5, 5), (181, 182, 5)]}})
    expect(rec.typical("step") == [(2.0, 5), (20.0, 5)], "median untraced repeat per position")
    expect(rec.wall() == 22.0 and rec.rate("step") == 10 / 22.0, "typical pass and rate")
    expect(rec.latency("step", per_unit=True) == (2.2, 2.2, 50.0, 2), "per-unit latency")
    expect(rec.pass_walls(True) == [1.5], "traced pass wall")
    rec.references = [(0.0, 2 * nominal), (1.0, 2 * nominal),
                      (50.0, nominal)]
    expect(rec.calibrated(0.0, 4.0) == 2.0, "a machine at half speed reads half the time")
    expect(rec.calibrated(49.0, 51.0) == 2.0, "calibrated by the references near the interval")


def test_self_times():
    spans = [
        (0, -1, "bench.op", 0.0, 10.0),
        (1, 0, "training.universal_scores", 1.0, 4.0),
        (2, 1, "mlp.forward", 2.0, 3.0),
        (3, 0, "taxonomy.mapping_matrix", 5.0, 9.0),
        (4, -1, "bench.op", 20.0, 30.0),
        (5, 4, "resolve.resolve_fixpoint", 21.0, 25.0),
    ]
    own = self_times(spans)
    expect(own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 6.0, 5: 4.0}, f"self times {own}")
    summary = summarize(spans)
    expect(summary["bench.op"] == [2, 20.0, 9.0], "summary of the roots")
    expect(summary["mlp.forward"] == [1, 1.0, 1.0], "summary of a leaf")
    m = layer_metrics([summary], [{}], 1.0)
    total = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    expect(total + m["trace.unattributed_s"] == m["trace.wall_s"] == 20.0,
           "layer self times plus the remainder equal the traced wall time")
    expect((m["trace.unattributed_s"], m["mlp.self_s"], m["training.self_s"],
            m["resolve.self_s"]) == (9.0, 1.0, 2.0, 4.0), "per-layer self times")
    # children that overlap count once
    overlapping = [(0, -1, "bench.op", 0.0, 10.0), (1, 0, "cli.run", 1.0, 5.0),
                   (2, 0, "cli.run", 3.0, 7.0)]
    expect(self_times(overlapping)[0] == 4.0, "overlapping children cover their union")


def snapshot():
    from unitax import evaluation, mlp, pseudolabel

    state = {}
    for mod in package_modules():
        for key, value in vars(mod).items():
            state[(mod.__name__, key)] = value
    for cls in (mlp.MlpModel, mlp.Adam, evaluation.ConfusionAccumulator,
                pseudolabel.ForeignPrediction):
        for key, value in vars(cls).items():
            state[(cls.__qualname__, key)] = value
    return state


def test_wrappers_restored():
    from unitax import cli, problems, pseudolabel, resolve, taxonomy, toyproblem, training

    before = snapshot()
    originals = (training.train, training.generate_toy, resolve.classify_relation,
                 cli.build_universal_from_atoms, training.MlpModel.forward)
    tracer = Tracer()
    tracer.install()
    try:
        expect(all(a is not b for a, b in zip(originals, (
            training.train, training.generate_toy, resolve.classify_relation,
            cli.build_universal_from_atoms, training.MlpModel.forward))),
            "install wraps the names callers look up")
        col = taxonomy.collection_from_dict(problems.vehicle_mini_collection())

        def work():
            tax, maps = taxonomy.build_universal_from_atoms(col)
            resolve.resolve_fixpoint(col)
            spec, tax2, maps2 = toyproblem.problem_from_dict(problems.collapse_problem(0))
            result = training.train(training.TrainConfig("universal-nll-plus", epochs=2),
                                    spec, tax2, maps2)
            lines = [json.dumps({"gt_dataset": "Vistas", "gt_class": "car",
                                 "foreign": {"VIPER": {"truck": 1.0}}})]
            out = pseudolabel.relabel_stream(lines, col, tax, maps)
            return result, list(out)

        result, out = tracer.call("bench.selftest", work)
        expect(len(out) == 1, "relabel_stream still yields its records")
        names = {name for _, _, name, _, _ in tracer.spans}
        expect({"taxonomy.build_universal_from_atoms", "resolve.resolve_fixpoint",
                "toyproblem.generate_toy", "training.train.universal-nll-plus",
                "mlp.forward", "pseudolabel.relabel_stream",
                "pseudolabel.ensemble_pseudo_label"} <= names, f"spans recorded: {names}")
        expect(tracer.counts["resolve.classify_relation.calls"] > 0, "counted wrappers count")
        expect(tracer.counts["training.epochs"] == 2, "epochs counted")
        spec, tax2, maps2 = toyproblem.problem_from_dict(problems.collapse_problem(0))
        data = toyproblem.generate_toy(spec, maps2)  # outside any span: not traced
        rows = sum(len(samples) for samples in data.train.values())
        expect(tracer.counts["mlp.forward.rows"] == 2 * rows,
               f"two epochs forward {rows} rows each")
    finally:
        tracer.restore()
    after = snapshot()
    changed = sorted(str(k) for k in before if before[k] is not after.get(k))
    expect(not changed, f"wrappers left behind: {changed[:5]}")


def test_benchmark_file():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
           "end-to-end metrics match the runner")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_names(),
           "per-layer metrics match the tracer")
    from workloads import WORKLOADS

    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names")


def main():
    tests = [test_tail_percentile, test_typical_pass, test_self_times, test_wrappers_restored,
             test_benchmark_file]
    for test in tests:
        test()
    print(f"selftest: {len(tests)} tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
