"""unitax benchmark: one workload, one seed, one closed-loop caller.

    python3 bench/run.py --workload train-large --seed 1 --seconds 24 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  The run sets the workload up
several times (``setup_s`` is the median), then repeats the workload's pass
until ``--seconds`` have gone by and at least three passes are done.  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer breakdown instead of the end-to-end metrics.

Every line but the last is for people: the environment, every metric with
its unit, the tail percentiles and their sample counts.  The last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported: the sizes here gain nothing from more
# BLAS threads, and one thread keeps the figures steady.
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "UNITAX_THREADS")
for _var in THREADS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("items_per_s", "1/s"),
              ("op_ms_p50", "ms"), ("op_ms_tail", "ms"), ("peak_rss_mb", "MB"),
              ("test_acc_mean", "frac"))


def import_package():
    """Import unitax from this checkout's ``src/``, or exit with code 1."""
    src = ROOT / "src"
    if not (src / "unitax" / "__init__.py").is_file():
        sys.exit(f"bench: no unitax package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import unitax

    if Path(unitax.__file__).resolve().parent != (src / "unitax").resolve():
        sys.exit(f"bench: imported unitax from {unitax.__file__}, not {src}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed_setup(workload, seed, workdir):
    """Set up several times; return the last state and the median
    calibrated time."""
    from harness import REFERENCES

    reference_of, reference_seconds = REFERENCES[workload.REFERENCE]
    times = []
    for _ in range(workload.SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        before = reference_of()
        start = time.perf_counter()
        state = workload.setup(seed, str(workdir))
        elapsed = time.perf_counter() - start
        reference = statistics.median([before, reference_of(), reference_of()])
        times.append(elapsed * reference_seconds / reference)
    return state, statistics.median(times)


def measure(workload, state, rec, seconds, trace):
    """Closed loop over passes; with ``trace`` every second pass is traced.
    Returns (per-pass span summaries, per-pass counts, all spans, whether
    every pass ran to its end)."""
    from tracing import Tracer, summarize

    summaries, counts, spans = [], [], []
    complete = True
    start = time.perf_counter()
    n = 0
    while n < (2 if trace else MIN_PASSES) or time.perf_counter() - start < seconds:
        tracer = Tracer() if trace and n % 2 == 1 else None
        if tracer is not None:
            tracer.install()
        rec.begin_pass(tracer)
        try:
            workload.run_pass(state, rec)
        except Exception as exc:  # a failing program still gets a result line
            rec.fail(f"pass {n}: {type(exc).__name__}: {exc}")
            complete = False
            break
        finally:
            if tracer is not None:
                tracer.restore()
            rec.end_pass()
        if tracer is not None:
            pass_spans, pass_counts = tracer.take_pass()
            summaries.append(summarize(pass_spans))
            counts.append(pass_counts)
            spans.extend(pass_spans)
        n += 1
    return summaries, counts, spans, complete


def main(argv=None):
    args = parse_args(argv)
    import_package()
    from harness import Recorder, environment, peak_rss_mb
    from tracing import LAYERS, layer_metrics, per_layer_names, write_spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    try:
        state, setup_s = timed_setup(workload, args.seed, workdir)
        rec = Recorder(workload.REFERENCE)
        summaries, counts, spans, complete = measure(workload, state, rec, args.seconds,
                                                     bool(args.trace))
        untraced, traced = rec.pass_walls(False), rec.pass_walls(True)
        ok = rec.failed == 0
        report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "environment": environment(THREADS), "passes": len(untraced) + len(traced),
                  "failures": rec.failures}
        metrics = {}
        if args.trace and complete:
            calls = [{name: row[0] for name, row in summary.items()} for summary in summaries]
            if any(c != counts[0] for c in counts) or any(c != calls[0] for c in calls):
                ok = False
                rec.failures.append("counts differ between traced passes")
            overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
            layers = layer_metrics(summaries, counts, overhead)
            total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
            if abs(total + layers["trace.unattributed_s"] - layers["trace.wall_s"]) > 1e-6:
                ok = False
                rec.failures.append("layer self times do not add up to the traced wall time")
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, unit in per_layer_names()}
            write_spans(outdir / f"{tag}.spans.csv.gz", spans)
        elif complete:
            e2e, detail, about = workload.summary(state, rec)
            e2e.update(setup_s=setup_s, wall_s=rec.wall(), peak_rss_mb=peak_rss_mb())
            metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
            for name in ("setup_s", "wall_s", "peak_rss_mb"):
                detail[name] = (e2e[name], metrics[name]["unit"])
            detail["failed_frac"] = (rec.failed / max(rec.attempted, 1), "frac")
            report["about"] = about
            report["detail"] = {k: {"value": v, "unit": u} for k, (v, u) in detail.items()}
            report["pass_seconds_calibrated"] = untraced
        report["metrics"] = metrics
        with open(outdir / f"{tag}.json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
        for name, item in report.get("detail", metrics).items():
            print(f"{name:48s} {item['value']:>16.6g} {item['unit']}")
        print(json.dumps(report, sort_keys=True))
        print(json.dumps({"correct": ok, "attempted": rec.attempted, "failed": rec.failed,
                          "metrics": metrics}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    main()
