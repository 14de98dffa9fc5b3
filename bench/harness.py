"""Operation timing, output checks, statistics and the environment record."""

from __future__ import annotations

import bisect
import hashlib
import os
import platform
import statistics
import time
from collections import defaultdict

# Ladder the tail percentile is chosen from.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)

# Calibration.  Other tenants of a shared machine slow everything down by
# up to half, in spells that last from seconds to minutes, so raw times
# differ by a third between runs of the same code.  The runner therefore
# times a fixed reference workload between operations and scales every
# operation by (the reference's nominal time) / (its time around the
# operation).  Calibrated times read as wall times on a machine where the
# reference takes its nominal time: about one 2 GHz Xeon vCPU with no one
# else running.  Pure-Python work and numpy work slow down by different
# factors under contention, so each workload is calibrated by the
# reference closer to what it runs.
CALIBRATE_EVERY = 0.25  # seconds between reference samples
CALIBRATION_WINDOW = 1.0  # seconds either side of an operation
_REFERENCE_ARRAYS = []


def reference_python():
    """Seconds taken by a fixed piece of pure-Python work."""
    start = time.perf_counter()
    counts = {}
    for i in range(30000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - start


def reference_numpy():
    """Seconds taken by a fixed small MLP-like numpy computation: GEMMs
    with ReLU and a softmax, much like one training step."""
    import numpy as np

    if not _REFERENCE_ARRAYS:
        rng = np.random.default_rng(0)
        _REFERENCE_ARRAYS.extend([rng.standard_normal((512, 64)),
                                  rng.standard_normal((64, 64)),
                                  rng.standard_normal((64, 16))])
    x, w1, w2 = _REFERENCE_ARRAYS
    start = time.perf_counter()
    for _ in range(6):
        h = np.maximum(x @ w1, 0.0)
        z = h @ w2
        e = np.exp(z - z.max(axis=1, keepdims=True))
        g = (e / e.sum(axis=1, keepdims=True)) @ w2.T
        h.T @ (g * (h > 0))
    return time.perf_counter() - start


def reference_mixed():
    """Both references, for workloads that split their time between the
    two kinds of work."""
    return reference_python() + reference_numpy()


# name -> (reference, nominal seconds)
REFERENCES = {"python": (reference_python, 3.0e-3), "numpy": (reference_numpy, 3.6e-3),
              "mixed": (reference_mixed, 6.6e-3)}


class Recorder:
    """Times the workload's operations and counts failed output checks.

    ``op`` runs one call into the package; while a tracer is attached the
    call becomes a root span named ``bench.<kind>``.  ``check`` marks the
    most recent operation as failed when its output breaks a property.

    Every pass performs the same operations in the same order, so the
    operation at one position of the pass has one sample per untraced pass.
    Samples are calibrated (see CALIBRATE_EVERY), and each position is
    then summarised by its median calibrated sample before anything is
    added up.  (The fastest sample would depend on how many passes a run
    managed, which depends on the machine's speed.)
    """

    def __init__(self, reference):
        self.reference, self.reference_seconds = REFERENCES[reference]
        self.tracer = None
        self.passes = []  # per pass: {"traced": bool, "ops": kind -> [(start, end, units)]}
        self.references = []  # (time, reference seconds), in time order
        self._last_reference = float("-inf")
        self.attempted = 0
        self.failed_ops = set()
        self.failures = []
        self.first_pass = {}  # key -> digest seen on the first pass
        self.values = {}  # per-run results the workload reports, e.g. accuracy

    def calibrate(self, force=False):
        """Time the reference if none ran in the last CALIBRATE_EVERY."""
        now = time.perf_counter()
        if force or now - self._last_reference >= CALIBRATE_EVERY:
            seconds = self.reference()
            self.references.append((now + seconds / 2, seconds))
            self._last_reference = now

    def begin_pass(self, tracer=None):
        self.tracer = tracer
        self.passes.append({"traced": tracer is not None, "ops": defaultdict(list)})
        self.calibrate(force=True)

    def end_pass(self):
        self.calibrate(force=True)

    def op(self, kind, fn, *args, units=1, **kwargs):
        self.calibrate()
        self.attempted += 1
        start = time.perf_counter()
        if self.tracer is not None:
            result = self.tracer.call(f"bench.{kind}", fn, *args, **kwargs)
        else:
            result = fn(*args, **kwargs)
        self.passes[-1]["ops"][kind].append((start, time.perf_counter(), units))
        return result

    def check(self, ok, what):
        if not ok:
            self.fail(what)

    def fail(self, what):
        self.failed_ops.add(self.attempted)
        if len(self.failures) < 20:
            self.failures.append(what)

    def same_as_first(self, key, digest_value):
        """Check that an output repeats byte for byte across passes."""
        first = self.first_pass.setdefault(key, digest_value)
        self.check(first == digest_value, f"{key}: output differs from the first pass")

    @property
    def failed(self):
        return len(self.failed_ops)

    def calibrated(self, start, end):
        """Calibrated seconds of an interval: its length scaled by the
        median reference time within CALIBRATION_WINDOW of it."""
        times = [t for t, _ in self.references]
        lo = bisect.bisect_left(times, start - CALIBRATION_WINDOW)
        hi = bisect.bisect_right(times, end + CALIBRATION_WINDOW)
        near = [s for _, s in self.references[lo:hi]]
        if not near:
            nearest = min(self.references, key=lambda r: abs(r[0] - (start + end) / 2))
            near = [nearest[1]]
        return (end - start) * self.reference_seconds / statistics.median(near)

    def pass_walls(self, traced):
        """Calibrated seconds of each traced or untraced pass."""
        return [sum(self.calibrated(s, e) for ops in p["ops"].values() for s, e, _ in ops)
                for p in self.passes if p["traced"] == traced]

    def typical(self, kind):
        """Per position of ``kind`` in the pass: (median calibrated seconds
        over the untraced passes, units)."""
        runs = [p["ops"].get(kind, ()) for p in self.passes if not p["traced"]]
        return [(statistics.median(self.calibrated(s, e) for s, e, _ in col), col[0][2])
                for col in zip(*runs)]

    def wall(self):
        """Seconds of a typical pass: the sum of every position's median."""
        kinds = {kind for p in self.passes if not p["traced"] for kind in p["ops"]}
        return sum(s for kind in kinds for s, _ in self.typical(kind))

    def rate(self, kind):
        """Units per second of a typical pass's ``kind`` operations."""
        ops = self.typical(kind)
        return sum(u for _, u in ops) / sum(s for s, _ in ops)

    def latency(self, kind, per_unit=False):
        """(p50, tail, tail percentile, positions) over a typical pass's
        ``kind`` operations, in seconds per operation or per unit."""
        values = [s / u if per_unit else s for s, u in self.typical(kind)]
        p50, tail, p = latency_stats(values)
        return p50, tail, p, len(values)


def digest(*parts):
    """sha256 over bytes, strings and numpy arrays."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            part = part.encode()
        elif not isinstance(part, bytes):
            part = part.tobytes()
        h.update(part)
    return h.hexdigest()


def _rank(p, n):
    """1-based nearest rank of percentile ``p`` among ``n`` samples, in
    integer arithmetic so that p90 of 100 samples is rank 90."""
    per_mille = round(p * 10)
    return max(1, -(-per_mille * n // 1000))


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(n):
    """Highest ladder percentile with at least ten of ``n`` samples beyond
    it; 50 when even the median has fewer."""
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= 10:
            return p
    return 50.0


def latency_stats(values):
    """(p50, tail value, tail percentile) of a latency sample."""
    p = tail_percentile(len(values))
    tail = statistics.median(values) if p == 50.0 else percentile(values, p)
    return statistics.median(values), tail, p


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(threads):
    """What the numbers depend on besides the code."""
    import numpy as np

    blas = {}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version"),
                "configuration": info.get("openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        blas = {"name": "unknown"}
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in threads},
    }
