"""One benchmark process: set up one workload, measure it, print JSON.

    python3 perfbench/worker.py --workload NAME --seed N --budget SECONDS
        --trace 0|1 --size full|toy --spawned-at MONOTONIC

``run.py`` starts this in fresh processes, so set-up time and peak RSS
belong to one workload: several that only set up, then one that also
measures.  The BLAS thread count is pinned here, before numpy is first
imported.  The last line of stdout is one JSON object with the raw
samples; ``run.py`` summarises them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import tracing

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_package():
    """Import toydiffusion from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import toydiffusion

    import_s = time.perf_counter() - start
    if not os.path.abspath(toydiffusion.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported toydiffusion from {toydiffusion.__file__}")
    return import_s


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


class Outcome:
    """Attempted and failed units and the checks' extras."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.raised = {}
        self.extras = {}

    def add_extras(self, extras):
        for key, value in extras.items():
            values = value if isinstance(value, list) else [value]
            self.extras.setdefault(key, []).extend(float(v) for v in values)

    def record(self, workload, i):
        """Run unit i and check it; returns (wall time in s, passed)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = workload.run(i)
        except Exception as exc:  # a raising unit is a failed unit
            kind = type(exc).__name__
            self.failed += 1
            self.raised[kind] = self.raised.get(kind, 0) + 1
            self.errors.append(f"unit {i}: {kind}: {exc}")
            return time.perf_counter() - start, False
        elapsed = time.perf_counter() - start
        ok, extras = workload.check(out)
        self.add_extras(extras)
        if not ok:
            self.failed += 1
            self.errors.append(f"unit {i}: check failed: {extras}")
        return elapsed, ok


# Seconds each probe part takes on a two-vCPU Xeon VM under little
# contention (numpy 2.4, scipy-openblas 0.3.31, one BLAS thread).
PROBE_NOMINAL_S = {"small": 0.007, "large": 0.012}


def _probe_small():
    import numpy as np

    a, b, total = np.full((64, 48), 0.5), np.eye(48) * 0.999, 0.0
    for _ in range(400):
        c = np.tanh(a @ b)
        total += float(c.sum())
        a = c * 1.0001 + 0.01


def _probe_large():
    import numpy as np

    big = np.linspace(0.0, 1.0, 320_000)
    for _ in range(10):
        big = np.sqrt(big * big + 1e-3) * 0.999


PROBES = {"small": _probe_small, "large": _probe_large}


def probe(parts):
    """How slowly the shared machine runs at this moment: the wall time of
    fixed numpy work that uses nothing from the package, over its nominal
    time.  "small" is work on arrays of the size train-remedy and
    diagnose-narrow use; "large" streams arrays the size of sample-wide's
    1e4 videos."""
    start = time.perf_counter()
    for part in parts:
        PROBES[part]()
    return (time.perf_counter() - start) / sum(PROBE_NOMINAL_S[p] for p in parts)


def measure(workload, outcome, budget, first):
    """Run whole rounds of units until their timed wall reaches budget (at
    least one round), with a probe between units.  Returns [unit index, wall
    s, probe before, probe after] for each passing unit, and the next index."""
    units, spent, i = [], 0.0, first
    before = probe(workload.probe_parts)
    while i == first or spent < budget or i % workload.group:
        elapsed, ok = outcome.record(workload, i)
        after = probe(workload.probe_parts)
        if ok:
            units.append([i, elapsed, before, after])
        i += 1
        spent += elapsed
        before = after
    return units, i


def spans(tracer):
    """Each span's durations and self times, in microseconds."""
    return {
        name: {
            "total_us": [v / 1e3 for v in tracer.total[name]],
            "self_us": [v / 1e3 for v in tracer.self_ns[name]],
        }
        for name in tracer.total
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds to measure; 0 sets up and exits")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    import_s = _import_package()
    from workloads import SIZES, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, SIZES[args.size])
    workload.warm_up()
    setup_wall_s = time.monotonic() - args.spawned_at
    slowness = statistics.median(probe(workload.probe_parts) for _ in range(3))
    result = {
        "setup_s": setup_wall_s / slowness,
        "setup_wall_s": setup_wall_s,
        "import_s": import_s,
        "setup_layers": workload.setup_layers,
        "env": environment(args.seed),
    }
    if args.budget > 0:
        result.update(measured(workload, args.budget, args.trace))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


def measured(workload, budget, trace):
    """Measure for budget seconds (half untraced, half traced when trace)."""
    outcome = Outcome()
    result = {}
    if trace:
        result["untraced_units"], first = measure(
            workload, outcome, budget / 2, workload.group)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            result["units"], _ = measure(workload, outcome, budget / 2, first)
        finally:
            tracer.uninstall()
        result["spans"], result["counts"] = spans(tracer), tracer.counts
    else:
        result["units"], _ = measure(workload, outcome, budget, workload.group)
    ok, extras = workload.finish()
    outcome.add_extras(extras)
    if not ok:
        outcome.errors.append(f"check over all units failed: {extras}")
        outcome.failed = outcome.attempted
    result.update(
        attempted=outcome.attempted,
        failed=outcome.failed,
        errors=outcome.errors[:10],
        raised=outcome.raised,
        extras=outcome.extras,
        work=workload.work,
        group=workload.group,
        steps_per_run=workload.steps_per_run,
        train_steps=workload.train_steps,
    )
    return result


if __name__ == "__main__":
    main()
