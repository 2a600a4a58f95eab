#!/usr/bin/env python3
"""Time-to-verdict benchmark of the ionet liveness decisions.

    python3 perfbench/run.py --workload {dense,rows,machines} --seed N \
        --seconds S --trace {0,1} [--input-seed 2026]

Run from a checkout of the repository: the library is imported from its
`src/` directory.  One process, one client, one query at a time (a closed
loop, no threads).  A pass decides the workload's whole query list on fresh
nets.  A run makes round(S / PASS_SECONDS) passes, at least one: the count
depends on --seconds alone, never on how fast the host or the code is, so
two versions of the code get the same number of samples.

The host's speed changes under other tenants' load (see calibrate.py).
While a pass runs, a short calibration loop is timed every 20 ms, outside
the queries' measured time, and every time is reported at the reference
speed: a query's latency is multiplied by the host factor of the samples
taken during and next to it.  A query's latency
is its median over the passes, and the percentiles are taken over the
queries; wall_s is the median over the passes of a pass's summed latencies.
setup_s is the fastest `import ionet` in a fresh interpreter plus the
fastest preparation of the inputs, each calibrated in the same way.
Every verdict is checked against the known answers in answers.json and
every non-live witness by `check_witness`, outside the timed region.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics, including the tracing
overhead at the reference speed, and writes the spans of the last traced
pass under perfbench/out/.  Per-layer times are span wall times, not
corrected for the host's speed; they include the calibration loops run
inside a span, about 1 % of its time.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time

from calibrate import HostSampler, host_factor, timed

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Nominal wall time of one untraced pass of any workload on a 2-vCPU Xeon
# VM; it only sets how many passes a run of --seconds makes.
PASS_SECONDS = 6.0
# A traced pass takes up to 1.25 times as long as an untraced one.
TRACED_PAIR_FACTOR = 2.25
IMPORT_SAMPLES = 15
PREPARE_SAMPLES = 5


def import_library():
    if not (SRC / "ionet" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library sources under {SRC}; "
                         "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import ionet
    if pathlib.Path(ionet.__file__).resolve().parent != SRC / "ionet":
        raise SystemExit(f"perfbench: imported ionet from {ionet.__file__}, "
                         f"not from {SRC}")


def import_seconds():
    """`import ionet` in fresh interpreters (start-up not included), at the
    reference speed."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, str(HERE / "calibrate.py"), str(SRC)],
                              capture_output=True, text=True, check=True,
                              timeout=120)
        samples.append(float(done.stdout))
    return samples


class Run:
    """One benchmark run: repeated passes over the same query list."""

    def __init__(self, workload, seed, input_seed):
        import workloads
        self.workloads = workloads
        self.make = workloads.WORKLOADS[workload]
        self.seed, self.input_seed = seed, input_seed
        self.answers = workloads.load_answers()
        self.prepare_s = []
        self.keys = None
        self.passes = []        # per untraced pass: latencies at the reference speed
        self.attempted = 0
        self.failures = []

    def prepare(self):
        queries, seconds = timed(
            lambda: self.make(self.seed, self.input_seed, self.answers))
        self.prepare_s.append(seconds)
        return queries

    def one_pass(self, tracer=None):
        """Prepare and decide the query list once; returns the latencies at
        the reference speed.  With a tracer, preparation and decisions are
        traced and the pass is not kept."""
        gc.collect()  # every pass starts from the same collector state
        with tracer or contextlib.nullcontext():
            queries = self.prepare()
            # The prepared inputs stay out of the cyclic collector's work, so
            # that a collection costs the same whichever queries are still
            # waiting, that is, whatever the order of the queries.
            gc.freeze()
            with HostSampler() as host:
                wall, timings, failures = self.workloads.run_pass(queries)
                host.settle(time.perf_counter())
            gc.unfreeze()
        latencies = [host.calibrated(t0, lat) for t0, lat in timings]
        self.attempted += len(queries)
        self.failures += failures
        keys = [q.key for q in queries]
        if self.keys is None:
            self.keys = keys
        if keys != self.keys:
            raise SystemExit("perfbench: the query list changed between passes")
        if tracer is None:
            self.passes.append(latencies)
        ms = sorted(lat * 1000 for lat in latencies)
        print(f"# {'traced' if tracer else 'untraced'} pass: wall {wall:.4f} s, "
              f"host factor {host_factor(host.loops):.4f}; at the reference "
              f"speed {sum(latencies):.4f} s, median {statistics.median(ms):.4f} "
              f"ms, p90 {statistics.quantiles(ms, n=10)[8]:.4f} ms")
        return latencies

    def setup_seconds(self):
        """Fastest import plus fastest of PREPARE_SAMPLES preparations."""
        while len(self.prepare_s) < PREPARE_SAMPLES:
            self.prepare()
        return min(import_seconds()) + min(self.prepare_s[:PREPARE_SAMPLES])


def end_to_end(run, seconds):
    for _ in range(max(1, round(seconds / PASS_SECONDS))):
        run.one_pass()
    query_ms = [statistics.median(samples) * 1000 for samples in zip(*run.passes)]
    return {
        "wall_s": (statistics.median(sum(p) for p in run.passes), "s"),
        "verdict_ms_p50": (statistics.median(query_ms), "ms"),
        "verdict_ms_p90": (statistics.quantiles(query_ms, n=10)[8], "ms"),
        "setup_s": (run.setup_seconds(), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }


def per_layer(run, seconds, workload):
    from tracing import LAYER_METRICS, Tracer
    pairs = max(1, round(seconds / (TRACED_PAIR_FACTOR * PASS_SECONDS)))
    untraced, traced, sums, children = [], [], {}, {}
    for _ in range(pairs):
        untraced.append(sum(run.one_pass()))
        tracer = Tracer()
        traced.append(sum(run.one_pass(tracer)))
        layers, kids = tracer.summary()
        for totals, part in ((sums, layers), (children, kids)):
            for name, value in part.items():
                totals[name] = totals.get(name, 0) + value
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{workload}")
    values = {name: total / len(traced) for name, total in sums.items()}
    values["trace.overhead_share"] = (statistics.median(traced)
                                      / statistics.median(untraced) - 1)
    split = " + ".join(f"{name} {total / len(traced):.4f}"
                       for name, total in sorted(children.items()))
    print(f"# slp.is_nonlive.s {values['slp.is_nonlive.s']:.4f} = self_s "
          f"{values['slp.is_nonlive.self_s']:.4f} + child spans: {split}")
    print(f"# {len(traced)} traced and {len(untraced)} untraced passes; at the "
          f"reference speed {statistics.median(traced):.3f} s traced, "
          f"{statistics.median(untraced):.3f} s untraced")
    for name, value in values.items():
        if value == 0 and not name.startswith("trace."):
            print(f"# {name} is absent on {workload}: no such calls")
    return {name: (values[name], unit) for name, (unit, _) in LAYER_METRICS.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Time-to-verdict benchmark (see the module docstring).")
    ap.add_argument("--workload", required=True, choices=("dense", "rows", "machines"))
    ap.add_argument("--seed", type=int, required=True,
                    help="orders the rows and machines queries")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--input-seed", type=int, default=None,
                    help="draws the dense sample and the rows marking stream "
                         "(default 2026, A-06's seed)")
    args = ap.parse_args(argv)
    import_library()
    import workloads
    input_seed = workloads.DEFAULT_INPUT_SEED if args.input_seed is None \
        else args.input_seed
    run = Run(args.workload, args.seed, input_seed)
    if args.trace:
        metrics = per_layer(run, args.seconds, args.workload)
    else:
        metrics = end_to_end(run, args.seconds)
    failed = len(run.failures)
    for key, reason in run.failures[:20]:
        print(f"# FAILED {key}: {reason}")
    print(f"# {args.workload}: {len(run.keys)} queries per pass, "
          f"{len(run.passes)} untraced passes; {run.attempted} queries "
          f"attempted, {failed} failed, failed_share {failed / run.attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
