#!/usr/bin/env python3
"""Benchmark of the evsnn pipeline: four closed-loop offline workloads.

    python3 perfbench/run.py --workload detect-train --seed 1 --seconds 15 --trace 0

Run from the repository root. The program is imported from ``src/`` next
to this directory; without it the benchmark exits with a non-zero code
and prints no result. BLAS runs with as many threads as the process may use cores.

A run sets up its workload ``SETUP_REPEATS`` times (inputs from the seed,
model, warm-up) and reports the median as ``setup_s``, records exact
counts, then calls the workload until the timed calls add up to
``--seconds``. Outputs are checked outside the timed region. With
``--trace 1`` the run then installs the span tracer, repeats the timed
phase and reports per-layer metrics and the tracing overhead against the
untraced phase. The last line of stdout is the JSON result; a fuller
report (environment, counts, self-time table, spans) is written under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("detect-train", "detect-stream", "classify-train", "gen1-prep")


def pin_blas_threads():
    """One BLAS thread per usable core; must run before numpy is imported."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def import_program():
    """Import evsnn from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import evsnn
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {SRC}: {exc}")
    if SRC.resolve() not in Path(evsnn.__file__).resolve().parents:
        sys.exit(f"perfbench: evsnn was imported from {evsnn.__file__}, not from {SRC}")


def environment(nproc):
    import ctypes
    import glob
    import platform

    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads if threads is not None else int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


@dataclass
class Phase:
    seconds: float = 0.0
    step_ms: list = field(default_factory=list)
    samples: list = field(default_factory=list)  # per call
    events: list = field(default_factory=list)  # per call
    call_s: list = field(default_factory=list)  # per call
    ops: int = 0
    attempted: int = 0
    failed: int = 0


def run_phase(workload, seconds, tracer=None):
    """Call the workload back to back until the timed calls add up to
    ``seconds``; check each call's outputs untimed."""
    phase = Phase()
    while phase.seconds < seconds:
        t0 = time.perf_counter()
        root = tracer.open("bench.op") if tracer else None
        try:
            result = workload.op(phase.ops)
        except Exception:  # the program failed: count it, keep the traceback, stop the loop
            traceback.print_exc(file=sys.stderr)
            phase.attempted += 1
            phase.failed += 1
            break
        finally:
            if tracer:
                tracer.close(root)
        elapsed = time.perf_counter() - t0
        phase.seconds += elapsed
        phase.ops += 1
        phase.step_ms += result.step_ms
        phase.call_s.append(elapsed)
        phase.samples.append(result.samples)
        phase.events.append(result.events)
        attempted, failed = workload.check(result)
        phase.attempted += attempted
        phase.failed += failed
    return phase


def median_rate(counts, call_s):
    """Median over calls of count per second, so that a stretch in which the
    machine runs slow moves the result less than a total over the run would."""
    return statistics.median(n / s for n, s in zip(counts, call_s)) if call_s else 0.0


def end_to_end(phase, setup_s):
    return {
        "setup_s": (setup_s, "s"),
        "samples_per_s": (median_rate(phase.samples, phase.call_s), "1/s"),
        # the median call rate times the run's mean events per sample, so that
        # batches with more or fewer events than others do not pick the median
        "events_per_s": (median_rate(phase.samples, phase.call_s) * sum(phase.events) / max(sum(phase.samples), 1), "1/s"),
        "step_ms_p50": (statistics.median(phase.step_ms) if phase.step_ms else float("nan"), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def p90_line(step_ms):
    """p90 only where at least ten samples lie beyond it."""
    if len(step_ms) < 100:
        return f"step_ms_p90 n/a (needs >= 100 samples, have {len(step_ms)})"
    return f"step_ms_p90 {statistics.quantiles(step_ms, n=10)[-1]:.4f} ms (n={len(step_ms)})"


LAYER_UNITS = {"spiking.conv_gmac_per_s": "GMAC/s", "spiking.spike_rate": "ratio", "encoding.cube_density": "ratio",
               "trace.overhead_pct": "%"}


def traced_phase(workload, seconds, plain, counts, report, seed):
    """Repeat the timed phase under the span tracer; return per-layer metrics."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install(workload.network())
    try:
        traced = run_phase(workload, seconds, tracer)
    finally:
        tracer.uninstall()
    steps = max(len(traced.step_ms), 1)
    layers = tracer.layer_metrics(steps)
    layers["encoding.cube_density"] = counts["cube_density"]
    layers["spiking.conv_macs_per_sample"] = counts["conv_macs_per_sample"]
    layers["detection.dets_per_window"] = counts.get("dets_per_window", 0.0)
    plain_ms = plain.seconds * 1e3 / max(len(plain.step_ms), 1)
    traced_ms = traced.seconds * 1e3 / steps
    layers["trace.overhead_pct"] = (traced_ms / plain_ms - 1.0) * 100.0
    self_sum = sum(layers[m] for m in tracing.SELF_TIME_METRICS)
    print(f"traced: {traced_ms:.3f} ms per {workload.unit} (untraced {plain_ms:.3f}), "
          f"overhead {layers['trace.overhead_pct']:+.2f}%, self times sum to {self_sum:.3f} ms")
    table = tracer.self_times()
    print(f"  {'span':40s} {'calls':>8s} {'self ms/step':>13s} {'share':>7s}")
    for name, (calls, _, self_ns) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        print(f"  {name:40s} {calls:8d} {self_ns / 1e6 / steps:13.3f} {self_ns / 1e6 / steps / traced_ms:7.1%}")
    report.update(per_layer=layers, self_ms_per_step={k: v[2] / 1e6 / steps for k, v in table.items()},
                  node_ms_per_step={k: v[1] / 1e6 / steps for k, v in tracer.node_times().items()},
                  traced_steps=len(traced.step_ms), traced_attempted=traced.attempted, traced_failed=traced.failed)
    spans_path = RESULTS / f"{workload.name}-seed{seed}-spans.json"
    spans_path.write_text(json.dumps(tracer.dump()))
    print(f"spans written to {spans_path.relative_to(HERE.parent)}")
    return layers, traced


def run_workload(name, seed, seconds, trace, env):
    """Set up, count, time (and optionally trace) one workload; returns the
    result object the last stdout line carries."""
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    print(f"workload {workload.name}  seed {seed}  seconds {seconds}  trace {trace}")
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
    counts = workload.counts()
    print("counts " + json.dumps(counts))
    plain = run_phase(workload, seconds)
    e2e = end_to_end(plain, statistics.median(setup_times))
    for metric, (value, unit) in e2e.items():
        print(f"{metric} {value:.6g} {unit}")
    print(f"  setup repeats (s): {' '.join(f'{t:.3f}' for t in setup_times)}")
    print(f"  steps: {len(plain.step_ms)} {workload.unit}s in {plain.ops} calls, {plain.seconds:.3f} s timed")
    print(p90_line(plain.step_ms))
    print(f"error_rate {plain.failed / max(plain.attempted, 1):.6g} ({plain.failed}/{plain.attempted})")

    RESULTS.mkdir(exist_ok=True)
    report = {"workload": workload.name, "seed": seed, "seconds": seconds, "env": env,
              "counts": counts, "setup_repeats_s": setup_times, "end_to_end": {k: v[0] for k, v in e2e.items()},
              "steps": len(plain.step_ms), "attempted": plain.attempted, "failed": plain.failed}
    attempted, failed = plain.attempted, plain.failed
    metrics = {metric: {"value": value, "unit": unit} for metric, (value, unit) in e2e.items()}
    if trace:
        layers, traced = traced_phase(workload, seconds, plain, counts, report, seed)
        attempted += traced.attempted
        failed += traced.failed
        metrics = {metric: {"value": value, "unit": "ms" if metric.endswith("_ms") else LAYER_UNITS.get(metric, "count")}
                   for metric, value in layers.items()}
    (RESULTS / f"{workload.name}-seed{seed}-trace{trace}.json").write_text(json.dumps(report, indent=1))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or all four in turn in this process (smallest memory first)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = pin_blas_threads()
    import_program()
    sys.path.insert(0, str(HERE))
    env = environment(nproc)
    print("env " + json.dumps(env))
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, env)
    else:
        # peak_rss_mb is the process peak so far; in this order (64, 370, 690,
        # 2850 MB alone) it is each workload's own peak
        result = {name: run_workload(name, args.seed, args.seconds, args.trace, env)
                  for name in ("gen1-prep", "detect-stream", "detect-train", "classify-train")}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
