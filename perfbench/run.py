"""Benchmark of the qsvt package: the threshold circuit and the alpha rules.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; qsvt is imported from its src/.
One process, one client, closed loop: each op starts when the previous
one and its check have finished.  A run does a fixed number of ops,
sized from --seconds and the workload's nominal op cost, so a faster
program finishes the same work sooner.

--trace 0 prints the end-to-end metrics; --trace 1 wraps qsvt's public
functions (see spans.py) and prints the per-layer metrics, totals per op,
and writes the spans to perfbench/out/.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

# One BLAS thread, set before anything loads NumPy's OpenBLAS; set-up
# probes and per-workload children inherit it.  The BLAS calls are small
# or bandwidth bound, and two threads measured no faster on a 2-core box.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import calibrate  # noqa: E402  (loads NumPy)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
SETUP_KERNEL_RUNS = 15
MEMORY_OPS = 20
TRACE_BLOCKS = 10
PROBE_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def _import_program() -> None:
    """Import qsvt from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import qsvt

    if Path(qsvt.__file__).resolve().parent != SRC / "qsvt":
        raise ImportError(f"qsvt imported from {qsvt.__file__}, not from {SRC}")


def op_count(work, seconds: float) -> int:
    return max(1, round(seconds / work.nominal_op_s))


def run_ops(work, inputs, quiet, before_op=None, calibrated=False):
    """Run and check each input in turn; latency covers the op alone.

    With ``calibrated``, the calibration kernel is timed just before each
    op.  An op fails if it raises or its check finds a problem.
    Returns (latencies, kernel times, failure messages).
    """
    latencies, kernels, failures = [], [], []
    for i, item in enumerate(inputs):
        if before_op is not None:
            before_op(i)
        if calibrated:
            kernels.append(calibrate.seconds())
        start = time.perf_counter()
        try:
            out = work.run(item)
        except Exception as exc:  # a failed op is counted, not fatal
            latencies.append(time.perf_counter() - start)
            failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            continue
        latencies.append(time.perf_counter() - start)
        try:
            problems = work.check(item, out, quiet)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append(f"op {i}: " + "; ".join(problems))
    return latencies, kernels, failures


def _probe_setup(work, seed: int, seconds: float) -> None:
    work.inputs(seed, op_count(work, seconds))
    print(repr(time.time()))


def setup_seconds(args) -> tuple[list[float], list[float]]:
    """Process start to first op, measured on fresh processes that import
    the package and build this run's inputs.

    Returns wall-clock and normalised samples.  Each probe is normalised by
    the calibration kernel timed in this (warm) process just before and
    just after it; a kernel timed inside the fresh process runs cold and
    did not follow the set-up's speed.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    raw, normalised = [], []
    calibrate.median_seconds(SETUP_KERNEL_RUNS)  # warm the kernel up
    for _ in range(SETUP_PROBES):
        before = calibrate.median_seconds(SETUP_KERNEL_RUNS)
        start = time.time()
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        elapsed = float(done.stdout.split()[-1]) - start
        after = calibrate.median_seconds(SETUP_KERNEL_RUNS)
        raw.append(elapsed)
        normalised.append(elapsed * calibrate.REFERENCE_S * 2 / (before + after))
    return raw, normalised


def end_to_end(work, args, env: dict) -> dict:
    raw_setups, setups = setup_seconds(args)
    n = op_count(work, args.seconds)
    inputs = work.inputs(args.seed, n)
    latencies, kernels, failures = run_ops(
        work, inputs, contextlib.nullcontext, calibrated=work.calibrated
    )
    if work.calibrated:
        normalised = [t * calibrate.REFERENCE_S / k for t, k in zip(latencies, kernels)]
    else:
        normalised = latencies
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(normalised),
        "op_p50_s": statistics.median(normalised),
        "peak_rss_mib": rss_mib,
    }
    how = "normalised" if work.calibrated else "wall clock"
    print(f"workload {work.name}: {n} ops, one client, closed loop, seed {args.seed}")
    print(f"  setup_s      {values['setup_s']:.4f} s  normalised, median of {len(setups)} fresh "
          f"processes (wall clock {statistics.median(raw_setups):.4f} s)")
    print(f"  wall_s       {values['wall_s']:.6g} s  {how}, sum of op latencies")
    print(f"  op_p50_s     {values['op_p50_s']:.6g} s  {how}, {n} samples")
    if n >= 100:
        p90 = statistics.quantiles(normalised, n=10)[8]
        print(f"  op_p90_s     {p90:.6g} s  {how}, {n} samples")
    if work.calibrated:
        print(f"  raw wall clock: wall_s {sum(latencies):.6g} s, op_p50_s "
              f"{statistics.median(latencies):.6g} s, calibration kernel median "
              f"{statistics.median(kernels):.4g} s (reference {calibrate.REFERENCE_S} s)")
    print(f"  peak_rss_mib {rss_mib:.1f} MiB")
    print(f"  error_rate   {len(failures) / n:.6g}  ({len(failures)}/{n})")
    return _result(failures, n, {name: {"value": values[name], "unit": unit}
                                 for name, unit in END_TO_END})


def per_layer(work, args, env: dict) -> dict:
    import spans

    n = min(op_count(work, args.seconds), work.trace_ops)
    tracer = spans.Tracer()
    tracer.install()
    try:
        inputs = work.inputs(args.seed, n)  # traced set-up, op id -1
    finally:
        tracer.uninstall()
    peak, failures = memory_peak(work, inputs[:MEMORY_OPS])

    # Untraced and traced blocks alternate, so that drift in the host's
    # speed does not show up as tracing overhead.
    untraced, traced = [], []
    block = -(-n // TRACE_BLOCKS)
    for lo in range(0, n, block):
        chunk = inputs[lo : lo + block]
        latencies, _, chunk_failures = run_ops(work, chunk, tracer.paused)
        untraced += latencies
        failures += chunk_failures
        tracer.install()
        try:
            latencies, _, chunk_failures = run_ops(
                work, chunk, tracer.paused, before_op=lambda i: setattr(tracer, "op", lo + i)
            )
        finally:
            tracer.uninstall()
        traced += latencies
        failures += chunk_failures
    overhead = 100.0 * (sum(traced) - sum(untraced)) / sum(untraced)
    metrics = tracer.metrics(n, peak, overhead)

    calls, self_s = tracer.totals()
    missing = [name for name in work.required if not calls[name]]
    stray = [name for name in work.forbidden if calls[name]]
    if missing:
        failures.append("no calls to " + ", ".join(missing))
    if stray:
        failures.append("unexpected calls to " + ", ".join(stray))

    print(f"workload {work.name}: traced, {n} ops (+{n} untraced, "
          f"{min(n, MEMORY_OPS)} under tracemalloc), seed {args.seed}")
    total = sum(self_s.values())
    for name, secs in sorted(self_s.items(), key=lambda kv: -kv[1])[:12]:
        print(f"  {name:<40} {100 * secs / total:5.1f}%  {calls[name] / n:8.1f} calls/op")
    if calls["pipeline.run_pipeline"]:
        inclusive = sum(end - start for name, start, end, _p, _o in tracer.spans
                        if name == "pipeline.run_pipeline")
        sim_self = sum(secs for name, secs in self_s.items() if name.startswith("sim."))
        print(f"  sim.* self time = {100 * sim_self / inclusive:.1f}% of run_pipeline")
    print(f"  trace overhead {overhead:.1f}%")

    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{work.name}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({"env": env, "workload": work.name, "ops": n,
                   "fields": ["name", "start", "end", "parent", "op"],
                   "spans": tracer.spans, "errors": dict(tracer.errors),
                   "counts": dict(tracer.counts)}, fh)
    print(f"  spans written to {path}")
    return _result(failures, 2 * n + min(n, MEMORY_OPS), metrics)


def memory_peak(work, inputs) -> tuple[int, list[str]]:
    """Highest tracemalloc peak over single ops, in bytes."""
    failures = []
    peak = 0
    tracemalloc.start()
    try:
        for i, item in enumerate(inputs):
            tracemalloc.reset_peak()
            try:
                work.run(item)
            except Exception as exc:
                failures.append(f"memory op {i}: {type(exc).__name__}: {exc}")
            peak = max(peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return peak, failures


def _result(failures: list[str], attempted: int, metrics: dict) -> dict:
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            return done.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # One core for the run, its probes and its children, so that the
    # calibration kernel and the work it normalises share a core.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    _import_program()
    import envinfo
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    work = WORKLOADS[args.workload]
    if args.probe_setup:
        _probe_setup(work, args.seed, args.seconds)
        return 0

    env = envinfo.environment(ROOT, BLAS_THREADS, cpu)
    print("env " + json.dumps(env))
    result = (per_layer if args.trace else end_to_end)(work, args, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
