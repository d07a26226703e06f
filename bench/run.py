#!/usr/bin/env python3
"""Benchmark for ddehist: timed CLI workloads with independent output checks.

    python3 bench/run.py --workload verify-suite --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --short

A run repeats one round (a workload's fixed batch of `ddehist` CLI runs,
made from --seed) as often as fits in --seconds, at least once, in this
process and with one experiment thread.  A fixed calibration kernel is
timed between the set-ups and between the CLI runs, and the end-to-end times
are rescaled by its median to the reference machine speed (see
calibrate.py), because the host's speed drifts by more than any bound.  It
checks every output against
computations made apart from the program, and prints as its last line one
JSON object: `correct`, `attempted` and `failed` operations, and the
metrics, which are the end-to-end ones with --trace 0 and the per-layer
ones with --trace 1.  --short runs each workload once on reduced input.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# Set-up is timed in this many fresh interpreters per run; the median counts.
SETUP_PROBES = 7


def _parser():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true", help="each workload once, on reduced input")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser


def setup(workload, seed, short):
    """Import the program and build the workload's inputs."""
    from ddehist import cli

    return cli, workload.build(seed, short)


def time_setup(name, seed, short):
    """Seconds from starting a fresh interpreter to its inputs being ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name, "--seed", str(seed)]
    if short:
        argv.append("--short")
    start = time.monotonic()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) - start


def run_round(cli, invocations, kernels=None):
    """Run every invocation; returns the wall time and (rc, stdout) of each.

    With a list `kernels`, the calibration kernel is timed before the first
    invocation and then after each invocation that ends calibrate.EVERY_S or
    more of CLI time since the last kernel, and its times are appended there.
    """
    times, outputs = [], []
    if kernels is not None:
        kernels.append(calibrate.kernel())
    since = 0.0
    for inv in invocations:
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(inv.argv)
        except Exception:  # a crash is a result to report, not a reason to stop
            rc = "crash: " + traceback.format_exc()
        times.append(time.perf_counter() - start)
        outputs.append((rc, buf.getvalue()))
        since += times[-1]
        if kernels is not None and since >= calibrate.EVERY_S:
            kernels.append(calibrate.kernel())
            since = 0.0
    return times, outputs


def traced_round(cli, invocations):
    """A round with spans recorded: times, outputs, spans and lp_norm warnings."""
    from spans import Tracer

    with warnings.catch_warnings(record=True) as caught, Tracer() as tracer:
        warnings.simplefilter("always")
        times, outputs = run_round(cli, invocations)
    lp_warnings = sum(
        issubclass(w.category, RuntimeWarning) and str(w.message).startswith("integral of |f|^")
        for w in caught
    )
    return times, outputs, tracer.spans, lp_warnings


def snapshot(invocations, outputs):
    files = {
        str(p): p.read_bytes()
        for inv in invocations
        for p in sorted(inv.out_dir.glob("*.csv"))
    }
    return outputs, files


def run(workload, seed, seconds, trace, short=False):
    """One benchmark run; returns the result object to print."""
    for _ in range(3):  # warm the kernel's numpy paths before it times anything
        calibrate.kernel()
    setups, kernels = [], [calibrate.kernel()]
    for _ in range(1 if short else SETUP_PROBES):
        setups.append(time_setup(workload.name, seed, short))
        kernels.append(calibrate.kernel())
    cli, invocations = setup(workload, seed, short)
    if trace:
        from spans import layer_metrics, median_metrics, write_spans
    rounds, layers, problems = [], [], []
    first = None
    started, laps = time.perf_counter(), []
    while True:
        if trace:
            times, outputs, spans, lp_warnings = traced_round(cli, invocations)
            layers.append(layer_metrics(spans, lp_warnings))
            if first is None:
                RESULTS.mkdir(exist_ok=True)
                write_spans(spans, RESULTS / f"{workload.name}-seed{seed}-spans.csv")
        else:
            times, outputs = run_round(cli, invocations, kernels)
        rounds.append(times)
        walls = [sum(r) for r in rounds]
        current = snapshot(invocations, outputs)
        if first is None:
            first = current
        elif current != first:
            problems.append(f"round {len(rounds)}: outputs differ from round 1")
        # Start another round only if it should end within --seconds.
        laps.append(time.perf_counter() - started - sum(laps))
        if short or sum(laps) + statistics.median(laps) > seconds:
            break

    ops = failed = 0
    for inv, (rc, stdout) in zip(invocations, first[0]):
        if isinstance(rc, str):
            problems.append(f"{' '.join(inv.argv)}: {rc}")
            ops += len(inv.doc["experiments"])
            failed += len(inv.doc["experiments"])
            continue
        names, bad, found = workload.check(inv, rc, stdout)
        ops += len(names)
        failed += len(bad)
        problems.extend(f"{inv.out_dir.parent.name}/{inv.out_dir.name}: {p}" for p in found)

    if trace:
        metrics = median_metrics(layers)
    else:
        metrics = {
            "setup_s": (calibrate.rescale(statistics.median(setups), kernels), "s"),
            # Each CLI run's median over the rounds, summed: a burst of load
            # from elsewhere on the machine is dropped per CLI run, not per
            # round.  The rescaling cancels most of a slower machine.
            "wall_s": (calibrate.rescale(sum(statistics.median(r) for r in zip(*rounds)), kernels), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    print(
        f"{workload.name} seed {seed}: {len(walls)} rounds, raw wall "
        + ", ".join(f"{w:.3f}" for w in walls)
        + " s; raw set-up "
        + ", ".join(f"{s:.3f}" for s in setups)
        + f" s; kernel median {statistics.median(kernels):.4f} s of {len(kernels)}",
        file=sys.stderr,
    )
    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": len(rounds) * ops,
        "failed": len(rounds) * failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    args = _parser().parse_args(argv)
    if not (SRC / "ddehist" / "__init__.py").is_file():
        print(f"error: no ddehist sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.short and args.workload is None:
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        print(f"error: --workload must be one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup(WORKLOADS[names[0]], args.seed, args.short)
        print(time.monotonic())
        return 0
    ok = True
    for name in names:
        result = run(WORKLOADS[name], args.seed, args.seconds, args.trace, args.short)
        ok = ok and result["correct"]
        print(json.dumps(result))
    return 0 if ok or not args.short else 1


if __name__ == "__main__":
    raise SystemExit(main())
