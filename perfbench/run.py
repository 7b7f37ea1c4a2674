"""Seeded benchmark for mgres: one workload per run, every output checked.

Run from the root of a checkout (Python 3.10+, standard library only):

    python3 perfbench/run.py --workload taylor-q --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` of the checkout, never from an
installed copy; the run fails with exit code 2 when ``src/mgres`` is
missing.  Workloads (see BENCHMARK.json for why each exists):

    taylor-q          taylor_complex -> is_resolution -> maximal-rank theorem, over Q
    taylor-gfp        the same corpus with coefficients in GF(32003)
    minimize-generic  scarf_complex + taylor_complex + minimize on generic morphisms
    cli-files         one `python -m mgres.cli` subprocess per operation

A run sets up five times (fresh import of mgres, corpus generation, input
files, one warm-up operation checked by its oracle) and reports the median
as ``setup_s``.  It then runs the corpus in order, in a closed loop with
one client, until ``--seconds`` have passed and every operation has run at
least once; each result is checked outside the timed section.
``ops_per_s`` is the corpus size over the sum of the per-operation median
times; ``large_op_s`` is the median of every sample of the workload's large
class; ``peak_rss_mb`` is this process's peak resident set (for cli-files,
that of the largest child).  Failed operations show in ``failed`` and make
``correct`` false.

On the three in-process workloads the three times are calibrated by a
machine-speed probe timed between operations (see probe.py): times are
divided by the run's slowdown against a fixed reference, rates multiplied,
and the uncalibrated figures are printed above the result.  cli-files
reports plain wall times.

``--trace 1`` measures the same way with tracing off, then runs each op
once plain and once with timing spans swapped into mgres, back to back,
then once more with counting hooks (see layers.py).  It restores every
original, writes the spans to ``.perfbench/trace-<workload>-<seed>.json``
and prints the per-layer metrics, the tracing overhead and a per-shape
breakdown.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import layers
import workloads
from probe import Probe
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
WORKLOADS = ("taylor-q", "taylor-gfp", "minimize-generic", "cli-files")
END_TO_END_UNITS = {"ops_per_s": "1/s", "large_op_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def import_mgres():
    """Import mgres (and its cli) afresh from the checkout's src directory."""
    for name in [n for n in sys.modules if n == "mgres" or n.startswith("mgres.")]:
        del sys.modules[name]
    mg = importlib.import_module("mgres")
    importlib.import_module("mgres.cli")
    if Path(mg.__file__).resolve().parent != (SRC / "mgres").resolve():
        raise ImportError(f"mgres was imported from {mg.__file__}, not from {SRC}")
    return mg


def build_ops(mg, workload: str, seed: int, workdir: Path, in_process: bool):
    if workload == "taylor-q":
        return workloads.taylor_ops(mg, seed, "Q")
    if workload == "taylor-gfp":
        return workloads.taylor_ops(mg, seed, "GFp")
    if workload == "minimize-generic":
        return workloads.minimize_ops(mg, seed)
    return workloads.cli_ops(mg, seed, workdir, ROOT, in_process)


def run_op(op, tracer=None, op_id=None) -> tuple[float, bool]:
    """Time one operation and check it; returns (seconds, passed)."""
    try:
        x = op.make_input()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return 0.0, False
    start = time.perf_counter()
    try:
        if tracer is None:
            result = op.run(x)
        else:
            result = tracer.run_op(op_id, "op", lambda: op.run(x))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - start, False
    elapsed = time.perf_counter() - start
    try:
        ok = bool(op.check(x, result))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    if not ok:
        print(f"oracle failed: {op.name}", file=sys.stderr)
    return elapsed, ok


def setup(workload: str, seed: int, workdir: Path, probe: Probe | None):
    """Set up SETUP_REPEATS times.

    Returns (median seconds, mgres, ops, warm-up ops that failed); the
    warm-up runs the first op of the corpus through its oracle.
    """
    times = []
    failed = 0
    for _ in range(SETUP_REPEATS):
        if probe:
            probe.tick()
        shutil.rmtree(workdir, ignore_errors=True)
        start = time.perf_counter()
        workdir.mkdir(parents=True)
        mg = import_mgres()
        ops = build_ops(mg, workload, seed, workdir, in_process=False)
        _, ok = run_op(ops[0])
        times.append(time.perf_counter() - start)
        failed += not ok
    return statistics.median(times), mg, ops, failed


def measure(ops, seconds: float, probe: Probe | None):
    """Closed loop over the corpus for `seconds`, at least one full pass,
    with the machine-speed probe (if any) between operations.

    Returns per-op lists of times and the number of failed operations.
    """
    times = [[] for _ in ops]
    failed = 0
    end = time.perf_counter() + seconds
    k = 0
    while k < len(ops) or time.perf_counter() < end:
        i = k % len(ops)
        if probe:
            probe.tick()
        elapsed, ok = run_op(ops[i])
        times[i].append(elapsed)
        failed += not ok
        k += 1
    return times, failed


def summarize(ops, times) -> dict:
    """ops_per_s over the whole corpus and the large-class median.

    Each op's median time stands for its cost, so a pass cut short by the
    deadline does not skew the corpus mix.  large_op_s pools every sample
    of every op in the large class.
    """
    per_op = [statistics.median(ts) for ts in times]
    large = [t for op, ts in zip(ops, times) if op.large for t in ts]
    return {
        "ops_per_s": len(ops) / sum(per_op),
        "large_op_s": statistics.median(large),
        "large_samples": len(large),
        "attempted": sum(len(ts) for ts in times),
    }


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-files" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def traced_passes(mg, ops) -> dict:
    """A span pass, each op run once plain and once traced, then a count pass.

    Running the plain and the traced call of one op back to back keeps
    both in the same spell of machine load, so their ratio is the tracing
    overhead; for cli-files both run in this process.  Afterwards every
    patched attribute must again be the original object.
    """
    out = {"failed": 0}
    plain = traced = 0.0
    patched = []
    span_tracer = Tracer(timed=True)
    for i, op in enumerate(ops):
        elapsed, ok = run_op(op)
        plain += elapsed
        out["failed"] += not ok
        with span_tracer:
            layers.install_spans(span_tracer, mg)
            patched += span_tracer.patched()
            elapsed, ok = run_op(op, span_tracer, i)
        traced += elapsed
        out["failed"] += not ok
    out["untraced_ops_per_s"] = len(ops) / plain
    out["traced_ops_per_s"] = len(ops) / traced
    out["spans"] = span_tracer.spans
    out["counts"] = Counter()
    count_tracer = Tracer(timed=False)
    with count_tracer:
        layers.install_counters(count_tracer, mg, out["counts"])
        patched += count_tracer.patched()
        for i, op in enumerate(ops):
            _, ok = run_op(op, count_tracer, i)
            out["failed"] += not ok
    out["restored"] = all(
        (owner.__dict__ if isinstance(owner, type) else vars(owner))[attr] is orig
        for owner, attr, orig in patched
    )
    return out


def traced_run(args, mg, ops, times, workdir: Path):
    """Per-layer metrics; returns (metrics, ops attempted, ops failed)."""
    cli_times = {}
    if args.workload == "cli-files":
        for op, ts in zip(ops, times):
            cli_times.setdefault(op.label, []).extend(ts)
        # the traced passes call mgres.cli.run in this process
        ops = build_ops(mg, args.workload, args.seed, workdir, in_process=True)
    traced = traced_passes(mg, ops)
    spans = traced["spans"]
    metrics = layers.per_layer_metrics(
        spans, traced["counts"], cli_times,
        traced["untraced_ops_per_s"], traced["traced_ops_per_s"])
    breakdown = layers.shape_breakdown(spans, {i: op.shape for i, op in enumerate(ops)})
    write_trace(args, spans, ops, breakdown, metrics)
    print(f"tracing overhead: {metrics['trace.overhead_ratio']:.3f}x "
          f"({metrics['trace.ops_per_s_untraced']:.3f} ops/s untraced, "
          f"{metrics['trace.ops_per_s_traced']:.3f} ops/s traced, both in this process); "
          f"originals restored: {traced['restored']}")
    for shape, by_name in breakdown.items():
        cells = ", ".join(f"{name} {med:.4f} s (n={n})" for name, (med, n) in sorted(by_name.items()))
        print(f"shape {shape}: {cells}")
    return metrics, 3 * len(ops), traced["failed"] + (not traced["restored"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mgres" / "__init__.py").is_file():
        print(f"perfbench: no mgres package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{args.workload}-{args.seed}"
    try:
        # cli-files ops run in child processes, whose cost the in-process
        # probe does not track (see probe.py), so their times stay uncalibrated
        probe = None if args.workload == "cli-files" else Probe()
        setup_s, mg, ops, warmup_failed = setup(args.workload, args.seed, workdir, probe)
        times, failed = measure(ops, args.seconds, probe)
        result = summarize(ops, times)
        slowdown = probe.slowdown() if probe else 1.0
        attempted = result["attempted"] + SETUP_REPEATS
        failed += warmup_failed
        print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops in the corpus, "
              f"{attempted} run with the warm-ups, {failed} failed "
              f"(failed_ops_ratio {failed / attempted:.4f})")
        print(f"large_op_s is the median of {result['large_samples']} samples")
        if probe:
            print(f"uncalibrated: ops_per_s {result['ops_per_s']:.4f}, "
                  f"large_op_s {result['large_op_s']:.4f}, setup_s {setup_s:.4f}; "
                  f"machine slowdown {slowdown:.4f} (median of {len(probe.times)} probes)")
        metrics = {
            "ops_per_s": result["ops_per_s"] * slowdown,
            "large_op_s": result["large_op_s"] / slowdown,
            "peak_rss_mb": peak_rss_mb(args.workload),
            "setup_s": setup_s / slowdown,
        }
        units = END_TO_END_UNITS
        if args.trace:
            metrics, more, more_failed = traced_run(args, mg, ops, times, workdir)
            attempted += more
            failed += more_failed
            units = layers.PER_LAYER
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def write_trace(args, spans, ops, breakdown, metrics) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "ops": [{"id": i, "name": op.name, "label": op.label, "shape": list(op.shape),
                     "large": op.large} for i, op in enumerate(ops)],
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": spans,
            "shape_breakdown": [
                {"shape": list(shape), **{name: {"median_s": med, "samples": n}
                                          for name, (med, n) in by_name.items()}}
                for shape, by_name in breakdown.items()
            ],
            "metrics": metrics,
        }, fh)
    print(f"spans written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
