"""mdlab benchmark: one workload in one fresh process.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from ./src.  The
run times one cold set-up, repeats whole rounds of the workload's fixed
operations until the next round would end after ``--seconds``, then checks
the program's outputs.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import os

# One BLAS thread: the kernels here are small and the machine is shared.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("contour-identities", "gb-batch", "symbolic-identities", "gl-representation")


def process_age() -> float:
    """Seconds since this process started, from its start time in /proc."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_program():
    """Import mdlab from this checkout's src, or exit without a result."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import mdlab
    except ImportError as exc:
        sys.exit(f"cannot import mdlab from {ROOT / 'src'}: {exc}")
    if not Path(mdlab.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"mdlab was imported from {mdlab.__file__}, not from {ROOT / 'src'}")


def fingerprint(result):
    """Exact, comparable form of an operation's output."""
    if isinstance(result, BaseException):
        return ("error", type(result).__name__, str(result))
    if hasattr(result, "tobytes"):
        return ("array", result.dtype.str, result.shape, result.tobytes())
    return tuple((r.identity_id, r.passed, r.rel_error, r.lhs, r.rhs, r.detail) for r in result)


def run_round(workload, ops):
    """One round: every operation once, each timed on its own."""
    workload.before_round()
    gc.collect()
    times, results = [], []
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # counted as failed; the run goes on
            traceback.print_exc(file=sys.stderr)
            out = exc
        times.append(time.perf_counter() - t0)
        results.append(out)
    return times, results


def main() -> int:
    args = parse_args()
    import_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    setup_s = process_age()
    gc.collect()
    gc.freeze()  # set-up objects stay out of the collections timed below

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    ops = workload.operations()
    rounds = []  # (traced, per-op times, per-op results, layer metrics)
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            times, results = run_round(workload, ops)
        finally:
            if traced:
                tracer.uninstall()
        layers = tracing.layer_metrics(tracer.spans) if traced else None
        rounds.append((traced, times, results, layers))
        if tracer is not None and len(rounds) < 2:
            continue
        if time.perf_counter() - start + sum(times) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = failed = 0
    for _, _, results, _ in rounds:
        for op, out in zip(ops, results):
            attempted += op.count
            failed += op.count if isinstance(out, BaseException) else workload.failures(op, out)

    gates = workloads.Gates()
    first = [fingerprint(out) for out in rounds[0][2]]
    same = all([fingerprint(out) for out in r[2]] == first for r in rounds[1:])
    what = "traced and untraced rounds" if tracer else "all rounds"
    gates.equal(f"{what} give identical verdicts and values ({len(rounds)} rounds)", same, True)
    ok_results = {op.label: out for op, out in zip(ops, rounds[0][2])
                  if not isinstance(out, BaseException)}
    workload.check(ok_results, gates)
    for line in gates.lines:
        print(line)

    if tracer is None:
        per_op = zip(*(times for _, times, _, _ in rounds))
        metrics = {
            "setup_s": (setup_s, "s"),
            "verdict_s": (sum(statistics.median(t) for t in per_op), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        traced_rounds = [r for r in rounds if r[0]]
        metrics = {}
        for key in traced_rounds[0][3]:
            unit = "s" if key.endswith("_s") else "count"
            if key == "qdilog.points_per_kernel_call":
                unit = "points/call"
            metrics[key] = (statistics.median_low(r[3][key] for r in traced_rounds), unit)
        plain = statistics.median(sum(r[1]) for r in rounds if not r[0])
        marked = statistics.median(sum(r[1]) for r in traced_rounds)
        metrics["trace.overhead_pct"] = (100.0 * (marked / plain - 1.0), "%")
        out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(out)
        print(f"spans of the last traced round: {out.relative_to(ROOT)}")

    print(json.dumps({
        "correct": bool(gates.ok),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
