"""constructa benchmark: one workload, one closed-loop client, outputs checked.

    python3 bench/run.py --workload analyze --seed 1 --seconds 10 --trace 0

Runs whole rounds of the workload's operations until `--seconds` have
passed, checks every output apart from the program, and prints one JSON
object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones. With `--trace 1` the
run is split into an untraced and a traced half, and the metrics are the
per-layer ones (see README.md). The program is imported from `src/` of the
checkout this file sits in and run with its defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
# fresh interpreters started per run to time set-up; setup_s is their median
SETUP_PROBES = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _probe_setup(args, importtime: bool) -> tuple[float, str]:
    """Wall time of a fresh interpreter that imports constructa and builds the inputs."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), str(Path(__file__).resolve())]
    cmd += ["--workload", args.workload, "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
    return elapsed, proc.stderr


def _cpu_self() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _run_rounds(wl, op, seconds: float, tracer=None) -> dict:
    """Whole rounds of `op` over the workload's items until `seconds` have passed."""
    from workloads import Failure

    times, results = [], []
    cpu0 = _cpu_self()
    start = time.perf_counter()
    while True:
        for item in wl.items:
            if tracer is not None:
                tracer.begin_op()
            t0 = time.perf_counter()
            try:
                out = op(item)
            except Exception:  # the op boundary: an escape is a failed op, not a crash
                out = Failure(traceback.format_exc(limit=-3))
            times.append(time.perf_counter() - t0)
            results.append((item, out))
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    return {"times": times, "results": results, "wall": wall, "cpu": _cpu_self() - cpu0}


def _check(wl, results) -> tuple[int, list[str]]:
    """Failed ops, and the problems of ops that are not known faults."""
    failed, problems = 0, []
    for item, out in results:
        found = wl.check(item, out)
        if found:
            failed += 1
            if not getattr(item, "known_fault", False):
                problems.extend(found)
    return failed, problems


def _end_to_end(wl, run: dict, setup_s: list[float]) -> dict:
    times = run["times"]
    n = len(times)
    if getattr(wl, "children", False):
        outs = [out for _, out in run["results"]]
        cpu = sum(getattr(o, "cpu_s", 0.0) for o in outs) / n
        rss = max(getattr(o, "rss_mb", 0.0) for o in outs)
    else:
        cpu = run["cpu"] / n
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.p90": (statistics.quantiles(times, n=10, method="inclusive")[8], "s"),
        "ops_per_s": (n / run["wall"], "1/s"),
        "cpu_s.per_op": (cpu, "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def _per_layer(wl, args, importlogs: list[str]) -> tuple[dict, list]:
    import spans

    op = getattr(wl, "op_in_process", wl.op)
    tracer = spans.Tracer()
    # alternate untraced and traced rounds, so that warm-up and drift in
    # the machine fall on both sides of the overhead ratio alike
    plain, traced, results = [], [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < args.seconds:
        plain.append(_run_rounds(wl, op, 0.0))
        tracer.install()
        try:
            traced.append(_run_rounds(wl, op, 0.0, tracer))
        finally:
            tracer.uninstall()
        results += plain[-1]["results"] + traced[-1]["results"]
    if getattr(wl, "oracle", False):
        # one more round under tracemalloc, kept out of the timed spans
        results += _run_rounds(wl, lambda item: tracer.peak_alloc(lambda: wl.op(item)), 0.0)["results"]
    tracer.dump(OUT_DIR / f"trace-{args.workload}-{args.seed}.json")

    imports = [spans.import_times(log) for log in importlogs]
    metrics = {
        "import.constructa_s": (statistics.median(c for c, _ in imports), "s"),
        "import.scipy_s": (statistics.median(s for _, s in imports), "s"),
    }
    metrics.update(tracer.metrics())
    plain_rate = sum(len(r["times"]) for r in plain) / sum(r["wall"] for r in plain)
    traced_rate = sum(len(r["times"]) for r in traced) / sum(r["wall"] for r in traced)
    metrics["trace.overhead"] = (traced_rate / plain_rate, "ratio")
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    return metrics, results


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "constructa" / "__init__.py").is_file():
        print(f"error: no program source at {src / 'constructa'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # the program's defaults: the oracle picks its own thread count
    os.environ.pop("CONSTRUCTA_THREADS", None)
    import constructa
    from workloads import WORKLOADS

    if Path(constructa.__file__).resolve().parent != (src / "constructa").resolve():
        print(f"error: constructa imported from {constructa.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        WORKLOADS[args.workload](args.seed)
        return 0

    import selftest

    broken = selftest.run()
    if broken:
        print("error: output checks failed their self-test:\n  " + "\n  ".join(broken), file=sys.stderr)
        return 1

    probes = [_probe_setup(args, importtime=bool(args.trace)) for _ in range(SETUP_PROBES)]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            metrics, results = _per_layer(wl, args, [log for _, log in probes])
        else:
            run = _run_rounds(wl, wl.op, args.seconds)
            metrics = _end_to_end(wl, run, [t for t, _ in probes])
            results = run["results"]
        failed, problems = _check(wl, results)
        if args.trace and args.workload == "analyze" and metrics["global_analysis.oracle_fallbacks"][0]:
            # the closed forms cover every pattern of the mix; a fallback is a regression
            problems.append(f"analyze_global fell back to the oracle {metrics['global_analysis.oracle_fallbacks'][0]:g} times")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(results),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
