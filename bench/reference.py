"""Reference figures quoted in bench/README.md, measured with the benchmark's inputs.

    python3 bench/reference.py [--seed 1]

Prints one JSON object:

- `import_s`: median wall time of five fresh interpreters running
  `import numpy` (the import floor) and `import constructa`;
- `suite_s`: wall time of the Tier-1 suite (`python -m pytest -q` with
  `src` on the path);
- `analyze_global_ms`: per pattern, the median of `analyze_global` over the
  analyze workload's inputs for the seed, each call repeated five times;
- `oracle_s`: per isolated pattern, `brute_force_oracle` at the default
  grid with `CONSTRUCTA_THREADS=1` and with the default thread count;
- `trace`: `trace.overhead` and both rates from a traced analyze run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _fresh(code: str, n: int = 5) -> float:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(n):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    sys.path.insert(0, str(SRC))
    os.environ.pop("CONSTRUCTA_THREADS", None)
    from constructa import global_analysis, scenario, solver

    import workloads

    out: dict = {"python": sys.version.split()[0], "nproc": os.cpu_count()}
    out["import_s"] = {"numpy": _fresh("import numpy"), "constructa": _fresh("import constructa")}

    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    out["suite_s"] = time.perf_counter() - start
    out["suite_summary"] = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""

    per_kind = defaultdict(list)
    for case in workloads.Analyze(args.seed).items:
        s = scenario.loads_scenario(case.text)
        for _ in range(5):
            start = time.perf_counter()
            global_analysis.analyze_global(s)
            per_kind[case.kind].append(time.perf_counter() - start)
    out["analyze_global_ms"] = {k: 1e3 * statistics.median(v) for k, v in per_kind.items()}

    oracle = {}
    wl = workloads.OracleIsolated(args.seed)
    for case in wl.items:
        row = {}
        for label, threads in (("threads_1", "1"), ("default", None)):
            if threads is None:
                os.environ.pop("CONSTRUCTA_THREADS", None)
            else:
                os.environ["CONSTRUCTA_THREADS"] = threads
            times = []
            for _ in range(3):
                start = time.perf_counter()
                solver.brute_force_oracle(wl.scenarios[id(case)], solver.GridSpec())
                times.append(time.perf_counter() - start)
            row[label] = statistics.median(times)
        oracle[case.kind] = row
    os.environ.pop("CONSTRUCTA_THREADS", None)
    out["oracle_s"] = oracle

    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "analyze", "--seed", str(args.seed),
         "--seconds", "10", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    out["trace"] = {k: metrics[k]["value"] for k in ("trace.overhead", "trace.untraced_ops_per_s", "trace.traced_ops_per_s")}
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
