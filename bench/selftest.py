"""Feed every output check a correct output and corrupted copies of it.

    python3 bench/selftest.py

Each check must pass the program's real output and reject each corruption:
a placement moved by 1e-3, a dropped solution, an extra family branch, a
wrong Gramian rank, a perturbed simulated range, a wrong exit code and a
traceback in place of a one-line error. `run.py` runs this before every
measurement, so a check that has stopped rejecting anything stops the run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

import checks
import inputs

# pinned, independent of any run's seed
SEED = 20220901


def _moved(t, by=1e-3):
    return (t[0] + by, t[1], t[2])


def run() -> list[str]:
    """Problems with the checks themselves; empty when every check is sound."""
    from constructa import global_analysis, scenario

    rng = np.random.default_rng(SEED)
    case = inputs.finite_case(rng, "2+1")
    ga = global_analysis.analyze_global(scenario.loads_scenario(case.text))
    sols = [(s.transform.dx, s.transform.dy, s.transform.phi) for s in ga.solutions.solutions]
    ind = (ga.ind.count, ga.ind.family_dim)
    fam = inputs.family_case(rng, "1+1")
    driven = inputs.driven_case(rng)
    rows = checks.gramian_rows(inputs.place(driven.truth, driven.pts), driven.anchors)
    g = rows.T @ rows
    report = {"rank": 3, "matrix": g.tolist(), "numeric_max_diff": 0.0}
    truth_i = next(i for i, t in enumerate(sols) if checks.same(t, case.truth))
    other = [t for i, t in enumerate(sols) if i != truth_i]

    must_pass = {
        "finite": checks.finite(case, sols, ind),
        "same set": checks.same_set(sols, list(reversed(sols)), "set"),
        "family": checks.family(fam, fam.family),
        "gramian": checks.gramian(report, rows),
        "simulate": checks.simulated({"rho": case.rho.tolist()}, case.rho),
        "exit code": checks.exit_code("analyze", 2, 2),
        "rejected": checks.rejected(1, "error: non-finite point (nan, 0.9)\n"),
    }
    must_fail = {
        "placement moved by 1e-3": checks.finite(case, [_moved(sols[0])] + sols[1:], ind),
        "truth moved by 1e-3": checks.finite(case, other + [_moved(sols[truth_i])], ind),
        "dropped solution": checks.same_set(sols[1:], sols, "set"),
        "dropped truth": checks.finite(case, other, (len(other), 0)),
        "extra branch": checks.family(fam, (fam.family[0] + 1, fam.family[1])),
        "wrong rank": checks.gramian({**report, "rank": 2}, rows),
        "numeric Gramian off": checks.gramian({**report, "numeric_max_diff": 1e-3 * float(np.max(g))}, rows),
        "range off by 1e-6": checks.simulated({"rho": (case.rho + 1e-6).tolist()}, case.rho),
        "wrong exit code": checks.exit_code("analyze", 0, 2),
        "traceback": checks.rejected(1, "Traceback (most recent call last):\nValueError: non-finite point\n"),
    }
    problems = [f"{name}: rejected a correct output: {found}" for name, found in must_pass.items() if found]
    problems += [f"{name}: not rejected" for name, found in must_fail.items() if not found]
    if len(sols) < 2:
        problems.append(f"self-test case has {len(sols)} placement(s); needs two to drop one")
    return problems


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    found = run()
    for p in found:
        print(p)
    print("self-test:", "FAILED" if found else "every check passed its output and rejected each corruption")
    sys.exit(1 if found else 0)
