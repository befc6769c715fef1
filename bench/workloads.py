"""The four workloads: one round of operations each, how to run and check one.

A workload is built from a seed and holds `items`, the operations of one
round in a fixed order. `op(item)` is the timed call into the program;
`check(item, output)` returns the problems found by the checks in
`checks.py`; `item.known_fault` marks the pinned inputs on which the program
is known to fail. Modules are looked up at call time
(`global_analysis.analyze_global`, not a name bound at import) so that the
tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import inputs


@dataclass
class Failure:
    """An operation that raised instead of returning."""

    error: str


def _transforms(sols) -> list[tuple[float, float, float]]:
    return [(s.transform.dx, s.transform.dy, s.transform.phi) for s in sols]


def _summary(ss, ind) -> tuple[list, list, tuple[int, int]]:
    reps = [r for f in ss.families for r in _transforms(f.representatives)]
    return _transforms(ss.solutions), reps, (ind.count, ind.family_dim)


def _check_answer(case, sols, reps, ind) -> list[str]:
    if case.bound is not None:
        return checks.finite(case, sols, ind) + checks.placements(case, reps)
    return checks.family(case, ind, sols + reps)


class Analyze:
    """loads_scenario + analyze_global on a fixed mix of every pattern.

    With 40 of each finite pattern and 30 of each family kind, the median
    operation falls inside one pattern's times (3+2) rather than on the step
    between two patterns, where it would jump with small shifts in speed.
    """

    PER_FINITE = 40
    PER_FAMILY = 30

    def __init__(self, seed: int, workdir: Path | None = None):
        rng = np.random.default_rng(seed)
        self.items = [inputs.finite_case(rng, k) for k in inputs.PATTERNS for _ in range(self.PER_FINITE)]
        self.items += [inputs.family_case(rng, k) for k in inputs.FAMILY_KINDS for _ in range(self.PER_FAMILY)]
        self.items.append(inputs.close_roots_case())

    def op(self, case):
        from constructa import global_analysis, scenario

        return global_analysis.analyze_global(scenario.loads_scenario(case.text))

    def check(self, case, out) -> list[str]:
        if isinstance(out, Failure):
            return [f"{case.kind}: raised {out.error}"]
        return _check_answer(case, *_summary(out.solutions, out.ind))


class OracleIsolated:
    """brute_force_oracle at the default grid on isolated placements."""

    KINDS = ("2+1", "3+1", "1+1+1", "2+2", "2+2+2")
    oracle = True

    def __init__(self, seed: int, workdir: Path | None = None):
        from constructa import scenario

        rng = np.random.default_rng(seed)
        self.items = [inputs.finite_case(rng, k) for k in self.KINDS]
        self.scenarios = {id(c): scenario.loads_scenario(c.text) for c in self.items}
        self.reference: dict[int, list] = {}

    def op(self, case):
        from constructa import solver

        return solver.brute_force_oracle(self.scenarios[id(case)], solver.GridSpec())

    def closed_form(self, case) -> list:
        if id(case) not in self.reference:
            from constructa import global_analysis

            ga = global_analysis.analyze_global(self.scenarios[id(case)])
            self.reference[id(case)] = _transforms(ga.solutions.solutions)
        return self.reference[id(case)]

    def check(self, case, out) -> list[str]:
        if isinstance(out, Failure):
            return [f"{case.kind}: raised {out.error}"]
        sols, reps, ind = _summary(out, out.ind_class)
        problems = _check_answer(case, sols, reps, ind)
        return problems + checks.same_set(sols, self.closed_form(case), f"{case.kind} oracle vs closed form")


class OracleFamilies(OracleIsolated):
    """The same oracle call on continuous families of placements."""

    def __init__(self, seed: int, workdir: Path | None = None):
        from constructa import scenario

        rng = np.random.default_rng(seed)
        self.items = [inputs.family_case(rng, "1a-coincident"), inputs.family_case(rng, "1+1")]
        self.items += inputs.pinned_family_cases() + [inputs.loop_merge_case()]
        self.scenarios = {id(c): scenario.loads_scenario(c.text) for c in self.items}

    def check(self, case, out) -> list[str]:
        if isinstance(out, Failure):
            return [f"{case.kind}: raised {out.error}"]
        return _check_answer(case, *_summary(out, out.ind_class))


@dataclass
class CliResult:
    code: int | None
    stderr: str
    report: dict | None
    cpu_s: float = 0.0
    rss_mb: float = 0.0


@dataclass
class CliOp:
    name: str
    argv: list[str]
    case: object = None
    known_fault: bool = False
    out: Path | None = None


class Cli:
    """One `python -m constructa.cli <verb>` subprocess per operation."""

    children = True

    def __init__(self, seed: int, workdir: Path | None = None):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.items: list[CliOp] = []
        for kind in ("2+2", "2+1", "1+1+1"):
            case = inputs.finite_case(rng, kind)
            self._add(f"analyze-{kind}", ["analyze"], case, case.text)
        case = inputs.finite_case(rng, "2+2")
        self._add("localize-multistart", ["localize", "--method", "multistart"], case, case.text)
        driven = inputs.driven_case(rng)
        # "--opt=value": argparse would read a leading minus sign as an option
        placement = ",".join(repr(v) for v in driven.truth)
        self._add("gramian-numeric", ["gramian", "--numeric", f"--placement={placement}"], driven, driven.text)
        case = inputs.finite_case(rng, "2+2+2")
        truth = ",".join(repr(v) for v in case.truth)
        geometry = inputs.geometry_text(case, inputs.PATTERNS["2+2+2"])
        self._add("simulate", ["simulate", f"--truth={truth}"], case, geometry)
        self._add("analyze-nan", ["analyze"], None, inputs.NAN_TEXT, known_fault=True)

    def _add(self, name, verb_args, case, text, known_fault=False) -> None:
        item = CliOp(name, verb_args, case, known_fault)
        if self.workdir is not None:
            path = self.workdir / f"{name}.json"
            path.write_text(text, encoding="utf-8")
            item.out = self.workdir / f"{name}.out"
            item.argv = [verb_args[0], str(path), *verb_args[1:], "--out", str(item.out)]
        self.items.append(item)

    def _report(self, item) -> dict | None:
        try:
            return json.loads(item.out.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None

    def op(self, item: CliOp) -> CliResult:
        if item.out.exists():
            item.out.unlink()
        err_path = self.workdir / f"{item.name}.stderr"
        with open(err_path, "w", encoding="utf-8") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "constructa.cli", *item.argv],
                cwd=self.workdir,
                env=self.env,
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        return CliResult(
            proc.returncode,
            err_path.read_text(encoding="utf-8"),
            self._report(item),
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
        )

    def op_in_process(self, item: CliOp) -> CliResult:
        """The same verb through `cli.main` in this process, for the traced run."""
        from constructa import cli

        if item.out.exists():
            item.out.unlink()
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = cli.main(item.argv)
            except SystemExit as e:  # argparse rejecting the command line
                code = e.code
            except Exception:  # the op boundary: record the escape, keep running
                code = None
                err.write(traceback.format_exc())
        return CliResult(code, err.getvalue(), self._report(item))

    def check(self, item: CliOp, out) -> list[str]:
        if isinstance(out, Failure):
            return [f"{item.name}: raised {out.error}"]
        verb = item.argv[0]
        if item.name == "analyze-nan":
            return checks.rejected(out.code, out.stderr)
        if out.report is None:
            return [f"{item.name}: exit {out.code}, no report; stderr {out.stderr.strip()[-300:]!r}"]
        rep = out.report
        if verb in ("analyze", "localize"):
            sols = [(s["dx"], s["dy"], s["phi"]) for s in rep["solutions"]]
            ind = (rep["ind"]["count"], rep["ind"]["family_dim"])
            expected = 0 if ind == (1, 0) else 2
            return checks.finite(item.case, sols, ind) + checks.exit_code(item.name, out.code, expected)
        if verb == "gramian":
            case = item.case
            rows = checks.gramian_rows(inputs.place(case.truth, case.pts), case.anchors)
            problems = checks.gramian(rep, rows)
            return problems + checks.exit_code(item.name, out.code, 0 if rep["rank"] == 3 else 2)
        if verb == "simulate":
            return checks.simulated(rep, item.case.rho) + checks.exit_code(item.name, out.code, 0)
        return [f"{item.name}: unknown verb {verb}"]


WORKLOADS = {
    "analyze": Analyze,
    "oracle_isolated": OracleIsolated,
    "oracle_families": OracleFamilies,
    "cli": Cli,
}
