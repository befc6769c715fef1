"""Spans and counters recorded around calls into the program's layers.

The tracer replaces a module attribute with a wrapper for as long as it is
installed, so every caller that looks the function up by that name (the
CLI, `analyze_global`, the benchmark's own ops) goes through the wrapper.
Nothing under `src/` changes. Spans stay in memory as (name, start, end,
parent, op id) and are written out once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import tracemalloc
from collections import defaultdict

# (module, attribute, span name); several entries may share a span name when
# callers import the same function under their own module
TARGETS = (
    ("constructa.global_analysis", "analyze_global", "global_analysis.analyze_global"),
    ("constructa.cli", "analyze_global", "global_analysis.analyze_global"),
    ("constructa.global_analysis", "solve_2p1", "global_analysis.solve_2p1"),
    ("constructa.global_analysis", "solve_3p1", "global_analysis.solve_3p1"),
    ("constructa.global_analysis", "solve_1p1p1", "global_analysis.solve_1p1p1"),
    ("constructa.global_analysis", "solve_1p1", "global_analysis.solve_1p1"),
    ("constructa.global_analysis", "single_anchor_family_for", "global_analysis.single_anchor_family_for"),
    ("constructa.global_analysis", "critical_lines_2p2", "global_analysis.critical_lines_2p2"),
    ("constructa.global_analysis", "detect_pathologies", "global_analysis.detect_pathologies"),
    ("constructa.global_analysis", "polish_solution", "solver.polish_solution"),
    ("constructa.global_analysis", "brute_force_oracle", "solver.brute_force_oracle"),
    ("constructa.solver", "brute_force_oracle", "solver.brute_force_oracle"),
    ("constructa.cli", "brute_force_oracle", "solver.brute_force_oracle"),
    ("constructa.cli", "solve_multistart", "solver.solve_multistart"),
    ("constructa.cli", "build_gramian", "local_analysis.build_gramian"),
    ("constructa.cli", "numerical_gramian", "local_analysis.numerical_gramian"),
    ("constructa.local_analysis", "sensitivity", "unicycle.sensitivity"),
    ("constructa.cli", "cmd_analyze", "cli.main.analyze"),
    ("constructa.cli", "cmd_localize", "cli.main.localize"),
    ("constructa.cli", "cmd_gramian", "cli.main.gramian"),
    ("constructa.cli", "cmd_simulate", "cli.main.simulate"),
    ("constructa.scenario", "loads_scenario", "scenario.loads_scenario"),
    ("constructa.cli", "synthesize_measurements", "scenario.synthesize_measurements"),
    ("constructa.cli", "dumps_scenario", "scenario.dumps_scenario"),
)

# layers reported as self time per op, under "<name>_s"
SELF_TIMED = (
    "scenario.loads_scenario",
    "scenario.synthesize_measurements",
    "scenario.dumps_scenario",
    "global_analysis.solve_2p1",
    "global_analysis.solve_3p1",
    "global_analysis.solve_1p1p1",
    "global_analysis.solve_1p1",
    "global_analysis.single_anchor_family_for",
    "global_analysis.critical_lines_2p2",
    "global_analysis.detect_pathologies",
    "solver.polish_solution",
    "solver.solve_multistart",
    "solver.brute_force_oracle",
    "local_analysis.build_gramian",
    "local_analysis.numerical_gramian",
    "unicycle.sensitivity",
)
VERBS = ("analyze", "localize", "gramian", "simulate")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.n_ops = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.alloc_peaks: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def begin_op(self) -> None:
        self.n_ops += 1

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.n_ops - 1])
            self.stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx][1:3] = [start, end]
            self._count(self.spans[idx], args, kwargs, result)
            return result

        return wrapper

    def _count(self, span, args, kwargs, result) -> None:
        name, parent = span[0], span[3]
        if name == "solver.polish_solution":
            self.counts["polish.calls"] += 1
            self.counts["polish.accepted"] += result is not None
        elif name == "unicycle.sensitivity":
            self.counts["sensitivity.calls"] += 1
        elif name == "solver.brute_force_oracle":
            from constructa.solver import GridSpec

            if parent >= 0 and self.spans[parent][0] == "global_analysis.analyze_global":
                self.counts["oracle_fallbacks"] += 1
            grid = kwargs.get("grid", args[1] if len(args) > 1 else GridSpec())
            self.counts["oracle.calls"] += 1
            self.counts["oracle.cells"] += grid.nxy * grid.nxy * grid.phi_cells
            self.counts["oracle.clusters"] += len(result.solutions) + len(result.families)

    def install(self) -> None:
        for mod_name, attr, span in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(span, fn))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def peak_alloc(self, call):
        """Run `call` under tracemalloc and keep the peak it reached, in MB."""
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            result = call()
            self.alloc_peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
        return result

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total self time and total inclusive time per span name."""
        own: dict[str, float] = defaultdict(float)
        incl: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            own[name] += dur
            incl[name] += dur
            if parent >= 0:
                own[self.spans[parent][0]] -= dur
        return own, incl

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures: self seconds per op, counts per op or per call."""
        own, incl = self.self_times()
        n = max(self.n_ops, 1)
        calls = defaultdict(int)
        for span in self.spans:
            calls[span[0]] += 1
        out: dict[str, tuple[float, str]] = {}
        for verb in VERBS:
            name = f"cli.main.{verb}"
            out[f"{name}_s"] = (incl[name] / calls[name] if calls[name] else 0.0, "s")
        out["global_analysis.analyze_global.self_s"] = (own["global_analysis.analyze_global"] / n, "s")
        for name in SELF_TIMED:
            out[f"{name}_s"] = (own[name] / n, "s")
        out["global_analysis.oracle_fallbacks"] = (self.counts["oracle_fallbacks"], "count")
        pc, pa = self.counts["polish.calls"], self.counts["polish.accepted"]
        out["solver.polish_solution.calls"] = (pc / n, "count")
        out["solver.polish_solution.accepted"] = (pa / n, "count")
        out["solver.polish_solution.accept_ratio"] = (pa / pc if pc else 0.0, "ratio")
        oc = self.counts["oracle.calls"]
        out["solver.brute_force_oracle.cells"] = (self.counts["oracle.cells"] / oc if oc else 0.0, "count")
        out["solver.brute_force_oracle.clusters"] = (self.counts["oracle.clusters"] / oc if oc else 0.0, "count")
        out["solver.brute_force_oracle.peak_alloc_mb"] = (max(self.alloc_peaks, default=0.0), "MB")
        out["unicycle.sensitivity.calls"] = (self.counts["sensitivity.calls"] / n, "count")
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
            )


def import_times(importtime_stderr: str) -> tuple[float, float]:
    """(import constructa, scipy.* inside it), cumulative seconds, from -X importtime.

    The log is post-order: a module's line follows its children's lines,
    which are indented one level deeper. scipy time is the cumulative time
    of every scipy module whose importer is not itself a scipy module.
    """
    pending: dict[int, list] = defaultdict(list)
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|", 2)
        if not cum.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        node = (name.strip(), int(cum) / 1e6, pending.pop(depth + 1, []))
        pending[depth].append(node)

    def scipy_time(nodes) -> float:
        total = 0.0
        for name, cum, children in nodes:
            if name == "scipy" or name.startswith("scipy."):
                total += cum
            else:
                total += scipy_time(children)
        return total

    roots = pending.get(0, [])
    top = [n for n in roots if n[0] == "constructa"]
    if not top:
        raise ValueError("import log holds no top-level 'import constructa'")
    return top[0][1], scipy_time(top[0][2])
