"""Command line interface.

Verbs:
  analyze   full constructibility verdict for a scenario with ranges
  localize  solve for the placement(s), optionally by multistart or grid
  gramian   local constructibility report at a placement
  plotdata  CSV samples of solution families and loci for plotting
  simulate  synthesize ranges for a known true placement

JSON reports are deterministic for a fixed input and seed. Exit codes:
0 means uniquely constructible (or, for gramian, full rank), 2 means
ambiguous or singular, 1 means the input, the command line or the geometry
was rejected.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import asdict, replace

import numpy as np

from .errors import ConstructaError, NonPositiveInput, SchemaError
from .geom import RigidTransform2
from .global_analysis import analyze_global, locus_1p1p1, sample_family_1p1
from .local_analysis import (
    anchor_rotation_directions,
    build_gramian,
    numerical_gramian,
    singular_direction_report,
)
from .scenario import dumps_scenario, load_scenario, synthesize_measurements, with_measurements
from .solver import (
    GridSpec,
    SolverConfig,
    auto_extent,
    brute_force_oracle,
    solve_multistart,
)

SCHEMA_VERSION = 1


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _report(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _parse_transform(text: str) -> RigidTransform2:
    parts = text.split(",")
    if len(parts) != 3:
        raise SchemaError("expected a placement as 'dx,dy,phi'")
    try:
        return RigidTransform2(*(float(p) for p in parts))  # a non-finite value is a ValueError too
    except ValueError as e:
        raise SchemaError(f"bad placement {text!r}: {e}") from e


def _solution_payload(sol) -> dict:
    return {
        "dx": sol.transform.dx,
        "dy": sol.transform.dy,
        "phi": sol.transform.phi,
        "residual": sol.residual,
        "rank": sol.rank,
    }


def _solutions_payload(ss) -> dict:
    return {
        "solutions": [_solution_payload(s) for s in ss.solutions],
        "families": [
            {
                "dim": f.dim,
                "representatives": [_solution_payload(r) for r in f.representatives],
                "spread": list(f.spread),
            }
            for f in ss.families
        ],
        "warnings": list(ss.warnings),
    }


def _add_io(p: argparse.ArgumentParser) -> None:
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--out", default=None, help="write output here instead of stdout")


def _add_solver_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol-accept", type=float, default=None, help="residual acceptance gate")
    p.add_argument("--tol-rank", type=float, default=None, help="relative eigenvalue cutoff for rank")


def _add_grid_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-extent", type=float, default=None, help="half-width of the search square")
    p.add_argument("--grid-cell", type=float, default=None, help="target grid cell size in meters")
    p.add_argument("--phi-cells", type=int, default=None, help="heading cells for the grid search")


def _load(args) -> "Scenario":
    s = load_scenario(args.scenario)
    if getattr(args, "tol_rank", None) is not None:
        s = replace(s, tolerances=replace(s.tolerances, rank=args.tol_rank))
    return s


def _config(args) -> SolverConfig:
    kw = {"seed": getattr(args, "seed", 0)}
    if getattr(args, "tol_accept", None) is not None:
        kw["accept_tol"] = args.tol_accept
    return SolverConfig(**kw)


def _grid(args, s) -> GridSpec | None:
    extent = getattr(args, "grid_extent", None)
    cell = getattr(args, "grid_cell", None)
    phi_cells = getattr(args, "phi_cells", None)
    if extent is None and cell is None and phi_cells is None:
        return None
    kw = {}
    if extent is not None:
        kw["extent"] = extent
    if phi_cells is not None:
        kw["phi_cells"] = phi_cells
    grid = GridSpec(**kw)  # checks the extent before it sizes the cells
    if cell is None:
        return grid
    if not (math.isfinite(cell) and cell > 0.0):
        raise NonPositiveInput("grid cell must be positive and finite")
    reach = grid.extent if grid.extent is not None else auto_extent(s)
    if not math.isfinite(reach / cell):
        raise NonPositiveInput("grid cell too small for the extent")
    return replace(grid, nxy=max(9, 2 * math.ceil(reach / cell) + 1))


def cmd_analyze(args) -> int:
    s = _load(args)
    ga = analyze_global(s, _config(args), _grid(args, s))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "analyze",
        "input_sha256": _sha256(args.scenario),
        "verdict": ga.verdict.value,
        "ind": {
            "count": ga.ind.count,
            "family_dim": ga.ind.family_dim,
            "rendered": ga.ind.render(),
        },
        "raw_counts": list(ga.raw_counts),
        "informative_counts": list(ga.informative_counts),
        "anchor_classes": [[aid, cls] for aid, cls in ga.anchor_classes],
        "counting_sufficient": ga.counting_sufficient,
        "degenerate_case": ga.degenerate_case,
        "critical_line_hit": ga.critical_line_hit,
        "method": ga.method,
        "pathologies": asdict(ga.pathologies),
        **_solutions_payload(ga.solutions),
    }
    _emit(_report(payload), args.out)
    return 0 if ga.ind.is_unique else 2


def cmd_localize(args) -> int:
    s = _load(args)
    config = _config(args)
    grid = _grid(args, s)
    if args.method == "multistart":
        ss = solve_multistart(s, config)
        method = "multistart"
        ind = ss.ind_class
    elif args.method == "oracle":
        ss = brute_force_oracle(s, grid or GridSpec(), config)
        method = "grid-oracle"
        ind = ss.ind_class
    else:
        ga = analyze_global(s, config, grid)
        ss = ga.solutions
        method = ga.method
        ind = ga.ind
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "localize",
        "input_sha256": _sha256(args.scenario),
        "method": method,
        "ind": {"count": ind.count, "family_dim": ind.family_dim, "rendered": ind.render()},
        **_solutions_payload(ss),
    }
    _emit(_report(payload), args.out)
    return 0 if ind.is_unique else 2


def cmd_gramian(args) -> int:
    s = _load(args)
    placement = _parse_transform(args.placement) if args.placement else None
    report = build_gramian(s, placement)
    directions = anchor_rotation_directions(s, placement)
    checked = singular_direction_report(report.matrix, directions, s.tolerances.rank)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "gramian",
        "input_sha256": _sha256(args.scenario),
        "matrix": [[float(x) for x in row] for row in report.matrix],
        "eigenvalues": [float(x) for x in report.eigenvalues],
        "rank": report.rank,
        "null_basis": [[float(x) for x in col] for col in report.null_basis.T],
        "final_position": [report.final_position.x, report.final_position.y],
        "singular_directions": [asdict(d) for d in checked],
    }
    if args.numeric:
        num = numerical_gramian(s, placement)
        payload["numeric_max_diff"] = float(np.max(np.abs(num - report.matrix)))
    _emit(_report(payload), args.out)
    return 0 if report.rank == 3 else 2


def cmd_plotdata(args) -> int:
    s = _load(args)
    rows: list[list] = []
    if args.what == "family":
        header = ["loop", "dx", "dy", "phi"]
        for li, loop in enumerate(sample_family_1p1(s, args.samples)):
            for dx, dy, phi in loop:
                rows.append([li, dx, dy, phi])
    elif args.what == "locus":
        header = ["arc", "branch", "phi", "dx", "dy", "g"]
        for row in locus_1p1p1(s, args.samples):
            rows.append([int(row[0]), int(row[1]), row[2], row[3], row[4], row[5]])
    else:
        header = ["kind", "index", "dx", "dy", "phi", "residual", "rank"]
        ss = brute_force_oracle(s, _grid(args, s) or GridSpec(), _config(args))
        for i, sol in enumerate(ss.solutions):
            rows.append(
                ["isolated", i, sol.transform.dx, sol.transform.dy, sol.transform.phi, sol.residual, sol.rank]
            )
        for fi, fam in enumerate(ss.families):
            for sol in fam.representatives:
                rows.append(
                    ["family", fi, sol.transform.dx, sol.transform.dy, sol.transform.phi, sol.residual, sol.rank]
                )
    out = sys.stdout if args.out is None else open(args.out, "w", encoding="utf-8", newline="")
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if args.out is not None:
            out.close()
    return 0


def cmd_simulate(args) -> int:
    s = _load(args)
    truth = _parse_transform(args.truth)
    m = synthesize_measurements(s, truth, noise_std=args.noise, seed=args.seed)
    _emit(dumps_scenario(with_measurements(s, m)) + "\n", args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a bad command line is rejected input: exit 1, one line, as for a bad file
        self.exit(1, f"error: {message}\n")


# options whose value is a placement 'dx,dy,phi'; argparse would read a leading
# minus sign in a separate value as the start of another option
_PLACEMENT_OPTIONS = ("--placement", "--truth")


def _attach_placements(argv) -> list[str]:
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _PLACEMENT_OPTIONS:
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="constructa",
        description="Decide whether range measurements pin a planar trajectory's placement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="constructibility verdict and solution set")
    _add_io(p)
    _add_solver_opts(p)
    _add_grid_opts(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("localize", help="solve for the placement(s)")
    _add_io(p)
    _add_solver_opts(p)
    _add_grid_opts(p)
    p.add_argument("--method", choices=("auto", "multistart", "oracle"), default="auto")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized starts")
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("gramian", help="local constructibility report")
    _add_io(p)
    p.add_argument("--tol-rank", type=float, default=None, help="relative eigenvalue cutoff for rank")
    p.add_argument("--placement", default=None, help="evaluate at this placement 'dx,dy,phi'")
    p.add_argument("--numeric", action="store_true", help="cross-check against the flow's transition matrices")
    p.set_defaults(func=cmd_gramian)

    p = sub.add_parser("plotdata", help="CSV samples for plotting")
    _add_io(p)
    _add_solver_opts(p)
    _add_grid_opts(p)
    p.add_argument("--what", choices=("family", "locus", "oracle"), required=True)
    p.add_argument("--samples", type=int, default=512)
    p.set_defaults(func=cmd_plotdata)

    p = sub.add_parser("simulate", help="synthesize ranges for a true placement")
    _add_io(p)
    p.add_argument("--truth", required=True, help="true placement 'dx,dy,phi'")
    p.add_argument("--noise", type=float, default=0.0, help="range noise standard deviation")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_placements(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ConstructaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
