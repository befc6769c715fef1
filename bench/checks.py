"""Output checks made apart from the program.

Every check takes plain data (placements as (dx, dy, phi) tuples, classes
as (count, dim) pairs, parsed CLI reports) and returns a list of problems;
an empty list means the output passed. Residuals, ranges, ranks and
Gramians are recomputed here with numpy from the benchmark's own inputs.
"""

from __future__ import annotations

import math

import numpy as np

# own residual of a reported placement, metres
RESIDUAL_TOL = 1e-6
# agreement of two placements (truth recovery, oracle against closed form)
MATCH_XY = 1e-5
MATCH_PHI = 1e-5
# closed-form against integrated Gramian, relative to the largest eigenvalue
GRAMIAN_REL = 1e-6
# reported Gramian against the benchmark's own, relative to its largest entry
MATRIX_REL = 1e-9
# relative eigenvalue cutoff for rank, the program's documented default
RANK_REL = 1e-8
RANGE_TOL = 1e-9


def residual(case, t) -> float:
    """max_k | |R(phi) p_k + d - b_k| - rho_k | at placement t."""
    dx, dy, phi = t
    c, s = math.cos(phi), math.sin(phi)
    wx = c * case.pts[:, 0] - s * case.pts[:, 1] + dx
    wy = s * case.pts[:, 0] + c * case.pts[:, 1] + dy
    return float(np.max(np.abs(np.hypot(wx - case.anchors[:, 0], wy - case.anchors[:, 1]) - case.rho)))


def same(a, b) -> bool:
    dphi = (a[2] - b[2] + math.pi) % (2.0 * math.pi) - math.pi
    return abs(a[0] - b[0]) <= MATCH_XY and abs(a[1] - b[1]) <= MATCH_XY and abs(dphi) <= MATCH_PHI


def placements(case, transforms) -> list[str]:
    out = []
    for t in transforms:
        r = residual(case, t)
        if not r <= RESIDUAL_TOL:
            out.append(f"{case.kind}: placement {t} has residual {r:.3e}")
    return out


def finite(case, solutions, ind) -> list[str]:
    """Isolated answer: class, pattern bound, residuals and the truth."""
    out = placements(case, solutions)
    count, dim = ind
    if dim != 0 or count != len(solutions):
        out.append(f"{case.kind}: class {ind} does not match {len(solutions)} isolated placements")
    if not 1 <= len(solutions) <= case.bound:
        out.append(f"{case.kind}: {len(solutions)} placements, pattern bound {case.bound}")
    if not any(same(case.truth, t) for t in solutions):
        out.append(f"{case.kind}: truth {case.truth} is not among {len(solutions)} placements")
    return out


def family(case, ind, representatives=()) -> list[str]:
    out = placements(case, representatives)
    if tuple(ind) != tuple(case.family):
        out.append(f"{case.kind}: class (count, dim) {tuple(ind)}, geometry gives {case.family}")
    return out


def same_set(a, b, what: str) -> list[str]:
    if len(a) != len(b):
        return [f"{what}: {len(a)} placements against {len(b)}"]
    if not all(any(same(t, u) for u in b) for t in a) or not all(any(same(u, t) for t in a) for u in b):
        return [f"{what}: placement sets differ"]
    return []


def gramian_rows(world: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Range sensitivity to a rigid motion of the final pose, one row per range.

    Moving the final pose by (ex, ey, etheta) moves a world point w by
    (ex - etheta (w_y - f_y), ey + etheta (w_x - f_x)); the range to b
    changes by the unit sightline u = (w - b)/|w - b| dotted with that.
    """
    f = world[-1]
    e = world - anchors
    u = e / np.linalg.norm(e, axis=1)[:, None]
    moment = u[:, 0] * (f[1] - world[:, 1]) - u[:, 1] * (f[0] - world[:, 0])
    return np.column_stack((u, moment))


def gramian(report: dict, rows: np.ndarray) -> list[str]:
    g = rows.T @ rows
    out = []
    sv = np.linalg.svd(rows, compute_uv=False)
    rank = int(np.sum(sv * sv > RANK_REL * sv[0] * sv[0]))
    if report["rank"] != rank:
        out.append(f"gramian: rank {report['rank']}, own Jacobian gives {rank}")
    scale = float(np.max(np.abs(g)))
    diff = float(np.max(np.abs(np.array(report["matrix"]) - g)))
    if not diff <= MATRIX_REL * scale:
        out.append(f"gramian: matrix differs from own Gramian by {diff:.3e}")
    lam_max = float(np.linalg.eigvalsh(g)[-1])
    nd = report.get("numeric_max_diff")
    if nd is None or not nd <= GRAMIAN_REL * lam_max:
        out.append(f"gramian: numeric_max_diff {nd} above {GRAMIAN_REL} x {lam_max:.3e}")
    return out


def simulated(doc: dict, expected_rho: np.ndarray) -> list[str]:
    rho = np.array(doc.get("rho", []), dtype=float)
    if rho.shape != expected_rho.shape:
        return [f"simulate: {rho.size} ranges, expected {expected_rho.size}"]
    err = float(np.max(np.abs(rho - expected_rho)))
    return [] if err <= RANGE_TOL else [f"simulate: ranges off by {err:.3e}"]


def exit_code(verb: str, code: int, expected: int) -> list[str]:
    return [] if code == expected else [f"{verb}: exit code {code}, contract says {expected}"]


def rejected(code: int, stderr: str) -> list[str]:
    """Rejected input: exit 1 and exactly one stderr line starting 'error:'."""
    lines = stderr.strip().splitlines()
    if code == 1 and len(lines) == 1 and lines[0].startswith("error:"):
        return []
    return [f"rejected input: exit {code} with {len(lines)} stderr lines, first {lines[:1]}"]
