"""Seeded inputs for every workload.

Every geometry is drawn from `numpy.random.default_rng(seed)`, so one seed
always gives the same inputs. The program only ever sees the scenario texts
made here; the truths, the expected classes and the ranges stay with the
benchmark, which computes them itself.

Draw rules (all lengths in metres, angles in radians):

- anchors and vehicle-frame points are uniform in a 10 m box with at least
  0.1 m between any two of them;
- the true placement has dx, dy uniform in [-1, 1] and phi uniform in
  [-pi, pi);
- ranges are the benchmark's own distances at the truth, noise free.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

BOX = 10.0
MIN_SEP = 0.1
TRUTH_SPAN = 1.0

# anchor id per measurement, in schedule order
PATTERNS = {
    "2+1": (1, 1, 2),
    "3+1": (1, 1, 1, 2),
    "1+1+1": (1, 2, 3),
    "2+2": (1, 1, 2, 2),
    "2+1+1": (1, 1, 2, 3),
    "3+2": (1, 1, 1, 2, 2),
    "1+1+1+1": (1, 2, 3, 4),
    "2+2+2": (1, 1, 2, 2, 3, 3),
}

# most isolated placements a pattern can leave: its own bound for 2+1, 3+1
# and 1+1+1, the bound of its leading sub-pattern for the larger ones
BOUNDS = {
    "2+1": 4,
    "3+1": 2,
    "1+1+1": 8,
    "2+2": 4,
    "2+1+1": 4,
    "3+2": 2,
    "1+1+1+1": 8,
    "2+2+2": 4,
}

FAMILY_KINDS = ("1a-coincident", "1a-collinear", "1a-generic", "1+1")
# least clearance, in metres, of a drawn 1+1 geometry from a change of class
LOOP_MARGIN = 1.0

# The program's 1+1+1 sweep samples a heading arc 2048 times and can miss one
# of two roots that share a sample interval. A draw like that fails on some
# seeds only, so three-single draws whose roots lie closer than two sweep
# intervals are redrawn; CLOSE_ROOTS keeps one such input in every round.
MIN_ROOT_GAP = 2.0 * 2.0 * math.pi / 2048
CLOSE_ROOTS_ANCHORS = (
    (-2.6950504751253423, 4.866131846641617),
    (0.20540916249864516, -2.0590488183878186),
    (2.2014515039320672, 2.1261858090795),
)
CLOSE_ROOTS_POINTS = (
    (4.922424775887617, 0.2647260465140464),
    (-4.7291545739726075, 0.7817698888986016),
    (-2.2555778707038856, 4.648739820652295),
)
CLOSE_ROOTS_TRUTH = (-0.4992469634127381, -0.8214088873025074, -0.738494200190341)

# Two 1+1 loops that the oracle merges at its default grid (it reports
# Ind(∞) without a warning; the closed form and a 401²×720 grid give
# Ind(2×∞)). Fixed, so it fails on every run whatever the seed.
LOOP_MERGE_ANCHORS = ((-3.0921, -0.4008), (-1.3818, -3.2927))
LOOP_MERGE_POINTS = ((-2.7865, 4.6251), (3.8422, -1.1771))
LOOP_MERGE_RHO = (7.9647, 4.4440)


@dataclass(frozen=True)
class Case:
    """One scenario with everything the benchmark knows about it.

    `anchors` holds the anchor of each measurement, row for row with `pts`
    and `rho`. `bound` is set for finite patterns, `family` = (branches,
    dim) for continuous families; `known_fault` marks the pinned input on
    which the program is known to answer wrongly.
    """

    kind: str
    text: str
    truth: tuple[float, float, float] | None
    pts: np.ndarray
    anchors: np.ndarray
    rho: np.ndarray | None
    bound: int | None = None
    family: tuple[int, int] | None = None
    known_fault: bool = False


def place(truth, pts: np.ndarray) -> np.ndarray:
    """World positions of vehicle-frame points under (dx, dy, phi)."""
    dx, dy, phi = truth
    c, s = math.cos(phi), math.sin(phi)
    return np.column_stack((c * pts[:, 0] - s * pts[:, 1] + dx, s * pts[:, 0] + c * pts[:, 1] + dy))


def ranges_at(truth, pts: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    return np.linalg.norm(place(truth, pts) - anchors, axis=1)


def scenario_text(anchor_xy, pts, schedule, rho=None, extra=None) -> str:
    """Scenario JSON in the documented file format, ids numbered from 1."""
    doc = {
        "anchors": [{"id": i, "x": float(x), "y": float(y)} for i, (x, y) in enumerate(anchor_xy, start=1)],
        "schedule": [int(a) for a in schedule],
    }
    if pts is not None:
        doc["points_v"] = [{"x": float(x), "y": float(y)} for x, y in pts]
    if rho is not None:
        doc["rho"] = [float(r) for r in rho]
    doc.update(extra or {})
    return json.dumps(doc)


def _features(rng, n: int) -> np.ndarray:
    while True:
        feats = rng.uniform(-BOX / 2.0, BOX / 2.0, size=(n, 2))
        gaps = np.linalg.norm(feats[None, :, :] - feats[:, None, :], axis=2)
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() >= MIN_SEP:
            return feats


def _truth(rng) -> tuple[float, float, float]:
    return (
        float(rng.uniform(-TRUTH_SPAN, TRUTH_SPAN)),
        float(rng.uniform(-TRUTH_SPAN, TRUTH_SPAN)),
        float(rng.uniform(-math.pi, math.pi)),
    )


def _case(kind, anchor_xy, pts, schedule, truth, **kw) -> Case:
    anchors = np.asarray(anchor_xy)[np.asarray(schedule) - 1]
    rho = ranges_at(truth, pts, anchors)
    return Case(kind, scenario_text(anchor_xy, pts, schedule, rho), truth, pts, anchors, rho, **kw)


def finite_case(rng, kind: str) -> Case:
    schedule = PATTERNS[kind]
    n_anchors = max(schedule)
    while True:
        feats = _features(rng, n_anchors + len(schedule))
        case = _case(kind, feats[:n_anchors], feats[n_anchors:], schedule, _truth(rng), bound=BOUNDS[kind])
        if not kind.startswith("1+1+1") or min_root_gap(case) >= MIN_ROOT_GAP:
            return case


def min_root_gap(case: Case, samples: int = 2**13) -> float:
    """Smallest heading gap between consecutive roots of the third range.

    The first two ranges leave, for each heading phi, up to two placements
    (point 0 on its circle about anchor 0 and on the circle about anchor 1
    shifted back by R(phi)(q1 - q0)); the third range is a scalar along each
    of those two sheets. Roots are its sign changes on a fine heading grid;
    a pair closer than the grid spacing reads as a gap of 0.
    """
    q, b, r = case.pts[:3], case.anchors[:3], case.rho[:3]
    phi = np.linspace(-math.pi, math.pi, samples, endpoint=False)
    c, s = np.cos(phi), np.sin(phi)
    vx, vy = q[1] - q[0]
    ex = b[1, 0] - (c * vx - s * vy) - b[0, 0]
    ey = b[1, 1] - (s * vx + c * vy) - b[0, 1]
    dist = np.maximum(np.hypot(ex, ey), 1e-300)
    along = (r[0] ** 2 - r[1] ** 2 + dist * dist) / (2.0 * dist)
    h2 = r[0] ** 2 - along * along
    h = np.sqrt(np.maximum(h2, 0.0)) / dist
    live = (h2[:-1] >= 0.0) & (h2[1:] >= 0.0)
    # point 2 relative to point 0, rotated, then shifted to anchor 2
    wx, wy = q[2] - q[0]
    px = b[0, 0] + along / dist * ex + c * wx - s * wy - b[2, 0]
    py = b[0, 1] + along / dist * ey + s * wx + c * wy - b[2, 1]
    live3 = live[:-1] & live[1:]
    gap = 2.0 * math.pi
    for sign in (1.0, -1.0):
        g = np.hypot(px - sign * h * ey, py + sign * h * ex) - r[2]
        roots = phi[:-1][live & (g[:-1] * g[1:] < 0.0)]
        if roots.size > 1:
            gap = min(gap, float(np.min(np.diff(roots))))
        # two roots inside one sample interval leave an extremum of g whose
        # parabola through the three samples around it crosses zero
        gm, g0, gp = g[:-2], g[1:-1], g[2:]
        curv = gp - 2.0 * g0 + gm
        with np.errstate(divide="ignore", invalid="ignore"):
            vertex = g0 - (gp - gm) ** 2 / (8.0 * curv)
        hidden = live3 & (gm * g0 > 0.0) & (gp * g0 > 0.0) & ((g0 - gm) * (gp - g0) <= 0.0) & (vertex * g0 < 0.0)
        if np.any(hidden):
            return 0.0
    return gap


def margins_1p1(anchor_gap: float, point_gap: float, rho0: float, rho1: float) -> tuple[float, float]:
    """Signed clearance of each end of the distance sweep from its range cut.

    Negative at the low end (high end) means headings around the nearest
    (farthest) reach are cut off.
    """
    return (
        abs(anchor_gap - point_gap) - abs(rho0 - rho1),
        rho0 + rho1 - (anchor_gap + point_gap),
    )


def class_1p1(anchor_gap: float, point_gap: float, rho0: float, rho1: float) -> tuple[int, int]:
    """(branches, dim) of the placements left by one range to each of two anchors.

    Turning the vehicle sweeps the distance between the first anchor and the
    spot where the second point must sit over [|D - S|, D + S]; a heading
    carries placements where that distance lies in [|r0 - r1|, r0 + r1].
    With neither end cut, the two mirror sheets never meet: two loops. With
    both ends cut, two separate heading arcs remain, each closing into one
    loop. With one end cut, one arc remains and its sheets join: one loop.
    """
    lo, hi = margins_1p1(anchor_gap, point_gap, rho0, rho1)
    return (1 if (lo < 0.0) != (hi < 0.0) else 2), 1


def family_case(rng, kind: str) -> Case:
    truth = _truth(rng)
    if kind == "1+1":
        # Both ends of the distance sweep clear their cut by at least
        # LOOP_MARGIN, so the class cannot flip within the oracle's default
        # admission threshold (a few tenths of a metre on this box).
        while True:
            feats = _features(rng, 4)
            case = _case(kind, feats[:2], feats[2:], (1, 2), truth)
            gaps = (float(np.linalg.norm(feats[0] - feats[1])), float(np.linalg.norm(feats[2] - feats[3])))
            if min(np.abs(margins_1p1(*gaps, *case.rho))) >= LOOP_MARGIN:
                return replace(case, family=class_1p1(*gaps, *case.rho))
            truth = _truth(rng)
    if kind == "1a-coincident":
        feats = _features(rng, 2)
        pts = np.repeat(feats[1:], 3, axis=0)
        return _case(kind, feats[:1], pts, (1, 1, 1), truth, family=(1, 2))
    if kind == "1a-generic":
        feats = _features(rng, 4)
        return _case(kind, feats[:1], feats[1:], (1, 1, 1), truth, family=(1, 1))
    if kind == "1a-collinear":
        # Points on one world line with the anchor 0.5 to 3 m off it, so the
        # class (two mirrored loops) holds by a clear margin.
        anchor = rng.uniform(-BOX / 4.0, BOX / 4.0, size=2)
        ang = rng.uniform(-math.pi, math.pi)
        u = np.array([math.cos(ang), math.sin(ang)])
        foot = anchor + rng.uniform(0.5, 3.0) * np.array([-u[1], u[0]])
        ts = np.sort(rng.uniform(-3.0, 3.0, size=3))
        ts = ts + np.array([0.0, 0.3, 0.6])
        world = foot + ts[:, None] * u
        dx, dy, phi = truth
        c, s = math.cos(phi), math.sin(phi)
        rel = world - np.array([dx, dy])
        pts = np.column_stack((c * rel[:, 0] + s * rel[:, 1], -s * rel[:, 0] + c * rel[:, 1]))
        return _case(kind, anchor[None, :], pts, (1, 1, 1), truth, family=(2, 1))
    raise ValueError(f"unknown family kind {kind}")


def close_roots_case() -> Case:
    """A 1+1+1 whose truth the closed form misses: 5 placements, the oracle finds 6."""
    case = _case(
        "1+1+1-close-roots",
        np.array(CLOSE_ROOTS_ANCHORS),
        np.array(CLOSE_ROOTS_POINTS),
        PATTERNS["1+1+1"],
        CLOSE_ROOTS_TRUTH,
        bound=BOUNDS["1+1+1"],
    )
    return replace(case, known_fault=True)


def loop_merge_case() -> Case:
    anchors = np.array(LOOP_MERGE_ANCHORS)
    pts = np.array(LOOP_MERGE_POINTS)
    rho = np.array(LOOP_MERGE_RHO)
    text = scenario_text(anchors, pts, (1, 2), rho)
    fam = class_1p1(
        float(np.linalg.norm(anchors[0] - anchors[1])), float(np.linalg.norm(pts[0] - pts[1])), *rho
    )
    return Case("1+1-loop-merge", text, None, pts, anchors, rho, family=fam, known_fault=True)


# Fixed one-dimensional one-anchor geometries; see README for why these
# families are not drawn per seed. The first two the default-grid oracle
# classifies right. On the last two it is wrong on every run: it reports
# Ind(∞) for the two collinear loops and Ind(1) for the generic loop.
PINNED_FAMILIES = (
    # (kind, anchors, points, schedule, truth, (branches, dim), known_fault)
    ("1a-collinear-pinned", ((0.0, 0.0),), ((1.0, 0.0), (1.7, 0.0), (2.4, 0.0)), (1, 1, 1), (0.2, 1.8, 0.4), (2, 1), False),
    ("1a-generic-pinned", ((0.0, 0.0),), ((1.0, 0.0), (0.5, 1.0), (1.2, 0.8)), (1, 1, 1), (0.2, -0.1, 0.3), (1, 1), False),
    (
        "1a-collinear-misclassified",
        ((-0.8820423919293618, 2.156059326878169),),
        ((0.5230853380924325, -1.394406112171106), (0.0990612682049532, -2.148443205750688),
         (-1.9604749438308922, -5.810892603629238)),
        (1, 1, 1),
        (0.3954724329535706, -0.37237145555513673, -2.3800888227496246),
        (2, 1),
        True,
    ),
    (
        "1a-generic-misclassified",
        ((3.601187866525944, 1.4131748078816466),),
        ((0.48363208813313907, 2.623134225311933), (2.163143826400404, -0.32831246089148003),
         (0.7245893818264708, 2.4632236009131168)),
        (1, 1, 1),
        (0.661966637778223, -0.27810666633148684, 1.2738486260209596),
        (1, 1),
        True,
    ),
)


def pinned_family_cases() -> list[Case]:
    return [
        _case(kind, np.array(anchors), np.array(pts), schedule, truth, family=fam, known_fault=fault)
        for kind, anchors, pts, schedule, truth, fam, fault in PINNED_FAMILIES
    ]


def unicycle_points(segments, times) -> np.ndarray:
    """Positions at `times` under piecewise-constant (v, omega, duration) controls.

    Starts at the origin heading along +x; each segment is integrated in
    closed form (a circular arc, or a straight line when omega is 0).
    """
    out = []
    for t in times:
        x = y = th = 0.0
        elapsed = 0.0
        for v, omega, duration in segments:
            dt = min(duration, t - elapsed)
            if dt <= 0.0:
                break
            if abs(omega) > 1e-12:
                th1 = th + omega * dt
                x += v / omega * (math.sin(th1) - math.sin(th))
                y -= v / omega * (math.cos(th1) - math.cos(th))
                th = th1
            else:
                x += v * dt * math.cos(th)
                y += v * dt * math.sin(th)
            elapsed += duration
        out.append((x, y))
    return np.array(out)


def driven_case(rng) -> Case:
    """Three anchors ranging a unicycle path twice each, no ranges stored."""
    segments = [
        (float(rng.uniform(0.6, 1.4)), float(rng.uniform(-0.9, 0.9)), float(rng.uniform(1.5, 2.5)))
        for _ in range(3)
    ]
    total = sum(seg[2] for seg in segments)
    while True:
        times = np.sort(rng.uniform(0.2, total - 0.2, size=6))
        if np.min(np.diff(times)) >= 0.2:
            break
    anchor_xy = _features(rng, 3)
    schedule = (1, 2, 3, 1, 2, 3)
    truth = _truth(rng)
    pts = unicycle_points(segments, times)
    extra = {
        "controls": [{"v": v, "omega": w, "duration": d} for v, w, d in segments],
        "sample_times": [float(t) for t in times],
    }
    anchors = anchor_xy[np.asarray(schedule) - 1]
    text = scenario_text(anchor_xy, None, schedule, None, extra)
    return Case("driven", text, truth, pts, anchors, ranges_at(truth, pts, anchors))


def geometry_text(case: Case, schedule) -> str:
    """The case's scenario without its ranges, as `simulate` takes it."""
    anchor_xy = [case.anchors[list(schedule).index(i)] for i in range(1, max(schedule) + 1)]
    return scenario_text(anchor_xy, case.pts, schedule)


# a double_double-shaped scenario with one coordinate NaN, which JSON accepts
NAN_TEXT = scenario_text(
    ((0.0, 0.0), (3.0, 0.0)),
    ((0.0, 0.0), (1.0, 0.2), (math.nan, 0.9), (1.5, 1.1)),
    (1, 1, 2, 2),
    (1.0, 1.0, 2.5, 2.0),
)
