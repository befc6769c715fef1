"""Global placement ambiguity analysis for range-measured trajectories.

Answers, for a scenario, whether the measured ranges pin the trajectory's
world placement uniquely, and if not, what the set of indistinguishable
placements looks like: how many isolated alternatives, or which continuous
families. Small measurement patterns get exact constructions (one anchor;
one range from each of two or three anchors; two or three ranges from one
anchor plus one from another). Larger patterns reduce to a small prefix whose
finite candidate set is then filtered against the remaining ranges. Anything
degenerate falls back to the dense grid oracle in the solver module. `_route`
picks the construction for a pattern; `analyze_global` accepts its answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np
from numpy.polynomial.polynomial import polydiv, polyroots

from .errors import (
    ConstructaError,
    DegenerateInput,
    EmptyDomain,
    MissingMeasurements,
    MixedAnchors,
    NoAmbiguity,
    NonPositiveInput,
    PathologicalConfiguration,
)
from .geom import (
    Circle,
    IntersectKind,
    Line2,
    Point2,
    RigidTransform2,
    circle_circle_intersect,
    collinear,
    perpendicular_bisector,
    point_line_distance,
    wrap_angle,
)
from .scenario import (
    INFORMATIVE_COUNT,
    AnchorSetClass,
    Measurements,
    MeasurementSchedule,
    Scenario,
    TrajectoryV,
    anchor_point_sets,
    classify_measurement_set,
)
from .solver import (
    GridSpec,
    IndClass,
    Solution,
    SolutionSet,
    SolverConfig,
    _same_transform,
    brute_force_oracle,
    dedup_solutions,
    polish_solution,
    residuals,
)

__all__ = [
    "IndClass",
    "delta_angle",
    "SingleAnchorFamily",
    "single_anchor_family",
    "single_anchor_family_for",
    "Family1p1",
    "solve_1p1",
    "sample_family_1p1",
    "Result2p1",
    "Branch2p1",
    "solve_2p1",
    "Result3p1",
    "solve_3p1",
    "Result1p1p1",
    "solve_1p1p1",
    "locus_1p1p1",
    "CriticalLineKind",
    "CriticalLine",
    "critical_lines_next_point",
    "critical_lines_2p2",
    "DegenerateFlags",
    "detect_pathologies",
    "Verdict",
    "GlobalAnalysis",
    "sufficient_counts",
    "analyze_global",
    "sub_scenario",
]


def _angle(p: Point2, q: Point2) -> float:
    """Direction of q as seen from p."""
    return math.atan2(q.y - p.y, q.x - p.x)


def _mod_pi_diff(a: float, b: float) -> float:
    """Distance between two undirected line angles."""
    d = abs(wrap_angle(a - b))
    return min(d, math.pi - d)


def _rotate(p: Point2, phi: float) -> Point2:
    c, s = math.cos(phi), math.sin(phi)
    return Point2(c * p.x - s * p.y, s * p.x + c * p.y)


def _correspondence(a0: Point2, a1: Point2, b0: Point2, b1: Point2) -> RigidTransform2:
    """Rigid transform mapping a0 -> b0 and a1 -> b1 (segments must match)."""
    tau = _angle(b0, b1) - _angle(a0, a1)
    ra0 = _rotate(a0, tau)
    return RigidTransform2(b0.x - ra0.x, b0.y - ra0.y, tau)


def sub_scenario(s: Scenario, indices) -> Scenario:
    """Scenario restricted to the given measurement indices, order kept."""
    idx = tuple(indices)
    if s.measurements is None:
        raise MissingMeasurements("sub-scenario needs ranges")
    pts = tuple(s.trajectory.points[k] for k in idx)
    head = tuple(s.trajectory.headings[k] for k in idx) if s.trajectory.headings is not None else None
    return Scenario(
        anchors=s.anchors,
        trajectory=TrajectoryV(pts, head),
        schedule=MeasurementSchedule(tuple(s.schedule.anchor_ids[k] for k in idx)),
        measurements=Measurements(tuple(float(s.measurements.rho[k]) for k in idx)),
        tolerances=s.tolerances,
    )


def delta_angle(rho0: float, rho1: float, separation: float, tol: float = 1e-9) -> tuple[float, ...]:
    """Possible angles subtended at an anchor by two points.

    Given both ranges and the rigid distance between the two points, the
    angle between the sightlines is fixed up to sign by the cosine rule.
    Returns the distinct candidates, infeasible triangles raise EmptyDomain.
    """
    if rho0 <= 0.0 or rho1 <= 0.0:
        raise NonPositiveInput("ranges must be positive to subtend an angle")
    if separation < 0.0:
        raise NonPositiveInput("separation must be nonnegative")
    c = (rho0 * rho0 + rho1 * rho1 - separation * separation) / (2.0 * rho0 * rho1)
    if not math.isfinite(c):
        raise ConstructaError("subtended angle overflows: lengths too large to square in floating point")
    if c > 1.0 + tol or c < -1.0 - tol:
        raise EmptyDomain(f"no triangle with sides {rho0}, {rho1} and base {separation}")
    c = min(1.0, max(-1.0, c))
    d = math.acos(c)
    if d <= tol:
        return (0.0,)
    if d >= math.pi - tol:
        return (-math.pi,)
    return (-d, d)


# ---------------------------------------------------------------------------
# one anchor


@dataclass(frozen=True)
class SingleAnchorFamily:
    """Shape of the placement family when every range shares one anchor."""

    anchor_class: AnchorSetClass
    ind: IndClass
    anchor_on_line: bool = False
    line_offset: float | None = None


def single_anchor_family(
    points_v, ranges, collinear_tol: float = 1e-9, degenerate_tol: float = 1e-7
) -> SingleAnchorFamily:
    """Classify the indistinguishable set for ranges from a single anchor.

    A coincident point set away from the anchor leaves a two-parameter
    family. A collinear set leaves one loop of placements per side of the
    line the anchor can be on, so two unless the anchor sits on the line
    itself. Any richer set still leaves the one-parameter rotation family
    about the anchor. Ranges incompatible with the rigid geometry raise
    EmptyDomain.
    """
    pts = list(points_v)
    rho = [float(r) for r in ranges]
    if len(pts) != len(rho) or not pts:
        raise NonPositiveInput("need one range per point")
    cls = classify_measurement_set(pts, rho, collinear_tol)
    if cls is AnchorSetClass.C1:
        if max(rho) - min(rho) > degenerate_tol:
            raise EmptyDomain("coincident points cannot have different ranges")
        return SingleAnchorFamily(cls, IndClass.family(2))
    if cls is AnchorSetClass.C2:
        arr = np.array([[p.x, p.y] for p in pts])
        center = arr.mean(axis=0)
        _, _, vt = np.linalg.svd(arr - center, full_matrices=False)
        v = vt[0]
        t = (arr - center) @ v
        # with consistent ranges |u| <= 2 big and |t - u| <= big, so no square the fit takes exceeds 16 big^2
        big = max(float(np.max(np.abs(t))), max(rho))
        if not math.isfinite(16.0 * big * big):
            raise ConstructaError("collinear fit overflows: lengths too large to square in floating point")
        # anchor foot u and squared offset h2 from rho_k^2 = (t_k - u)^2 + h2
        a = np.column_stack((-2.0 * t, np.ones_like(t)))
        rhs = np.array(rho) ** 2 - t * t
        (u, c), *_ = np.linalg.lstsq(a, rhs, rcond=None)
        h2 = c - u * u
        pred = np.sqrt(np.maximum((t - u) ** 2 + max(h2, 0.0), 0.0))
        if float(np.max(np.abs(pred - np.array(rho)))) > max(degenerate_tol, 1e3 * collinear_tol):
            raise EmptyDomain("ranges are inconsistent with the collinear geometry")
        # on the line each range is the distance along it; h2 is a difference of squares, too noisy to test
        if float(np.max(np.abs(np.abs(t - u) - np.array(rho)))) <= degenerate_tol:
            return SingleAnchorFamily(cls, IndClass.family(1), anchor_on_line=True, line_offset=0.0)
        return SingleAnchorFamily(cls, IndClass.family(1, branches=2), line_offset=math.sqrt(max(h2, 0.0)))
    return SingleAnchorFamily(cls, IndClass.family(1))


def single_anchor_family_for(s: Scenario) -> SingleAnchorFamily:
    ids = set(s.schedule.anchor_ids)
    if len(ids) != 1:
        raise MixedAnchors(f"expected a single anchor, got {sorted(ids)}")
    rhos = s.rho_array()
    return single_anchor_family(
        s.trajectory.points, rhos, s.tolerances.collinear, s.tolerances.degenerate
    )


# ---------------------------------------------------------------------------
# one range from each of two anchors


@dataclass(frozen=True)
class Family1p1:
    """Placement set for one range from each of two anchors.

    Generically a one-parameter family: for each heading in an arc, the two
    range circles intersect in two points, giving two solution sheets that
    merge wherever the circles become tangent. `arc` is the half-window of
    |phi - psi0| that admits solutions, (0, pi) meaning every heading.
    """

    ind: IndClass
    case1: bool
    pinned: bool
    coincident_points: bool
    psi0: float | None
    arc: tuple[float, float] | None
    merged_inner: bool
    merged_outer: bool
    transforms: tuple[RigidTransform2, ...]


def _pattern(s: Scenario, sizes: tuple[int, ...], what: str):
    """Anchor groups of `s`, most measurements first, ties in schedule order.

    Raises DegenerateInput naming `what` unless the group sizes are `sizes`.
    """
    groups = sorted(anchor_point_sets(s), key=lambda g: len(g[1]), reverse=True)
    if tuple(len(idxs) for _, idxs in groups) != sizes:
        raise DegenerateInput(f"expected {what}")
    return groups


def _pair_data(s: Scenario):
    (anc0, _), (anc1, _) = _pattern(s, (1, 1), "exactly two measurements from two distinct anchors")
    pts = s.trajectory.points
    rho = s.rho_array()
    return pts[0], pts[1], anc0.position, anc1.position, float(rho[0]), float(rho[1])


def _transform_at(q0, q1, b0, b1, rho0, rho1, phi, branch, tan_tol):
    """Placement with heading phi on the given intersection branch, or None."""
    w = _rotate(Point2(q1.x - q0.x, q1.y - q0.y), phi)
    moving = Point2(b1.x - w.x, b1.y - w.y)
    inter = circle_circle_intersect(Circle(b0, rho0), Circle(moving, rho1), tan_tol)
    if inter.kind in (IntersectKind.EMPTY, IntersectKind.COINCIDENT):
        return None
    p0 = inter.points[0] if branch >= 0 else inter.points[-1]
    rq0 = _rotate(q0, phi)
    return RigidTransform2(p0.x - rq0.x, p0.y - rq0.y, phi)


def solve_1p1(s: Scenario) -> Family1p1:
    """Characterize all placements matching one range from each of two anchors."""
    q0, q1, b0, b1, rho0, rho1 = _pair_data(s)
    tol = s.tolerances
    deg, tan = tol.degenerate, tol.tangency
    s01 = q0.dist(q1)
    d_anchor = b0.dist(b1)

    if rho0 <= deg and rho1 <= deg:
        # both points pinned onto their anchors
        if abs(s01 - d_anchor) > deg:
            raise EmptyDomain("pinned points cannot span the anchor distance")
        t = _correspondence(q0, q1, b0, b1)
        return Family1p1(IndClass.finite(1), True, True, False, None, None, False, False, (t,))

    if rho0 <= deg or rho1 <= deg:
        # one point pinned; the other point must sit on two circles at once
        if rho0 <= deg:
            qp, bp, qo, bo, ro = q0, b0, q1, b1, rho1
        else:
            qp, bp, qo, bo, ro = q1, b1, q0, b0, rho0
        sep = qp.dist(qo)
        if sep <= tol.collinear:
            if abs(bp.dist(bo) - ro) > deg:
                raise EmptyDomain("pinned coincident points contradict the second range")
            return Family1p1(IndClass.family(1), False, True, True, None, None, False, False, ())
        inter = circle_circle_intersect(Circle(bp, sep), Circle(bo, ro), tan)
        if inter.kind in (IntersectKind.EMPTY, IntersectKind.COINCIDENT):
            raise EmptyDomain("no placement keeps the pinned point and the second range")
        ts = tuple(_correspondence(qp, qo, bp, x) for x in inter.points)
        return Family1p1(
            IndClass.finite(len(ts)), len(ts) == 1, True, False, None, None, False, False, ts
        )

    if s01 <= tol.collinear:
        # both ranges constrain the same physical point; heading stays free
        inter = circle_circle_intersect(Circle(b0, rho0), Circle(b1, rho1), tan)
        if inter.kind in (IntersectKind.EMPTY, IntersectKind.COINCIDENT):
            raise EmptyDomain("range circles of the coincident pair do not meet")
        n = len(inter.points)
        return Family1p1(
            IndClass.family(1, branches=n), False, False, True, None, None, n == 1, False, ()
        )

    inner, outer = abs(rho0 - rho1), rho0 + rho1
    d_min, d_max = abs(d_anchor - s01), d_anchor + s01
    psi0 = _angle(b0, b1) - _angle(q0, q1)

    if d_min > outer + tan or d_max < inner - tan:
        raise EmptyDomain("anchor spacing is outside the reachable band")

    if abs(d_min - outer) <= tan and d_max > outer:
        t = _transform_at(q0, q1, b0, b1, rho0, rho1, wrap_angle(psi0), +1, tan)
        return Family1p1(
            IndClass.finite(1), True, False, False, psi0, (0.0, 0.0), True, True, (t,) if t else ()
        )
    if abs(d_max - inner) <= tan and d_min < inner:
        phi = wrap_angle(psi0 + math.pi)
        t = _transform_at(q0, q1, b0, b1, rho0, rho1, phi, +1, tan)
        return Family1p1(
            IndClass.finite(1), True, False, False, psi0, (math.pi, math.pi), True, True, (t,) if t else ()
        )

    def cut(side: float) -> float:
        """Heading offset from psi0 at which the anchor spacing equals `side`, by the cosine rule."""
        c = (d_anchor * d_anchor + s01 * s01 - side * side) / (2.0 * d_anchor * s01)
        if not math.isfinite(c):
            raise ConstructaError("family arc overflows: lengths too large to square in floating point")
        return math.acos(min(1.0, max(-1.0, c)))

    if d_min >= inner + tan:
        a_lo, merged_inner = 0.0, False
    elif d_min > inner - tan:
        a_lo, merged_inner = 0.0, True
    else:
        a_lo, merged_inner = cut(inner), True
    if d_max <= outer - tan:
        a_hi, merged_outer = math.pi, False
    elif d_max < outer + tan:
        a_hi, merged_outer = math.pi, True
    else:
        a_hi, merged_outer = cut(outer), True

    if a_lo > 0.0 and a_hi < math.pi:
        branches = 2
    elif not merged_inner and not merged_outer:
        branches = 2
    else:
        branches = 1
    return Family1p1(
        IndClass.family(1, branches=branches),
        False,
        False,
        False,
        psi0,
        (a_lo, a_hi),
        merged_inner,
        merged_outer,
        (),
    )


def _pair_sheet(q0, q1, b0, b1, rho0, rho1, phis: np.ndarray, branch: int):
    """Vectorized placement sheet over headings; returns (dx, dy, ok)."""
    c, sn = np.cos(phis), np.sin(phis)
    vx, vy = q1.x - q0.x, q1.y - q0.y
    wx = c * vx - sn * vy
    wy = sn * vx + c * vy
    ex = (b1.x - wx) - b0.x
    ey = (b1.y - wy) - b0.y
    d = np.hypot(ex, ey)
    ok = d > 1e-12
    d_safe = np.where(ok, d, 1.0)
    m = (rho0 * rho0 - rho1 * rho1 + d * d) / (2.0 * d_safe)
    h2 = rho0 * rho0 - m * m
    ok &= h2 > -1e-9 * max(1.0, rho0 * rho0)
    h = np.sqrt(np.maximum(h2, 0.0))
    ux, uy = ex / d_safe, ey / d_safe
    p0x = b0.x + m * ux - branch * h * uy
    p0y = b0.y + m * uy + branch * h * ux
    dx = p0x - (c * q0.x - sn * q0.y)
    dy = p0y - (sn * q0.x + c * q0.y)
    return dx, dy, ok


def _family_arcs(fam: Family1p1) -> list[tuple[float, float]]:
    """Heading intervals carrying solutions, in absolute phi (may exceed pi)."""
    a_lo, a_hi = fam.arc
    psi0 = fam.psi0
    if a_lo <= 0.0 and a_hi >= math.pi:
        return [(-math.pi, math.pi)]
    if a_lo <= 0.0:
        return [(psi0 - a_hi, psi0 + a_hi)]
    if a_hi >= math.pi:
        return [(psi0 + a_lo, psi0 + 2.0 * math.pi - a_lo)]
    return [(psi0 + a_lo, psi0 + a_hi), (psi0 - a_hi, psi0 - a_lo)]


def sample_family_1p1(s: Scenario, n: int = 256) -> list[np.ndarray]:
    """Sample the two-anchor family into (dx, dy, phi) polylines, one per loop."""
    if n < 2:
        raise NonPositiveInput("need at least 2 samples")
    fam = solve_1p1(s)
    q0, q1, b0, b1, rho0, rho1 = _pair_data(s)
    if fam.ind.is_finite:
        return [
            np.array([[t.dx, t.dy, t.phi]]) for t in fam.transforms
        ]
    if fam.coincident_points:
        out = []
        phis = np.linspace(-math.pi, math.pi, n, endpoint=False)
        if fam.pinned:
            targets = (b0 if rho0 <= s.tolerances.degenerate else b1,)
        else:
            inter = circle_circle_intersect(Circle(b0, rho0), Circle(b1, rho1), s.tolerances.tangency)
            targets = inter.points
        for x in targets:
            c, sn = np.cos(phis), np.sin(phis)
            dx = x.x - (c * q0.x - sn * q0.y)
            dy = x.y - (sn * q0.x + c * q0.y)
            out.append(np.column_stack((dx, dy, phis)))
        return out

    arcs = _family_arcs(fam)
    loops: list[np.ndarray] = []
    if len(arcs) == 1 and arcs[0] == (-math.pi, math.pi) and not (fam.merged_inner or fam.merged_outer):
        phis = np.linspace(-math.pi, math.pi, n, endpoint=False)
        for branch in (+1, -1):
            dx, dy, ok = _pair_sheet(q0, q1, b0, b1, rho0, rho1, phis, branch)
            loops.append(np.column_stack((dx[ok], dy[ok], phis[ok])))
        return loops
    for lo, hi in arcs:
        fwd = np.linspace(lo, hi, n // 2)
        dx_f, dy_f, ok_f = _pair_sheet(q0, q1, b0, b1, rho0, rho1, fwd, +1)
        bwd = fwd[::-1]
        dx_b, dy_b, ok_b = _pair_sheet(q0, q1, b0, b1, rho0, rho1, bwd, -1)
        dx = np.concatenate((dx_f[ok_f], dx_b[ok_b]))
        dy = np.concatenate((dy_f[ok_f], dy_b[ok_b]))
        ph = np.array([wrap_angle(a) for a in np.concatenate((fwd[ok_f], bwd[ok_b]))])
        loops.append(np.column_stack((dx, dy, ph)))
    return loops


# ---------------------------------------------------------------------------
# two ranges from one anchor, one from another


@dataclass(frozen=True)
class Branch2p1:
    """One sign choice of the angle subtended at the double anchor."""

    sigma: float
    d2: float
    tangent: bool
    transforms: tuple[RigidTransform2, ...]


@dataclass(frozen=True)
class Result2p1:
    """Deduplicated placements; `sigma_branch[i]` indexes the branch that made transform i."""

    transforms: tuple[RigidTransform2, ...]
    sigma_branch: tuple[int, ...]
    branches: tuple[Branch2p1, ...]
    tangent: bool

    @property
    def case3(self) -> bool:
        return len(self.transforms) == 1 and self.tangent


def solve_2p1(s: Scenario) -> Result2p1:
    """All placements for two ranges from one anchor plus one from another.

    The pair of ranges from the double anchor fixes the pair of points up to
    the sign of the subtended angle and a rotation about that anchor; the
    remaining range cuts each sign branch down to the intersections of two
    circles, at most four placements in total.
    """
    (anc1, idx_d), (anc2, idx_s) = _pattern(s, (2, 1), "a 2-plus-1 anchor pattern")
    pts = s.trajectory.points
    rho = s.rho_array()
    q0, q1 = pts[idx_d[0]], pts[idx_d[1]]
    rho0, rho1 = float(rho[idx_d[0]]), float(rho[idx_d[1]])
    q2 = pts[idx_s[0]]
    rho2 = float(rho[idx_s[0]])
    b1, b2 = anc1.position, anc2.position
    tol = s.tolerances

    if rho0 <= tol.degenerate or rho1 <= tol.degenerate:
        raise DegenerateInput("a range to the double anchor vanishes")
    s01 = q0.dist(q1)
    if s01 <= tol.collinear:
        raise DegenerateInput("the double anchor saw a single point twice")

    sigmas = delta_angle(rho0, rho1, s01, tol.tangency)
    branches: list[Branch2p1] = []
    all_t: list[RigidTransform2] = []
    for sigma in sigmas:
        p0c = Point2(rho0, 0.0)
        p1c = Point2(rho1 * math.cos(sigma), rho1 * math.sin(sigma))
        alpha = _angle(p0c, p1c) - _angle(q0, q1)
        rq0 = _rotate(q0, alpha)
        u = RigidTransform2(p0c.x - rq0.x, p0c.y - rq0.y, alpha)
        c2 = u.apply(q2)
        d2 = math.hypot(c2.x, c2.y)
        if d2 <= tol.degenerate:
            raise DegenerateInput("the single-anchor point collides with the double anchor")
        inter = circle_circle_intersect(Circle(b1, d2), Circle(b2, rho2), tol.tangency)
        ts = []
        for x in inter.points:
            tau = _angle(b1, x) - math.atan2(c2.y, c2.x)
            ts.append(RigidTransform2(b1.x, b1.y, tau).compose(u))
        branches.append(Branch2p1(sigma, d2, inter.kind is IntersectKind.TANGENT, tuple(ts)))
        all_t.extend(ts)

    if not all_t:
        raise EmptyDomain("no placement satisfies all three ranges")
    sols = [Solution(t, 0.0, 3) for t in all_t]
    kept = dedup_solutions(sols, *tol.dedup)
    branch_of = [bi for bi, br in enumerate(branches) for _ in br.transforms]
    return Result2p1(
        tuple(sol.transform for sol in kept),
        tuple(branch_of[sols.index(sol)] for sol in kept),
        tuple(branches),
        any(b.tangent for b in branches),
    )


# ---------------------------------------------------------------------------
# three ranges from one anchor, one from another


@dataclass(frozen=True)
class Result3p1:
    transforms: tuple[RigidTransform2, ...]
    d3: float
    tangent: bool

    @property
    def case4(self) -> bool:
        return len(self.transforms) == 1 and self.tangent


def solve_3p1(s: Scenario) -> Result3p1:
    """Placements for three ranges from one anchor plus one from another.

    Three ranges to non-collinear points locate the double anchor inside the
    vehicle frame outright, which welds the whole frame to a rotation about
    that anchor; the last range then picks at most two rotation angles.
    """
    (anc1, idx_t), (anc2, idx_s) = _pattern(s, (3, 1), "a 3-plus-1 anchor pattern")
    pts = s.trajectory.points
    rho = s.rho_array()
    tol = s.tolerances
    tri = [pts[k] for k in idx_t]
    tri_rho = [float(rho[k]) for k in idx_t]
    q3, rho3 = pts[idx_s[0]], float(rho[idx_s[0]])
    b1, b2 = anc1.position, anc2.position

    if collinear(tri, tol.collinear):
        raise DegenerateInput("the triple anchor's points are collinear")

    # anchor position in the vehicle frame from the pairwise range differences,
    # in units of the largest length so that the squares stay finite
    xy, rr = np.array([[p.x, p.y] for p in tri]), np.array(tri_rho)
    scale = max(float(np.max(np.abs(xy))), float(np.max(rr)))
    xy, rr = xy / scale, rr / scale
    rhs = np.sum(xy[1:] * xy[1:], axis=1) - xy[0] @ xy[0] - (rr[1:] * rr[1:] - rr[0] * rr[0])
    bx, by = np.linalg.solve(2.0 * (xy[1:] - xy[0]), rhs) * scale
    b_v = Point2(float(bx), float(by))
    worst = max(abs(b_v.dist(p) - r) for p, r in zip(tri, tri_rho))
    if worst > max(tol.degenerate, 1e-6 * max(tri_rho)):
        raise EmptyDomain("the three ranges do not meet at a common anchor position")

    d3 = b_v.dist(q3)
    if d3 <= tol.degenerate:
        raise DegenerateInput("the fourth point collides with the triple anchor")
    inter = circle_circle_intersect(Circle(b1, d3), Circle(b2, rho3), tol.tangency)
    if inter.kind in (IntersectKind.EMPTY, IntersectKind.COINCIDENT):
        raise EmptyDomain("the last range contradicts the reconstructed geometry")
    ts = [_correspondence(b_v, q3, b1, x) for x in inter.points]
    sols = dedup_solutions([Solution(t, 0.0, 3) for t in ts], *tol.dedup)
    return Result3p1(
        tuple(sol.transform for sol in sols), d3, inter.kind is IntersectKind.TANGENT
    )


# ---------------------------------------------------------------------------
# one range from each of three anchors


@dataclass(frozen=True)
class Result1p1p1:
    solutions: tuple[Solution, ...]
    tangent_flags: tuple[bool, ...]

    @property
    def transforms(self) -> tuple[RigidTransform2, ...]:
        return tuple(sol.transform for sol in self.solutions)

    @property
    def case2(self) -> bool:
        return len(self.solutions) == 1 and self.tangent_flags[0]


def _in_t(x: np.ndarray) -> np.ndarray:
    """Each a cos(phi) + b sin(phi) + c along the last axis, times 1 + t^2, in t = tan(phi/2).

    The result holds ascending polynomial coefficients along its last axis.
    """
    a, b, c = np.moveaxis(x, -1, 0)
    return np.stack((c + a, 2.0 * b, c - a), axis=-1)


# 1 + t^2; its roots t = ±i carry no placement
_CIRCLE = np.array([1.0, 0.0, 1.0])
# roots kept for polishing: |Im t| up to this share of 1 + |t|
_NEAR_REAL = 1e-3
# den vanishes at a root below this share of the squared largest row entry. Such a
# root is a multiple root, found only to about 1e-8, where den reads about 1e-8;
# at the roots of random draws it never read below 4e-5.
_DEN_TOL = 1e-6


def solve_1p1p1(s: Scenario, config: SolverConfig = SolverConfig()) -> Result1p1p1:
    """Placements for one range from each of three distinct anchors.

    This is the forward kinematics of the planar 3-RPR manipulator. With
    u_k = R(phi) q_k - b_k, range k reads |d|^2 + 2 d.u_k + |u_k|^2 = rho_k^2.
    Ranges 1 and 2 minus range 0 are linear in d, so Cramer's rule gives
    d = N(phi) / den(phi). Put back into range 0 and written in
    t = tan(phi/2), that is one polynomial; after its (1 + t^2)^2 factor is
    divided out it has degree 6, so there are at most six placements, and a
    vanishing t^6 coefficient means phi = pi is a root. Every real or
    near-real root is polished against all three ranges; a placement that
    absorbs two roots is a double root, a touch. Lengths are divided by the
    largest one while the polynomial is built, so its coefficients stay
    finite. A pinned, coincident or finite leading pair goes through
    `solve_1p1` instead, and a root at which den vanishes, where the ranges
    do not fix d, raises DegenerateInput.
    """
    _pattern(s, (1, 1, 1), "one range from each of three anchors")
    q, b, rho = s.points_array(), s.anchor_positions(), s.rho_array()
    scale = max(float(np.max(np.abs(q))), float(np.max(np.abs(b))), float(np.max(rho)))
    if not math.isfinite(scale * scale):
        # the polish squares residuals of about this size
        raise ConstructaError("placement polish overflows: lengths too large to square in floating point")
    fam = solve_1p1(sub_scenario(s, (0, 1)))
    if fam.ind.is_finite or fam.pinned or fam.coincident_points:
        if not fam.transforms:
            raise DegenerateInput("the leading pair leaves a degenerate family")
        return _accept_1p1p1(s, fam.transforms, config, roots=False)

    q, b, rho = q / scale, b / scale, rho / scale
    # (cos, sin, 1) coefficients of the rows R v_k - e_k of the linear system,
    # of u_0, and of g_k = |u_k|^2 - rho_k^2, whose differences make its right side
    v, e = q[1:] - q[0], b[1:] - b[0]
    a = np.array([[[vx, -vy, -ex], [vy, vx, -ey]] for (vx, vy), (ex, ey) in zip(v, e)])
    u0 = np.array([[q[0, 0], -q[0, 1], -b[0, 0]], [q[0, 1], q[0, 0], -b[0, 1]]])
    g = np.array(
        [
            [-2.0 * (bk @ qk), 2.0 * (bk[0] * qk[1] - bk[1] * qk[0]), qk @ qk + bk @ bk - rk * rk]
            for qk, bk, rk in zip(q, b, rho)
        ]
    )
    h = (g[0] - g[1:]) / 2.0

    at, ht = _in_t(a), _in_t(h)
    den = np.convolve(at[0, 0], at[1, 1]) - np.convolve(at[0, 1], at[1, 0])
    nx = np.convolve(ht[0], at[1, 1]) - np.convolve(at[0, 1], ht[1])
    ny = np.convolve(at[0, 0], ht[1]) - np.convolve(ht[0], at[1, 0])
    # den^2 (|d|^2 + 2 d.u_0 + g_0) for d = (nx, ny) / den, cleared to (1 + t^2)^5
    full = (
        np.convolve(_CIRCLE, np.convolve(nx, nx) + np.convolve(ny, ny))
        + 2.0 * np.convolve(den, np.convolve(nx, _in_t(u0[0])) + np.convolve(ny, _in_t(u0[1])))
        + np.convolve(np.convolve(den, den), _in_t(g[0]))
    )
    sextic = polydiv(full, np.convolve(_CIRCLE, _CIRCLE))[0]
    if not np.any(sextic):
        raise DegenerateInput("the three ranges leave the heading free")
    ts = polyroots(sextic)
    # every degree the sextic lacks is a root at t = infinity, phi = pi
    phis = [2.0 * math.atan(t.real) for t in ts if abs(t.imag) <= _NEAR_REAL * (1.0 + abs(t))]
    phis += [math.pi] * (6 - len(ts))
    den_floor = _DEN_TOL * float(np.max(np.abs(a))) ** 2
    candidates = []
    for phi in phis:
        w = np.array([math.cos(phi), math.sin(phi), 1.0])
        m = a @ w
        if abs(np.linalg.det(m)) <= den_floor:
            raise DegenerateInput("a root leaves the offset undetermined by the ranges")
        dx, dy = np.linalg.solve(m, h @ w) * scale
        candidates.append(RigidTransform2(float(dx), float(dy), phi))
    return _accept_1p1p1(s, candidates, config, roots=True)


def _accept_1p1p1(s: Scenario, candidates, config: SolverConfig, roots: bool) -> Result1p1p1:
    """Polish and dedup the candidates.

    When the candidates are roots of the sextic, a placement that absorbs two
    or more of them sits on a double root and is a touch.
    """
    tol = s.tolerances
    polished = [sol for sol in (polish_solution(s, t, config) for t in candidates) if sol is not None]
    if not polished:
        raise EmptyDomain("no placement satisfies all three ranges")
    kept = dedup_solutions(polished, *tol.dedup)
    flags = tuple(
        roots and sum(_same_transform(sol.transform, k.transform, *tol.dedup) for sol in polished) >= 2
        for k in kept
    )
    return Result1p1p1(tuple(kept), flags)


def locus_1p1p1(s: Scenario, n: int = 512) -> np.ndarray:
    """Sampled locus of the leading pair with the third range's error.

    Rows are (arc index, branch sign, phi, dx, dy, g) for plotting the scalar
    root structure along the one-parameter family.
    """
    groups = _pattern(s, (1, 1, 1), "one range from each of three anchors")
    pts = s.trajectory.points
    rho = s.rho_array()
    q0, q1, q2 = pts[0], pts[1], pts[2]
    b0, b1, b2 = (anc.position for anc, _ in groups)
    rho0, rho1, rho2 = (float(r) for r in rho)
    fam = solve_1p1(sub_scenario(s, (0, 1)))
    if fam.ind.is_finite or fam.pinned or fam.coincident_points:
        raise DegenerateInput("the leading pair leaves no one-parameter locus to sample")
    rows = []
    for arc_i, (lo, hi) in enumerate(_family_arcs(fam)):
        phis = np.linspace(lo, hi, n)
        for branch in (+1, -1):
            dx, dy, ok = _pair_sheet(q0, q1, b0, b1, rho0, rho1, phis, branch)
            c, sn = np.cos(phis), np.sin(phis)
            p2x = c * q2.x - sn * q2.y + dx
            p2y = sn * q2.x + c * q2.y + dy
            g = np.hypot(p2x - b2.x, p2y - b2.y) - rho2
            wrapped = np.mod(phis + math.pi, 2.0 * math.pi) - math.pi
            block = np.column_stack(
                (
                    np.full(ok.sum(), arc_i, dtype=float),
                    np.full(ok.sum(), branch, dtype=float),
                    wrapped[ok],
                    dx[ok],
                    dy[ok],
                    g[ok],
                )
            )
            rows.append(block)
    return np.vstack(rows)


# ---------------------------------------------------------------------------
# critical lines for the next measurement


class CriticalLineKind(Enum):
    ROTATION_ABOUT_ANCHOR = "rotation_about_anchor"
    REFLECTED_PAIR = "reflected_pair"
    GENERIC = "generic"


@dataclass(frozen=True)
class CriticalLine:
    """Vehicle-frame line the next measured point must avoid.

    If the next point measured by `anchor` lies on the line, the placement
    pair indexed by `pair` stays indistinguishable after the measurement.
    """

    line: Line2
    pair: tuple[int, int]
    kind: CriticalLineKind


@dataclass(frozen=True)
class CriticalLinesResult:
    lines: tuple[CriticalLine, ...]
    unresolvable_pairs: tuple[tuple[int, int], ...]


def critical_lines_next_point(transforms, anchor: Point2, tol: float = 1e-9) -> CriticalLinesResult:
    """Bisector lines between the anchor's preimages under each placement.

    A new range from `anchor` at vehicle point q distinguishes placements i
    and j exactly when q is off the perpendicular bisector of the two
    preimages. Placements whose preimages coincide cannot be separated by
    this anchor at all and are reported as unresolvable.
    """
    ts = list(transforms)
    if len(ts) < 2:
        raise NoAmbiguity("fewer than two placements, nothing to tell apart")
    pre = [t.inverse().apply(anchor) for t in ts]
    lines: list[CriticalLine] = []
    unresolvable: list[tuple[int, int]] = []
    for i, j in combinations(range(len(ts)), 2):
        if pre[i].dist(pre[j]) <= tol:
            unresolvable.append((i, j))
            continue
        lines.append(CriticalLine(perpendicular_bisector(pre[i], pre[j]), (i, j), CriticalLineKind.GENERIC))
    return CriticalLinesResult(tuple(lines), tuple(unresolvable))


def critical_lines_2p2(s: Scenario) -> tuple[CriticalLine, ...]:
    """Critical lines for the fourth measurement in a two-plus-two pattern.

    The first three measurements leave at most four placements; the lines are
    the bisectors between the second anchor's preimages under those
    placements, tagged by whether the pair shares the subtended-angle branch.
    Cross-branch preimages that coincide make the ambiguity unresolvable by
    that anchor no matter where the fourth point is.
    """
    (anc_a, idx_a), (anc_b, idx_b) = _pattern(s, (2, 2), "two measurements from each of two anchors")
    prefix = sub_scenario(s, (idx_a[0], idx_a[1], idx_b[0]))
    res = solve_2p1(prefix)
    if len(res.transforms) < 2:
        raise NoAmbiguity("the first three measurements already pin the placement")

    tol = s.tolerances
    pre = [t.inverse().apply(anc_b.position) for t in res.transforms]
    lines: list[CriticalLine] = []
    for i, j in combinations(range(len(res.transforms)), 2):
        same_branch = res.sigma_branch[i] == res.sigma_branch[j]
        if pre[i].dist(pre[j]) <= 10.0 * tol.dedup[0]:
            if same_branch:
                continue
            raise PathologicalConfiguration(
                "two placements give the second anchor the same preimage; no fourth point can split them"
            )
        kind = CriticalLineKind.ROTATION_ABOUT_ANCHOR if same_branch else CriticalLineKind.REFLECTED_PAIR
        lines.append(CriticalLine(perpendicular_bisector(pre[i], pre[j]), (i, j), kind))
    return tuple(lines)


# ---------------------------------------------------------------------------
# pathological whole-trajectory symmetries


@dataclass(frozen=True)
class DegenerateFlags:
    """Detected trajectory/anchor alignments that defeat counting arguments."""

    rotation: bool = False
    rotation_pivot: int | None = None
    rotation_angle: float | None = None
    translation: bool = False
    translation_vector: tuple[float, float] | None = None

    @property
    def any_flag(self) -> bool:
        return self.rotation or self.translation


def _distinct_points(points: list[Point2], tol: float) -> list[Point2]:
    out: list[Point2] = []
    for p in points:
        if all(p.dist(q) > tol for q in out):
            out.append(p)
    return out


def _line_direction(points: list[Point2]) -> float:
    arr = np.array([[p.x, p.y] for p in points])
    _, _, vt = np.linalg.svd(arr - arr.mean(axis=0), full_matrices=False)
    return math.atan2(float(vt[0, 1]), float(vt[0, 0]))


def detect_pathologies(s: Scenario, placement: RigidTransform2 | None = None) -> DegenerateFlags:
    """Scan the placed configuration for range-preserving rigid motions.

    Two constructions are checked. A rotation about a pivot anchor preserves
    every range when each other anchor's points are collinear on a line
    through the pivot and all those lines demand the same rotation angle. A
    translation preserves every range when each anchor's points are collinear
    on lines sharing one direction, all offset from their anchor by the same
    signed distance along the common normal.

    The scan is run on the trajectory placed by `placement` (identity when
    omitted); the flags do not depend on which indistinguishable placement is
    used.
    """
    if placement is None:
        placement = RigidTransform2.identity()
    tol = s.tolerances
    ang_tol = max(tol.degenerate, 1e-9)
    groups = anchor_point_sets(s)
    world: list[tuple[Point2, list[Point2]]] = []
    for anchor, idxs in groups:
        pts = [placement.apply(s.trajectory.points[k]) for k in idxs]
        world.append((anchor.position, _distinct_points(pts, tol.collinear)))

    rotation = False
    pivot_id = None
    rot_angle = None
    if len(groups) >= 2:
        for pi, (anchor_p, _) in enumerate(groups):
            c = anchor_p.position
            etas: list[float] = []
            ok = True
            for gi in range(len(groups)):
                if gi == pi:
                    continue
                b, pts = world[gi]
                if len(pts) < 2 or not collinear(pts, tol.collinear):
                    ok = False
                    break
                beta = _line_direction(pts)
                line = Line2(pts[0], Point2(math.cos(beta), math.sin(beta)))
                if point_line_distance(c, line) > max(tol.degenerate, 1e-9):
                    ok = False
                    break
                if b.dist(c) <= tol.collinear:
                    ok = False
                    break
                etas.append(beta - _angle(c, b))
            if not ok or not etas:
                continue
            base = etas[0]
            if any(_mod_pi_diff(e, base) > ang_tol for e in etas[1:]):
                continue
            if _mod_pi_diff(base, 0.0) <= ang_tol:
                continue
            rotation = True
            pivot_id = anchor_p.id
            rot_angle = wrap_angle(-2.0 * base)
            break

    translation = False
    trans_vec = None
    if len(groups) >= 1:
        betas = []
        ok = True
        for _, pts in world:
            if len(pts) < 2 or not collinear(pts, tol.collinear):
                ok = False
                break
            betas.append(_line_direction(pts))
        if ok:
            base = betas[0]
            if all(_mod_pi_diff(b, base) <= ang_tol for b in betas[1:]):
                ux, uy = -math.sin(base), math.cos(base)
                deltas = []
                for (b, pts) in world:
                    mean = Point2(
                        sum(p.x for p in pts) / len(pts), sum(p.y for p in pts) / len(pts)
                    )
                    deltas.append((b.x - mean.x) * ux + (b.y - mean.y) * uy)
                d0 = deltas[0]
                if all(abs(d - d0) <= max(tol.degenerate, 1e-9) for d in deltas[1:]) and abs(d0) > max(
                    tol.degenerate, 1e-9
                ):
                    translation = True
                    trans_vec = (2.0 * d0 * ux, 2.0 * d0 * uy)

    return DegenerateFlags(rotation, pivot_id, rot_angle, translation, trans_vec)


# ---------------------------------------------------------------------------
# taxonomy and top-level analysis


class Verdict(Enum):
    UNCONSTRUCTIBLE = "Unconstructible"
    DEGENERATE_CONSTRUCTIBLE = "DegenerateConstructible"
    CONSTRUCTIBLE_GENERIC = "ConstructibleGeneric"
    PATHOLOGICAL_UNCONSTRUCTIBLE = "PathologicalUnconstructible"


def sufficient_counts(raw_counts, n_measurements: int) -> bool:
    """Counting test: at least four ranges and no anchor holding all but one.

    Scenarios failing this can only be constructible through degenerate
    coincidences; scenarios passing it are constructible unless the geometry
    is pathologically aligned.
    """
    if n_measurements < 4:
        return False
    return max(raw_counts) <= n_measurements - 2


@dataclass(frozen=True)
class GlobalAnalysis:
    verdict: Verdict
    ind: IndClass
    solutions: SolutionSet
    raw_counts: tuple[int, ...]
    informative_counts: tuple[int, ...]
    anchor_classes: tuple[tuple[int, str], ...]
    counting_sufficient: bool
    degenerate_case: int | None
    pathologies: DegenerateFlags
    critical_line_hit: bool | None
    method: str


def _two_distinct(idxs, pts, rhos, sep_tol: float, deg_tol: float):
    """First index pair with distinct points and positive ranges."""
    for a, b in combinations(idxs, 2):
        if pts[a].dist(pts[b]) > sep_tol and rhos[a] > deg_tol and rhos[b] > deg_tol:
            return a, b
    return None


def _noncollinear_triple(idxs, pts, sep_tol: float):
    for a, b, c in combinations(idxs, 3):
        if (
            pts[a].dist(pts[b]) > sep_tol
            and pts[a].dist(pts[c]) > sep_tol
            and pts[b].dist(pts[c]) > sep_tol
            and not collinear([pts[a], pts[b], pts[c]], sep_tol)
        ):
            return a, b, c
    return None


# a candidate whose full residual exceeds this multiple of accept_tol is not polished
_FAR = 100.0


def _filter_candidates(s: Scenario, transforms, config: SolverConfig) -> list[Solution]:
    """Placements of the full scenario among a sub-pattern's candidates.

    Every placement of the full scenario is also a placement of the
    sub-pattern, and its closed form returns all of those; so the further
    ranges can only filter the candidates, and a candidate far above the gate
    cannot polish into a new placement: at most LM carries it onto another
    candidate's, which dedup then drops. Such candidates are dropped before
    LM, the others are polished. Measured on 2,160 bench draws of the eight
    finite patterns and on every test fixture, tangent ones included, every
    candidate lying on a kept placement started at a full residual of at most
    2.0e-11 and every other one at 8.1e-5 or more; `_FAR` puts the cut at
    1e-5 for the default gate.
    """
    near = (t for t in transforms if np.max(np.abs(residuals(s, t))) <= _FAR * config.accept_tol)
    accepted = (sol for sol in (polish_solution(s, t, config) for t in near) if sol is not None)
    return dedup_solutions(accepted, *s.tolerances.dedup)


def _check_duplicate_measurements(s: Scenario, groups, deg_tol: float, sep_tol: float):
    """Anchors that saw one effective point must have agreeing extra ranges."""
    rho = s.rho_array()
    pts = s.trajectory.points
    for _, idxs in groups:
        if len(idxs) < 2:
            continue
        base = idxs[0]
        for k in idxs[1:]:
            if pts[k].dist(pts[base]) <= sep_tol and abs(float(rho[k]) - float(rho[base])) > deg_tol:
                raise EmptyDomain("repeated measurements of one point disagree")


# the answer for a continuous family, which the closed forms describe without isolated placements
_ANALYTIC = SolutionSet((), (), ("family characterized analytically; no isolated solutions",))


def _route(s: Scenario, groups, classes, raw, config: SolverConfig):
    """Answer the measurement pattern with its exact construction.

    Returns (method, answer, case): the answer is the family's IndClass or
    the accepted placements, and `case` the degenerate case the construction
    reports should the answer be unique. A construction that does not apply
    raises DegenerateInput.
    """
    pts, rhos, tol = s.trajectory.points, s.rho_array(), s.tolerances
    if len(groups) == 1:
        return "single-anchor", single_anchor_family_for(s).ind, None
    seed = None
    for gi, ((_, idxs), cls) in enumerate(zip(groups, classes)):
        if cls in (AnchorSetClass.C2, AnchorSetClass.C3):
            pair = _two_distinct(idxs, pts, rhos, tol.collinear, tol.degenerate)
            if pair is not None:
                seed = (gi, pair)
                break
    if seed is None:
        # every anchor pins a single effective point
        _check_duplicate_measurements(s, groups, tol.degenerate, tol.collinear)
        reps = [idxs[0] for _, idxs in groups]
        if len(groups) == 2:
            fam = solve_1p1(sub_scenario(s, reps))
            if not fam.ind.is_finite:
                return "two-anchor-family", fam.ind, None
            return "two-anchor-family", _filter_candidates(s, fam.transforms, config), 1 if fam.case1 else None
        r = solve_1p1p1(sub_scenario(s, reps[:3]), config)
        if s.n_measurements == 3:
            # the sub-scenario is the scenario: r is polished and deduped
            return "three-singles", r.solutions, 2 if r.case2 else None
        return "three-singles", _filter_candidates(s, r.transforms, config), None
    gi, (ia, ib) = seed
    other_first = next(idxs[0] for g, (_, idxs) in enumerate(groups) if g != gi)
    triple = None
    if classes[gi] is AnchorSetClass.C3 and len(groups[gi][1]) >= 3:
        triple = _noncollinear_triple(groups[gi][1], pts, tol.collinear)
    if triple is not None:
        r3 = solve_3p1(sub_scenario(s, (*triple, other_first)))
        case = 4 if raw == (3, 1) and r3.tangent else None
        return "triple-plus-single", _filter_candidates(s, r3.transforms, config), case
    r2 = solve_2p1(sub_scenario(s, (ia, ib, other_first)))
    case = 3 if raw == (2, 1) and r2.tangent else None
    return "double-plus-single", _filter_candidates(s, r2.transforms, config), case


def analyze_global(
    s: Scenario,
    config: SolverConfig = SolverConfig(),
    fallback_grid: GridSpec | None = None,
) -> GlobalAnalysis:
    """Full constructibility verdict for a scenario with measured ranges.

    Routes the measurement pattern to the matching exact construction, falls
    back to the grid oracle for degenerate inputs, then combines the solution
    count with the counting test into one of four verdicts.
    """
    rhos = s.rho_array()
    pts = s.trajectory.points
    tol = s.tolerances
    groups = anchor_point_sets(s)
    classes = [
        classify_measurement_set([pts[k] for k in idxs], [float(rhos[k]) for k in idxs], tol.collinear)
        for _, idxs in groups
    ]
    raw = tuple(sorted((len(idxs) for _, idxs in groups), reverse=True))
    info = tuple(
        sorted(
            (min(len(idxs), INFORMATIVE_COUNT[c]) for (_, idxs), c in zip(groups, classes)),
            reverse=True,
        )
    )
    sufficient = sufficient_counts(raw, s.n_measurements)

    try:
        method, answer, case = _route(s, groups, classes, raw, config)
        if isinstance(answer, IndClass):
            ind, sols = answer, _ANALYTIC
        else:
            if not answer:
                raise EmptyDomain("no candidate placement survives every range")
            sols = SolutionSet(tuple(answer), (), ())
            ind = IndClass.finite(len(answer))
        degenerate_case = case if ind.is_unique else None
    except DegenerateInput:
        method, degenerate_case = "grid-oracle", None
        sols = brute_force_oracle(s, fallback_grid or GridSpec(nxy=121, phi_cells=240), config)
        if not sols.solutions and not sols.families:
            raise EmptyDomain("no placement satisfies the ranges")
        ind = sols.ind_class

    critical_hit: bool | None = None
    if len(groups) == 2 and raw == (2, 2):
        next_idx = groups[1][1][1]
        try:
            lines = critical_lines_2p2(s)
            hit_tol = max(tol.degenerate, 1e-9)
            critical_hit = any(point_line_distance(pts[next_idx], cl.line) <= hit_tol for cl in lines)
        except PathologicalConfiguration:
            critical_hit = True
        except (NoAmbiguity, DegenerateInput, EmptyDomain):
            critical_hit = False

    best = sols.best()
    flags = detect_pathologies(s, best.transform if best is not None else None)

    unique = ind.is_unique
    if not sufficient:
        verdict = Verdict.DEGENERATE_CONSTRUCTIBLE if unique else Verdict.UNCONSTRUCTIBLE
    else:
        verdict = Verdict.CONSTRUCTIBLE_GENERIC if unique else Verdict.PATHOLOGICAL_UNCONSTRUCTIBLE

    return GlobalAnalysis(
        verdict=verdict,
        ind=ind,
        solutions=sols,
        raw_counts=raw,
        informative_counts=info,
        anchor_classes=tuple((a.id, c.value) for (a, _), c in zip(groups, classes)),
        counting_sufficient=sufficient,
        degenerate_case=degenerate_case,
        pathologies=flags,
        critical_line_hit=critical_hit,
        method=method,
    )
