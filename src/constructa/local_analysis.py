"""Local constructibility via the range measurement Gramian.

Each range measurement contributes one row to a linearized observation
operator on the final vehicle state (x_f, y_f, theta_f). The accumulated
3x3 Gramian is rank 3 exactly when no infinitesimal rigid perturbation of
the placement preserves every range to first order. Rows come in closed
form from the placed geometry. A second path, for scenarios that carry
controls, propagates each range gradient to the final state through the
unicycle flow's state-transition matrix; it never reads the placed
trajectory for that, so its agreement checks the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, InconsistentControls, SchemaError, ZeroRange
from .geom import Line2, Point2, RigidTransform2
from .scenario import Scenario, controls_to_trajectory_v
from .unicycle import sensitivity

__all__ = [
    "gramian_contribution",
    "GramianReport",
    "build_gramian",
    "numerical_gramian",
    "rotation_generator",
    "translation_generator",
    "anchor_rotation_directions",
    "SingularDirection",
    "singular_direction_report",
    "critical_line_1p1p1_local",
]


def gramian_contribution(point: Point2, anchor: Point2, final_pos: Point2) -> np.ndarray:
    """Row of the observation operator for one range, about the final state.

    The row is (cos a, sin a, p) with a the bearing of the measured point
    seen from the anchor and p the moment of that sightline about the final
    position. A measurement taken on top of its anchor has no bearing and
    raises ZeroRange.
    """
    ex, ey = point.x - anchor.x, point.y - anchor.y
    rho = math.hypot(ex, ey)
    if rho <= 1e-12:
        raise ZeroRange("measured point coincides with its anchor")
    ca, sa = ex / rho, ey / rho
    p = ca * (final_pos.y - point.y) - sa * (final_pos.x - point.x)
    return np.array([ca, sa, p])


@dataclass(frozen=True)
class GramianReport:
    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rank: int
    null_basis: np.ndarray
    contributions: np.ndarray
    final_position: Point2


def build_gramian(
    s: Scenario, placement: RigidTransform2 | None = None, rank_tol: float | None = None
) -> GramianReport:
    """Accumulate the measurement Gramian for a placed scenario.

    Rows are evaluated at the placed trajectory (identity placement when
    omitted) about the placed final sample. Rank counts eigenvalues above
    `rank_tol` relative to the largest.
    """
    if placement is None:
        placement = RigidTransform2.identity()
    if rank_tol is None:
        rank_tol = s.tolerances.rank
    by_id = {a.id: a.position for a in s.anchors}
    world = [placement.apply(p) for p in s.trajectory.points]
    final_pos = world[-1]
    rows = np.array(
        [
            gramian_contribution(world[k], by_id[aid], final_pos)
            for k, aid in s.schedule.entries
        ]
    )
    g = rows.T @ rows
    evals, evecs = np.linalg.eigh(g)
    lam_max = float(evals[-1])
    if lam_max <= 0.0:
        rank = 0
    else:
        rank = int(np.sum(evals > rank_tol * lam_max))
    null_basis = evecs[:, : 3 - rank]
    return GramianReport(g, evals, evecs, rank, null_basis, rows, final_pos)


def _placement_jacobian(placement: RigidTransform2) -> np.ndarray:
    c, sn = math.cos(placement.phi), math.sin(placement.phi)
    return np.array([[c, -sn, 0.0], [sn, c, 0.0], [0.0, 0.0, 1.0]])


def numerical_gramian(s: Scenario, placement: RigidTransform2 | None = None) -> np.ndarray:
    """Gramian from the flow's state-transition matrices, as an independent check.

    Needs the scenario's control history. The vehicle-frame trajectory is
    re-integrated and must match the stored sample points, otherwise the
    scenario is self-contradictory and InconsistentControls is raised. Each
    measurement row is the range gradient at its sample time carried to the
    final sample time through the inverse of `sensitivity` from that sample
    time to the last. That matrix is I + N with N @ N = 0, so its inverse is
    I - N.
    """
    if s.controls is None or s.sample_times is None:
        raise SchemaError("scenario carries no control history to integrate")
    if placement is None:
        placement = RigidTransform2.identity()
    times = list(s.sample_times)
    traj = controls_to_trajectory_v(s.controls, times)
    stored = s.trajectory.as_array()
    regenerated = traj.as_array()
    worst = float(np.max(np.hypot(*(stored - regenerated).T))) if len(times) else 0.0
    span = float(np.max(np.abs(stored))) if stored.size else 1.0
    if worst > 1e-9 * max(1.0, span):
        raise InconsistentControls(
            f"stored samples deviate from the integrated controls by {worst:.3e}"
        )

    by_id = {a.id: a.position for a in s.anchors}
    t_f = times[-1]
    jac = _placement_jacobian(placement)
    jac_inv = jac.T
    g = np.zeros((3, 3))
    for k, aid in s.schedule.entries:
        world_pt = placement.apply(s.trajectory.points[k])
        anchor = by_id[aid]
        ex, ey = world_pt.x - anchor.x, world_pt.y - anchor.y
        rho = math.hypot(ex, ey)
        if rho <= 1e-12:
            raise ZeroRange("measured point coincides with its anchor")
        h = np.array([ex / rho, ey / rho, 0.0])
        phi_v = 2.0 * np.eye(3) - sensitivity(s.controls, times[k], t_f)
        row = h @ (jac @ phi_v @ jac_inv)
        g += np.outer(row, row)
    return g


def rotation_generator(anchor: Point2, final_pos: Point2) -> np.ndarray:
    """Final-state direction of an infinitesimal rotation about the anchor."""
    return np.array([-(final_pos.y - anchor.y), final_pos.x - anchor.x, 1.0])


def translation_generator(direction: tuple[float, float]) -> np.ndarray:
    """Final-state direction of an infinitesimal translation."""
    n = math.hypot(direction[0], direction[1])
    if n <= 0.0:
        raise DegenerateInput("translation direction must be nonzero")
    return np.array([direction[0] / n, direction[1] / n, 0.0])


def anchor_rotation_directions(
    s: Scenario, placement: RigidTransform2 | None = None
) -> list[tuple[str, np.ndarray]]:
    """Rotation-about-anchor generators evaluated at the placed final sample."""
    if placement is None:
        placement = RigidTransform2.identity()
    final_pos = placement.apply(s.trajectory.points[-1])
    return [
        (f"rotation about anchor {a.id}", rotation_generator(a.position, final_pos))
        for a in s.anchors
    ]


@dataclass(frozen=True)
class SingularDirection:
    label: str
    direction: tuple[float, float, float]
    residual: float
    annihilated: bool


def singular_direction_report(
    gramian: np.ndarray, directions, rank_tol: float = 1e-8
) -> tuple[SingularDirection, ...]:
    """Test candidate final-state directions against the Gramian's null space.

    Each direction is normalized and scored by |G g| relative to the largest
    eigenvalue; a score at or below `rank_tol` means the ranges are blind to
    that rigid motion to first order.
    """
    g = np.asarray(gramian, dtype=float)
    lam_max = float(np.linalg.eigvalsh(g)[-1])
    scale = lam_max if lam_max > 0.0 else 1.0
    out = []
    for label, vec in directions:
        v = np.asarray(vec, dtype=float)
        n = float(np.linalg.norm(v))
        if n <= 0.0:
            raise DegenerateInput(f"direction {label!r} is zero")
        v = v / n
        score = float(np.linalg.norm(g @ v)) / scale
        out.append(SingularDirection(label, tuple(float(x) for x in v), score, score <= rank_tol))
    return tuple(out)


def critical_line_1p1p1_local(
    b1: Point2,
    b2: Point2,
    b3: Point2,
    p1: Point2,
    p2: Point2,
    tol: float = 1e-12,
) -> Line2 | None:
    """Third-point positions that make a three-range Gramian singular.

    With one range from each of three anchors, the first two rows are fixed
    by (b1, p1) and (b2, p2); the Gramian drops rank exactly when the third
    row is a combination of them, which confines the third measured point to
    one line. That line always passes through the third anchor. Returns None
    when no position is singular, and raises DegenerateInput when the first
    two rows are already dependent (every third point is then singular).

    The construction does not depend on the final-state reference point.
    """
    origin = Point2(0.0, 0.0)
    g1 = gramian_contribution(p1, b1, origin)
    g2 = gramian_contribution(p2, b2, origin)
    m = np.cross(g1, g2)
    scale = max(1.0, float(np.max(np.abs(np.concatenate((g1, g2))))))
    if float(np.linalg.norm(m)) <= tol * scale * scale:
        raise DegenerateInput("the first two measurement rows are already dependent")
    a = m[0] - b3.y * m[2]
    b = m[1] + b3.x * m[2]
    c = -b3.x * m[0] - b3.y * m[1]
    norm = math.hypot(a, b)
    if norm <= tol * scale * scale:
        if abs(c) <= tol * scale * scale:
            raise DegenerateInput("every third point leaves the Gramian singular")
        return None
    return Line2(b3, Point2(-b / norm, a / norm))
