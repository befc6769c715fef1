"""Scenario builders and frozen fixtures shared across the test modules."""
import math

import numpy as np

from constructa import (
    Anchor,
    Measurements,
    MeasurementSchedule,
    Point2,
    RigidTransform2,
    Scenario,
    Tolerances,
    TrajectoryV,
    synthesize_measurements,
    with_measurements,
    wrap_angle,
)


def scen(anchors, pts, schedule, truth=None, rho=None, tolerances=None,
         controls=None, sample_times=None):
    """Assemble a scenario; ranges come from `truth` or are passed directly."""
    s = Scenario(
        anchors=tuple(Anchor(i, Point2(*a)) for i, a in enumerate(anchors, start=1)),
        trajectory=TrajectoryV(tuple(Point2(*p) for p in pts)),
        schedule=MeasurementSchedule(tuple(schedule)),
        tolerances=tolerances if tolerances is not None else Tolerances(),
        controls=controls,
        sample_times=tuple(float(t) for t in sample_times) if sample_times is not None else None,
    )
    if truth is not None:
        return with_measurements(s, synthesize_measurements(s, truth))
    if rho is not None:
        return with_measurements(s, Measurements(tuple(float(r) for r in rho)))
    return s


def same_transform(a, b, tol_xy=1e-5, tol_phi=1e-5):
    return (
        abs(a.dx - b.dx) <= tol_xy
        and abs(a.dy - b.dy) <= tol_xy
        and abs(wrap_angle(a.phi - b.phi)) <= tol_phi
    )


def oracle_transforms(ss):
    """Isolated solutions plus family representatives, as plain transforms."""
    out = [sol.transform for sol in ss.solutions]
    for fam in ss.families:
        out.extend(rep.transform for rep in fam.representatives)
    return out


def each_in(transforms, pool, tol_xy=1e-5, tol_phi=1e-5):
    return all(any(same_transform(t, u, tol_xy, tol_phi) for u in pool) for t in transforms)


def sample_features(rng, n_pts, n_anchors, box=10.0, min_sep=0.1):
    """Anchors and vehicle points uniform in a box with minimum separation."""
    while True:
        feats = rng.uniform(-box / 2.0, box / 2.0, size=(n_pts + n_anchors, 2))
        gaps = np.linalg.norm(feats[None, :, :] - feats[:, None, :], axis=2)
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() >= min_sep:
            return feats[:n_anchors], feats[n_anchors:]


def random_transform(rng, span=1.0):
    return RigidTransform2(
        float(rng.uniform(-span, span)),
        float(rng.uniform(-span, span)),
        float(rng.uniform(-math.pi, math.pi)),
    )


# ---------------------------------------------------------------------------
# Frozen fixtures. Numeric constants were produced once by refining the
# construction offline and are pinned here so expected outcomes stay exact.

# Third range tangent to the two-anchor solution locus of THREE_SINGLES_BASE
# (touch at phi ~ 0.03876 on the positive branch).
TANGENT_THIRD_RANGE = 0.7442414520518478

TRUTH_A = RigidTransform2(0.3, -0.2, 0.4)
TRUTH_B = RigidTransform2(-0.4, 0.25, -0.7)
TRUTH_C = RigidTransform2(0.2, 0.5, 1.1)
TRUTH_D = RigidTransform2(0.15, -0.35, 0.9)


def single_coincident():
    """One anchor, all points coincide off the anchor: 2-parameter family."""
    return scen([(0.0, 0.0)], [(1.0, 0.0), (1.0, 0.0)], [1, 1], rho=[2.0, 2.0])


def single_collinear_off():
    """One anchor, collinear points, anchor off the fitted line: two loops."""
    return scen(
        [(0.0, 0.0)],
        [(1.0, 0.0), (1.7, 0.0), (2.4, 0.0)],
        [1, 1, 1],
        truth=RigidTransform2(0.2, 1.8, 0.4),
    )


def single_collinear_on():
    """One anchor, collinear points, ranges force the anchor onto the line."""
    return scen([(0.0, 0.0)], [(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)], [1, 1, 1],
                rho=[1.0, 2.0, 3.0])


def single_generic():
    """One anchor, spread points: rotations about the anchor remain."""
    return scen(
        [(0.0, 0.0)],
        [(1.0, 0.0), (0.5, 1.0), (1.2, 0.8)],
        [1, 1, 1],
        truth=RigidTransform2(0.2, -0.1, 0.3),
    )


def two_anchor_merged():
    """1+1 with branch loops merged through both tangencies: one loop."""
    return scen([(0.0, 0.0), (4.0, 0.0)], [(0.0, 0.0), (1.0, 0.0)], [1, 2],
                rho=[2.0, 2.0])


def two_anchor_two_loops():
    """1+1 with the full phi range feasible on both branches: two loops."""
    return scen([(0.0, 0.0), (2.0, 0.0)], [(0.0, 0.0), (1.0, 0.0)], [1, 2],
                rho=[3.0, 3.0])


def two_anchor_clipped_both():
    """1+1 with a phi window limited on both sides: two arc loops."""
    return scen([(0.0, 0.0), (2.5, 0.0)], [(0.0, 0.0), (2.0, 0.0)], [1, 2],
                rho=[2.0, 1.0])


def two_anchor_single_window():
    """1+1 whose feasible phi window degenerates to a point: unique."""
    return scen([(0.0, 0.0), (3.0, 0.0)], [(0.0, 0.0), (1.0, 0.0)], [1, 2],
                rho=[1.0, 1.0])


DOUBLE_SINGLE_ANCHORS = [(0.0, 0.0), (3.0, 0.0)]
DOUBLE_SINGLE_PTS = [(0.2, 0.1), (1.1, 0.4), (0.6, 1.2)]


def double_plus_single(truth=TRUTH_A):
    """Two ranges from one anchor plus one from another: four placements."""
    return scen(DOUBLE_SINGLE_ANCHORS, DOUBLE_SINGLE_PTS, [1, 1, 2], truth=truth)


def triple_plus_single():
    """Three ranges from one anchor plus one from another: two placements."""
    return scen(
        [(0.0, 0.0), (2.5, 1.0)],
        [(0.1, 0.0), (1.0, 0.2), (0.4, 0.9), (1.3, 1.1)],
        [1, 1, 1, 2],
        truth=TRUTH_B,
    )


THREE_SINGLES_ANCHORS = [(0.0, 0.0), (3.0, 0.0), (1.0, 2.5)]
THREE_SINGLES_PTS = [(0.0, 0.0), (1.0, 0.3), (0.5, 1.0)]


def three_singles():
    """One range from each of three anchors: finitely many placements."""
    return scen(THREE_SINGLES_ANCHORS, THREE_SINGLES_PTS, [1, 2, 3], truth=TRUTH_C)


def double_double(truth=TRUTH_D):
    """Two ranges from each of two anchors: generically unique."""
    return scen(
        [(0.0, 0.0), (3.0, 0.0)],
        [(0.0, 0.0), (1.0, 0.2), (0.4, 0.9), (1.5, 1.1)],
        [1, 1, 2, 2],
        truth=truth,
    )


def double_plus_two_singles():
    return scen(
        [(0.0, 0.0), (3.0, 0.0), (1.0, 2.5)],
        [(0.2, 0.1), (1.1, 0.4), (0.6, 1.2), (1.4, 1.6)],
        [1, 1, 2, 3],
        truth=TRUTH_A,
    )


def triple_plus_double():
    return scen(
        [(0.0, 0.0), (2.5, 1.0)],
        [(0.1, 0.0), (1.0, 0.2), (0.4, 0.9), (1.3, 1.1), (0.7, 1.6)],
        [1, 1, 1, 2, 2],
        truth=TRUTH_B,
    )


def triple_plus_two_singles():
    return scen(
        [(0.0, 0.0), (2.5, 1.0), (1.0, 3.0)],
        [(0.1, 0.0), (1.0, 0.2), (0.4, 0.9), (1.3, 1.1), (0.7, 1.6)],
        [1, 1, 1, 2, 3],
        truth=TRUTH_B,
    )


def four_singles():
    return scen(
        [(0.0, 0.0), (3.0, 0.0), (1.0, 2.5), (2.2, -1.4)],
        [(0.0, 0.0), (1.0, 0.3), (0.5, 1.0), (1.5, 0.9)],
        [1, 2, 3, 4],
        truth=TRUTH_C,
    )


def tangent_three_singles():
    """Third circle tangent to the two-anchor locus: unique by tangency."""
    return scen(THREE_SINGLES_ANCHORS, THREE_SINGLES_PTS, [1, 2, 3],
                rho=[1.3, 1.6, TANGENT_THIRD_RANGE])


# Six placements, two of them (one the truth) only 3.5e-4 rad apart in
# heading, so a sampled heading search finer than that is needed to split them.
CLOSE_ROOTS_ANCHORS = [
    (-2.6950504751253423, 4.866131846641617),
    (0.20540916249864516, -2.0590488183878186),
    (2.2014515039320672, 2.1261858090795),
]
CLOSE_ROOTS_PTS = [
    (4.922424775887617, 0.2647260465140464),
    (-4.7291545739726075, 0.7817698888986016),
    (-2.2555778707038856, 4.648739820652295),
]
CLOSE_ROOTS_TRUTH = RigidTransform2(-0.4992469634127381, -0.8214088873025074, -0.738494200190341)


def close_roots_three_singles():
    return scen(CLOSE_ROOTS_ANCHORS, CLOSE_ROOTS_PTS, [1, 2, 3], truth=CLOSE_ROOTS_TRUTH)


def zero_coefficient_three_singles():
    """1+1+1 where an entry of the linear system for the offset is a multiple of 1 + cos(phi): two placements."""
    return scen([(0.0, 0.0), (-1.0, 5.0), (4.0, -3.0)], [(0.0, 0.0), (1.0, 0.0), (0.5, 2.0)], [1, 2, 3],
                rho=[1.0, 4.5, 5.2])


def three_singles_circle_family():
    """Each anchor is its point shifted by (1.5, 0.5), all ranges 1: at phi = 0 a unit circle of offsets fits."""
    pts = [(0.3, -0.5), (2.0, 0.7), (0.9, 2.1)]
    anchors = [(x + 1.5, y + 0.5) for x, y in pts]
    return scen(anchors, pts, [1, 2, 3], truth=RigidTransform2(2.5, 0.5, 0.0))


def tangent_double_plus_single():
    """2+1 whose second-anchor circle is tangent on the only live branch."""
    return scen([(0.0, 0.0), (3.0, 0.0)], [(1.2, 0.0), (0.5, 1.0), (2.0, 0.0)],
                [1, 1, 2], truth=RigidTransform2.identity())


def tangent_triple_plus_single():
    """3+1 whose second-anchor circle is tangent to the rotation circle."""
    return scen(
        [(0.0, 0.0), (3.5, 0.0)],
        [(1.0, 0.2), (0.3, 1.1), (1.4, 1.3), (2.0, 0.0)],
        [1, 1, 1, 2],
        truth=RigidTransform2.identity(),
    )


# Fourth point of the critical-line fixture: ON the surviving-pair line, and
# pushed 0.05 m off it along the line normal.
CRITICAL_Q3_ON = (0.9130495168499686, 1.8260990336999403)
CRITICAL_Q3_OFF = (0.8683281572999728, 1.848459713474938)


def double_double_on_critical_line():
    pts = DOUBLE_SINGLE_PTS + [CRITICAL_Q3_ON]
    return scen(DOUBLE_SINGLE_ANCHORS, pts, [1, 1, 2, 2],
                truth=RigidTransform2.identity())


def double_double_off_critical_line():
    pts = DOUBLE_SINGLE_PTS + [CRITICAL_Q3_OFF]
    return scen(DOUBLE_SINGLE_ANCHORS, pts, [1, 1, 2, 2],
                truth=RigidTransform2.identity())


ROTATION_ETA = 0.5


def rotation_pathology():
    """Every anchor sees two points collinear with a common pivot anchor."""
    e = ROTATION_ETA
    pts = [
        (0.7, 0.3),
        (-0.2, 0.9),
        (math.cos(e), math.sin(e)),
        (2.0 * math.cos(e), 2.0 * math.sin(e)),
        (1.5 * math.cos(math.pi / 2 + e), 1.5 * math.sin(math.pi / 2 + e)),
        (2.5 * math.cos(math.pi / 2 + e), 2.5 * math.sin(math.pi / 2 + e)),
    ]
    return scen([(0.0, 0.0), (3.0, 0.0), (0.0, 4.0)], pts, [1, 1, 2, 2, 3, 3],
                truth=RigidTransform2.identity())


def translation_pathology():
    """Per-anchor point sets collinear and parallel with equal offsets."""
    pts = [(0.3, -0.5), (1.2, -0.5), (2.0, 0.5), (3.5, 0.5), (0.5, 2.5), (1.8, 2.5)]
    return scen([(0.0, 0.0), (4.0, 1.0), (1.0, 3.0)], pts, [1, 1, 2, 2, 3, 3],
                truth=RigidTransform2.identity())


def clean_multi_anchor():
    """Six spread measurements over three anchors: clean unique case."""
    return scen(
        [(0.0, 0.0), (3.0, 0.0), (1.0, 2.5)],
        [(0.0, 0.0), (1.0, 0.3), (0.5, 1.0), (1.5, 0.9), (0.8, 1.8), (2.0, 0.2)],
        [1, 2, 3, 1, 2, 3],
        truth=RigidTransform2(0.2, -0.1, 0.35),
    )


DRIVE_TIMES = (0.4, 1.2, 2.6, 3.3, 4.9, 5.5)


def driven_scenario(truth=None):
    """Trajectory produced by piecewise-constant unicycle controls."""
    from constructa import ControlSegment, UnicycleControls, controls_to_trajectory_v

    controls = UnicycleControls((
        ControlSegment(1.0, 0.3, 2.0),
        ControlSegment(0.8, -0.5, 1.5),
        ControlSegment(1.2, 0.8, 2.0),
    ))
    trajectory = controls_to_trajectory_v(controls, DRIVE_TIMES)
    s = Scenario(
        anchors=(Anchor(1, Point2(0.0, 0.0)), Anchor(2, Point2(3.0, 0.0)),
                 Anchor(3, Point2(1.0, 2.5))),
        trajectory=trajectory,
        schedule=MeasurementSchedule((1, 2, 3, 1, 2, 3)),
        controls=controls,
        sample_times=DRIVE_TIMES,
    )
    if truth is not None:
        return with_measurements(s, synthesize_measurements(s, truth))
    return s
