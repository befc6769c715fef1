"""Constructibility Gramian: closed form, integral form, null directions."""
import math

import numpy as np
import pytest

from constructa import (
    DegenerateInput,
    InconsistentControls,
    Point2,
    RigidTransform2,
    SchemaError,
    ZeroRange,
    anchor_rotation_directions,
    build_gramian,
    critical_line_1p1p1_local,
    gramian_contribution,
    numerical_gramian,
    point_line_distance,
    rotation_generator,
    singular_direction_report,
    translation_generator,
)
from helpers import driven_scenario, scen

TRUTH = RigidTransform2(0.2, -0.3, 0.6)


def test_contribution_row_is_bearing_and_moment():
    row = gramian_contribution(Point2(1.0, 0.0), Point2(0.0, 0.0), Point2(2.0, 1.0))
    # bearing from anchor to point is 0: row = [1, 0, (y_f - y)]
    np.testing.assert_allclose(row, [1.0, 0.0, 1.0], atol=1e-12)
    with pytest.raises(ZeroRange):
        gramian_contribution(Point2(0.5, 0.5), Point2(0.5, 0.5), Point2(0.0, 0.0))


def test_gramian_report_shape_and_spectrum():
    s = driven_scenario()
    rep = build_gramian(s, placement=TRUTH)
    assert rep.matrix.shape == (3, 3)
    np.testing.assert_allclose(rep.matrix, rep.matrix.T, atol=1e-12)
    assert np.all(np.diff(rep.eigenvalues) >= -1e-12)
    assert np.all(rep.eigenvalues >= -1e-9)
    assert rep.rank == 3
    assert rep.null_basis.shape == (3, 0)
    assert len(rep.contributions) == s.n_measurements
    placed_last = TRUTH.apply(s.trajectory.points[-1])
    assert rep.final_position.dist(placed_last) < 1e-12
    # the matrix is the sum of its rank-one contributions
    total = sum(np.outer(c, c) for c in rep.contributions)
    np.testing.assert_allclose(rep.matrix, total, atol=1e-12)


def test_closed_form_matches_integrated_transition():
    s = driven_scenario()
    closed = build_gramian(s, placement=TRUTH).matrix
    numeric = numerical_gramian(s, placement=TRUTH)
    lam = float(np.linalg.eigvalsh(closed)[-1])
    assert float(np.max(np.abs(numeric - closed))) <= 1e-8 * max(lam, 1.0)


def test_numerical_gramian_needs_controls():
    s = scen([(0.0, 0.0), (3.0, 0.0)], [(0.3, 0.4), (1.0, 0.9)], [1, 2])
    with pytest.raises(SchemaError):
        numerical_gramian(s)


def test_numerical_gramian_rejects_mismatched_trajectory():
    from dataclasses import replace

    from constructa import TrajectoryV

    s = driven_scenario()
    pts = list(s.trajectory.points)
    pts[2] = Point2(pts[2].x + 0.05, pts[2].y)
    bad = replace(s, trajectory=TrajectoryV(tuple(pts), s.trajectory.headings))
    with pytest.raises(InconsistentControls):
        numerical_gramian(bad)


def test_rotation_generator_annihilates_single_anchor_rows():
    s = scen([(0.0, 0.0)], [(1.0, 0.0), (0.5, 1.0), (1.2, 0.8)], [1, 1, 1])
    rep = build_gramian(s)
    g = rotation_generator(s.anchors[0].position, rep.final_position)
    lam = float(rep.eigenvalues[-1])
    assert float(np.linalg.norm(rep.matrix @ g)) <= 1e-10 * max(lam, 1.0)
    assert rep.rank <= 2


def test_translation_generator_annihilates_collinear_rows():
    # all points and both anchors on the x axis: shifting in y is blind
    s = scen([(0.0, 0.0), (3.0, 0.0)], [(1.0, 0.0), (2.0, 0.0)], [1, 2])
    rep = build_gramian(s)
    g = translation_generator((0.0, 1.0))
    assert float(np.linalg.norm(rep.matrix @ g)) <= 1e-10
    assert rep.rank == 1
    with pytest.raises(DegenerateInput):
        translation_generator((0.0, 0.0))


def test_singular_direction_report_flags_the_blind_rotation():
    # second anchor's point aligned with both anchors: rotation about the
    # first anchor is blind even with three ranges
    pts = [(1.0, 0.5), (0.4, 1.2), (2.0, 0.0)]
    s = scen([(0.0, 0.0), (3.0, 0.0)], pts, [1, 1, 2])
    rep = build_gramian(s)
    checked = singular_direction_report(rep.matrix, anchor_rotation_directions(s),
                                        rank_tol=1e-8)
    assert checked[0].label == "rotation about anchor 1"
    assert checked[0].annihilated
    assert not checked[1].annihilated
    assert checked[0].residual < checked[1].residual


def test_rank_catalogue_examples():
    # single anchor never exceeds rank 2
    single = scen([(0.0, 0.0)], [(1.0, 0.0), (0.5, 1.0), (1.2, 0.8)], [1, 1, 1])
    assert build_gramian(single).rank == 2
    # one anchor, points collinear with it: rank 1
    ray = scen([(0.0, 0.0)], [(1.0, 0.0), (2.0, 0.0)], [1, 1])
    assert build_gramian(ray).rank == 1
    # two anchors one range each: rank 2, or 1 when everything is collinear
    generic_pair = scen([(0.0, 0.0), (3.0, 0.0)], [(0.3, 0.4), (1.0, 0.9)], [1, 2])
    assert build_gramian(generic_pair).rank == 2
    flat_pair = scen([(0.0, 0.0), (3.0, 0.0)], [(1.0, 0.0), (2.0, 0.0)], [1, 2])
    assert build_gramian(flat_pair).rank == 1


def test_local_critical_line_for_three_singles():
    b1, b2, b3 = Point2(0.0, 0.0), Point2(3.0, 0.0), Point2(1.0, 2.5)
    p1, p2 = Point2(0.3, 0.4), Point2(1.0, 0.9)
    line = critical_line_1p1p1_local(b1, b2, b3, p1, p2)
    assert line is not None
    # the singular line always passes through the third anchor
    assert point_line_distance(b3, line) < 1e-9

    def rank_with_third(p3):
        s = scen([(0.0, 0.0), (3.0, 0.0), (1.0, 2.5)],
                 [(p1.x, p1.y), (p2.x, p2.y), (p3.x, p3.y)], [1, 2, 3])
        return build_gramian(s).rank

    for t in (-0.8, 1.3):
        on = Point2(line.point.x + t * line.direction.x,
                    line.point.y + t * line.direction.y)
        assert rank_with_third(on) == 2
    n = line.normal()
    off = Point2(line.point.x + 1.3 * line.direction.x - 0.3 * n.x,
                 line.point.y + 1.3 * line.direction.y - 0.3 * n.y)
    assert rank_with_third(off) == 3


def test_local_critical_line_degenerate_rows():
    # first two rows parallel: every third point is singular
    with pytest.raises(DegenerateInput):
        critical_line_1p1p1_local(Point2(0.0, 0.0), Point2(3.0, 0.0),
                                  Point2(1.0, 2.5), Point2(1.0, 0.0), Point2(2.0, 0.0))


def test_gramian_rank_uses_relative_tolerance():
    s = scen([(0.0, 0.0), (3.0, 0.0)], [(0.3, 0.4), (1.0, 0.9)], [1, 2])
    # a huge explicit tolerance collapses the rank
    assert build_gramian(s, rank_tol=10.0).rank == 0
    assert build_gramian(s, rank_tol=1e-12).rank >= 2
