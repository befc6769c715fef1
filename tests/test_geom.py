"""Planar primitives: transforms, circle intersection, lines."""
import math

import numpy as np
import pytest

from constructa import (
    Circle,
    CircleIntersection,
    IntersectKind,
    Line2,
    Point2,
    RigidTransform2,
    angle_diff,
    circle_circle_intersect,
    collinear,
    perpendicular_bisector,
    point_line_distance,
    wrap_angle,
)


def test_wrap_angle_range():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(-math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(-math.pi)
    assert wrap_angle(2.5 * math.pi) == pytest.approx(0.5 * math.pi)
    rng = np.random.default_rng(1)
    for a in rng.uniform(-50.0, 50.0, 200):
        w = wrap_angle(float(a))
        assert -math.pi <= w < math.pi
        assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-12)
        assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-12)


def test_angle_diff_is_signed_shortest():
    assert angle_diff(0.1, -0.1) == pytest.approx(0.2)
    assert angle_diff(-3.0, 3.0) == pytest.approx(2.0 * math.pi - 6.0)


def test_point_basics():
    p = Point2(3.0, 4.0)
    assert p.dist(Point2(0.0, 0.0)) == pytest.approx(5.0)
    np.testing.assert_allclose(p.as_array(), [3.0, 4.0])
    assert Point2.of(np.array([1.5, -2.0])) == Point2(1.5, -2.0)
    with pytest.raises(ValueError):
        Point2(math.nan, 0.0)


def test_transform_apply_matches_matrix_form():
    rng = np.random.default_rng(2)
    for _ in range(100):
        t = RigidTransform2(*rng.uniform(-3, 3, 2), rng.uniform(-9, 9))
        p = Point2(*rng.uniform(-5, 5, 2))
        expected = t.rotation() @ p.as_array() + t.translation()
        got = t.apply(p)
        np.testing.assert_allclose([got.x, got.y], expected, atol=1e-12)


def test_transform_phi_stored_wrapped():
    t = RigidTransform2(0.0, 0.0, 3.0 * math.pi)
    assert t.phi == pytest.approx(-math.pi)


def test_compose_matches_sequential_application():
    rng = np.random.default_rng(3)
    for _ in range(100):
        t1 = RigidTransform2(*rng.uniform(-2, 2, 2), rng.uniform(-4, 4))
        t2 = RigidTransform2(*rng.uniform(-2, 2, 2), rng.uniform(-4, 4))
        p = Point2(*rng.uniform(-3, 3, 2))
        a = t1.apply(t2.apply(p))
        b = t1.compose(t2).apply(p)
        assert a.dist(b) < 1e-12


def test_inverse_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(100):
        t = RigidTransform2(*rng.uniform(-2, 2, 2), rng.uniform(-4, 4))
        p = Point2(*rng.uniform(-3, 3, 2))
        assert t.inverse().apply(t.apply(p)).dist(p) < 1e-12
        rt = t.compose(t.inverse())
        assert math.hypot(rt.dx, rt.dy) < 1e-12
        assert abs(wrap_angle(rt.phi)) < 1e-12


def test_apply_array_matches_pointwise():
    t = RigidTransform2(0.3, -0.7, 1.2)
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [-3.0, 0.5]])
    out = t.apply_array(pts)
    for row, p in zip(out, pts):
        q = t.apply(Point2(*p))
        np.testing.assert_allclose(row, [q.x, q.y], atol=1e-12)


def test_circle_pair_points_lie_on_both_circles():
    rng = np.random.default_rng(5)
    found = 0
    for _ in range(300):
        a = Circle(Point2(*rng.uniform(-3, 3, 2)), float(rng.uniform(0.2, 3.0)))
        b = Circle(Point2(*rng.uniform(-3, 3, 2)), float(rng.uniform(0.2, 3.0)))
        res = circle_circle_intersect(a, b)
        if res.kind is not IntersectKind.PAIR:
            continue
        found += 1
        for p in res.points:
            assert p.dist(a.center) == pytest.approx(a.radius, abs=1e-9)
            assert p.dist(b.center) == pytest.approx(b.radius, abs=1e-9)
        # first point sits left of the center axis
        u = b.center.as_array() - a.center.as_array()
        v = res.points[0].as_array() - a.center.as_array()
        assert u[0] * v[1] - u[1] * v[0] > 0.0
    assert found > 50


def test_circle_tangent_and_empty_kinds():
    a = Circle(Point2(0.0, 0.0), 1.0)
    ext = circle_circle_intersect(a, Circle(Point2(3.0, 0.0), 2.0))
    assert ext.kind is IntersectKind.TANGENT
    assert ext.points[0].dist(Point2(1.0, 0.0)) < 1e-9

    internal = circle_circle_intersect(a, Circle(Point2(0.5, 0.0), 0.5))
    assert internal.kind is IntersectKind.TANGENT
    assert internal.points[0].dist(Point2(1.0, 0.0)) < 1e-9

    assert circle_circle_intersect(a, Circle(Point2(5.0, 0.0), 1.0)).kind is IntersectKind.EMPTY
    assert circle_circle_intersect(a, Circle(Point2(0.1, 0.0), 0.2)).kind is IntersectKind.EMPTY
    assert circle_circle_intersect(a, Circle(Point2(0.0, 0.0), 1.0)).kind is IntersectKind.COINCIDENT
    # concentric but different radii: no intersection
    assert circle_circle_intersect(a, Circle(Point2(0.0, 0.0), 2.0)).kind is IntersectKind.EMPTY


def test_circle_tangency_window_follows_tol():
    a = Circle(Point2(0.0, 0.0), 1.0)
    b = Circle(Point2(2.0 + 5e-7, 0.0), 1.0)
    assert circle_circle_intersect(a, b, tol=1e-6).kind is IntersectKind.TANGENT
    assert circle_circle_intersect(a, b, tol=1e-9).kind is IntersectKind.EMPTY
    with pytest.raises(ValueError):
        circle_circle_intersect(a, b, tol=0.0)


def test_collinear():
    pts = [Point2(0.0, 0.0), Point2(1.0, 1.0), Point2(2.5, 2.5)]
    assert collinear(pts)
    assert not collinear(pts + [Point2(1.0, 0.0)])
    assert collinear([Point2(0.3, 0.3), Point2(0.3, 0.3)])
    assert collinear([Point2(0.0, 1e-12), Point2(1.0, -1e-12), Point2(2.0, 0.0)])
    with pytest.raises(ValueError):
        collinear([Point2(0.0, 0.0)])
    with pytest.raises(ValueError):
        collinear(pts, tol=-1.0)


def test_line_distances():
    line = Line2(Point2(0.0, 0.0), Point2(2.0, 0.0))
    assert point_line_distance(Point2(1.0, 0.0), line) == pytest.approx(0.0, abs=1e-12)
    assert point_line_distance(Point2(1.0, -3.0), line) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        Line2(Point2(0.0, 0.0), Point2(0.0, 0.0))


def test_line_direction_normalized_and_normal_perpendicular():
    line = Line2(Point2(1.0, 1.0), Point2(3.0, 4.0))
    assert math.hypot(line.direction.x, line.direction.y) == pytest.approx(1.0)
    n = line.normal()
    assert line.direction.x * n.x + line.direction.y * n.y == pytest.approx(0.0)


def test_perpendicular_bisector_is_equidistant():
    rng = np.random.default_rng(6)
    for _ in range(100):
        p = Point2(*rng.uniform(-4, 4, 2))
        q = Point2(*rng.uniform(-4, 4, 2))
        if p.dist(q) < 1e-6:
            continue
        line = perpendicular_bisector(p, q)
        for t in (-2.0, 0.0, 1.3):
            z = Point2(line.point.x + t * line.direction.x,
                       line.point.y + t * line.direction.y)
            assert z.dist(p) == pytest.approx(z.dist(q), abs=1e-9)


def test_intersection_result_is_frozen():
    res = CircleIntersection(IntersectKind.EMPTY, ())
    with pytest.raises(Exception):
        res.kind = IntersectKind.PAIR
