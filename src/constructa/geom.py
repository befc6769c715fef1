"""Planar geometry primitives with explicit tolerances.

Everything downstream (solvers, taxonomy, Gramian analysis) reduces to a small
set of constructions kept here: rigid transforms of the plane, circle-circle
intersection with a tangency window, collinearity tests and lines. All length
tolerances are absolute, in meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConstructaError

TWO_PI = 2.0 * math.pi


def wrap_angle(a: float) -> float:
    """Wrap an angle to [-pi, pi)."""
    return (a + math.pi) % TWO_PI - math.pi


def angle_diff(a: float, b: float) -> float:
    """Signed difference a - b wrapped to [-pi, pi)."""
    return wrap_angle(a - b)


@dataclass(frozen=True)
class Point2:
    """Point of the plane, coordinates in meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x}, {self.y})")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)

    @staticmethod
    def of(arr) -> Point2:
        return Point2(float(arr[0]), float(arr[1]))

    def dist(self, other: Point2) -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class RigidTransform2:
    """Proper rigid motion of the plane: rotation by phi, then translation.

    apply(p) = R(phi) p + (dx, dy). phi is stored wrapped to [-pi, pi).
    """

    dx: float
    dy: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.dx) and math.isfinite(self.dy) and math.isfinite(self.phi)):
            raise ValueError("non-finite transform")
        object.__setattr__(self, "phi", wrap_angle(self.phi))

    @staticmethod
    def identity() -> RigidTransform2:
        return RigidTransform2(0.0, 0.0, 0.0)

    def rotation(self) -> np.ndarray:
        c, s = math.cos(self.phi), math.sin(self.phi)
        return np.array([[c, -s], [s, c]])

    def translation(self) -> np.ndarray:
        return np.array([self.dx, self.dy])

    def apply(self, p: Point2) -> Point2:
        c, s = math.cos(self.phi), math.sin(self.phi)
        return Point2(c * p.x - s * p.y + self.dx, s * p.x + c * p.y + self.dy)

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        """Apply to an (N, 2) array of points."""
        pts = np.asarray(pts, dtype=float)
        return pts @ self.rotation().T + self.translation()

    def compose(self, other: RigidTransform2) -> RigidTransform2:
        """Transform equal to applying `other` first, then `self`."""
        c, s = math.cos(self.phi), math.sin(self.phi)
        return RigidTransform2(
            c * other.dx - s * other.dy + self.dx,
            s * other.dx + c * other.dy + self.dy,
            self.phi + other.phi,
        )

    def inverse(self) -> RigidTransform2:
        c, s = math.cos(self.phi), math.sin(self.phi)
        return RigidTransform2(-(c * self.dx + s * self.dy), -(-s * self.dx + c * self.dy), -self.phi)


@dataclass(frozen=True)
class Circle:
    center: Point2
    radius: float

    def __post_init__(self):
        if not math.isfinite(self.radius) or self.radius < 0.0:
            raise ValueError(f"invalid radius {self.radius}")


@dataclass(frozen=True)
class Line2:
    """Line given by a point on it and a unit direction."""

    point: Point2
    direction: Point2

    def __post_init__(self):
        n = math.hypot(self.direction.x, self.direction.y)
        if n < 1e-300:
            raise ValueError("line direction must be nonzero")
        object.__setattr__(self, "direction", Point2(self.direction.x / n, self.direction.y / n))

    def normal(self) -> Point2:
        return Point2(-self.direction.y, self.direction.x)


class IntersectKind(Enum):
    EMPTY = "empty"
    TANGENT = "tangent"
    PAIR = "pair"
    COINCIDENT = "coincident"


@dataclass(frozen=True)
class CircleIntersection:
    kind: IntersectKind
    points: tuple[Point2, ...]


def circle_circle_intersect(a: Circle, b: Circle, tol: float = 1e-9) -> CircleIntersection:
    """Intersect two circles.

    The tangency window is `tol`: configurations within tol of external or
    internal tangency collapse to a single point. Coincident circles (equal
    centers and radii within tol) are reported as such with no points.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    d = a.center.dist(b.center)
    if d <= tol and abs(a.radius - b.radius) <= tol:
        return CircleIntersection(IntersectKind.COINCIDENT, ())
    if d <= 1e-300:
        return CircleIntersection(IntersectKind.EMPTY, ())

    ux = (b.center.x - a.center.x) / d
    uy = (b.center.y - a.center.y) / d
    outer = a.radius + b.radius
    inner = abs(a.radius - b.radius)
    if d > outer + tol or d < inner - tol:
        return CircleIntersection(IntersectKind.EMPTY, ())

    # Chord foot along the center line; h is the half-chord.
    m = (a.radius * a.radius - b.radius * b.radius + d * d) / (2.0 * d)
    h2 = a.radius * a.radius - m * m
    if not math.isfinite(h2):
        raise ConstructaError("circle intersection overflows: lengths too large to square in floating point")
    fx = a.center.x + m * ux
    fy = a.center.y + m * uy
    if abs(d - outer) <= tol or abs(d - inner) <= tol or h2 <= 0.0:
        return CircleIntersection(IntersectKind.TANGENT, (Point2(fx, fy),))
    h = math.sqrt(h2)
    # Positive-normal point first (left of the a->b axis).
    p_plus = Point2(fx - h * uy, fy + h * ux)
    p_minus = Point2(fx + h * uy, fy - h * ux)
    return CircleIntersection(IntersectKind.PAIR, (p_plus, p_minus))


def collinear(points, tol: float = 1e-9) -> bool:
    """True when every point lies within tol of a common line."""
    pts = np.asarray([[p.x, p.y] for p in points], dtype=float)
    if pts.shape[0] < 2:
        raise ValueError("need at least 2 points")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    centered = pts - pts.mean(axis=0)
    if np.max(np.abs(centered)) <= tol:
        return True
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    perp = vt[-1]
    return float(np.max(np.abs(centered @ perp))) <= tol


def point_line_distance(p: Point2, line: Line2) -> float:
    vx = p.x - line.point.x
    vy = p.y - line.point.y
    return abs(vx * line.direction.y - vy * line.direction.x)


def perpendicular_bisector(p: Point2, q: Point2) -> Line2:
    """Locus of points equidistant from p and q."""
    mid = Point2(0.5 * (p.x + q.x), 0.5 * (p.y + q.y))
    return Line2(mid, Point2(-(q.y - p.y), q.x - p.x))
