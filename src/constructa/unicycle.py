"""Planar unicycle kinematics under piecewise-constant controls.

State is (x, y, theta) with xdot = v cos(theta), ydot = v sin(theta),
thetadot = omega. With constant (v, omega) each segment integrates in closed
form, so sampled trajectories are exact. So is the state-transition matrix:
the controls do not depend on the state, so a change of position at t0
shifts the rest of the path and a change of heading rotates it about the
position at t0. `sensitivity` takes those positions from the flow, which
keeps the numerical Gramian an independent check of the closed-form rows
built from the placed geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveInput, TimeOutOfRange
from .geom import Point2, wrap_angle


@dataclass(frozen=True)
class UnicycleState:
    x: float
    y: float
    theta: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.theta)):
            raise NonPositiveInput("state components must be finite")
        object.__setattr__(self, "theta", wrap_angle(self.theta))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.theta], dtype=float)

    def point(self) -> Point2:
        return Point2(self.x, self.y)


@dataclass(frozen=True)
class ControlSegment:
    """Constant forward speed v and turn rate omega held for `duration`."""

    v: float
    omega: float
    duration: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.v, self.omega, self.duration)):
            raise NonPositiveInput("control segment values must be finite")
        if self.duration <= 0.0:
            raise NonPositiveInput(f"segment duration must be positive, got {self.duration}")


@dataclass(frozen=True)
class UnicycleControls:
    segments: tuple[ControlSegment, ...]

    def __post_init__(self):
        if len(self.segments) == 0:
            raise NonPositiveInput("control sequence must not be empty")

    @property
    def total_duration(self) -> float:
        return float(sum(seg.duration for seg in self.segments))

    def boundaries(self) -> list[float]:
        """Segment start/end times, length = number of segments + 1."""
        out = [0.0]
        for seg in self.segments:
            out.append(out[-1] + seg.duration)
        return out


def _check_time(t: float, total: float) -> float:
    slack = 1e-9 * max(1.0, total)
    if not math.isfinite(t) or t < -slack or t > total + slack:
        raise TimeOutOfRange(f"time {t} outside [0, {total}]")
    return min(max(t, 0.0), total)


def _advance(state: tuple[float, float, float], seg: ControlSegment, dt: float):
    """Exact flow of one constant-control piece over dt >= 0.

    The chord of the arc has length v dt sin(h)/h along the mean heading
    th + h, h = omega dt / 2. Unlike (v/omega)(sin th1 - sin th) this keeps
    full precision as omega goes to 0, where it becomes the straight line.
    """
    x, y, th = state
    h = 0.5 * seg.omega * dt
    chord = seg.v * dt * (math.sin(h) / h if h != 0.0 else 1.0)
    return (x + chord * math.cos(th + h), y + chord * math.sin(th + h), th + seg.omega * dt)


def integrate(controls: UnicycleControls, t: float, initial: UnicycleState | None = None) -> UnicycleState:
    """State at time t starting from `initial` (default: origin, heading 0)."""
    if initial is None:
        initial = UnicycleState(0.0, 0.0, 0.0)
    bounds = controls.boundaries()
    t = _check_time(t, bounds[-1])
    state = (initial.x, initial.y, initial.theta)
    for i, seg in enumerate(controls.segments):
        if t <= bounds[i]:
            break
        dt = min(t, bounds[i + 1]) - bounds[i]
        state = _advance(state, seg, dt)
    return UnicycleState(*state)


def integrate_times(
    controls: UnicycleControls, times, initial: UnicycleState | None = None
) -> list[UnicycleState]:
    return [integrate(controls, float(t), initial) for t in times]


def sensitivity(controls: UnicycleControls, t_from: float, t_to: float) -> np.ndarray:
    """State-transition matrix d state(t_to) / d state(t_from), t_from <= t_to.

    Exact under piecewise-constant controls: [[1, 0, -(y1 - y0)],
    [0, 1, x1 - x0], [0, 0, 1]] with (x0, y0) and (x1, y1) the positions of
    the flow at t_from and t_to.
    """
    total = controls.boundaries()[-1]
    t_from = _check_time(t_from, total)
    t_to = _check_time(t_to, total)
    if t_from > t_to:
        raise TimeOutOfRange(f"t_from {t_from} exceeds t_to {t_to}")
    p0 = integrate(controls, t_from)
    p1 = integrate(controls, t_to)
    m = np.eye(3)
    m[0, 2] = -(p1.y - p0.y)
    m[1, 2] = p1.x - p0.x
    return m
