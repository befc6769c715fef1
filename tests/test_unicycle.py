"""Unicycle flow: closed-form integration, sampling, state sensitivity."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from constructa import (
    ControlSegment,
    NonPositiveInput,
    TimeOutOfRange,
    UnicycleControls,
    UnicycleState,
    controls_to_trajectory_v,
    integrate,
    integrate_times,
    sensitivity,
)


def _rk4_state(controls, t, initial=(0.0, 0.0, 0.0), steps_per_piece=4000):
    """Independent fixed-step integration of x' = v cos, y' = v sin, th' = w.

    Steps never straddle a control switch: the rate jumps there, which would
    cost the integrator its order.
    """
    bounds = controls.boundaries()
    state = np.array(initial, dtype=float)
    t_done = 0.0
    for seg, end in zip(controls.segments, bounds[1:]):
        piece_end = min(float(end), t)
        if piece_end <= t_done:
            continue
        h = (piece_end - t_done) / steps_per_piece

        def rate(s):
            return np.array([seg.v * math.cos(s[2]), seg.v * math.sin(s[2]), seg.omega])

        for _ in range(steps_per_piece):
            k1 = rate(state)
            k2 = rate(state + 0.5 * h * k1)
            k3 = rate(state + 0.5 * h * k2)
            k4 = rate(state + h * k3)
            state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t_done = piece_end
        if piece_end >= t:
            break
    return state


CONTROLS = UnicycleControls((
    ControlSegment(1.0, 0.3, 2.0),
    ControlSegment(0.8, -0.5, 1.5),
    ControlSegment(1.2, 0.8, 2.0),
))


def test_closed_form_matches_fine_rk4():
    # segment boundaries are where closed-form stitching could go wrong
    for t in (0.0, 0.7, 2.0, 2.0 + 1e-12, 3.1, 3.5, 4.6, 5.5):
        st = integrate(CONTROLS, t)
        ref = _rk4_state(CONTROLS, t)
        assert abs(st.x - ref[0]) < 1e-8
        assert abs(st.y - ref[1]) < 1e-8
        assert abs(math.sin(st.theta) - math.sin(ref[2])) < 1e-8
        assert abs(math.cos(st.theta) - math.cos(ref[2])) < 1e-8


def test_straight_segment_closed_form():
    c = UnicycleControls((ControlSegment(2.0, 0.0, 3.0),))
    st = integrate(c, 1.5)
    assert st.x == pytest.approx(3.0)
    assert st.y == pytest.approx(0.0, abs=1e-15)
    assert st.theta == pytest.approx(0.0)


def test_pure_arc_closed_form():
    # quarter circle of radius 2: v = 1, omega = 0.5, t = pi
    c = UnicycleControls((ControlSegment(1.0, 0.5, 8.0),))
    st = integrate(c, math.pi)
    assert st.x == pytest.approx(2.0)
    assert st.y == pytest.approx(2.0)
    assert st.theta == pytest.approx(math.pi / 2)


def test_initial_state_respected():
    init = UnicycleState(1.0, -1.0, math.pi / 2)
    c = UnicycleControls((ControlSegment(1.0, 0.0, 1.0),))
    st = integrate(c, 1.0, init)
    assert st.x == pytest.approx(1.0)
    assert st.y == pytest.approx(0.0)


def test_time_bounds_enforced():
    with pytest.raises(TimeOutOfRange):
        integrate(CONTROLS, -0.5)
    with pytest.raises(TimeOutOfRange):
        integrate(CONTROLS, CONTROLS.total_duration + 0.1)
    # tiny numerical overshoot of the horizon is clamped, not rejected
    integrate(CONTROLS, CONTROLS.total_duration + 1e-12)


def test_validation():
    with pytest.raises(NonPositiveInput):
        ControlSegment(1.0, 0.0, 0.0)
    with pytest.raises(NonPositiveInput):
        UnicycleControls(())
    with pytest.raises(NonPositiveInput):
        ControlSegment(math.inf, 0.0, 1.0)


def test_trajectory_sampling_anchors_vehicle_frame_at_start():
    times = (0.4, 1.2, 2.6)
    traj = controls_to_trajectory_v(CONTROLS, times)
    states = integrate_times(CONTROLS, times)
    assert len(traj.points) == 3
    for p, st in zip(traj.points, states):
        assert p.x == pytest.approx(st.x)
        assert p.y == pytest.approx(st.y)
    np.testing.assert_allclose(traj.headings, [st.theta for st in states])


@hst.composite
def _controls_and_times(draw):
    """Controls with some straight (omega = 0) pieces, and t_from <= t_to
    drawn from the segment boundaries as often as from inside the segments."""
    segments = draw(hst.lists(
        hst.builds(
            ControlSegment,
            v=hst.floats(-2.0, 2.0),
            omega=hst.one_of(hst.just(0.0), hst.floats(-1.5, 1.5)),
            duration=hst.floats(0.1, 2.0),
        ),
        min_size=1,
        max_size=4,
    ))
    controls = UnicycleControls(tuple(segments))
    bounds = controls.boundaries()
    when = hst.one_of(hst.sampled_from(bounds), hst.floats(0.0, bounds[-1]))
    t_from, t_to = sorted((draw(when), draw(when)))
    return controls, t_from, t_to


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@example((CONTROLS, 0.9, 4.7))
@example((UnicycleControls((ControlSegment(1.0, 1.0, 1.0), ControlSegment(1.5, 1e-7, 2.0))), 0.5, 3.0))
@given(_controls_and_times())
def test_sensitivity_matches_finite_differences(case):
    controls, t_from, t_to = case
    m = sensitivity(controls, t_from, t_to)
    eps = 1e-6
    base = integrate(controls, t_from)
    fd = np.zeros((3, 3))
    for j in range(3):
        d = np.zeros(3)
        d[j] = eps
        plus = UnicycleState(base.x + d[0], base.y + d[1], base.theta + d[2])
        minus = UnicycleState(base.x - d[0], base.y - d[1], base.theta - d[2])
        # restart the flow at t_from and advance to t_to
        diff = _shifted_state(controls, t_from, t_to, plus) - _shifted_state(controls, t_from, t_to, minus)
        diff[2] = math.remainder(diff[2], 2 * math.pi)  # headings come back wrapped
        fd[:, j] = diff / (2 * eps)
    np.testing.assert_allclose(m, fd, atol=5e-6)


def _shifted_state(controls, t_from, t_to, start):
    """Integrate the tail [t_from, t_to] from an arbitrary start state."""
    bounds = controls.boundaries()
    state = (start.x, start.y, start.theta)
    for i, seg in enumerate(controls.segments):
        dt = min(bounds[i + 1], t_to) - max(bounds[i], t_from)
        if dt <= 0.0:
            continue
        sub = UnicycleControls((ControlSegment(seg.v, seg.omega, dt),))
        end = integrate(sub, dt, UnicycleState(*state))
        state = (end.x, end.y, end.theta)
    return np.array(state)


def test_sensitivity_structure():
    # translation sensitivities are exactly identity columns
    m = sensitivity(CONTROLS, 0.5, 5.0)
    np.testing.assert_allclose(m[:, :2], [[1, 0], [0, 1], [0, 0]], atol=1e-12)
    assert m[2, 2] == pytest.approx(1.0)
    # zero interval gives the identity
    np.testing.assert_allclose(sensitivity(CONTROLS, 1.0, 1.0), np.eye(3), atol=1e-12)
    with pytest.raises(TimeOutOfRange):
        sensitivity(CONTROLS, 3.0, 1.0)
