"""Scenario data model: anchors, vehicle-frame trajectory, schedule, ranges.

A scenario couples a trajectory expressed in the vehicle frame with fixed
anchors in the world frame and a schedule saying which anchor produced each
range sample. Range values themselves are optional so a geometry can be loaded
first and measurements synthesized from a reference placement afterwards.

File format: UTF-8 JSON with keys `anchors` [{id,x,y}], `points_v` [{x,y}],
`schedule` (anchor ids, position = sample index), optional `headings_v`,
`rho`, `tolerances` and, alternatively to `points_v`, a piecewise-constant
`controls` list plus `sample_times` from which the trajectory is generated.
Schema violations are hard errors, never warnings.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import MissingMeasurements, NonPositiveInput, ParseError, SchemaError
from .geom import Point2, RigidTransform2, collinear
from .unicycle import ControlSegment, UnicycleControls, UnicycleState, integrate_times


@dataclass(frozen=True)
class Anchor:
    id: int
    position: Point2


@dataclass(frozen=True)
class TrajectoryV:
    """Vehicle-frame sample points, optionally with headings."""

    points: tuple[Point2, ...]
    headings: tuple[float, ...] | None = None

    def __post_init__(self):
        if len(self.points) == 0:
            raise SchemaError("trajectory needs at least one point")
        if self.headings is not None and len(self.headings) != len(self.points):
            raise SchemaError("headings length differs from points length")

    def as_array(self) -> np.ndarray:
        return np.array([[p.x, p.y] for p in self.points], dtype=float)


@dataclass(frozen=True)
class MeasurementSchedule:
    """Anchor id per sample index k = 0 .. N_m - 1."""

    anchor_ids: tuple[int, ...]

    def __post_init__(self):
        if len(self.anchor_ids) == 0:
            raise SchemaError("schedule must not be empty")

    @property
    def entries(self) -> tuple[tuple[int, int], ...]:
        return tuple(enumerate(self.anchor_ids))

    def __len__(self) -> int:
        return len(self.anchor_ids)


@dataclass(frozen=True)
class Measurements:
    rho: tuple[float, ...]

    def __post_init__(self):
        for r in self.rho:
            if not math.isfinite(r) or r < 0.0:
                raise SchemaError(f"range values must be finite and nonnegative, got {r}")


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances; lengths in meters, dedup angle part in radians."""

    collinear: float = 1e-9
    tangency: float = 1e-9
    rank: float = 1e-8
    dedup: tuple[float, float] = (1e-5, 1e-5)
    degenerate: float = 1e-7

    def __post_init__(self):
        vals = (self.collinear, self.tangency, self.rank, self.dedup[0], self.dedup[1], self.degenerate)
        if any((not math.isfinite(v)) or v <= 0.0 for v in vals):
            raise SchemaError("tolerances must be positive and finite")


@dataclass(frozen=True)
class Scenario:
    anchors: tuple[Anchor, ...]
    trajectory: TrajectoryV
    schedule: MeasurementSchedule
    measurements: Measurements | None = None
    tolerances: Tolerances = field(default_factory=Tolerances)
    controls: UnicycleControls | None = None
    sample_times: tuple[float, ...] | None = None

    def __post_init__(self):
        ids = [a.id for a in self.anchors]
        if len(ids) == 0:
            raise SchemaError("at least one anchor required")
        if len(set(ids)) != len(ids):
            raise SchemaError("anchor ids must be unique")
        for i, a in enumerate(self.anchors):
            for b in self.anchors[i + 1 :]:
                if a.position.dist(b.position) <= self.tolerances.collinear:
                    raise SchemaError(f"anchors {a.id} and {b.id} coincide")
        known = set(ids)
        for k, aid in self.schedule.entries:
            if aid not in known:
                raise SchemaError(f"schedule entry {k} references unknown anchor {aid}")
        if len(self.schedule) != len(self.trajectory.points):
            raise SchemaError(
                f"schedule length {len(self.schedule)} != trajectory length {len(self.trajectory.points)}"
            )
        if self.measurements is not None and len(self.measurements.rho) != len(self.schedule):
            raise SchemaError("rho length differs from schedule length")
        if self.sample_times is not None and len(self.sample_times) != len(self.schedule):
            raise SchemaError("sample_times length differs from schedule length")

    @property
    def n_measurements(self) -> int:
        return len(self.schedule)

    def anchor_by_id(self, aid: int) -> Anchor:
        for a in self.anchors:
            if a.id == aid:
                return a
        raise SchemaError(f"unknown anchor id {aid}")

    def anchor_positions(self) -> np.ndarray:
        """World anchor position per measurement index, shape (N_m, 2)."""
        by_id = {a.id: a.position for a in self.anchors}
        return np.array([[by_id[i].x, by_id[i].y] for i in self.schedule.anchor_ids], dtype=float)

    def points_array(self) -> np.ndarray:
        return self.trajectory.as_array()

    def rho_array(self) -> np.ndarray:
        if self.measurements is None:
            raise MissingMeasurements("scenario carries no ranges")
        return np.array(self.measurements.rho, dtype=float)


def controls_to_trajectory_v(
    controls: UnicycleControls, sample_times, initial: UnicycleState | None = None
) -> TrajectoryV:
    """Sample the controlled motion into a vehicle-frame trajectory.

    With the default initial state the frame is anchored at the pose at t = 0,
    which is exactly the vehicle frame convention used by scenarios.
    """
    states = integrate_times(controls, sample_times, initial)
    return TrajectoryV(tuple(st.point() for st in states), tuple(st.theta for st in states))


class AnchorSetClass(Enum):
    """Information content of the points one anchor measured.

    C1: all points coincide and none is on the anchor. C2: collinear, none on
    the anchor, not all coincident. C3: everything else, including any point
    on the anchor itself.
    """

    C1 = "C1"
    C2 = "C2"
    C3 = "C3"


INFORMATIVE_COUNT = {AnchorSetClass.C1: 1, AnchorSetClass.C2: 2, AnchorSetClass.C3: 3}


def classify_anchor_set(points, anchor: Point2, tol: float = 1e-9) -> AnchorSetClass:
    """Classify points and their anchor expressed in one common frame."""
    pts = list(points)
    if len(pts) == 0:
        raise SchemaError("empty measurement set")
    ranges = [p.dist(anchor) for p in pts]
    return classify_measurement_set(pts, ranges, tol)


def classify_measurement_set(points_v, ranges, tol: float = 1e-9) -> AnchorSetClass:
    """Classify from vehicle-frame points plus measured ranges.

    Equivalent to classify_anchor_set when points and anchor share a frame;
    the on-anchor test reads the range directly so no placement is needed.
    """
    pts = list(points_v)
    if any(r <= tol for r in ranges):
        return AnchorSetClass.C3
    first = pts[0]
    if all(p.dist(first) <= tol for p in pts):
        return AnchorSetClass.C1
    if collinear(pts, tol):
        return AnchorSetClass.C2
    return AnchorSetClass.C3


def anchor_point_sets(s: Scenario):
    """Group measurement indices by anchor, preserving schedule order.

    Returns a list of (anchor, [k, ...]) in order of first appearance.
    """
    order: list[int] = []
    groups: dict[int, list[int]] = {}
    for k, aid in s.schedule.entries:
        if aid not in groups:
            groups[aid] = []
            order.append(aid)
        groups[aid].append(k)
    return [(s.anchor_by_id(aid), groups[aid]) for aid in order]


def synthesize_measurements(
    s: Scenario, truth: RigidTransform2, noise_std: float = 0.0, seed: int = 0
) -> Measurements:
    """Ranges produced by placing the trajectory with `truth`.

    Gaussian noise of the given standard deviation is added with a seeded
    generator so synthesis is reproducible. Negative noisy ranges clamp to 0.
    """
    if not (math.isfinite(noise_std) and noise_std >= 0.0):
        raise SchemaError("noise_std must be finite and nonnegative")
    if seed < 0:
        raise NonPositiveInput("seed must be nonnegative")
    world = truth.apply_array(s.points_array())
    anchors = s.anchor_positions()
    rho = np.linalg.norm(world - anchors, axis=1)
    if noise_std > 0.0:
        rng = np.random.default_rng(seed)
        rho = rho + rng.normal(0.0, noise_std, size=rho.shape)
        rho = np.maximum(rho, 0.0)
    return Measurements(tuple(float(r) for r in rho))


def with_measurements(s: Scenario, m: Measurements) -> Scenario:
    return replace(s, measurements=m)


def _require(cond: bool, msg: str):
    if not cond:
        raise ParseError(msg)


def _as_float(obj, where: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ParseError(f"{where}: expected a number, got {type(obj).__name__}")
    try:
        value = float(obj)
    except OverflowError as e:
        raise ParseError(f"{where}: {e}") from e
    if not math.isfinite(value):
        raise ParseError(f"{where}: expected a finite number, got {value}")
    return value


def _point_list(obj, where: str) -> tuple[Point2, ...]:
    _require(isinstance(obj, list), f"{where}: expected a list")
    pts = []
    for i, item in enumerate(obj):
        _require(isinstance(item, dict), f"{where}[{i}]: expected an object")
        _require("x" in item and "y" in item, f"{where}[{i}]: needs x and y")
        pts.append(Point2(_as_float(item["x"], f"{where}[{i}].x"), _as_float(item["y"], f"{where}[{i}].y")))
    return tuple(pts)


_SCENARIO_KEYS = {
    "anchors",
    "points_v",
    "headings_v",
    "schedule",
    "rho",
    "tolerances",
    "controls",
    "sample_times",
}
_TOLERANCE_KEYS = {"collinear", "tangency", "rank", "dedup", "degenerate"}


def loads_scenario(text: str) -> Scenario:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    except ValueError as e:  # an integer literal too long to convert
        raise ParseError(f"invalid JSON: {e}") from e
    _require(isinstance(raw, dict), "top-level value must be an object")
    unknown = set(raw) - _SCENARIO_KEYS
    if unknown:
        raise ParseError(f"unknown keys: {sorted(unknown)}")
    _require("anchors" in raw, "missing key: anchors")
    _require("schedule" in raw, "missing key: schedule")

    _require(isinstance(raw["anchors"], list), "anchors: expected a list")
    anchors = []
    for i, item in enumerate(raw["anchors"]):
        _require(isinstance(item, dict), f"anchors[{i}]: expected an object")
        _require(
            "id" in item and "x" in item and "y" in item,
            f"anchors[{i}]: needs id, x and y",
        )
        aid = item["id"]
        _require(isinstance(aid, int) and not isinstance(aid, bool), f"anchors[{i}].id: expected an integer")
        anchors.append(
            Anchor(aid, Point2(_as_float(item["x"], f"anchors[{i}].x"), _as_float(item["y"], f"anchors[{i}].y")))
        )

    _require(isinstance(raw["schedule"], list), "schedule: expected a list")
    for i, aid in enumerate(raw["schedule"]):
        _require(isinstance(aid, int) and not isinstance(aid, bool), f"schedule[{i}]: expected an anchor id")
    schedule = MeasurementSchedule(tuple(raw["schedule"]))

    tolerances = Tolerances()
    if "tolerances" in raw:
        tdict = raw["tolerances"]
        _require(isinstance(tdict, dict), "tolerances: expected an object")
        unknown = set(tdict) - _TOLERANCE_KEYS
        if unknown:
            raise ParseError(f"tolerances: unknown keys {sorted(unknown)}")
        kwargs = {}
        for key in ("collinear", "tangency", "rank", "degenerate"):
            if key in tdict:
                kwargs[key] = _as_float(tdict[key], f"tolerances.{key}")
        if "dedup" in tdict:
            dd = tdict["dedup"]
            _require(isinstance(dd, list) and len(dd) == 2, "tolerances.dedup: expected [meters, radians]")
            kwargs["dedup"] = (_as_float(dd[0], "tolerances.dedup[0]"), _as_float(dd[1], "tolerances.dedup[1]"))
        tolerances = Tolerances(**kwargs)

    controls = None
    sample_times = None
    if "controls" in raw:
        _require(isinstance(raw["controls"], list), "controls: expected a list")
        segs = []
        for i, item in enumerate(raw["controls"]):
            _require(isinstance(item, dict), f"controls[{i}]: expected an object")
            _require(
                "v" in item and "omega" in item and "duration" in item,
                f"controls[{i}]: needs v, omega and duration",
            )
            segs.append(
                ControlSegment(
                    _as_float(item["v"], f"controls[{i}].v"),
                    _as_float(item["omega"], f"controls[{i}].omega"),
                    _as_float(item["duration"], f"controls[{i}].duration"),
                )
            )
        controls = UnicycleControls(tuple(segs))
        _require("sample_times" in raw, "controls given without sample_times")
        _require(isinstance(raw["sample_times"], list), "sample_times: expected a list")
        sample_times = tuple(_as_float(t, f"sample_times[{i}]") for i, t in enumerate(raw["sample_times"]))

    if "points_v" in raw:
        points = _point_list(raw["points_v"], "points_v")
        headings = None
        if "headings_v" in raw:
            _require(isinstance(raw["headings_v"], list), "headings_v: expected a list")
            headings = tuple(_as_float(h, f"headings_v[{i}]") for i, h in enumerate(raw["headings_v"]))
        trajectory = TrajectoryV(points, headings)
    elif controls is not None:
        trajectory = controls_to_trajectory_v(controls, sample_times)
    else:
        raise ParseError("missing key: points_v (or controls + sample_times)")

    measurements = None
    if "rho" in raw:
        _require(isinstance(raw["rho"], list), "rho: expected a list")
        measurements = Measurements(tuple(_as_float(r, f"rho[{i}]") for i, r in enumerate(raw["rho"])))

    return Scenario(
        anchors=tuple(anchors),
        trajectory=trajectory,
        schedule=schedule,
        measurements=measurements,
        tolerances=tolerances,
        controls=controls,
        sample_times=sample_times,
    )


def load_scenario(path) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    return loads_scenario(text)


def scenario_to_dict(s: Scenario) -> dict:
    # all numerics are coerced so that dump -> load -> dump is a fixed point
    out: dict = {
        "anchors": [
            {"id": int(a.id), "x": float(a.position.x), "y": float(a.position.y)}
            for a in s.anchors
        ],
        "points_v": [{"x": float(p.x), "y": float(p.y)} for p in s.trajectory.points],
        "schedule": [int(i) for i in s.schedule.anchor_ids],
    }
    if s.trajectory.headings is not None:
        out["headings_v"] = [float(h) for h in s.trajectory.headings]
    if s.measurements is not None:
        out["rho"] = [float(r) for r in s.measurements.rho]
    out["tolerances"] = {
        "collinear": float(s.tolerances.collinear),
        "tangency": float(s.tolerances.tangency),
        "rank": float(s.tolerances.rank),
        "dedup": [float(s.tolerances.dedup[0]), float(s.tolerances.dedup[1])],
        "degenerate": float(s.tolerances.degenerate),
    }
    if s.controls is not None:
        out["controls"] = [
            {"v": float(seg.v), "omega": float(seg.omega), "duration": float(seg.duration)}
            for seg in s.controls.segments
        ]
        out["sample_times"] = [float(t) for t in s.sample_times]
    return out


def dumps_scenario(s: Scenario) -> str:
    return json.dumps(scenario_to_dict(s), indent=2, sort_keys=True)


def save_scenario(s: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_scenario(s))
        fh.write("\n")
