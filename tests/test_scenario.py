"""Scenario model, validation, JSON round trips, anchor-set classes."""
import json
import math

import numpy as np
import pytest

from constructa import (
    INFORMATIVE_COUNT,
    Anchor,
    AnchorSetClass,
    Measurements,
    MeasurementSchedule,
    ParseError,
    Point2,
    RigidTransform2,
    Scenario,
    SchemaError,
    Tolerances,
    TrajectoryV,
    anchor_point_sets,
    classify_anchor_set,
    classify_measurement_set,
    dumps_scenario,
    load_scenario,
    loads_scenario,
    save_scenario,
    scenario_to_dict,
    synthesize_measurements,
    with_measurements,
)
from helpers import scen


def test_schedule_and_trajectory_lengths_must_agree():
    with pytest.raises(SchemaError):
        scen([(0, 0)], [(1, 0), (2, 0)], [1])


def test_anchor_ids_unique_and_positions_distinct():
    with pytest.raises(SchemaError):
        Scenario(
            anchors=(Anchor(1, Point2(0, 0)), Anchor(1, Point2(1, 0))),
            trajectory=TrajectoryV((Point2(0, 0),)),
            schedule=MeasurementSchedule((1,)),
        )
    with pytest.raises(SchemaError):
        Scenario(
            anchors=(Anchor(1, Point2(0, 0)), Anchor(2, Point2(0, 0))),
            trajectory=TrajectoryV((Point2(0, 0),)),
            schedule=MeasurementSchedule((1,)),
        )


def test_schedule_must_reference_known_anchors():
    with pytest.raises(SchemaError):
        scen([(0, 0)], [(1, 0)], [7])


def test_rho_length_checked():
    s = scen([(0, 0)], [(1, 0), (2, 0)], [1, 1])
    with pytest.raises(SchemaError):
        with_measurements(s, Measurements((1.0,)))


def test_measurements_reject_negative_and_nonfinite():
    with pytest.raises(SchemaError):
        Measurements((-0.1,))
    with pytest.raises(SchemaError):
        Measurements((math.inf,))


def test_tolerances_positive():
    with pytest.raises(SchemaError):
        Tolerances(collinear=0.0)
    with pytest.raises(SchemaError):
        Tolerances(dedup=(1e-5, -1e-5))


def test_anchor_set_classes():
    a = Point2(0.0, 0.0)
    coincident = [Point2(1.0, 0.0), Point2(1.0, 0.0)]
    assert classify_anchor_set(coincident, a) is AnchorSetClass.C1
    three_on_a_line = [Point2(1.0, 1.0), Point2(2.0, 2.0), Point2(3.0, 3.0)]
    assert classify_anchor_set(three_on_a_line, a) is AnchorSetClass.C2
    spread = [Point2(1.0, 0.0), Point2(0.0, 1.0), Point2(1.0, 1.0)]
    assert classify_anchor_set(spread, a) is AnchorSetClass.C3
    # a point on the anchor always counts as the general class
    assert classify_anchor_set([Point2(0.0, 0.0), Point2(1.0, 0.0)], a) is AnchorSetClass.C3
    assert classify_anchor_set([Point2(0.0, 0.0)], a) is AnchorSetClass.C3
    # a single point off the anchor is a coincident set
    assert classify_anchor_set([Point2(1.0, 0.0)], a) is AnchorSetClass.C1
    with pytest.raises(SchemaError):
        classify_anchor_set([], a)


def test_classify_measurement_set_matches_placed_classification():
    rng = np.random.default_rng(11)
    for _ in range(50):
        pts = [Point2(*rng.uniform(-2, 2, 2)) for _ in range(3)]
        anchor = Point2(*rng.uniform(-2, 2, 2))
        ranges = [p.dist(anchor) for p in pts]
        assert classify_measurement_set(pts, ranges) is classify_anchor_set(pts, anchor)


def test_informative_counts():
    assert INFORMATIVE_COUNT[AnchorSetClass.C1] == 1
    assert INFORMATIVE_COUNT[AnchorSetClass.C2] == 2
    assert INFORMATIVE_COUNT[AnchorSetClass.C3] == 3


def test_anchor_point_sets_groups_in_first_appearance_order():
    s = scen([(0, 0), (3, 0)], [(0, 0), (1, 0), (2, 0), (3, 1)], [2, 1, 2, 1])
    groups = anchor_point_sets(s)
    assert [g[0].id for g in groups] == [2, 1]
    assert groups[0][1] == [0, 2]
    assert groups[1][1] == [1, 3]


def test_synthesize_measurements_places_and_measures():
    truth = RigidTransform2(1.0, -2.0, 0.7)
    s = scen([(0, 0), (3, 0)], [(0.5, 0.2), (1.5, -0.3)], [1, 2])
    m = synthesize_measurements(s, truth)
    world = truth.apply_array(s.points_array())
    anchors = s.anchor_positions()
    np.testing.assert_allclose(m.rho, np.linalg.norm(world - anchors, axis=1), atol=1e-12)


def test_synthesize_noise_is_seeded_and_clamped():
    s = scen([(0, 0)], [(0.001, 0.0)], [1])
    truth = RigidTransform2.identity()
    a = synthesize_measurements(s, truth, noise_std=0.01, seed=5)
    b = synthesize_measurements(s, truth, noise_std=0.01, seed=5)
    c = synthesize_measurements(s, truth, noise_std=0.01, seed=6)
    assert a.rho == b.rho
    assert a.rho != c.rho
    big = synthesize_measurements(s, truth, noise_std=10.0, seed=1)
    assert all(r >= 0.0 for r in big.rho)
    with pytest.raises(SchemaError):
        synthesize_measurements(s, truth, noise_std=-1.0)


def test_json_roundtrip_preserves_scenario():
    truth = RigidTransform2(0.3, -0.2, 0.4)
    s = scen([(0, 0), (3, 0)], [(0.2, 0.1), (1.1, 0.4), (0.6, 1.2)], [1, 1, 2], truth=truth)
    text = dumps_scenario(s)
    back = loads_scenario(text)
    assert back.schedule.anchor_ids == s.schedule.anchor_ids
    np.testing.assert_allclose(back.points_array(), s.points_array())
    np.testing.assert_allclose(back.rho_array(), s.rho_array())
    assert back.tolerances == s.tolerances
    # serialization is deterministic
    assert dumps_scenario(back) == text


def test_save_and_load(tmp_path):
    s = scen([(0, 0), (3, 0)], [(0.2, 0.1), (1.1, 0.4)], [1, 2],
             truth=RigidTransform2(0.1, 0.2, 0.3))
    path = tmp_path / "scenario.json"
    save_scenario(s, path)
    back = load_scenario(path)
    np.testing.assert_allclose(back.rho_array(), s.rho_array())
    with pytest.raises(ParseError):
        load_scenario(tmp_path / "missing.json")


def test_loads_rejects_malformed_documents():
    with pytest.raises(ParseError):
        loads_scenario("{not json")
    with pytest.raises(ParseError):
        loads_scenario(json.dumps({"anchors": []}))
    with pytest.raises(ParseError):
        loads_scenario(json.dumps({"anchors": [], "schedule": [], "bogus": 1}))
    doc = {"anchors": [{"id": 1, "x": 0.0, "y": 0.0}], "schedule": [1]}
    with pytest.raises(ParseError):
        loads_scenario(json.dumps(doc))  # no points_v and no controls
    doc["points_v"] = [{"x": "a", "y": 0.0}]
    with pytest.raises(ParseError):
        loads_scenario(json.dumps(doc))
    # JSON as Python reads it admits NaN, ±Infinity and integers beyond float range
    for bad in (math.nan, math.inf, -math.inf, 10**400):
        doc["points_v"] = [{"x": bad, "y": 0.0}]
        with pytest.raises(ParseError):
            loads_scenario(json.dumps(doc))
    doc["points_v"] = [{"x": 0.5, "y": 0.0}]
    # an integer literal longer than Python converts from text
    with pytest.raises(ParseError):
        loads_scenario(json.dumps(doc).replace("0.5", "1" * 5000))
    assert loads_scenario(json.dumps(doc)).n_measurements == 1
    doc["schedule"] = [True]
    with pytest.raises(ParseError):
        loads_scenario(json.dumps(doc))


def test_loads_scenario_with_controls_builds_trajectory():
    doc = {
        "anchors": [{"id": 1, "x": 0.0, "y": 0.0}],
        "schedule": [1, 1],
        "controls": [{"v": 1.0, "omega": 0.0, "duration": 2.0}],
        "sample_times": [0.5, 1.5],
    }
    s = loads_scenario(json.dumps(doc))
    np.testing.assert_allclose(s.points_array(), [[0.5, 0.0], [1.5, 0.0]], atol=1e-12)
    # controls without sample_times is an error
    del doc["sample_times"]
    with pytest.raises(ParseError):
        loads_scenario(json.dumps(doc))


def test_scenario_to_dict_keeps_controls():
    from helpers import driven_scenario

    s = driven_scenario(truth=RigidTransform2.identity())
    d = scenario_to_dict(s)
    assert "controls" in d and "sample_times" in d
    back = loads_scenario(json.dumps(d))
    np.testing.assert_allclose(back.points_array(), s.points_array(), atol=1e-12)


def test_anchor_helpers():
    s = scen([(0, 0), (3, 0)], [(0.2, 0.1), (1.1, 0.4)], [1, 2])
    assert s.anchor_by_id(2).position == Point2(3.0, 0.0)
    with pytest.raises(SchemaError):
        s.anchor_by_id(9)
    np.testing.assert_allclose(s.anchor_positions(), [[0, 0], [3, 0]])
