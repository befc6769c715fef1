"""Exact ambiguity constructions, critical lines, pathologies, verdicts."""
import inspect
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import constructa
import helpers
from constructa import global_analysis
from constructa import (
    ConstructaError,
    CriticalLineKind,
    DegenerateInput,
    EmptyDomain,
    GridSpec,
    IndClass,
    MixedAnchors,
    NoAmbiguity,
    NonPositiveInput,
    Point2,
    RigidTransform2,
    Scenario,
    SolverConfig,
    Tolerances,
    Verdict,
    analyze_global,
    brute_force_oracle,
    critical_lines_2p2,
    critical_lines_next_point,
    dedup_solutions,
    delta_angle,
    detect_pathologies,
    locus_1p1p1,
    point_line_distance,
    polish_solution,
    residuals,
    sample_family_1p1,
    save_scenario,
    single_anchor_family,
    single_anchor_family_for,
    solve_1p1,
    solve_1p1p1,
    solve_2p1,
    solve_3p1,
    solve_multistart,
    sub_scenario,
    sufficient_counts,
    synthesize_measurements,
    with_measurements,
)
from helpers import (
    CLOSE_ROOTS_TRUTH,
    CRITICAL_Q3_ON,
    ROTATION_ETA,
    THREE_SINGLES_ANCHORS,
    THREE_SINGLES_PTS,
    TRUTH_A,
    TRUTH_B,
    TRUTH_C,
    clean_multi_anchor,
    close_roots_three_singles,
    double_double,
    double_double_off_critical_line,
    double_double_on_critical_line,
    double_plus_single,
    double_plus_two_singles,
    driven_scenario,
    each_in,
    four_singles,
    oracle_transforms,
    random_transform,
    rotation_pathology,
    same_transform,
    sample_features,
    scen,
    single_coincident,
    single_collinear_off,
    single_collinear_on,
    single_generic,
    tangent_double_plus_single,
    tangent_three_singles,
    tangent_triple_plus_single,
    three_singles,
    three_singles_circle_family,
    translation_pathology,
    triple_plus_double,
    triple_plus_single,
    triple_plus_two_singles,
    two_anchor_clipped_both,
    two_anchor_merged,
    two_anchor_single_window,
    two_anchor_two_loops,
)

ORACLE_GRID = GridSpec(nxy=101, phi_cells=180)


def _assert_zero_residuals(s, transforms, tol=1e-7):
    for t in transforms:
        assert float(np.max(np.abs(residuals(s, t)))) < tol


# ---------------------------------------------------------------------------
# angle split on one anchor


def test_delta_angle_branches():
    lo, hi = delta_angle(1.0, 1.0, 1.0)
    assert lo == pytest.approx(-math.pi / 3)
    assert hi == pytest.approx(math.pi / 3)
    # collinear on the same side of the anchor: angle collapses to zero
    assert delta_angle(1.0, 2.0, 1.0) == (0.0,)
    assert delta_angle(1.0, 1.0, 0.0) == (0.0,)
    # anchor between the points: antipodal sightlines, stored as -pi
    assert delta_angle(1.0, 1.0, 2.0) == (-math.pi,)
    with pytest.raises(EmptyDomain):
        delta_angle(1.0, 1.0, 3.0)
    with pytest.raises(NonPositiveInput):
        delta_angle(0.0, 1.0, 1.0)
    with pytest.raises(NonPositiveInput):
        delta_angle(1.0, 1.0, -0.5)
    # squares beyond float range leave no cosine to clamp
    with pytest.raises(ConstructaError):
        delta_angle(1e200, 1e200, 1e200)


# ---------------------------------------------------------------------------
# single-anchor families


def test_single_anchor_coincident_family():
    fam = single_anchor_family([Point2(1.0, 0.0), Point2(1.0, 0.0)], [2.0, 2.0])
    assert fam.ind.render() == "Ind(∞×∞)"
    with pytest.raises(EmptyDomain):
        single_anchor_family([Point2(1.0, 0.0), Point2(1.0, 0.0)], [2.0, 2.5])


def test_single_anchor_collinear_off_line():
    s = single_collinear_off()
    fam = single_anchor_family_for(s)
    assert fam.ind.render() == "Ind(2×∞)"
    assert not fam.anchor_on_line


def test_single_anchor_collinear_on_line():
    s = single_collinear_on()
    fam = single_anchor_family_for(s)
    assert fam.ind.render() == "Ind(∞)"
    assert fam.anchor_on_line


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(seed=hst.integers(0, 2**32 - 1), exponent=hst.integers(0, 4))
def test_single_anchor_on_the_line_at_any_scale(seed, exponent):
    # points on a world line through the anchor, ranges measured from the placed points: one loop, not two
    scale = 10.0**exponent
    rng = np.random.default_rng(seed)
    anchor = rng.uniform(-5.0, 5.0, size=2) * scale
    ts = rng.uniform(-5.0, 5.0, size=3)
    while np.min(np.diff(np.sort(ts))) < 0.1 or np.min(np.abs(ts)) < 0.1:
        ts = rng.uniform(-5.0, 5.0, size=3)
    ang = rng.uniform(-math.pi, math.pi)
    world = anchor + scale * ts[:, None] * np.array([math.cos(ang), math.sin(ang)])
    back = random_transform(rng, scale).inverse()
    pts = [back.apply(Point2(*w)) for w in world]
    s = scen([tuple(anchor)], [(p.x, p.y) for p in pts], [1, 1, 1], rho=np.hypot(*(world - anchor).T))
    ga = analyze_global(s)
    assert (ga.method, ga.ind.render()) == ("single-anchor", "Ind(∞)")


def test_single_anchor_collinear_inconsistent_ranges():
    with pytest.raises(EmptyDomain):
        single_anchor_family([Point2(1.0, 0.0), Point2(2.0, 0.0), Point2(3.0, 0.0)],
                             [1.0, 2.0, 2.5])


def test_single_anchor_generic_rotations():
    fam = single_anchor_family_for(single_generic())
    assert fam.ind.render() == "Ind(∞)"


def test_single_anchor_family_requires_one_anchor():
    with pytest.raises(MixedAnchors):
        single_anchor_family_for(double_double())


# ---------------------------------------------------------------------------
# two anchors, one range each


def test_1p1_merged_single_loop():
    fam = solve_1p1(two_anchor_merged())
    assert fam.ind.render() == "Ind(∞)"
    assert fam.merged_outer and not fam.merged_inner
    assert not fam.case1


def test_1p1_two_full_loops():
    fam = solve_1p1(two_anchor_two_loops())
    assert fam.ind.render() == "Ind(2×∞)"
    assert not fam.merged_outer and not fam.merged_inner


def test_1p1_clipped_on_both_sides():
    fam = solve_1p1(two_anchor_clipped_both())
    assert fam.ind.render() == "Ind(2×∞)"
    assert fam.arc is not None
    lo, hi = fam.arc
    assert lo == pytest.approx(0.3897, abs=2e-4)
    assert hi == pytest.approx(1.4455, abs=2e-4)


def test_1p1_degenerate_window_is_unique():
    fam = solve_1p1(two_anchor_single_window())
    assert fam.ind.render() == "Ind(1)"
    assert fam.case1
    assert same_transform(fam.transforms[0], RigidTransform2(1.0, 0.0, 0.0), 1e-8, 1e-8)


def test_1p1_one_point_pinned_on_anchor():
    s = scen([(0.0, 0.0), (2.0, 0.0)], [(0.0, 0.0), (1.0, 0.0)], [1, 2], rho=[0.0, 1.5])
    fam = solve_1p1(s)
    assert fam.pinned
    assert fam.ind.render() == "Ind(2)"
    _assert_zero_residuals(s, fam.transforms)


def test_1p1_both_points_pinned():
    s = scen([(0.0, 0.0), (1.0, 0.0)], [(0.0, 0.0), (1.0, 0.0)], [1, 2], rho=[0.0, 0.0])
    fam = solve_1p1(s)
    assert fam.ind.render() == "Ind(1)"
    assert fam.case1
    assert same_transform(fam.transforms[0], RigidTransform2.identity(), 1e-9, 1e-9)
    # incompatible separations leave nothing
    bad = scen([(0.0, 0.0), (2.0, 0.0)], [(0.0, 0.0), (1.0, 0.0)], [1, 2], rho=[0.0, 0.0])
    with pytest.raises(EmptyDomain):
        solve_1p1(bad)


def test_1p1_coincident_sample_points():
    s = scen([(0.0, 0.0), (2.0, 0.0)], [(0.5, 0.5), (0.5, 0.5)], [1, 2], rho=[1.0, 1.5])
    fam = solve_1p1(s)
    assert fam.coincident_points
    assert fam.ind.render() == "Ind(2×∞)"


def test_1p1_family_samples_reproduce_ranges():
    for build in (two_anchor_merged, two_anchor_two_loops, two_anchor_clipped_both):
        s = build()
        loops = sample_family_1p1(s, 128)
        fam = solve_1p1(s)
        assert len(loops) == fam.ind.count
        for loop in loops:
            assert loop.shape[1] == 3
            for dx, dy, phi in loop[:: max(1, len(loop) // 16)]:
                t = RigidTransform2(float(dx), float(dy), float(phi))
                assert float(np.max(np.abs(residuals(s, t)))) < 1e-7


def test_1p1_oracle_confirms_loop_counts():
    for build, expected in ((two_anchor_merged, "Ind(∞)"),
                            (two_anchor_two_loops, "Ind(2×∞)")):
        ss = brute_force_oracle(build(), ORACLE_GRID)
        assert ss.ind_class.render() == expected


# ---------------------------------------------------------------------------
# exact constructions for 2+1, 3+1, 1+1+1


def test_2p1_four_placements():
    s = double_plus_single()
    res = solve_2p1(s)
    assert len(res.transforms) == 4
    assert not res.tangent and not res.case3
    _assert_zero_residuals(s, res.transforms)
    assert any(same_transform(t, TRUTH_A, 1e-7, 1e-7) for t in res.transforms)
    oc = brute_force_oracle(s, ORACLE_GRID)
    assert oc.ind_class.count == 4
    assert each_in(res.transforms, oracle_transforms(oc))


def test_2p1_branch_bookkeeping():
    res = solve_2p1(double_plus_single())
    sigmas = {b.sigma for b in res.branches}
    assert len(sigmas) == 2
    for b in res.branches:
        assert b.d2 > 0.0
    # every placement is tagged with the branch that produced it
    assert len(res.sigma_branch) == len(res.transforms)
    for t, bi in zip(res.transforms, res.sigma_branch):
        assert t in res.branches[bi].transforms


def test_2p1_tangency_gives_unique_placement():
    s = tangent_double_plus_single()
    res = solve_2p1(s)
    assert len(res.transforms) == 1
    assert res.tangent and res.case3
    assert same_transform(res.transforms[0], RigidTransform2.identity(), 1e-6, 1e-6)


def test_2p1_rejects_non_matching_schedules():
    s = three_singles()
    with pytest.raises(DegenerateInput):
        solve_2p1(s)


def test_2p1_empty_when_third_range_is_wrong():
    s = double_plus_single()
    rho = list(s.rho_array())
    rho[2] += 2.5
    with pytest.raises(EmptyDomain):
        solve_2p1(scen([(0.0, 0.0), (3.0, 0.0)],
                       [(0.2, 0.1), (1.1, 0.4), (0.6, 1.2)], [1, 1, 2], rho=rho))


def test_3p1_two_placements():
    s = triple_plus_single()
    res = solve_3p1(s)
    assert len(res.transforms) == 2
    assert not res.case4
    _assert_zero_residuals(s, res.transforms)
    assert any(same_transform(t, TRUTH_B, 1e-7, 1e-7) for t in res.transforms)
    oc = brute_force_oracle(s, ORACLE_GRID)
    assert oc.ind_class.count == 2
    assert each_in(res.transforms, oracle_transforms(oc))


def test_3p1_tangency_gives_unique_placement():
    s = tangent_triple_plus_single()
    res = solve_3p1(s)
    assert len(res.transforms) == 1
    assert res.tangent and res.case4
    assert res.d3 == pytest.approx(2.0, abs=1e-9)


def test_3p1_collinear_triple_rejected():
    s = scen([(0.0, 0.0), (2.5, 1.0)],
             [(0.1, 0.0), (1.0, 0.0), (2.0, 0.0), (1.3, 1.1)], [1, 1, 1, 2],
             truth=TRUTH_B)
    with pytest.raises(DegenerateInput):
        solve_3p1(s)


def test_3p1_inconsistent_ranges_are_empty():
    s = triple_plus_single()
    rho = list(s.rho_array())
    rho[1] += 0.3
    bad = scen([(0.0, 0.0), (2.5, 1.0)],
               [(0.1, 0.0), (1.0, 0.2), (0.4, 0.9), (1.3, 1.1)], [1, 1, 1, 2], rho=rho)
    with pytest.raises(EmptyDomain):
        solve_3p1(bad)


def test_1p1p1_solutions_and_bound():
    s = three_singles()
    res = solve_1p1p1(s)
    assert 1 <= len(res.transforms) <= 8
    _assert_zero_residuals(s, res.transforms)
    assert any(same_transform(t, TRUTH_C, 1e-7, 1e-7) for t in res.transforms)
    oc = brute_force_oracle(s, ORACLE_GRID)
    assert oc.ind_class.count == len(res.transforms) == 2
    assert each_in(res.transforms, oracle_transforms(oc))


def test_1p1p1_tangency_is_flagged():
    s = tangent_three_singles()
    res = solve_1p1p1(s)
    assert len(res.solutions) == 1
    assert res.case2
    assert res.tangent_flags == (True,)


def test_1p1p1_close_roots_are_both_found():
    s = close_roots_three_singles()
    res = solve_1p1p1(s)
    assert len(res.transforms) == 6
    _assert_zero_residuals(s, res.transforms)
    assert any(same_transform(t, CLOSE_ROOTS_TRUTH, 1e-7, 1e-7) for t in res.transforms)


def test_1p1p1_random_draws_stay_within_six_and_keep_the_truth():
    rng = np.random.default_rng(20)
    for trial in range(500):
        anchors, pts = sample_features(rng, 3, 3)
        truth = random_transform(rng)
        s = scen(anchors, pts, [1, 2, 3], truth=truth)
        res = solve_1p1p1(s)
        assert 1 <= len(res.transforms) <= 6, (trial, len(res.transforms))
        assert any(same_transform(t, truth, 1e-6, 1e-6) for t in res.transforms), trial


def test_1p1p1_truth_at_phi_pi():
    truth = RigidTransform2(0.2, 0.5, math.pi)
    s = scen(THREE_SINGLES_ANCHORS, THREE_SINGLES_PTS, [1, 2, 3], truth=truth)
    res = solve_1p1p1(s)
    _assert_zero_residuals(s, res.transforms)
    assert any(same_transform(t, truth, 1e-7, 1e-7) for t in res.transforms)


def test_1p1p1_family_at_one_heading_goes_to_the_grid():
    # at phi = 0 every offset on a unit circle fits all three ranges; the
    # linear system in the offset is singular there
    s = three_singles_circle_family()
    with pytest.raises(DegenerateInput):
        solve_1p1p1(s)
    ga = analyze_global(s)
    assert ga.method == "grid-oracle"
    assert ga.ind.family_dim == 1


def test_1p1p1_locus_samples():
    s = three_singles()
    rows = locus_1p1p1(s, 128)
    assert rows.shape[1] == 6
    assert np.all(np.isfinite(rows))
    # each locus sample satisfies the first two range constraints
    for arc, branch, phi, dx, dy, g in rows[:: max(1, len(rows) // 32)]:
        t = RigidTransform2(float(dx), float(dy), float(phi))
        r = residuals(s, t)
        assert abs(r[0]) < 1e-7 and abs(r[1]) < 1e-7
        assert abs(r[2]) == pytest.approx(abs(g), abs=1e-7)


# ---------------------------------------------------------------------------
# critical lines


def test_critical_lines_for_double_double():
    s = double_double_on_critical_line()
    lines = critical_lines_2p2(s)
    assert len(lines) == 6
    kinds = {line.kind for line in lines}
    assert kinds == {CriticalLineKind.ROTATION_ABOUT_ANCHOR, CriticalLineKind.REFLECTED_PAIR}
    for line in lines:
        i, j = line.pair
        assert 0 <= i < j < 4
    q_on = Point2(*CRITICAL_Q3_ON)
    assert min(point_line_distance(q_on, line.line) for line in lines) < 1e-9


def test_critical_lines_bisect_anchor_preimages():
    s = double_double_on_critical_line()
    prefix = sub_scenario(s, (0, 1, 2))
    pres = solve_2p1(prefix)
    next_anchor = s.anchors[1].position
    res = critical_lines_next_point(list(pres.transforms), next_anchor)
    assert len(res.lines) == 6
    for line in res.lines:
        i, j = line.pair
        vi = pres.transforms[i].inverse().apply(next_anchor)
        vj = pres.transforms[j].inverse().apply(next_anchor)
        mid = Point2(0.5 * (vi.x + vj.x), 0.5 * (vi.y + vj.y))
        assert point_line_distance(mid, line.line) < 1e-9
        # points on the line are equidistant from the two preimages
        p = Point2(line.line.point.x + 0.7 * line.line.direction.x,
                   line.line.point.y + 0.7 * line.line.direction.y)
        assert p.dist(vi) == pytest.approx(p.dist(vj), abs=1e-9)


def test_critical_lines_need_at_least_two_placements():
    with pytest.raises(NoAmbiguity):
        critical_lines_next_point([RigidTransform2.identity()], Point2(1.0, 0.0))


# ---------------------------------------------------------------------------
# measurement pathologies


def test_rotation_pathology_detected():
    s = rotation_pathology()
    flags = detect_pathologies(s)
    assert flags.rotation and not flags.translation
    assert flags.rotation_pivot == 1
    assert flags.rotation_angle == pytest.approx(-2.0 * ROTATION_ETA)
    assert flags.any_flag


def test_translation_pathology_detected():
    s = translation_pathology()
    flags = detect_pathologies(s)
    assert flags.translation and not flags.rotation
    ux, uy = flags.translation_vector
    assert ux == pytest.approx(0.0, abs=1e-9)
    assert uy == pytest.approx(1.0, abs=1e-9)


def test_pathology_detected_from_either_placement():
    # the flag is placement-relative: its angle flips sign when evaluated
    # from the other member of the ambiguous pair, but it never vanishes
    s = rotation_pathology()
    ga = analyze_global(s)
    assert len(ga.solutions.solutions) == 2
    for sol in ga.solutions.solutions:
        flags = detect_pathologies(s, placement=sol.transform)
        assert flags.rotation
        assert flags.rotation_pivot == 1
        assert abs(flags.rotation_angle) == pytest.approx(2.0 * ROTATION_ETA, abs=1e-6)


def test_clean_scenario_has_no_pathologies():
    flags = detect_pathologies(clean_multi_anchor())
    assert not flags.any_flag
    assert flags.rotation_pivot is None
    assert flags.translation_vector is None


# ---------------------------------------------------------------------------
# counting test and full verdicts


def test_sufficient_counts_rule():
    assert sufficient_counts((2, 2), 4)
    assert sufficient_counts((2, 1, 1), 4)
    assert sufficient_counts((4, 2), 6)
    assert not sufficient_counts((3, 1), 4)
    assert not sufficient_counts((1, 1, 1), 3)
    assert not sufficient_counts((5, 1), 6)


# (method, class, degenerate case) of every fixture with ranges
ROUTES = {
    "clean_multi_anchor": ("double-plus-single", "Ind(1)", None),
    "close_roots_three_singles": ("three-singles", "Ind(6)", None),
    "double_double": ("double-plus-single", "Ind(1)", None),
    "double_double_off_critical_line": ("double-plus-single", "Ind(1)", None),
    "double_double_on_critical_line": ("double-plus-single", "Ind(2)", None),
    "double_plus_single": ("double-plus-single", "Ind(4)", None),
    "double_plus_two_singles": ("double-plus-single", "Ind(1)", None),
    "four_singles": ("three-singles", "Ind(1)", None),
    "rotation_pathology": ("double-plus-single", "Ind(2)", None),
    "single_coincident": ("single-anchor", "Ind(∞×∞)", None),
    "single_collinear_off": ("single-anchor", "Ind(2×∞)", None),
    "single_collinear_on": ("single-anchor", "Ind(∞)", None),
    "single_generic": ("single-anchor", "Ind(∞)", None),
    "tangent_double_plus_single": ("double-plus-single", "Ind(1)", 3),
    "tangent_three_singles": ("three-singles", "Ind(1)", 2),
    "tangent_triple_plus_single": ("triple-plus-single", "Ind(1)", 4),
    "three_singles": ("three-singles", "Ind(2)", None),
    "three_singles_circle_family": ("grid-oracle", "Ind(∞)", None),
    "translation_pathology": ("double-plus-single", "Ind(2)", None),
    "triple_plus_double": ("triple-plus-single", "Ind(1)", None),
    "triple_plus_single": ("triple-plus-single", "Ind(2)", None),
    "triple_plus_two_singles": ("triple-plus-single", "Ind(1)", None),
    "two_anchor_clipped_both": ("two-anchor-family", "Ind(2×∞)", None),
    "two_anchor_merged": ("two-anchor-family", "Ind(∞)", None),
    "two_anchor_single_window": ("two-anchor-family", "Ind(1)", 1),
    "two_anchor_two_loops": ("two-anchor-family", "Ind(2×∞)", None),
    "zero_coefficient_three_singles": ("three-singles", "Ind(2)", None),
}


def _fixtures_with_ranges():
    for name, make in vars(helpers).items():
        if inspect.isfunction(make) and make.__module__ == "helpers" and all(
            p.default is not p.empty for p in inspect.signature(make).parameters.values()
        ):
            s = make()
            if isinstance(s, Scenario) and s.measurements is not None:
                yield name


@pytest.mark.parametrize("name", sorted(_fixtures_with_ranges()))
def test_route_table(name):
    ga = analyze_global(getattr(helpers, name)())
    assert (ga.method, ga.ind.render(), ga.degenerate_case) == ROUTES[name]


def test_analyze_single_anchor_routes():
    for build, expected in (
        (single_coincident, "Ind(∞×∞)"),
        (single_collinear_off, "Ind(2×∞)"),
        (single_collinear_on, "Ind(∞)"),
        (single_generic, "Ind(∞)"),
    ):
        ga = analyze_global(build())
        assert ga.method == "single-anchor"
        assert ga.ind.render() == expected
        assert ga.verdict is Verdict.UNCONSTRUCTIBLE
        assert not ga.counting_sufficient


def test_analyze_two_anchor_family():
    ga = analyze_global(two_anchor_merged())
    assert ga.method == "two-anchor-family"
    assert ga.ind.render() == "Ind(∞)"
    assert ga.verdict is Verdict.UNCONSTRUCTIBLE

    ga = analyze_global(two_anchor_single_window())
    assert ga.ind.render() == "Ind(1)"
    assert ga.degenerate_case == 1
    assert ga.verdict is Verdict.DEGENERATE_CONSTRUCTIBLE


def test_analyze_isolated_multiplicities():
    ga = analyze_global(double_plus_single())
    assert ga.method == "double-plus-single"
    assert ga.ind.render() == "Ind(4)"
    assert ga.verdict is Verdict.UNCONSTRUCTIBLE
    assert ga.raw_counts == (2, 1)
    assert ga.informative_counts == (2, 1)

    ga = analyze_global(triple_plus_single())
    assert ga.method == "triple-plus-single"
    assert ga.ind.render() == "Ind(2)"
    assert ga.verdict is Verdict.UNCONSTRUCTIBLE

    ga = analyze_global(three_singles())
    assert ga.method == "three-singles"
    assert ga.ind.render() == "Ind(2)"
    assert ga.verdict is Verdict.UNCONSTRUCTIBLE


def test_analyze_green_region_unique():
    for build, truth in (
        (double_double, None),
        (double_plus_two_singles, TRUTH_A),
        (triple_plus_double, TRUTH_B),
        (triple_plus_two_singles, TRUTH_B),
        (four_singles, TRUTH_C),
        (clean_multi_anchor, RigidTransform2(0.2, -0.1, 0.35)),
    ):
        ga = analyze_global(build())
        assert ga.verdict is Verdict.CONSTRUCTIBLE_GENERIC, build.__name__
        assert ga.ind.render() == "Ind(1)"
        assert ga.counting_sufficient
        assert ga.degenerate_case is None
        if truth is not None:
            assert same_transform(ga.solutions.best().transform, truth, 1e-7, 1e-7)


def test_analyze_degenerate_cases_labelled():
    ga = analyze_global(tangent_three_singles())
    assert ga.ind.render() == "Ind(1)"
    assert ga.degenerate_case == 2
    assert ga.verdict is Verdict.DEGENERATE_CONSTRUCTIBLE

    ga = analyze_global(tangent_double_plus_single())
    assert ga.ind.render() == "Ind(1)"
    assert ga.degenerate_case == 3
    assert ga.verdict is Verdict.DEGENERATE_CONSTRUCTIBLE

    ga = analyze_global(tangent_triple_plus_single())
    assert ga.ind.render() == "Ind(1)"
    assert ga.degenerate_case == 4
    assert ga.verdict is Verdict.DEGENERATE_CONSTRUCTIBLE


def test_analyze_critical_line_hit_and_miss():
    ga = analyze_global(double_double_on_critical_line())
    assert ga.ind.count == 2
    assert ga.verdict is Verdict.PATHOLOGICAL_UNCONSTRUCTIBLE
    assert ga.critical_line_hit is True

    ga = analyze_global(double_double_off_critical_line())
    assert ga.ind.render() == "Ind(1)"
    assert ga.verdict is Verdict.CONSTRUCTIBLE_GENERIC
    assert ga.critical_line_hit is False


def test_analyze_pathological_fixtures():
    ga = analyze_global(rotation_pathology())
    assert ga.ind.count == 2
    assert ga.verdict is Verdict.PATHOLOGICAL_UNCONSTRUCTIBLE
    assert ga.pathologies.rotation

    ga = analyze_global(translation_pathology())
    assert ga.ind.count == 2
    assert ga.verdict is Verdict.PATHOLOGICAL_UNCONSTRUCTIBLE
    assert ga.pathologies.translation


def test_analyze_falls_back_to_the_grid_on_degenerate_geometry():
    # third point placed exactly on the first anchor: the exact 2+1
    # construction degenerates, rotations about that anchor stay feasible
    s = scen([(0.0, 0.0), (3.0, 0.0)], [(1.0, 0.5), (0.4, 1.2), (0.0, 0.0)],
             [1, 1, 2], truth=RigidTransform2.identity())
    ga = analyze_global(s)
    assert ga.method == "grid-oracle"
    assert ga.ind.family_dim >= 1
    assert ga.verdict is Verdict.UNCONSTRUCTIBLE


def test_analyze_raises_on_unsatisfiable_ranges():
    s = double_double()
    rho = list(s.rho_array())
    rho[3] += 0.5
    bad = scen([(0.0, 0.0), (3.0, 0.0)],
               [(0.0, 0.0), (1.0, 0.2), (0.4, 0.9), (1.5, 1.1)], [1, 1, 2, 2], rho=rho)
    with pytest.raises(EmptyDomain):
        analyze_global(bad)


def test_analyze_requires_measurements():
    from constructa import MissingMeasurements

    s = scen([(0.0, 0.0), (3.0, 0.0)], [(0.2, 0.1), (1.1, 0.4)], [1, 2])
    with pytest.raises(MissingMeasurements):
        analyze_global(s)


def test_sub_scenario_slices_consistently():
    s = double_double()
    sub = sub_scenario(s, (0, 1, 2))
    assert sub.n_measurements == 3
    assert sub.schedule.anchor_ids == (1, 1, 2)
    np.testing.assert_allclose(sub.rho_array(), s.rho_array()[:3])
    np.testing.assert_allclose(sub.points_array(), s.points_array()[:3])


def test_noise_breaks_exact_consistency_but_polish_recovers():
    # with noisy ranges the exact constructions disagree slightly; a loose
    # acceptance tolerance lets the pipeline return the least-squares fit
    base = double_double()
    noisy = with_measurements(
        base, synthesize_measurements(base, RigidTransform2(0.15, -0.35, 0.9),
                                      noise_std=0.01, seed=2))
    ga = analyze_global(noisy, SolverConfig(accept_tol=0.05))
    best = ga.solutions.best()
    assert best is not None
    assert same_transform(best.transform, RigidTransform2(0.15, -0.35, 0.9), 0.1, 0.05)


def test_scenario_dedup_tolerance_governs_every_route():
    # a dedup window wider than the whole placement set merges everything
    loose = Tolerances(dedup=(100.0, 10.0))
    for make in (double_plus_single, three_singles):
        assert analyze_global(replace(make(), tolerances=loose)).ind == IndClass.finite(1)
    s = replace(double_plus_single(), tolerances=loose)
    assert solve_multistart(s).ind_class == IndClass.finite(1)
    assert brute_force_oracle(s, GridSpec(nxy=61, phi_cells=90)).ind_class == IndClass.finite(1)


# ---------------------------------------------------------------------------
# filtering a sub-pattern's candidates against the further ranges

# every fixture with ranges whose analysis takes a closed form, not the grid
CLOSED_FORM_FIXTURES = (
    "clean_multi_anchor", "close_roots_three_singles", "double_double", "double_double_off_critical_line",
    "double_double_on_critical_line", "double_plus_single", "double_plus_two_singles", "four_singles",
    "rotation_pathology", "single_coincident", "single_collinear_off", "single_collinear_on",
    "single_generic", "tangent_double_plus_single", "tangent_three_singles", "tangent_triple_plus_single",
    "three_singles", "translation_pathology", "triple_plus_double", "triple_plus_single",
    "triple_plus_two_singles", "two_anchor_clipped_both", "two_anchor_merged", "two_anchor_single_window",
    "two_anchor_two_loops", "zero_coefficient_three_singles",
)


def test_closed_forms_load_no_scipy(tmp_path):
    # no verb needs scipy: a fresh interpreter that cannot import it runs the closed forms and every verb
    files = {}
    for make in (double_double, two_anchor_two_loops, three_singles, three_singles_circle_family, driven_scenario):
        files[make.__name__] = str(tmp_path / f"{make.__name__}.json")
        save_scenario(make(), files[make.__name__])
    dd = files["double_double"]
    runs = (
        (["analyze", dd], 0),
        (["localize", dd, "--method", "auto"], 0),
        (["localize", dd, "--method", "multistart"], 0),
        (["localize", dd, "--method", "oracle"], 0),
        (["gramian", files["driven_scenario"]], 0),
        (["gramian", files["driven_scenario"], "--numeric"], 0),
        (["plotdata", files["two_anchor_two_loops"], "--what", "family"], 0),
        (["plotdata", files["three_singles"], "--what", "locus"], 0),
        (["plotdata", dd, "--what", "oracle"], 0),
        (["simulate", dd, "--truth", "0.1,0.2,0.3"], 0),
        # the closed form falls back to the grid here
        (["analyze", files["three_singles_circle_family"]], 2),
    )
    code = (
        "import contextlib, io, sys\n"
        "sys.modules['scipy'] = None\n"
        "import constructa, helpers\n"
        "from constructa.cli import main\n"
        f"for name in {CLOSED_FORM_FIXTURES!r}:\n"
        "    assert constructa.analyze_global(getattr(helpers, name)()).method != 'grid-oracle', name\n"
        "codes = []\n"
        f"for argv in {[argv for argv, _ in runs]!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(main(argv))\n"
        "print(codes)\n"
        "print(sorted(m for m, mod in sys.modules.items() if m.split('.')[0] == 'scipy' and mod is not None))\n"
    )
    src = os.path.dirname(os.path.dirname(constructa.__file__))
    path = os.pathsep.join((src, os.path.dirname(__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [str([expected for _, expected in runs]), "[]"]


@pytest.mark.parametrize(
    "make, calls",
    [(double_double, 1), (three_singles, 2), (triple_plus_double, 1), (four_singles, 3)],
)
def test_far_candidates_are_not_polished(monkeypatch, make, calls):
    # only candidates on a placement of the full scenario reach LM, and 1+1+1 is polished once
    seen = []

    def counting(s, t, config):
        seen.append(t)
        return polish_solution(s, t, config)

    monkeypatch.setattr(global_analysis, "polish_solution", counting)
    analyze_global(make())
    assert len(seen) == calls


def _polish_every_candidate(s, transforms, config):
    """The filter without its residual pre-check: LM on every candidate, then dedup."""
    polished = (polish_solution(s, t, config) for t in transforms)
    return dedup_solutions((sol for sol in polished if sol is not None), *s.tolerances.dedup)


def _outcome(s):
    try:
        ga = analyze_global(s)
    except ConstructaError as e:
        return type(e).__name__, ()
    sols = ga.solutions.solutions
    decision = (ga.verdict, ga.ind, ga.method, ga.degenerate_case, ga.critical_line_hit)
    return (*decision, tuple(sol.rank for sol in sols)), sols


_OVERDETERMINED = {
    "2+2": (1, 1, 2, 2),
    "2+1+1": (1, 1, 2, 3),
    "3+2": (1, 1, 1, 2, 2),
    "1+1+1+1": (1, 2, 3, 4),
    "2+2+2": (1, 1, 2, 2, 3, 3),
}


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(pattern=hst.sampled_from(sorted(_OVERDETERMINED)), seed=hst.integers(0, 2**32 - 1))
def test_dropping_far_candidates_keeps_every_placement(pattern, seed):
    schedule = _OVERDETERMINED[pattern]
    rng = np.random.default_rng(seed)
    anchors, pts = sample_features(rng, len(schedule), max(schedule))
    s = scen(anchors, pts, schedule, truth=random_transform(rng))
    decision, sols = _outcome(s)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(global_analysis, "_filter_candidates", _polish_every_candidate)
        want_decision, want_sols = _outcome(s)
    assert decision == want_decision
    for got, want in zip(sols, want_sols):
        assert same_transform(got.transform, want.transform, 1e-9, 1e-9)
