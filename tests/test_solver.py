"""Least-squares polish, multistart search, dedup, grid oracle."""
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from constructa import solver
from constructa import (
    FamilyInfo,
    GridSpec,
    IndClass,
    NonPositiveInput,
    RigidTransform2,
    SchemaError,
    Solution,
    SolutionSet,
    SolverConfig,
    brute_force_oracle,
    dedup_solutions,
    polish_solution,
    residual_jacobian,
    residuals,
    solve_multistart,
    translation_bound,
)
from helpers import (
    TRUTH_D,
    clean_multi_anchor,
    double_double,
    double_plus_single,
    each_in,
    oracle_transforms,
    same_transform,
    scen,
    three_singles,
)


def test_ind_class_rendering():
    assert IndClass.finite(1).render() == "Ind(1)"
    assert IndClass.finite(4).render() == "Ind(4)"
    assert IndClass.family(1).render() == "Ind(∞)"
    assert IndClass.family(1, branches=2).render() == "Ind(2×∞)"
    assert IndClass.family(2).render() == "Ind(∞×∞)"
    assert IndClass.finite(1).is_unique
    assert not IndClass.finite(2).is_unique
    assert IndClass.finite(3).is_finite
    assert not IndClass.family(1).is_finite


def test_residuals_vanish_at_truth():
    s = clean_multi_anchor()
    truth = RigidTransform2(0.2, -0.1, 0.35)
    np.testing.assert_allclose(residuals(s, truth), 0.0, atol=1e-12)
    r = residuals(s, RigidTransform2(0.5, 0.0, 0.0))
    assert np.max(np.abs(r)) > 0.01


def test_residual_jacobian_matches_finite_differences():
    s = clean_multi_anchor()
    t = RigidTransform2(0.31, -0.22, 0.51)
    J = residual_jacobian(s, t)
    eps = 1e-7
    for j, delta in enumerate(np.eye(3) * eps):
        plus = residuals(s, RigidTransform2(t.dx + delta[0], t.dy + delta[1], t.phi + delta[2]))
        minus = residuals(s, RigidTransform2(t.dx - delta[0], t.dy - delta[1], t.phi - delta[2]))
        np.testing.assert_allclose(J[:, j], (plus - minus) / (2 * eps), atol=1e-6)


def test_polish_converges_from_a_nearby_start():
    s = clean_multi_anchor()
    truth = RigidTransform2(0.2, -0.1, 0.35)
    start = RigidTransform2(0.35, -0.25, 0.55)
    sol = polish_solution(s, start)
    assert sol is not None
    assert same_transform(sol.transform, truth, 1e-8, 1e-8)
    assert sol.residual < 1e-9
    assert sol.rank == 3


def test_polish_rejects_starts_that_miss():
    s = clean_multi_anchor()
    sol = polish_solution(s, RigidTransform2(4.0, 4.0, -3.0),
                          SolverConfig(max_iter=3, accept_tol=1e-10))
    assert sol is None


def test_multistart_finds_all_isolated_placements():
    s = double_plus_single()
    ss = solve_multistart(s, SolverConfig(n_starts=256, seed=3))
    assert ss.ind_class.count == 4
    # all four reproduce the measured ranges
    for sol in ss.solutions:
        assert sol.residual < 1e-8


def test_multistart_is_deterministic_per_seed():
    s = three_singles()
    a = solve_multistart(s, SolverConfig(n_starts=128, seed=7))
    b = solve_multistart(s, SolverConfig(n_starts=128, seed=7))
    assert [x.key() for x in a.solutions] == [x.key() for x in b.solutions]


def test_dedup_merges_by_both_tolerances():
    base = Solution(RigidTransform2(0.0, 0.0, 0.0), 0.0, 3)
    near = Solution(RigidTransform2(5e-6, 0.0, 5e-6), 1e-12, 3)
    far_xy = Solution(RigidTransform2(1e-3, 0.0, 0.0), 0.0, 3)
    far_phi = Solution(RigidTransform2(0.0, 0.0, 1e-3), 0.0, 3)
    wrap = Solution(RigidTransform2(0.0, 0.0, math.pi - 1e-7), 0.0, 3)
    wrap2 = Solution(RigidTransform2(0.0, 0.0, -math.pi + 1e-7), 0.0, 3)
    out = dedup_solutions([base, near, far_xy, far_phi], 1e-5, 1e-5)
    assert len(out) == 3
    # the survivor of the base/near merge is the lower-residual member
    assert all(sol.residual == 0.0 for sol in out)
    # angles touching from both sides of the wrap seam are one solution
    out2 = dedup_solutions([wrap, wrap2], 1e-5, 1e-5)
    assert len(out2) == 1


def test_best_ignores_residual_noise():
    # between exact placements the residual is rounding noise; swapping it must not change the pick
    a, b = RigidTransform2(0.0, 1.0, 0.0), RigidTransform2(0.0, 0.0, 0.0)
    one = SolutionSet((Solution(a, 2e-16, 3), Solution(b, 1e-16, 3)))
    swapped = SolutionSet((Solution(a, 1e-16, 3), Solution(b, 2e-16, 3)))
    family = SolutionSet((), (FamilyInfo(1, (Solution(a, 1e-16, 2), Solution(b, 2e-16, 2)), (0.0, 0.0, 0.0)),))
    assert one.best().transform == swapped.best().transform == family.best().transform
    assert SolutionSet(()).best() is None


def test_solver_config_validation():
    with pytest.raises(NonPositiveInput):
        SolverConfig(n_starts=0)
    with pytest.raises(NonPositiveInput):
        SolverConfig(accept_tol=0.0)
    with pytest.raises(NonPositiveInput):
        SolverConfig(seed=-1)
    with pytest.raises(NonPositiveInput):
        GridSpec(nxy=4)
    with pytest.raises(NonPositiveInput):
        GridSpec(extent=-1.0)
    # the raster is capped at 2**27 cells; the largest grid in use, 401x401x720, fits
    with pytest.raises(NonPositiveInput):
        GridSpec(nxy=401, phi_cells=835)
    GridSpec(nxy=401, phi_cells=720)


def test_translation_bound_covers_all_solutions():
    s = double_plus_single()
    bound = translation_bound(s)
    ss = solve_multistart(s, SolverConfig(n_starts=256, seed=0))
    for sol in ss.solutions:
        assert math.hypot(sol.transform.dx, sol.transform.dy) <= bound


def test_oracle_agrees_with_multistart_on_isolated_sets():
    s = double_plus_single()
    ms = solve_multistart(s, SolverConfig(n_starts=256, seed=1))
    oc = brute_force_oracle(s, GridSpec(nxy=101, phi_cells=180))
    assert oc.ind_class.count == ms.ind_class.count == 4
    assert each_in([x.transform for x in ms.solutions], oracle_transforms(oc))


def test_oracle_unique_case():
    s = double_double()
    oc = brute_force_oracle(s, GridSpec(nxy=101, phi_cells=180))
    assert oc.ind_class.render() == "Ind(1)"
    assert same_transform(oc.solutions[0].transform, TRUTH_D)
    assert oc.solutions[0].rank == 3


def test_oracle_empty_when_ranges_are_inconsistent():
    # two ranges from the same anchor for the same point cannot differ
    s = scen([(0.0, 0.0)], [(1.0, 0.0), (1.0, 0.0)], [1, 1], rho=[1.0, 3.0])
    oc = brute_force_oracle(s, GridSpec(extent=3.0, nxy=41, phi_cells=24))
    assert oc.n_solutions == 0
    assert not oc.families
    assert oc.warnings


def test_oracle_threads_env(monkeypatch):
    s = double_double()
    monkeypatch.setenv("CONSTRUCTA_THREADS", "1")
    a = brute_force_oracle(s, GridSpec(nxy=61, phi_cells=90))
    monkeypatch.setenv("CONSTRUCTA_THREADS", "4")
    b = brute_force_oracle(s, GridSpec(nxy=61, phi_cells=90))
    assert [x.key() for x in a.solutions] == [x.key() for x in b.solutions]
    monkeypatch.setenv("CONSTRUCTA_THREADS", "banana")
    with pytest.raises(SchemaError):
        brute_force_oracle(s, GridSpec(nxy=61, phi_cells=90))
    # capped at the CPU count: the pool would start a thread per chunk, so only the setting is read here
    monkeypatch.setenv("CONSTRUCTA_THREADS", "100000")
    assert solver._n_threads() == (os.cpu_count() or 1)


@pytest.mark.parametrize("n", [1, 64, 1000])
def test_halton_matches_scipy_bit_for_bit(n):
    # scipy is no longer a dependency; where it is installed it is the reference
    qmc = pytest.importorskip("scipy.stats").qmc
    for seed in range(200):
        expected = qmc.Halton(d=3, scramble=True, seed=seed).random(n)
        assert np.array_equal(solver._halton(n, seed), expected), seed


def _flood_fill(mask):
    """Components of a 3-D mask in the C order of their first cell: 26 neighbours, axis 0 cyclic."""
    n_phi, nx, ny = mask.shape
    seen, comps = set(), []
    for start in map(tuple, np.argwhere(mask)):
        if start in seen:
            continue
        seen.add(start)
        stack, comp = [start], []
        while stack:
            p, x, y = stack.pop()
            comp.append(int(np.ravel_multi_index((p, x, y), mask.shape)))
            for dp in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        q = ((p + dp) % n_phi, x + dx, y + dy)
                        if 0 <= q[1] < nx and 0 <= q[2] < ny and mask[q] and q not in seen:
                            seen.add(q)
                            stack.append(q)
        comps.append(sorted(comp))
    return comps


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    shape=hst.tuples(hst.integers(1, 12), hst.integers(1, 12), hst.integers(1, 12)),
    density=hst.floats(0.05, 0.6),
    seed=hst.integers(0, 2**32 - 1),
)
def test_label_admitted_matches_a_flood_fill(shape, density, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) < density
    # the phi seam and the xy edges get twice the density, so wrapped and clipped neighbours are common
    edge = np.zeros(shape, dtype=bool)
    edge[[0, -1]] = True
    edge[:, [0, -1]] = True
    edge[:, :, [0, -1]] = True
    mask |= edge & (rng.random(shape) < density)
    cells, label = solver._label_admitted(mask)
    assert cells.tolist() == np.flatnonzero(mask).tolist()
    firsts = np.unique(label)
    comps = [cells[label == first].tolist() for first in firsts]
    assert comps == _flood_fill(mask)
    # a component's label is the position of its first cell
    assert [comp[0] for comp in comps] == cells[firsts].tolist()
