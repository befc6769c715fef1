"""Numerical machinery for placement recovery from ranges.

Unknown is the rigid transform (dx, dy, phi) placing the vehicle-frame
trajectory in the world. Residual k is the predicted minus measured range of
sample k. The module offers Levenberg-Marquardt polishing, quasi-random
multistart, and a dense grid oracle over the full transform space that
clusters the near-zero residual region, polishes representatives per cluster
and decides between isolated solutions and continuous families.

The oracle trades speed for trustworthiness: it never reasons about geometry,
only about where the residual vanishes, so analytic results can be checked
against it.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConstructaError, NonPositiveInput, SchemaError
from .geom import RigidTransform2, angle_diff, wrap_angle
from .scenario import Scenario

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class IndClass:
    """Cardinality of the indistinguishable placement set.

    `count` is the number of isolated solutions, or of disjoint family
    branches when `family_dim` > 0. `family_dim` is the manifold dimension of
    each branch (0 isolated, 1 curve, 2 surface).
    """

    count: int
    family_dim: int = 0

    def __post_init__(self):
        if self.count < 0 or self.family_dim not in (0, 1, 2):
            raise NonPositiveInput(f"invalid class ({self.count}, {self.family_dim})")

    @staticmethod
    def finite(n: int) -> "IndClass":
        return IndClass(n, 0)

    @staticmethod
    def family(dim: int, branches: int = 1) -> "IndClass":
        return IndClass(branches, dim)

    @property
    def is_unique(self) -> bool:
        return self.count == 1 and self.family_dim == 0

    @property
    def is_finite(self) -> bool:
        return self.family_dim == 0

    def render(self) -> str:
        parts = []
        if self.family_dim == 0 or self.count != 1:
            parts.append(str(self.count))
        parts.extend(["∞"] * self.family_dim)
        return "Ind(" + "×".join(parts) + ")"

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class SolverConfig:
    n_starts: int = 64
    max_iter: int = 80
    accept_tol: float = 1e-7
    seed: int = 0

    def __post_init__(self):
        if self.n_starts < 1 or self.max_iter < 1:
            raise NonPositiveInput("n_starts and max_iter must be positive")
        if self.seed < 0:
            raise NonPositiveInput("seed must be nonnegative")
        if not (math.isfinite(self.accept_tol) and self.accept_tol > 0.0):
            raise NonPositiveInput("accept_tol must be positive and finite")


# most cells the oracle rasters in one piece: 2**27 float32 cells are 512 MiB
_MAX_CELLS = 2**27


@dataclass(frozen=True)
class GridSpec:
    """Oracle grid: xy half-width (None = derived bound) and cell counts."""

    extent: float | None = None
    nxy: int = 201
    phi_cells: int = 360

    def __post_init__(self):
        if self.nxy < 9 or self.phi_cells < 8:
            raise NonPositiveInput("grid too small to be meaningful")
        if self.extent is not None and not (math.isfinite(self.extent) and self.extent > 0.0):
            raise NonPositiveInput("extent must be positive and finite")
        if self.nxy * self.nxy * self.phi_cells > _MAX_CELLS:
            raise NonPositiveInput("grid has more than 2**27 cells (nxy * nxy * phi_cells)")


@dataclass(frozen=True)
class Solution:
    transform: RigidTransform2
    residual: float
    rank: int

    def key(self) -> tuple[float, float, float]:
        t = self.transform
        return (t.phi, t.dx, t.dy)


@dataclass(frozen=True)
class FamilyInfo:
    """One connected continuous branch of indistinguishable placements."""

    dim: int
    representatives: tuple[Solution, ...]
    spread: tuple[float, float, float]


@dataclass(frozen=True)
class SolutionSet:
    solutions: tuple[Solution, ...]
    families: tuple[FamilyInfo, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def n_solutions(self) -> int:
        return len(self.solutions)

    @property
    def ind_class(self) -> IndClass:
        if self.families:
            return IndClass(len(self.families), max(f.dim for f in self.families))
        return IndClass(len(self.solutions), 0)

    def best(self) -> Solution | None:
        """The first placement in (phi, dx, dy) order, family representatives included.

        Between exact placements the residual is rounding noise, so it does
        not choose; the order makes the pick independent of that noise.
        """
        pool = list(self.solutions)
        for f in self.families:
            pool.extend(f.representatives)
        if not pool:
            return None
        return min(pool, key=Solution.key)


def _problem_arrays(s: Scenario):
    return s.points_array(), s.anchor_positions(), s.rho_array()


def _residual_vec(pts, anchors, rhos, p) -> np.ndarray:
    dx, dy, phi = p
    c, sn = math.cos(phi), math.sin(phi)
    wx = c * pts[:, 0] - sn * pts[:, 1] + dx
    wy = sn * pts[:, 0] + c * pts[:, 1] + dy
    return np.hypot(wx - anchors[:, 0], wy - anchors[:, 1]) - rhos


def _jacobian_mat(pts, anchors, rhos, p) -> np.ndarray:
    dx, dy, phi = p
    c, sn = math.cos(phi), math.sin(phi)
    rx = c * pts[:, 0] - sn * pts[:, 1]
    ry = sn * pts[:, 0] + c * pts[:, 1]
    ex = rx + dx - anchors[:, 0]
    ey = ry + dy - anchors[:, 1]
    dist = np.hypot(ex, ey)
    # a world point sitting on its anchor has no defined direction; the clamp
    # keeps the iteration finite there
    dist = np.maximum(dist, 1e-12)
    return np.column_stack((ex / dist, ey / dist, (ex * (-ry) + ey * rx) / dist))


def residuals(s: Scenario, t: RigidTransform2) -> np.ndarray:
    """Predicted minus measured range per sample."""
    pts, anchors, rhos = _problem_arrays(s)
    return _residual_vec(pts, anchors, rhos, (t.dx, t.dy, t.phi))


def residual_jacobian(s: Scenario, t: RigidTransform2) -> np.ndarray:
    """(N, 3) derivative of the residuals in (dx, dy, phi)."""
    pts, anchors, rhos = _problem_arrays(s)
    return _jacobian_mat(pts, anchors, rhos, (t.dx, t.dy, t.phi))


def _rank(J: np.ndarray, rel_tol: float) -> int:
    sv = np.linalg.svd(J, compute_uv=False)
    if sv.size == 0 or sv[0] <= 0.0:
        return 0
    return int(np.sum(sv > rel_tol * sv[0]))


def _lm(pts, anchors, rhos, p0, max_iter: int) -> tuple[np.ndarray, float]:
    """Levenberg-Marquardt from p0; damping scales by 10 either way."""
    p = np.asarray(p0, dtype=float).copy()
    r = _residual_vec(pts, anchors, rhos, p)
    cost = float(r @ r)
    lam = 1e-3
    eye = np.eye(3)
    for _ in range(max_iter):
        J = _jacobian_mat(pts, anchors, rhos, p)
        g = J.T @ r
        if np.linalg.norm(g, np.inf) < 1e-15:
            break
        H = J.T @ J
        moved = False
        for _ in range(50):
            try:
                step = np.linalg.solve(H + lam * eye, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            r_new = _residual_vec(pts, anchors, rhos, p + step)
            cost_new = float(r_new @ r_new)
            if cost_new < cost:
                p = p + step
                r, cost = r_new, cost_new
                lam = max(lam / 10.0, 1e-14)
                moved = True
                break
            lam *= 10.0
            if lam > 1e12:
                break
        if not moved or float(np.linalg.norm(step)) < 1e-14:
            break
    return p, float(np.max(np.abs(r)))


def _polish(pts, anchors, rhos, p0, config: SolverConfig, rank_tol: float) -> Solution | None:
    """LM from p0, then the residual gate and the local rank of the result."""
    p, res = _lm(pts, anchors, rhos, p0, config.max_iter)
    if res > config.accept_tol:
        return None
    J = _jacobian_mat(pts, anchors, rhos, p)
    return Solution(RigidTransform2(p[0], p[1], wrap_angle(p[2])), res, _rank(J, rank_tol))


def polish_solution(s: Scenario, start: RigidTransform2, config: SolverConfig = SolverConfig()) -> Solution | None:
    """Refine a candidate transform; None when it fails the residual gate."""
    pts, anchors, rhos = _problem_arrays(s)
    return _polish(pts, anchors, rhos, (start.dx, start.dy, start.phi), config, s.tolerances.rank)


def _same_transform(a: RigidTransform2, b: RigidTransform2, tol_xy: float, tol_phi: float) -> bool:
    return (
        abs(a.dx - b.dx) <= tol_xy
        and abs(a.dy - b.dy) <= tol_xy
        and abs(angle_diff(a.phi, b.phi)) <= tol_phi
    )


def dedup_solutions(sols, tol_xy: float, tol_phi: float) -> list[Solution]:
    """Drop near-duplicate solutions, keeping the lowest residual of each."""
    kept: list[Solution] = []
    for s in sorted(sols, key=lambda s: s.residual):
        if not any(_same_transform(s.transform, k.transform, tol_xy, tol_phi) for k in kept):
            kept.append(s)
    return sorted(kept, key=Solution.key)


def translation_bound(s: Scenario) -> float:
    """Upper bound on |(dx, dy)| of any placement consistent with the ranges.

    Each sample k forces the transformed point within rho_k of its anchor,
    so |d| <= |B_k| + rho_k + |P_k|; the minimum over k is the tightest.
    """
    pts, anchors, rhos = _problem_arrays(s)
    bounds = np.linalg.norm(anchors, axis=1) + rhos + np.linalg.norm(pts, axis=1)
    return float(np.min(bounds))


def auto_extent(s: Scenario) -> float:
    """Half-width of the search square when none is given: the translation bound plus a margin."""
    return 1.05 * translation_bound(s) + 0.25


def _halton(n: int, seed: int) -> np.ndarray:
    """First n points of a scrambled Halton sequence in [0, 1)^3, bases 2, 3 and 5.

    Every digit position of every base gets its own random permutation of the
    digits, drawn from one generator (Owen, "A randomized Halton algorithm in
    R", arXiv:1706.02808, Algorithm 1). Point i in base b is
    sum_j perm_j[digit_j(i)] * b**-(j+1), where digit_j(i) is the j-th digit
    of i in base b, lowest first, and the sum runs in that order.
    """
    rng = np.random.default_rng(seed)
    out = np.zeros((n, 3))
    for col, base in enumerate((2, 3, 5)):
        # one permutation per digit whose weight base**-k still moves a double below 1
        perms = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        q = np.arange(n)
        weight = 1.0 / base
        for perm in perms:
            out[:, col] += perm[q % base] * weight
            q //= base
            weight /= base
    return out


def solve_multistart(s: Scenario, config: SolverConfig = SolverConfig()) -> SolutionSet:
    """Quasi-random multistart search over the feasible transform box.

    Start points are a scrambled Halton sequence (`_halton`), so runs with
    the same seed are reproducible. Finds isolated solutions; continuous
    families show up as many accepted points and are flagged, not resolved,
    here.
    """
    pts, anchors, rhos = _problem_arrays(s)
    extent = auto_extent(s)
    u = _halton(config.n_starts, config.seed)
    starts = np.column_stack(
        (
            (2.0 * u[:, 0] - 1.0) * extent,
            (2.0 * u[:, 1] - 1.0) * extent,
            (2.0 * u[:, 2] - 1.0) * math.pi,
        )
    )
    polished = (_polish(pts, anchors, rhos, p0, config, s.tolerances.rank) for p0 in starts)
    unique = dedup_solutions((sol for sol in polished if sol is not None), *s.tolerances.dedup)
    warnings: list[str] = []
    if not unique:
        warnings.append("no start converged below accept_tol")
    if len(unique) > config.n_starts // 4 and any(sol.rank < 3 for sol in unique):
        warnings.append("rank-deficient solutions scattered across the box suggest a continuous family")
    return SolutionSet(tuple(unique), (), tuple(warnings))


def _n_threads() -> int:
    raw = os.environ.get("CONSTRUCTA_THREADS", "0")
    try:
        n = int(raw)
    except ValueError as e:
        raise SchemaError(f"CONSTRUCTA_THREADS must be an integer, got {raw!r}") from e
    if n < 0:
        raise SchemaError("CONSTRUCTA_THREADS must be >= 0")
    cpus = os.cpu_count() or 1
    if n == 0:
        return min(cpus, 8)
    # the pool starts a thread per chunk while none is idle; more than the CPUs only costs
    return min(n, cpus)


def _residual_field(pts, anchors, rhos, xs, ys, phis, chunk) -> np.ndarray:
    """Max absolute range error over samples, for phi indices in `chunk`.

    Output shape (len(chunk), len(xs), len(ys)), float32.
    """
    out = np.empty((len(chunk), xs.size, ys.size), dtype=np.float32)
    gx = xs[:, None]
    gy = ys[None, :]
    for row, ip in enumerate(chunk):
        c, sn = math.cos(phis[ip]), math.sin(phis[ip])
        rx = c * pts[:, 0] - sn * pts[:, 1]
        ry = sn * pts[:, 0] + c * pts[:, 1]
        acc = None
        for k in range(pts.shape[0]):
            err = np.abs(np.hypot(gx + (rx[k] - anchors[k, 0]), gy + (ry[k] - anchors[k, 1])) - rhos[k])
            acc = err if acc is None else np.maximum(acc, err)
        out[row] = acc
    return out


def _circular_std(angles: np.ndarray) -> float:
    """Dispersion of angles that respects the wrap; 0 when all equal."""
    r = float(np.abs(np.mean(np.exp(1j * angles))))
    if r >= 1.0:
        return 0.0
    if r <= 1e-12:
        return math.pi
    return math.sqrt(-2.0 * math.log(r))


def _label_admitted(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Connected components of the admitted cells, phi (axis 0) cyclic, 26-connected.

    Returns the flat C-order indices of the admitted cells and, for each, the
    position in that list of the first cell of its component. Only admitted
    cells are visited. A cell and its admitted successor along y are joined
    outright. The other forward neighbours are looked up by binary search:
    straight across y from every cell, diagonally across y only from the
    ends of a run along y, since inside a run a straight lookup from the next
    cell finds the same neighbour. Labels join by min-label hooking with
    pointer jumping.
    """
    n_phi, nx, ny = mask.shape
    # int32 halves the index arrays; GridSpec caps a raster at 2**27 cells
    cells = np.flatnonzero(mask).astype(np.int32)
    ip, rest = np.divmod(cells, nx * ny)
    ix, iy = np.divmod(rest, ny)
    run = np.flatnonzero((cells[1:] == cells[:-1] + 1) & (iy[:-1] < ny - 1)).astype(np.int32)
    first = np.ones(cells.size, dtype=bool)
    first[run + 1] = False
    last = np.ones(cells.size, dtype=bool)
    last[run] = False
    src, dst = [run], [run + 1]
    for dp, dx in ((0, 1), (1, -1), (1, 0), (1, 1)):
        for dy, ends in ((0, None), (-1, first), (1, last)):
            jx, jy = ix + dx, iy + dy
            inside = (jx >= 0) & (jx < nx) & (jy >= 0) & (jy < ny)
            if ends is not None:
                inside &= ends
            inside = np.flatnonzero(inside).astype(np.int32)
            nb = (((ip[inside] + dp) % n_phi) * nx + jx[inside]) * ny + jy[inside]
            pos = np.minimum(np.searchsorted(cells, nb), cells.size - 1)
            hit = cells[pos] == nb
            src.append(inside[hit])
            dst.append(pos[hit])
    a, b = np.concatenate(src), np.concatenate(dst)
    label = np.arange(cells.size, dtype=np.int32)
    while True:
        la, lb = label[a], label[b]
        link = la != lb
        if not np.any(link):
            return cells, label
        a, b, la, lb = a[link], b[link], la[link], lb[link]
        # every label is a root here; hook the larger root of each edge under the smaller
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


def _cluster_seeds(coords: np.ndarray, vals: np.ndarray, scale: np.ndarray, max_seeds: int, min_sep: float):
    """Greedy farthest-point seed picks, starting at the best residual cell.

    coords columns are (dx, dy, phi); the scale vector makes the phi axis
    commensurate with meters. Phi distance respects the wrap.
    """

    def dist2(a, b):
        d0 = (a[:, 0] - b[0]) * scale[0]
        d1 = (a[:, 1] - b[1]) * scale[1]
        d2 = (np.mod(a[:, 2] - b[2] + math.pi, _TWO_PI) - math.pi) * scale[2]
        return d0 * d0 + d1 * d1 + d2 * d2

    order = [int(np.argmin(vals))]
    mind = dist2(coords, coords[order[0]])
    while len(order) < max_seeds:
        nxt = int(np.argmax(mind))
        if mind[nxt] < min_sep * min_sep:
            break
        order.append(nxt)
        mind = np.minimum(mind, dist2(coords, coords[nxt]))
    return coords[order]


def brute_force_oracle(
    s: Scenario, grid: GridSpec = GridSpec(), config: SolverConfig = SolverConfig()
) -> SolutionSet:
    """Exhaustive scan of transform space for indistinguishable placements.

    The (dx, dy, phi) box is rasterized, cells whose center residual is small
    enough that a zero could hide inside are kept, kept cells are grouped by
    26-connectivity with phi treated as cyclic (`_label_admitted`, which
    visits the kept cells only), and each group is polished from several
    spread-out seeds, groups in the C order of their first cell. A group is a
    continuous family when it yields well-separated exact solutions whose
    residual Jacobian is rank deficient; the family dimension is read off the
    rank drop. Raises ConstructaError when the box is too large for the
    float32 raster to hold its residuals.
    """
    pts, anchors, rhos = _problem_arrays(s)
    rank_tol = s.tolerances.rank
    tol_xy, tol_phi = s.tolerances.dedup

    extent = grid.extent if grid.extent is not None else auto_extent(s)
    # the largest residual any cell can carry must fit the float32 raster
    reach = (
        extent * math.sqrt(2.0)
        + float(np.max(np.hypot(pts[:, 0], pts[:, 1])))
        + float(np.max(np.hypot(anchors[:, 0], anchors[:, 1])))
        + float(np.max(rhos))
    )
    if not reach < float(np.finfo(np.float32).max):
        raise ConstructaError("grid oracle overflows: extent and lengths too large for a float32 raster")
    cell = 2.0 * extent / grid.nxy
    xs = np.linspace(-extent + 0.5 * cell, extent - 0.5 * cell, grid.nxy)
    ys = xs.copy()
    dphi = _TWO_PI / grid.phi_cells
    phis = -math.pi + (np.arange(grid.phi_cells) + 0.5) * dphi

    lever = float(np.max(np.linalg.norm(pts, axis=1)))
    threshold = 1.25 * (0.5 * cell * math.sqrt(2.0) + 0.5 * dphi * lever)
    threshold = max(threshold, 2.0 * config.accept_tol)

    n_threads = _n_threads()
    vals = np.empty((grid.phi_cells, grid.nxy, grid.nxy), dtype=np.float32)
    chunks = np.array_split(np.arange(grid.phi_cells), max(1, min(n_threads * 4, grid.phi_cells)))
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        # map yields in submission order, so the result is independent of scheduling
        blocks = pool.map(partial(_residual_field, pts, anchors, rhos, xs, ys, phis), chunks)
        for ch, block in zip(chunks, blocks):
            vals[ch[0] : ch[-1] + 1] = block

    cells, label = _label_admitted(vals <= threshold)
    warnings: list[str] = []
    if cells.size == 0:
        return SolutionSet((), (), ("no grid cell carries residual below the admission threshold",))

    # group admitted cells by component once instead of rescanning per cluster
    pos_p, pos_x, pos_y = np.unravel_index(cells, vals.shape)
    order = np.argsort(label, kind="stable")
    labs_sorted = label[order]
    _, starts_idx = np.unique(labs_sorted, return_index=True)
    slices = list(zip(starts_idx, np.append(starts_idx[1:], labs_sorted.size)))

    scale = np.array([1.0, 1.0, max(lever, cell)])
    cell_diag = math.sqrt(2.0 * cell * cell + (dphi * scale[2]) ** 2)

    isolated: list[Solution] = []
    families: list[FamilyInfo] = []
    for (lo, hi) in slices:
        sel = order[lo:hi]
        ip, ix, iy = pos_p[sel], pos_x[sel], pos_y[sel]
        coords = np.column_stack((xs[ix], ys[iy], phis[ip]))
        cvals = vals[ip, ix, iy]
        seeds = _cluster_seeds(coords, cvals, scale, max_seeds=6, min_sep=2.0 * cell_diag)

        polished = (_polish(pts, anchors, rhos, sd, config, rank_tol) for sd in seeds)
        reps = dedup_solutions((sol for sol in polished if sol is not None), tol_xy, tol_phi)
        if not reps:
            warnings.append(f"cluster of {coords.shape[0]} cells produced no solution below accept_tol")
            continue

        # polished points escaping their cluster by more than a cell mean the
        # raster missed structure
        span_phi = len(set(ip.tolist())) == grid.phi_cells
        for r in reps:
            out_xy = (
                r.transform.dx < coords[:, 0].min() - cell
                or r.transform.dx > coords[:, 0].max() + cell
                or r.transform.dy < coords[:, 1].min() - cell
                or r.transform.dy > coords[:, 1].max() + cell
            )
            out_phi = not span_phi and all(
                abs(angle_diff(r.transform.phi, ph)) > dphi for ph in coords[:, 2]
            )
            if out_xy or out_phi:
                warnings.append("grid too coarse: a polished solution left its cluster")
                break

        distinct = dedup_solutions(reps, 10.0 * tol_xy, 10.0 * tol_phi)
        min_rank = min(r.rank for r in reps)
        if len(distinct) >= 2 and min_rank < 3:
            spread = (
                float(np.std(coords[:, 0])),
                float(np.std(coords[:, 1])),
                _circular_std(coords[:, 2]),
            )
            families.append(FamilyInfo(3 - min_rank, tuple(reps), spread))
        else:
            isolated.extend(reps)

    isolated = dedup_solutions(isolated, tol_xy, tol_phi)
    families.sort(key=lambda f: f.representatives[0].key())
    return SolutionSet(tuple(isolated), tuple(families), tuple(warnings))

