"""Discretized warped cones over torus actions.

A level is the torus grid (Z/m)^2 at scale t, carrying the warped graph:
grid-neighbor edges cost t/m (the scaled slice metric) and generator jumps
cost 1.  Its eight edge maps, four grid steps and four SL2 generators, are
permutations of the grid (``WarpedLevel.edges``).  Shortest paths realize
the chain infimum of the warped metric restricted to grid-supported chains,
which upper-bounds the continuum metric on grid points.  A path from x is a
word w in the edge maps, so the warped R-ball of x is {w(x) : cost(w) <= R},
which ``word_images`` lists; past a few maps per point, ``ball_masks``
settles point sets per slice of centers instead.  ``all_distances``
relaxes the whole matrix, for the small levels that need every pair.  The
ghost operator G is the slice mean, one constant per level: ``ghost_defect``
measures the defect curves |A^k - G| of the lazy averaging operator A per
level, and ``ghost_locality`` the largest |G f| over unit fields supported in
warped balls, which the constant field on the ball attains.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from .group_core import (
    GroupElement,
    SL2_GENERATOR_MATRICES,
    build_sl2_quotient,
)
from .measures import lazy_uniform
from .rep_markov import (
    NON_GAPPED,
    Representation,
    defect_curve,
    markov_operator,
    restricted_norm,
)

__all__ = [
    "WarpedLevel",
    "build_warped_level",
    "build_cone",
    "BallProfile",
    "ball_measure_profile",
    "propagation_exhaustive",
    "LevelDefect",
    "GhostReport",
    "ghost_defect",
    "LocalityReport",
    "ghost_locality",
]

GRID_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))  # the first rows of ``edges``
COST_TOL = 1e-12  # a word of cost R + COST_TOL still lies in the R-ball
BALL_CHUNK = 256  # centers per slice of ball masks
MAPS_PER_POINT = 1  # ball masks leave the word search past this many maps per point


class WarpedLevel:
    """One level M x {t} of the discretized cone."""

    def __init__(self, m: int, t: float) -> None:
        if m < 1:
            raise ValueError("level grid needs m >= 1")
        if t <= 1.0:
            raise ValueError("cone levels start above scale 1")
        self.m = int(m)
        self.t = float(t)
        self.action = build_sl2_quotient(m, variant="b")
        self.lipschitz = {
            lab: float(np.max(np.sum(np.abs(np.array(mat).reshape(2, 2)), axis=1)))
            for lab, mat in SL2_GENERATOR_MATRICES.items()
        }
        # row e maps x to its neighbor along edge e; point x = (i, j) is i m + j
        xs, ys = np.divmod(np.arange(self.n_points), m)
        labels = self.action.gens.labels
        self.edges = np.stack(
            [((xs + dx) % m) * m + (ys + dy) % m for dx, dy in GRID_STEPS]
            + [self.action.perms[lab] for lab in labels])
        # t times the flat-torus spacing 1/m per grid step, 1 per jump
        self.edge_costs = np.array([self.t / m] * len(GRID_STEPS) + [1.0] * len(labels))
        self._dist_cache: Optional[np.ndarray] = None

    @property
    def n_points(self) -> int:
        return self.action.n_points

    @property
    def weights(self) -> np.ndarray:
        return self.action.weights

    def word_images(self, R: float, max_maps: float = math.inf) -> Optional[np.ndarray]:
        """Images w(x) of every point x under the distinct maps w of warped
        cost <= R, int32 (k, n), the identity first: column x is the R-ball
        of x.  None past ``max_maps`` maps."""
        probes = self._word_search(R, max_maps)
        return None if probes is None else self._affine_images(probes, np.arange(self.n_points))

    def _settle(self, R: float, start, fresh: Callable, move: Callable) -> None:
        """Settle the labels (i grid steps, j jumps) of cost i t/m + j <= R in
        cost order: ``fresh`` keeps what is new at a label (None if nothing,
        as a cheaper label reached the rest) and ``move`` takes it along."""
        n_grid, grid_cost = len(GRID_STEPS), self.t / self.m
        pending = {(0, 0): [start]}  # the labels reached, a frontier of a few
        while pending:
            i, j = min(pending, key=lambda ij: (ij[0] * grid_cost + ij[1], ij))
            new = fresh(pending.pop((i, j)))
            if new is None:
                continue
            for nxt, edges in (((i + 1, j), self.edges[:n_grid]),
                               ((i, j + 1), self.edges[n_grid:])):
                if nxt[0] * grid_cost + nxt[1] <= R + COST_TOL:
                    pending.setdefault(nxt, []).append(move(edges, new))

    def _word_search(self, R: float, max_maps: float) -> Optional[np.ndarray]:
        """The distinct maps of warped cost <= R as their images of the points
        0, 1 and m, which fix a map, as every word in the edge maps is affine
        on (Z/m)^2; None past ``max_maps`` maps."""
        if R < 0:
            raise ValueError("radius must be nonnegative")
        seen, kept = set(), []

        def fresh(blocks):
            new = {tuple(p) for p in np.concatenate(blocks).tolist()} - seen
            seen.update(new)
            if not new or len(seen) > max_maps:
                return None
            kept.append(np.array(sorted(new)))
            return kept[-1]

        self._settle(R, np.array([[0, 1 % self.n_points, self.m % self.n_points]]), fresh,
                     lambda edges, maps: edges[:, maps].reshape(-1, 3))
        return None if len(seen) > max_maps else np.concatenate(kept)

    def _affine_images(self, probes: np.ndarray, cols: Sequence[int]) -> np.ndarray:
        """w(x) = w(0) + x1 (w(m) - w(0)) + x2 (w(1) - w(0)) for the maps w given
        by their images of 0, 1 and m, in coordinates x = x1 m + x2 over Z/m."""
        x1, x2 = np.divmod(np.asarray(cols, dtype=np.int32), self.m)
        img = [(c[:, :1] + np.outer(c[:, 2] - c[:, 0], x1) + np.outer(c[:, 1] - c[:, 0], x2))
               % self.m for c in np.divmod(probes.astype(np.int32), self.m)]
        return img[0] * self.m + img[1]

    def ball_masks(self, R: float, centers: Sequence[int]) -> Iterator[np.ndarray]:
        """Warped R-balls of the centers as (B, n) bool masks, BALL_CHUNK at a
        time: from the word search while it keeps at most MAPS_PER_POINT n
        maps, so a slice of its images holds at most n B ints; past that, by
        settling the point sets of each slice, bounded at any R.  The edge
        maps come in inverse pairs, so the rows edges[:, y] neighbor y."""
        probes = self._word_search(R, MAPS_PER_POINT * self.n_points)
        centers = np.asarray(centers, dtype=np.int64)
        for lo in range(0, len(centers), BALL_CHUNK):
            cols = centers[lo:lo + BALL_CHUNK]
            if probes is not None:
                mask = np.zeros((len(cols), self.n_points), dtype=bool)
                mask[np.arange(len(cols)), self._affine_images(probes, cols)] = True
                yield mask
                continue
            reached = np.zeros((self.n_points, len(cols)), dtype=bool)  # point, source
            start = np.zeros_like(reached)
            start[cols, np.arange(len(cols))] = True

            def fresh(blocks, reached=reached):
                new = np.logical_or.reduce(blocks) & ~reached
                np.logical_or(reached, new, out=reached)
                return new if new.any() else None

            self._settle(R, start, fresh, lambda edges, points: points[edges].any(axis=0))
            yield np.ascontiguousarray(reached.T)

    def all_distances(self) -> np.ndarray:
        """Warped distances d[x, y] between all pairs (n x n floats): relaxes
        d[x, e(y)] <= d[x, y] + c_e over the edge maps e until nothing changes."""
        if self._dist_cache is None:
            d = np.full((self.n_points, self.n_points), np.inf)
            np.fill_diagonal(d, 0.0)
            changed = True
            while changed:
                changed = False
                for edge, cost in zip(self.edges, self.edge_costs):
                    old = d[:, edge]
                    relaxed = np.minimum(old, d + cost)
                    if np.any(relaxed != old):
                        d[:, edge] = relaxed
                        changed = True
            self._dist_cache = d
        return self._dist_cache

    def cone_distances_from(self, center: int) -> np.ndarray:
        """Scaled flat-torus (Euclidean) distances, t times the slice metric."""
        return self.t * self.action.metric.distances_from(center)


def build_warped_level(m: int, t: Optional[float] = None) -> WarpedLevel:
    """Level with the default coupling t = m (unit grid edges)."""
    return WarpedLevel(m, float(m) if t is None else t)


def build_cone(ms: Sequence[int] = (8, 16, 32, 64)) -> List[WarpedLevel]:
    return [build_warped_level(m) for m in ms]


# -- ball profiles -------------------------------------------------------------


@dataclass
class BallProfile:
    max_measure: float
    argmax_center: int
    coverage_ok: bool


def ball_measure_profile(level: WarpedLevel, R: float) -> BallProfile:
    """Max over centers of the measure of the warped R-ball.

    Also verifies, at the center of the largest ball, the chain-coverage
    property: the warped ball sits inside the union of scaled-slice balls of
    radius T = R * L_max^R around the orbit points g x with word length
    |g| <= R.
    """
    # einsum sums each row on the calling thread, where mask @ weights would
    # cast the mask to float and run a gemv that wakes OpenBLAS's thread pool
    # from m = 64 on
    measures = np.concatenate([np.einsum("ij,j->i", mask, level.weights)
                               for mask in level.ball_masks(R, np.arange(level.n_points))])
    arg = int(np.argmax(measures))
    with np.errstate(over="ignore"):  # L_max^R is inf past the float range
        cover_radius = R * float(np.float64(max(level.lipschitz.values())) ** math.floor(R))
    ball = np.flatnonzero(next(level.ball_masks(R, [arg]))[0])
    orbit = np.zeros(level.n_points, dtype=bool)  # the points g x, |g| <= R
    orbit[arg] = True
    for _ in range(min(math.floor(R), level.n_points)):
        orbit[level.edges[len(GRID_STEPS):, orbit]] = True
    best = np.full(len(ball), np.inf)
    for point in np.flatnonzero(orbit):
        best = np.minimum(best, level.cone_distances_from(int(point))[ball])
    return BallProfile(max_measure=float(measures[arg]), argmax_center=arg,
                       coverage_ok=not np.any(best > cover_radius + 1e-9))


# -- finite propagation ----------------------------------------------------------


def propagation_exhaustive(level: WarpedLevel, g: GroupElement) -> bool:
    """phi pi_g psi = 0 whenever the supports are separated beyond |g|,
    checked exactly over all singleton support pairs at once.

    The product of multiplication operators around pi_g is nonzero exactly
    when supp(phi) meets g . supp(psi), so the claim is that no pair
    (x, y) with x = g y lies farther apart than |g|.
    """
    if g.word_length is None:
        raise ValueError("group element carries no word length")
    dists = level.all_distances()
    return bool(np.all(dists[g.perm, np.arange(level.n_points)] <= g.word_length + COST_TOL))


# -- ghost defect -------------------------------------------------------------------


@dataclass
class LevelDefect:
    m: int
    t: float
    lam: float
    defects: np.ndarray  # |A^k - P| for k = 1..k_max
    gapped: bool

    def bound_ok(self, tol: float = 1e-9) -> bool:
        ks = np.arange(1, len(self.defects) + 1)
        return bool(np.all(self.defects <= self.lam**ks + tol))


@dataclass
class GhostReport:
    levels: List[LevelDefect]
    sup_lambda: float
    gapped: bool

    def cone_defects(self) -> np.ndarray:
        return np.max(np.stack([lv.defects for lv in self.levels]), axis=0)

    def bound_ok(self, tol: float = 1e-9) -> bool:
        ks = np.arange(1, len(self.levels[0].defects) + 1)
        return bool(np.all(self.cone_defects() <= self.sup_lambda**ks + tol))


def ghost_defect(levels: Sequence[WarpedLevel], k_max: int) -> GhostReport:
    """Per-level gaps and the defect curves |A^k - P|, k <= k_max, of the
    lazy uniform measure.

    Each level's curve is ``rep_markov.defect_curve``: the operator is
    self-adjoint, so it reuses the level's restricted-norm solve and adds
    k_max applications of A.  The cone-level defect is the sup
    over levels; the report flags whether the measured gaps are uniformly
    below 1 (the spectral-gap hypothesis is measured, not assumed).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    rows = []
    for level in levels:
        op = markov_operator(Representation(level.action), lazy_uniform(level.action))
        est = restricted_norm(op)
        gapped = est.value < NON_GAPPED
        if not gapped:
            warnings.warn(
                f"level m={level.m} has no measured gap (lambda={est.value})",
                RuntimeWarning,
            )
        rows.append(LevelDefect(m=level.m, t=level.t, lam=est.value,
                                defects=defect_curve(op, k_max)[1:], gapped=gapped))
    sup_lambda = max(r.lam for r in rows)
    return GhostReport(levels=rows, sup_lambda=sup_lambda,
                       gapped=all(r.gapped for r in rows))


# -- ghost locality ------------------------------------------------------------------


@dataclass
class LocalityRow:
    m: int
    center: int
    ball_measure: float
    max_norm: float
    bound: float

    @property
    def within_bound(self) -> bool:
        return self.max_norm <= self.bound + 1e-12


@dataclass
class LocalityReport:
    rows: List[LocalityRow]

    @property
    def ok(self) -> bool:
        return all(r.within_bound for r in self.rows)

    def max_norm_per_level(self) -> Dict[int, float]:
        out: Dict[int, float] = {}
        for r in self.rows:
            out[r.m] = max(out.get(r.m, 0.0), r.max_norm)
        return out


def ghost_locality(levels: Sequence[WarpedLevel], R: float,
                   n_centers: int = 8, seed: int = 0) -> LocalityReport:
    """max |G f| over unit fields f supported in warped R-balls, with G the
    slice mean, at ``n_centers`` seeded centers per level.

    By Cauchy-Schwarz the slice mean of a unit field supported in a set S
    is at most sqrt(nu(S)), and the constant unit field on S attains it, so
    each row reports |G f| of that field, equal to its bound sqrt(nu(S)) up
    to float error.  Single-point supports give |G f| = 1/m exactly.
    """
    if R < 0:
        raise ValueError("radius must be nonnegative")
    rows = []
    rng = np.random.default_rng(seed)
    for level in levels:
        centers = rng.choice(level.n_points, size=min(n_centers, level.n_points),
                             replace=False)
        masks = (row for mask in level.ball_masks(R, centers) for row in mask)
        for c, mask in zip(centers, masks):
            ball = np.flatnonzero(mask)
            measure = float(level.weights[ball].sum())
            bound = math.sqrt(measure)
            w = level.weights
            # the extremal field: constant on the ball
            flat = np.zeros(level.n_points)
            flat[ball] = 1.0
            flat /= math.sqrt(float(np.sum(w * flat**2)))
            rows.append(LocalityRow(m=level.m, center=int(c), ball_measure=measure,
                                    max_norm=abs(float(np.sum(w * flat))), bound=bound))
    return LocalityReport(rows=rows)
