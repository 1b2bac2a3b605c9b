"""Discretized warped cones over torus actions.

A level is the torus grid (Z/m)^2 at scale t, carrying the warped graph:
grid-neighbor edges cost t/m (the scaled slice metric) and generator jumps
cost 1.  Shortest paths realize the chain infimum of the warped metric
restricted to grid-supported chains, which upper-bounds the continuum metric
on grid points.  The ghost operator is the blockwise slice mean; its defect
against iterated averaging operators and its locality on metric balls are
measured per level.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .group_core import (
    GroupElement,
    SL2_GENERATOR_MATRICES,
    build_sl2_quotient,
    word_ball,
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
    "PropagationReport",
    "propagation_check",
    "propagation_exhaustive",
    "GhostProjection",
    "LevelDefect",
    "GhostReport",
    "ghost_defect",
    "LocalityReport",
    "ghost_locality",
]


def _sparse():
    """``scipy.sparse``, with ``csgraph`` loaded, imported on first use: the
    warped-graph distances are gaplab's one use of scipy, so only the
    warped and ghost kinds pay for the import."""
    import scipy.sparse.csgraph

    return scipy.sparse


def _dijkstra(graph, **kwargs) -> np.ndarray:
    """Shortest-path distances along the directed edges of a warped graph."""
    return _sparse().csgraph.dijkstra(graph, directed=True, **kwargs)


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
        self.graph = self._build_graph()
        self._dist_cache: Optional[np.ndarray] = None

    @property
    def n_points(self) -> int:
        return self.action.n_points

    @property
    def weights(self) -> np.ndarray:
        return self.action.weights

    def _build_graph(self):
        m, n = self.m, self.n_points
        idx = np.arange(n)
        xs, ys = np.divmod(idx, m)
        rows: List[np.ndarray] = []
        cols: List[np.ndarray] = []
        data: List[np.ndarray] = []
        grid_w = self.t / m  # t times the flat-torus spacing 1/m
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            tgt = ((xs + dx) % m) * m + (ys + dy) % m
            keep = tgt != idx  # m = 1 degenerates to self-loops
            rows.append(idx[keep])
            cols.append(tgt[keep])
            data.append(np.full(int(keep.sum()), grid_w))
        for lab in self.action.gens.labels:
            tgt = self.action.perms[lab]
            keep = tgt != idx
            rows.append(idx[keep])
            cols.append(tgt[keep])
            data.append(np.ones(int(keep.sum())))
        r = np.concatenate(rows)
        c = np.concatenate(cols)
        w = np.concatenate(data)
        # parallel edges keep the cheaper weight
        order = np.lexsort((w, c, r))
        r, c, w = r[order], c[order], w[order]
        first = np.ones(len(r), dtype=bool)
        first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        return _sparse().csr_matrix((w[first], (r[first], c[first])), shape=(n, n))

    def distances_from(self, center: int) -> np.ndarray:
        return _dijkstra(self.graph, indices=center)

    def all_distances(self) -> np.ndarray:
        if self._dist_cache is None:
            self._dist_cache = _dijkstra(self.graph)
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

BALL_CHUNK = 256  # sources per bounded search: 8 MB of distances at m = 64


@dataclass
class BallProfile:
    radius: float
    max_measure: float
    argmax_center: int
    coverage_checked: bool
    coverage_ok: bool
    cover_radius: float


def ball_measure_profile(level: WarpedLevel, R: float) -> BallProfile:
    """Max over centers of the measure of the warped R-ball.

    Also verifies, at the center of the largest ball, the chain-coverage
    property: the warped ball sits inside the union of scaled-slice balls of
    radius T = R * L_max^R around the orbit points g x with word length
    |g| <= R.
    """
    if R < 0:
        raise ValueError("radius must be nonnegative")
    limit = R + 1e-12
    n = level.n_points
    # searches stop at R (farther points stay at inf, nearer ones are exact)
    # and run BALL_CHUNK sources at a time, so no n x n array is built
    measures = np.concatenate([
        (_dijkstra(level.graph, limit=limit,
                   indices=np.arange(start, min(start + BALL_CHUNK, n))) <= limit)
        @ level.weights
        for start in range(0, n, BALL_CHUNK)])
    arg = int(np.argmax(measures))
    max_measure = float(measures[arg])
    l_max = max(level.lipschitz.values())
    cover_radius = R * l_max ** math.floor(R)
    ball = np.flatnonzero(
        _dijkstra(level.graph, indices=arg, limit=limit) <= limit)
    best = np.full(len(ball), np.inf)
    for el in word_ball(level.action, int(math.floor(R))):
        best = np.minimum(best, level.cone_distances_from(int(el.perm[arg]))[ball])
    ok = not np.any(best > cover_radius + 1e-9)
    return BallProfile(
        radius=R,
        max_measure=max_measure,
        argmax_center=arg,
        coverage_checked=True,
        coverage_ok=ok,
        cover_radius=cover_radius,
    )


# -- finite propagation ----------------------------------------------------------


@dataclass
class PropagationPair:
    support_a: np.ndarray
    support_b: np.ndarray
    separation: float
    separated: bool
    product_zero: bool

    @property
    def consistent(self) -> bool:
        # separation beyond |g| must force an exactly zero product
        return (not self.separated) or self.product_zero


@dataclass
class PropagationReport:
    word_length: int
    pairs: List[PropagationPair]

    @property
    def ok(self) -> bool:
        return all(p.consistent for p in self.pairs)


def propagation_check(level: WarpedLevel, g: GroupElement,
                      sample_pairs: Sequence[Tuple[Sequence[int], Sequence[int]]],
                      word_length: Optional[int] = None) -> PropagationReport:
    """phi pi_g psi = 0 whenever the supports are separated beyond |g|.

    The product of multiplication operators around pi_g is nonzero exactly
    when supp(phi) meets g . supp(psi); that index-set check is exact, no
    tolerance involved.
    """
    wl = word_length if word_length is not None else g.word_length
    if wl is None:
        raise ValueError("group element carries no word length")
    pairs = []
    for a_set, b_set in sample_pairs:
        a = np.asarray(sorted(set(int(i) for i in a_set)), dtype=np.int64)
        b = np.asarray(sorted(set(int(i) for i in b_set)), dtype=np.int64)
        sep = math.inf
        for i in a:
            sep = min(sep, float(np.min(level.distances_from(int(i))[b])))
        moved = set(int(g.perm[j]) for j in b)
        product_zero = not (set(a.tolist()) & moved)
        pairs.append(
            PropagationPair(
                support_a=a, support_b=b, separation=sep,
                separated=sep > wl, product_zero=product_zero,
            )
        )
    return PropagationReport(word_length=wl, pairs=pairs)


def propagation_exhaustive(level: WarpedLevel, g: GroupElement) -> bool:
    """Exact check over all singleton support pairs at once."""
    if g.word_length is None:
        raise ValueError("group element carries no word length")
    dists = level.all_distances()
    # a pair (x, y) with x = g y must never be separated beyond |g|
    return bool(np.all(dists[g.perm, np.arange(level.n_points)] <= g.word_length + 1e-12))


# -- ghost projection --------------------------------------------------------------


class GhostProjection:
    """Blockwise slice-mean projector on a list of levels.

    The cone norm is the l_2 sum of per-level weighted norms (unit weight
    per level); the range is one constant function per level, so the rank
    equals the number of levels and grows with the cone.
    """

    def __init__(self, levels: Sequence[WarpedLevel]) -> None:
        if not levels:
            raise ValueError("need at least one level")
        self.levels = list(levels)

    @property
    def rank(self) -> int:
        return len(self.levels)

    def apply(self, fields: Sequence[np.ndarray]) -> List[np.ndarray]:
        if len(fields) != len(self.levels):
            raise ValueError("one field per level required")
        out = []
        for level, f in zip(self.levels, fields):
            f = np.asarray(f, dtype=float)
            mean = float(np.sum(level.weights * f))
            out.append(np.full(level.n_points, mean))
        return out

    def norm(self, fields: Sequence[np.ndarray]) -> float:
        total = 0.0
        for level, f in zip(self.levels, fields):
            total += float(np.sum(level.weights * np.asarray(f) ** 2))
        return math.sqrt(total)


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
        rep = Representation(level.action, p=2.0, d=1)
        op = markov_operator(rep, lazy_uniform(level.action))
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
    radius: float
    rows: List[LocalityRow]

    @property
    def ok(self) -> bool:
        return all(r.within_bound for r in self.rows)

    def max_norm_per_level(self) -> Dict[int, float]:
        out: Dict[int, float] = {}
        for r in self.rows:
            out[r.m] = max(out.get(r.m, 0.0), r.max_norm)
        return out


GHOST_RANDOM_FIELDS = 8  # seeded random fields per ball, besides the constant one


def ghost_locality(levels: Sequence[WarpedLevel], R: float,
                   n_centers: int = 8, seed: int = 0) -> LocalityReport:
    """|G f| over unit fields supported in warped R-balls.

    By Cauchy-Schwarz the slice mean of a unit field supported in a set S
    is at most sqrt(nu(S)); the constant field on S attains it, so the
    reported max equals the bound up to float error.  Single-point supports
    give |G f| = 1/m exactly.
    """
    if R < 0:
        raise ValueError("radius must be nonnegative")
    rows = []
    rng = np.random.default_rng(seed)
    for level in levels:
        centers = rng.choice(level.n_points, size=min(n_centers, level.n_points),
                             replace=False)
        for c in centers:
            ball = np.flatnonzero(level.distances_from(int(c)) <= R + 1e-12)
            measure = float(level.weights[ball].sum())
            bound = math.sqrt(measure)
            w = level.weights
            best = 0.0
            # the extremal field: constant on the ball
            flat = np.zeros(level.n_points)
            flat[ball] = 1.0
            flat /= math.sqrt(float(np.sum(w * flat**2)))
            best = abs(float(np.sum(w * flat)))
            for _ in range(GHOST_RANDOM_FIELDS):
                f = np.zeros(level.n_points)
                f[ball] = rng.standard_normal(len(ball))
                nrm = math.sqrt(float(np.sum(w * f**2)))
                if nrm > 0:
                    best = max(best, abs(float(np.sum(w * f))) / nrm)
            rows.append(LocalityRow(m=level.m, center=int(c),
                                    ball_measure=measure, max_norm=best,
                                    bound=bound))
    return LocalityReport(radius=R, rows=rows)
