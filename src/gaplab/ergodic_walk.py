"""Quantitative ergodic decay, shrinking targets, and conditioned walks.

The transfer route computes hit probabilities exactly: the probability that
the n-step walk started at x sits in a target is the n-fold averaging
operator applied to the target indicator, evaluated at x.  Monte Carlo runs
ride on counter-based per-trajectory streams and are checked against the
exact series.  Conditioned walks restrict the n-step distribution to group
elements of word length above a drift threshold, with the drift rate itself
estimated by seeded simulation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .group_core import FiniteAction, SL2_GENERATOR_MATRICES
from .measures import DiscreteMeasure
from .rep_markov import (
    MarkovOperator,
    NormEstimate,
    Representation,
    markov_operator,
    restricted_norm,
)

__all__ = [
    "ShrinkingTargetPlan",
    "plan_from_sets",
    "plan_from_radii",
    "WalkStatistics",
    "ErgodicCurve",
    "ergodic_error_curve",
    "hit_fields_exact",
    "sigma_field_exact",
    "shrinking_series_exact",
    "McStatistics",
    "shrinking_series_mc",
    "MomentReport",
    "moment_inequality_check",
    "Sl2GroupTable",
    "DriftEstimate",
    "estimate_drift_mc",
    "ConditionedStatistics",
    "conditioned_series",
]


# -- target plans -------------------------------------------------------------


class ShrinkingTargetPlan:
    """A horizon-long sequence of target subsets with exact measures."""

    def __init__(self, action: FiniteAction, targets: Sequence[np.ndarray]) -> None:
        self.action = action
        self.targets = [np.asarray(t, dtype=np.int64) for t in targets]
        n = action.n_points
        for t in self.targets:
            if t.size and (t.min() < 0 or t.max() >= n):
                raise ValueError("target indices out of range")
        self.measures = np.array(
            [float(action.weights[t].sum()) for t in self.targets]
        )
        self.s_partial = np.cumsum(self.measures)

    @property
    def horizon(self) -> int:
        return len(self.targets)

    def s_n(self, n: Optional[int] = None) -> float:
        if self.horizon == 0:
            return 0.0
        n = self.horizon if n is None else n
        return float(self.s_partial[n - 1])

    def indicator(self, n: int) -> np.ndarray:
        """Indicator field of the n-th target (1-based)."""
        out = np.zeros(self.action.n_points)
        out[self.targets[n - 1]] = 1.0
        return out

    def membership(self, n: int) -> np.ndarray:
        out = np.zeros(self.action.n_points, dtype=bool)
        out[self.targets[n - 1]] = True
        return out


def plan_from_sets(action: FiniteAction, targets: Sequence[Sequence[int]]
                   ) -> ShrinkingTargetPlan:
    return ShrinkingTargetPlan(action, [np.asarray(t, dtype=np.int64) for t in targets])


def plan_from_radii(action: FiniteAction, center: int, radii: Sequence[float]
                    ) -> ShrinkingTargetPlan:
    """Metric-ball targets; measures are exact counting measures of the balls."""
    if action.metric is None:
        raise ValueError("action carries no metric; use plan_from_sets")
    targets = [action.metric.ball(center, float(r)) for r in radii]
    return ShrinkingTargetPlan(action, targets)


# -- quantitative ergodic decay ------------------------------------------------


@dataclass
class ErgodicCurve:
    errors: np.ndarray
    lam: float
    quality: str
    field_norm: float
    slope: Optional[float]

    def bound_slack(self) -> np.ndarray:
        ks = np.arange(1, len(self.errors) + 1)
        return self.lam**ks * self.field_norm - self.errors


def ergodic_error_curve(rep: Representation, f: np.ndarray, mu: DiscreteMeasure,
                        K: int, norm_estimate: Optional[NormEstimate] = None
                        ) -> ErgodicCurve:
    """Errors e_k = |A^k f - Mf|_p for k = 1..K by iterated application.

    With an exact-quality restricted norm the geometric bound
    e_k <= lam^k |f|_p is asserted (tolerance 1e-9).  Non-ergodic actions
    fall back to orbitwise means, with a warning.
    """
    if K < 1:
        raise ValueError("need K >= 1")
    op = markov_operator(rep, mu)
    dec = op.decomposition
    if dec.n_orbits > 1:
        warnings.warn(
            "action is not ergodic: errors measured against orbitwise means",
            RuntimeWarning,
        )
    est = norm_estimate or restricted_norm(op)
    f = rep._coerce(f)
    target = dec.mean(f)
    fnorm = rep.norm(f)
    errors = np.empty(K)
    g = f
    for k in range(1, K + 1):
        g = op.apply(g)
        errors[k - 1] = rep.norm(g - target)
    if est.quality == "exact":
        bound = est.value ** np.arange(1, K + 1) * fnorm
        worst = float(np.max(errors - bound))
        if worst > 1e-9:
            raise RuntimeError(
                f"geometric decay bound violated by {worst:.3e}; "
                "operator or norm computation is inconsistent"
            )
    positive = errors > 1e-13
    slope = None
    if np.count_nonzero(positive) >= 2:
        ks = np.arange(1, K + 1)[positive]
        ys = np.log(errors[positive])
        var = float(np.var(ks))
        if var > 0:
            slope = float(np.cov(ks, ys, bias=True)[0, 1] / var)
    return ErgodicCurve(errors=errors, lam=est.value, quality=est.quality,
                        field_norm=fnorm, slope=slope)


# -- exact shrinking-target series ----------------------------------------------


@dataclass
class WalkStatistics:
    starts: np.ndarray
    hit_probs: np.ndarray          # (n_starts, N)
    sigma: np.ndarray              # (n_starts,) partial sums at the horizon
    target_measures: np.ndarray    # (N,)
    s_partial: np.ndarray          # (N,)

    @property
    def horizon(self) -> int:
        return self.hit_probs.shape[1]


def _row_propagate(op: MarkovOperator, rows: np.ndarray) -> np.ndarray:
    """One step of r <- r A for a batch of row distributions."""
    return rows @ op.matrix


def hit_fields_exact(action: FiniteAction, mu: DiscreteMeasure,
                     plan: ShrinkingTargetPlan) -> List[np.ndarray]:
    """Full hit-probability fields f_n = A^n 1_target, one per plan step."""
    rep = Representation(action, p=2.0, d=1)
    op = markov_operator(rep, mu)
    fields = []
    for n in range(1, plan.horizon + 1):
        f = plan.indicator(n)[:, None]
        for _ in range(n):
            f = op.apply(f)
        fields.append(f[:, 0])
    return fields


def sigma_field_exact(action: FiniteAction, mu: DiscreteMeasure,
                      plan: ShrinkingTargetPlan) -> np.ndarray:
    """sum_n A^n 1_target as one field, in a single backward sweep."""
    rep = Representation(action, p=2.0, d=1)
    op = markov_operator(rep, mu)
    acc = np.zeros((action.n_points, 1))
    for n in range(plan.horizon, 0, -1):
        acc = op.apply(plan.indicator(n)[:, None] + acc)
    return acc[:, 0]


def shrinking_series_exact(action: FiniteAction, mu: DiscreteMeasure,
                           plan: ShrinkingTargetPlan,
                           starts: Sequence[int]) -> WalkStatistics:
    """Exact hit probabilities for the given start points.

    Propagates the start rows of A^n, so the cost is one operator sweep per
    step regardless of how many targets there are.
    """
    starts = np.asarray(list(starts), dtype=np.int64)
    rep = Representation(action, p=2.0, d=1)
    op = markov_operator(rep, mu)
    rows = np.zeros((len(starts), action.n_points))
    rows[np.arange(len(starts)), starts] = 1.0
    hit = np.zeros((len(starts), plan.horizon))
    for n in range(1, plan.horizon + 1):
        rows = _row_propagate(op, rows)
        member = plan.membership(n)
        hit[:, n - 1] = rows[:, member].sum(axis=1)
    if hit.size and (hit.min() < -1e-12 or hit.max() > 1.0 + 1e-12):
        raise RuntimeError("hit probabilities escaped [0, 1]")
    return WalkStatistics(
        starts=starts,
        hit_probs=hit,
        sigma=hit.sum(axis=1),
        target_measures=plan.measures.copy(),
        s_partial=plan.s_partial.copy(),
    )


# -- Monte Carlo ---------------------------------------------------------------


@dataclass
class McStatistics:
    start: int
    trials: int
    seed: int
    hit_freq: np.ndarray        # (N,)
    sigma_mean: float
    sigma_per_trial: np.ndarray  # (trials,) total hit counts

    def band_violations(self, exact_probs: np.ndarray, z: float = 3.0) -> int:
        """Count steps where the empirical frequency leaves the z-sigma band."""
        sd = np.sqrt(exact_probs * (1.0 - exact_probs) / self.trials)
        return int(np.count_nonzero(np.abs(self.hit_freq - exact_probs) > z * sd + 1e-12))

    def sigma_band(self, z: float = 3.0) -> float:
        """z-sigma half-width for the aggregate hit total."""
        return z * float(self.sigma_per_trial.std(ddof=1)) / math.sqrt(self.trials)


def _trial_stream(seed: int, trial: int) -> np.random.Generator:
    # one counter-based stream per (trial, seed); bit-exact reproducibility
    return np.random.Generator(np.random.Philox(key=(np.uint64(seed) << np.uint64(32)) + np.uint64(trial)))


def shrinking_series_mc(action: FiniteAction, mu: DiscreteMeasure,
                        plan: ShrinkingTargetPlan, trials: int, seed: int,
                        start: int) -> McStatistics:
    """Simulated trajectories of the mu-walk with per-trajectory streams.

    Steps apply x -> g^-1 x for g drawn from mu, matching the transfer
    convention, so empirical frequencies estimate the exact series.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    atoms = [(el.inverse().perm_array(), w) for el, w in mu.items()]
    inv_perms = np.stack([a for a, _ in atoms])
    weights = np.array([w for _, w in atoms])
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    n_steps = plan.horizon
    # pre-draw each trajectory's generator indices from its own stream
    gidx = np.empty((trials, n_steps), dtype=np.int64)
    for t in range(trials):
        u = _trial_stream(seed, t).random(n_steps)
        gidx[t] = np.searchsorted(cum, u)
    pos = np.full(trials, start, dtype=np.int64)
    hits = np.zeros(n_steps)
    per_trial = np.zeros(trials)
    members = [plan.membership(n) for n in range(1, n_steps + 1)]
    for n in range(n_steps):
        pos = inv_perms[gidx[:, n], pos]
        hit_mask = members[n][pos]
        hits[n] = float(np.count_nonzero(hit_mask)) / trials
        per_trial += hit_mask
    return McStatistics(
        start=start, trials=trials, seed=seed,
        hit_freq=hits, sigma_mean=float(hits.sum()),
        sigma_per_trial=per_trial,
    )


# -- moment inequality -----------------------------------------------------------


@dataclass
class MomentRow:
    m: int
    n: int
    lhs: float
    rhs: float

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs + 1e-12


@dataclass
class MomentReport:
    rows: List[MomentRow]
    c_p: float
    lam: float
    p: float

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def worst_slack(self) -> float:
        return min(r.rhs - r.lhs for r in self.rows)


def moment_inequality_check(action: FiniteAction, mu: DiscreteMeasure,
                            plan: ShrinkingTargetPlan, p: float, lam: float,
                            ranges: Optional[Sequence[Tuple[int, int]]] = None
                            ) -> MomentReport:
    """p-th moment bound for centered partial sums of hit fields.

    For each window (M, N) the centered sum sum_{i=M}^N (f_i - nu(target_i))
    has p-th moment at most (2 + C_p) / (1 - lam^q)^(p/q) times the window's
    measure total, where C_p = 1 + p 2^p and q is the conjugate exponent.
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lambda must lie in [0, 1), got {lam}")
    if p <= 1.0:
        raise ValueError("need p > 1")
    q = p / (p - 1.0)
    c_p = 1.0 + p * 2.0**p
    factor = (2.0 + c_p) / (1.0 - lam**q) ** (p / q)
    fields = hit_fields_exact(action, mu, plan)
    if ranges is None:
        ranges = [(m, n) for n in range(1, plan.horizon + 1) for m in range(1, n + 1)]
    w = action.weights
    rows = []
    for m, n in ranges:
        if not 1 <= m <= n <= plan.horizon:
            raise ValueError(f"window ({m}, {n}) outside horizon")
        centered = sum(fields[i - 1] - plan.measures[i - 1] for i in range(m, n + 1))
        lhs = float(np.sum(w * np.abs(centered) ** p))
        rhs = factor * float(plan.measures[m - 1 : n].sum())
        rows.append(MomentRow(m=m, n=n, lhs=lhs, rhs=rhs))
    return MomentReport(rows=rows, c_p=c_p, lam=lam, p=p)


# -- word-length tracking on SL2 quotients ---------------------------------------


class Sl2GroupTable:
    """SL2(Z/m) with multiplication tables and exact word lengths.

    Elements are the reachable products of the elementary generators
    (all of SL2(Z/m)); word lengths are breadth-first distances for the
    symmetric generating set.  Matrices are encoded into flat ids, so the
    closure runs level-by-level on arrays.
    """

    MAX_MODULUS = 64  # the encoded id table has m^4 entries

    def __init__(self, m: int) -> None:
        if not 2 <= m <= self.MAX_MODULUS:
            raise ValueError(f"need modulus in [2, {self.MAX_MODULUS}], got {m}")
        self.m = int(m)
        self.labels = tuple(SL2_GENERATOR_MATRICES)
        gens = {lab: np.array([x % m for x in mat], dtype=np.int64)
                for lab, mat in SL2_GENERATOR_MATRICES.items()}
        ident = np.array([[1 % m, 0, 0, 1 % m]], dtype=np.int64)
        id_of = np.full(m**4, -1, dtype=np.int64)
        id_of[self._encode(ident)] = 0
        chunks = [ident]
        lengths = [np.zeros(1, dtype=np.int64)]
        frontier = ident
        count = 1
        depth = 0
        while frontier.size:
            depth += 1
            cands = np.concatenate(
                [_batch_mat_mul(frontier, g, m) for g in gens.values()]
            )
            encs = self._encode(cands)
            fresh = np.flatnonzero(id_of[encs] < 0)
            if fresh.size == 0:
                break
            _uniq, first = np.unique(encs[fresh], return_index=True)
            new_rows = cands[fresh[first]]
            new_encs = encs[fresh[first]]
            id_of[new_encs] = count + np.arange(len(new_rows))
            count += len(new_rows)
            chunks.append(new_rows)
            lengths.append(np.full(len(new_rows), depth, dtype=np.int64))
            frontier = new_rows
        self.elements = np.concatenate(chunks)
        self.word_length = np.concatenate(lengths)
        self._id_of = id_of
        self.identity = 0
        self.n_elements = len(self.elements)
        self.right_mult = {
            lab: self._lookup(_batch_mat_mul(self.elements, g, m))
            for lab, g in gens.items()
        }

    def _encode(self, mats: np.ndarray) -> np.ndarray:
        m = self.m
        return ((mats[:, 0] * m + mats[:, 1]) * m + mats[:, 2]) * m + mats[:, 3]

    def _lookup(self, mats: np.ndarray) -> np.ndarray:
        ids = self._id_of[self._encode(mats)]
        if np.any(ids < 0):
            raise ValueError("matrix outside the generated group")
        return ids

    def inverse_ids(self) -> np.ndarray:
        inv = self.elements[:, [3, 1, 2, 0]].copy()
        inv[:, 1] = (-self.elements[:, 1]) % self.m
        inv[:, 2] = (-self.elements[:, 2]) % self.m
        return self._lookup(inv)

    def act_on_point(self, point: Tuple[int, int], inverse: bool = False) -> np.ndarray:
        """For every group element g, the image g . point (or g^-1 . point)."""
        x, y = point
        a, b, c, d = (self.elements[:, i] for i in range(4))
        if inverse:
            # inverse of (a b; c d) in SL2 is (d -b; -c a)
            a, b, c, d = d, (-b) % self.m, (-c) % self.m, a
        nx = (a * x + b * y) % self.m
        ny = (c * x + d * y) % self.m
        return np.stack([nx, ny], axis=1)

    def step_distribution(self, mu_labels: Dict[str, float]) -> List[Tuple[Optional[str], float]]:
        out = []
        total = 0.0
        for lab, w in mu_labels.items():
            if w < 0:
                raise ValueError("negative weight")
            total += w
            if lab == "e":
                out.append((None, float(w)))
            elif lab in self.right_mult:
                out.append((lab, float(w)))
            else:
                raise ValueError(f"unknown label {lab!r}")
        if abs(total - 1.0) > 1e-12:
            raise ValueError("label weights do not sum to 1")
        return out

    def convolution_step(self, dist: np.ndarray, mu_labels: Dict[str, float]) -> np.ndarray:
        """One step of the walk distribution under right multiplication."""
        out = np.zeros_like(dist)
        for lab, w in self.step_distribution(mu_labels):
            if lab is None:
                out += w * dist
            else:
                out[self.right_mult[lab]] += w * dist
        return out


def _batch_mat_mul(mats: np.ndarray, g: np.ndarray, m: int) -> np.ndarray:
    a, b, c, d = mats[:, 0], mats[:, 1], mats[:, 2], mats[:, 3]
    e, f_, g_, h = int(g[0]), int(g[1]), int(g[2]), int(g[3])
    return np.stack(
        [
            (a * e + b * g_) % m,
            (a * f_ + b * h) % m,
            (c * e + d * g_) % m,
            (c * f_ + d * h) % m,
        ],
        axis=1,
    )


# -- drift ----------------------------------------------------------------------


@dataclass
class DriftEstimate:
    two_a: float
    mean_lengths: np.ndarray
    window: Tuple[int, int]
    trials: int
    seed: int
    degenerate: bool = False


def estimate_drift_mc(table: Sl2GroupTable, mu_labels: Dict[str, float],
                      n_steps: int, trials: int, seed: int,
                      window: Optional[Tuple[int, int]] = None) -> DriftEstimate:
    """Monte Carlo drift of the word length along the mu-walk.

    Regresses the mean word length against the step count over a window of
    the pre-saturation regime (finite quotients plateau near the diameter).
    """
    steps = table.step_distribution(mu_labels)
    labels = [lab for lab, _ in steps]
    cum = np.cumsum([w for _, w in steps])
    cum[-1] = 1.0
    gidx = np.empty((trials, n_steps), dtype=np.int64)
    for t in range(trials):
        u = _trial_stream(seed, t).random(n_steps)
        gidx[t] = np.searchsorted(cum, u)
    pos = np.full(trials, table.identity, dtype=np.int64)
    mean_lengths = np.zeros(n_steps)
    for n in range(n_steps):
        for a, lab in enumerate(labels):
            sel = gidx[:, n] == a
            if lab is not None and np.any(sel):
                pos[sel] = table.right_mult[lab][pos[sel]]
        mean_lengths[n] = float(table.word_length[pos].mean())
    if window is None:
        window = (max(1, n_steps // 8), max(2, n_steps // 2))
    lo, hi = window
    ks = np.arange(lo, hi + 1)
    ys = mean_lengths[lo - 1 : hi]
    var = float(np.var(ks))
    slope = float(np.cov(ks, ys, bias=True)[0, 1] / var) if var > 0 else 0.0
    degenerate = slope <= 1e-9
    if degenerate:
        warnings.warn("degenerate drift: word length does not grow", RuntimeWarning)
        slope = 0.0
    return DriftEstimate(two_a=slope, mean_lengths=mean_lengths, window=window,
                         trials=trials, seed=seed, degenerate=degenerate)


# -- conditioned series -----------------------------------------------------------


@dataclass
class ConditionedStatistics:
    starts: np.ndarray
    hit_probs: np.ndarray            # conditioned joint probabilities, (n_starts, N)
    unconditioned: np.ndarray        # same walk without the word-length cut
    sigma: np.ndarray
    s_partial: np.ndarray
    tail_mass: np.ndarray            # mu^n(word length > a n) per step
    a: float
    drift: DriftEstimate


def conditioned_series(action: FiniteAction, mu_labels: Dict[str, float],
                       plan: ShrinkingTargetPlan, drift_fraction: float,
                       table: Sl2GroupTable, starts: Sequence[int],
                       drift: Optional[DriftEstimate] = None,
                       drift_steps: int = 48, drift_trials: int = 2000,
                       seed: int = 0) -> ConditionedStatistics:
    """Joint probabilities P(walk in target, word length > a n), exactly.

    a is drift_fraction times half the estimated drift.  The n-step group
    distribution is maintained over the full quotient group, so the cut on
    word length is exact; the unconditioned column reproduces the transfer
    series.  drift_fraction = 0 disables the conditioning.
    """
    if not 0.0 <= drift_fraction <= 1.0:
        raise ValueError("drift_fraction must lie in [0, 1]")
    if drift is None:
        drift = estimate_drift_mc(table, mu_labels, n_steps=drift_steps,
                                  trials=drift_trials, seed=seed)
    a = drift_fraction * drift.two_a / 2.0
    starts = np.asarray(list(starts), dtype=np.int64)
    point_lookup = {tuple(p): i for i, p in enumerate(action.points)}
    if any(max(p) >= table.m for p in action.points):
        raise ValueError("group table modulus does not match the action grid")
    # for each start x, the point index of g^-1 x per group element (or -1)
    act_inv = np.empty((len(starts), table.n_elements), dtype=np.int64)
    for row, s in enumerate(starts):
        images = table.act_on_point(tuple(action.points[int(s)]), inverse=True)
        act_inv[row] = [point_lookup.get((int(x), int(y)), -1) for x, y in images]
        if act_inv[row, table.identity] != int(s):
            raise ValueError("group table does not act compatibly on the fixture")
    horizon = plan.horizon
    valid = act_inv >= 0
    safe_idx = np.clip(act_inv, 0, None)
    dist = np.zeros(table.n_elements)
    dist[table.identity] = 1.0
    cond = np.zeros((len(starts), horizon))
    uncond = np.zeros((len(starts), horizon))
    tail_mass = np.zeros(horizon)
    for n in range(1, horizon + 1):
        dist = table.convolution_step(dist, mu_labels)
        cut = table.word_length > a * n
        tail_mass[n - 1] = float(dist[cut].sum())
        member = plan.membership(n)
        in_target = valid & member[safe_idx]          # (n_starts, |G|)
        uncond[:, n - 1] = in_target @ dist
        cond[:, n - 1] = in_target @ (dist * cut)
    return ConditionedStatistics(
        starts=starts,
        hit_probs=cond,
        unconditioned=uncond,
        sigma=cond.sum(axis=1),
        s_partial=plan.s_partial.copy(),
        tail_mass=tail_mass,
        a=a,
        drift=drift,
    )
