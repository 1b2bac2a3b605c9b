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

import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .group_core import FiniteAction, Sl2GroupTable
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


def _trial_stream(seed: int, trial: int) -> np.random.Generator:
    # one counter-based stream per (trial, seed); bit-exact reproducibility
    return np.random.Generator(np.random.Philox(key=(np.uint64(seed) << np.uint64(32)) + np.uint64(trial)))


def _draw_indices(weights: Sequence[float], trials: int, n_steps: int,
                  seed: int) -> np.ndarray:
    """(trials, n_steps) atom indices drawn by weight, each trial from its own stream."""
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    gidx = np.empty((trials, n_steps), dtype=np.int64)
    for t in range(trials):
        gidx[t] = np.searchsorted(cum, _trial_stream(seed, t).random(n_steps))
    return gidx


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
    n_steps = plan.horizon
    gidx = _draw_indices([w for _, w in atoms], trials, n_steps, seed)
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
    gidx = _draw_indices([w for _, w in steps], trials, n_steps, seed)
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
    m = table.m
    points = np.asarray(action.points, dtype=np.int64).reshape(action.n_points, -1)
    if points.shape[1] != 2 or points.min() < 0 or points.max() >= m:
        raise ValueError("group table modulus does not match the action grid")
    index_of = np.full(m * m, -1, dtype=np.int64)
    index_of[points[:, 0] * m + points[:, 1]] = np.arange(action.n_points)
    # for each start x and group element g = (ga gb; gc gd), the point index
    # of g^-1 x = (gd x - gb y, ga y - gc x)
    ga, gb, gc, gd = table.elements.T
    xs, ys = points[starts, 0][:, None], points[starts, 1][:, None]
    act_inv = index_of[((gd * xs - gb * ys) % m) * m + (ga * ys - gc * xs) % m]
    if np.any(act_inv < 0):
        raise ValueError("group table maps a start outside the fixture")
    if np.any(act_inv[:, table.identity] != starts):
        raise ValueError("group table does not act compatibly on the fixture")
    horizon = plan.horizon
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
        in_target = member[act_inv]          # (n_starts, |G|)
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
