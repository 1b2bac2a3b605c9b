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
from typing import Dict, List, Optional, Sequence

import numpy as np

from .group_core import FiniteAction, Sl2GroupTable
from .measures import DiscreteMeasure
from .rep_markov import (
    DECAY_TOL,
    InvariantFailure,
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
        self.measures = np.fromiter((action.weights[t].sum() for t in self.targets),
                                    float, len(self.targets))
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
        return self.membership(n).astype(float)

    def membership(self, n: int) -> np.ndarray:
        out = np.zeros(self.action.n_points, dtype=bool)
        out[self.targets[n - 1]] = True
        return out


def plan_from_sets(action: FiniteAction, targets: Sequence[Sequence[int]]
                   ) -> ShrinkingTargetPlan:
    return ShrinkingTargetPlan(action, [np.asarray(t, dtype=np.int64) for t in targets])


def plan_from_radii(action: FiniteAction, center: int, radii: Sequence[float]
                    ) -> ShrinkingTargetPlan:
    """Closed metric-ball targets around one center, from its distance field;
    measures are exact counting measures of the balls.

    The balls are nested, so each target is a prefix of one stable distance
    order, a view of that one read-only array: the plan holds n indices
    however long the horizon.  A target holds the points of
    dist <= r + 1e-15, nearest first.
    """
    if action.metric is None:
        raise ValueError("action carries no metric; use plan_from_sets")
    dist = action.metric.distances_from(center)
    order = np.argsort(dist, kind="stable")
    order.flags.writeable = False  # shared by every target
    ends = np.searchsorted(dist[order], np.asarray(radii, dtype=float) + 1e-15, "right")
    return ShrinkingTargetPlan(action, [order[:end] for end in ends])


# -- quantitative ergodic decay ------------------------------------------------


@dataclass
class ErgodicCurve:
    errors: np.ndarray
    lam: float
    quality: str
    field_norm: float
    slope: Optional[float]


def ergodic_error_curve(op: MarkovOperator, f: np.ndarray, K: int,
                        norm_estimate: Optional[NormEstimate] = None) -> ErgodicCurve:
    """Errors e_k = |A^k f - Mf|_p for k = 1..K by iterated application.

    With an exact-quality restricted norm the geometric bound
    e_k <= lam^k |f|_p is asserted (tolerance ``DECAY_TOL``): a violation is the
    ``InvariantFailure`` "ergodic-decay-bound".  The limit Mf is the
    orbitwise mean, which on an ergodic action is the global mean.
    """
    if K < 1:
        raise ValueError("need K >= 1")
    rep = op.rep
    dec = op.decomposition
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
        if worst > DECAY_TOL:
            raise InvariantFailure(
                "ergodic-decay-bound",
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
    hit_probs: np.ndarray          # (n_starts, N)
    sigma: np.ndarray              # (n_starts,) partial sums at the horizon
    s_partial: np.ndarray          # (N,)


def hit_fields_exact(action: FiniteAction, mu: DiscreteMeasure,
                     plan: ShrinkingTargetPlan) -> List[np.ndarray]:
    """Full hit-probability fields f_n = A^n 1_target, one per plan step."""
    op = markov_operator(Representation(action), mu)
    return [op.apply_power(plan.indicator(n), n) for n in range(1, plan.horizon + 1)]


def sigma_field_exact(action: FiniteAction, mu: DiscreteMeasure,
                      plan: ShrinkingTargetPlan) -> np.ndarray:
    """sum_n A^n 1_target as one field, in a single backward sweep."""
    op = markov_operator(Representation(action), mu)
    acc = np.zeros(action.n_points)
    for n in range(plan.horizon, 0, -1):
        acc[plan.targets[n - 1]] += 1.0
        acc = op.apply(acc)
    return acc


def _walk_starts(action: FiniteAction, plan: ShrinkingTargetPlan,
                 starts: Sequence[int]) -> np.ndarray:
    """Start indices as an array, after checking them and the plan against the action."""
    if plan.action is not action:
        raise ValueError("plan was built on a different action")
    given = np.asarray(list(starts))
    starts = given.astype(np.int64)
    if not np.array_equal(starts, given):
        raise ValueError("start indices must be integers")
    if starts.size and (starts.min() < 0 or starts.max() >= action.n_points):
        raise ValueError(f"start indices must lie in [0, {action.n_points})")
    return starts


def shrinking_series_exact(action: FiniteAction, mu: DiscreteMeasure,
                           plan: ShrinkingTargetPlan,
                           starts: Sequence[int]) -> WalkStatistics:
    """Exact hit probabilities for the given start points.

    Propagates the start rows of A^n, so the cost is one operator sweep per
    step regardless of how many targets there are.
    """
    starts = _walk_starts(action, plan, starts)
    op = markov_operator(Representation(action), mu)
    rows = np.zeros((len(starts), action.n_points))
    rows[np.arange(len(starts)), starts] = 1.0
    hit = np.zeros((len(starts), plan.horizon))
    for n in range(1, plan.horizon + 1):
        rows = op.transposed.apply_rows(rows)  # r <- r A for each start row
        member = plan.membership(n)
        hit[:, n - 1] = rows[:, member].sum(axis=1)
    if hit.size and (hit.min() < -1e-12 or hit.max() > 1.0 + 1e-12):
        raise RuntimeError("hit probabilities escaped [0, 1]")
    return WalkStatistics(
        hit_probs=hit,
        sigma=hit.sum(axis=1),
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


def _draw_indices(weights: Sequence[float], trials: int, n_steps: int,
                  seed: int) -> np.ndarray:
    """(trials, n_steps) atom indices drawn by weight, each trial from its own
    counter-based stream: Philox keyed by (seed << 32) + trial, counter 0.
    One bit generator is rekeyed per trial, which skips the OS-seeded
    ``SeedSequence`` that a new one would build and never use."""
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    bits = np.random.Philox()
    stream, state = np.random.Generator(bits), bits.state  # counter 0, empty buffer
    key = state["state"]["key"]
    key[1] = 0
    keys = (np.uint64(seed) << np.uint64(32)) + np.arange(trials, dtype=np.uint64)
    u = np.empty((trials, n_steps))
    for t in range(trials):
        key[0] = keys[t]
        bits.state = state
        stream.random(out=u[t])
    return np.searchsorted(cum, u)


def shrinking_series_mc(action: FiniteAction, mu: DiscreteMeasure,
                        plan: ShrinkingTargetPlan, trials: int, seed: int,
                        start: int) -> McStatistics:
    """Simulated trajectories of the mu-walk with per-trajectory streams.

    Steps apply x -> g^-1 x for g drawn from mu, matching the transfer
    convention, so empirical frequencies estimate the exact series.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    _walk_starts(action, plan, [start])
    atoms = [(el.inverse().perm, w) for el, w in mu.items()]
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
                            plan: ShrinkingTargetPlan, p: float, lam: float
                            ) -> MomentReport:
    """p-th moment bound for centered partial sums of hit fields.

    For each window 1 <= M <= N <= horizon the centered sum
    sum_{i=M}^N (f_i - nu(target_i)) has p-th moment at most
    (2 + C_p) / (1 - lam^q)^(p/q) times the window's measure total, where
    C_p = 1 + p 2^p and q is the conjugate exponent.
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lambda must lie in [0, 1), got {lam}")
    if p <= 1.0:
        raise ValueError("need p > 1")
    q = p / (p - 1.0)
    c_p = 1.0 + p * 2.0**p
    factor = (2.0 + c_p) / (1.0 - lam**q) ** (p / q)
    fields = hit_fields_exact(action, mu, plan)
    w = action.weights
    rows = []
    for n in range(1, plan.horizon + 1):
        for m in range(1, n + 1):
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
    trials: int
    seed: int
    degenerate: bool = False


def estimate_drift_mc(table: Sl2GroupTable, mu_labels: Dict[str, float],
                      n_steps: int, trials: int, seed: int) -> DriftEstimate:
    """Monte Carlo drift of the word length along the mu-walk.

    Regresses the mean word length against the step count over the window
    [n_steps // 8, n_steps // 2] of the pre-saturation regime (finite
    quotients plateau near the diameter), which needs n_steps >= 2 and
    trials >= 1.  A trial drawing s_1, ..., s_n sits at s_n^-1 ... s_1^-1,
    the inverse of the walk's product, of the same word length, so all
    trials step through the left products, one gather from ``table.left``
    per step.
    """
    if n_steps < 2:
        raise ValueError(f"need n_steps >= 2 for a drift regression, got {n_steps}")
    if trials < 1:
        raise ValueError(f"need trials >= 1 for a drift regression, got {trials}")
    columns, weights = table.walk_steps(mu_labels)
    choice = columns[_draw_indices(weights, trials, n_steps, seed)]
    pos = np.full(trials, table.identity, dtype=np.int64)
    mean_lengths = np.zeros(n_steps)
    for n in range(n_steps):
        col = choice[:, n]
        pos = np.where(col < 0, pos, table.left[pos, col])  # column -1 is "e"
        mean_lengths[n] = float(table.word_length[pos].mean())
    lo, hi = max(1, n_steps // 8), max(2, n_steps // 2)
    ks = np.arange(lo, hi + 1)
    ys = mean_lengths[lo - 1 : hi]
    var = float(np.var(ks))
    slope = float(np.cov(ks, ys, bias=True)[0, 1] / var) if var > 0 else 0.0
    degenerate = slope <= 1e-9
    if degenerate:
        warnings.warn("degenerate drift: word length does not grow", RuntimeWarning)
        slope = 0.0
    return DriftEstimate(two_a=slope, mean_lengths=mean_lengths, trials=trials, seed=seed,
                         degenerate=degenerate)


# -- conditioned series -----------------------------------------------------------


def _walk_step(x: np.ndarray, steps: Sequence[Optional[np.ndarray]],
               weights: np.ndarray) -> np.ndarray:
    """sum_i weights[i] x[steps[i]], added up in place in the order given; a
    step None is the identity, whose term weights[i] x needs no gather."""
    terms = (w * (x if step is None else x[step]) for step, w in zip(steps, weights))
    out = next(terms)
    for term in terms:
        out += term
    return out


@dataclass
class ConditionedStatistics:
    hit_probs: np.ndarray            # conditioned joint probabilities, (n_starts, N)
    unconditioned: np.ndarray        # same walk without the word-length cut
    sigma: np.ndarray
    s_partial: np.ndarray
    tail_mass: np.ndarray            # mu^n(word length > a n) per step
    a: float


def conditioned_series(action: FiniteAction, mu_labels: Dict[str, float],
                       plan: ShrinkingTargetPlan, drift_fraction: float,
                       table: Sl2GroupTable, starts: Sequence[int],
                       drift: DriftEstimate) -> ConditionedStatistics:
    """Joint probabilities P(walk in target, word length > a n), exactly.

    a is drift_fraction times half the estimated drift (0 cuts only the
    identity).  Unconditioned hits are the start rows of the point walk, as
    in ``shrinking_series_exact``; mu^n(g) = sum_s mu(s) mu^(n-1)(s^-1 g) is
    stepped over all of G for the tail mass.  Elements are listed by word
    length, so the short words (length <= a n) are a prefix; a conditioned hit
    is the unconditioned one minus mu^n of the short g with g^-1 x in the
    target, clipped at 0.
    Each start's images under G are streamed twice: they must lie in the
    fixture, the identity must fix the start, and the last step's group-route
    hits must match the point walk's to 1e-12.
    """
    if not 0.0 <= drift_fraction <= 1.0:
        raise ValueError("drift_fraction must lie in [0, 1]")
    starts = _walk_starts(action, plan, starts)
    columns, weights = table.walk_steps(mu_labels)
    a = drift_fraction * drift.two_a / 2.0
    m = table.m
    points = action.points
    if points.shape[1:] != (2,) or points.min() < 0 or points.max() >= m:
        raise ValueError("group table modulus does not match the action grid")
    index_of = np.full(m * m, -1, dtype=np.int64)
    index_of[points[:, 0] * m + points[:, 1]] = np.arange(action.n_points)
    ga, gb, gc, gd = table.elements.T
    # each compact column is widened to int16 on its own: m^2 <= 4096
    db, ac = gd.astype(np.int16) * m + gb, ga.astype(np.int16) * m + gc

    def images(start: int) -> np.ndarray:
        """Point index of g^-1 (x, y) = (d x - b y, a y - c x), g = (a b; c d), for all g."""
        rx, ry = np.outer(points[start], np.arange(m))  # r x and r y for r in Z/m
        first = (np.subtract.outer(rx, ry) % m).ravel() * m  # at d m + b
        return index_of[first[db] + (np.subtract.outer(ry, rx) % m).ravel()[ac]]

    horizon = plan.horizon
    # elements[:prefix[n - 1]] are the words of length <= a n
    prefix = np.searchsorted(table.word_length, a * np.arange(1, horizon + 1), "right")
    short = np.empty((len(starts), prefix.max(initial=0)), np.min_scalar_type(action.n_points))
    for row, x in zip(short, starts):
        image = images(x)
        if image.min() < 0:
            raise ValueError("group table maps a start outside the fixture")
        if image[table.identity] != x:
            raise ValueError("group table does not act compatibly on the fixture")
        row[:] = image[:len(row)]
    perms = [None if lab == "e" else action.perms[lab] for lab in mu_labels]
    rows = [None if j < 0 else table.left[:, j].astype(np.intp) for j in columns]
    dist = np.zeros(table.n_elements)
    dist[table.identity] = 1.0
    walk = np.zeros((action.n_points, len(starts)))  # one column per start
    walk[starts, np.arange(len(starts))] = 1.0
    cond, uncond = np.zeros((2, len(starts), horizon))
    tail_mass = np.zeros(horizon)
    for n in range(1, horizon + 1):
        dist = _walk_step(dist, rows, weights)
        c = prefix[n - 1]
        tail_mass[n - 1] = float(dist[c:].sum())
        walk = _walk_step(walk, perms, weights)
        member = plan.membership(n)
        uncond[:, n - 1] = walk[member].sum(axis=0)
        if tail_mass[n - 1] == 0.0:
            continue  # no long word carries mass, so no conditioned hit is left
        cond[:, n - 1] = uncond[:, n - 1]
        block = max(1, 65536 // max(c, 1))  # starts x short words summed at a time
        for lo in range(0, len(starts), block):
            hit = np.where(member.take(short[lo:lo + block, :c]), dist[:c], 0.0)
            cond[lo:lo + block, n - 1] -= hit.sum(axis=1)
    np.maximum(cond, 0.0, out=cond)  # the difference can round below 0
    if horizon and any(abs(dist[member[images(x)]].sum() - value) > 1e-12
                       for x, value in zip(starts, uncond[:, -1])):
        raise ValueError("group table does not act compatibly on the fixture")
    return ConditionedStatistics(
        hit_probs=cond,
        unconditioned=uncond,
        sigma=cond.sum(axis=1),
        s_partial=plan.s_partial.copy(),
        tail_mass=tail_mass,
        a=a,
    )
