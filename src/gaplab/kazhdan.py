"""Kazhdan constants and the quantitative conversions around them.

Ties together four quantities attached to a representation and a finite set
Q: the Kazhdan constant kappa (least maximal displacement of a unit
mean-zero field), the restricted norm lambda of an admissible averaging
operator, the normalizing factor M of the measure, and the summable decay
total S.  The conversions between them (``norm_bound_from_kappa``,
``kappa_from_decay``, ``hilbert_improvement`` and the boost ``boost_pair``)
are one-sided bounds; the oracle computes kappa variationally and pairs the
heuristic minimum with a rigorous quadratic lower bound.  ``gaplab run``
kind ``kazhdan`` (``cli``) puts all four together on one fixture, and
acceptance criteria 3, 4 and 11 read that report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .group_core import GroupElement, element_ball
from .measures import uniform_on
from .rep_markov import (
    Decomposition,
    MarkovOperator,
    Representation,
    _lp_grad,
    _symmetrized_top,
)

__all__ = [
    "ModulusResult",
    "modulus",
    "KazhdanOracleResult",
    "kazhdan_constant_oracle",
    "norm_bound_from_kappa",
    "kappa_from_decay",
    "hilbert_improvement",
    "BoostResult",
    "boost_pair",
]


@dataclass(frozen=True)
class ModulusResult:
    value: float
    exact: bool


def modulus(p: float, t: float) -> ModulusResult:
    """Modulus of convexity of l_p at separation t.

    Exact for p = 2; for p >= 2 the Clarkson-type expression
    1 - (1 - (t/2)^p)^(1/p) and for 1 < p < 2 the quadratic bound
    (p-1) t^2 / 8 are valid lower bounds, flagged non-exact.  A smaller
    modulus only weakens downstream certified bounds.
    """
    if not 0.0 <= t <= 2.0:
        raise ValueError(f"separation t must lie in [0, 2], got {t}")
    if not 1.0 < p < np.inf:
        raise ValueError(f"exponent p must lie in (1, inf), got {p}")
    if p == 2.0:
        return ModulusResult(1.0 - math.sqrt(max(0.0, 1.0 - t * t / 4.0)), True)
    if p > 2.0:
        return ModulusResult(1.0 - (1.0 - (t / 2.0) ** p) ** (1.0 / p), False)
    return ModulusResult((p - 1.0) * t * t / 8.0, False)


# -- the kappa oracle ---------------------------------------------------------


# descent budget and the tie tolerance of the active maximum, also the slack
# of the p = 2 exit
ORACLE_MAX_ITER = 3000
ORACLE_TIE_TOL = 1e-9


@dataclass
class KazhdanOracleResult:
    """Best displacement minimum found, with a rigorous companion bound.

    ``best`` is an upper bound on the true Kazhdan constant (it is the value
    at some concrete field); ``lower_bound`` is the p = 2 quadratic bound
    sqrt(2 (1 - lambda_sym)) and is None at other exponents.  Both come from
    the oracle's one spectral solve, which also gives its eigen-starts.  When
    the eigen-starts end within ``ORACLE_TIE_TOL`` of ``lower_bound``,
    ``best`` comes from them alone (see ``kazhdan_constant_oracle``).
    """

    best: float
    lower_bound: Optional[float]
    minimizer: Optional[np.ndarray]


def kazhdan_constant_oracle(rep: Representation, Q: Iterable[GroupElement],
                            seed: int = 0, n_starts: int = 64) -> KazhdanOracleResult:
    """min over unit mean-zero fields of max_{s in Q} |v - pi_s v|.

    Multi-start projected subgradient descent with step halving; ties in the
    max (within ``ORACLE_TIE_TOL``) are handled by averaging the active
    subgradients.  When the complement is trivial the constant is vacuously
    +inf.

    One spectral solve, of the symmetrized uniform average S over Q at
    p = 2, gives the top three eigenpairs theta_i of S on the complement
    (fewer when the complement has fewer dimensions).  Since at p = 2
    sum_s |v - pi_s v|^2 = 2 |Q| (|v|^2 - <v, S v>), their vectors are the
    eigen-starts, and theta_1 gives ``lower_bound`` = sqrt(2 (1 - theta_1)).
    The solve is matrix-free, so the oracle holds O(|Q| n) floats and
    refuses no size.

    The eigen-starts run first, then ``n_starts`` seeded random fields.  At
    p = 2 every start ends at or above kappa >= ``lower_bound``, so the
    random starts run only when the eigen-starts end more than
    ``ORACLE_TIE_TOL`` above that bound; at other exponents they always run.
    The exit leans on ``lower_bound`` being valid, which is still open:
    theta_1 is a Ritz value without a certified enclosure (ROADMAP
    direction 2).
    """
    q_set = list(dict.fromkeys(Q))
    if not q_set:
        raise ValueError("empty Kazhdan set")
    dec = Decomposition(rep)
    if dec.complement_dim() == 0:
        return KazhdanOracleResult(best=math.inf, lower_bound=math.inf, minimizer=None)
    q_inv = np.stack([el.inverse().perm for el in q_set])  # (|Q|, n)
    q_perm = [el.perm for el in q_set]

    def normalize(v: np.ndarray) -> Optional[np.ndarray]:
        v = dec.complement(v)
        nrm = rep.norm(v)
        if nrm < 1e-300:
            return None
        return v / nrm

    def descend(v0: np.ndarray) -> Tuple[float, np.ndarray]:
        v = normalize(v0)
        if v is None:
            return math.inf, v0
        # the accepted point keeps its displacements: the objective is their max
        disps = rep.norm(v - v[q_inv])
        val = float(np.max(disps))
        step = 0.5
        for _ in range(ORACLE_MAX_ITER):
            active = np.flatnonzero(disps >= val - ORACLE_TIE_TOL)
            grad = np.zeros_like(v)
            for i in active:
                if disps[i] > 0.0:  # a zero displacement adds no gradient
                    gu = _lp_grad(rep, v - v[q_inv[i]], float(disps[i]))
                    grad += gu - gu[q_perm[i]]
            grad /= len(active)
            grad = dec.complement(grad)
            gmax = float(np.max(np.abs(grad)))
            if gmax < 1e-14:
                break
            moved = False
            while step > 1e-14:
                cand = normalize(v - step * grad)
                if cand is not None:
                    cdisps = rep.norm(cand - cand[q_inv])
                    cval = float(np.max(cdisps))
                    if cval < val - 1e-15:
                        v, val, disps = cand, cval, cdisps
                        step *= 1.5
                        moved = True
                        break
                step *= 0.5
            if not moved:
                break
        return val, v

    hilbert = MarkovOperator(Representation(rep.action), uniform_on(q_set))
    top = _symmetrized_top(hilbert, k=min(3, dec.complement_dim()))
    lower = None
    if rep.p == 2.0:
        lower = math.sqrt(max(0.0, 2.0 * (1.0 - top.value)))

    best = math.inf
    best_v: Optional[np.ndarray] = None
    for x in top.vectors:  # all eigen-starts before the exit check
        # projected here and again in descend: where theta = -1 ties the
        # complement to the invariant fields, a start may be mostly invariant
        # and one projection would leave its rounding outside the complement
        val, v = descend(dec.complement(x))
        if val < best:
            best, best_v = val, v
    if lower is None or best > lower + ORACLE_TIE_TOL:
        for k in range(n_starts):
            srng = np.random.default_rng(seed + 1009 * (k + 1))
            val, v = descend(srng.standard_normal(rep.n_points))
            if val < best:
                best, best_v = val, v
    return KazhdanOracleResult(best=float(best), lower_bound=lower, minimizer=best_v)


# -- conversions --------------------------------------------------------------


def norm_bound_from_kappa(M: float, p: float, kappa: float) -> float:
    """Certified restricted-norm bound 1 - (2/M) delta_p(kappa)."""
    if not 0.0 <= kappa <= 2.0:
        raise ValueError(f"kappa must lie in [0, 2], got {kappa}")
    if M < 2.0:
        raise ValueError(f"normalizing factor must be >= 2, got {M}")
    return 1.0 - (2.0 / M) * modulus(p, kappa).value


@dataclass(frozen=True)
class DecayConversion:
    kappa: float
    S_total: float


def kappa_from_decay(lam: float) -> DecayConversion:
    """Kazhdan constant from geometric decay a_k = lam^k.

    S = lam / (1 - lam) and kappa = 1 / (1 + S) = 1 - lam.  lam = 0, a
    perfect gap, gives S = 0 and kappa = 1.
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"decay rate must lie in [0, 1), got {lam}")
    s_total = lam / (1.0 - lam)
    return DecayConversion(kappa=1.0 / (1.0 + s_total), S_total=s_total)


def hilbert_improvement(lam: float, p: float = 2.0) -> float:
    """Improved Hilbert-space bound kappa >= sqrt(2) sqrt(1 - lam)."""
    if p != 2.0:
        raise ValueError("the sqrt(2) improvement is a Hilbert-space bound")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    return math.sqrt(2.0) * math.sqrt(1.0 - lam)


@dataclass
class BoostResult:
    m: int
    kappa: float
    kazhdan_set: List[GroupElement]


def boost_pair(Q: Iterable[GroupElement], lam: float, eps: float) -> BoostResult:
    """Kazhdan pair (Qbar^m, 1 - eps) from a decay rate lam.

    m = ceil(log eps / log lam), and m = 1 at lam = 0; the boosted constant
    is 1 - lam^m.  The boosted set is the ball of radius m in Q u {e}, i.e.
    all products of at most m elements of Q.
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"decay rate must lie in [0, 1), got {lam}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    q_set = list(dict.fromkeys(Q))
    if not q_set:
        raise ValueError("empty Kazhdan set")
    m = max(1, math.ceil(math.log(eps) / math.log(lam))) if lam > 0.0 else 1
    kappa = 1.0 - lam**m
    ball = element_ball(q_set, m)
    return BoostResult(m=m, kappa=kappa, kazhdan_set=ball)

