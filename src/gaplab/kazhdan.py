"""Kazhdan constants and the quantitative conversions around them.

Ties together four quantities attached to a representation and a finite set
Q: the Kazhdan constant kappa (least maximal displacement of a unit
mean-zero field), the restricted norm lambda of an admissible averaging
operator, the normalizing factor M of the measure, and the summable decay
total S.  The conversion formulas are one-sided bounds; the oracle computes
kappa variationally and pairs the heuristic minimum with a rigorous
quadratic lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .group_core import GroupElement, element_ball
from .measures import AdmissibilityCertificate, DiscreteMeasure, uniform_on
from .rep_markov import (
    Decomposition,
    MarkovOperator,
    Representation,
    _lp_norm_and_grad,
    _symmetrized_top,
    require_dense,
)

__all__ = [
    "ModulusResult",
    "modulus",
    "KazhdanOracleResult",
    "kazhdan_constant_oracle",
    "norm_bound_from_kappa",
    "kappa_from_decay",
    "decay_certificate",
    "hilbert_improvement",
    "BoostResult",
    "boost_pair",
    "product_average_bound",
    "hecke_conversion",
    "KazhdanCertificate",
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


@dataclass
class KazhdanOracleResult:
    """Best displacement minimum found, with a rigorous companion bound.

    ``best`` is an upper bound on the true Kazhdan constant (it is the value
    at some concrete field); ``lower_bound`` is the p = 2 quadratic bound
    sqrt(2 (1 - lambda_sym)) and is None at other exponents.  When the
    eigen-starts end within ``tie_tol`` of a valid ``lower_bound``, ``best``
    comes from them alone (see ``kazhdan_constant_oracle``).
    """

    best: float
    lower_bound: Optional[float]
    minimizer: Optional[np.ndarray]
    p: float


def kazhdan_constant_oracle(rep: Representation, Q: Iterable[GroupElement],
                            seed: int = 0, n_starts: int = 64,
                            max_iter: int = 3000,
                            tie_tol: float = 1e-9) -> KazhdanOracleResult:
    """min over unit mean-zero fields of max_{s in Q} |v - pi_s v|.

    Multi-start projected subgradient descent with step halving; ties in the
    max are handled by averaging the active subgradients.  When the
    complement is trivial the constant is vacuously +inf.  The quadratic-form
    starts are dense n x n, so actions above DENSE_LIMIT points are refused.

    The starts are the three lowest eigen-directions of the quadratic form
    sum_s |v - pi_s v|^2, all of them, then ``n_starts`` seeded random fields.
    At p = 2 every start ends at or above kappa >= ``lower_bound``, so the
    random starts run only when the eigen-starts end more than ``tie_tol``
    above that bound; at other exponents they always run.  The exit leans on
    ``lower_bound`` being valid, which is still open: lambda_sym is a Lanczos
    Ritz value without a certified enclosure (ROADMAP item 2).
    """
    q_set = list(dict.fromkeys(Q))
    if not q_set:
        raise ValueError("empty Kazhdan set")
    require_dense(rep.n_points, "quadratic form")
    dec = Decomposition(rep)
    if dec.complement_dim() == 0:
        return KazhdanOracleResult(best=math.inf, lower_bound=math.inf,
                                   minimizer=None, p=rep.p)
    q_inv = np.stack([el.inverse().perm_array() for el in q_set])  # (|Q|, n)
    q_perm = [el.perm_array() for el in q_set]

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
        for _ in range(max_iter):
            active = np.flatnonzero(disps >= val - tie_tol)
            grad = np.zeros_like(v)
            for i in active:
                _, gu = _lp_norm_and_grad(rep, v - v[q_inv[i]])
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

    lower = None
    if rep.p == 2.0:
        lam_sym = _top_symmetric_eigenvalue(rep, q_set)
        lower = math.sqrt(max(0.0, 2.0 * (1.0 - lam_sym)))

    # the quadratic-form eigen-directions, all of them before the exit check
    starts: List[np.ndarray] = []
    quad = np.zeros((rep.n_points, rep.n_points))
    for inv in q_inv:
        m = np.eye(rep.n_points)
        m -= np.eye(rep.n_points)[inv]
        quad += m.T @ (rep.action.weights[:, None] * m)
    sym = (quad + quad.T) / 2.0
    vals, vecs = np.linalg.eigh(sym)
    for col in np.argsort(vals):
        cand = np.repeat(vecs[:, col][:, None], rep.d, axis=1)
        cand = dec.complement(cand)
        if float(np.max(np.abs(cand))) > 1e-8:  # skip the invariant kernel
            starts.append(cand)
            if len(starts) == 3:
                break

    best = math.inf
    best_v: Optional[np.ndarray] = None
    for v0 in starts:
        val, v = descend(v0)
        if val < best:
            best, best_v = val, v
    if lower is None or best > lower + tie_tol:
        for k in range(n_starts):
            srng = np.random.default_rng(seed + 1009 * (k + 1))
            val, v = descend(srng.standard_normal((rep.n_points, rep.d)))
            if val < best:
                best, best_v = val, v
    return KazhdanOracleResult(best=float(best), lower_bound=lower,
                               minimizer=best_v, p=rep.p)


def _top_symmetric_eigenvalue(rep: Representation, q_set: Sequence[GroupElement]) -> float:
    """Top signed eigenvalue, on the mean-zero complement, of the symmetrized
    uniform averaging operator over Q."""
    op = MarkovOperator(Representation(rep.action, p=2.0, d=1), uniform_on(q_set))
    return _symmetrized_top(op).value


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

    S = lam / (1 - lam) and kappa = 1 / (1 + S) = 1 - lam.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"decay rate must lie in (0, 1), got {lam}")
    s_total = lam / (1.0 - lam)
    return DecayConversion(kappa=1.0 / (1.0 + s_total), S_total=s_total)


def decay_certificate(mu: DiscreteMeasure, lam: float,
                      M: Optional[float] = None) -> "KazhdanCertificate":
    conv = kappa_from_decay(lam)
    return KazhdanCertificate(
        kazhdan_set=frozenset(mu.support),
        kappa=conv.kappa,
        lam=lam,
        M=M,
        S_bound=conv.S_total,
        provenance="paper-formula",
    )


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

    m = ceil(log eps / log lam) and the boosted constant is 1 - lam^m; the
    boosted set is the ball of radius m in Q u {e}, i.e. all products of at
    most m elements of Q.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"decay rate must lie in (0, 1), got {lam}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    q_set = list(dict.fromkeys(Q))
    if not q_set:
        raise ValueError("empty Kazhdan set")
    m = max(1, math.ceil(math.log(eps) / math.log(lam)))
    kappa = 1.0 - lam**m
    ball = element_ball(q_set, m)
    return BoostResult(m=m, kappa=kappa, kazhdan_set=ball)


def product_average_bound(certificates: Sequence[AdmissibilityCertificate],
                          kappa: float, p: float = 2.0,
                          variant: str = "a") -> float:
    """Norm bound for a product of averaging operators of uniform measures.

    Each factor contributes 1 - (2/M_n) delta_p(kappa_eff) with M_n the
    certified normalizing factor; the conjugated variant (b) only guarantees
    a third of the base Kazhdan constant, so kappa_eff = kappa / 3 there.
    """
    if variant not in ("a", "b"):
        raise ValueError(f"variant must be 'a' or 'b', got {variant!r}")
    kappa_eff = kappa if variant == "a" else kappa / 3.0
    kappa_eff = min(kappa_eff, 2.0)
    bound = 1.0
    for cert in certificates:
        bound *= 1.0 - (2.0 / cert.M) * modulus(p, kappa_eff).value
    return bound


def hecke_conversion(direction: str, *, m: int, zeta: Optional[float] = None,
                     kappa: Optional[float] = None) -> float:
    """Convert between Hecke spectral gaps and Kazhdan constants.

    "gap_to_pair": a Hecke operator on m symmetric pairs with gap zeta gives
    the Kazhdan constant sqrt(zeta / m).  "pair_to_gap": a Kazhdan pair with
    constant kappa gives a Hecke gap zeta = 2m - 2 + sqrt(4 - kappa^2).
    The two directions are one-sided estimates, not mutual inverses.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if direction == "gap_to_pair":
        if zeta is None or not 0.0 < zeta <= 2.0 * m:
            raise ValueError(f"zeta must lie in (0, 2m], got {zeta}")
        return math.sqrt(zeta / m)
    if direction == "pair_to_gap":
        if kappa is None or not 0.0 < kappa <= 2.0:
            raise ValueError(f"kappa must lie in (0, 2], got {kappa}")
        return 2.0 * m - 2.0 + math.sqrt(4.0 - kappa * kappa)
    raise ValueError(f"unknown direction {direction!r}")


@dataclass
class KazhdanCertificate:
    """Aggregate (Q, kappa) data with the measured norm and decay total."""

    kazhdan_set: FrozenSet[GroupElement]
    kappa: float
    lam: Optional[float] = None
    M: Optional[float] = None
    S_bound: Optional[float] = None
    provenance: str = "measured"

    def __post_init__(self) -> None:
        if not (0.0 <= self.kappa <= 2.0 or math.isinf(self.kappa)):
            raise ValueError(f"kappa out of [0, 2]: {self.kappa}")
        if self.lam is not None and not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda out of [0, 1]: {self.lam}")

    def to_json_dict(self) -> dict:
        return {
            "kazhdan_set": sorted(el.key() for el in self.kazhdan_set),
            "kappa": self.kappa,
            "lambda": self.lam,
            "M": self.M,
            "S_bound": self.S_bound,
            "provenance": self.provenance,
        }
