"""Finitely supported probability measures on group elements.

Covers admissibility certification: a measure rho is admissible with respect
to a set Q when its density splits as rho = (alpha + beta) / M with alpha a
probability density, beta >= 0 dominating every Q-translate of alpha, and
M = sum(alpha + beta) the normalizing factor.  For finite supports the
infimum of M over decompositions is 1 / max sum(y) of a packing LP in
y = alpha / M.  A small dense-tableau simplex solves it in floats; the
certificate carries M from the solver's alpha made exactly feasible, and a
lower bound M_lower from its dual point made exactly feasible and evaluated
in rationals, so [M_lower, M] brackets the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from .group_core import FiniteAction, GroupElement

__all__ = [
    "DiscreteMeasure",
    "AdmissibilityCertificate",
    "NotAdmissibleError",
    "uniform_extended",
    "certify_admissible",
    "convolve",
    "power",
    "dirac",
    "uniform_on",
    "lazy_uniform",
    "translate",
]

PROB_TOL = 1e-12
OPT_GAP = 1e-12  # M counts as optimal when M - M_lower <= OPT_GAP * M
SIMPLEX_TOL = 1e-12  # reduced costs and pivots at or below this count as zero
REPRO_TOL = 1e-12  # atomwise reproduction of the measure by (alpha + beta) / M


class DiscreteMeasure:
    """A finitely supported probability measure on realized group elements."""

    def __init__(self, atoms: Dict[GroupElement, float]) -> None:
        cleaned: Dict[GroupElement, float] = {}
        for el, w in atoms.items():
            w = float(w)
            if w < -PROB_TOL:
                raise ValueError(f"negative atom weight {w} at {el!r}")
            if w > 0.0:
                cleaned[el] = cleaned.get(el, 0.0) + w
        total = sum(cleaned.values())
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"atom weights sum to {total}, not 1")
        degrees = {el.degree for el in cleaned}
        if len(degrees) > 1:
            raise ValueError("atoms realized on different spaces")
        self.atoms = cleaned

    @cached_property
    def _order(self) -> Tuple[GroupElement, ...]:
        # sorted once: sort_key copies a whole permutation per atom, and
        # atoms is never written after __init__
        return tuple(sorted(self.atoms, key=GroupElement.sort_key))

    @property
    def support(self) -> List[GroupElement]:
        return list(self._order)

    @property
    def degree(self) -> int:
        return next(iter(self.atoms)).degree

    def weight(self, el: GroupElement) -> float:
        return self.atoms.get(el, 0.0)

    def __len__(self) -> int:
        return len(self.atoms)

    def items(self):
        return [(el, self.atoms[el]) for el in self._order]

    def __repr__(self) -> str:
        return f"DiscreteMeasure({len(self.atoms)} atoms)"


def dirac(el: GroupElement) -> DiscreteMeasure:
    return DiscreteMeasure({el: 1.0})


def uniform_on(elements: Iterable[GroupElement]) -> DiscreteMeasure:
    els = list(dict.fromkeys(elements))
    if not els:
        raise ValueError("uniform measure needs a nonempty support")
    return DiscreteMeasure({el: 1.0 / len(els) for el in els})


def lazy_uniform(action: FiniteAction) -> DiscreteMeasure:
    """Uniform measure on the identity and the generators of an action."""
    return uniform_on(
        [action.identity_element()]
        + [action.generator_element(lab) for lab in action.gens.labels]
    )


def translate(g: GroupElement, mu: DiscreteMeasure) -> DiscreteMeasure:
    """Pushforward of mu under left translation h -> g h."""
    return DiscreteMeasure({g.compose(h): w for h, w in mu.atoms.items()})


def convolve(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    """(mu * nu)(g) = sum_h mu(h) nu(h^-1 g), i.e. the law of a product h k."""
    if mu.degree != nu.degree:
        raise ValueError("cannot convolve measures over different realizations")
    out: Dict[GroupElement, float] = {}
    for h, wh in mu.atoms.items():
        for k, wk in nu.atoms.items():
            prod = h.compose(k)
            out[prod] = out.get(prod, 0.0) + wh * wk
    return DiscreteMeasure(out)


def power(mu: DiscreteMeasure, k: int) -> DiscreteMeasure:
    """k-fold convolution power; k = 0 gives the Dirac mass at the identity."""
    if k < 0:
        raise ValueError("power requires k >= 0")
    ident = GroupElement(np.arange(mu.degree), word_length=0, label="e")
    result = dirac(ident)
    base = mu
    while k:
        if k & 1:
            result = convolve(result, base)
        k >>= 1
        if k:
            base = convolve(base, base)
    return result


# -- admissibility -----------------------------------------------------------


class NotAdmissibleError(ValueError):
    """Raised when a measure admits no (alpha, beta)-decomposition for Q."""

    def __init__(self, message: str, witness: Optional[dict] = None) -> None:
        super().__init__(message)
        self.witness = witness or {}


@dataclass
class AdmissibilityCertificate:
    """An (alpha, beta)-decomposition witnessing admissibility w.r.t. Q.

    `M_lower` is a certified lower bound on the minimal M for the measure's
    support (None when no LP was solved); `optimal` claims
    M - M_lower <= OPT_GAP * M.
    """

    alpha: Dict[GroupElement, float]
    beta: Dict[GroupElement, float]
    kazhdan_set: FrozenSet[GroupElement]
    M: float
    optimal: bool = False
    M_lower: Optional[float] = None

    def verify(self, measure: DiscreteMeasure, tol: float = 1e-9) -> None:
        """Re-check every certificate invariant; raises on violation.

        `tol` absorbs solver slack in the domination and bookkeeping checks;
        the atomwise reproduction of the measure is held to `REPRO_TOL`.
        """
        if not self.kazhdan_set:
            raise ValueError("certificate has an empty Kazhdan set")
        if any(w < -tol for w in self.alpha.values()):
            raise ValueError("alpha has a negative value")
        if any(w < -tol for w in self.beta.values()):
            raise ValueError("beta has a negative value")
        if abs(sum(self.alpha.values()) - 1.0) > tol:
            raise ValueError("alpha does not sum to 1")
        if self.M < 2.0 - tol:
            raise ValueError(f"normalizing factor {self.M} below 2")
        if self.M_lower is not None and self.M_lower > self.M * (1.0 + tol):
            raise ValueError(f"lower bound {self.M_lower} above M = {self.M}")
        if self.optimal and (self.M_lower is None
                             or self.M - self.M_lower > OPT_GAP * self.M):
            raise ValueError(f"M = {self.M} claimed optimal but its lower "
                             f"bound is {self.M_lower}")
        total = sum(self.alpha.values()) + sum(self.beta.values())
        if abs(total - self.M) > tol:
            raise ValueError("M does not equal sum(alpha + beta)")
        combined: Dict[GroupElement, float] = dict(self.beta)
        for el, w in self.alpha.items():
            combined[el] = combined.get(el, 0.0) + w
        # translate-domination: beta(g) >= alpha(s^-1 g) for all s in Q
        for s in self.kazhdan_set:
            for el, w in self.alpha.items():
                if w <= tol:
                    continue
                moved = s.compose(el)
                if self.beta.get(moved, 0.0) < w - tol:
                    raise ValueError(
                        f"beta fails to dominate the {s!r}-translate of alpha"
                    )
        # reproduction: (alpha + beta) / M == measure atomwise
        keys = set(combined) | set(measure.atoms)
        for el in keys:
            if abs(combined.get(el, 0.0) / self.M - measure.weight(el)) > REPRO_TOL:
                raise ValueError("decomposition does not reproduce the measure")


def uniform_extended(
    Q: Iterable[GroupElement], g: GroupElement
) -> Tuple[DiscreteMeasure, AdmissibilityCertificate]:
    """Uniform measure on Qg u {g} with its canonical decomposition.

    alpha is the Dirac mass at g and beta the indicator of Qg, which gives
    M = #Q + 1.  Requires g not in Q and the identity not in Q: otherwise
    g lands inside Qg and the decomposition cannot reproduce the uniform
    weights.
    """
    q_set = list(dict.fromkeys(Q))
    if not q_set:
        raise ValueError("empty Kazhdan set")
    if any(g == s for s in q_set):
        raise ValueError("g must lie outside Q")
    translates = [s.compose(g) for s in q_set]
    if any(t == g for t in translates):
        raise ValueError("identity in Q puts g inside Qg; decomposition fails")
    support = list(dict.fromkeys(translates)) + [g]
    mu = uniform_on(support)
    alpha = {g: 1.0}
    beta = {t: 1.0 for t in dict.fromkeys(translates)}
    cert = AdmissibilityCertificate(
        alpha=alpha,
        beta=beta,
        kazhdan_set=frozenset(q_set),
        M=float(len(support)),
    )
    cert.verify(mu)
    return mu, cert


def _packing_simplex(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Maximize sum(y) subject to a y <= b and y >= 0, for a >= 0 and b > 0.

    Dense-tableau primal simplex in floats.  The origin is feasible, so it
    starts from the slack basis with no phase 1.  Bland's rule (Bland, Math.
    Oper. Res. 2, 1977) enters the lowest-indexed improving column and
    breaks ratio-test ties by the lowest basic index, so the tied ratios of
    symmetric supports cannot make it cycle.  Returns the primal point y and
    the dual point z >= 0 read off the slack reduced costs; at an optimum
    a^T z >= 1 holds up to rounding.
    """
    m, k = a.shape
    tab = np.hstack([a, np.eye(m), b[:, None]])
    cost = np.concatenate([np.ones(k), np.zeros(m)])  # reduced costs
    basis = np.arange(k, k + m)
    for _ in range(50 * (m + k)):
        improving = np.flatnonzero(cost > SIMPLEX_TOL)
        if improving.size == 0:
            break
        j = improving[0]
        rows = np.flatnonzero(tab[:, j] > SIMPLEX_TOL)
        if rows.size == 0:
            raise ValueError(f"packing LP unbounded in column {j}")
        ratios = tab[rows, -1] / tab[rows, j]
        ties = rows[ratios <= ratios.min() + SIMPLEX_TOL]
        r = ties[np.argmin(basis[ties])]
        tab[r] /= tab[r, j]
        col = tab[:, j].copy()
        col[r] = 0.0
        tab -= np.outer(col, tab[r])
        cost -= cost[j] * tab[r, :-1]
        basis[r] = j
    else:
        raise RuntimeError("simplex pivot limit reached")
    y = np.zeros(k)
    structural = basis < k
    y[basis[structural]] = np.clip(tab[structural, -1], 0.0, None)
    return y, np.clip(-cost[k:], 0.0, None)


def _dual_lower_bound(a: np.ndarray, b: np.ndarray, z: np.ndarray) -> float:
    """A float at or below 1 / b^T z', with z' = z / min(a^T z), in rationals.

    z' >= 0 and a^T z' >= 1 hold exactly, so by weak duality (Schrijver,
    *Theory of Linear and Integer Programming*, 1986) b^T z' >= max sum(y),
    and 1 / b^T z' bounds M = 1 / max sum(y) from below.
    """
    live = np.flatnonzero(z > 0.0)
    zq = [Fraction(float(z[r])) for r in live]
    cover = min(sum((Fraction(float(a[r, c])) * w for r, w in zip(live, zq) if a[r, c]),
                    Fraction(0))
                for c in range(a.shape[1]))
    if cover <= 0:
        raise ValueError("dual point covers no column of the packing LP")
    exact = cover / sum(Fraction(float(b[r])) * w for r, w in zip(live, zq))
    lower = float(exact)
    return math.nextafter(lower, 0.0) if Fraction(lower) > exact else lower


def certify_admissible(
    rho: DiscreteMeasure, Q: Iterable[GroupElement]
) -> AdmissibilityCertificate:
    """Optimal (alpha, beta)-decomposition of rho for Q, by linear program.

    Minimizes M = sum(alpha + beta) subject to alpha, beta >= 0,
    sum(alpha) = 1, beta >= s.alpha for every s in Q, and
    alpha + beta = M rho.  With y = alpha / M this is the packing LP
    max sum(y) subject to y_i <= rho_i and y_i + y_j <= rho_i whenever
    x_i = s x_j for s in Q (2 y_j <= rho_j when s fixes x_j), y >= 0 and
    y = 0 off the allowed points; then M = 1 / max sum(y).  Every variable
    is bounded by its own row, so the LP is bounded.  Raises
    NotAdmissibleError with a support witness when no decomposition exists.
    """
    q_set = list(dict.fromkeys(Q))
    if not q_set:
        raise ValueError("empty Kazhdan set")
    support = rho.support
    n = len(support)
    index = {el: i for i, el in enumerate(support)}
    weights = np.array([rho.atoms[el] for el in support])

    # alpha may only sit on points whose every Q-translate stays in supp(rho):
    # beta vanishes off the support, so alpha(s^-1 x) = 0 for x outside.
    translates = [[index.get(s.compose(el)) for s in q_set] for el in support]
    allowed = [j for j in range(n) if None not in translates[j]]
    if not allowed:
        raise NotAdmissibleError(
            "no admissible alpha: every support point has a Q-translate "
            "escaping supp(rho)",
            witness={
                "support": [el.key() for el in support],
                "escaping": {
                    support[j].key(): [
                        s.compose(support[j]).key()
                        for s, i in zip(q_set, translates[j])
                        if i is None
                    ]
                    for j in range(n)
                },
            },
        )

    # rows of the packing LP over the allowed columns: y_j <= rho_j, then
    # y_i + y_j <= rho_i for x_i = s x_j, s by s
    column = {j: c for c, j in enumerate(allowed)}
    k = len(allowed)
    a = np.tile(np.eye(k), (len(q_set) + 1, 1))
    b_rows = list(allowed)
    for t in range(len(q_set)):
        for c, j in enumerate(allowed):
            i = translates[j][t]
            if i in column:
                a[(t + 1) * k + c, column[i]] += 1.0
            b_rows.append(i)
    b = weights[b_rows]
    y, z = _packing_simplex(a, b)

    # project the solver's alpha to exact feasibility: normalize it, then take
    # the closed-form minimal M for that alpha, the largest row ratio
    # (a alpha) / b, so beta = M rho - alpha is nonnegative and dominating by
    # construction (M moves by at most the solver slack)
    alpha_vec = np.zeros(n)
    alpha_vec[allowed] = y / y.sum()
    m_exact = float(np.max(a @ alpha_vec[allowed] / b))
    m_lower = _dual_lower_bound(a, b, z)
    beta_vec = m_exact * weights - alpha_vec
    cert = AdmissibilityCertificate(
        alpha={support[i]: float(alpha_vec[i]) for i in range(n) if alpha_vec[i] > 0},
        beta={support[i]: float(beta_vec[i]) for i in range(n) if beta_vec[i] > 0},
        kazhdan_set=frozenset(q_set),
        M=m_exact,
        optimal=m_exact - m_lower <= OPT_GAP * m_exact,
        M_lower=m_lower,
    )
    cert.verify(rho, tol=1e-12)
    return cert

