"""Finitely supported probability measures on group elements.

Covers admissibility certification: a measure rho is admissible with respect
to a set Q when its density splits as rho = (alpha + beta) / M with alpha a
probability density, beta >= 0 dominating every Q-translate of alpha, and
M = sum(alpha + beta) the normalizing factor.  For finite supports the
infimum of M over decompositions is attained by a small linear program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np
from scipy.optimize import linprog

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
    "reflect",
    "measure_to_json",
]

PROB_TOL = 1e-12


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

    @property
    def support(self) -> List[GroupElement]:
        return sorted(self.atoms, key=GroupElement.sort_key)

    @property
    def degree(self) -> int:
        return next(iter(self.atoms)).degree

    def weight(self, el: GroupElement) -> float:
        return self.atoms.get(el, 0.0)

    def __len__(self) -> int:
        return len(self.atoms)

    def items(self):
        return [(el, self.atoms[el]) for el in self.support]

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


def reflect(mu: DiscreteMeasure) -> DiscreteMeasure:
    """Pushforward of mu under inversion h -> h^-1."""
    return DiscreteMeasure({h.inverse(): w for h, w in mu.atoms.items()})


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
    """An (alpha, beta)-decomposition witnessing admissibility w.r.t. Q."""

    alpha: Dict[GroupElement, float]
    beta: Dict[GroupElement, float]
    kazhdan_set: FrozenSet[GroupElement]
    M: float
    optimal: bool = True

    def verify(self, measure: DiscreteMeasure, tol: float = 1e-9,
               repro_tol: float = 1e-12) -> None:
        """Re-check every certificate invariant; raises on violation.

        `tol` absorbs solver slack in the domination and bookkeeping checks;
        the atomwise reproduction of the measure is held to `repro_tol`.
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
            if abs(combined.get(el, 0.0) / self.M - measure.weight(el)) > repro_tol:
                raise ValueError("decomposition does not reproduce the measure")

    def to_json_dict(self) -> dict:
        def by_perm(part: Dict[GroupElement, float]) -> list:
            return [[el.key(), part[el]] for el in sorted(part, key=GroupElement.sort_key)]

        return {
            "M": self.M,
            "optimal": self.optimal,
            "alpha": by_perm(self.alpha),
            "beta": by_perm(self.beta),
            "kazhdan_set": sorted(el.key() for el in self.kazhdan_set),
        }


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
        optimal=False,
    )
    cert.verify(mu)
    return mu, cert


def certify_admissible(
    rho: DiscreteMeasure, Q: Iterable[GroupElement]
) -> AdmissibilityCertificate:
    """Optimal (alpha, beta)-decomposition of rho for Q, by linear program.

    Minimizes M = sum(alpha + beta) subject to alpha, beta >= 0,
    sum(alpha) = 1, beta >= s.alpha for every s in Q, and
    alpha + beta = M rho.  The optimum is the exact normalizing factor for
    this finite support.  Raises NotAdmissibleError with a support witness
    when no decomposition exists.
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
    allowed = []
    for j, el in enumerate(support):
        if all(s.compose(el) in index for s in q_set):
            allowed.append(j)
    if not allowed:
        raise NotAdmissibleError(
            "no admissible alpha: every support point has a Q-translate "
            "escaping supp(rho)",
            witness={
                "support": [el.key() for el in support],
                "escaping": {
                    support[j].key(): [
                        s.compose(support[j]).key()
                        for s in q_set
                        if s.compose(support[j]) not in index
                    ]
                    for j in range(n)
                },
            },
        )

    # variables z = (alpha_0 .. alpha_{n-1}, M); minimize M
    c = np.zeros(n + 1)
    c[n] = 1.0
    a_eq = np.zeros((1, n + 1))
    a_eq[0, :n] = 1.0
    b_eq = np.array([1.0])

    rows: List[np.ndarray] = []
    # beta_i = M rho_i - alpha_i >= 0
    for i in range(n):
        row = np.zeros(n + 1)
        row[i] = 1.0
        row[n] = -weights[i]
        rows.append(row)
    # beta_i >= alpha_j whenever x_i = s x_j for s in Q
    for s in q_set:
        for j, el in enumerate(support):
            moved = s.compose(el)
            i = index.get(moved)
            if i is None:
                continue
            row = np.zeros(n + 1)
            row[i] += 1.0
            row[j] += 1.0
            row[n] = -weights[i]
            rows.append(row)
    a_ub = np.vstack(rows)
    b_ub = np.zeros(len(rows))

    bounds = [(0.0, 1.0) if j in set(allowed) else (0.0, 0.0) for j in range(n)]
    bounds.append((0.0, None))
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                  method="highs")
    if not res.success:
        raise NotAdmissibleError(
            f"linear program infeasible: {res.message}",
            witness={"status": int(res.status)},
        )
    # project the solver's alpha to exact feasibility: normalize it, then take
    # the closed-form minimal M for that alpha, so beta = M rho - alpha is
    # nonnegative and dominating by construction (M moves by at most the
    # solver slack)
    alpha_vec = np.clip(res.x[:n], 0.0, None)
    alpha_vec /= alpha_vec.sum()
    translate_of: List[List[int]] = [[] for _ in range(n)]
    for s in q_set:
        for j, el in enumerate(support):
            i = index.get(s.compose(el))
            if i is not None:
                translate_of[i].append(j)
    need = np.array([
        alpha_vec[i] + max((alpha_vec[j] for j in translate_of[i]), default=0.0)
        for i in range(n)
    ])
    m_exact = float(np.max(need / weights))
    beta_vec = m_exact * weights - alpha_vec
    cert = AdmissibilityCertificate(
        alpha={support[i]: float(alpha_vec[i]) for i in range(n) if alpha_vec[i] > 0},
        beta={support[i]: float(beta_vec[i]) for i in range(n) if beta_vec[i] > 0},
        kazhdan_set=frozenset(q_set),
        M=m_exact,
        optimal=True,
    )
    cert.verify(rho, tol=1e-12)
    return cert


def measure_to_json(mu: DiscreteMeasure,
                    certificate: Optional[AdmissibilityCertificate] = None) -> dict:
    doc = {"atoms": [[el.key(), w] for el, w in mu.items()]}
    if certificate is not None:
        doc["certificate"] = certificate.to_json_dict()
    return doc
