"""Poincare constants of quotient graphs and uniform-gap certification.

The scalar Poincare constant of a connected graph with generator labels Q is
1 / (2 |Q| (1 - lambda_2)), where lambda_2 is the top eigenvalue of the
symmetrized uniform neighbor-averaging operator on mean-zero functions.  On
SL2(Z/p) acting on itself, p prime, the operator commutes with right
translations by the unipotent subgroup U, so it splits into induced blocks of
p^2 - 1 points, and only three of those are distinct up to unitary
equivalence: lambda_2 is the largest top eigenvalue among them, and the
winning block's eigenvector is lifted back to the group.  Every other graph
goes to the spectral kernel of ``rep_markov`` on the whole space.  Either way
small problems go to dense eigh and larger ones to Lanczos.  Edge sums run
over ordered pairs (v, s v), one per label, which is the convention that
makes this relation exact.  Vector-valued constants are bounded from below
by ratio ascent; a sequence of quotients is certified uniform when the
per-quotient gaps stay bounded away from 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import block_diag, bmat

from .group_core import (
    CayleyGraph,
    FiniteAction,
    GroupElement,
    sl2_coset_coordinates,
    sl2_induced_block,
    word_ball,
)
from .measures import DiscreteMeasure
from .rep_markov import MarkovOperator, Representation, _euclidean_top, _symmetrized_top

__all__ = [
    "ScalarPoincare",
    "poincare_scalar",
    "poincare_ratio",
    "poincare_vector_lower",
    "MirhoBound",
    "mirho_upper_bound",
    "QuotientSequence",
    "QuotientRow",
    "PoincareReport",
    "certify_sequence",
]

UNIFORM_SLOPE_THRESHOLD = 0.5


@dataclass
class ScalarPoincare:
    kappa: float
    lambda2: Optional[float]
    connected: bool
    n_vertices: int
    n_labels: int
    eigenvector: Optional[np.ndarray] = None


def _is_prime(m: int) -> bool:
    return m >= 2 and all(m % q for q in range(2, math.isqrt(m) + 1))


def _character_classes(p: int) -> List[int]:
    """One a per class of blocks: a and a c^2 give unitarily equivalent ones
    (conjugation by diag(c, 1 / c)), so 0, 1 and, for odd p, the least
    non-square."""
    squares = {x * x % p for x in range(1, p)}
    return [0, 1] + [a for a in range(2, p) if a not in squares][:1]


def _induced_eigensolve(action: FiniteAction, weights: Dict[str, float]
                        ) -> Tuple[float, np.ndarray]:
    """lambda_2 of SL2(Z/p), p prime: the top eigenvalue of the direct sum of
    the induced blocks, one per character class, which is the largest of
    their top eigenvalues.  The eigenvector is lifted to G blockwise by
    f(sigma(v) u_t) = chi_a(t) F(v)."""
    p = action.sl2_modulus
    classes = _character_classes(p)
    blocks = [sl2_induced_block(p, a, weights) for a in classes]
    n = p * p - 1
    # Block 0 is real.  A complex block X + iY enters as [[X, -Y], [Y, X]],
    # which has each of its eigenvalues twice and (Re F, Im F) for an
    # eigenvector F.  One real Lanczos solve on the sum takes about 2/3 of
    # the time of one solve per block.
    total = block_diag([blocks[0]] + [bmat([[b.real, -b.imag], [b.imag, b.real]])
                                      for b in blocks[1:]], format="csr")

    def matvec(x: np.ndarray) -> np.ndarray:
        # M - 2P, P the projector on block 0's constants
        y = total @ x
        y[:n] -= (2.0 / n) * x[:n].sum(axis=0)
        return y

    values, vectors, _residuals = _euclidean_top(matvec, total.shape[0])
    value, x = float(values[0]), vectors[:, 0]
    points = np.fromiter(chain.from_iterable(action.points), dtype=np.int64,
                         count=4 * action.n_points).reshape(-1, 4)
    v, t = sl2_coset_coordinates(points, p)
    lifted = x[v].astype(complex)  # chi_0 = 1
    for j, a in enumerate(classes[1:]):
        re, im = np.split(x[(2 * j + 1) * n:(2 * j + 3) * n], 2)
        lifted += np.exp(2j * np.pi * ((a * t) % p) / p) * (re + 1j * im)[v]
    # A is real, so the real and the imaginary part of the lift are both
    # eigenvectors unless zero, and the larger one is not
    real, imag = lifted.real, lifted.imag
    part = real if np.linalg.norm(real) >= np.linalg.norm(imag) else imag
    return value, part - part.mean()


def _averaging_eigensolve(graph: CayleyGraph) -> Tuple[float, np.ndarray]:
    """Top mean-zero eigenvalue (and eigenvector) of the symmetrized
    neighbor-averaging operator.

    An action that carries a prime ``sl2_modulus`` p is SL2(Z/p) acting on
    itself.  There the operator splits into the induced blocks of
    ``group_core.sl2_induced_block``, p^2 - 1 points each, and lambda_2 is
    the largest top eigenvalue of the three distinct ones; the full operator
    is never built.  Every other action, composite moduli included, goes to
    the spectral kernel on the whole space.
    """
    action = graph.action
    # mass 1 / |Q| per label; labels acting by the same permutation add up
    if action.sl2_modulus is not None and _is_prime(action.sl2_modulus):
        weights: Dict[str, float] = {}
        for lab in graph.labels:
            weights[lab] = weights.get(lab, 0.0) + 1.0 / len(graph.labels)
        return _induced_eigensolve(action, weights)
    atoms: Dict[GroupElement, float] = {}
    for lab in graph.labels:
        el = action.generator_element(lab)
        atoms[el] = atoms.get(el, 0.0) + 1.0 / len(graph.labels)
    op = MarkovOperator(Representation(action), DiscreteMeasure(atoms))
    top = _symmetrized_top(op)
    vec = top.vector[:, 0]
    return top.value, vec - vec.mean()


def poincare_scalar(graph: CayleyGraph) -> ScalarPoincare:
    """Optimal scalar Poincare constant 1 / (2 |Q| (1 - lambda_2)).

    Disconnected graphs get an infinite constant (flagged, not raised); a
    single vertex has an empty mean-zero space and constant 0.
    """
    n = graph.n_vertices
    n_labels = len(graph.labels)
    connected = graph.is_connected()
    if n == 1:
        return ScalarPoincare(0.0, None, True, 1, n_labels)
    if not connected:
        return ScalarPoincare(math.inf, 1.0, False, n, n_labels)
    lam2, vec = _averaging_eigensolve(graph)
    kappa = 1.0 / (2.0 * n_labels * (1.0 - lam2))
    return ScalarPoincare(kappa, lam2, True, n, n_labels, eigenvector=vec)


def _fiber_sq_norms(f: np.ndarray, p: float) -> np.ndarray:
    return np.sum(np.abs(f) ** p, axis=1) ** (2.0 / p)


def poincare_ratio(graph: CayleyGraph, f: np.ndarray, p: float = 2.0) -> float:
    """sum_v |f(v) - Mf|_E^2 over the ordered edge sum of |f(v) - f(sv)|_E^2."""
    f = np.asarray(f, dtype=float)
    if f.ndim == 1:
        f = f[:, None]
    centered = f - f.mean(axis=0, keepdims=True)
    numerator = float(np.sum(_fiber_sq_norms(centered, p)))
    denom = 0.0
    for lab in graph.labels:
        diff = f - f[graph.edge_targets[lab]]
        denom += float(np.sum(_fiber_sq_norms(diff, p)))
    if denom == 0.0:
        return 0.0 if numerator == 0.0 else math.inf
    return numerator / denom


def poincare_vector_lower(graph: CayleyGraph, p: float, d: int, budget: int,
                          seed: int = 0) -> float:
    """Certified lower bound on the E-valued Poincare constant.

    Maximizes the Poincare ratio over R^d-valued mean-zero functions by
    multi-start projected gradient ascent, spending at most `budget` ratio
    evaluations.  The scalar eigenvector (embedded in the first coordinate)
    is always one of the starts, so at p = 2 the scalar optimum is attained.
    """
    return _vector_lower(graph, poincare_scalar(graph), p, d, budget, seed)


def _vector_lower(graph: CayleyGraph, scalar: ScalarPoincare, p: float, d: int,
                  budget: int, seed: int) -> float:
    """``poincare_vector_lower`` from the graph's scalar solve ``scalar``."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    if d < 1:
        raise ValueError("fiber dimension must be >= 1")
    if graph.n_vertices == 1:
        return 0.0
    evals = 0
    best = 0.0

    def ascend(f0: np.ndarray) -> float:
        nonlocal evals
        f = f0 - f0.mean(axis=0, keepdims=True)
        scale = np.max(np.abs(f))
        if scale == 0.0:
            return 0.0
        f = f / scale
        ratio = poincare_ratio(graph, f, p)
        evals += 1
        step = 0.5
        while evals < budget:
            grad = _ratio_gradient(graph, f, p)
            gmax = float(np.max(np.abs(grad)))
            if gmax < 1e-14:
                break
            moved = False
            while step > 1e-13 and evals < budget:
                cand = f + step * grad / gmax
                cand -= cand.mean(axis=0, keepdims=True)
                cand /= max(np.max(np.abs(cand)), 1e-300)
                r = poincare_ratio(graph, cand, p)
                evals += 1
                if r > ratio + 1e-16:
                    f, ratio = cand, r
                    step *= 1.6
                    moved = True
                    break
                step *= 0.5
            if not moved:
                break
        return ratio

    starts: List[np.ndarray] = []
    if scalar.eigenvector is not None:
        emb = np.zeros((graph.n_vertices, d))
        emb[:, 0] = scalar.eigenvector
        starts.append(emb)
    rng = np.random.default_rng(seed)
    n_random = 4 if graph.n_vertices > 256 else 8
    for _ in range(n_random):
        starts.append(rng.standard_normal((graph.n_vertices, d)))
    for f0 in starts:
        if evals >= budget:
            break
        best = max(best, ascend(f0))
    return best


def _ratio_gradient(graph: CayleyGraph, f: np.ndarray, p: float) -> np.ndarray:
    centered = f - f.mean(axis=0, keepdims=True)
    sq = _fiber_sq_norms(centered, p)
    numerator = float(np.sum(sq))

    def sq_grad(g: np.ndarray) -> np.ndarray:
        # gradient of |g|_p^2 per vertex
        norms = np.sum(np.abs(g) ** p, axis=1) ** (1.0 / p)
        norms = np.maximum(norms, 1e-300)
        return 2.0 * norms[:, None] ** (2.0 - p) * np.abs(g) ** (p - 1.0) * np.sign(g)

    gn = sq_grad(centered)
    grad_num = gn - gn.mean(axis=0, keepdims=True)
    denom = 0.0
    grad_den = np.zeros_like(f)
    for lab in graph.labels:
        tgt = graph.edge_targets[lab]
        diff = f - f[tgt]
        denom += float(np.sum(_fiber_sq_norms(diff, p)))
        gd = sq_grad(diff)
        grad_den += gd
        np.subtract.at(grad_den, tgt, gd)
    if denom == 0.0 or numerator == 0.0:
        return np.zeros_like(f)
    return grad_num / numerator - grad_den / denom


@dataclass
class MirhoBound:
    bound: float
    paper_form: float
    k: int
    defect: float
    ball_size: int


def mirho_upper_bound(graph: CayleyGraph, k: int, defect: float) -> MirhoBound:
    """Poincare upper bound from a power with uniform defect <= 1/2.

    When |pi(rho^k) - M| <= 1/2, centered functions obey
    |f - Mf| <= 2 |f - pi(rho^k) f|; expanding the right side over words of
    length <= k (triangle inequality, Jensen over the word distribution,
    then Cauchy-Schwarz along each word) bounds the Poincare constant by
    4 k^2.  The cruder #B(e,k)^3 k^3 form is reported for comparison.
    """
    if k < 1:
        raise ValueError("power k must be >= 1")
    if defect > 0.5:
        raise ValueError(f"defect {defect} exceeds 1/2: hypothesis fails")
    ball_size = len(word_ball(graph.action, k, labels=graph.labels))
    return MirhoBound(
        bound=4.0 * k * k,
        paper_form=float(ball_size**3 * k**3),
        k=k,
        defect=defect,
        ball_size=ball_size,
    )


# -- sequences ---------------------------------------------------------------


class QuotientSequence:
    """Finite-quotient actions sharing one generator label set."""

    def __init__(self, actions: Sequence[FiniteAction]) -> None:
        if not actions:
            raise ValueError("empty quotient sequence")
        labels = actions[0].gens.labels
        for act in actions[1:]:
            if act.gens.labels != labels:
                raise ValueError("quotients must share generator labels")
        self.actions = list(actions)
        self.labels = labels

    def graphs(self) -> List[CayleyGraph]:
        return [CayleyGraph(act) for act in self.actions]


@dataclass
class QuotientRow:
    name: str
    n_vertices: int
    lambda2: Optional[float]
    kappa_p: float
    relation_residual: float
    connected: bool
    vector_lower: Optional[float] = None


@dataclass
class PoincareReport:
    rows: List[QuotientRow]
    epsilon0: Optional[float]
    uniform: bool
    growth_slope: float
    p: float
    d: int

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "d": self.d,
            "uniform": self.uniform,
            "epsilon0": self.epsilon0,
            "growth_slope": self.growth_slope,
            "quotients": [
                {
                    "name": r.name,
                    "n": r.n_vertices,
                    "lambda2": r.lambda2,
                    "kappa_p": r.kappa_p,
                    "relation_residual": r.relation_residual,
                    "connected": r.connected,
                    "vector_lower": r.vector_lower,
                }
                for r in self.rows
            ],
        }


def certify_sequence(seq: QuotientSequence, p: float = 2.0, d: int = 1,
                     vector_budget: int = 0, seed: int = 0) -> PoincareReport:
    """Per-quotient gaps and Poincare constants, with a uniformity verdict.

    Uniform gap and uniform Poincare constant are equivalent through the
    exact scalar relation, checked per quotient as a residual.  The verdict
    regresses log kappa_P against log N: genuinely uniform families stay
    flat, while e.g. cycles grow like N^2.  Disconnected members are flagged
    and force a non-uniform verdict.
    """
    if len(seq.actions) < 2:
        raise ValueError("need at least two quotients to certify a sequence")
    rows: List[QuotientRow] = []
    for act in seq.actions:
        graph = CayleyGraph(act)
        scal = poincare_scalar(graph)
        residual = math.nan
        if scal.connected and scal.eigenvector is not None:
            # the ratio at the gap eigenvector recomputes kappa_P through the
            # quadratic forms, independently of the eigenvalue arithmetic
            ratio = poincare_ratio(graph, scal.eigenvector, p=2.0)
            residual = abs(ratio * 2.0 * scal.n_labels * (1.0 - scal.lambda2) - 1.0)
        vec_lower = None
        if vector_budget > 0:
            vec_lower = _vector_lower(graph, scal, p, d, vector_budget, seed)
        rows.append(
            QuotientRow(
                name=act.name,
                n_vertices=act.n_points,
                lambda2=scal.lambda2,
                kappa_p=scal.kappa,
                relation_residual=residual,
                connected=scal.connected,
                vector_lower=vec_lower,
            )
        )
    connected_rows = [r for r in rows if r.connected and r.lambda2 is not None]
    all_connected = all(r.connected for r in rows)
    epsilon0 = None
    if connected_rows:
        epsilon0 = 1.0 - max(r.lambda2 for r in connected_rows)
    slope = _log_growth_slope(rows)
    uniform = all_connected and epsilon0 is not None and epsilon0 > 0 and (
        slope < UNIFORM_SLOPE_THRESHOLD
    )
    return PoincareReport(rows=rows, epsilon0=epsilon0, uniform=uniform,
                          growth_slope=slope, p=p, d=d)


def _log_growth_slope(rows: Sequence[QuotientRow]) -> float:
    pts = [
        (math.log(r.n_vertices), math.log(r.kappa_p))
        for r in rows
        if r.connected and math.isfinite(r.kappa_p) and r.kappa_p > 0
    ]
    if len(pts) < 2:
        return math.inf if any(not r.connected for r in rows) else 0.0
    xs = np.array([x for x, _ in pts])
    ys = np.array([y for _, y in pts])
    var = float(np.var(xs))
    if var == 0.0:
        return 0.0
    return float(np.cov(xs, ys, bias=True)[0, 1] / var)
