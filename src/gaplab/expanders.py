"""Poincare constants of quotient graphs and uniform-gap certification.

The scalar Poincare constant of a connected graph with generator labels Q is
1 / (2 |Q| (1 - lambda_2)), where lambda_2 is the top eigenvalue of the
symmetrized uniform neighbor-averaging operator on mean-zero functions.
``poincare_scalar`` takes it from the spectral kernel of ``rep_markov`` on
the whole space, for every action.  On SL2(Z/p) acting on itself, p prime,
the operator commutes with right translations by the unipotent subgroup U,
so it splits into induced blocks of p^2 - 1 points, and lambda_2 is the
largest top eigenvalue of block 1 and, for p = 1 mod 4, of the block of the
least non-square.  A sequence member given as an ``Sl2Quotient`` of
prime modulus is certified from those blocks alone: connectivity from the
pattern of block 0 (the linear action on the nonzero vectors of F_p^2), the
relation residual from the twisted Dirichlet form of the blocks'
eigenvector, and the group itself is built only when a vector bound needs
it, to lift that eigenvector back onto the group's points.  Either way small
problems go to dense eigh and larger ones to Lanczos.  Edge sums run over
ordered pairs (v, s v), one per label, which is the convention that makes
this relation exact.  Vector-valued constants are bounded from below by
ratio ascent; a sequence of quotients is certified uniform when the
per-quotient gaps stay bounded away from 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .group_core import (
    SL2_GENERATOR_MATRICES,
    CayleyGraph,
    FiniteAction,
    FixedDegreeMatrix,
    GroupElement,
    _components,
    _sl2_order,
    _sl2_section,
    build_sl2_quotient,
    sl2_coset_coordinates,
    sl2_induced_blocks,
)
from .measures import DiscreteMeasure
from .rep_markov import (LANCZOS_BASIS, MarkovOperator, Representation, _euclidean_top,
                         _symmetrized_top)

__all__ = [
    "ScalarPoincare",
    "poincare_scalar",
    "poincare_ratio",
    "poincare_vector_lower",
    "QuotientSequence",
    "Sl2Quotient",
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
    """Whether m is prime, by Miller-Rabin with the prime bases up to 41, exact
    below 3.3e24 (Sorenson and Webster, Math. Comp. 86, 2017)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if m < 2 or any(m % q == 0 for q in bases):
        return m in bases
    s = ((m - 1) & (1 - m)).bit_length() - 1  # m - 1 = 2^s d, d odd
    return all(x == 1 or any(pow(x, 2 ** r, m) == m - 1 for r in range(s))
               for x in (pow(a, (m - 1) >> s, m) for a in bases))


def _character_classes(p: int) -> List[int]:
    """The a whose blocks carry lambda_2: [1], and the least non-square n0
    too when p = 1 mod 4.

    A nontrivial irreducible pi of G = SL2(F_p) is not trivial on U, whose
    conjugates generate G, so pi|U holds some chi_a, a != 0.  Conjugation
    by diag(c, 1 / c) moves chi_a to chi_{a c^2}, one of chi_1 and
    chi_{n0}, and by Frobenius reciprocity pi lies in Ind chi_1 or
    Ind chi_{n0}: block 0 adds nothing but the constants' eigenvalue 1.
    When -1 is a non-square (p = 2 or p = 3 mod 4), block n0 is equivalent
    to block -1, the entrywise conjugate of block 1, which has its
    spectrum."""
    if p % 4 != 1:
        return [1]
    return [1, next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)]


def _label_weights(labels: Sequence[str]) -> Dict[str, float]:
    """Mass 1 / |Q| per label of Q; a repeated label adds up."""
    weights: Dict[str, float] = {}
    for lab in labels:
        weights[lab] = weights.get(lab, 0.0) + 1.0 / len(labels)
    return weights


def _block_solve(p: int, weights: Dict[str, float]) -> Tuple[float, np.ndarray, List[int]]:
    """lambda_2 of SL2(Z/p), p prime: the top eigenvalue of the direct sum of
    the blocks of ``_character_classes``, which is the largest of their top
    eigenvalues.  Returns it with its unit eigenvector x on the direct sum
    and the classes a: each block's F as n = p^2 - 1 (Re F(v), Im F(v))
    pairs, so that x viewed as complex numbers is their F, one after the
    other."""
    classes = _character_classes(p)
    total = _direct_sum(sl2_induced_blocks(p, classes, weights))

    def matvec(x: np.ndarray) -> np.ndarray:
        # a complex block X + iY acts on the pairs (Re F, Im F) as
        # [[X, -Y], [Y, X]], which has each of its eigenvalues twice and
        # (Re F, Im F) for an eigenvector F.  No block holds an invariant
        # vector, so lambda_2 is the top of the sum, with no shift.
        return (total @ np.ascontiguousarray(x).view(complex)).view(float)

    values, vectors, _residuals = _euclidean_top(matvec, 2 * total.n)
    return float(values[0]), vectors[:, 0], classes


def _direct_sum(blocks: List[FixedDegreeMatrix]) -> FixedDegreeMatrix:
    """Blocks of one degree on the diagonal of one matrix."""
    n = blocks[0].n
    return FixedDegreeMatrix(np.concatenate([b.cols + j * n for j, b in enumerate(blocks)], axis=1),
                             np.concatenate([b.vals for b in blocks], axis=1))


def _block_fields(x: np.ndarray, classes: List[int]) -> List[np.ndarray]:
    """The direct-sum vector x of ``_block_solve`` as one complex F per class."""
    return np.split(np.ascontiguousarray(x).view(complex), len(classes))


def _lift(action: FiniteAction, p: int, x: np.ndarray, classes: List[int]) -> np.ndarray:
    """The field on G = SL2(Z/p), p prime, acting on itself (``action``, its
    points the matrices (a, b, c, d)) of the direct-sum vector x, summed
    over the classes by f(sigma(v) u_t) = chi_a(t) F(v): its real or
    imaginary part, centred."""
    v, t = sl2_coset_coordinates(action.points, p)
    lifted = sum(np.exp(2j * np.pi * ((a * t) % p) / p) * field[v]
                 for a, field in zip(classes, _block_fields(x, classes)))
    # A is real, so the real and the imaginary part of the lift are both
    # eigenvectors unless zero, and the larger one is not
    real, imag = lifted.real, lifted.imag
    part = real if np.linalg.norm(real) >= np.linalg.norm(imag) else imag
    return part - part.mean()


def _block_translates(p: int, labels: Sequence[str]) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per label s, for each nonzero vector v (numbered as in the blocks): the
    number of s^-1 v and the t of s^-1 sigma(v) = sigma(s^-1 v) u_t."""
    codes = np.arange(1, p * p, dtype=np.int64)
    sections = _sl2_section(np.stack(np.divmod(codes, p), axis=-1), p).reshape(-1, 2, 2)
    out = []
    for lab in labels:
        a, b, c, d = SL2_GENERATOR_MATRICES[lab]
        inverse = np.array([[d, -b], [-c, a]]) % p
        out.append(sl2_coset_coordinates((inverse @ sections % p).reshape(-1, 4), p))
    return out


def _blocks_connected(p: int, labels: Sequence[str],
                      translates: List[Tuple[np.ndarray, np.ndarray]]) -> bool:
    """Whether the Cayley graph of SL2(Z/p) with generators ``labels`` is
    connected, exactly, from block 0 alone.

    Block 0 is G acting on G/U, the nonzero vectors of F_p^2.  If its pattern
    has one component, the generated subgroup H acts transitively on G/U; if
    some label is a nontrivial u_t, H contains U, which has prime order.  Then
    |H| >= (p^2 - 1) p = |G|.  Conversely a disconnected pattern leaves H off
    some coset, and labels with no u_t among them lie in the lower unipotent
    subgroup, which fixes e_2, so their pattern is disconnected: the test is
    exact.
    """
    unipotent = any(a % p == 1 and c % p == 0 and d % p == 1 and b % p
                    for a, b, c, d in (SL2_GENERATOR_MATRICES[lab] for lab in labels))
    return unipotent and _components(p * p - 1, [col for col, _t in translates])[0] == 1


def _twisted_ratio(p: int, x: np.ndarray, classes: List[int],
                   translates: List[Tuple[np.ndarray, np.ndarray]]) -> float:
    """The Poincare ratio of the direct-sum vector x: sum |F|^2 over the
    twisted Dirichlet form sum_s sum_v |F(v) - chi_a(t(s, v)) F(s^-1 v)|^2
    of every block.  This is ``poincare_ratio`` of the field that x lifts
    to on G, whose sums are p times these; a nontrivial chi_a makes that
    field mean-zero."""
    fields = _block_fields(x, classes)
    numerator = float(sum(np.vdot(f, f).real for f in fields))
    roots = np.exp(2j * np.pi * np.arange(p) / p)
    denom = 0.0
    for col, t in translates:
        for a, field in zip(classes, fields):
            diff = field - roots[(a * t) % p] * field[col]
            denom += float(np.vdot(diff, diff).real)
    return numerator / denom


def _averaging_eigensolve(graph: CayleyGraph) -> Tuple[float, np.ndarray]:
    """Top mean-zero eigenvalue (and eigenvector) of the symmetrized
    neighbor-averaging operator, from the spectral kernel on the whole space."""
    action = graph.action
    # mass 1 / |Q| per label; labels acting by the same permutation add up
    atoms: Dict[GroupElement, float] = {}
    for lab in graph.labels:
        el = action.generator_element(lab)
        atoms[el] = atoms.get(el, 0.0) + 1.0 / len(graph.labels)
    op = MarkovOperator(Representation(action), DiscreteMeasure(atoms))
    top = _symmetrized_top(op)
    return top.value, top.vector - top.vector.mean()


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


def poincare_vector_lower(graph: CayleyGraph, scalar: ScalarPoincare, p: float, d: int,
                          budget: int, seed: int) -> float:
    """Certified lower bound on the E-valued Poincare constant.

    Maximizes the Poincare ratio over R^d-valued mean-zero functions by
    multi-start projected gradient ascent, spending at most `budget` ratio
    evaluations.  The eigenvector of ``scalar``, the graph's scalar solve, is
    always a start (in the first coordinate): at p = 2 it attains the optimum.
    """
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


# -- sequences ---------------------------------------------------------------

# The largest group order a sequence member or an "sl2" variant "a" fixture is
# built at (``gaplab run`` refuses larger ones as config errors).  On a 2-vCPU
# machine the expander run on [5, 61] with a vector bound takes 2.1 s at a
# 151 MB peak, and on [5, 64] (196,608 elements, the full-graph kernel) 5.1 s at
# 208 MB; the built route on SL2(Z/101), 1,030,200 elements, took 432 MB.
# Every modulus up to 64 is below it.
SL2_GROUP_LIMIT = 250_000


@dataclass(frozen=True)
class Sl2Quotient:
    """SL2(Z/m) acting on itself, with generators ``labels``, as a sequence
    member that is not built up front.

    ``certify_sequence`` certifies a prime m from its induced blocks alone and
    never builds the group, unless a vector bound asks for the full graph
    (``needs_group``).  It builds every other member when that member's row
    is computed, so one built quotient is alive at a time.
    """

    m: int
    labels: Tuple[str, ...] = tuple(SL2_GENERATOR_MATRICES)

    @property
    def name(self) -> str:
        return f"SL2(Z/{self.m})"

    @property
    def n_points(self) -> int:
        return _sl2_order(self.m)

    def needs_group(self, vector_budget: int) -> bool:
        return vector_budget > 0 or not _is_prime(self.m)

    def block_basis_bytes(self) -> int:
        """Bytes of the Lanczos basis of a prime m's block solve."""
        return (LANCZOS_BASIS + 1) * 2 * len(_character_classes(self.m)) * (self.m ** 2 - 1) * 8


def _member_labels(member) -> Tuple[str, ...]:
    return member.labels if isinstance(member, Sl2Quotient) else member.gens.labels


class QuotientSequence:
    """Finite quotients sharing one generator label set: ``FiniteAction``s,
    or ``Sl2Quotient``s built only when their certificate needs the group."""

    def __init__(self, members: Sequence[Union[FiniteAction, Sl2Quotient]]) -> None:
        if not members:
            raise ValueError("empty quotient sequence")
        labels = _member_labels(members[0])
        for member in members[1:]:
            if _member_labels(member) != labels:
                raise ValueError("quotients must share generator labels")
        self.members = list(members)
        self.labels = labels


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


def _relation_residual(ratio: float, n_labels: int, lambda2: float) -> float:
    """|ratio / kappa_P - 1|: the Poincare ratio at the gap eigenvector
    recomputes kappa_P through the quadratic forms, independently of the
    eigenvalue arithmetic."""
    return abs(ratio * 2.0 * n_labels * (1.0 - lambda2) - 1.0)


def _block_row(p: int, labels: Sequence[str]
               ) -> Tuple[QuotientRow, Optional[Tuple[float, np.ndarray, List[int]]]]:
    """The row of SL2(Z/p), p prime, with generators ``labels``, from its
    induced blocks alone, and the block solve (None if disconnected)."""
    name, n = f"SL2(Z/{p})", _sl2_order(p)
    translates = _block_translates(p, labels)
    if not _blocks_connected(p, labels, translates):
        return QuotientRow(name, n, 1.0, math.inf, math.nan, False), None
    solve = value, x, classes = _block_solve(p, _label_weights(labels))
    residual = _relation_residual(_twisted_ratio(p, x, classes, translates), len(labels), value)
    kappa = 1.0 / (2.0 * len(labels) * (1.0 - value))
    return QuotientRow(name, n, value, kappa, residual, True), solve


def _member_row(member: Union[FiniteAction, Sl2Quotient], p: float, d: int,
                vector_budget: int, seed: int) -> QuotientRow:
    if isinstance(member, Sl2Quotient):
        if not member.needs_group(vector_budget):
            return _block_row(member.m, member.labels)[0]
        graph = CayleyGraph(build_sl2_quotient(member.m, "a"), member.labels)
        if _is_prime(member.m):
            # the blocks give the row; the full graph serves the vector ascent
            row, solve = _block_row(member.m, member.labels)
            scal = ScalarPoincare(row.kappa_p, row.lambda2, row.connected,
                                  row.n_vertices, len(member.labels))
            if solve is not None:
                scal.eigenvector = _lift(graph.action, member.m, solve[1], solve[2])
            row.vector_lower = poincare_vector_lower(graph, scal, p, d, vector_budget, seed)
            return row
    else:
        graph = CayleyGraph(member)
    act = graph.action
    scal = poincare_scalar(graph)
    residual = math.nan
    if scal.connected and scal.eigenvector is not None:
        ratio = poincare_ratio(graph, scal.eigenvector, p=2.0)
        residual = _relation_residual(ratio, scal.n_labels, scal.lambda2)
    vec_lower = (poincare_vector_lower(graph, scal, p, d, vector_budget, seed)
                 if vector_budget > 0 else None)
    return QuotientRow(name=act.name, n_vertices=act.n_points, lambda2=scal.lambda2,
                       kappa_p=scal.kappa, relation_residual=residual,
                       connected=scal.connected, vector_lower=vec_lower)


def certify_sequence(seq: QuotientSequence, p: float = 2.0, d: int = 1,
                     vector_budget: int = 0, seed: int = 0) -> PoincareReport:
    """Per-quotient gaps and Poincare constants, with a uniformity verdict.

    Uniform gap and uniform Poincare constant are equivalent through the
    exact scalar relation, checked per quotient as a residual: on the full
    graph, or for an ``Sl2Quotient`` of prime modulus on its induced blocks.  The verdict
    regresses log kappa_P against log N: genuinely uniform families stay
    flat, while e.g. cycles grow like N^2.  Disconnected members are flagged
    and force a non-uniform verdict.
    """
    if len(seq.members) < 2:
        raise ValueError("need at least two quotients to certify a sequence")
    rows = [_member_row(member, p, d, vector_budget, seed) for member in seq.members]
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
