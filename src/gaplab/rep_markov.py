"""Isometric representations on weighted l_p spaces and their averaging operators.

A ``Representation`` acts on fields X -> R^d by (pi_g f)(x) = f(g^-1 x); the
``MarkovOperator`` of a measure mu averages these isometries.  The canonical
splitting into invariant fields and their complement is realized concretely:
invariant fields are those constant on each orbit, the complement consists of
fields with zero weighted mean on each orbit.  For transitive actions this is
the usual constants / mean-zero splitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Tuple, Union

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import LinearOperator, eigsh

from .group_core import FiniteAction, GroupElement
from .measures import DiscreteMeasure, convolve, translate

__all__ = [
    "Representation",
    "Decomposition",
    "MarkovOperator",
    "NormEstimate",
    "markov_operator",
    "restricted_norm",
    "neumann_projection",
    "defect_curve",
    "operator_identities_check",
    "IdentityReport",
    "DenseLimitError",
    "require_dense",
]

DENSE_LIMIT = 4096  # largest N for which dense N x N matrices are built


class DenseLimitError(ValueError):
    """A dense n x n matrix was asked for with n above DENSE_LIMIT."""


def require_dense(n: int, what: str) -> None:
    """Refuse a dense n x n ``what`` when n exceeds DENSE_LIMIT."""
    if n > DENSE_LIMIT:
        raise DenseLimitError(f"refusing dense {n} x {n} {what} "
                              f"(limit {DENSE_LIMIT} points)")


class Representation:
    """Isometric action on l_p(X, nu; R^d) with the l_p fiber norm."""

    def __init__(self, action: FiniteAction, p: float = 2.0, d: int = 1) -> None:
        if not 1.0 < p < np.inf:
            raise ValueError(f"exponent p must lie in (1, inf), got {p}")
        if d < 1:
            raise ValueError(f"fiber dimension must be >= 1, got {d}")
        self.action = action
        self.p = float(p)
        self.d = int(d)

    @property
    def n_points(self) -> int:
        return self.action.n_points

    def _coerce(self, values: np.ndarray) -> np.ndarray:
        f = np.asarray(values, dtype=float)
        if f.ndim == 1:
            f = f[:, None]
        if f.shape != (self.n_points, self.d):
            raise ValueError(
                f"field shape {f.shape} does not match ({self.n_points}, {self.d})"
            )
        return f

    def norm(self, values: np.ndarray) -> Union[float, np.ndarray]:
        """Weighted l_p norm of one field, or of every field of a stack.

        One field, of shape (n_points, d) or (n_points,) when d = 1, gives a
        float.  A stack of shape (k, n_points, d) gives its k norms as an array,
        equal bit for bit to the norms of the fields taken one at a time.
        """
        f = np.asarray(values, dtype=float)
        if f.ndim != 3:
            f = self._coerce(f)
        elif f.shape[1:] != (self.n_points, self.d):
            raise ValueError(
                f"stack shape {f.shape} does not match (k, {self.n_points}, {self.d})"
            )
        p = self.p
        sums = np.sum(self.action.weights * np.sum(np.abs(f) ** p, axis=-1), axis=-1)
        if f.ndim == 2:
            return float(sums ** (1.0 / p))
        # one scalar root per norm: numpy's array power differs from its scalar
        # power in the last bit on a few percent of inputs
        return np.array([s ** (1.0 / p) for s in sums])


class Decomposition:
    """Projections onto invariant fields and their mean-zero complement."""

    def __init__(self, rep: Representation) -> None:
        self.rep = rep
        action = rep.action
        self.orbit_of = action.orbit_index()
        self.n_orbits = len(action.orbits())
        self.orbit_mass = np.zeros(self.n_orbits)
        np.add.at(self.orbit_mass, self.orbit_of, action.weights)

    def mean(self, values: np.ndarray) -> np.ndarray:
        """Weighted mean on each orbit, broadcast back as an invariant field."""
        f = self.rep._coerce(values)
        w = self.rep.action.weights
        wf = w[:, None] * f
        sums = np.column_stack([np.bincount(self.orbit_of, weights=wf[:, j],
                                            minlength=self.n_orbits)
                                for j in range(f.shape[1])])
        means = sums / self.orbit_mass[:, None]
        return means[self.orbit_of]

    def complement(self, values: np.ndarray) -> np.ndarray:
        f = self.rep._coerce(values)
        return f - self.mean(f)

    def complement_dim(self) -> int:
        return self.rep.n_points - self.n_orbits

    def mean_matrix(self) -> np.ndarray:
        n = self.rep.n_points
        require_dense(n, "projector")
        w = self.rep.action.weights
        out = np.zeros((n, n))
        for orb in self.rep.action.orbits():
            mass = float(w[orb].sum())
            out[np.ix_(orb, orb)] = w[orb][None, :] / mass
        return out


@dataclass
class NormEstimate:
    """Restricted operator norm with its certification quality."""

    value: float
    quality: str  # "exact" (p = 2) or "lower_bound"
    p: float
    # p = 2: sqrt(value^2 + residual), the residual enclosure of the computed
    # Ritz value; it bounds the nearest eigenvalue, not certainly the top one
    upper: float = 1.0
    iterations: int = 0  # operator applications of the spectral solve
    converged: bool = True  # the solve raises ArpackNoConvergence otherwise


class MarkovOperator:
    """Averaging operator A f(x) = sum_g mu(g) f(g^-1 x), stored as the CSR ``matrix``."""

    def __init__(self, rep: Representation, measure: DiscreteMeasure) -> None:
        if measure.degree != rep.n_points:
            raise ValueError("measure atoms are not realized on the action space")
        self.rep = rep
        self.measure = measure
        atoms = list(measure.items())
        # row x holds mu(g) at column g^-1 x, one entry per atom; repeats are summed
        cols = np.stack([np.argsort(el.perm_array()) for el, _ in atoms], axis=1)
        vals = np.tile([float(w) for _, w in atoms], rep.n_points)
        indptr = np.arange(0, cols.size + 1, len(atoms))
        self.matrix = csr_matrix((vals, cols.ravel(), indptr), shape=(rep.n_points,) * 2)
        self.matrix.sum_duplicates()
        self.decomposition = Decomposition(rep)

    @cached_property
    def _transpose(self) -> csr_matrix:
        # built once: forming matrix.T on every call costs 3x the product
        return self.matrix.T.tocsr()

    @cached_property
    def _gram_top(self) -> _TopEigenpair:
        """Top eigenpair of A*A on the complement, solved once per operator.

        ``restricted_norm`` and ``defect_curve`` both read it; callers must not
        write to its vector.
        """
        return _top_eigenpair(lambda f: self.apply_transpose(self.apply(f)),
                              self.decomposition)

    @property
    def n_points(self) -> int:
        return self.rep.n_points

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.matrix @ self.rep._coerce(values)

    def apply_transpose(self, values: np.ndarray) -> np.ndarray:
        """Adjoint for the weighted pairing; same array op as the plain transpose."""
        return self._transpose @ self.rep._coerce(values)

    def apply_power(self, values: np.ndarray, k: int) -> np.ndarray:
        f = self.rep._coerce(values)
        for _ in range(k):
            f = self.apply(f)
        return f

    def dense(self) -> np.ndarray:
        require_dense(self.n_points, "operator")
        return self.matrix.toarray()

    def to_coo(self) -> List[Tuple[int, int, float]]:
        """Coordinate-list export of the matrix, sorted by (row, col)."""
        coo = self.matrix.tocoo()
        return sorted(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))


def markov_operator(rep: Representation, mu: DiscreteMeasure) -> MarkovOperator:
    return MarkovOperator(rep, mu)


# -- the spectral kernel -----------------------------------------------------

# Operators of at most this many coordinates are formed and solved by dense
# eigh.  On the tiniest ones ARPACK's last bits change between calls in one
# process (lambda_2 of Z/3 and Z/4 did), which breaks byte-identical reports;
# test_small_spectra_replay_bit_identical fails for any cutoff below 4.  The
# margin up to 32 costs nothing: a 32 x 32 eigh takes microseconds.
DENSE_EIG_SIZE = 32


@dataclass
class _TopEigenpair:
    value: float
    vector: np.ndarray  # a field of shape (n_points, d)
    residual: float  # |M x - value x| for the unit coordinate vector x
    applications: int  # calls of the operator, including the residual check


def _top_eigenpair(apply: Callable[[np.ndarray], np.ndarray],
                   dec: Decomposition) -> _TopEigenpair:
    """Top eigenpair of a self-adjoint operator S on the mean-zero complement.

    ``apply`` maps fields to fields, is self-adjoint for the weighted pairing
    and is the identity on invariant fields, as every averaging operator and
    its Gram powers are.  In the coordinates x = sqrt(w) f that pairing is
    Euclidean and the orbit mean is an orthogonal projector P; the kernel
    solves M = S - 2P, which keeps the complement spectrum of S and shifts
    the invariant fields to -1.  Small operators go to dense eigh, larger
    ones to Lanczos (eigsh with a fixed start vector and tol=0), which
    raises ArpackNoConvergence instead of returning an unconverged value.
    Some eigenvalue of M lies within ``residual`` of ``value``.  The vector
    is returned as a field, in the complement up to rounding.
    """
    rep = dec.rep
    shape = (rep.n_points, rep.d)
    size = rep.n_points * rep.d
    sw = np.sqrt(rep.action.weights)[:, None]
    applications = 0

    def matvec(x: np.ndarray) -> np.ndarray:
        nonlocal applications
        applications += 1
        f = np.reshape(x, shape) / sw
        return (sw * (apply(f) - 2.0 * dec.mean(f))).ravel()

    if size <= DENSE_EIG_SIZE:
        mat = np.column_stack([matvec(e) for e in np.eye(size)])
        vals, vecs = np.linalg.eigh((mat + mat.T) / 2.0)
        theta, x = float(vals[-1]), vecs[:, -1]
    else:
        lin = LinearOperator((size, size), matvec=matvec, dtype=float)
        v0 = np.cos(np.arange(size) * 1.7) + 0.1
        vals, vecs = eigsh(lin, k=1, which="LA", v0=v0, tol=0)
        theta, x = float(vals[0]), vecs[:, 0]
    residual = float(np.linalg.norm(matvec(x) - theta * x))
    return _TopEigenpair(theta, x.reshape(shape) / sw, residual, applications)


def _symmetrized_top(op: MarkovOperator) -> _TopEigenpair:
    """Top eigenpair of (A + A*) / 2 on the mean-zero complement."""
    return _top_eigenpair(lambda f: (op.apply(f) + op.apply_transpose(f)) / 2.0,
                          op.decomposition)


# -- restricted norm ---------------------------------------------------------


def _lp_norm_and_grad(rep: Representation, f: np.ndarray) -> Tuple[float, np.ndarray]:
    p = rep.p
    w = rep.action.weights[:, None]
    nrm = rep.norm(f)
    if nrm == 0.0:
        return 0.0, np.zeros_like(f)
    grad = w * np.abs(f) ** (p - 1.0) * np.sign(f) * nrm ** (1.0 - p)
    return nrm, grad


def _lp_ascent(op: MarkovOperator, f0: np.ndarray, max_iter: int = 400) -> float:
    """Projected gradient ascent of |A f|_p / |f|_p over mean-zero fields."""
    dec = op.decomposition
    rep = op.rep
    f = dec.complement(f0)
    nf = rep.norm(f)
    if nf == 0.0:
        return 0.0
    f /= nf
    ratio = 0.0
    step = 1.0
    for _ in range(max_iter):
        af = op.apply(f)
        naf, gaf = _lp_norm_and_grad(rep, af)
        nf, gf = _lp_norm_and_grad(rep, f)
        ratio = naf / nf
        if naf == 0.0:
            break
        grad = dec.complement(op.apply_transpose(gaf) / naf - gf / nf)
        gnorm = float(np.max(np.abs(grad)))
        if gnorm < 1e-13:
            break
        improved = False
        while step > 1e-12:
            cand = dec.complement(f + step * grad)
            ncand = rep.norm(cand)
            if ncand > 0:
                cand = cand / ncand
                r_cand = rep.norm(op.apply(cand)) / rep.norm(cand)
                if r_cand > ratio + 1e-15:
                    f = cand
                    ratio = r_cand
                    improved = True
                    step *= 1.5
                    break
            step *= 0.5
        if not improved:
            break
    return float(ratio)


def _unit_complement(dec: Decomposition, f: np.ndarray) -> np.ndarray:
    """f projected to the mean-zero complement and scaled to unit norm."""
    f = dec.complement(f)
    return f / dec.rep.norm(f)


def restricted_norm(op: MarkovOperator, seed: int = 0, n_starts: int = 8) -> NormEstimate:
    """Norm of the averaging operator restricted to the mean-zero complement.

    Both exponents start from the spectral kernel on A*A, whose top eigenpair
    on the complement is the squared top singular value and its direction.
    p = 2: the singular value, taken as |A x| for the computed unit direction
    x rather than as sqrt(theta), whose rounding error of about 1e-8 would
    swamp small norms; ``upper`` is the residual enclosure sqrt(value^2 +
    residual) of that Ritz value.  p != 2: a certified lower bound from
    multi-start projected gradient ascent (paired with the trivial upper
    bound 1); the starts include the p = 2 singular direction, whose ratio
    already equals the spectral radius for symmetric operators.
    """
    rep = op.rep
    if op.decomposition.complement_dim() == 0:
        return NormEstimate(value=0.0, quality="exact", p=rep.p, upper=0.0)
    top = op._gram_top
    if rep.p == 2.0:
        sigma = rep.norm(op.apply(_unit_complement(op.decomposition, top.vector)))
        return NormEstimate(value=sigma, quality="exact", p=2.0,
                            upper=math.sqrt(sigma**2 + top.residual),
                            iterations=top.applications + 1)
    best = _lp_ascent(op, top.vector)
    for start in range(n_starts):
        srng = np.random.default_rng(seed + 7919 * (start + 1))
        best = max(best, _lp_ascent(op, srng.standard_normal((rep.n_points, rep.d))))
    return NormEstimate(value=best, quality="lower_bound", p=rep.p, upper=1.0,
                        iterations=top.applications)


# -- projections -------------------------------------------------------------

NON_GAPPED = 1.0 - 1e-6


def neumann_projection(op: MarkovOperator, norm: Optional[NormEstimate] = None,
                       term_tol: float = 1e-14, max_terms: int = 500_000) -> np.ndarray:
    """P = I - (sum_n A^n)(I - A), truncated when the term norm drops below tol.

    Requires a restricted norm < 1; for gapped operators this reproduces the
    orbitwise mean projector.
    """
    lam = (norm or restricted_norm(op)).value
    if lam >= NON_GAPPED:
        raise ValueError(f"restricted norm {lam} >= {NON_GAPPED}: no spectral gap")
    a = op.dense()
    n = op.n_points
    term = np.eye(n) - a
    series = np.zeros_like(a)
    for _ in range(max_terms):
        series += term
        term = a @ term
        if np.linalg.norm(term, "fro") < term_tol:
            break
    else:
        raise RuntimeError("Neumann series failed to converge within max_terms")
    return np.eye(n) - series


def _gram_defect(op: MarkovOperator, k: int) -> float:
    """|(A^k - P) x| at the top eigenvector x of (A^k)* A^k on the complement."""
    dec = op.decomposition

    def gram(f: np.ndarray) -> np.ndarray:
        f = op.apply_power(f, k)
        for _ in range(k):
            f = op.apply_transpose(f)
        return f

    x = _unit_complement(dec, _top_eigenpair(gram, dec).vector)
    return op.rep.norm(op.apply_power(x, k) - dec.mean(x))


def defect_curve(op: MarkovOperator, k_max: int, seed: int = 0,
                 n_samples: int = 16) -> np.ndarray:
    """Distances |A^k - P| of the iterates to the limiting projection, k = 0..k_max.

    p = 2: the operator norm, attained on the complement (A^k - P vanishes on
    invariant fields).  When A is self-adjoint -- its matrix equals its
    transpose entrywise, and the transpose is the adjoint -- |A^k - P| =
    rho^k is attained for every k at the top singular vector x of A on the
    complement, which the one spectral solve on A*A behind
    ``restricted_norm`` gives; the defects are then |A^k x - P x|, stepped
    from k to k + 1 by one application of A.  Otherwise each k takes its
    own solve on (A^k)* A^k, and the defect is |(A^k - P) x| at that unit
    top eigenvector x.  p != 2: the sup of |A^k f - P f|_p / |f|_p over
    ``n_samples`` seeded sample fields, each stepped from k to k + 1.
    """
    if k_max < 0:
        raise ValueError("k must be nonnegative")
    rep = op.rep
    dec = op.decomposition
    if rep.p == 2.0:
        if dec.complement_dim() == 0:
            return np.zeros(k_max + 1)
        if (op.matrix != op._transpose).nnz:
            return np.array([_gram_defect(op, k) for k in range(k_max + 1)])
        f = _unit_complement(dec, op._gram_top.vector)
        pf = dec.mean(f)
        defects = [rep.norm(f - pf)]
        for _ in range(k_max):
            f = op.apply(f)
            defects.append(rep.norm(f - pf))
        return np.array(defects)
    rng = np.random.default_rng(seed)
    fields = [rng.standard_normal((rep.n_points, rep.d)) for _ in range(n_samples)]
    starts = [(dec.mean(f), rep.norm(f)) for f in fields]
    defects = []
    for k in range(k_max + 1):
        if k:
            fields = [op.apply(f) for f in fields]
        worst = 0.0
        for f, (pf, nf) in zip(fields, starts):
            worst = max(worst, rep.norm(f - pf) / nf)
        defects.append(worst)
    return np.array(defects)


def _weighted_conjugate(rep: Representation, mat: np.ndarray) -> np.ndarray:
    """Conjugate by sqrt(weights) so the Euclidean 2-norm is the weighted one."""
    sw = np.sqrt(rep.action.weights)
    return mat * (sw[:, None] / sw[None, :])


# -- operator identities -----------------------------------------------------


@dataclass
class IdentityReport:
    convolution_defect: float
    translation_defect: float
    identity_on_invariants_defect: float
    complement_invariance_defect: float
    tol: float = 1e-12

    @property
    def ok(self) -> bool:
        return max(
            self.convolution_defect,
            self.translation_defect,
            self.identity_on_invariants_defect,
            self.complement_invariance_defect,
        ) <= self.tol


def operator_identities_check(rep: Representation, mu: DiscreteMeasure,
                              nu: DiscreteMeasure) -> IdentityReport:
    """Verify the algebra of averaging operators entrywise.

    Checks A^(mu*nu) = A^mu A^nu, pi_g A^mu = A^(g.mu) over the generators
    and supp(mu), A^mu = I on invariant fields, and preservation of the
    mean-zero complement.
    """
    op_mu = MarkovOperator(rep, mu)
    op_nu = MarkovOperator(rep, nu)
    a_mu = op_mu.dense()
    a_nu = op_nu.dense()
    a_conv = MarkovOperator(rep, convolve(mu, nu)).dense()
    conv_defect = float(np.max(np.abs(a_conv - a_mu @ a_nu)))

    trans_defect = 0.0
    gens = [rep.action.generator_element(lab) for lab in rep.action.gens.labels]
    for g in gens + mu.support:
        pg = _element_matrix(rep, g)
        translated = MarkovOperator(rep, translate(g, mu)).dense()
        trans_defect = max(trans_defect, float(np.max(np.abs(pg @ a_mu - translated))))

    dec = op_mu.decomposition
    rng = np.random.default_rng(12345)
    inv_defect = 0.0
    comp_defect = 0.0
    for _ in range(8):
        f = rng.standard_normal((rep.n_points, rep.d))
        invariant = dec.mean(f)
        inv_defect = max(inv_defect, float(np.max(np.abs(op_mu.apply(invariant) - invariant))))
        mean_zero = dec.complement(f)
        comp_defect = max(
            comp_defect, float(np.max(np.abs(dec.mean(op_mu.apply(mean_zero)))))
        )
    return IdentityReport(
        convolution_defect=conv_defect,
        translation_defect=trans_defect,
        identity_on_invariants_defect=inv_defect,
        complement_invariance_defect=comp_defect,
    )


def _element_matrix(rep: Representation, el: GroupElement) -> np.ndarray:
    n = rep.n_points
    mat = np.zeros((n, n))
    inv = el.inverse().perm_array()
    mat[np.arange(n), inv] = 1.0
    return mat
