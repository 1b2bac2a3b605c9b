"""Isometric representations on weighted l_p spaces and their averaging operators.

A ``Representation`` acts on scalar fields X -> R, each a float array of
shape (n_points,), by (pi_g f)(x) = f(g^-1 x); the ``MarkovOperator`` of a
measure mu averages these isometries.  The canonical splitting into
invariant fields and their complement is realized concretely:
invariant fields are those constant on each orbit, the complement consists of
fields with zero weighted mean on each orbit.  For transitive actions this is
the usual constants / mean-zero splitting.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from functools import cached_property
from typing import Callable, List, Tuple, Union

import numpy as np

from .group_core import FiniteAction, FixedDegreeMatrix, GroupElement
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
    "InvariantFailure",
    "require_dense",
]

DENSE_LIMIT = 4096  # largest N for which dense N x N matrices are built


class DenseLimitError(ValueError):
    """A dense n x n matrix was asked for with n above DENSE_LIMIT."""


class InvariantFailure(RuntimeError):
    """A certified bound failed at run time; ``name`` says which one."""

    def __init__(self, name: str, message: str) -> None:
        super().__init__(f"{name}: {message}")
        self.name = name


def require_dense(n: int, what: str) -> None:
    """Refuse a dense n x n ``what`` when n exceeds DENSE_LIMIT."""
    if n > DENSE_LIMIT:
        raise DenseLimitError(f"refusing dense {n} x {n} {what} "
                              f"(limit {DENSE_LIMIT} points)")


class Representation:
    """Isometric action on the weighted space l_p(X, nu)."""

    def __init__(self, action: FiniteAction, p: float = 2.0) -> None:
        if not 1.0 < p < np.inf:
            raise ValueError(f"exponent p must lie in (1, inf), got {p}")
        self.action = action
        self.p = float(p)

    @property
    def n_points(self) -> int:
        return self.action.n_points

    @cached_property
    def decomposition(self) -> "Decomposition":
        """The splitting into invariant fields and their complement, built
        once per representation."""
        return Decomposition(self)

    def _coerce(self, values: np.ndarray) -> np.ndarray:
        f = np.asarray(values, dtype=float)
        if f.shape != (self.n_points,):
            raise ValueError(f"field shape {f.shape} does not match ({self.n_points},)")
        return f

    def norm(self, values: np.ndarray) -> Union[float, np.ndarray]:
        """Weighted l_p norm of one field, or of every field of a stack.

        One field, of shape (n_points,), gives a float.  A stack of shape
        (k, n_points) gives its k norms as an array, equal bit for bit to the
        norms of the fields taken one at a time.
        """
        f = np.asarray(values, dtype=float)
        if f.ndim != 2:
            f = self._coerce(f)
        elif f.shape[1] != self.n_points:
            raise ValueError(f"stack shape {f.shape} does not match (k, {self.n_points})")
        p = self.p
        sums = np.sum(self.action.weights * np.abs(f) ** p, axis=-1)
        if f.ndim == 1:
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
        return self._orbit_mean(self.rep._coerce(values))

    def _orbit_mean(self, f: np.ndarray) -> np.ndarray:
        """``mean`` of a float field of shape (n_points,), unchecked."""
        sums = np.bincount(self.orbit_of, weights=self.rep.action.weights * f,
                           minlength=self.n_orbits)
        return (sums / self.orbit_mass)[self.orbit_of]

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
    # p = 2: sqrt(value^2 + residual), the residual enclosure of the computed
    # Ritz value; it bounds the nearest eigenvalue, not certainly the top one
    upper: float = 1.0
    iterations: int = 0  # operator applications of the spectral solve
    converged: bool = True  # the solve raises InvariantFailure otherwise


class MarkovOperator:
    """Averaging operator A f(x) = sum_g mu(g) f(g^-1 x).

    ``matrix`` holds A in fixed-degree form, one slot per atom: row x holds
    mu(g) at column g^-1 x, and atoms that coincide on a point are merged.
    ``transposed`` holds A^T the same way, mu(g) at column g x.
    """

    def __init__(self, rep: Representation, measure: DiscreteMeasure) -> None:
        if measure.degree != rep.n_points:
            raise ValueError("measure atoms are not realized on the action space")
        self.rep = rep
        self.measure = measure
        self.matrix = self._slots(lambda el: el.inverse().perm)

    def _slots(self, column: Callable[[GroupElement], np.ndarray]) -> FixedDegreeMatrix:
        atoms = list(self.measure.items())
        weights = np.array([float(w) for _, w in atoms])[:, None]
        return FixedDegreeMatrix.from_slots(
            np.stack([column(el) for el, _ in atoms]),
            np.broadcast_to(weights, (len(atoms), self.n_points)))

    @property
    def decomposition(self) -> Decomposition:
        return self.rep.decomposition

    @cached_property
    def transposed(self) -> FixedDegreeMatrix:
        return self._slots(lambda el: el.perm)

    @cached_property
    def self_adjoint(self) -> bool:
        """Whether the matrix equals its transpose entrywise; the transpose
        is the adjoint for the weighted pairing."""
        return self.matrix.equals(self.transposed)

    @cached_property
    def _gram_top(self) -> _TopEigenpair:
        """Top eigenpair of A*A on the complement, solved once per operator.

        ``restricted_norm`` and ``defect_curve`` both read it; callers must not
        write to its vector.
        """
        return _top_eigenpair(lambda f: self.transposed @ (self.matrix @ f),
                              self.decomposition)

    @property
    def n_points(self) -> int:
        return self.rep.n_points

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.matrix @ self.rep._coerce(values)

    def apply_transpose(self, values: np.ndarray) -> np.ndarray:
        """Adjoint for the weighted pairing; same array op as the plain transpose."""
        return self.transposed @ self.rep._coerce(values)

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
        rows, cols, vals = self.matrix.entries()
        return sorted(zip(rows.tolist(), cols.tolist(), vals.tolist()))


def markov_operator(rep: Representation, mu: DiscreteMeasure) -> MarkovOperator:
    return MarkovOperator(rep, mu)


# -- the spectral kernel -----------------------------------------------------

# Lanczos basis size, and each restart keeps the top 2/3 of the Ritz vectors.
# Measured against 20, 28, 32 and 40 vectors and against keeping 1/2 or 3/4:
# on the nine certify-sl2 SL2(Z/p) sums of three blocks, p = 5..31, this took 832
# applications in all (ARPACK took 859 with its 20), on the m = 32 torus 72
# (71) and on the n = 512 cycle 296 (371); more vectors save applications on
# the cycle but cost more per step on the blocks.
LANCZOS_BASIS = 24
# Operators of at most this many coordinates are formed and solved by dense
# eigh, every larger one by Lanczos.  On the tiniest ones ARPACK's last bits
# changed between calls in one process (lambda_2 of Z/3 and Z/4 did), which
# broke byte-identical reports; test_small_spectra_replay_bit_identical failed
# for any cutoff below 4.  A dense eigh of 32 coordinates still takes only
# microseconds of wall time, but from 26 coordinates it wakes OpenBLAS's
# thread pool (see BLAS_ONE_THREAD_MADDS), so the cutoff stops at the basis.
DENSE_EIG_SIZE = LANCZOS_BASIS
# A solve that has not converged after this many applications per coordinate
# raises InvariantFailure("eigensolve-not-converged").
LANCZOS_APPLICATIONS_PER_COORDINATE = 10


@dataclass
class _TopEigenpair:
    """The top k eigenpairs of the shifted operator, largest first."""

    values: np.ndarray  # theta_1 >= ... >= theta_k
    vectors: np.ndarray  # their fields, of shape (k, n_points)
    residuals: np.ndarray  # |M x_i - theta_i x_i| for the unit coordinate vectors
    applications: int  # calls of the operator, including the residual checks

    @property
    def value(self) -> float:
        return float(self.values[0])

    @property
    def vector(self) -> np.ndarray:
        return self.vectors[0]

    @property
    def residual(self) -> float:
        return float(self.residuals[0])


# Every sum in the kernel runs on BLAS, in calls small enough that OpenBLAS
# computes each on the calling thread.  A larger call wakes the thread pool:
# the sum is split by thread, so its last bits follow the thread count, and
# the idle pool threads spin for about 0.13 s of CPU after each wake (on a
# 2-vCPU machine that was a third of certify-sl2's CPU time).
#
# Sums over the coordinates (the coefficients span @ w, the three-term step's
# alpha and ``_norm``) go through ``_coordinate_sum``.  Probed with OpenBLAS
# 0.3.31 by per-thread CPU and the result bytes at 1 and 2 threads, a dot
# product woke the pool above 10,000 coordinates, and a gemv (of 10, 24 or 57
# rows) from 460,800 = 115,200 x 4 multiply-adds on; the woken sums changed
# their last bits on some inputs.  A block of 8,192 coordinates keeps a dot
# product, and a gemv of up to 56 rows (the basis has LANCZOS_BASIS = 24), on
# one thread.  einsum stays on one thread too, but takes two to three times
# as long.
BLAS_ONE_THREAD_COORDINATES = 8192

# Products that sum over the basis only, such as h @ span, go through
# ``_basis_product``.  OpenBLAS runs a GEMM of at most SMP_THRESHOLD_MIN x
# GEMM_MULTITHREAD_THRESHOLD = 65,536 x 4 multiply-adds on the calling thread
# (interface/gemm.c; its gemv threshold is higher).
BLAS_ONE_THREAD_MADDS = 2 ** 18


def _coordinate_sum(a: np.ndarray, x: np.ndarray) -> Union[float, np.ndarray]:
    """a @ x, for x of shape (size,) and a of shape (size,) or (r, size), r at
    most 56: one call up to ``BLAS_ONE_THREAD_COORDINATES`` coordinates, else
    one call per block of that many coordinates, added up in block order.
    No sum depends on the BLAS thread count."""
    width = BLAS_ONE_THREAD_COORDINATES
    if x.shape[0] <= width:
        return np.matmul(a, x)
    out = np.matmul(a[..., :width], x[:width])
    for lo in range(width, x.shape[0], width):
        out += np.matmul(a[..., lo:lo + width], x[lo:lo + width])
    return out


def _norm(x: np.ndarray) -> float:
    return math.sqrt(_coordinate_sum(x, x))


def _basis_product(c: np.ndarray, span: np.ndarray) -> np.ndarray:
    """c @ span, for c of shape (r,) or (q, r) and span of shape (r, size),
    in blocks of columns of at most ``BLAS_ONE_THREAD_MADDS`` multiply-adds,
    so that OpenBLAS computes each block on the calling thread.

    Blocks start at multiples of 64 columns, where OpenBLAS's kernels start
    a panel, so each entry is the sum over r that a one-call product
    computes.  The exception: OpenBLAS's SkylakeX kernels compute the
    columns past the last multiple of 8 of a product above 10^6
    multiply-adds by another kernel than smaller products use, and there
    the last bits may differ.  No entry depends on the BLAS thread count."""
    size = span.shape[1]
    if c.size * size <= BLAS_ONE_THREAD_MADDS:
        return c @ span
    width = BLAS_ONE_THREAD_MADDS // c.size // 64 * 64
    if width == 0:
        return c @ span
    out = np.empty(c.shape[:-1] + (size,))
    for lo in range(0, size, width):
        np.matmul(c, span[:, lo:lo + width], out=out[..., lo:lo + width])
    return out


def _lanczos_top(matvec: Callable[[np.ndarray], np.ndarray], size: int,
                 k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Top k eigenvalues, largest first, and their unit vectors (as columns)
    of a symmetric operator on R^size, size > ``LANCZOS_BASIS`` > k, by
    thick-restart Lanczos (Wu and Simon, SIAM J. Matrix Anal. Appl. 22, 2000).

    Each step takes the three-term recurrence, then reorthogonalizes fully
    by classical Gram-Schmidt against the whole basis; a pass that leaves
    less than 0.717 of the vector's norm is repeated, as in ARPACK (a step
    that starts a cycle has no recurrence, so its first pass is the whole
    projection).  The Rayleigh quotient of the basis is kept whole, so a
    restart keeps the top 2/3 of the Ritz vectors and goes on from the
    residual direction.  The start vector is fixed; when the Krylov space
    closes (the repeated pass also leaves less than 0.717), the next vector
    is a normal sample from ``np.random.default_rng(0)``.  A pair has
    converged when its Ritz estimate |beta s_i| <= eps max(1, |theta_i|);
    the k pairs must all converge within
    ``LANCZOS_APPLICATIONS_PER_COORDINATE * size`` applications, or the
    solve raises ``InvariantFailure``.
    """
    m = min(LANCZOS_BASIS, size - 1)
    basis = np.empty((m + 1, size))
    quotient = np.zeros((m, m))  # basis^T M basis
    v0 = np.cos(np.arange(size) * 1.7) + 0.1
    basis[0] = v0 / _norm(v0)
    eps = np.finfo(float).eps
    cap = LANCZOS_APPLICATIONS_PER_COORDINATE * size
    rng = None
    kept = applications = 0
    beta = 0.0
    local = np.empty(2)  # (beta, alpha) of the three-term step
    while True:
        for j in range(kept, m):
            w = matvec(basis[j])
            applications += 1
            span = basis[:j + 1]
            if j > kept:  # A v_j lies along v_j and v_{j-1}, up to rounding
                local[0], local[1] = beta, _coordinate_sum(basis[j], w)
                w -= _basis_product(local, basis[j - 1:j + 1])
            h = _coordinate_sum(span, w)
            w -= _basis_product(h, span)
            beta = _norm(w)
            # the pass took |h| off a vector of norm sqrt(beta^2 + |h|^2)
            if beta * beta < 0.717 ** 2 * (beta * beta + h @ h):
                again = _coordinate_sum(span, w)
                w -= _basis_product(again, span)
                h += again
                before, beta = beta, _norm(w)
                if beta < 0.717 * before:  # w lies in the span
                    if rng is None:
                        rng = np.random.default_rng(0)
                    w = rng.standard_normal(size)
                    for _ in range(2):
                        w -= _basis_product(_coordinate_sum(span, w), span)
                    w /= _norm(w)
                    beta = 0.0
            if j > kept:
                h[j - 1:] += local
            quotient[:j + 1, j] = h  # eigh reads the upper triangle
            basis[j + 1] = w / beta if beta else w
        theta, s = np.linalg.eigh(quotient, UPLO="U")
        theta, s = theta[::-1], s[:, ::-1]
        estimates = np.abs(beta * s[-1, :k])
        if np.all(estimates <= eps * np.maximum(1.0, np.abs(theta[:k]))):
            return theta[:k], _basis_product(s[:, :k].T, basis[:m]).T
        if applications >= cap:
            raise InvariantFailure(
                "eigensolve-not-converged",
                f"Lanczos Ritz estimates {estimates.tolist()} after {applications} applications")
        kept = k + 2 * (m - k) // 3
        basis[:kept] = _basis_product(s[:, :kept].T, basis[:m])
        basis[kept] = basis[m]
        quotient[:] = 0.0
        quotient[range(kept), range(kept)] = theta[:kept]


def _euclidean_top(matvec: Callable[[np.ndarray], np.ndarray], size: int,
                   k: int = 1) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, unit vectors (as columns) and residuals |matvec(x_i) - theta_i x_i|
    of the top k eigenpairs of a symmetric operator on R^size, largest first:
    by dense eigh up to ``DENSE_EIG_SIZE`` coordinates, else by
    ``_lanczos_top``, which raises ``InvariantFailure`` rather than return an
    unconverged value.  For k > 1 Lanczos may return a multiple eigenvalue
    once, so ``values`` need not repeat it."""
    if size <= DENSE_EIG_SIZE:
        mat = np.column_stack([matvec(e) for e in np.eye(size)])
        vals, vecs = np.linalg.eigh((mat + mat.T) / 2.0)
        vals, vecs = vals[::-1][:k], vecs[:, ::-1][:, :k]  # eigh is ascending
    else:
        vals, vecs = _lanczos_top(matvec, size, k)
    residuals = np.array([_norm(matvec(x) - theta * x) for theta, x in zip(vals, vecs.T)])
    return vals, vecs, residuals


def _top_eigenpair(apply: Callable[[np.ndarray], np.ndarray],
                   dec: Decomposition, k: int = 1) -> _TopEigenpair:
    """Top k eigenpairs of a self-adjoint operator S on the mean-zero complement.

    ``apply`` maps fields to fields, is self-adjoint for the weighted pairing
    and is the identity on invariant fields, as every averaging operator and
    its Gram powers are.  It is called with float arrays of shape (n_points,)
    only, so it may skip ``Representation``'s checks.  In the coordinates
    x = sqrt(w) f that pairing is Euclidean and the orbit mean is an
    orthogonal projector P; the kernel solves M = S - 2P by
    ``_euclidean_top``, which keeps the complement spectrum of S and shifts
    the invariant fields to -1, below it.  The vectors come back as fields,
    orthonormal in the weighted pairing and, for k at most the complement's
    dimension, in the complement up to rounding.
    """
    rep = dec.rep
    sw = np.sqrt(rep.action.weights)
    applications = 0

    def matvec(x: np.ndarray) -> np.ndarray:
        nonlocal applications
        applications += 1
        f = x / sw
        return sw * (apply(f) - 2.0 * dec._orbit_mean(f))

    vals, vecs, residuals = _euclidean_top(matvec, rep.n_points, k)
    return _TopEigenpair(vals, vecs.T / sw, residuals, applications)


def _symmetrized_top(op: MarkovOperator, k: int = 1) -> _TopEigenpair:
    """Top k eigenpairs of (A + A*) / 2 on the mean-zero complement.

    A self-adjoint A is applied alone: its transpose would run the same
    arrays, and (x + x) / 2 == x in floating point, so the values do not move.
    """
    if op.self_adjoint:
        return _top_eigenpair(op.matrix.__matmul__, op.decomposition, k)
    return _top_eigenpair(lambda f: (op.apply(f) + op.apply_transpose(f)) / 2.0,
                          op.decomposition, k)


# -- restricted norm ---------------------------------------------------------


def _lp_grad(rep: Representation, f: np.ndarray, nrm: float) -> np.ndarray:
    """Gradient of |f|_p at f, given nrm = |f|_p > 0."""
    p = rep.p
    return rep.action.weights * np.abs(f) ** (p - 1.0) * np.sign(f) * nrm ** (1.0 - p)


LP_ASCENT_MAX_ITER = 400


def _lp_ascent(op: MarkovOperator, f0: np.ndarray) -> float:
    """Projected gradient ascent of |A f|_p / |f|_p over mean-zero fields.

    A f, |A f|_p and |f|_p of an accepted candidate carry over from the line
    search to the next step's gradient.
    """
    dec = op.decomposition
    rep = op.rep
    f = dec.complement(f0)
    nf = rep.norm(f)
    if nf == 0.0:
        return 0.0
    f /= nf
    af = op.apply(f)
    naf, nf = rep.norm(af), rep.norm(f)
    ratio = 0.0
    step = 1.0
    for _ in range(LP_ASCENT_MAX_ITER):
        ratio = naf / nf
        if naf == 0.0:
            break
        grad = dec.complement(op.apply_transpose(_lp_grad(rep, af, naf)) / naf
                              - _lp_grad(rep, f, nf) / nf)
        gnorm = float(np.max(np.abs(grad)))
        if gnorm < 1e-13:
            break
        improved = False
        while step > 1e-12:
            cand = dec.complement(f + step * grad)
            ncand = rep.norm(cand)
            if ncand > 0:
                cand = cand / ncand
                a_cand = op.apply(cand)
                na_cand, n_cand = rep.norm(a_cand), rep.norm(cand)
                r_cand = na_cand / n_cand
                if r_cand > ratio + 1e-15:
                    f, af, naf, nf = cand, a_cand, na_cand, n_cand
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
        return NormEstimate(value=0.0, quality="exact", upper=0.0)
    top = op._gram_top
    if rep.p == 2.0:
        sigma = rep.norm(op.apply(_unit_complement(op.decomposition, top.vector)))
        return NormEstimate(value=sigma, quality="exact",
                            upper=math.sqrt(sigma**2 + top.residual),
                            iterations=top.applications + 1)
    best = _lp_ascent(op, top.vector)
    for start in range(n_starts):
        srng = np.random.default_rng(seed + 7919 * (start + 1))
        best = max(best, _lp_ascent(op, srng.standard_normal(rep.n_points)))
    return NormEstimate(value=best, quality="lower_bound", upper=1.0,
                        iterations=top.applications)


# -- projections -------------------------------------------------------------

NON_GAPPED = 1.0 - 1e-6
# the Neumann series stops once a term's Frobenius norm is below the tolerance
NEUMANN_TERM_TOL = 1e-14
# A term |A^N (I - A)|_F is at most 2 sqrt(n) lam^N; with lam < NON_GAPPED and
# n <= DENSE_LIMIT that is below NEUMANN_TERM_TOL by N = 3.8e7 < 2^26
NEUMANN_MAX_SQUARINGS = 26


def neumann_projection(op: MarkovOperator) -> np.ndarray:
    """P = I - sum_{n<N} A^n (I - A), a partial sum that telescopes to A^N.

    A^N is evaluated by repeated squaring, and N = 2^j is the first power of
    two whose Neumann term |A^N (I - A)|_F is below ``NEUMANN_TERM_TOL``.
    Requires a restricted norm below ``NON_GAPPED``; for gapped operators
    this reproduces the orbitwise mean projector.
    """
    lam = restricted_norm(op).value
    if lam >= NON_GAPPED:
        raise ValueError(f"restricted norm {lam} >= {NON_GAPPED}: no spectral gap")
    power = op.dense()
    for _ in range(NEUMANN_MAX_SQUARINGS + 1):
        # the term through the fixed-degree A^T, power A, instead of a GEMM
        if np.linalg.norm(power - op.transposed.apply_rows(power), "fro") < NEUMANN_TERM_TOL:
            return power
        power = power @ power
    raise RuntimeError(f"Neumann term above tolerance after {NEUMANN_MAX_SQUARINGS} squarings")


DEFECT_SAMPLES = 16  # seeded sample fields of a p != 2 defect curve
DECAY_TOL = 1e-9  # the slack of every decay check: defect <= lambda^k + DECAY_TOL


def defect_curve(op: MarkovOperator, k_max: int, seed: int = 0) -> np.ndarray:
    """Distances |A^k - P| of the iterates to the limiting projection, k = 0..k_max.

    p = 2: the operator norm, attained on the complement (A^k - P vanishes on
    invariant fields).  When A is self-adjoint -- its matrix equals its
    transpose entrywise, and the transpose is the adjoint -- |A^k - P| =
    rho^k is attained for every k at the top singular vector x of A on the
    complement, which the one spectral solve on A*A behind
    ``restricted_norm`` gives; the defects are then |A^k x - P x|, stepped
    from k to k + 1 by one application of A.  Every run-kind measure is
    symmetric; a non-self-adjoint A raises ``ValueError``.  p != 2: the sup
    of |A^k f - P f|_p / |f|_p over ``DEFECT_SAMPLES`` seeded sample fields,
    each stepped from k to k + 1.
    """
    if k_max < 0:
        raise ValueError("k must be nonnegative")
    rep = op.rep
    dec = op.decomposition
    if rep.p == 2.0:
        if dec.complement_dim() == 0:
            return np.zeros(k_max + 1)
        if not op.self_adjoint:
            raise ValueError("the p = 2 defect curve needs a self-adjoint operator")
        f = _unit_complement(dec, op._gram_top.vector)
        pf = dec.mean(f)
        defects = [rep.norm(f - pf)]
        for _ in range(k_max):
            f = op.apply(f)
            defects.append(rep.norm(f - pf))
        return np.array(defects)
    rng = np.random.default_rng(seed)
    fields = [rng.standard_normal(rep.n_points) for _ in range(DEFECT_SAMPLES)]
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

IDENTITY_TOL = 1e-12  # the largest defect, over every field, that ``IdentityReport.ok`` passes


@dataclass
class IdentityReport:
    convolution_defect: float
    translation_defect: float
    identity_on_invariants_defect: float
    complement_invariance_defect: float

    @property
    def ok(self) -> bool:
        return max(astuple(self)) <= IDENTITY_TOL


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
        f = rng.standard_normal(rep.n_points)
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
    inv = el.inverse().perm
    mat[np.arange(n), inv] = 1.0
    return mat
