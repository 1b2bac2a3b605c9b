"""Finite group actions, generator systems, word metrics and Cayley graphs.

Everything downstream (averaging operators, expander certification, random
walks, warped cones) runs on a ``FiniteAction``: a finite probability space
together with one measure-preserving permutation per generator label.  Group
elements are identified by their realization, i.e. by the permutation of the
action space they induce; word lengths are exact breadth-first distances in
the realized group.

The data format is decided here, once: points, permutations and generator
maps are int64 arrays.  ``FiniteAction.points`` has shape (n,) for integer
points and (n, k) for vector points, and ``GroupElement.perm`` is a
read-only view of the bytes that hash the element.  JSON lists appear only
at the serialization boundary (``action_to_json``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "GeneratorSystem",
    "GroupElement",
    "FiniteAction",
    "FixedDegreeMatrix",
    "CayleyGraph",
    "TorusGridMetric",
    "SubsetMetricView",
    "build_cyclic",
    "build_sl2_quotient",
    "word_ball",
    "element_ball",
    "orbit_restriction",
    "action_to_json",
    "action_fingerprint",
    "SL2_GENERATOR_MATRICES",
    "Sl2GroupTable",
    "sl2_coset_coordinates",
    "sl2_induced_blocks",
]

PROB_TOL = 1e-12


@dataclass(frozen=True)
class GeneratorSystem:
    """Generator labels, closed under the inverse involution on labels."""

    labels: Tuple[str, ...]
    inverses: Dict[str, str]

    def __post_init__(self) -> None:
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("generator labels must be unique")
        for lab in self.labels:
            if lab not in self.inverses:
                raise ValueError(f"no inverse label recorded for {lab!r}")
            inv = self.inverses[lab]
            if inv not in self.labels:
                raise ValueError(f"inverse {inv!r} of {lab!r} is not a label")
            if self.inverses[inv] != lab:
                raise ValueError(f"inverse map is not an involution at {lab!r}")

    def inverse_label(self, label: str) -> str:
        return self.inverses[label]


class GroupElement:
    """A group element realized as a permutation of the action space.

    The permutation is held once, as the bytes of an int64 array; ``perm`` is
    a read-only view of them.  Equality and hashing use those bytes, so two
    words mapping to the same permutation are the same element.
    ``word_length`` is the length of the shortest word known to express the
    element (exact when produced by breadth-first closure).
    """

    __slots__ = ("_bytes", "perm", "word_length", "label")

    def __init__(
        self,
        perm: Sequence[int],
        word_length: Optional[int] = None,
        label: Optional[str] = None,
    ) -> None:
        self._bytes = np.ascontiguousarray(perm, dtype=np.int64).tobytes()
        self.perm: np.ndarray = np.frombuffer(self._bytes, dtype=np.int64)
        self.word_length = word_length
        self.label = label

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupElement) and self._bytes == other._bytes

    def __hash__(self) -> int:
        return hash(self._bytes)

    def __repr__(self) -> str:
        tag = self.label if self.label is not None else f"perm{tuple(self.perm.tolist())}"
        return f"GroupElement({tag}, |g|={self.word_length})"

    @property
    def degree(self) -> int:
        return len(self.perm)

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.perm, np.arange(len(self.perm))))

    def compose(self, other: "GroupElement") -> "GroupElement":
        """Product g*h acting by x -> g(h(x))."""
        if len(self.perm) != len(other.perm):
            raise ValueError("cannot compose elements realized on different spaces")
        wl = None
        if self.word_length is not None and other.word_length is not None:
            wl = self.word_length + other.word_length
        return GroupElement(self.perm[other.perm], word_length=wl)

    def inverse(self) -> "GroupElement":
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(len(self.perm))
        return GroupElement(inv, word_length=self.word_length)

    def key(self) -> str:
        """Stable serialization id."""
        return ",".join(map(str, self.perm.tolist()))

    def sort_key(self) -> bytes:
        """The permutation as big-endian bytes, which sort as the tuples of
        its (nonnegative) entries do: the order of supports and balls."""
        return self.perm.astype(">i8").tobytes()


class TorusGridMetric:
    """Flat-torus metric on the (Z/m)^2 grid, normalized to the unit torus."""

    def __init__(self, m: int) -> None:
        self.m = int(m)

    def distances_from(self, center: int) -> np.ndarray:
        m = self.m
        cx, cy = divmod(int(center), m)
        ax = np.abs(np.arange(m) - cx)
        ax = np.minimum(ax, m - ax)
        ay = np.abs(np.arange(m) - cy)
        ay = np.minimum(ay, m - ay)
        return np.sqrt(ax[:, None] ** 2 + ay[None, :] ** 2).ravel() / m


class SubsetMetricView:
    """A parent metric restricted to a subset of points, without copying."""

    def __init__(self, parent, members: np.ndarray) -> None:
        self.parent = parent
        self.members = np.asarray(members, dtype=np.int64)

    def distances_from(self, center: int) -> np.ndarray:
        return self.parent.distances_from(int(self.members[center]))[self.members]


class FiniteAction:
    """A finite probability space with measure-preserving generator maps.

    ``points`` is an int64 array, of shape (n,) for integer points and
    (n, k) for points that are vectors of k integers; ``point_index`` finds
    a point in it.  ``perms[label][i]`` is the index of ``s . x_i``.  Weights
    form a probability vector preserved pointwise by every generator map, and
    maps for a label and its inverse label are mutually inverse permutations.
    """

    def __init__(
        self,
        points: Sequence,
        weights: np.ndarray,
        gens: GeneratorSystem,
        perms: Dict[str, np.ndarray],
        metric=None,
        name: str = "action",
    ) -> None:
        self.points = np.asarray(points, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=float)
        self.gens = gens
        self.perms = {lab: np.asarray(p, dtype=np.int64) for lab, p in perms.items()}
        self.metric = metric
        self.name = name
        self._validate()

    # -- invariants -------------------------------------------------------

    def _validate(self) -> None:
        if self.points.ndim not in (1, 2):
            raise ValueError("points must be integers or vectors of integers")
        n = len(self.points)
        if self.weights.shape != (n,):
            raise ValueError("weights length does not match number of points")
        if np.any(self.weights < -PROB_TOL):
            raise ValueError("negative weight")
        if abs(float(self.weights.sum()) - 1.0) > PROB_TOL:
            raise ValueError("weights do not sum to 1")
        for lab in self.gens.labels:
            if lab not in self.perms:
                raise ValueError(f"missing permutation for generator {lab!r}")
            p = self.perms[lab]
            hit = np.zeros(n, dtype=bool)
            if p.shape == (n,) and np.all((p >= 0) & (p < n)):
                hit[p] = True
            if not hit.all():  # n entries in range, none missed: none repeated
                raise ValueError(f"generator map {lab!r} is not a permutation")
            if np.max(np.abs(self.weights[p] - self.weights)) > PROB_TOL:
                raise ValueError(f"generator map {lab!r} does not preserve weights")
        for lab in self.gens.labels:
            inv = self.gens.inverse_label(lab)
            p, q = self.perms[lab], self.perms[inv]
            if not np.array_equal(p[q], np.arange(n)):
                raise ValueError(f"maps for {lab!r} and {inv!r} are not mutually inverse")

    # -- basic views ------------------------------------------------------

    @property
    def n_points(self) -> int:
        return len(self.points)

    def point_index(self, point) -> int:
        """The index of ``point``: an integer, or a sequence of k integers when
        the points are vectors of k integers.  ``ValueError`` if it is not a
        point of the action."""
        target = np.asarray(point)
        if target.dtype.kind in "iu" and target.shape == self.points.shape[1:]:
            hits = (self.points == target).reshape(self.n_points, -1).all(axis=1)
            if hits.any():
                return int(np.argmax(hits))
        raise ValueError(f"{point} is not a point of {self.name}")

    def identity_element(self) -> GroupElement:
        return GroupElement(np.arange(self.n_points), word_length=0, label="e")

    def generator_element(self, label: str) -> GroupElement:
        el = GroupElement(self.perms[label], word_length=1, label=label)
        if el.is_identity():
            el.word_length = 0
        return el

    @cached_property
    def _orbit_of(self) -> np.ndarray:
        """Orbit id of each point, the orbits numbered by their smallest member."""
        return _components(self.n_points, [self.perms[lab] for lab in self.gens.labels])[1]

    @cached_property
    def _orbits(self) -> List[np.ndarray]:
        order = np.argsort(self._orbit_of, kind="stable")  # ascending within each orbit
        return np.split(order, np.cumsum(np.bincount(self._orbit_of))[:-1])

    def orbits(self) -> List[np.ndarray]:
        """Orbits of the permutation group generated by the generator maps,
        each sorted, in the order of their smallest members."""
        return self._orbits

    def orbit_index(self) -> np.ndarray:
        """Orbit id of each point, indexing ``orbits()``; callers must not write to it."""
        return self._orbit_of


def _components(n: int, maps: Sequence[np.ndarray]) -> Tuple[int, np.ndarray]:
    """Connected components of the graph on n points with an edge x - m[x]
    for each map m: their number, and the label of each point, the
    components numbered in the order of their smallest members.

    Min-label propagation with pointer jumping: every point points at a
    point of its component no larger than itself.  A round hooks, across
    every edge, the root of the larger end onto the smaller root, then jumps
    every pointer to its root; once a round changes nothing, the roots are
    the components' smallest points.
    """
    root = np.arange(n)
    while True:
        hooked = root.copy()
        for m in maps:
            heads = root[m]
            np.minimum.at(hooked, heads, root)
            np.minimum.at(hooked, root, heads)
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            hooked = jumped
        if np.array_equal(hooked, root):
            break
        root = hooked
    is_root = root == np.arange(n)
    return int(is_root.sum()), (np.cumsum(is_root) - 1)[root]


# -- fixed-degree matrices -------------------------------------------------


@dataclass(frozen=True, eq=False)
class FixedDegreeMatrix:
    """An n x n matrix with the same number of slots in every row.

    Slot j of row i holds ``vals[j, i]`` at column ``cols[j, i]``, and
    ``M @ x`` sums a row's slots in slot order.  ``from_slots`` gives every
    row its distinct columns first, ascending, each with the sum of its
    entries, repeats the last column with value 0 in the slots left, and
    keeps as many slots as the row with the most distinct columns needs.
    A Markov operator and an induced SL2 block are sums of a few weighted
    permutation matrices, one per slot, so their rows have equal length.
    """

    cols: np.ndarray  # (degree, n) int64
    vals: np.ndarray  # (degree, n) float64 or complex128

    @staticmethod
    def from_slots(cols: np.ndarray, vals: np.ndarray) -> "FixedDegreeMatrix":
        """Row i holds vals[j, i] at column cols[j, i] for every slot j;
        repeated columns of a row are merged, summed in slot order.  Trailing
        axes of ``vals`` stack matrices with the same columns, merged at once."""
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals)
        order = np.argsort(cols, axis=0, kind="stable")
        cols = np.take_along_axis(cols, order, axis=0)
        vals = np.take_along_axis(vals, order.reshape(order.shape + (1,) * (vals.ndim - 2)),
                                  axis=0)
        first = np.ones(cols.shape, dtype=bool)
        first[1:] = cols[1:] != cols[:-1]
        merged = np.cumsum(first, axis=0) - 1  # the slot each entry lands in
        rows = np.arange(cols.shape[1])
        degree = int(merged[-1].max()) + 1  # the most distinct columns of a row
        out_cols = np.repeat(cols[-1:], degree, axis=0)  # the largest column
        out_vals = np.zeros((degree,) + vals.shape[1:], dtype=vals.dtype)
        for j in range(len(cols)):
            out_cols[merged[j], rows] = cols[j]
            out_vals[merged[j], rows] += vals[j]
        return FixedDegreeMatrix(out_cols, out_vals)

    @property
    def n(self) -> int:
        return self.cols.shape[1]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """M x for a vector x of shape (n,)."""
        terms = self.vals * np.asarray(x).take(self.cols)
        out = terms[0]
        for j in range(1, len(terms)):
            out += terms[j]
        return out

    def apply_rows(self, x: np.ndarray) -> np.ndarray:
        """M applied to every row of x, of shape (k, n): x M^T."""
        out = self.vals[0] * x[:, self.cols[0]]
        for j in range(1, len(self.cols)):
            out += self.vals[j] * x[:, self.cols[j]]
        return out

    def entries(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and values of the stored entries (no padding slot),
        of a matrix built by ``from_slots``."""
        stored = np.ones(self.cols.shape, dtype=bool)
        stored[1:] = self.cols[1:] != self.cols[:-1]
        rows = np.broadcast_to(np.arange(self.n), self.cols.shape)
        return rows[stored], self.cols[stored], self.vals[stored]

    def toarray(self) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=self.vals.dtype)
        rows, cols, vals = self.entries()
        out[rows, cols] = vals
        return out

    def equals(self, other: "FixedDegreeMatrix") -> bool:
        """Entrywise equality of two matrices built by ``from_slots``."""
        return (np.array_equal(self.cols, other.cols)
                and np.array_equal(self.vals, other.vals))


# -- builders --------------------------------------------------------------


def build_cyclic(n: int) -> FiniteAction:
    """Z/n acting on itself by translation, generators {g, g^-1}, uniform weights."""
    if n < 1:
        raise ValueError(f"cyclic order must be >= 1, got {n}")
    idx = np.arange(n, dtype=np.int64)
    gens = GeneratorSystem(labels=("g", "g^-1"), inverses={"g": "g^-1", "g^-1": "g"})
    perms = {"g": (idx + 1) % n, "g^-1": (idx - 1) % n}
    weights = np.full(n, 1.0 / n)
    return FiniteAction(idx, weights, gens, perms, name=f"Z/{n}")


# Integer lifts of the elementary SL2(Z) generators; reduced mod m on use.
SL2_GENERATOR_MATRICES: Dict[str, Tuple[int, int, int, int]] = {
    "e12": (1, 1, 0, 1),
    "e12^-1": (1, -1, 0, 1),
    "e21": (1, 0, 1, 1),
    "e21^-1": (1, 0, -1, 1),
}

_SL2_GENS = GeneratorSystem(
    labels=("e12", "e12^-1", "e21", "e21^-1"),
    inverses={"e12": "e12^-1", "e12^-1": "e12", "e21": "e21^-1", "e21^-1": "e21"},
)


def _sl2_mul(x: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """Products x y mod m of 2x2 matrices stored as rows (a, b, c, d).

    Either side may be a single matrix, multiplied against every row of the
    other.
    """
    a, b, c, d = np.asarray(x).T
    e, f, g, h = np.asarray(y).T
    return np.stack(
        [(a * e + b * g) % m, (a * f + b * h) % m, (c * e + d * g) % m, (c * f + d * h) % m],
        axis=-1,
    )


def _sl2_key(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray,
             m: int) -> np.ndarray:
    """A perfect key in [0, m^3) for each element (a, b, c, d) of SL2(Z/m).

    The second column runs over the coset (b0, d0) + t (a, c), t in Z/m.  With
    g = gcd(a, m), b fixes t mod m / g, and c is a unit mod g, so d // (m / g),
    in [0, g), fixes the rest of t: (a m + c) m + (b // g) g + d // (m / g) is
    injective for every m, also where neither a nor c is a unit.  The entries
    are widened to int64 first, so compact rows do not wrap.
    """
    a, b, c, d = (np.asarray(x, dtype=np.int64) for x in (a, b, c, d))
    g = np.gcd(np.arange(m, dtype=np.int64), m)[a]  # a length-m lookup
    return (a * m + c) * m + (b // g) * g + d // (m // g)


# parents expanded at a time by the closure: about 0.6 kB of temporaries each
_CLOSURE_CHUNK = 1024


def _sl2_order(m: int) -> int:
    """|SL2(Z/m)| = m^3 prod over the primes q dividing m of (1 - q^-2)."""
    order, rest, q = m ** 3, m, 2
    while rest > 1:
        if q * q > rest:
            q = rest  # the cofactor is prime
        if rest % q == 0:
            order = order // (q * q) * (q * q - 1)
            while rest % q == 0:
                rest //= q
        q += 1
    return order


def _sl2_closure(m: int):
    """SL2(Z/m) by breadth-first closure under left multiplication.

    Returns the elements as rows (a, b, c, d) -- the identity first, then in
    order of first discovery by (parent, generator label), as a queue-driven
    search meets them -- their word lengths and ``left[i, j]``, the id of
    s * element i for the j-th label s of ``SL2_GENERATOR_MATRICES``.
    Candidates are looked up in an id table of m^3 entries, the id of each
    element at its ``_sl2_key`` and -1 elsewhere, which is dropped on
    return.  Ids are int32, lengths int8, and the entries are stored in the
    smallest unsigned dtype that holds m - 1 (uint8 for m <= 256); the
    candidate products are taken in int64.

    The element, length and left-product arrays are allocated once at the
    group's order and filled level by level; each level is expanded
    ``_CLOSURE_CHUNK`` parents at a time, in parent order, so no level or
    product list is built and concatenated.  Raises ``RuntimeError`` if the
    generators reach fewer elements than the group has.
    """
    gens = np.array(list(SL2_GENERATOR_MATRICES.values()), dtype=np.int64).reshape(-1, 2, 2) % m
    n = _sl2_order(m)
    elements = np.empty((n, 4), dtype=np.min_scalar_type(m - 1))
    lengths = np.empty(n, dtype=np.int8)
    left = np.empty((n, len(gens)), dtype=np.int32)
    elements[0] = (1 % m, 0, 0, 1 % m)
    lengths[0] = 0
    table = np.full(m ** 3, -1, dtype=left.dtype)
    table[_sl2_key(*elements[:1].T, m)] = 0
    start, count, depth = 0, 1, 0
    while start < count:
        depth += 1
        stop = count  # this level is elements[start:stop]
        for lo in range(start, stop, _CLOSURE_CHUNK):
            hi = min(lo + _CLOSURE_CHUNK, stop)
            # one row per parent, one column per generator: the order of discovery
            parents = elements[lo:hi].astype(np.int64).reshape(-1, 1, 2, 2)
            cands = ((gens @ parents) % m).reshape(-1, 4)
            keys = _sl2_key(*cands.T, m)
            ids = table[keys]
            fresh = np.flatnonzero(ids < 0)
            # a new element met more than once in this chunk is numbered at
            # its first meeting: the table briefly holds that candidate's position
            fresh_keys = keys[fresh]
            table[fresh_keys] = len(keys)
            np.minimum.at(table, fresh_keys, fresh.astype(table.dtype))
            first = fresh[table[fresh_keys] == fresh]
            table[keys[first]] = count + np.arange(len(first))
            ids[fresh] = table[fresh_keys]
            left[lo:hi] = ids.reshape(hi - lo, len(gens))
            elements[count:count + len(first)] = cands[first]
            lengths[count:count + len(first)] = depth
            count += len(first)
        start = stop
    if count != n:
        raise RuntimeError(f"closure reached {count} of the {n} elements of SL2(Z/{m})")
    return elements, lengths, left


class Sl2GroupTable:
    """SL2(Z/m) with its left multiplication table and exact word lengths.

    Elements are the reachable products of the elementary generators (all of
    SL2(Z/m)) in the order of ``build_sl2_quotient(m, "a")``'s points; word
    lengths are breadth-first distances for the symmetric generating set, and
    ``left_mult[label][i]`` is the id of s * element i, a column of
    ``left``.  Walks run on these left products: the law of s_1 ... s_n is
    that of s_n ... s_1, so mu^n(g) = sum_s mu(s) mu^(n-1)(s^-1 g), and the
    inverse of a walk is a left walk of the same word length.
    """

    # |SL2(Z/64)| = 196,608 elements: 4.1 MB of uint8 elements, int32 left products
    # and int8 word lengths; the build peaks at 5.7 MB (tracemalloc) with the id table
    MAX_MODULUS = 64

    def __init__(self, m: int) -> None:
        if not 2 <= m <= self.MAX_MODULUS:
            raise ValueError(f"need modulus in [2, {self.MAX_MODULUS}], got {m}")
        self.m = int(m)
        self.labels = tuple(SL2_GENERATOR_MATRICES)
        self.elements, self.word_length, self.left = _sl2_closure(self.m)
        self.left_mult = dict(zip(self.labels, self.left.T))
        self.identity = 0
        self.n_elements = len(self.elements)

    def walk_steps(self, mu_labels: Dict[str, float]) -> Tuple[np.ndarray, np.ndarray]:
        """The steps of the mu-walk, in the order of ``mu_labels``:
        ``left[g, columns[i]]`` is the id of s_i^-1 g, ``columns[i]`` is -1
        for "e", and ``weights[i]`` is mu(s_i)."""
        columns, weights = [], []
        total = 0.0
        for lab, w in mu_labels.items():
            if not 0.0 <= w < np.inf:  # NaN fails this too
                raise ValueError(f"negative weight or non-finite weight for {lab!r}")
            total += w
            if lab == "e":
                columns.append(-1)
            elif lab in self.left_mult:
                columns.append(self.labels.index(_SL2_GENS.inverse_label(lab)))
            else:
                raise ValueError(f"unknown label {lab!r}")
            weights.append(float(w))
        if abs(total - 1.0) > 1e-12:
            raise ValueError("label weights do not sum to 1")
        return np.array(columns), np.array(weights)


# -- induced blocks of SL2(Z/p) ----------------------------------------------
#
# For p prime, U = {u_t = [[1, t], [0, 1]]} is the stabilizer of e_1, so the
# cosets x U are the nonzero vectors v of F_p^2 (the first column of x), and
# every x is sigma(v) u_t for one t, with the section
#     sigma(v) = [[v_1, 0], [v_2, 1 / v_1]]   if v_1 != 0,
#     sigma(v) = [[0, -1 / v_2], [v_2, 0]]    otherwise.
# Left translations commute with right ones, so the fields with
# f(x u_t) = chi_a(t) f(x), chi_a(t) = exp(2 pi i a t / p), are invariant
# under every averaging operator; they are Ind_U^G chi_a, of dimension
# p^2 - 1, and L^2(G) is their orthogonal sum over a in F_p.  Nonzero vectors
# are numbered v_1 p + v_2 - 1.


def _sl2_section(vectors: np.ndarray, p: int) -> np.ndarray:
    """sigma(v) as rows (a, b, c, d) for nonzero vectors v = (v_1, v_2) mod p."""
    units = np.arange(1, p)
    inverse = np.zeros(p, dtype=np.int64)
    inverse[units] = units[np.argmax(np.outer(units, units) % p == 1, axis=1)]
    x, y = vectors[:, 0], vectors[:, 1]
    on_axis = x == 0
    return np.stack([x, np.where(on_axis, -inverse[y] % p, 0),
                     y, np.where(on_axis, 0, inverse[x])], axis=-1)


def sl2_coset_coordinates(mats: np.ndarray, p: int) -> Tuple[np.ndarray, np.ndarray]:
    """The number of v and the t with x = sigma(v) u_t, for each row x of
    ``mats`` (matrices (a, b, c, d) of SL2(Z/p), p prime)."""
    mats = np.asarray(mats, dtype=np.int64)
    v = mats[:, [0, 2]]
    a, b, c, d = _sl2_section(v, p).T
    # sigma(v)^-1 x = u_t, whose top right entry is t
    t = _sl2_mul(np.stack([d, -b % p, -c % p, a], axis=-1), mats, p)[:, 1]
    return v[:, 0] * p + v[:, 1] - 1, t


def sl2_induced_blocks(p: int, classes: Sequence[int],
                       weights: Dict[str, float]) -> List[FixedDegreeMatrix]:
    """The blocks of A = sum_s mu(s) pi_s on Ind_U^G chi_a, for G = SL2(Z/p),
    one per a in ``classes``.

    ``weights`` gives mu(s) for labels of ``SL2_GENERATOR_MATRICES``, and
    pi_s f(x) = f(s^-1 x) is the left translation of ``build_sl2_quotient(p,
    "a")``.  With s^-1 sigma(v) = sigma(s^-1 v) u_t(s, v), A acts on the
    values F(v) = f(sigma(v)) by

        (A_a F)(v) = sum_s mu(s) chi_a(t(s, v)) F(s^-1 v).

    The field f is l^2-normalized when F is, up to the factor sqrt(p), so the
    spectrum of the symmetrized operator (A + A*) / 2 on L^2(G) is the union
    over a in F_p of the spectra of the returned (M + M^H) / 2, complex
    (p^2 - 1) x (p^2 - 1) matrices with at most 2 |supp mu| slots per row
    (|supp mu| for a symmetric measure, whose M and M^H share columns).  The
    columns do not depend on a, so the blocks are built together.  At a = 0,
    chi_0 = 1 and A_0 is the linear action on the nonzero vectors, a real
    matrix.
    """
    n = p * p - 1
    codes = np.arange(n, dtype=np.int64)
    sections = _sl2_section(np.stack(np.divmod(codes + 1, p), axis=-1), p)
    roots = np.exp(2j * np.pi * np.arange(p) / p)
    cols, vals = [], []
    for lab, w in weights.items():
        inverse = SL2_GENERATOR_MATRICES[_SL2_GENS.inverse_label(lab)]
        col, t = sl2_coset_coordinates(_sl2_mul([x % p for x in inverse], sections, p), p)
        cols.append(col)
        vals.append(w * roots[np.outer(t, classes) % p])  # roots[0] = 1 exactly
    # M^H from the transposed slots, merged in the same slot order, is the
    # exact conjugate transpose of M, so the sum is exactly Hermitian
    inverses = [np.argsort(col) for col in cols]
    m = FixedDegreeMatrix.from_slots(cols, vals)
    m_h = FixedDegreeMatrix.from_slots(inverses,
                                       [val[inv].conj() for val, inv in zip(vals, inverses)])
    both = FixedDegreeMatrix.from_slots(np.concatenate([m.cols, m_h.cols]),
                                        np.concatenate([m.vals, m_h.vals]))
    return [FixedDegreeMatrix(both.cols, both.vals[..., j] * 0.5) for j in range(len(classes))]


def build_sl2_quotient(m: int, variant: str = "b") -> FiniteAction:
    """SL2 fixtures mod m.

    Variant "a": SL2(Z/m) acting on itself by left translation (m >= 2).
    Variant "b": the elementary SL2 generators acting on the torus grid
    (Z/m)^2 by matrix action, uniform weights 1/m^2.  m = 1 is allowed here
    and degenerates to the one-point action.
    """
    if variant not in ("a", "b"):
        raise ValueError(f"variant must be 'a' or 'b', got {variant!r}")
    if variant == "a":
        if m < 2:
            raise ValueError(f"variant 'a' requires modulus >= 2, got {m}")
        elements, _lengths, left = _sl2_closure(m)
        n = len(elements)
        weights = np.full(n, 1.0 / n)
        # the compact rows become int64 points here
        return FiniteAction(elements, weights, _SL2_GENS,
                            dict(zip(SL2_GENERATOR_MATRICES, left.T)), name=f"SL2(Z/{m})")
    if m < 1:
        raise ValueError(f"variant 'b' requires modulus >= 1, got {m}")
    n = m * m
    xs, ys = np.divmod(np.arange(n, dtype=np.int64), m)
    perms = {}
    for lab, (a, b, c, d) in SL2_GENERATOR_MATRICES.items():
        # column vector convention: (x, y) -> (a x + b y, c x + d y) mod m
        nx = (a * xs + b * ys) % m
        ny = (c * xs + d * ys) % m
        perms[lab] = nx * m + ny
    weights = np.full(n, 1.0 / n)
    return FiniteAction(
        np.stack([xs, ys], axis=-1),
        weights,
        _SL2_GENS,
        perms,
        metric=TorusGridMetric(m),
        name=f"SL2 on (Z/{m})^2",
    )


def orbit_restriction(action: FiniteAction, point_index: int) -> FiniteAction:
    """Sub-action on the orbit of one point, weights renormalized.

    Restricting to a single orbit yields an ergodic action; the torus
    fixtures are not transitive (the origin is fixed), so ergodic-theorem
    experiments run on an orbit restriction.
    """
    members = action.orbits()[int(action.orbit_index()[point_index])]
    reindex = np.full(action.n_points, -1, dtype=np.int64)
    reindex[members] = np.arange(len(members))
    perms = {lab: reindex[action.perms[lab][members]] for lab in action.gens.labels}
    w = action.weights[members]
    total = float(w.sum())
    if total <= 0:
        raise ValueError("orbit carries no mass")
    metric = None
    if action.metric is not None:
        metric = SubsetMetricView(action.metric, members)
    point = action.points[point_index].tolist()  # the name shows a vector as a tuple
    return FiniteAction(
        action.points[members], w / total, action.gens, perms, metric=metric,
        name=f"{action.name}|orbit({tuple(point) if isinstance(point, list) else point})",
    )


# -- word balls ------------------------------------------------------------


def word_ball(
    action: FiniteAction, r: int, labels: Optional[Sequence[str]] = None
) -> List[GroupElement]:
    """All distinct realizations of words of length <= r, minimal lengths recorded.

    Breadth-first closure over the generator maps (or over `labels` if
    given); sorted by (word_length, realization) for determinism.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    gens = [action.generator_element(lab) for lab in (labels or action.gens.labels)]
    return element_ball(gens, r, identity=action.identity_element())


def element_ball(
    generators: Iterable[GroupElement], r: int, identity: Optional[GroupElement] = None
) -> List[GroupElement]:
    """Breadth-first closure of a set of elements up to word length r."""
    gens = list(generators)
    if identity is None:
        if not gens:
            raise ValueError("need at least one element to infer the space")
        identity = GroupElement(np.arange(gens[0].degree), word_length=0, label="e")
    found = {identity}
    frontier = [identity]
    for depth in range(1, r + 1):
        new_frontier: List[GroupElement] = []
        for el in frontier:
            for g in gens:
                prod = g.compose(el)
                if prod not in found:
                    prod.word_length = depth
                    found.add(prod)
                    new_frontier.append(prod)
        if not new_frontier:
            break
        frontier = new_frontier
    return sorted(found, key=lambda e: (e.word_length, e.sort_key()))


# -- Cayley graphs ----------------------------------------------------------


class CayleyGraph:
    """Directed edges (v, s.v) per generator label over the action space.

    For actions of a group on itself this is the Cayley graph proper; in
    general it is the Schreier graph of the action.
    """

    def __init__(self, action: FiniteAction, labels: Optional[Sequence[str]] = None):
        self.action = action
        self.labels: Tuple[str, ...] = tuple(labels or action.gens.labels)
        self.n_vertices = action.n_points
        self.edge_targets = {lab: action.perms[lab] for lab in self.labels}

    def is_connected(self) -> bool:
        """Connectivity under this graph's labels, which may be fewer than the
        action's."""
        return _components(self.n_vertices,
                          [self.edge_targets[lab] for lab in self.labels])[0] == 1


# -- serialization -----------------------------------------------------------


def action_to_json(action: FiniteAction) -> dict:
    return {
        "name": action.name,
        "n_points": action.n_points,
        "points": action.points.tolist(),
        "weights": action.weights.tolist(),
        "generators": {
            lab: action.perms[lab].tolist() for lab in action.gens.labels
        },
        "inverses": dict(action.gens.inverses),
    }


def action_fingerprint(action: FiniteAction) -> str:
    blob = json.dumps(action_to_json(action), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()
