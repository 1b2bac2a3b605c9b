"""Finite group actions, generator systems, word metrics and Cayley graphs.

Everything downstream (averaging operators, expander certification, random
walks, warped cones) runs on a ``FiniteAction``: a finite probability space
together with one measure-preserving permutation per generator label.  Group
elements are identified by their realization, i.e. by the permutation of the
action space they induce; word lengths are exact breadth-first distances in
the realized group.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "GeneratorSystem",
    "GroupElement",
    "FiniteAction",
    "CayleyGraph",
    "TorusGridMetric",
    "SubsetMetricView",
    "build_cyclic",
    "build_sl2_quotient",
    "word_ball",
    "element_ball",
    "orbit_restriction",
    "is_ergodic",
    "action_to_json",
    "action_fingerprint",
    "SL2_GENERATOR_MATRICES",
    "Sl2GroupTable",
]

PROB_TOL = 1e-12


@dataclass(frozen=True)
class GeneratorSystem:
    """Generator labels together with the inverse involution on labels."""

    labels: Tuple[str, ...]
    inverses: Dict[str, str]
    symmetric: bool = True

    def __post_init__(self) -> None:
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("generator labels must be unique")
        for lab in self.labels:
            if lab not in self.inverses:
                raise ValueError(f"no inverse label recorded for {lab!r}")
        if self.symmetric:
            for lab in self.labels:
                inv = self.inverses[lab]
                if inv not in self.labels:
                    raise ValueError(
                        f"symmetric system but inverse {inv!r} of {lab!r} missing"
                    )
                if self.inverses[inv] != lab:
                    raise ValueError(f"inverse map is not an involution at {lab!r}")

    def inverse_label(self, label: str) -> str:
        return self.inverses[label]


class GroupElement:
    """A group element realized as a permutation of the action space.

    Equality and hashing use the realization only: two words mapping to the
    same permutation are the same element.  ``word_length`` is the length of
    the shortest word known to express the element (exact when produced by
    breadth-first closure).
    """

    __slots__ = ("perm", "word_length", "matrix", "label")

    def __init__(
        self,
        perm: Sequence[int],
        word_length: Optional[int] = None,
        matrix: Optional[Tuple[int, int, int, int]] = None,
        label: Optional[str] = None,
    ) -> None:
        self.perm: Tuple[int, ...] = tuple(int(i) for i in perm)
        self.word_length = word_length
        self.matrix = matrix
        self.label = label

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupElement) and self.perm == other.perm

    def __hash__(self) -> int:
        return hash(self.perm)

    def __repr__(self) -> str:
        tag = self.label if self.label is not None else f"perm{self.perm}"
        return f"GroupElement({tag}, |g|={self.word_length})"

    @property
    def degree(self) -> int:
        return len(self.perm)

    def is_identity(self) -> bool:
        return all(p == i for i, p in enumerate(self.perm))

    def compose(self, other: "GroupElement") -> "GroupElement":
        """Product g*h acting by x -> g(h(x))."""
        if len(self.perm) != len(other.perm):
            raise ValueError("cannot compose elements realized on different spaces")
        gp, hp = self.perm, other.perm
        perm = tuple(gp[hp[i]] for i in range(len(hp)))
        wl = None
        if self.word_length is not None and other.word_length is not None:
            wl = self.word_length + other.word_length
        return GroupElement(perm, word_length=wl)

    def inverse(self) -> "GroupElement":
        inv = [0] * len(self.perm)
        for i, p in enumerate(self.perm):
            inv[p] = i
        return GroupElement(tuple(inv), word_length=self.word_length)

    def perm_array(self) -> np.ndarray:
        return np.asarray(self.perm, dtype=np.int64)

    def key(self) -> str:
        """Stable serialization id."""
        return ",".join(str(i) for i in self.perm)


class TorusGridMetric:
    """Flat-torus metric on the (Z/m)^2 grid, normalized to the unit torus."""

    def __init__(self, m: int) -> None:
        self.m = int(m)

    def distance(self, i: int, j: int) -> float:
        m = self.m
        xi, yi = divmod(int(i), m)
        xj, yj = divmod(int(j), m)
        dx = abs(xi - xj)
        dy = abs(yi - yj)
        dx = min(dx, m - dx)
        dy = min(dy, m - dy)
        return float(np.hypot(dx, dy)) / m

    def distances_from(self, center: int) -> np.ndarray:
        m = self.m
        cx, cy = divmod(int(center), m)
        ax = np.abs(np.arange(m) - cx)
        ax = np.minimum(ax, m - ax)
        ay = np.abs(np.arange(m) - cy)
        ay = np.minimum(ay, m - ay)
        return np.sqrt(ax[:, None] ** 2 + ay[None, :] ** 2).ravel() / m

    def ball(self, center: int, radius: float) -> np.ndarray:
        """Indices within `radius` of `center` (closed ball)."""
        return np.flatnonzero(self.distances_from(center) <= radius + 1e-15)


class SubsetMetricView:
    """A parent metric restricted to a subset of points, without copying."""

    def __init__(self, parent, members: np.ndarray) -> None:
        self.parent = parent
        self.members = np.asarray(members, dtype=np.int64)

    def distance(self, i: int, j: int) -> float:
        return self.parent.distance(int(self.members[i]), int(self.members[j]))

    def distances_from(self, center: int) -> np.ndarray:
        return self.parent.distances_from(int(self.members[center]))[self.members]

    def ball(self, center: int, radius: float) -> np.ndarray:
        return np.flatnonzero(self.distances_from(center) <= radius + 1e-15)


class FiniteAction:
    """A finite probability space with measure-preserving generator maps.

    ``perms[label][i]`` is the index of ``s . x_i``.  Weights form a
    probability vector preserved pointwise by every generator map, and maps
    for a label and its inverse label are mutually inverse permutations.
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
        self.points = list(points)
        self.weights = np.asarray(weights, dtype=float)
        self.gens = gens
        self.perms = {lab: np.asarray(p, dtype=np.int64) for lab, p in perms.items()}
        self.metric = metric
        self.name = name
        self._orbits: Optional[List[np.ndarray]] = None
        self._validate()

    # -- invariants -------------------------------------------------------

    def _validate(self) -> None:
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
            if sorted(p.tolist()) != list(range(n)):
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

    def identity_element(self) -> GroupElement:
        return GroupElement(range(self.n_points), word_length=0, label="e")

    def generator_element(self, label: str) -> GroupElement:
        el = GroupElement(self.perms[label], word_length=1, label=label)
        if el.is_identity():
            el.word_length = 0
        return el

    def orbits(self) -> List[np.ndarray]:
        """Orbits of the permutation group generated by the generator maps."""
        if self._orbits is None:
            n = self.n_points
            seen = np.full(n, -1, dtype=np.int64)
            orbits: List[np.ndarray] = []
            for start in range(n):
                if seen[start] >= 0:
                    continue
                oid = len(orbits)
                queue = deque([start])
                seen[start] = oid
                members = [start]
                while queue:
                    x = queue.popleft()
                    for lab in self.gens.labels:
                        y = int(self.perms[lab][x])
                        if seen[y] < 0:
                            seen[y] = oid
                            members.append(y)
                            queue.append(y)
                orbits.append(np.asarray(sorted(members), dtype=np.int64))
            self._orbits = orbits
        return self._orbits

    def orbit_index(self) -> np.ndarray:
        idx = np.empty(self.n_points, dtype=np.int64)
        for k, orb in enumerate(self.orbits()):
            idx[orb] = k
        return idx


def is_ergodic(action: FiniteAction) -> bool:
    """Transitivity of the generator group on the support of the weights."""
    support = np.flatnonzero(action.weights > 0)
    orbit_of = action.orbit_index()
    return len(set(orbit_of[support].tolist())) <= 1


# -- builders --------------------------------------------------------------


def build_cyclic(n: int) -> FiniteAction:
    """Z/n acting on itself by translation, generators {g, g^-1}, uniform weights."""
    if n < 1:
        raise ValueError(f"cyclic order must be >= 1, got {n}")
    idx = np.arange(n, dtype=np.int64)
    gens = GeneratorSystem(labels=("g", "g^-1"), inverses={"g": "g^-1", "g^-1": "g"})
    perms = {"g": (idx + 1) % n, "g^-1": (idx - 1) % n}
    weights = np.full(n, 1.0 / n)
    return FiniteAction(list(range(n)), weights, gens, perms, name=f"Z/{n}")


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


def _sl2_codes(mats: np.ndarray, m: int) -> np.ndarray:
    return ((mats[:, 0] * m + mats[:, 1]) * m + mats[:, 2]) * m + mats[:, 3]


def _sl2_find(index: Tuple[np.ndarray, np.ndarray], codes: np.ndarray) -> np.ndarray:
    """Ids of the matrices with the given codes, -1 where there is none."""
    sorted_codes, ids = index
    out = np.full(len(codes), -1, dtype=np.int64)
    if len(sorted_codes):
        order = np.argsort(codes)  # sorted queries search several times faster
        pos = np.minimum(np.searchsorted(sorted_codes, codes[order]), len(sorted_codes) - 1)
        hit = sorted_codes[pos] == codes[order]
        out[order[hit]] = ids[pos[hit]]
    return out


def _sl2_closure(m: int):
    """SL2(Z/m) by breadth-first closure under left multiplication.

    Returns the elements as rows (a, b, c, d) -- the identity first, then in
    order of first discovery by (parent, generator label), as a queue-driven
    search meets them -- their word lengths, ``left_mult[label][i]``, the id
    of s * element i, and the lookup index (sorted codes, their ids).
    """
    gens = [np.array([x % m for x in mat], dtype=np.int64)
            for mat in SL2_GENERATOR_MATRICES.values()]
    frontier = np.array([[1 % m, 0, 0, 1 % m]], dtype=np.int64)
    chunks, lengths, products = [frontier], [np.zeros(1, dtype=np.int64)], []
    empty = np.zeros(0, dtype=np.int64)
    # (sorted codes, ids) of the levels at depth - 1 and depth
    previous, current = (empty, empty), (_sl2_codes(frontier, m), np.zeros(1, dtype=np.int64))
    count, depth = 1, 0
    while len(frontier):
        depth += 1
        # one row per parent, one column per generator: the order of discovery
        cands = np.stack([_sl2_mul(g, frontier, m) for g in gens], axis=1)
        codes = _sl2_codes(cands.reshape(-1, 4), m)
        # the generators come in inverse pairs, so s * x lies one level below
        # x, on its level or one level above
        ids = _sl2_find(current, codes)
        miss = np.flatnonzero(ids < 0)
        ids[miss] = _sl2_find(previous, codes[miss])
        fresh = miss[ids[miss] < 0]
        new_codes, first, inverse = np.unique(codes[fresh], return_index=True,
                                              return_inverse=True)
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(first))
        ids[fresh] = count + rank[inverse.ravel()]
        products.append(ids.reshape(len(frontier), len(gens)))
        frontier = cands.reshape(-1, 4)[fresh[np.sort(first)]]
        chunks.append(frontier)
        lengths.append(np.full(len(frontier), depth, dtype=np.int64))
        previous, current = current, (new_codes, count + rank)
        count += len(frontier)
    elements = np.concatenate(chunks)
    left = np.concatenate(products)
    left_mult = {lab: left[:, j] for j, lab in enumerate(SL2_GENERATOR_MATRICES)}
    all_codes = _sl2_codes(elements, m)
    order = np.argsort(all_codes)
    return elements, np.concatenate(lengths), left_mult, (all_codes[order], order)


class Sl2GroupTable:
    """SL2(Z/m) with multiplication tables and exact word lengths.

    Elements are the reachable products of the elementary generators (all of
    SL2(Z/m)) in the order of ``build_sl2_quotient(m, "a")``'s points; word
    lengths are breadth-first distances for the symmetric generating set.
    Matrices are looked up through their sorted flat codes.
    """

    MAX_MODULUS = 64  # |SL2(Z/64)| = 196,608 elements

    def __init__(self, m: int) -> None:
        if not 2 <= m <= self.MAX_MODULUS:
            raise ValueError(f"need modulus in [2, {self.MAX_MODULUS}], got {m}")
        self.m = int(m)
        self.labels = tuple(SL2_GENERATOR_MATRICES)
        self.elements, self.word_length, _left, self._index = _sl2_closure(self.m)
        self.identity = 0
        self.n_elements = len(self.elements)
        self.right_mult = {
            lab: self._lookup(_sl2_mul(self.elements, [x % m for x in mat], m))
            for lab, mat in SL2_GENERATOR_MATRICES.items()
        }

    def _lookup(self, mats: np.ndarray) -> np.ndarray:
        ids = _sl2_find(self._index, _sl2_codes(mats, self.m))
        if np.any(ids < 0):
            raise ValueError("matrix outside the generated group")
        return ids

    def step_distribution(self, mu_labels: Dict[str, float]) -> List[Tuple[Optional[str], float]]:
        out = []
        total = 0.0
        for lab, w in mu_labels.items():
            if w < 0:
                raise ValueError("negative weight")
            total += w
            if lab == "e":
                out.append((None, float(w)))
            elif lab in self.right_mult:
                out.append((lab, float(w)))
            else:
                raise ValueError(f"unknown label {lab!r}")
        if abs(total - 1.0) > 1e-12:
            raise ValueError("label weights do not sum to 1")
        return out

    def convolution_step(self, dist: np.ndarray, mu_labels: Dict[str, float]) -> np.ndarray:
        """One step of the walk distribution under right multiplication."""
        out = np.zeros_like(dist)
        for lab, w in self.step_distribution(mu_labels):
            if lab is None:
                out += w * dist
            else:
                out[self.right_mult[lab]] += w * dist
        return out


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
        elements, _lengths, left_mult, _index = _sl2_closure(m)
        n = len(elements)
        points = [tuple(row) for row in elements.tolist()]
        weights = np.full(n, 1.0 / n)
        return FiniteAction(points, weights, _SL2_GENS, left_mult, name=f"SL2(Z/{m})")
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
    points = [(int(x), int(y)) for x, y in zip(xs, ys)]
    return FiniteAction(
        points,
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
    orbit_of = action.orbit_index()
    oid = int(orbit_of[point_index])
    members = action.orbits()[oid]
    reindex = {int(old): new for new, old in enumerate(members.tolist())}
    n = len(members)
    perms = {}
    for lab in action.gens.labels:
        p = action.perms[lab]
        perms[lab] = np.asarray([reindex[int(p[old])] for old in members], dtype=np.int64)
    w = action.weights[members]
    total = float(w.sum())
    if total <= 0:
        raise ValueError("orbit carries no mass")
    metric = None
    if action.metric is not None:
        metric = SubsetMetricView(action.metric, members)
    points = [action.points[int(old)] for old in members]
    return FiniteAction(
        points, w / total, action.gens, perms, metric=metric,
        name=f"{action.name}|orbit({action.points[point_index]})",
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
        identity = GroupElement(range(gens[0].degree), word_length=0, label="e")
    found: Dict[Tuple[int, ...], GroupElement] = {identity.perm: identity}
    frontier = [identity]
    for depth in range(1, r + 1):
        new_frontier: List[GroupElement] = []
        for el in frontier:
            for g in gens:
                prod = g.compose(el)
                if prod.perm not in found:
                    prod.word_length = depth
                    found[prod.perm] = prod
                    new_frontier.append(prod)
        if not new_frontier:
            break
        frontier = new_frontier
    return sorted(found.values(), key=lambda e: (e.word_length, e.perm))


# -- Cayley graphs ----------------------------------------------------------


class CayleyGraph:
    """Directed edges (v, s.v) per generator label over the action space.

    For actions of a group on itself this is the Cayley graph proper; in
    general it is the Schreier graph of the action.  Symmetric generator
    systems yield symmetric adjacency.
    """

    def __init__(self, action: FiniteAction, labels: Optional[Sequence[str]] = None):
        self.action = action
        self.labels: Tuple[str, ...] = tuple(labels or action.gens.labels)
        self.n_vertices = action.n_points
        self.edge_targets = {lab: action.perms[lab] for lab in self.labels}

    def edges(self) -> List[Tuple[int, int]]:
        out = []
        for lab in self.labels:
            tgt = self.edge_targets[lab]
            out.extend((v, int(tgt[v])) for v in range(self.n_vertices))
        return out

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n_vertices, self.n_vertices))
        for lab in self.labels:
            tgt = self.edge_targets[lab]
            np.add.at(a, (np.arange(self.n_vertices), tgt), 1.0)
        return a

    def is_connected(self) -> bool:
        return len(self.action.orbits()) == 1


# -- serialization -----------------------------------------------------------


def action_to_json(action: FiniteAction) -> dict:
    return {
        "name": action.name,
        "n_points": action.n_points,
        "points": [list(p) if isinstance(p, tuple) else p for p in action.points],
        "weights": action.weights.tolist(),
        "generators": {
            lab: action.perms[lab].tolist() for lab in action.gens.labels
        },
        "inverses": dict(action.gens.inverses),
    }


def action_fingerprint(action: FiniteAction) -> str:
    import hashlib

    blob = json.dumps(action_to_json(action), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()
