"""Closed orientable triangulated 3-manifolds as face gluing tables.

Conventions used throughout the package:

- A triangulation is a list of abstract tetrahedra 0..t-1, each with local
  vertices 0..3.  Face f of a tetrahedron is the triangle opposite local
  vertex f.
- A gluing of face f of tet i is a triple (j, k, p) meaning: face f of tet i
  is identified with face k of tet j via the vertex permutation p, where p
  maps local vertices of tet i to local vertices of tet j and p(f) = k.
- Edges of a tetrahedron are indexed 0..5 by EDGE_VERTICES below.
- Orientation coherence: there is an assignment o: tets -> {+1, -1} with
  sign(p) = -o(i) * o(j) for every gluing, i.e. all gluing permutations are
  odd once the tetrahedra carry coherent orientations.

Semi-simplicial generality is allowed: two distinct faces of one tetrahedron
may be glued to each other.  A face glued to itself is always rejected.

A table is stored only in its array form (`GluingArrays`): three (t, 4)
int arrays holding the target tet, the target face and the row of the
gluing permutation in `S4`, each BOUNDARY at a boundary face.  Raw rows are
read into it once, by `validate`.  Only this module knows the encoding:
other modules read a table through `GluingArrays` methods, and `Gluing`
rows are read off it only for outside readers, the tests and the
benchmark's relabelling.  The checks are array comparisons, and every
whole-table question (tet orientations and components, vertex and edge orbits,
boundary components in `surgery.cap_boundary`) is answered by one kernel,
`components`, run on the double cover of its nodes: node x with colour c
is 2x + c, and a union asking bit(x) ^ bit(y) == rel joins (x, c) to
(y, c ^ rel).  A class of the cover that holds both colours of a node is a
contradiction, such as an orientation conflict or an edge identified with
itself in reverse; only then is the first contradicting union looked for.
The package's other class questions (`reconstruct`, `collapse`) go to
`components` too, and its spanning forests (`homology`, `vertex_enum`) to
`spanning_forest`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, permutations
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    Disconnected,
    EmptySupport,
    NonInvolutiveGluing,
    NonOrientable,
    NotClosed,
    SelfGluedFace,
)

Perm = tuple[int, int, int, int]

# Edge e has endpoints EDGE_VERTICES[e], listed ascending so that the edge
# index determines a canonical local direction.
EDGE_VERTICES: tuple[tuple[int, int], ...] = (
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
)

# EDGE_BETWEEN[u][v] is the edge joining local vertices u != v (None when
# u == v).
EDGE_BETWEEN: tuple[tuple[int | None, ...], ...] = tuple(
    tuple(
        EDGE_VERTICES.index((min(u, v), max(u, v))) if u != v else None
        for v in range(4)
    )
    for u in range(4)
)

# FACE_VERTICES[f] lists the vertices of face f (ascending).
FACE_VERTICES: tuple[tuple[int, int, int], ...] = (
    (1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2),
)


# (-1) ** (number of inversions) of every 3- and 4-tuple of distinct values
# in 0..3
_PERM_SIGNS: dict[tuple[int, ...], int] = {
    p: (-1) ** sum(a > b for a, b in combinations(p, 2))
    for r in (3, 4)
    for p in permutations(range(4), r)
}


def perm_sign(p: tuple[int, ...]) -> int:
    """Sign of the permutation that sorts p, a 3- or 4-tuple of distinct
    values in 0..3: +1 even, -1 odd."""
    return _PERM_SIGNS[p]


def perm_inverse(p: Perm) -> Perm:
    q = [0, 0, 0, 0]
    for v in range(4):
        q[p[v]] = v
    return (q[0], q[1], q[2], q[3])


def perm_compose(p: Perm, q: Perm) -> Perm:
    """Composition p after q: (p o q)(v) = p[q[v]]."""
    return (p[q[0]], p[q[1]], p[q[2]], p[q[3]])


# The array form: a permutation is its row in S4, and BOUNDARY marks a
# boundary face in all three arrays.
S4: tuple[Perm, ...] = tuple(permutations(range(4)))  # type: ignore[assignment]
S4_ROW: dict[Perm, int] = {p: r for r, p in enumerate(S4)}
S4_IMAGES = np.array(S4)  # S4_IMAGES[r, v] is the image of v
BOUNDARY = -1
# _INVERSE_ROW[r]: the row of the inverse of row r; the row after S4's,
# _NOT_A_PERM below, stays itself
_INVERSE_ROW = np.array([*(S4_ROW[perm_inverse(p)] for p in S4), len(S4)])
# _COMPOSE[r, s]: the row of row r after row s
_COMPOSE = np.array([[S4_ROW[perm_compose(p, q)] for q in S4] for p in S4])
# _SWAP_ROW[a, b]: the row of the transposition of a and b, the identity
# when a == b
_SWAP_ROW = np.array([
    [S4_ROW[tuple(b if v == a else a if v == b else v for v in range(4))] for b in range(4)]
    for a in range(4)
])
_EVEN = np.array([_PERM_SIGNS[p] > 0 for p in S4])
_FACES = np.arange(4)
# _FACE_SIGN[r, f]: the sign of the images of face f's vertices, ascending,
# under row r
_FACE_SIGN = np.array([
    [_PERM_SIGNS[tuple(p[v] for v in FACE_VERTICES[f])] for f in range(4)] for p in S4
])
_FACE_VERTEX_TABLE = np.array(FACE_VERTICES)
_EDGE_VERTEX_TABLE = np.array(EDGE_VERTICES)
# the three edges of each face, ascending
_FACE_EDGE_TABLE = np.array([
    [e for e, (u, v) in enumerate(EDGE_VERTICES) if f not in (u, v)]
    for f in range(4)
])
# _EDGE_IMAGE[r, e] is the edge that row r sends edge e to, and
# _EDGE_FLIP[r, e] says it reverses the ascending direction
_EDGE_IMAGE = np.array([[EDGE_BETWEEN[p[u]][p[v]] for u, v in EDGE_VERTICES] for p in S4])
_EDGE_FLIP = np.array([[p[u] > p[v] for u, v in EDGE_VERTICES] for p in S4])


class Gluing(NamedTuple):
    tet: int
    face: int
    perm: Perm


RawGluing = "tuple[int, int, Perm] | None"


class GluingArrays(NamedTuple):
    """The array form of a gluing table: tet[i, f], face[i, f] and
    perm[i, f] are the target tet, the target face and the `S4` row of the
    permutation of the gluing of face f of tet i, each BOUNDARY at a
    boundary face.  Shape (t, 4).  Other modules read it through the
    methods below, so that only this module knows the encoding."""

    tet: np.ndarray
    face: np.ndarray
    perm: np.ndarray

    @classmethod
    def written(
        cls, t: int, near: np.ndarray, far: np.ndarray, perm: Sequence[Perm] | np.ndarray,
        onto: GluingArrays | None = None,
    ) -> GluingArrays:
        """The table of t tets in which flat slot near[n] = 4i + f is glued
        to slot far[n] by perm[n], written from the near side only; every
        other slot keeps its entry in the table `onto`, whose tets come
        first, or is a boundary face.  perm is a sequence of 4-tuples or an
        (n, 4) array of images.  Nothing is checked."""
        return cls._of_rows(t, near, far, _s4_rows(perm), onto)

    @classmethod
    def paired(
        cls, t: int, near: np.ndarray, far: np.ndarray, perm: Sequence[Perm] | np.ndarray
    ) -> GluingArrays:
        """`written` from both sides: slot near[n] glued to slot far[n] by
        perm[n], and far[n] back by its inverse."""
        rows = _s4_rows(perm)
        return cls._of_rows(
            t, np.concatenate((near, far)), np.concatenate((far, near)),
            np.concatenate((rows, _INVERSE_ROW[rows])),
        )

    @classmethod
    def _of_rows(
        cls, t: int, near: np.ndarray, far: np.ndarray, rows: np.ndarray,
        onto: GluingArrays | None = None,
    ) -> GluingArrays:
        tet, face, perm = (np.full(4 * t, BOUNDARY) for _ in range(3))
        if onto is not None:
            for new, old in zip((tet, face, perm), onto):
                new[:old.size] = old.ravel()
        tet[near], face[near], perm[near] = far // 4, far % 4, rows
        return cls(tet.reshape(t, 4), face.reshape(t, 4), perm.reshape(t, 4))

    @property
    def glued(self) -> np.ndarray:
        """True at each glued slot, False at each boundary face."""
        return self.perm != BOUNDARY

    def neighbours(self) -> np.ndarray:
        """The target tet of each slot, the slot's own tet at a boundary
        face."""
        own = np.arange(len(self.tet))[:, None]
        return np.where(self.glued, self.tet, own)

    def images(self, tet: np.ndarray, face: np.ndarray, vertex: np.ndarray) -> np.ndarray:
        """The image of local vertex vertex[n] of tet[n] under the gluing of
        its face face[n], which must be glued."""
        return S4_IMAGES[self.perm[tet, face], vertex]

    def image_table(self) -> np.ndarray:
        """The images of local vertices 0..3 under the gluing of each slot,
        shape (t, 4, 4); BOUNDARY throughout at a boundary face."""
        return np.where(self.glued[..., None], S4_IMAGES[self.perm], BOUNDARY)

    def walked(self, keep: np.ndarray, hop: np.ndarray) -> GluingArrays:
        """The table on the tets where keep is True, in order, in which each
        face of a kept tet is glued to where the walk from it next meets a
        kept tet.  The walk follows the gluing of its face; on entering a
        deleted tet i by face f, it crosses to face hop[i, f] by the
        transposition of the two faces and follows that face's gluing on.
        Every walk runs in lockstep.  hop must pair off the faces of each
        deleted tet, so no walk returns to a slot, and every face a walk
        leaves by must be glued.  Nothing is checked."""
        kept = np.flatnonzero(keep)
        slots = (4 * kept[:, None] + _FACES).ravel()
        tet, face, row = (column.ravel()[slots] for column in self)
        active = np.flatnonzero(~keep[tet])
        while len(active):
            i, f = tet[active], face[active]
            out = hop[i, f]
            turned = _COMPOSE[_SWAP_ROW[f, out], row[active]]
            tet[active], face[active] = self.tet[i, out], self.face[i, out]
            row[active] = _COMPOSE[self.perm[i, out], turned]
            active = active[~keep[tet[active]]]
        index = np.cumsum(keep) - 1
        return GluingArrays._of_rows(len(kept), np.arange(len(slots)), 4 * index[tet] + face, row)

    def face_signs(self) -> np.ndarray:
        """+1/-1 per slot: the sign of the map the gluing makes of the
        slot's face vertices, ascending, onto its target's, which is the
        same from both slots of a gluing; +1 at a boundary face."""
        return np.where(self.glued, _FACE_SIGN[self.perm, _FACES], 1)


@dataclass(frozen=True)
class Triangulation:
    """Immutable gluing table, with orientation data when orientable.

    arrays is the table, kept read-only as int64.  orientations is a
    per-tet +1/-1 assignment witnessing orientation coherence, +1 on the
    least tet of each component, or None if the triangulation is
    non-orientable.  gluings[i][f] is the Gluing of face f of tet i, or
    None for a boundary face, read off the arrays when first asked for; no
    module of the package asks, only outside readers (the tests and the
    benchmark's relabelling), and the package reads the arrays.
    orientations and closed are functions of the arrays, so only the
    arrays' bytes are compared and hashed.  The hash is computed once,
    since every cache keyed on a triangulation hashes it on each lookup.
    """

    arrays: GluingArrays = field(compare=False)
    orientations: tuple[int, ...] | None = field(compare=False)
    closed: bool = field(compare=False)
    _bytes: tuple[bytes, ...] = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arrays = GluingArrays(*(np.asarray(column, dtype=np.int64) for column in self.arrays))
        for column in arrays:
            column.setflags(write=False)
        object.__setattr__(self, "arrays", arrays)
        object.__setattr__(self, "_bytes", tuple(column.tobytes() for column in arrays))
        object.__setattr__(self, "_hash", hash(self._bytes))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def gluings(self) -> tuple[tuple[Gluing | None, ...], ...]:
        return _gluing_rows(self.arrays)

    @property
    def size(self) -> int:
        return len(self.arrays.tet)

    @property
    def orientable(self) -> bool:
        return self.orientations is not None


@dataclass(frozen=True, eq=False)
class SkeletonTable:
    """Orbits of vertices, edges and faces under the gluing identifications.

    vertex_orbit[i, v], edge_orbit[i, e] and face_orbit[i, f] number the
    orbit of each slot.  Orbits are numbered by their lexicographically
    least (tet, index) slot, their representative, which makes every
    downstream output byte-deterministic.  vertex_first[k], edge_first[k]
    and face_first[k] are the flat index (4i + v, 6i + e or 4i + f) of the
    representative of orbit k.  edge_reversed[i, e] says whether the slot's
    canonical local direction (ascending local vertices) is reversed
    relative to the orbit direction (the representative slot's ascending
    direction).  reversed_edge is the first (tet, edge) slot whose gluings
    identify the edge with itself in reverse, or None; an orbit that holds
    both directions of an edge has no orbit direction, and every slot of it
    reads False.

    These arrays are the only form of the orbits: a reader that loops in
    Python takes `.tolist()` of what it reads once per call.
    """

    vertex_orbit: np.ndarray
    edge_orbit: np.ndarray
    edge_reversed: np.ndarray
    face_orbit: np.ndarray
    vertex_first: np.ndarray
    edge_first: np.ndarray
    face_first: np.ndarray
    vertex_count: int
    edge_count: int
    face_count: int
    tet_count: int
    reversed_edge: tuple[int, int] | None

    def __post_init__(self) -> None:
        # every caller of the cached skeleton shares these arrays
        for array in (
            self.vertex_orbit, self.edge_orbit, self.edge_reversed, self.face_orbit,
            self.vertex_first, self.edge_first, self.face_first,
        ):
            array.setflags(write=False)

    @property
    def euler_characteristic(self) -> int:
        return (
            self.vertex_count - self.edge_count
            + self.face_count - self.tet_count
        )


@dataclass(frozen=True)
class SupportMetrics:
    """Size and quasimetric diameter of a set of tetrahedra."""

    support: frozenset[int]
    size: int
    diameter: int


def _cover_roots(n: int, a: np.ndarray, b: np.ndarray, rel: np.ndarray) -> np.ndarray:
    """The least node of the class of every node of the double cover of
    nodes 0..n-1, where union i joins 2a + c to 2b + (c ^ rel) for c = 0, 1.

    Min-label hooking, then pointer jumping (Shiloach & Vishkin, J.
    Algorithms 3, 1982).  Every node points at a node of its class no
    greater than itself, so after jumping each points at a root, and each
    root is hooked onto the least root across its unions.  Each round
    hooks a root or stops, so there are at most 2n rounds, and the root
    left in a class is its least node."""
    parent = np.arange(2 * n)
    u = np.concatenate((2 * a, 2 * a + 1))
    far = 2 * b + rel
    v = np.concatenate((far, far ^ 1))
    # equal arrays compare as bytes: one memcmp, without the per-call cost
    # of a ufunc and a reduction that would lead on a small table
    while True:
        pu, pv = parent[u], parent[v]
        if pu.tobytes() == pv.tobytes():
            return parent
        np.minimum.at(parent, pu, pv)
        np.minimum.at(parent, pv, pu)
        while True:
            jumped = parent[parent]
            if jumped.tobytes() == parent.tobytes():
                break
            parent = jumped


def _contradicted(cover: np.ndarray) -> bool:
    return bool((cover[0::2] == cover[1::2]).any())


def _first_contradiction(n: int, a: np.ndarray, b: np.ndarray, rel: np.ndarray) -> int:
    """The least m such that unions 0..m contradict each other, by
    bisection, given that all of them do."""
    lo, hi = 0, len(a) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _contradicted(_cover_roots(n, a[:mid + 1], b[:mid + 1], rel[:mid + 1])):
            hi = mid
        else:
            lo = mid + 1
    return lo


def components(
    n: int, a: np.ndarray, b: np.ndarray, rel: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int | None]:
    """The classes of nodes 0..n-1 under the unions (a[i], b[i], rel[i]),
    each asking bit(a[i]) ^ bit(b[i]) == rel[i].

    Returns (root, bit, first): root[x] is the least member of x's class,
    and first is the index of the first union that contradicts the unions
    before it, or None, looked for by bisection only when there is one.  In
    a class whose unions have a solution, bit[x] is x's bit relative to
    the root, the solution that gives the root bit 0.  A class whose unions
    contradict each other has no solution, and every bit of it is False."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    rel = np.asarray(rel, dtype=np.int64)
    cover = _cover_roots(n, a, b, rel)
    first = _first_contradiction(n, a, b, rel) if _contradicted(cover) else None
    # a contradicted class holds both colours of its least member
    low = cover[0::2]
    return low >> 1, (low & 1).astype(bool), first


def _classes(root: np.ndarray) -> list[np.ndarray]:
    """The members of each class, ascending, in order of least member."""
    if not len(root):
        return []
    order = np.argsort(root, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(root[order])) + 1)


def _firsts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values."""
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return first


def _numbered(root: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each node's class numbered in order of least member, and the least
    member of each class."""
    least = root == np.arange(len(root))
    return (np.cumsum(least) - 1)[root], least.nonzero()[0]


def spanning_forest(
    n: int, a: Sequence[int], b: Sequence[int]
) -> tuple[list[int], list[tuple[int, int, int]]]:
    """A breadth-first spanning forest of the graph on nodes 0..n-1 whose
    edge i joins a[i] and b[i]; loops and repeated edges are allowed.

    Each tree is rooted at the least node of its component, the trees come
    in order of root, and each node takes its edges in index order.
    Returns the roots and the tree steps (edge, parent, child), tree after
    tree, each in breadth-first order; a loop is never a step."""
    a, b = np.asarray(a).tolist(), np.asarray(b).tolist()
    incident: list[list[int]] = [[] for _ in range(n)]
    for i, (x, y) in enumerate(zip(a, b)):
        incident[x].append(i)
        if y != x:
            incident[y].append(i)
    seen = [False] * n
    roots: list[int] = []
    steps: list[tuple[int, int, int]] = []
    for root in range(n):
        if seen[root]:
            continue
        roots.append(root)
        seen[root] = True
        queue = [root]
        for parent in queue:  # the queue grows while it is read
            for i in incident[parent]:
                child = b[i] if a[i] == parent else a[i]
                if not seen[child]:
                    seen[child] = True
                    steps.append((i, parent, child))
                    queue.append(child)
    return roots, steps


_UNGLUED = (BOUNDARY, BOUNDARY, BOUNDARY)
_NOT_A_PERM = len(S4)  # the row that reading a table gives any other p
# the row of each 4-tuple of images in 0..3, keyed 64 p0 + 16 p1 + 4 p2 + p3
_CODE_WEIGHTS = np.array([64, 16, 4, 1])
_CODE_ROW = np.full(256, _NOT_A_PERM)
_CODE_ROW[S4_IMAGES @ _CODE_WEIGHTS] = np.arange(len(S4))


def _s4_rows(perm: Sequence[Perm] | np.ndarray) -> np.ndarray:
    """The S4 row of each permutation in `perm`, a sequence of 4-tuples or
    an (n, 4) array of images; _NOT_A_PERM for any other 4-tuple."""
    p = np.asarray(perm, dtype=np.int64).reshape(-1, 4)
    inside = ((p >= 0) & (p < 4)).all(axis=1)
    return np.where(inside, _CODE_ROW[(p & 3) @ _CODE_WEIGHTS], _NOT_A_PERM)


# _FACE_IMAGE[r, f]: the face that S4 row r sends face f to; the row
# after S4's, read for _NOT_A_PERM and for BOUNDARY, is never compared
_FACE_IMAGE = np.vstack((S4_IMAGES, np.zeros((1, 4), dtype=np.int64)))


def _structure_faults(arrays: GluingArrays) -> np.ndarray:
    """The flat slots, ascending, whose entry is not a gluing: a row that
    is neither BOUNDARY (in all three arrays) nor one of S4's, a target
    tet out of range, or a permutation that does not send the slot's face
    to the target face."""
    tet, face, perm = arrays
    boundary = perm == BOUNDARY
    row = np.where((perm < 0) | (perm > _NOT_A_PERM), _NOT_A_PERM, perm)
    return np.flatnonzero(np.where(
        boundary,
        (tet != BOUNDARY) | (face != BOUNDARY),
        (row == _NOT_A_PERM) | (tet < 0) | (tet >= len(tet))
        | (_FACE_IMAGE[row, _FACES] != face),
    ))


def _gluing_arrays(table: Sequence[Sequence[RawGluing]]) -> GluingArrays:
    """The array form of a raw gluing table, checked for structure: four
    entries per row, each None or (j, k, p) with j a tet, k a face and p a
    permutation sending the entry's face to k.  The first failure in
    row-major order raises ValueError."""
    t = len(table)
    flat: list[int] = []
    put = flat.extend
    row_of = S4_ROW.get
    stop = None  # (message, cause) where reading stopped
    for i, row in enumerate(table):
        if len(row) != 4:
            stop = (f"tet {i}: expected 4 face entries, got {len(row)}", None)
            break
        for f, entry in enumerate(row):
            if entry is None:
                put(_UNGLUED)
                continue
            try:
                j, k, p = entry
            except Exception as exc:
                stop = (f"(tet {i}, face {f}): malformed entry", exc)
                break
            put((j, k, row_of(tuple(p), _NOT_A_PERM)))
        if stop is not None:
            put(_UNGLUED * (-(len(flat) // 3) % 4))  # pad the last row
            break
    try:
        jkr = np.array(flat, dtype=np.int64)
    except OverflowError:
        # a target beyond int64 is as far out of range as the clamped one
        top = max(t, 4)
        jkr = np.array(
            [x if n % 3 == 2 else min(max(x, -1), top) for n, x in enumerate(flat)],
            dtype=np.int64,
        )
    arrays = GluingArrays(*np.ascontiguousarray(jkr.reshape(-1, 4, 3).transpose(2, 0, 1)))
    bad = _structure_faults(arrays)
    if len(bad):
        i, f = divmod(int(bad[0]), 4)
        j, k, p = table[i][f]
        if not (0 <= j < t) or not (0 <= k < 4):
            raise ValueError(f"(tet {i}, face {f}): target ({j},{k}) out of range")
        if tuple(p) not in S4_ROW:
            raise ValueError(f"(tet {i}, face {f}): {p} is not a permutation")
        raise ValueError(
            f"(tet {i}, face {f}): permutation must send face {f} to face {k}"
        )
    if stop is not None:
        message, cause = stop
        raise ValueError(message) from cause
    return arrays


def _check_involution(arrays: GluingArrays) -> None:
    """Raise for the first (tet, face) in row-major order that is glued to
    itself, or whose target does not glue back to it with the inverse."""
    tet, face, perm = arrays
    i = np.arange(len(tet))[:, None]
    # a BOUNDARY index reads the last slot, which only boundary slots do
    bad = np.flatnonzero((perm != BOUNDARY) & (
        ((tet == i) & (face == _FACES))
        | (tet[tet, face] != i) | (face[tet, face] != _FACES)
        | (perm[tet, face] != _INVERSE_ROW[perm])
    ))
    if len(bad):
        i, f = divmod(int(bad[0]), 4)
        j, k = int(tet[i, f]), int(face[i, f])
        if (j, k) == (i, f):
            raise SelfGluedFace(i, f)
        if perm[j, k] == BOUNDARY:
            raise NonInvolutiveGluing(i, f, f"(tet {j}, face {k}) is unglued")
        raise NonInvolutiveGluing(
            i, f, f"(tet {j}, face {k}) does not glue back with the inverse"
        )


def _lesser_slots(arrays: GluingArrays) -> np.ndarray:
    """The flat indices 4i + f, ascending, of the glued slots (i, f) that
    come before their target slot in row-major order (a BOUNDARY target
    comes before every slot).  The target of an involutive gluing holds the
    inverse permutation, so following a gluing from its lesser slot says
    all that it says."""
    tet, face, _ = arrays
    i = np.arange(len(tet))[:, None]
    return np.flatnonzero((tet > i) | ((tet == i) & (face > _FACES)))


def _tet_unions(
    arrays: GluingArrays,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The unions (a, b, rel) over the tets of an involutive table, one per
    gluing from its lesser slot, whose bit says the orientation flips (the
    gluing permutation is even); and the slot of each."""
    slots = _lesser_slots(arrays)
    return (
        slots // 4,
        arrays.tet.ravel()[slots],
        _EVEN[arrays.perm.ravel()[slots]].astype(np.int64),
        slots,
    )


def _orientations(
    arrays: GluingArrays, require_orientable: bool
) -> tuple[int, ...] | None:
    """Coherent orientations, +1 on the least tet of each component, or
    None; with require_orientable, NonOrientable names the first slot whose
    gluing contradicts them."""
    a, b, rel, slots = _tet_unions(arrays)
    t = len(arrays.tet)
    cover = _cover_roots(t, a, b, rel)
    if not _contradicted(cover):
        return tuple(np.where(cover[0::2] & 1, -1, 1).tolist())
    if require_orientable:
        first = _first_contradiction(t, a, b, rel)
        raise NonOrientable(*divmod(int(slots[first]), 4))
    return None


def _gluing_rows(arrays: GluingArrays) -> tuple[tuple[Gluing | None, ...], ...]:
    # tuple.__new__ skips the keyword handling of Gluing's own constructor
    new = tuple.__new__
    entries = iter([
        None if r == BOUNDARY else new(Gluing, (j, k, S4[r]))
        for j, k, r in zip(
            arrays.tet.ravel().tolist(),
            arrays.face.ravel().tolist(),
            arrays.perm.ravel().tolist(),
        )
    ])
    return tuple(zip(entries, entries, entries, entries))


def validate(
    table: Sequence[Sequence[RawGluing]],
    *,
    require_closed: bool = True,
    require_orientable: bool = True,
) -> Triangulation:
    """Check a raw gluing table and build a Triangulation.

    Always enforced: structural sanity, gluing involutivity, no face glued
    to itself.  With require_orientable, a coherent orientation must exist;
    with require_closed, the triangulation must be a closed 3-manifold (no
    boundary faces, no edge identified with itself in reverse, and every
    vertex link a sphere).  Each check raises for its first failure in
    row-major order.
    """
    return _triangulation(
        _gluing_arrays(table),
        require_closed=require_closed,
        require_orientable=require_orientable,
    )


def validate_arrays(
    arrays: GluingArrays,
    *,
    require_closed: bool = True,
    require_orientable: bool = True,
) -> Triangulation:
    """`validate` on a table already in array form, which the
    Triangulation keeps.  A slot whose entry is not a gluing raises
    ValueError; the other checks raise as in `validate`."""
    return _triangulation(
        _checked(arrays), require_closed=require_closed, require_orientable=require_orientable
    )


def _checked(arrays: GluingArrays) -> GluingArrays:
    """arrays as int64, once every slot holds a gluing or a boundary face;
    the first slot that does not raises ValueError."""
    arrays = GluingArrays(*(np.asarray(column, dtype=np.int64) for column in arrays))
    bad = _structure_faults(arrays)
    if len(bad):
        i, f = divmod(int(bad[0]), 4)
        raise ValueError(f"(tet {i}, face {f}): not a gluing")
    return arrays


def _triangulation(
    arrays: GluingArrays, *, require_closed: bool, require_orientable: bool
) -> Triangulation:
    """`validate` past the structural checks, keeping the array form."""
    _check_involution(arrays)
    tri = Triangulation(
        arrays, orientations=_orientations(arrays, require_orientable), closed=False
    )
    # closed is neither compared nor hashed, so setting it keeps the skeleton
    # that _closedness caches under tri
    object.__setattr__(tri, "closed", _closedness(tri, demand=require_closed))
    return tri


def _closedness(tri: Triangulation, demand: bool) -> bool:
    """True if tri is a closed 3-manifold; raise NotClosed when demanded."""
    boundary = np.flatnonzero(~tri.arrays.glued)
    if len(boundary):
        if demand:
            raise NotClosed(*divmod(int(boundary[0]), 4))
        return False
    sk = skeleton(tri)
    if sk.reversed_edge is not None:
        if demand:
            tet, edge = sk.reversed_edge
            raise NotClosed(tet, edge, "edge identified with itself in reverse", kind="edge")
        return False
    if sk.euler_characteristic != 0:
        # some vertex link is not a sphere (see _link_euler_characteristics)
        if demand:
            chi = _link_euler_characteristics(sk)
            k = int(np.flatnonzero(chi != 2)[0])
            raise NotClosed(
                *divmod(int(sk.vertex_first[k]), 4),
                f"vertex link has Euler characteristic {chi[k]}, not 2",
                kind="vertex",
            )
        return False
    return True


def _link_euler_characteristics(sk: SkeletonTable) -> np.ndarray:
    """The Euler characteristic of the link of each vertex orbit of a table
    with no boundary face: its triangles are the orbit's tet corners, its
    edges the corners of the face orbits and its vertices the ends of the
    edge orbits that lie in the orbit.  With no edge identified with itself
    in reverse each link is a closed surface, so chi <= 2, and the
    manifold's chi is the sum of 1 - chi/2 over the links: it is 0, as a
    closed 3-manifold's is, exactly when every link is a sphere.  So the
    manifold's chi, which costs nothing, gives the verdict, and the links
    are read only to name the first that is not a sphere."""
    vertex, n = sk.vertex_orbit, sk.vertex_count
    tet, edge = np.divmod(sk.edge_first, 6)
    ends = vertex[tet[:, None], _EDGE_VERTEX_TABLE[edge]]
    tet, face = np.divmod(sk.face_first, 4)
    corners = vertex[tet[:, None], _FACE_VERTEX_TABLE[face]]
    return (
        np.bincount(ends.ravel(), minlength=n)
        - np.bincount(corners.ravel(), minlength=n)
        + np.bincount(vertex.ravel(), minlength=n)
    )


def require_closed(tri: Triangulation) -> None:
    """Raise NotClosed, naming what `validate` names, unless tri is a
    closed 3-manifold."""
    if not tri.closed:
        _closedness(tri, demand=True)


@lru_cache(maxsize=256)
def skeleton(tri: Triangulation) -> SkeletonTable:
    """Orbit tables of the 0-, 1- and 2-skeleton under the gluings.

    Each gluing is followed from its lesser slot only, and one
    `components` call takes its edge unions, in row-major order of the
    gluings and ascending edges within a face, then its vertex unions.  The
    first contradicted edge union names reversed_edge.  A face orbit is a
    boundary slot alone or the two slots of one gluing.
    """
    t = tri.size
    tet, face, perm = tri.arrays
    slots = _lesser_slots(tri.arrays)
    i, f = np.divmod(slots, 4)
    j = tet.ravel()[slots][:, None]
    r = perm.ravel()[slots][:, None]
    i = i[:, None]
    e = _FACE_EDGE_TABLE[f]
    v = _FACE_VERTEX_TABLE[f]
    flips = _EDGE_FLIP[r, e].ravel()
    root, bit, first = components(
        10 * t,
        np.concatenate(((6 * i + e).ravel(), (6 * t + 4 * i + v).ravel())),
        np.concatenate((
            (6 * j + _EDGE_IMAGE[r, e]).ravel(),
            (6 * t + 4 * j + S4_IMAGES[r, v]).ravel(),
        )),
        np.concatenate((flips, np.zeros_like(flips))),
    )
    reversed_edge = None
    if first is not None:
        n, c = divmod(first, 3)
        reversed_edge = (int(i[n, 0]), int(e[n, c]))
    edge_orbit, edge_first = _numbered(root[:6 * t])
    vertex_orbit, vertex_first = _numbered(root[6 * t:] - 6 * t)

    # a face orbit is numbered at its representative, its lesser or only slot
    glued = perm.ravel() != BOUNDARY
    rep = ~glued
    rep[slots] = True
    number = np.cumsum(rep) - 1
    partner = np.where(glued, 4 * tet.ravel() + face.ravel(), 0)
    face_orbit = np.where(rep, number, number[partner])
    face_first = rep.nonzero()[0]

    return SkeletonTable(
        vertex_orbit=vertex_orbit.reshape(t, 4),
        edge_orbit=edge_orbit.reshape(t, 6),
        edge_reversed=bit[:6 * t].reshape(t, 6),
        face_orbit=face_orbit.reshape(t, 4),
        vertex_first=vertex_first,
        edge_first=edge_first,
        face_first=face_first,
        vertex_count=len(vertex_first),
        edge_count=len(edge_first),
        face_count=len(face_first),
        tet_count=t,
        reversed_edge=reversed_edge,
    )


def _vertex_adjacency(tri: Triangulation) -> list[set[int]]:
    """tets adjacent iff they share at least one vertex orbit."""
    rows = skeleton(tri).vertex_orbit.tolist()
    tets_of: dict[int, set[int]] = {}
    for tet, row in enumerate(rows):
        for orbit in row:
            tets_of.setdefault(orbit, set()).add(tet)
    return [set().union(*(tets_of[o] for o in row)) - {tet} for tet, row in enumerate(rows)]


def _bfs_distances(adj: list[set[int]], source: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist


def support_metrics(tri: Triangulation, support: Iterable[int]) -> SupportMetrics:
    """Size and d_T-diameter of a set of tetrahedra: one breadth-first
    search per support tet over one adjacency table."""
    sup = frozenset(support)
    if not sup:
        raise EmptySupport("support is empty")
    if any(not (0 <= x < tri.size) for x in sup):
        raise ValueError("support contains an out-of-range tetrahedron index")
    adj = _vertex_adjacency(tri)
    diam = 0
    for a in sorted(sup):
        dist = _bfs_distances(adj, a)
        for b in sorted(sup):
            if dist[b] < 0:
                raise Disconnected(
                    f"support tets {a} and {b} lie in different components"
                )
            diam = max(diam, dist[b])
    return SupportMetrics(support=sup, size=len(sup), diameter=diam)


def _component_classes(arrays: GluingArrays) -> list[np.ndarray]:
    """The tets of each component of a table checked for structure,
    ascending, in order of least tet.  The table need not be involutive,
    so every entry is followed, once from each slot of a gluing: a
    one-sided gluing still joins its two tets, and `validate` then names it
    as not involutive."""
    slots = np.flatnonzero(arrays.glued.ravel())
    zero = np.zeros(len(slots), dtype=np.int64)
    return _classes(components(len(arrays.tet), slots // 4, arrays.tet.ravel()[slots], zero)[0])


def connected_components(arrays: GluingArrays) -> list[list[int]]:
    """Tet index classes of a gluing table connected through face gluings,
    each sorted, in order of least tet.  A slot whose entry is not a
    gluing raises ValueError."""
    return [c.tolist() for c in _component_classes(_checked(arrays))]


def _restricted(arrays: GluingArrays, tets: np.ndarray) -> Triangulation:
    """The closed orientable sub-triangulation on the given tets of a
    table, in the given order, which must be closed under gluings: the
    rows of `tets` sliced out and their targets renumbered, then
    validated."""
    index = np.full(len(arrays.tet), -1)
    index[tets] = np.arange(len(tets))
    perm = arrays.perm[tets]
    glued = perm != BOUNDARY
    tet = np.where(glued, index[np.where(glued, arrays.tet[tets], 0)], BOUNDARY)
    if (tet[glued] < 0).any():
        raise ValueError("tet set is not closed under gluings")
    return _triangulation(
        GluingArrays(tet, arrays.face[tets], perm),
        require_closed=True,
        require_orientable=True,
    )


def split_components(arrays: GluingArrays) -> list[Triangulation]:
    """Components of a gluing table as closed orientable triangulations, in
    sorted tet order.  The table is checked for structure once; its
    components are those of `connected_components`, and each is sliced out,
    renumbered and validated, in order of least tet."""
    arrays = _checked(arrays)
    return [_restricted(arrays, comp) for comp in _component_classes(arrays)]
