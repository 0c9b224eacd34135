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
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable, NamedTuple, Sequence

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

# _FACE_EDGES[f] lists the three edges of face f as (e, u, v), where
# EDGE_VERTICES[e] == (u, v).
_FACE_EDGES: tuple[tuple[tuple[int, int, int], ...], ...] = tuple(
    tuple((e, u, v) for e, (u, v) in enumerate(EDGE_VERTICES) if f not in (u, v))
    for f in range(4)
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


# every permutation of 0..3, mapped to its inverse
_PERM_INVERSES: dict[Perm, Perm] = {
    p: perm_inverse(p) for p in permutations(range(4))
}


class Gluing(NamedTuple):
    tet: int
    face: int
    perm: Perm


RawGluing = "tuple[int, int, Perm] | None"


@dataclass(frozen=True)
class Triangulation:
    """Immutable gluing table, with orientation data when orientable.

    gluings[i][f] is the Gluing of face f of tet i, or None for a boundary
    face.  orientations is a per-tet +1/-1 assignment witnessing orientation
    coherence, +1 on the least tet of each component, or None if the
    triangulation is non-orientable.  Both orientations and closed are
    functions of the gluings, so only the gluings are compared and hashed.
    The hash is computed once, since every cache keyed on a triangulation
    hashes it on each lookup.
    """

    gluings: tuple[tuple[Gluing | None, ...], ...]
    orientations: tuple[int, ...] | None = field(compare=False)
    closed: bool = field(compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(self.gluings))

    def __hash__(self) -> int:
        return self._hash

    @property
    def size(self) -> int:
        return len(self.gluings)

    @property
    def orientable(self) -> bool:
        return self.orientations is not None


@dataclass(frozen=True, eq=False)
class SkeletonTable:
    """Orbits of vertices, edges and faces under the gluing identifications.

    Orbits are numbered by their lexicographically least (tet, index) slot,
    which makes every downstream output byte-deterministic.  Each edge slot
    additionally records whether its canonical local direction (ascending
    local vertices) is reversed relative to the orbit direction (the
    representative slot's ascending direction).  reversed_edge is the first
    (tet, edge) slot whose gluings identify the edge with itself in reverse,
    or None.
    """

    vertex_orbits: tuple[tuple[tuple[int, int], ...], ...]
    edge_orbits: tuple[tuple[tuple[int, int], ...], ...]
    face_orbits: tuple[tuple[tuple[int, int], ...], ...]
    vertex_orbit_of: dict[tuple[int, int], int]
    edge_orbit_of: dict[tuple[int, int], tuple[int, bool]]
    face_orbit_of: dict[tuple[int, int], int]
    edge_degrees: tuple[int, ...]
    tet_count: int
    reversed_edge: tuple[int, int] | None

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_orbits)

    @property
    def edge_count(self) -> int:
        return len(self.edge_orbits)

    @property
    def face_count(self) -> int:
        return len(self.face_orbits)

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


class _UnionFind:
    """Union-find where each slot carries an XOR bit relative to its root.

    The root of each class is its least member, so the bit of a slot is
    relative to that member: a 2-colouring that gives the least member
    bit 0.
    """

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.bit = [False] * n

    def find(self, x: int) -> tuple[int, bool]:
        parent = self.parent[x]
        if parent == x:
            return x, False
        if self.parent[parent] == parent:
            # a direct child's bit is already relative to the root
            return parent, self.bit[x]
        path = []
        root = x
        while self.parent[root] != root:
            path.append(root)
            root = self.parent[root]
        acc = False
        for y in reversed(path):
            acc ^= self.bit[y]
            self.parent[y] = root
            self.bit[y] = acc
        return root, self.bit[x]

    def union(self, x: int, y: int, rel: bool) -> bool:
        """Join x, y so that bit(x) ^ bit(y) == rel; False on conflict."""
        rx, bx = self.find(x)
        ry, by = self.find(y)
        if rx == ry:
            return (bx ^ by) == rel
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx
        self.bit[ry] = bx ^ rel ^ by
        return True

    def resolve(self) -> tuple[list[int], list[bool]]:
        """The root and the bit of every slot, in one ascending pass with no
        find: a slot's parent is never greater than the slot, so its root
        and bit are known by the time the slot is reached."""
        roots: list[int] = []
        bits: list[bool] = []
        for x, (p, b) in enumerate(zip(self.parent, self.bit)):
            if p == x:
                roots.append(x)
                bits.append(False)
            else:
                roots.append(roots[p])
                bits.append(b ^ bits[p])
        return roots, bits

    def classes(self) -> list[list[int]]:
        """The classes, each ascending, in order of least member."""
        groups: dict[int, list[int]] = {}
        for x, root in enumerate(self.resolve()[0]):
            groups.setdefault(root, []).append(x)
        return list(groups.values())


def _check_structure(table: Sequence[Sequence[RawGluing]]) -> None:
    t = len(table)
    for i, row in enumerate(table):
        if len(row) != 4:
            raise ValueError(f"tet {i}: expected 4 face entries, got {len(row)}")
        for f, entry in enumerate(row):
            if entry is None:
                continue
            try:
                j, k, p = entry
            except Exception as exc:
                raise ValueError(f"(tet {i}, face {f}): malformed entry") from exc
            if not (0 <= j < t) or not (0 <= k < 4):
                raise ValueError(f"(tet {i}, face {f}): target ({j},{k}) out of range")
            if tuple(p) not in _PERM_INVERSES:
                raise ValueError(f"(tet {i}, face {f}): {p} is not a permutation")
            if p[f] != k:
                raise ValueError(
                    f"(tet {i}, face {f}): permutation must send face {f} to face {k}"
                )


def _tet_unionfind(
    gluings: Sequence[Sequence[Gluing | None]],
) -> tuple[_UnionFind, tuple[int, int] | None]:
    """Union-find over the tets of an involutive gluing table, one union per
    gluing, whose bit says the orientation flips (the gluing permutation is
    even); also reports the first (tet, face) whose gluing contradicts a
    coherent orientation.

    Each gluing is followed from its lesser slot only.  The other slot
    holds the inverse permutation, of the same sign, so its union repeats
    one already made: it can join nothing and contradict nothing first."""
    uf = _UnionFind(len(gluings))
    bad: tuple[int, int] | None = None
    for i, row in enumerate(gluings):
        for f, g in enumerate(row):
            if g is None:
                continue
            j, k, p = g
            if j < i or (j == i and k < f):
                continue
            if not uf.union(i, j, _PERM_SIGNS[p] > 0):
                bad = bad or (i, f)
    return uf, bad


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
    boundary faces, no edge identified with itself in reverse, and Euler
    characteristic zero, which for orientable gluings forces all vertex
    links to be spheres).
    """
    _check_structure(table)

    rows = []
    for i, row in enumerate(table):
        cells = []
        for f, entry in enumerate(row):
            if entry is None:
                cells.append(None)
                continue
            j, k, p = entry
            if j == i and k == f:
                raise SelfGluedFace(i, f)
            back = table[j][k]
            if back is None:
                raise NonInvolutiveGluing(i, f, f"(tet {j}, face {k}) is unglued")
            j2, k2, q = back
            p = tuple(p)
            if j2 != i or k2 != f or tuple(q) != _PERM_INVERSES[p]:
                raise NonInvolutiveGluing(
                    i, f, f"(tet {j}, face {k}) does not glue back with the inverse"
                )
            cells.append(Gluing(j, k, p))
        rows.append(tuple(cells))

    tets, bad = _tet_unionfind(rows)
    orientations: tuple[int, ...] | None = None
    if bad is None:
        orientations = tuple(-1 if b else 1 for b in tets.resolve()[1])
    elif require_orientable:
        raise NonOrientable(*bad)

    tri = Triangulation(gluings=tuple(rows), orientations=orientations, closed=False)
    # closed is neither compared nor hashed, so setting it keeps the skeleton
    # that _closedness caches under tri
    object.__setattr__(tri, "closed", _closedness(tri, demand=require_closed))
    return tri


def _closedness(tri: Triangulation, demand: bool) -> bool:
    """True if tri is a closed 3-manifold; raise NotClosed when demanded."""
    for i in range(tri.size):
        for f in range(4):
            if tri.gluings[i][f] is None:
                if demand:
                    raise NotClosed(i, f)
                return False
    sk = skeleton(tri)
    if sk.reversed_edge is not None:
        if demand:
            tet, edge = sk.reversed_edge
            raise NotClosed(tet, edge, "edge identified with itself in reverse")
        return False
    chi = sk.euler_characteristic
    if chi != 0:
        if demand:
            raise NotClosed(0, 0, f"Euler characteristic {chi} != 0")
        return False
    return True


@lru_cache(maxsize=256)
def skeleton(tri: Triangulation) -> SkeletonTable:
    """Orbit tables of the 0-, 1- and 2-skeleton under the gluings.

    The gluings of a Triangulation are involutive, so each gluing is
    followed from its lesser slot only.  From the other slot it makes the
    same identifications with the same directions, so it could neither
    join two orbits nor be the first to find an edge reversed.  A face
    orbit is a boundary slot alone or the two slots of one gluing.
    """
    t = tri.size

    vf = _UnionFind(4 * t)
    ef = _UnionFind(6 * t)
    face_orbits: list[tuple[tuple[int, int], ...]] = []
    reversed_edge: tuple[int, int] | None = None

    for i, row in enumerate(tri.gluings):
        for f, g in enumerate(row):
            if g is None:
                face_orbits.append(((i, f),))
                continue
            j, k, p = g
            if j < i or (j == i and k < f):
                continue
            face_orbits.append(((i, f), (j, k)))
            for v in FACE_VERTICES[f]:
                vf.union(4 * i + v, 4 * j + p[v], False)
            for e, u, v in _FACE_EDGES[f]:
                pu, pv = p[u], p[v]
                # the bit: the gluing reverses the ascending direction
                if not ef.union(6 * i + e, 6 * j + EDGE_BETWEEN[pu][pv], pu > pv):
                    reversed_edge = reversed_edge or (i, e)

    def slot_orbits(uf: _UnionFind, width: int):
        return tuple(tuple(divmod(s, width) for s in c) for c in uf.classes())

    def orbit_of(orbits):
        return {slot: idx for idx, orbit in enumerate(orbits) for slot in orbit}

    vertex_orbits = slot_orbits(vf, 4)
    edge_orbits = slot_orbits(ef, 6)
    # the root of an edge orbit is its representative slot, so the bit of
    # each slot is its direction relative to the representative's
    edge_bits = ef.resolve()[1]
    edge_orbit_of = {
        slot: (idx, edge_bits[6 * slot[0] + slot[1]])
        for idx, orbit in enumerate(edge_orbits)
        for slot in orbit
    }

    return SkeletonTable(
        vertex_orbits=vertex_orbits,
        edge_orbits=edge_orbits,
        face_orbits=tuple(face_orbits),
        vertex_orbit_of=orbit_of(vertex_orbits),
        edge_orbit_of=edge_orbit_of,
        face_orbit_of=orbit_of(face_orbits),
        edge_degrees=tuple(len(g) for g in edge_orbits),
        tet_count=t,
        reversed_edge=reversed_edge,
    )


def _vertex_adjacency(tri: Triangulation) -> list[set[int]]:
    """tets adjacent iff they share at least one vertex orbit."""
    sk = skeleton(tri)
    adj: list[set[int]] = [set() for _ in range(tri.size)]
    for orbit in sk.vertex_orbits:
        tets = sorted({tet for tet, _ in orbit})
        for a in tets:
            for b in tets:
                if a != b:
                    adj[a].add(b)
    return adj


def quasimetric(tri: Triangulation, a: int, b: int) -> int:
    """Minimal covering chain length between tets a and b, minus one.

    Consecutive tetrahedra of a chain must share at least one vertex (a
    continuous path may pass through any shared point, including vertices).
    """
    if not (0 <= a < tri.size and 0 <= b < tri.size):
        raise ValueError("tetrahedron index out of range")
    if a == b:
        return 0
    dist = _bfs_distances(tri, a)
    if dist[b] < 0:
        raise Disconnected(f"no chain of tetrahedra connects {a} to {b}")
    return dist[b]


def _bfs_distances(tri: Triangulation, source: int) -> list[int]:
    adj = _vertex_adjacency(tri)
    dist = [-1] * tri.size
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
    """Size and d_T-diameter of a set of tetrahedra."""
    sup = frozenset(support)
    if not sup:
        raise EmptySupport("support is empty")
    if any(not (0 <= x < tri.size) for x in sup):
        raise ValueError("support contains an out-of-range tetrahedron index")
    diam = 0
    for a in sorted(sup):
        dist = _bfs_distances(tri, a)
        for b in sorted(sup):
            if dist[b] < 0:
                raise Disconnected(
                    f"support tets {a} and {b} lie in different components"
                )
            diam = max(diam, dist[b])
    return SupportMetrics(support=sup, size=len(sup), diameter=diam)


def connected_components(table: Sequence[Sequence[RawGluing]]) -> list[list[int]]:
    """Tet index classes of a gluing table connected through face gluings,
    each sorted, in order of least tet.

    The table need not be involutive, so every entry is followed, and a
    gluing twice, once from each of its slots: a one-sided gluing still
    joins its two tets, and `validate` then names it as not involutive."""
    uf = _UnionFind(len(table))
    for i, row in enumerate(table):
        for entry in row:
            if entry is not None:
                uf.union(i, entry[0], False)
    return uf.classes()


def restrict(
    table: Sequence[Sequence[RawGluing]], tets: Sequence[int]
) -> Triangulation:
    """Closed orientable sub-triangulation on the given tets of a gluing
    table, in the given order; the tets must be closed under gluings."""
    index = {old: new for new, old in enumerate(tets)}
    rows = []
    for old in tets:
        cells = []
        for entry in table[old]:
            if entry is None:
                cells.append(None)
            else:
                j, k, p = entry
                if j not in index:
                    raise ValueError("tet set is not closed under gluings")
                cells.append((index[j], k, p))
        rows.append(cells)
    return validate(rows)


def split_components(table: Sequence[Sequence[RawGluing]]) -> list[Triangulation]:
    """Components of a gluing table as closed orientable triangulations, in
    sorted tet order.  Past a structural check of the whole table,
    `restrict` validates each component once; every gluing stays inside
    one component, so together they check every row."""
    _check_structure(table)
    return [restrict(table, comp) for comp in connected_components(table)]
