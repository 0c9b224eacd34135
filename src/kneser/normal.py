"""Normal surface coordinates: 7 per tetrahedron, matching equations, weight.

Coordinate layout: for tet i, positions 7i..7i+3 count the triangles cutting
off local vertices 0..3, and positions 7i+4..7i+6 count the quadrilaterals
of types 0..2.  Quad type j separates the vertex pair QUAD_PAIRS[j][0] from
QUAD_PAIRS[j][1]; it crosses the four edges running between the two pairs
and misses the two edges inside them.

In a face F = {x, y, v} of a tet with opposite vertex w, the normal arcs
cutting off corner v come from the triangles at v and from the quads of the
type separating {x, y} from {v, w}.

The linear tests read one index table per triangulation,
`coordinate_table`, built once from the skeleton and cached like
`matching_system`: the four indices (a, b | c, d) of each matching row,
meaning x[a] + x[b] = x[c] + x[d]; the four indices (two triangles, two
quads) that cross each slot of each edge orbit; and the number of normal
arcs each coordinate contributes, face orbits counted on their
representative slots.  Matching, edge weights and the Euler characteristic
are then sums over fixed index tuples, with no per-slot lookup of gluings
or vertex lists; the quad constraint reads the three quads of each tet at
stride 7.
"""
from __future__ import annotations

import operator
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InconsistentCrossings, NotClosed
from .triangulation import (
    EDGE_VERTICES,
    FACE_VERTICES,
    Triangulation,
    skeleton,
)

NormalCoordinates = tuple[int, ...]

# QUAD_PAIRS[j] = (pair containing vertex 0, complementary pair).
QUAD_PAIRS: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = (
    ((0, 1), (2, 3)),
    ((0, 2), (1, 3)),
    ((0, 3), (1, 2)),
)


def quad_type_separating(a: int, b: int) -> int:
    """The quad type whose two vertex pairs are {a,b} and its complement."""
    pair = {a, b} if 0 in (a, b) else {0, 1, 2, 3} - {a, b}
    other = (pair - {0}).pop()
    return other - 1


def quad_types_crossing_edge(e: int) -> tuple[int, int]:
    """The two quad types whose disks cross edge e (they separate its ends)."""
    u, v = EDGE_VERTICES[e]
    skip = quad_type_separating(u, v)
    return tuple(j for j in range(3) if j != skip)  # type: ignore[return-value]


def tri_index(tet: int, v: int) -> int:
    return 7 * tet + v


def quad_index(tet: int, j: int) -> int:
    return 7 * tet + 4 + j


def _arc_indices(tet: int, face: int, corner: int) -> tuple[int, int]:
    """The triangle and quad indices whose disks cut off `corner` in face
    `face` of tet `tet`."""
    others = [x for x in FACE_VERTICES[face] if x != corner]
    return tri_index(tet, corner), quad_index(tet, quad_type_separating(*others))


def arc_count(coords: Sequence[int], tet: int, face: int, corner: int) -> int:
    """Arcs cutting off `corner` in face `face` of tet `tet`."""
    a, b = _arc_indices(tet, face, corner)
    return coords[a] + coords[b]


def disk_boundaries(coords: Sequence[int]):
    """Walk the boundary of every normal disk of a valid coordinate vector.

    Yields (disk, arcs) per disk, tet by tet: the triangles at vertices
    0..3, then the quads, copies in order.  disk is (tet, "tri", v, c) or
    (tet, "quad", qtype, c) with copy c >= 1; arcs lists the boundary arcs
    in cycle order, each as (tet, face, corner, n, start): the n-th arc
    from `corner` in face `face`, entered on the edge {corner, start}.

    Along a directed tet edge u -> v the crossings come in the order:
    triangles at u (copy 1 first), then the quads of the crossing type,
    then triangles at v (copy 1 last).  Quad copies are numbered from the
    QUAD_PAIRS[qt][0] side."""
    for tet in range(len(coords) // 7):
        tcount = coords[7 * tet:7 * tet + 4]
        for v in range(4):
            w1, w2, w3 = (w for w in range(4) if w != v)
            # boundary cycle: edge {v,w1} -> face missing w3 -> edge {v,w2}
            # -> face missing w1 -> edge {v,w3} -> face missing w2 -> close
            legs = ((w1, w3), (w2, w1), (w3, w2))
            for c in range(1, tcount[v] + 1):
                yield (tet, "tri", v, c), [(tet, missing, v, c, a) for a, missing in legs]

        for qtype in range(3):
            qcount = coords[quad_index(tet, qtype)]
            if not qcount:
                continue
            (pa, pb), (pc, pd) = QUAD_PAIRS[qtype]
            for c in range(1, qcount + 1):
                d = qcount + 1 - c  # the same copy counted from the pc, pd side
                # cycle x_{AC} -> x_{AD} -> x_{BD} -> x_{BC} -> x_{AC}
                yield (tet, "quad", qtype, c), [
                    (tet, pb, pa, tcount[pa] + c, pc),
                    (tet, pc, pd, tcount[pd] + d, pa),
                    (tet, pa, pb, tcount[pb] + c, pd),
                    (tet, pd, pc, tcount[pc] + d, pb),
                ]


def require_closed(tri: Triangulation) -> None:
    if tri.closed:
        return
    for i in range(tri.size):
        for f in range(4):
            if tri.gluings[i][f] is None:
                raise NotClosed(i, f)
    raise NotClosed(0, 0, "not a closed 3-manifold")


class CoordinateTable(NamedTuple):
    """Coordinate indices that the linear tests of one triangulation read.

    matching[r] = (a, b, c, d): row r of `matching_system` says
    x[a] + x[b] == x[c] + x[d], the arc count of one corner seen from the
    two sides of a face orbit (a triangle and a quad index on each side).
    edge_slots[e] lists, for each slot of edge orbit e, the four indices
    (two triangles, two quads) whose sum crosses the edge in that slot.
    arcs[i] is how many normal arcs one disk of coordinate i contributes
    when each face orbit is counted on its representative slot."""

    matching: tuple[tuple[int, int, int, int], ...]
    edge_slots: tuple[tuple[tuple[int, int, int, int], ...], ...]
    arcs: tuple[int, ...]


@lru_cache(maxsize=256)
def coordinate_table(tri: Triangulation) -> CoordinateTable:
    """The index table of tri, built once from its skeleton and shared by
    every caller.  Matching rows come from the face orbits whose
    representative slot is glued."""
    sk = skeleton(tri)
    matching = []
    arcs = [0] * (7 * tri.size)
    for orbit in sk.face_orbits:
        i, f = orbit[0]
        g = tri.gluings[i][f]
        for v in FACE_VERTICES[f]:
            near = _arc_indices(i, f, v)
            for x in near:
                arcs[x] += 1
            if g is not None:
                matching.append(near + _arc_indices(g.tet, g.face, g.perm[v]))
    edge_slots = []
    for orbit in sk.edge_orbits:
        slots = []
        for tet, e in orbit:
            u, v = EDGE_VERTICES[e]
            j1, j2 = quad_types_crossing_edge(e)
            slots.append((
                tri_index(tet, u), tri_index(tet, v),
                quad_index(tet, j1), quad_index(tet, j2),
            ))
        edge_slots.append(tuple(slots))
    return CoordinateTable(tuple(matching), tuple(edge_slots), tuple(arcs))


@lru_cache(maxsize=256)
def matching_system(tri: Triangulation) -> tuple[tuple[int, ...], ...]:
    """Integer matrix of the matching equations: 3 rows per face orbit,
    7t columns.  Row (F, v) equates the arc counts of type (F, corner v)
    seen from the two sides of the face orbit F.

    Cached per triangulation and shared by every caller, hence immutable."""
    require_closed(tri)
    n = 7 * tri.size
    rows: list[tuple[int, ...]] = []
    for a, b, c, d in coordinate_table(tri).matching:
        row = [0] * n
        row[a] += 1
        row[b] += 1
        row[c] -= 1
        row[d] -= 1
        rows.append(tuple(row))
    return tuple(rows)


def satisfies_matching(tri: Triangulation, coords: Sequence[int]) -> bool:
    """True when coords satisfies every row of `matching_system`: each face
    orbit sees the same arc counts from its two sides."""
    require_closed(tri)
    x = coords
    return all(
        x[a] + x[b] == x[c] + x[d] for a, b, c, d in coordinate_table(tri).matching
    )


def satisfies_quad_constraint(coords: Sequence[int], ntet: int) -> bool:
    """At most one nonzero quad coordinate per tetrahedron."""
    x = coords
    return not any(
        (x[q] > 0) + (x[q + 1] > 0) + (x[q + 2] > 0) > 1
        for q in range(4, 7 * ntet, 7)
    )


def check_coordinates(tri: Triangulation, coords: Sequence[int]) -> NormalCoordinates:
    """Validate shape, nonnegativity, matching and the quad constraint."""
    coords = tuple(int(c) for c in coords)
    if len(coords) != 7 * tri.size:
        raise ValueError(
            f"expected {7 * tri.size} coordinates, got {len(coords)}"
        )
    if any(c < 0 for c in coords):
        raise ValueError("normal coordinates must be nonnegative")
    if not satisfies_matching(tri, coords):
        raise ValueError("matching equations fail")
    if not satisfies_quad_constraint(coords, tri.size):
        raise ValueError("quad constraint fails")
    return coords


def check_coordinate_rows(
    tri: Triangulation, rows: Sequence[Sequence[int]]
) -> list[NormalCoordinates]:
    """`check_coordinates` on every vector of `rows`, each check one numpy
    test over all of them; the vectors come back as tuples of ints.  Where
    several vectors fail, the first failing check in `check_coordinates`'
    order names the error."""
    require_closed(tri)
    n = 7 * tri.size
    for coords in rows:
        if len(coords) != n:
            raise ValueError(f"expected {n} coordinates, got {len(coords)}")
    try:
        x = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    except OverflowError:  # entries beyond int64
        x = np.array([[int(c) for c in v] for v in rows], dtype=object).reshape(len(rows), n)
    if x.min(initial=0) < 0:
        raise ValueError("normal coordinates must be nonnegative")
    if x.max(initial=0) >= 1 << 61:
        # four entries of a matching row sum exactly in int64 below 2**61
        x = x.astype(object)
    a, b, c, d = np.array(coordinate_table(tri).matching, dtype=np.intp).reshape(-1, 4).T
    if (x[:, a] + x[:, b] != x[:, c] + x[:, d]).any():
        raise ValueError("matching equations fail")
    if ((x.reshape(len(rows), tri.size, 7)[:, :, 4:] > 0).sum(axis=2) > 1).any():
        raise ValueError("quad constraint fails")
    return list(map(tuple, x.tolist()))


def edge_weights(tri: Triangulation, coords: Sequence[int]) -> list[int]:
    """Crossing count per edge orbit; raises if incident tets disagree."""
    x = coords
    out = []
    for idx, slots in enumerate(coordinate_table(tri).edge_slots):
        counts = {x[a] + x[b] + x[c] + x[d] for a, b, c, d in slots}
        if len(counts) != 1:
            raise InconsistentCrossings(
                f"edge orbit {idx} sees crossing counts {sorted(counts)}"
            )
        out.append(counts.pop())
    return out


def weight(tri: Triangulation, coords: Sequence[int]) -> int:
    """Points of the surface on the 1-skeleton, counted with multiplicity."""
    return sum(edge_weights(tri, coords))


def euler_from_coordinates(tri: Triangulation, coords: Sequence[int]) -> int:
    """Euler characteristic from cell counts read off the coordinates:
    V = edge crossings, E = normal arcs, F = normal disks.  Used as the
    independent cross-check against the reconstructed complex."""
    arcs = coordinate_table(tri).arcs
    return weight(tri, coords) - sum(map(operator.mul, arcs, coords)) + sum(coords)
