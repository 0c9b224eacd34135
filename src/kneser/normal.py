"""Normal surface coordinates: 7 per tetrahedron, matching equations, weight.

Coordinate layout: for tet i, positions 7i..7i+3 count the triangles cutting
off local vertices 0..3, and positions 7i+4..7i+6 count the quadrilaterals
of types 0..2.  Quad type j separates the vertex pair QUAD_PAIRS[j][0] from
QUAD_PAIRS[j][1]; it crosses the four edges running between the two pairs
and misses the two edges inside them.

In a face F = {x, y, v} of a tet with opposite vertex w, the normal arcs
cutting off corner v come from the triangles at v and from the quads of the
type separating {x, y} from {v, w}.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Sequence

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


def arc_count(coords: Sequence[int], tet: int, face: int, corner: int) -> int:
    """Arcs cutting off `corner` in face `face` of tet `tet`."""
    others = [x for x in FACE_VERTICES[face] if x != corner]
    qt = quad_type_separating(others[0], others[1])
    return coords[tri_index(tet, corner)] + coords[quad_index(tet, qt)]


def require_closed(tri: Triangulation) -> None:
    if tri.closed:
        return
    for i in range(tri.size):
        for f in range(4):
            if tri.gluings[i][f] is None:
                raise NotClosed(i, f)
    raise NotClosed(0, 0, "not a closed 3-manifold")


@lru_cache(maxsize=256)
def matching_system(tri: Triangulation) -> tuple[tuple[int, ...], ...]:
    """Integer matrix of the matching equations: 3 rows per face orbit,
    7t columns.  Row (F, v) equates the arc counts of type (F, corner v)
    seen from the two sides of the face orbit F.

    Cached per triangulation and shared by every caller, hence immutable."""
    require_closed(tri)
    sk = skeleton(tri)
    rows: list[tuple[int, ...]] = []
    n = 7 * tri.size
    for orbit in sk.face_orbits:
        i, f = orbit[0]
        g = tri.gluings[i][f]
        assert g is not None
        j, k = g.tet, g.face
        for v in FACE_VERTICES[f]:
            row = [0] * n
            others = [x for x in FACE_VERTICES[f] if x != v]
            row[tri_index(i, v)] += 1
            row[quad_index(i, quad_type_separating(*others))] += 1
            w = g.perm[v]
            others2 = [g.perm[x] for x in others]
            row[tri_index(j, w)] -= 1
            row[quad_index(j, quad_type_separating(*others2))] -= 1
            rows.append(tuple(row))
    return tuple(rows)


def satisfies_matching(tri: Triangulation, coords: Sequence[int]) -> bool:
    """True when coords satisfies every row of `matching_system`: each face
    orbit sees the same arc counts from its two sides."""
    require_closed(tri)
    for orbit in skeleton(tri).face_orbits:
        i, f = orbit[0]
        g = tri.gluings[i][f]
        for v in FACE_VERTICES[f]:
            other_side = arc_count(coords, g.tet, g.face, g.perm[v])
            if arc_count(coords, i, f, v) != other_side:
                return False
    return True


def satisfies_quad_constraint(coords: Sequence[int], ntet: int) -> bool:
    """At most one nonzero quad coordinate per tetrahedron."""
    for i in range(ntet):
        if sum(1 for j in range(3) if coords[quad_index(i, j)] > 0) > 1:
            return False
    return True


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


def edge_weight_in(coords: Sequence[int], tet: int, edge: int) -> int:
    """Crossings of edge `edge` of tet `tet`, counted inside that tet."""
    u, v = EDGE_VERTICES[edge]
    total = coords[tri_index(tet, u)] + coords[tri_index(tet, v)]
    for j in quad_types_crossing_edge(edge):
        total += coords[quad_index(tet, j)]
    return total


def edge_weights(tri: Triangulation, coords: Sequence[int]) -> list[int]:
    """Crossing count per edge orbit; raises if incident tets disagree."""
    sk = skeleton(tri)
    out = []
    for idx, orbit in enumerate(sk.edge_orbits):
        counts = {edge_weight_in(coords, tet, e) for tet, e in orbit}
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
    v = weight(tri, coords)
    sk = skeleton(tri)
    e = 0
    for orbit in sk.face_orbits:
        i, f = orbit[0]
        for corner in FACE_VERTICES[f]:
            e += arc_count(coords, i, f, corner)
    f_cells = sum(coords)
    return v - e + f_cells
