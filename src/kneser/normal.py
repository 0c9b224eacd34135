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
quads) that cross each edge of each tet; and the number of normal arcs
each coordinate contributes, face orbits counted on their representative
slots.  Edge weights read the edge orbits and their representatives off
the skeleton's arrays.  Validity, edge weights and the Euler
characteristic are then gathers and sums over a 2-D array of coordinate
rows, exact beyond int64 (`check_coordinate_rows`, `edge_weight_rows`,
`euler_rows`); `check_coordinates`, `edge_weights`, `weight` and
`euler_from_coordinates` are their one-row case.
"""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InconsistentCrossings
from .triangulation import (
    EDGE_VERTICES,
    FACE_VERTICES,
    Triangulation,
    require_closed,
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


# _ARC[f, v]: the offsets in a tet of the triangle and the quad whose disks
# cut off corner v in face f
_ARC = np.array([
    [(v, 4 + quad_type_separating(*(w for w in face if w != v))) if v in face else (0, 0)
     for v in range(4)]
    for face in FACE_VERTICES
])


def arc_count(coords: Sequence[int], tet, face, corner):
    """Arcs cutting off `corner` in face `face` of tet `tet`; tet, face and
    corner may be arrays of one shape, and the counts are then an array."""
    return np.asarray(coords)[7 * np.asarray(tet)[..., None] + _ARC[face, corner]].sum(axis=-1)


# _TRIANGLE_LEGS[v]: the boundary cycle of a triangle at v, as (start,
# missing) per arc: with w1 < w2 < w3 the other vertices, edge {v,w1} ->
# face missing w3 -> edge {v,w2} -> face missing w1 -> edge {v,w3} -> face
# missing w2 -> close
_TRIANGLE_LEGS = tuple(
    ((w1, w3), (w2, w1), (w3, w2))
    for w1, w2, w3 in ([w for w in range(4) if w != v] for v in range(4))
)


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
        for v, legs in enumerate(_TRIANGLE_LEGS):
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


class CoordinateTable(NamedTuple):
    """Coordinate indices that the linear tests of one triangulation read.

    matching[r] = (a, b, c, d): row r of `matching_system` says
    x[a] + x[b] == x[c] + x[d], the arc count of one corner seen from the
    two sides of a face orbit (a triangle and a quad index on each side).
    Edge e of tet i crosses the four coordinates edge_slots[:, 6i + e] (two
    triangles, two quads); its orbit and the orbit representatives are the
    skeleton's.  arcs[i] is how many normal arcs one disk of coordinate i
    has in the representative slots of the face orbits."""

    matching: np.ndarray
    edge_slots: np.ndarray
    arcs: np.ndarray


# _EDGE_SLOT[e]: the offsets in a tet of the two triangles and two quads
# whose disks cross edge e
_EDGE_SLOT = np.array([
    (u, v, *(4 + j for j in quad_types_crossing_edge(e)))
    for e, (u, v) in enumerate(EDGE_VERTICES)
])


@lru_cache(maxsize=256)
def coordinate_table(tri: Triangulation) -> CoordinateTable:
    """The index table of tri, read off its skeleton and gluing arrays
    once and shared by every caller.  Matching rows come from the face
    orbits whose representative (least) slot is glued, in orbit order."""
    tet, face = np.divmod(skeleton(tri).face_first, 4)
    corner = np.array(FACE_VERTICES)[face]
    near = 7 * tet[:, None, None] + _ARC[face[:, None], corner]
    glued = tri.arrays.glued[tet, face]
    tet, face, corner = tet[glued, None], face[glued, None], corner[glued]
    image = tri.arrays.images(tet, face, corner)
    far = 7 * tri.arrays.tet[tet, face, None] + _ARC[tri.arrays.face[tet, face], image]
    table = CoordinateTable(
        np.concatenate([near[glued], far], axis=2).reshape(-1, 4),
        (7 * np.arange(tri.size)[:, None, None] + _EDGE_SLOT).reshape(-1, 4).T,
        np.bincount(near.ravel(), minlength=7 * tri.size),
    )
    for array in table:
        array.setflags(write=False)
    return table


@lru_cache(maxsize=256)
def matching_system(tri: Triangulation) -> np.ndarray:
    """Integer matrix of the matching equations: 3 rows per face orbit,
    7t columns, int64.  Row (F, v) equates the arc counts of type
    (F, corner v) seen from the two sides of the face orbit F.

    Cached per triangulation and shared by every caller, hence read-only."""
    require_closed(tri)
    matching = coordinate_table(tri).matching
    out = np.zeros((len(matching), 7 * tri.size), dtype=np.int64)
    np.add.at(out, (np.arange(len(matching))[:, None], matching), [1, 1, -1, -1])
    out.setflags(write=False)
    return out


def _coordinate_array(tri: Triangulation, rows: Sequence[Sequence[int]]) -> np.ndarray:
    """`rows` as one (k, 7t) array, int64 where every test below sums
    exactly in int64 and of Python ints (dtype object) elsewhere."""
    n = 7 * tri.size
    for coords in rows:
        if len(coords) != n:
            raise ValueError(f"expected {n} coordinates, got {len(coords)}")
    try:
        x = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    except OverflowError:  # entries beyond int64
        return np.array([[int(c) for c in v] for v in rows], dtype=object).reshape(len(rows), n)
    # the longest sum below, the Euler characteristic, adds at most 9n
    # entries' absolute values (edge weights 4n, arcs 4n, disks n)
    bound = (1 << 63) // (16 * max(n, 1))
    if x.max(initial=0) >= bound or x.min(initial=0) <= -bound:
        return x.astype(object)
    return x


def check_coordinate_rows(
    tri: Triangulation, rows: Sequence[Sequence[int]]
) -> np.ndarray:
    """`_coordinate_array(tri, rows)` once its shape, nonnegativity,
    matching equations and quad constraint hold, each check one numpy test
    over every vector.  Where several vectors fail, the first failing check
    in that order names the error."""
    x = _coordinate_array(tri, rows)
    if x.min(initial=0) < 0:
        raise ValueError("normal coordinates must be nonnegative")
    require_closed(tri)
    m = x[:, coordinate_table(tri).matching.T]
    if (m[:, 0] + m[:, 1] != m[:, 2] + m[:, 3]).any():
        raise ValueError("matching equations fail")
    if ((x.reshape(len(x), tri.size, 7)[:, :, 4:] > 0).sum(axis=2) > 1).any():
        raise ValueError("quad constraint fails")
    return x


def edge_weight_rows(tri: Triangulation, rows: Sequence[Sequence[int]]) -> np.ndarray:
    """Crossing count per edge orbit of every vector of `rows`, as a
    (k, edge orbits) array in `_coordinate_array`'s dtype; raises
    InconsistentCrossings for the first vector, and in it the first orbit,
    whose slots disagree."""
    return _edge_weights(tri, _coordinate_array(tri, rows))


def _edge_weights(tri: Triangulation, x: np.ndarray) -> np.ndarray:
    """`edge_weight_rows` of the rows of `_coordinate_array`'s output."""
    sk = skeleton(tri)
    orbit = sk.edge_orbit.ravel()
    per_slot = x[:, coordinate_table(tri).edge_slots].sum(axis=1)
    weights = per_slot[:, sk.edge_first]
    bad = per_slot != weights[:, orbit]
    if bad.any():
        row = bad.any(axis=1).argmax()
        idx = orbit[bad[row]].min()
        counts = sorted(set(per_slot[row, orbit == idx].tolist()))
        raise InconsistentCrossings(f"edge orbit {idx} sees crossing counts {counts}")
    return weights


def euler_rows(tri: Triangulation, rows: Sequence[Sequence[int]]) -> np.ndarray:
    """Euler characteristic of every vector of `rows`, from cell counts
    read off the coordinates: V = edge crossings (the weight), E = normal
    arcs, F = normal disks."""
    x = _coordinate_array(tri, rows)
    arcs = x @ coordinate_table(tri).arcs
    return _edge_weights(tri, x).sum(axis=1) - arcs + x.sum(axis=1)


def check_coordinates(tri: Triangulation, coords: Sequence[int]) -> NormalCoordinates:
    """`check_coordinate_rows` on one vector, as a tuple of ints."""
    return tuple(check_coordinate_rows(tri, [tuple(coords)])[0].tolist())


def edge_weights(tri: Triangulation, coords: Sequence[int]) -> list[int]:
    """`edge_weight_rows` on one vector, as a list of ints."""
    return edge_weight_rows(tri, [coords])[0].tolist()


def weight(tri: Triangulation, coords: Sequence[int]) -> int:
    """Points of the surface on the 1-skeleton, counted with multiplicity."""
    return int(edge_weight_rows(tri, [coords])[0].sum())


def euler_from_coordinates(tri: Triangulation, coords: Sequence[int]) -> int:
    """`euler_rows` on one vector, the cross-check of `reconstruct`."""
    return int(euler_rows(tri, [coords])[0])
