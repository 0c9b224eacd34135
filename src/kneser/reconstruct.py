"""Reconstruction of a normal surface as a cell complex.

Cells: vertices are edge crossings, edges are normal arcs in faces, faces
are normal disks.  Identifiers are orbit-level so that the two sides of a
glued face agree on them:

- crossing: one number along the edge orbits, orbit after orbit, each
  orbit's crossings in its direction;
- arc: (face orbit, corner, n) in terms of the orbit's representative slot,
  where n counts arcs outward from that corner (1 = innermost);
- disk: (tet, offset, copy), offset v for the triangle at vertex v and
  4 + qtype for a quad, copies c >= 1.

The complex is stored only as int arrays whose columns are these
identifiers (`DiskComplex`), filled from one walk of
`normal.disk_boundaries`, which fixes the disks, their boundary arcs and
the crossing order along each edge.  `reconstruct` pairs, colours and
counts the cells with array operations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyCheckFailed
from .normal import (
    NormalCoordinates,
    check_coordinates,
    disk_boundaries,
    edge_weights,
    euler_from_coordinates,
)
from .triangulation import (
    EDGE_BETWEEN,
    FACE_VERTICES,
    Triangulation,
    _firsts,
    components,
    skeleton,
)


@dataclass(frozen=True, eq=False)
class DiskComplex:
    """The full cell complex of a normal coordinate vector, together with
    that vector and its edge weights as validated by `build_complex`.

    disks[k] is (tet, offset, copy) of the k-th disk of the walk.  uses
    lists the boundary arcs of every disk, disk after disk, each cycle in
    order (three for a triangle, four for a quad), as (face orbit, corner,
    n, direction, tet, face): the arc; the direction of the traversal, +1
    when it starts at the arc's canonical first endpoint, which lies on the
    representative edge {corner, x} with the smaller third vertex x; and
    the face slot through which the disk meets the arc.  ends[k] numbers
    the two crossings of use k's arc, the canonical first one first.  The
    arrays are read-only."""

    coordinates: NormalCoordinates
    weights_per_edge: tuple[int, ...]
    disks: np.ndarray
    uses: np.ndarray
    ends: np.ndarray

    def __post_init__(self) -> None:
        for array in (self.disks, self.uses, self.ends):
            array.setflags(write=False)


@dataclass(frozen=True)
class SurfaceComponent:
    """One connected component of a reconstructed normal surface."""

    coordinates: NormalCoordinates
    disk_count: int
    arc_count: int
    crossing_count: int
    euler_characteristic: int
    orientable: bool
    vertex_linking: bool

    @property
    def genus(self) -> int | None:
        if not self.orientable:
            return None
        return (2 - self.euler_characteristic) // 2

    @property
    def is_sphere(self) -> bool:
        return self.euler_characteristic == 2


@dataclass(frozen=True)
class ReconstructedSurface:
    """Cell counts, connectivity and per-component data of a normal surface."""

    coordinates: NormalCoordinates
    components: tuple[SurfaceComponent, ...]
    vertex_count: int
    arc_count: int
    disk_count: int
    euler_characteristic: int

    @property
    def connected(self) -> bool:
        return len(self.components) == 1

    @property
    def orientable(self) -> bool:
        return all(c.orientable for c in self.components)

    @property
    def vertex_linking(self) -> bool:
        return bool(self.components) and all(
            c.vertex_linking for c in self.components
        )


# _EDGE[u, v]: the edge joining local vertices u != v, -1 when u == v
_EDGE = np.array([[-1 if e is None else e for e in row] for row in EDGE_BETWEEN])
# _OTHERS[f, v]: the other two corners of face f at its corner v, ascending
# ((0, 0) at v = f, the vertex off the face)
_OTHERS = np.array([
    [sorted(w for w in FACE_VERTICES[f] if w != v) if v != f else (0, 0) for v in range(4)]
    for f in range(4)
])


def build_complex(tri: Triangulation, coords) -> DiskComplex:
    """Build the disk/arc/crossing complex of a valid coordinate vector.

    Each boundary arc of the walk is mapped to its face orbit's
    representative slot by the gluing of its own slot; the other slot of an
    orbit must glue to its representative, or ConsistencyCheckFailed names
    the first that does not."""
    coords = check_coordinates(tri, coords)
    weights = edge_weights(tri, coords)
    walk = list(disk_boundaries(coords))
    disks = np.array(
        [(tet, which + 4 * (kind == "quad"), c) for (tet, kind, which, c), _ in walk],
        dtype=np.int64,
    ).reshape(-1, 3)
    tet, face, corner, n, start = np.array(
        [arc for _, arcs in walk for arc in arcs], dtype=np.int64
    ).reshape(-1, 5).T

    sk = skeleton(tri)
    slot = 4 * tet + face
    orbit = sk.face_orbit.ravel()[slot]
    rep = sk.face_first[orbit]
    moved = slot != rep
    bad = moved & ((4 * tri.arrays.tet + tri.arrays.face).ravel()[slot] != rep)
    if bad.any():
        k = bad.argmax()
        raise ConsistencyCheckFailed(
            f"(tet {tet[k]}, face {face[k]}) does not glue to the representative "
            f"{divmod(int(rep[k]), 4)} of its face orbit"
        )
    corner = np.where(moved, tri.arrays.images(tet, face, corner), corner)
    start = np.where(moved, tri.arrays.images(tet, face, start), start)
    rep_tet, rep_face = np.divmod(rep, 4)
    lesser, greater = _OTHERS[rep_face, corner].T

    # the n-th crossing from the corner along the representative's edges
    # {corner, lesser} and {corner, greater}, numbered along the edge orbits
    m_orbit = np.array(weights, dtype=np.int64)
    offset = np.cumsum(m_orbit) - m_orbit
    ends = []
    for other in (lesser, greater):
        edge = 6 * rep_tet + _EDGE[corner, other]
        edge_orbit = sk.edge_orbit.ravel()[edge]
        m = m_orbit[edge_orbit]
        ascending = np.where(corner < other, n, m + 1 - n)
        along = np.where(sk.edge_reversed.ravel()[edge], m - ascending, ascending - 1)
        ends.append(offset[edge_orbit] + along)

    return DiskComplex(
        coordinates=coords,
        weights_per_edge=tuple(weights),
        disks=disks,
        uses=np.stack((orbit, corner, n, np.where(start == lesser, 1, -1), tet, face), axis=1),
        ends=np.stack(ends, axis=1),
    )


def _paired(*columns: np.ndarray):
    """Pair the entries whose key columns all agree, by one stable sort of
    the columns packed into one int64 key each.  Returns the two members of
    each pair, in entry order, and the first entry and the size of each key
    that does not occur exactly twice."""
    key, span = np.zeros(len(columns[0]), dtype=np.int64), 1
    for column in columns:
        low = int(column.min(initial=0))
        width = int(column.max(initial=0)) - low + 1
        span *= width
        if span >= 1 << 63:
            raise OverflowError("keys too large to pack into int64")
        key = key * width + (column - low)
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(_firsts(key[order]))
    sizes = np.diff(np.append(starts, len(key)))
    pairs = starts[sizes == 2]
    return order[pairs], order[pairs + 1], order[starts[sizes != 2]], sizes[sizes != 2]


def reconstruct(tri: Triangulation, complex_: DiskComplex) -> ReconstructedSurface:
    """Split the surface of `build_complex(tri, coords)` into components,
    compute Euler characteristics, orientability and the vertex-linking
    flag; cross-check cell counts against the coordinate formula.

    Every arc must bound exactly two disks, or ConsistencyCheckFailed names
    the first arc of the walk that does not.  Components come in order of
    their least disk, read as (tet, kind, which, copy) with a quad before a
    triangle."""
    coords = complex_.coordinates
    disks, uses, ends = complex_.disks, complex_.uses, complex_.ends
    d = len(disks)
    disk_of = np.repeat(np.arange(d), np.where(disks[:, 1] < 4, 3, 4))
    first, second, bad, size = _paired(uses[:, 0], uses[:, 1], uses[:, 2])
    if len(bad):
        k = bad.argmin()
        arc = tuple(uses[bad[k], :3].tolist())
        raise ConsistencyCheckFailed(f"arc {arc} bounds {size[k]} disks")

    # one class per component; the bit 2-colours the disks so that adjacent
    # disks traverse their shared arc in opposite directions.  A class with
    # no such colouring reads every bit False, which leaves a union asking
    # for two colours unsolved: that class is non-orientable
    a, b = disk_of[first], disk_of[second]
    rel = uses[first, 3] == uses[second, 3]
    root, bit, _ = components(d, a, b, rel)
    twisted = np.zeros(d, dtype=bool)
    twisted[root[a[(bit[a] ^ bit[b]) != rel]]] = True
    least = np.flatnonzero(root == np.arange(d))
    tet, offset, copy = disks[least].T
    least = least[np.lexsort((copy, offset % 4, offset < 4, tet))]
    k = len(least)
    number = np.zeros(d, dtype=np.int64)
    number[least] = np.arange(k)
    comp = number[root]

    split = np.zeros((k, 7 * tri.size), dtype=np.int64)
    np.add.at(split, (comp, 7 * disks[:, 0] + disks[:, 1]), 1)
    disk_counts = np.bincount(comp, minlength=k)
    arc_counts = np.bincount(comp[a], minlength=k)
    # each crossing once per component that meets it
    span = ends.max(initial=0) + 1
    crossings = np.sort((comp[disk_of, None] * span + ends).ravel())
    crossing_counts = np.bincount(crossings[_firsts(crossings)] // span, minlength=k)
    chi = crossing_counts - arc_counts + disk_counts
    quad_free = ~split.reshape(k, tri.size, 7)[:, :, 4:].any(axis=(1, 2))
    # the fields of SurfaceComponent, in order, one entry per component
    fields = (disk_counts, arc_counts, crossing_counts, chi, ~twisted[least], quad_free)
    parts = tuple(
        SurfaceComponent(tuple(row), *values)
        for row, *values in zip(split.tolist(), *(field.tolist() for field in fields))
    )

    total_chi = sum(c.euler_characteristic for c in parts)
    vtotal = int(_firsts(np.sort(ends.ravel())).sum())
    etotal = len(first)
    if total_chi != vtotal - etotal + d:
        raise ConsistencyCheckFailed(
            "component Euler characteristics disagree with the cell counts"
        )
    if total_chi != euler_from_coordinates(tri, coords):
        raise ConsistencyCheckFailed(
            "cell-count Euler characteristic disagrees with the coordinate formula"
        )
    if tuple(split.sum(axis=0).tolist()) != coords:
        raise ConsistencyCheckFailed("component coordinates do not sum to the surface")

    return ReconstructedSurface(
        coordinates=coords,
        components=parts,
        vertex_count=vtotal,
        arc_count=etotal,
        disk_count=d,
        euler_characteristic=total_chi,
    )
