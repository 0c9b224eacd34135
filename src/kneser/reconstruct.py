"""Reconstruction of a normal surface as a cell complex.

Cells: vertices are edge crossings, edges are normal arcs in faces, faces
are normal disks.  Identifiers are orbit-level so that the two sides of a
glued face agree on them:

- crossing: (edge orbit, slot), slots 1..m along the orbit direction;
- arc: (face orbit, corner, n) in terms of the orbit's representative slot,
  where n counts arcs outward from that corner (1 = innermost);
- disk: (tet, "tri", v, c) or (tet, "quad", qtype, c), copies c >= 1.

Disks, their boundary arcs and the crossing order along each edge are those
of `normal.disk_boundaries`.
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
    quad_index,
    tri_index,
)
from .triangulation import (
    EDGE_BETWEEN,
    FACE_VERTICES,
    Triangulation,
    _classes,
    components,
    skeleton,
)

Crossing = tuple[int, int]                # (edge orbit, slot)
ArcId = tuple[int, int, int]              # (face orbit, rep corner, n)
DiskId = tuple                            # (tet, kind, which, copy)


@dataclass(frozen=True)
class ArcUse:
    """One traversal of an arc along a disk boundary: the arc, the traversal
    direction against the arc's canonical endpoint order, and the face slot
    through which this disk meets the arc."""

    arc: ArcId
    direction: int
    face_slot: tuple[int, int]


@dataclass(frozen=True)
class DiskComplex:
    """The full cell complex of a normal coordinate vector, together with
    that vector as validated by `build_complex`."""

    coordinates: NormalCoordinates
    disks: tuple[DiskId, ...]
    boundaries: dict  # DiskId -> tuple[ArcUse, ...] in cycle order
    arcs: dict        # ArcId -> (Crossing, Crossing), its two endpoints
    weights_per_edge: tuple[int, ...]

    @property
    def vertex_count(self) -> int:
        seen = set()
        for ends in self.arcs.values():
            seen.update(ends)
        return len(seen)

    @property
    def arc_total(self) -> int:
        return len(self.arcs)

    @property
    def disk_count(self) -> int:
        return len(self.disks)


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


def _arc_lookup(tri: Triangulation, weights: list[int]):
    """Helpers mapping tet-local arc references to orbit-level arcs."""
    sk = skeleton(tri)
    face_orbit = sk.face_orbit.ravel().tolist()
    face_first = sk.face_first.tolist()
    edge_orbit = sk.edge_orbit.ravel().tolist()
    edge_reversed = sk.edge_reversed.ravel().tolist()
    target = (4 * tri.arrays.tet + tri.arrays.face).ravel().tolist()
    images = tri.arrays.image_table().reshape(-1, 4).tolist()

    def arc_use(tet: int, face: int, corner: int, n: int, start: int) -> ArcUse:
        """The traversal of the n-th arc from `corner` in face `face` of
        `tet` that enters on the edge {corner, start}.

        Its direction is +1 when it starts at the arc's canonical first
        endpoint, which lies on the representative edge {corner, x} with
        the smaller third vertex x.
        """
        slot = 4 * tet + face
        orbit = face_orbit[slot]
        rep = divmod(face_first[orbit], 4)
        if (tet, face) != rep:
            # the other slot of an orbit glues to its representative
            if target[slot] != face_first[orbit]:
                raise ConsistencyCheckFailed(
                    f"(tet {tet}, face {face}) does not glue to the representative "
                    f"{rep} of its face orbit"
                )
            corner, start = images[slot][corner], images[slot][start]
        x_rep = min(w for w in FACE_VERTICES[rep[1]] if w != corner)
        return ArcUse(
            arc=(orbit, corner, n),
            direction=1 if start == x_rep else -1,
            face_slot=(tet, face),
        )

    def crossing(tet: int, u: int, v: int, i: int) -> Crossing:
        """The i-th crossing (1-based) from vertex u along edge {u, v} of
        `tet`, as an orbit-level (edge orbit, slot) pair."""
        slot = 6 * tet + EDGE_BETWEEN[u][v]
        m = weights[edge_orbit[slot]]
        pos = i if u < v else m + 1 - i  # position along the ascending direction
        return (edge_orbit[slot], m + 1 - pos if edge_reversed[slot] else pos)

    def arc_crossings(orbit: int, rep_corner: int, n: int):
        rep_tet, rep_face = divmod(face_first[orbit], 4)
        x, y = sorted(w for w in FACE_VERTICES[rep_face] if w != rep_corner)
        return crossing(rep_tet, rep_corner, x, n), crossing(rep_tet, rep_corner, y, n)

    return arc_use, arc_crossings


def build_complex(tri: Triangulation, coords) -> DiskComplex:
    """Build the disk/arc/crossing complex of a valid coordinate vector."""
    coords = check_coordinates(tri, coords)
    weights = edge_weights(tri, coords)
    arc_use, arc_crossings = _arc_lookup(tri, weights)

    disks: list[DiskId] = []
    boundaries: dict[DiskId, tuple] = {}
    arcs: dict[ArcId, tuple[Crossing, Crossing]] = {}
    for disk, walk in disk_boundaries(coords):
        cycle = tuple(arc_use(*arc) for arc in walk)
        disks.append(disk)
        boundaries[disk] = cycle
        for use in cycle:
            if use.arc not in arcs:
                arcs[use.arc] = arc_crossings(*use.arc)

    return DiskComplex(
        coordinates=coords,
        disks=tuple(disks),
        boundaries=boundaries,
        arcs=arcs,
        weights_per_edge=tuple(weights),
    )


def _arc_direction_checks(complex_: DiskComplex) -> dict[ArcId, list[tuple[int, int]]]:
    """ArcId -> [(disk index, traversal direction)]; every arc must occur
    exactly twice over all disk boundaries."""
    incidences: dict[ArcId, list[tuple[int, int]]] = {a: [] for a in complex_.arcs}
    for di, disk in enumerate(complex_.disks):
        for arc_use in complex_.boundaries[disk]:
            incidences[arc_use.arc].append((di, arc_use.direction))
    for aid, inc in incidences.items():
        if len(inc) != 2:
            raise ConsistencyCheckFailed(f"arc {aid} bounds {len(inc)} disks")
    return incidences


def reconstruct(tri: Triangulation, complex_: DiskComplex) -> ReconstructedSurface:
    """Split the surface of `build_complex(tri, coords)` into components,
    compute Euler characteristics, orientability and the vertex-linking
    flag; cross-check cell counts against the coordinate formula."""
    coords = complex_.coordinates
    incidences = _arc_direction_checks(complex_)

    # one class per component; the bit 2-colours the disks so that adjacent
    # disks traverse their shared arc in opposite directions.  A class with
    # no such colouring reads every bit False, which leaves a union asking
    # for two colours unsolved: that class is non-orientable
    a, b, rel = np.array(
        [(d1, d2, s1 == s2) for (d1, s1), (d2, s2) in incidences.values()], dtype=np.int64
    ).reshape(-1, 3).T
    root, bit, _ = components(len(complex_.disks), a, b, rel)
    non_orientable = set(root[a[(bit[a] ^ bit[b]) != rel]].tolist())
    ordered = sorted((g.tolist() for g in _classes(root)), key=lambda g: complex_.disks[g[0]])

    parts = []
    for group in ordered:
        disk_ids = [complex_.disks[i] for i in group]
        comp_coords = [0] * (7 * tri.size)
        for tet, kind, which, _copy in disk_ids:
            if kind == "tri":
                comp_coords[tri_index(tet, which)] += 1
            else:
                comp_coords[quad_index(tet, which)] += 1
        arc_ids = set()
        for disk in disk_ids:
            arc_ids.update(u.arc for u in complex_.boundaries[disk])
        crossings = set()
        for aid in arc_ids:
            crossings.update(complex_.arcs[aid])
        chi = len(crossings) - len(arc_ids) + len(disk_ids)
        parts.append(
            SurfaceComponent(
                coordinates=tuple(comp_coords),
                disk_count=len(disk_ids),
                arc_count=len(arc_ids),
                crossing_count=len(crossings),
                euler_characteristic=chi,
                orientable=group[0] not in non_orientable,
                vertex_linking=all(
                    comp_coords[quad_index(t, j)] == 0
                    for t in range(tri.size)
                    for j in range(3)
                ),
            )
        )

    total_chi = sum(c.euler_characteristic for c in parts)
    vtotal = complex_.vertex_count
    etotal = complex_.arc_total
    ftotal = complex_.disk_count
    if total_chi != vtotal - etotal + ftotal:
        raise ConsistencyCheckFailed(
            "component Euler characteristics disagree with the cell counts"
        )
    if total_chi != euler_from_coordinates(tri, coords):
        raise ConsistencyCheckFailed(
            "cell-count Euler characteristic disagrees with the coordinate formula"
        )
    split = [sum(c.coordinates[i] for c in parts) for i in range(7 * tri.size)]
    if tuple(split) != coords:
        raise ConsistencyCheckFailed("component coordinates do not sum to the surface")

    return ReconstructedSurface(
        coordinates=coords,
        components=tuple(parts),
        vertex_count=vtotal,
        arc_count=etotal,
        disk_count=ftotal,
        euler_characteristic=total_chi,
    )

