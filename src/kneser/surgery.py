"""Destructive crushing along a normal sphere, and the cut-and-cap oracle.

Crushing deletes every tetrahedron containing a quadrilateral and keeps one
tetrahedron (the flattened central piece) for each quad-free tetrahedron.
Between two surviving faces the flattened material forms a chain of wedges:
inside a quad-bearing tetrahedron, the region behind face k is the wedge
pinched onto the edge spanned by k's companions, and flattening it
identifies face k with the other face containing that edge -- the partner
of k inside its own quad pair, via the transposition swapping the pair.
Following these wedge hops across deleted tetrahedra yields the new gluing.

Cut-and-cap is the topologically faithful reference construction: partition
every tetrahedron into the closed complementary cells of the surface,
triangulate each cell boundary canonically, cone each cell from an interior
apex, leave the two sides of every normal disk unglued (the cut), and cone
off the resulting boundary spheres.  It never loses a connected summand and
is used to audit crush outputs, not in the decomposition loop.  Every step
runs on arrays: the cones of the cut come from a few patch templates per
face, fanned once at import, and one sort of int64 keys glues their bases
and sides; the caps and the split into pieces follow on the same arrays.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    ConsistencyCheckFailed,
    InvalidAfterCrush,
    KneserError,
    VertexLinkingRejected,
)
from .normal import QUAD_PAIRS, arc_count
from .reconstruct import _EDGE, DiskComplex, _paired, reconstruct
from .triangulation import (
    EDGE_BETWEEN,
    EDGE_VERTICES,
    FACE_VERTICES,
    GluingArrays,
    Triangulation,
    _check_involution,
    _checked,
    components,
    skeleton,
    split_components,
)


def _quad_partner(qtype: int, k: int) -> int:
    """The other vertex of k's pair for the given quad type."""
    for pair in QUAD_PAIRS[qtype]:
        if k in pair:
            return pair[0] if pair[1] == k else pair[1]
    raise AssertionError


def _quad_types(coords) -> np.ndarray:
    """The quad type of each tet, -1 where it has no quad; valid coordinates
    have at most one quad type per tet."""
    quads = np.array(coords, dtype=np.int64).reshape(-1, 7)[:, 4:]
    return np.where(quads.any(axis=1), quads.argmax(axis=1), -1)


def crush(tri: Triangulation, complex_: DiskComplex) -> list[Triangulation]:
    """Crush a connected, non-vertex-linking normal 2-sphere, given by its
    complex `build_complex(tri, coords)`.

    Deletes quad-bearing tetrahedra (at least one, so the total count
    strictly drops), re-glues the surviving faces across the flattened
    wedges, and returns the connected components of the result, each
    validated once as closed and orientable by `split_components`.  The
    walks across the deleted tets run in lockstep (`GluingArrays.walked`).
    """
    surface = reconstruct(tri, complex_)
    if not (surface.connected and surface.euler_characteristic == 2):
        raise ValueError("crush requires a connected normal 2-sphere")
    if surface.vertex_linking:
        raise VertexLinkingRejected(
            "vertex-linking spheres delete no tetrahedra"
        )
    quads = _quad_types(surface.coordinates)
    table = tri.arrays.walked(quads < 0, _QUAD_PARTNER[quads])
    try:
        return split_components(table)
    except (KneserError, ValueError) as exc:
        raise InvalidAfterCrush(f"crush produced an invalid gluing table: {exc}")


# --------------------------------------------------------------------------
# cut-and-cap
# --------------------------------------------------------------------------
#
# A region of a tetrahedron (t_v triangle copies at vertex v, q quads of one
# type with pairs P = QUAD_PAIRS[qt][0] and P') has a readable name and a
# local number, S being t_0 + ... + t_3:
#   ("corner", v, i)  t_0 + ... + t_{v-1} + i: between triangles i and i+1
#                     at v (i = 0 holds vertex v)
#   ("central",)      S, when q = 0: the truncated-tet core
#   ("wedge", s)      S + s, when q > 0: between the innermost triangles on
#                     pair side s (0 for P) and the outermost quad there
#   ("qprod", c)      S + 1 + c, when q > 1: between quads c and c + 1
# A cell, one region of one tet, is numbered by the tet's first cell plus
# the local number.
#
# The arcs cut each face orbit into patches, seen from its representative
# slot: at each corner w in turn the corner patches (w, i) between arcs i
# and i + 1 (i = 0 holds the corner), then the central patch.  A patch is a
# cycle of nodes, each a crossing ("x", local edge, ascending position) or
# a corner ("v", w), and of sides, side k running from node k to node k + 1
# along a 1-cell: an edge segment (local edge, interval counted from its
# lesser end) or an arc (corner, n).  A side's direction is +1 when it runs
# the 1-cell's way: ascending for a segment, from the smaller third vertex
# of the face for an arc.  A patch is fanned from its least node (the first
# of equal ones) into pieces, whose inner sides are chords, and every piece
# is coned in both slots of its orbit, the representative first.  Each
# normal disk is coned on its near and then its far side (a quad as two
# triangles split by a diagonal), and those cones keep their bases
# unglued: that is the cut.
#
# Cone sides are matched within a cell by integer 1-cell tokens (a, b):
#   segment   a = 6 tet + local edge, b = interval;
#   arc       a = 6t + 4t (4 face orbit + representative corner) + 4 tet
#             + face, b = n, for the arc as seen from slot (tet, face);
#   chord     a = chord base + patch (each slot's patches numbered apart),
#             b = chord;
#   diagonal  a = diagonal base + 2 disk + disk side, b = 0.
# A side is keyed (cell, a, b) and a piece's base (-1, piece, 0), so that
# one sort of the keys, packed into one int64 each, glues the whole cut.
#
# Which node of a patch is least depends only on the face, the patch and
# which corners carry arcs, except in a central patch with arcs at all
# three corners: there the two crossings on the face's least edge {c0, c1}
# compare, x(c0, c1, a_0) at position a_0 against x(c1, c0, a_1) at
# m + 1 - a_1.  (They never tie on a valid surface, where m = a_0 + a_1.)
# So every patch is one of a few templates per face, each fanned once
# here.  A template side is (kind, edge or corner, direction, ci, c0, cm,
# e, ca, k): its interval or n is ci i + c0 + cm m_e + ca a_k, for the
# patch's i, the crossing count m_e of local edge e and the arc count a_k
# at the k-th corner of the face; a chord is (_CHORD, 0, direction, 0,
# chord, 0, 0, 0, 0).

_SEG, _ARC, _CHORD = 0, 1, 2
_EDGE_ENDS = np.array(EDGE_VERTICES)
_FACE_CORNERS = np.array(FACE_VERTICES)
_QUAD_PARTNER = np.array([[_quad_partner(qt, k) for k in range(4)] for qt in range(3)])
# _PAIR_SIDE[qt, v]: 0 if v lies in QUAD_PAIRS[qt][0], else 1
_PAIR_SIDE = np.array([[int(v not in pairs[0]) for v in range(4)] for pairs in QUAD_PAIRS])
# _LEAST_EDGE[f]: the least edge of face f, joining its first two corners
_LEAST_EDGE = _EDGE[_FACE_CORNERS[:, 0], _FACE_CORNERS[:, 1]]


def _segment(w: int, u: int, value: tuple, direction: int) -> tuple:
    """The template side along edge {w, u} at interval `value` (ci, c0,
    ca, k) counted from w, run away from w when direction is +1."""
    ci, c0, ca, k = value
    e = EDGE_BETWEEN[w][u]
    if w < u:
        return (_SEG, e, direction, ci, c0, 0, e, ca, k)
    return (_SEG, e, -direction, -ci, -c0, 1, e, -ca, k)


def _arc(w: int, value: tuple, direction: int) -> tuple:
    ci, c0, ca, k = value
    return (_ARC, w, direction, ci, c0, 0, 0, ca, k)


def _fanned(sides: list, anchor: int) -> list:
    """The pieces of a patch fanned from node `anchor`: piece k - 1 has the
    sides (first, k, last) of the turned cycle, first being side 0 if k = 1
    and else chord k run +1, last side L - 1 if k = L - 2 and else chord
    k + 1 run -1."""
    sides = sides[anchor:] + sides[:anchor]
    end = len(sides) - 1
    return [
        (
            sides[0] if k == 1 else (_CHORD, 0, 1, 0, k, 0, 0, 0, 0),
            sides[k],
            sides[end] if k == end - 1 else (_CHORD, 0, -1, 0, k + 1, 0, 0, 0, 0),
        )
        for k in range(1, end)
    ]


def _templates():
    """The patch templates: _PATCH_TYPE[f, g, flag] numbers the template of
    the corner patches (g, i) at the g-th corner of face f (flag i > 0) and
    of its central patch (g = 3, flag 2 mask + variant, bit k of mask set
    when the k-th corner carries arcs, variant set when the second
    crossing on the least edge is the least node).  Per template: its
    corner (-1 for central), its first piece and its number of pieces;
    per piece, its three sides, field by field: (9, pieces, 3)."""
    i, i_next = (1, 0, 0, 0), (1, 1, 0, 0)
    kinds = np.zeros((4, 4, 16), dtype=np.int64)
    corner, first, count, pieces = [], [], [], []

    def add(w: int, sides: list, anchor: int) -> int:
        fan = _fanned(sides, anchor)
        corner.append(w)
        first.append(len(pieces))
        count.append(len(fan))
        pieces.extend(fan)
        return len(corner) - 1

    for f, cs in enumerate(FACE_VERTICES):
        for g, w in enumerate(cs):
            x, y = (u for u in cs if u != w)
            sides = [_segment(w, x, i, 1), _arc(w, i_next, 1), _segment(w, y, i, -1)]
            kinds[f, g, 0] = add(w, sides, 0)
            # nodes x(w, x, i), x(w, x, i + 1), x(w, y, i + 1), x(w, y, i)
            if EDGE_BETWEEN[w][x] < EDGE_BETWEEN[w][y]:
                anchor = 0 if w < x else 1
            else:
                anchor = 3 if w < y else 2
            kinds[f, g, 1] = add(w, [*sides, _arc(w, i, -1)], anchor)
        for mask in range(8):
            sides, bare = [], []
            for k, w in enumerate(cs):
                nxt, prv = cs[(k + 1) % 3], cs[(k + 2) % 3]
                a_k = (0, 0, 1, k)
                if mask >> k & 1:
                    sides.append(_arc(w, a_k, 1 if prv < nxt else -1))
                else:
                    bare.append(len(sides))
                sides.append(_segment(w, nxt, a_k, 1))
            for variant in (0, 1):
                anchor = bare[0] if bare else 1 + variant
                kinds[f, 3, 2 * mask + variant] = add(-1, sides, anchor)
    pieces = np.moveaxis(np.array(pieces), 2, 0)
    return kinds, np.array(corner), np.array(first), np.array(count), pieces


_PATCH_TYPE, _PATCH_CORNER, _PIECE_FIRST, _PIECE_COUNT, _PIECE_SIDES = _templates()


def _runs(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For runs of the given sizes laid end to end: the run of each
    element and its place in the run."""
    run = np.repeat(np.arange(len(sizes)), sizes)
    return run, np.arange(len(run)) - (np.cumsum(sizes) - sizes)[run]


class _Regions(NamedTuple):
    """Per tet: triangle counts (t, 4), quad type (-1 for none) and count,
    the local number of each corner's first region, S, and the first cell."""

    tcount: np.ndarray
    qtype: np.ndarray
    qcount: np.ndarray
    first_corner: np.ndarray
    core: np.ndarray
    first_cell: np.ndarray

    @classmethod
    def of(cls, x: np.ndarray) -> _Regions:
        """The regions of coordinates x, shaped (t, 7)."""
        tcount = x[:, :4]
        # valid coordinates have at most one quad type per tet
        qcount = x[:, 4:].sum(axis=1)
        qtype = np.where(qcount > 0, x[:, 4:].argmax(axis=1), -1)
        core = tcount.sum(axis=1)
        sizes = core + 1 + qcount
        first_corner = np.cumsum(tcount, axis=1) - tcount
        return cls(tcount, qtype, qcount, first_corner, core, np.cumsum(sizes) - sizes)

    def corner_patch(self, tet, face, corner, i) -> np.ndarray:
        """The local region behind corner patch i at `corner` of `face`."""
        tc = self.tcount[tet, corner]
        qt = self.qtype[tet].clip(0)
        past = i >= tc
        bad = past & ((self.qtype[tet] < 0) | (corner != _QUAD_PARTNER[qt, face]))
        if bad.any():
            k = bad.argmax()
            raise ConsistencyCheckFailed(
                f"patch {i[k]} at corner {corner[k]} of face {face[k]} lies past the "
                "triangle arcs at a corner that no quad cuts"
            )
        n = i - tc
        side = _PAIR_SIDE[qt, corner]
        beyond = np.where(n == 0, side, 1 + np.where(side == 0, n, self.qcount[tet] - n))
        return np.where(past, self.core[tet] + beyond, self.first_corner[tet, corner] + i)

    def central_patch(self, tet, face) -> np.ndarray:
        """The local region behind the central patch of `face`: the core, or
        the wedge away from the corner that the quads cut."""
        qt = self.qtype[tet].clip(0)
        lone = _QUAD_PARTNER[qt, face]
        return self.core[tet] + np.where(self.qtype[tet] < 0, 0, 1 - _PAIR_SIDE[qt, lone])

    def disk_sides(self, tet, quad, which, c) -> tuple[np.ndarray, np.ndarray]:
        """The local regions on the near and far side of each disk: toward
        vertex `which` for triangle copy c, toward pair side 0 for quad
        copy c."""
        core = self.core[tet]
        tri_near = self.first_corner[tet, which] + c - 1
        qt = self.qtype[tet].clip(0)
        wedge = np.where(self.qtype[tet] < 0, 0, _PAIR_SIDE[qt, which])
        tri_far = np.where(c < self.tcount[tet, which], tri_near + 1, core + wedge)
        quad_near = core + np.where(c == 1, 0, c)
        quad_far = core + np.where(c == self.qcount[tet], 1, 1 + c)
        return np.where(quad, quad_near, tri_near), np.where(quad, quad_far, tri_far)

    def name(self, cell: int) -> tuple:
        """The readable (tet, region) of a cell."""
        tet = int(np.searchsorted(self.first_cell, cell, side="right")) - 1
        local = cell - int(self.first_cell[tet])
        core = int(self.core[tet])
        if local < core:
            v = int(np.searchsorted(self.first_corner[tet], local, side="right")) - 1
            return tet, ("corner", v, local - int(self.first_corner[tet, v]))
        if self.qtype[tet] < 0:
            return tet, ("central",)
        if local - core < 2:
            return tet, ("wedge", local - core)
        return tet, ("qprod", local - core - 1)


def _side_gluing(k1: int, k2: int, same: bool) -> tuple[int, int, int, int]:
    """The gluing of cone side k1 to side k2, which runs the
    same way along their 1-cell when `same`: the side's corners go to the
    partner's, the third corners to each other and the apex to the apex."""
    perm = [0, 0, 0, 3]
    if same:
        perm[k1], perm[(k1 + 1) % 3] = k2, (k2 + 1) % 3
    else:
        perm[k1], perm[(k1 + 1) % 3] = (k2 + 1) % 3, k2
    perm[(k1 + 2) % 3] = (k2 + 2) % 3
    return (perm[0], perm[1], perm[2], perm[3])


# _FACE_GLUING[f1, f2, same]: the gluing of cone face f1 to face f2; side k
# lies on face k + 2 (mod 3), and a base (face 3) glues to a base by the
# identity
_FACE_GLUING = np.array([
    [
        [
            (0, 1, 2, 3) if 3 in (f1, f2) else _side_gluing((f1 + 1) % 3, (f2 + 1) % 3, same)
            for same in (False, True)
        ]
        for f2 in range(4)
    ]
    for f1 in range(4)
])


def cut_complex(tri: Triangulation, complex_: DiskComplex) -> GluingArrays:
    """The gluing arrays of the cut-open manifold along the surface of
    `build_complex(tri, coords)`: every complementary cell coned from an
    apex, with the two sides of each normal disk left as boundary faces.

    The cones are built as arrays, in the order of the comment above, from
    the coordinates, the edge weights and the disks and arc uses of the
    complex: each with its cell, three side tokens with directions and, for
    a patch piece, a base key.  One sort of the keys pairs the two
    instances of every piece at their bases and the sides of each 1-cell
    within each cell.  A key that does not occur exactly twice raises
    ConsistencyCheckFailed naming the least such key, a base key before a
    side key.  The arrays are returned once every slot holds a gluing or a
    boundary face and the gluings are involutive, all that the rotations
    of `cap_boundary` need; orientations and closedness are not asked."""
    t = tri.size
    x = np.array(complex_.coordinates, dtype=np.int64).reshape(t, 7)
    sk = skeleton(tri)
    # the crossing count of every edge slot, (t, 6)
    crossings = np.array(complex_.weights_per_edge, dtype=np.int64)[sk.edge_orbit]
    regions = _Regions.of(x)

    # each face orbit seen from its representative slot (2 fo) and from the
    # other one (2 fo + 1), onto which the gluing maps it by `perm`
    rep_tet, rep_face = np.divmod(sk.face_first, 4)
    orbits = len(rep_tet)
    image = tri.arrays.images(rep_tet[:, None], rep_face[:, None], np.arange(4))
    slot_tet = np.stack((rep_tet, tri.arrays.tet[rep_tet, rep_face]), axis=1).ravel()
    slot_face = np.stack((rep_face, tri.arrays.face[rep_tet, rep_face]), axis=1).ravel()
    slot_perm = np.stack((np.broadcast_to(np.arange(4), image.shape), image), axis=1).reshape(-1, 4)
    # a segment of edge (u, v) of the representative lies on the edge
    # (perm u, perm v) of the slot's tet, run the other way if that descends
    u, v = slot_perm[:, _EDGE_ENDS[:, 0]], slot_perm[:, _EDGE_ENDS[:, 1]]
    slot_edge, slot_flip = _EDGE[u, v].ravel(), (u > v).ravel()
    counts = arc_count(x.ravel(), rep_tet[:, None], rep_face[:, None], _FACE_CORNERS[rep_face])
    m = crossings[rep_tet]

    # the patches in cone order: face orbit, slot, then at each corner g in
    # turn its corner patches and last the central patch (g = 3)
    sizes = np.concatenate((counts, np.ones((orbits, 1), dtype=np.int64)), axis=1)
    group, i = _runs(np.repeat(sizes, 2, axis=0).ravel())
    slot, g = np.divmod(group, 4)
    orbit = slot // 2
    # the same patch in the representative slot
    rep_patch = np.arange(len(slot)) - slot % 2 * sizes.sum(axis=1)[orbit]
    mask = (counts > 0) @ np.array([1, 2, 4])
    variant = counts[:, 0] > m[np.arange(orbits), _LEAST_EDGE[rep_face]] + 1 - counts[:, 1]
    flag = np.where(g < 3, i > 0, (2 * mask + variant)[orbit])
    patch_type = _PATCH_TYPE[rep_face[orbit], g, flag]
    corner = _PATCH_CORNER[patch_type]
    tet, face = slot_tet[slot], slot_face[slot]
    region = regions.central_patch(tet, face)
    at = np.flatnonzero(corner >= 0)
    region[at] = regions.corner_patch(
        tet[at], face[at], slot_perm.ravel()[4 * slot[at] + corner[at]], i[at]
    )

    # the cones of their pieces, each piece's base keyed by the piece in
    # the representative slot
    patch, k = _runs(_PIECE_COUNT[patch_type])
    kind, p, d, ci, c0, cm, e, ca, ck = _PIECE_SIDES[:, _PIECE_FIRST[patch_type[patch]] + k]
    cone_slot, fo, cone_tet = slot[patch, None], orbit[patch, None], tet[patch, None]
    value = ci * i[patch, None] + c0 + cm * m[fo, e] + ca * counts[fo, ck]
    edge = slot_edge[6 * cone_slot + p]
    flip = (kind == _SEG) & slot_flip[6 * cone_slot + p]
    chord_base = 6 * t + 16 * t * orbits
    patch_a = np.where(
        kind == _SEG,
        6 * cone_tet + edge,
        np.where(
            kind == _ARC,
            6 * t + 4 * t * (4 * fo + p) + 4 * cone_tet + face[patch, None],
            chord_base + patch[:, None],
        ),
    )
    patch_b = np.where(flip, crossings[cone_tet, edge] - value, value)
    patch_d = np.where(flip, -d, d)
    patch_cell = (regions.first_cell[tet] + region)[patch]
    base = 4 * rep_patch[patch] + k

    # the cones of the disks: near side, then far side; a triangle is one
    # cone, a quad two, (arc 0, arc 1, diagonal) and (diagonal, arc 2, arc 3)
    disk_tet, offset, copy = complex_.disks.T
    uses = complex_.uses
    quad = offset >= 4
    cycle = np.where(quad, 4, 3)
    near, far = regions.disk_sides(disk_tet, quad, offset % 4, copy)
    disk, k = _runs(np.where(quad, 4, 2))
    half = np.where(quad[disk], 1 + k % 2, 0)  # 0 a triangle, 1 or 2 a quad's half
    side = np.where(quad[disk], k // 2, k)
    use = (np.cumsum(cycle) - cycle)[disk, None] + _DISK_USES[half]
    diagonal = _DISK_USES[half] < 0
    diagonal_base = chord_base + len(patch_type)
    disk_a = np.where(
        diagonal,
        (diagonal_base + 2 * disk + side)[:, None],
        6 * t + 4 * t * (4 * uses[use, 0] + uses[use, 1]) + 4 * uses[use, 4] + uses[use, 5],
    )
    disk_b = np.where(diagonal, 0, uses[use, 2])
    disk_d = np.where(diagonal, _DIAGONAL_DIRECTION[half], uses[use, 3])
    disk_cell = regions.first_cell[disk_tet[disk]] + np.where(side == 0, near[disk], far[disk])

    # one entry per cone face to glue: side k lies on face k + 2 (mod 3)
    # and is keyed (cell, a, b); a piece's base lies on face 3 and is keyed
    # (-1, base key, 0)
    cell = np.concatenate((patch_cell, disk_cell))
    cones = len(cell)
    key = np.concatenate((np.repeat(cell, 3), np.full(len(base), -1)))
    a = np.concatenate((patch_a.ravel(), disk_a.ravel(), base))
    b = np.concatenate((patch_b.ravel(), disk_b.ravel(), np.zeros_like(base)))
    d = np.concatenate((patch_d.ravel(), disk_d.ravel(), np.zeros_like(base)))
    slots = np.concatenate((
        (4 * np.arange(cones)[:, None] + [2, 0, 1]).ravel(), 4 * np.arange(len(base)) + 3
    ))

    def patch_name(n: int) -> tuple:
        w = int(corner[n])
        return ("central",) if w < 0 else ("corner", w, int(i[n]))

    def token_name(token_a: int, token_b: int) -> tuple:
        if token_a < 6 * t:
            return ("seg", token_a % 6, token_b)
        if token_a < chord_base:
            rest, slot_ = divmod(token_a - 6 * t, 4 * t)
            return ("arc", (rest // 4, rest % 4, token_b), divmod(slot_, 4))
        if token_a < diagonal_base:
            n = token_a - chord_base
            instance = (int(slot_tet[slot[n]]), int(slot_face[slot[n]]))
            return ("diag", patch_name(n), token_b, instance)
        n, disk_side = divmod(token_a - diagonal_base, 2)
        quad_tet, quad_offset, quad_copy = complex_.disks[n].tolist()
        return ("qdiag", (quad_tet, "quad", quad_offset - 4, quad_copy), disk_side)

    first, second, bad, size = _paired(key, a, b)
    if len(bad):
        bases, sides = {}, {}
        for n, count in zip(bad.tolist(), size.tolist()):
            if key[n] < 0:
                rep, piece = divmod(int(a[n]), 4)
                bases["patch", int(orbit[rep]), patch_name(rep), piece] = count
            else:
                sides[regions.name(int(key[n])), token_name(int(a[n]), int(b[n]))] = count
        if bases:
            least = min(bases)
            raise ConsistencyCheckFailed(f"patch piece {least} has {bases[least]} instances")
        least = min(sides)
        raise ConsistencyCheckFailed(f"cell 1-cell {least} bounds {sides[least]} sides")
    near_slots, far_slots = slots[first], slots[second]
    perms = _FACE_GLUING[near_slots % 4, far_slots % 4, (d[first] == d[second]).astype(np.int64)]
    arrays = _checked(GluingArrays.paired(cones, near_slots, far_slots, perms))
    _check_involution(arrays)
    return arrays


# _DISK_USES[half]: the arcs of a disk's boundary on the sides of a
# triangle's cone and of a quad's two cones, -1 for the diagonal, which
# _DIAGONAL_DIRECTION runs -1 in the first and +1 in the second
_DISK_USES = np.array([(0, 1, 2), (0, 1, -1), (-1, 2, 3)])
_DIAGONAL_DIRECTION = np.array([(0, 0, 0), (0, 0, -1), (1, 0, 0)])


# _CAP[f]: the map of a cap's corners 0, 1, 2, 3 to boundary face f's
# vertices and f, and _CAP_INVERSE[f] its inverse
_CAP = np.array([(*FACE_VERTICES[f], f) for f in range(4)])
_CAP_INVERSE = np.argsort(_CAP, axis=1)
# _CORNER[f, w]: the position of vertex w in FACE_VERTICES[f], for w != f
_CORNER = np.array([
    [FACE_VERTICES[f].index(w) if w != f else 0 for w in range(4)]
    for f in range(4)
])


def _boundary_sides(arrays: GluingArrays):
    """The boundary slots of an involutive table, row-major, and for side a
    of each (from corner a to corner a + 1 of its face, mod 3), the
    boundary slot and the corners of that slot met by rotating around the
    side's edge through the table's tets.  The involution ends each
    rotation."""
    glued = arrays.glued
    slots = np.flatnonzero(~glued.ravel())
    corners = _FACE_CORNERS[slots % 4]
    cur = np.repeat(slots // 4, 3)
    avoid = np.repeat(slots % 4, 3)
    u = corners.ravel()
    v = corners[:, [1, 2, 0]].ravel()
    end = np.empty_like(cur)
    active = np.arange(len(cur))
    while len(active):
        c = cur[active]
        other = 6 - u[active] - v[active] - avoid[active]
        done = ~glued[c, other]
        end[active[done]] = other[done]
        active, c, other = active[~done], c[~done], other[~done]
        u[active] = arrays.images(c, other, u[active])
        v[active] = arrays.images(c, other, v[active])
        cur[active], avoid[active] = arrays.tet[c, other], arrays.face[c, other]
    return slots, 4 * cur + end, u, v


def cap_boundary(arrays: GluingArrays) -> GluingArrays:
    """Cone off every boundary component of an involutive table, as
    `cut_complex` returns; each component must be a 2-sphere, or
    ConsistencyCheckFailed names its Euler characteristic.

    Returns the capped arrays, left to `split_components` to validate: the
    table grown by one cap tet per boundary face, in (tet, face) order.
    Each slot is written from its own side, so the split's involution check
    audits the rotations around the boundary edges, which run on the
    table's arrays side by side; one `components` call gives the boundary
    components (faces joined across a side) and their corners."""
    slots, ends, u, v = _boundary_sides(arrays)
    s = len(slots)
    t = len(arrays.tet)
    index = np.full(4 * t, -1)
    index[slots] = np.arange(s)
    near = np.repeat(np.arange(s), 3)
    far = index[ends]
    side = np.tile(np.arange(3), s)
    # corners a and a + 1 of side a meet the far face's corners at u and v
    far_u, far_v = _CORNER[ends % 4, u], _CORNER[ends % 4, v]
    corner = s + 3 * near
    far_corner = s + 3 * far
    root = components(
        4 * s,
        np.concatenate((near, corner + side, corner + (side + 1) % 3)),
        np.concatenate((far, far_corner + far_u, far_corner + far_v)),
        np.zeros(9 * s, dtype=np.int64),
    )[0]

    # boundary components and their Euler characteristics
    face_root, corner_root = root[:s], root[s:] - s
    faces = np.bincount(face_root, minlength=s)
    corner_classes = np.flatnonzero(corner_root == np.arange(3 * s))
    vertices = np.bincount(face_root[corner_classes // 3], minlength=s)
    least = np.flatnonzero(face_root == np.arange(s))
    chi = vertices[least] - 3 * faces[least] // 2 + faces[least]
    if (chi != 2).any():
        raise ConsistencyCheckFailed(
            f"boundary component has Euler characteristic {chi[chi != 2][0]}"
        )

    # face 3 of a cap glues to its boundary face f by the map sending
    # corners 0, 1, 2 to f's vertices and 3 to f, and f back by the inverse
    cap_base = 4 * (t + np.arange(s)) + 3
    # side a of a cap's base glues its face opposite corner a + 2 to the
    # far cap, matching the corners of the side and the third corners
    third = 3 - far_u - far_v
    sides = np.full((3 * s, 4), 3)
    rows = np.arange(3 * s)
    sides[rows, side], sides[rows, (side + 1) % 3] = far_u, far_v
    sides[rows, (side + 2) % 3] = third
    return GluingArrays.written(
        t + s,
        np.concatenate((slots, cap_base, 4 * (t + near) + (side + 2) % 3)),
        np.concatenate((cap_base, slots, 4 * (t + far) + third)),
        np.concatenate((_CAP_INVERSE[slots % 4], _CAP[slots % 4], sides)),
        onto=arrays,
    )


def cut_and_cap(tri: Triangulation, complex_: DiskComplex) -> list[Triangulation]:
    """Cut along the surface of `build_complex(tri, coords)` and cap every
    boundary sphere with a cone; topologically faithful (no summand is
    lost).  Returns the pieces.

    `cut_complex` checks the cut only for structure and involution, which
    the rotations of `cap_boundary` need; `cap_boundary` checks that every
    boundary component is a sphere.  The capped arrays go to
    `split_components`, which checks them for structure once, takes their
    components from one `components` call and validates each component,
    sliced out and renumbered, as closed and orientable, so every cut row
    is validated once; no rows are built on the way.  The cut's arrays sit
    unchanged inside the capped arrays, and capping renumbers no tet."""
    return split_components(cap_boundary(cut_complex(tri, complex_)))
