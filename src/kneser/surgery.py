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
is used to audit crush outputs, not in the decomposition loop.
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
from .normal import (
    QUAD_PAIRS,
    arc_count,
    quad_index,
    tri_index,
)
from .reconstruct import DiskComplex, reconstruct
from .triangulation import (
    EDGE_BETWEEN,
    EDGE_VERTICES,
    FACE_VERTICES,
    GluingArrays,
    Perm,
    Triangulation,
    components,
    perm_compose,
    perm_inverse,
    skeleton,
    split_components,
    validate_arrays,
)


def _quad_partner(qtype: int, k: int) -> int:
    """The other vertex of k's pair for the given quad type."""
    for pair in QUAD_PAIRS[qtype]:
        if k in pair:
            return pair[0] if pair[1] == k else pair[1]
    raise AssertionError


def _transposition(a: int, b: int) -> Perm:
    p = [0, 1, 2, 3]
    p[a], p[b] = b, a
    return tuple(p)  # type: ignore[return-value]


def _quad_types(tri: Triangulation, coords) -> list[int | None]:
    quads: list[int | None] = []
    for i in range(tri.size):
        q = None
        for j in range(3):
            if coords[quad_index(i, j)]:
                q = j
        quads.append(q)
    return quads


def crush(tri: Triangulation, complex_: DiskComplex) -> list[Triangulation]:
    """Crush a connected, non-vertex-linking normal 2-sphere, given by its
    complex `build_complex(tri, coords)`.

    Deletes quad-bearing tetrahedra (at least one, so the total count
    strictly drops), re-glues the surviving faces across the flattened
    wedges, and returns the connected components of the result, each
    validated once as closed and orientable by `split_components`.
    """
    surface = reconstruct(tri, complex_)
    coords = surface.coordinates
    if not (surface.connected and surface.euler_characteristic == 2):
        raise ValueError("crush requires a connected normal 2-sphere")
    if surface.vertex_linking:
        raise VertexLinkingRejected(
            "vertex-linking spheres delete no tetrahedra"
        )
    quads = _quad_types(tri, coords)
    survivors = [i for i in range(tri.size) if quads[i] is None]
    index = {old: new for new, old in enumerate(survivors)}

    def walk(start_tet: int, start_face: int):
        g = tri.gluings[start_tet][start_face]
        assert g is not None
        tet, face, perm = g.tet, g.face, g.perm
        while quads[tet] is not None:
            partner = _quad_partner(quads[tet], face)
            perm = perm_compose(_transposition(face, partner), perm)
            face = partner
            g = tri.gluings[tet][face]
            assert g is not None
            tet, face, perm = g.tet, g.face, perm_compose(g.perm, perm)
        return tet, face, perm

    far, perms = [], []
    for old in survivors:
        for f in range(4):
            tet, face, perm = walk(old, f)
            far.append(4 * index[tet] + face)
            perms.append(perm)
    t = len(survivors)
    table = GluingArrays.written(t, np.arange(4 * t), np.array(far, dtype=np.int64), perms)

    try:
        return split_components(table)
    except (KneserError, ValueError) as exc:
        raise InvalidAfterCrush(f"crush produced an invalid gluing table: {exc}")


# --------------------------------------------------------------------------
# cut-and-cap
# --------------------------------------------------------------------------
#
# Region identifiers inside one tetrahedron (t_v triangle copies at vertex v,
# q quads of one type with pairs P = QUAD_PAIRS[qt][0], P'):
#   ("corner", v, i)  between triangles i and i+1 at v (i = 0 holds vertex v)
#   ("central",)       q = 0: the truncated-tet core
#   ("wedge", 0/1)     q > 0: between the innermost triangles on one pair
#                      side and the outermost quad on that side
#   ("qprod", c)       q > 1: between quads c and c+1

RegionId = tuple


def _disk_regions(tcount, qtype, q, disk) -> tuple[RegionId, RegionId]:
    """(region on the near side, region on the far side) of a normal disk.

    For a triangle copy c at vertex v, near = toward v.  For a quad copy c,
    near = toward pair side 0.
    """
    _tet, kind, which, c = disk
    if kind == "tri":
        near = ("corner", which, c - 1)
        if c < tcount[which]:
            far: RegionId = ("corner", which, c)
        elif qtype is None:
            far = ("central",)
        else:
            side = 0 if which in QUAD_PAIRS[qtype][0] else 1
            far = ("wedge", side)
        return near, far
    near = ("wedge", 0) if c == 1 else ("qprod", c - 1)
    far = ("wedge", 1) if c == q else ("qprod", c)
    return near, far


def _patch_region(tcount, qtype, q, face: int, corner: int, i: int) -> RegionId:
    """Region behind the patch between arcs i and i+1 at `corner` (slot-local).

    i = 0 is the patch containing the corner itself.
    """
    if i < tcount[corner]:
        return ("corner", corner, i)
    if qtype is None or corner != _quad_partner(qtype, face):
        raise ConsistencyCheckFailed(
            f"patch {i} at corner {corner} of face {face} lies past the triangle "
            "arcs at a corner that no quad cuts"
        )
    n = i - tcount[corner]
    if n == 0:
        side = 0 if corner in QUAD_PAIRS[qtype][0] else 1
        return ("wedge", side)
    if corner in QUAD_PAIRS[qtype][0]:
        return ("qprod", n)
    return ("qprod", q - n)


def _central_patch_region(tcount, qtype, q, face: int) -> RegionId:
    if qtype is None:
        return ("central",)
    # the corner of `face` cut by quad arcs
    lone = _quad_partner(qtype, face)
    side = 0 if lone in QUAD_PAIRS[qtype][0] else 1
    return ("wedge", 1 - side)


# Patch geometry is built once per face orbit in the coordinates of the
# orbit representative.  Cycle nodes are ("x", local edge, ascending
# position) or ("v", local corner); each cycle side records the 1-cell it
# runs along and its traversal direction against that 1-cell's canonical
# direction (ascending for edge segments, smaller-third-vertex-first for
# arcs).


class _PatchSide(NamedTuple):
    kind: str          # "arc" | "seg"
    data: tuple        # arc: (corner, n); seg: (local edge, interval)
    direction: int


class _Patch(NamedTuple):
    key: tuple                 # ("corner", w, i) or ("central",)
    nodes: tuple               # cycle node tokens, rep-local
    sides: tuple[_PatchSide, ...]  # side k runs nodes[k] -> nodes[k+1]


def _crossing_node(w: int, u: int, n: int, m: int):
    """Node for the n-th crossing from w on local edge {w, u} of m crossings."""
    pos = n if w < u else m + 1 - n
    return ("x", EDGE_BETWEEN[w][u], pos)


def _seg_side(w: int, u: int, interval_from_w: int, m: int) -> _PatchSide:
    """Edge segment side traversed away from w, with interval counted from w."""
    if w < u:
        return _PatchSide("seg", (EDGE_BETWEEN[w][u], interval_from_w), 1)
    return _PatchSide("seg", (EDGE_BETWEEN[w][u], m - interval_from_w), -1)


def _arc_side(face: int, w: int, start_third: int, n: int) -> _PatchSide:
    """Arc side at corner w, arc n, traversed starting over edge {w, start}."""
    x, _y = sorted(v for v in FACE_VERTICES[face] if v != w)
    return _PatchSide("arc", (w, n), 1 if start_third == x else -1)


def _face_patches(coords, crossings: list[int], tet: int, face: int) -> list[_Patch]:
    """The patches of face `face` of `tet`, given the crossing count of
    every edge slot 6i + e."""
    corners = FACE_VERTICES[face]
    counts = {w: arc_count(coords, tet, face, w) for w in corners}

    def m_of(w, u):
        return crossings[6 * tet + EDGE_BETWEEN[w][u]]

    patches: list[_Patch] = []
    for w in corners:
        x, y = sorted(v for v in corners if v != w)
        m_x, m_y = m_of(w, x), m_of(w, y)
        if counts[w] >= 1:
            nodes = (("v", w), _crossing_node(w, x, 1, m_x), _crossing_node(w, y, 1, m_y))
            sides = (
                _seg_side(w, x, 0, m_x),
                _arc_side(face, w, x, 1),
                # back toward the corner: traversed toward w
                _reverse(_seg_side(w, y, 0, m_y)),
            )
            patches.append(_Patch(("corner", w, 0), nodes, sides))
        for i in range(1, counts[w]):
            nodes = (
                _crossing_node(w, x, i, m_x),
                _crossing_node(w, x, i + 1, m_x),
                _crossing_node(w, y, i + 1, m_y),
                _crossing_node(w, y, i, m_y),
            )
            sides = (
                _seg_side(w, x, i, m_x),
                _arc_side(face, w, x, i + 1),
                _reverse(_seg_side(w, y, i, m_y)),
                _reverse(_arc_side(face, w, x, i)),
            )
            patches.append(_Patch(("corner", w, i), nodes, sides))

    # central patch: walk corners x -> y -> z; at each corner either the
    # outermost arc (two nodes) or the bare corner (one node)
    nodes: list = []
    sides: list[_PatchSide] = []
    cyc = list(corners)
    for idx, w in enumerate(cyc):
        nxt = cyc[(idx + 1) % 3]
        prv = cyc[(idx + 2) % 3]
        a_w = counts[w]
        m_next = m_of(w, nxt)
        m_prev = m_of(w, prv)
        if a_w:
            nodes.append(_crossing_node(w, prv, a_w, m_prev))
            sides.append(_arc_side(face, w, prv, a_w))
            nodes.append(_crossing_node(w, nxt, a_w, m_next))
        else:
            nodes.append(("v", w))
        sides.append(_seg_side(w, nxt, a_w, m_next))
    patches.append(_Patch(("central",), tuple(nodes), tuple(sides)))
    return patches


def _reverse(side: _PatchSide) -> _PatchSide:
    return _PatchSide(side.kind, side.data, -side.direction)


class _Cone(NamedTuple):
    """One cone tetrahedron over a boundary triangle of a cell.

    Local vertices 0..2 are the triangle corners (side k runs from corner k
    to corner k+1 and lies on the cone face opposite corner (k+2) % 3);
    vertex 3 is the cell apex.  `sides[k]` is (token, direction) for the
    1-cell the side runs along; tokens are unique within a cell up to their
    single partner.  `base` identifies the geometric triangle for pairing
    the two instances of a face patch; disk pieces carry base = None and
    stay unglued (they form the cut boundary).
    """

    cell: tuple
    sides: tuple
    base: tuple | None


def _patch_pieces(patch: _Patch):
    """Fan-triangulate a patch; yields (corners, sides) triples where sides
    may be _PatchSide objects or ("diag", chord_index, direction) markers."""
    nodes = list(patch.nodes)
    sides = list(patch.sides)
    anchor = min(range(len(nodes)), key=lambda i: nodes[i])
    nodes = nodes[anchor:] + nodes[:anchor]
    sides = sides[anchor:] + sides[:anchor]
    length = len(nodes)
    if length == 3:
        yield 0, (sides[0], sides[1], sides[2])
        return
    for k in range(1, length - 1):
        first = sides[0] if k == 1 else ("diag", k, 1)
        last = sides[length - 1] if k == length - 2 else ("diag", k + 1, -1)
        yield k - 1, (first, sides[k], last)


def _side_gluing(k1: int, k2: int, same: bool) -> Perm:
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


_SIDE_GLUING = {
    (k1, k2, same): _side_gluing(k1, k2, same)
    for k1 in range(3) for k2 in range(3) for same in (False, True)
}


def cut_complex(tri: Triangulation, complex_: DiskComplex) -> Triangulation:
    """The cut-open manifold along the surface of `build_complex(tri,
    coords)`: every complementary cell coned from an apex, with the two
    sides of each normal disk left as boundary faces."""
    coords = complex_.coordinates
    weights = complex_.weights_per_edge
    sk = skeleton(tri)
    # the crossing count of every edge slot 6i + e
    crossings = [weights[orbit] for orbit in sk.edge_orbit.ravel().tolist()]

    tcounts = [
        [coords[tri_index(i, v)] for v in range(4)] for i in range(tri.size)
    ]
    qtypes = _quad_types(tri, coords)
    qcounts = [
        coords[quad_index(i, qtypes[i])] if qtypes[i] is not None else 0
        for i in range(tri.size)
    ]

    cones: list[_Cone] = []

    def seg_token(tet: int, pi, side: _PatchSide):
        e, j = side.data
        u, v = EDGE_VERTICES[e]
        pu, pv = pi[u], pi[v]
        e2 = EDGE_BETWEEN[pu][pv]
        if pu < pv:
            return ("seg", e2, j), side.direction
        return ("seg", e2, crossings[6 * tet + e2] - j), -side.direction

    # face patches, instantiated on both slots of each face orbit
    for fo, first in enumerate(sk.face_first.tolist()):
        rep = divmod(first, 4)
        patches = [
            (patch, list(_patch_pieces(patch)))
            for patch in _face_patches(coords, crossings, *rep)
        ]
        g = tri.gluings[rep[0]][rep[1]]
        assert g is not None
        slots = [(rep, (0, 1, 2, 3)), ((g.tet, g.face), g.perm)]
        for slot, pi in slots:
            tet, face_local = slot
            pi_face = pi[rep[1]]
            for patch, pieces in patches:
                if patch.key[0] == "corner":
                    _, w, i = patch.key
                    region = _patch_region(
                        tcounts[tet], qtypes[tet], qcounts[tet],
                        pi_face, pi[w], i,
                    )
                else:
                    region = _central_patch_region(
                        tcounts[tet], qtypes[tet], qcounts[tet], pi_face
                    )
                cell = (tet, region)
                for piece_idx, piece_sides in pieces:
                    tokens = []
                    for s in piece_sides:
                        if isinstance(s, _PatchSide):
                            if s.kind == "arc":
                                w_rep, n = s.data
                                tokens.append(
                                    (("arc", (fo, w_rep, n), slot), s.direction)
                                )
                            else:
                                tokens.append(seg_token(tet, pi, s))
                        else:
                            _, chord, direction = s
                            tokens.append(
                                (("diag", patch.key, chord, slot), direction)
                            )
                    cones.append(_Cone(
                        cell, tuple(tokens), ("patch", fo, patch.key, piece_idx, slot)
                    ))

    # normal disks, one instance per side, bases left unglued
    for disk in complex_.disks:
        tet = disk[0]
        uses = complex_.boundaries[disk]
        near, far = _disk_regions(tcounts[tet], qtypes[tet], qcounts[tet], disk)
        for side_idx, region in ((0, near), (1, far)):
            cell = (tet, region)
            arc_tokens = [
                (("arc", u.arc, u.face_slot), u.direction) for u in uses
            ]
            if len(uses) == 3:
                cones.append(
                    _Cone(cell=cell, sides=tuple(arc_tokens), base=None)
                )
            else:
                diag = ("qdiag", disk, side_idx)
                cones.append(
                    _Cone(
                        cell=cell,
                        sides=(arc_tokens[0], arc_tokens[1], (diag, -1)),
                        base=None,
                    )
                )
                cones.append(
                    _Cone(
                        cell=cell,
                        sides=((diag, 1), arc_tokens[2], arc_tokens[3]),
                        base=None,
                    )
                )

    # base gluings: pair the two slot instances of each patch piece
    by_base: dict[tuple, list[int]] = {}
    for idx, cone in enumerate(cones):
        if cone.base is not None:
            key = cone.base[:4]
            by_base.setdefault(key, []).append(idx)
    # each slot is written by its own group, so the groups go in any order
    # unless one is malformed: then the least such key is named
    bad = [key for key, pair in by_base.items() if len(pair) != 2]
    if bad:
        key = min(bad)
        raise ConsistencyCheckFailed(
            f"patch piece {key} has {len(by_base[key])} instances"
        )

    # side gluings: match tokens within each cell
    by_side: dict[tuple, list[tuple[int, int, int]]] = {}
    for idx, cone in enumerate(cones):
        for k, (token, direction) in enumerate(cone.sides):
            by_side.setdefault((cone.cell, token), []).append((idx, k, direction))
    bad = [key for key, group in by_side.items() if len(group) != 2]
    if bad:
        key = min(bad)
        raise ConsistencyCheckFailed(
            f"cell 1-cell {key} bounds {len(by_side[key])} sides"
        )

    # the gluing table: a base glues face 3 to face 3 by the identity, a
    # side k glues face k + 2 (mod 3) to its partner's
    near, far, perms = [], [], []
    for a, b in by_base.values():
        near.append(4 * a + 3)
        far.append(4 * b + 3)
        perms.append((0, 1, 2, 3))
    for (i1, k1, d1), (i2, k2, d2) in by_side.values():
        near.append(4 * i1 + (k1 + 2) % 3)
        far.append(4 * i2 + (k2 + 2) % 3)
        perms.append(_SIDE_GLUING[k1, k2, d1 == d2])
    arrays = GluingArrays.paired(
        len(cones), np.array(near, dtype=np.int64), np.array(far, dtype=np.int64), perms
    )
    return validate_arrays(arrays, require_closed=False)


_FACE_CORNERS = np.array(FACE_VERTICES)
# _CORNER[f, w]: the position of vertex w in FACE_VERTICES[f], for w != f
_CORNER = np.array([
    [FACE_VERTICES[f].index(w) if w != f else 0 for w in range(4)]
    for f in range(4)
])


def _boundary_sides(tri: Triangulation):
    """The boundary slots of tri, row-major, and for side a of each (from
    corner a to corner a + 1 of its face, mod 3), the boundary slot and the
    corners of that slot met by rotating around the side's edge through
    tri's tets.  tri's own validation ends each rotation."""
    arrays = tri.arrays
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


def cap_boundary(tri: Triangulation) -> GluingArrays:
    """Cone off every boundary component; each must be a 2-sphere.

    Returns the capped arrays, left to `split_components` to validate:
    tri's arrays grown by one cap tet per boundary face, in (tet, face)
    order.  Each slot is written from its own side, so the split's
    involution check audits the rotations around the boundary edges, which
    run on tri's arrays side by side; one `components` call gives the
    boundary components (faces joined across a side) and their corners."""
    slots, ends, u, v = _boundary_sides(tri)
    s = len(slots)
    index = np.full(4 * tri.size, -1)
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
    t = tri.size
    cap_base = 4 * (t + np.arange(s)) + 3
    bases = [(*FACE_VERTICES[f], f) for f in (slots % 4).tolist()]
    perms = [*map(perm_inverse, bases), *bases]
    # side a of a cap's base glues its face opposite corner a + 2 to the
    # far cap, matching the corners of the side and the third corners
    third = 3 - far_u - far_v
    for a, lu, lv, lw in zip(side.tolist(), far_u.tolist(), far_v.tolist(), third.tolist()):
        p = [0, 0, 0, 3]
        p[a], p[(a + 1) % 3], p[(a + 2) % 3] = lu, lv, lw
        perms.append(tuple(p))
    return GluingArrays.written(
        t + s,
        np.concatenate((slots, cap_base, 4 * (t + near) + (side + 2) % 3)),
        np.concatenate((cap_base, slots, 4 * (t + far) + third)),
        perms,
        onto=tri.arrays,
    )


def cut_and_cap(tri: Triangulation, complex_: DiskComplex) -> list[Triangulation]:
    """Cut along the surface of `build_complex(tri, coords)` and cap every
    boundary sphere with a cone; topologically faithful (no summand is
    lost).  Returns the pieces.

    `cut_complex` validates the cut, boundary allowed, since the rotations
    of `cap_boundary` run on the cut's arrays and need an involutive table.
    The capped arrays go to `split_components`, which checks them for
    structure once, takes their components from one `components` call and
    validates each component, sliced out and renumbered, as closed and
    orientable; no rows are built on the way.  The cut's arrays sit
    unchanged inside the capped arrays, and capping renumbers no tet."""
    return split_components(cap_boundary(cut_complex(tri, complex_)))
