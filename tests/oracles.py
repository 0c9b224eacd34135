"""Independent reference implementations used only by the tests.

Nothing here imports the algorithms it is checking: distances come from
exhaustive chain enumeration, homology from sympy's Smith normal form,
vertex rays from sympy matrix ranks, and normal solutions from a direct
backtracking search over bounded coordinates.  The list-of-tuples double
description engine with its `Fraction` rank, which the numpy engine in
`kneser.vertex_enum` replaced, is kept here as the reference enumeration,
and the depth-first walks that orientations and components of a gluing
table came from before `kneser.triangulation` used its union-find are kept
as the reference for both.  `skeleton`, the tet union-find of `validate`
and `validate` itself as they were before they followed each gluing from
its lesser slot only (every entry followed from both of its slots, face
orbits from a union-find, permutations checked by sorting) are the
references for the one-slot array kernels.  They run on `_UnionFind`,
the sequential union-find that the library used before `components`
answered all its class questions, and which its own test checks against a
graph search; so the oracles share no code with the kernel they check.
The same union-find fed the same unions (`unionfind_reference`) is the
reference for the array kernel `components`, with the bits of a class
whose unions contradict each other cleared (`solved_bits`): such a class
has no 2-colouring, and `components` reads all its bits False.  The
breadth-first search that `kneser.vertex_enum` ran before
`spanning_forest` (`spanning_forest_reference`) and a depth-first search
for the components of a graph are the references for `spanning_forest`,
and a depth-first 2-colouring of a surface's disks is the reference for
the orientability that `reconstruct` reads off `components`.  Projected
areas have three references: a polygon clipping that needs no quadrature
at all, the adaptive quadrature of the pointwise area Jacobian that
`kneser.projection` used before its closed forms, and the closed form as
it was before its per-triangle plane frames, which built each pair's frame
from a tiled copy of the triangle and took distances by the six-region
closest-point test (`projected_area_reference`,
`triangle_distances_reference`).  That quadrature (`_integrate_jacobian`, its
7-point rule and its two constants) lives here now, and nothing in
`kneser` integrates numerically.  The definition of a sphere witness by
reconstruction, and the loop that computed the PL area of every witness,
are kept as references for the linear rule and the least-weight shortcut
in `kneser.decomposition`; that loop reads the length off the disk complex
(`complex_length`), as `kneser.pl_area` did before it walked the
coordinates.  Homology from the full boundary matrices (with
the incidence matrix d_1 that `kneser.homology` no longer builds) is the
reference for its spanning-forest presentation; it shares
`elementary_divisors` and the d_2 and d_3 entries with the library, which
the sympy references check on their own.  The unit elimination that
rescanned every entry for each pivot is the reference for the pivot heap;
the heap and the dense Smith form without the unit peel in front of them
(`unit_heap_dense_divisors`) are, besides sympy, the reference for the
peel; and the per-slot matching, edge-weight and Euler formulas are the
references for the index table of `kneser.normal`.  Every oracle that
walks the orbits of a triangulation, as slot tuples or slot-to-orbit dicts,
reads them off `skeleton_reference`, not off the `skeleton` under test.
The walk that `crush` ran one tuple permutation at a time, before
`GluingArrays.walked` ran every walk in lockstep on arrays
(`crush_walk_reference`), is the reference for that method.
Small constructors and readers that only the tests call (vertex-link and
zero vectors, disjoint unions, surface dumps, points and distances of the
hyperbolic model) live here too.
"""
from __future__ import annotations

import cmath
import collections
import itertools
import math
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace
from math import gcd
from typing import Sequence

import numpy as np
import sympy
from sympy.matrices.normalforms import smith_normal_form

from kneser.errors import (
    CenterHit,
    InconsistentCrossings,
    JacobianBoundExceeded,
    NonInvolutiveGluing,
    NonOrientable,
    NotClosed,
    ParseError,
    SelfGluedFace,
)
from kneser.homology import (
    _dense_snf,
    _unit_eliminate,
    boundary_entries,
    elementary_divisors,
)
from kneser.normal import (
    QUAD_PAIRS,
    NormalCoordinates,
    arc_count,
    matching_system,
    quad_index,
    quad_types_crossing_edge,
    require_closed,
    tri_index,
)
from kneser.pl_area import PLArea, normal_arc_length
from kneser.projection import (
    _INVARIANT_SLACK,
    PAIR_BLOCK,
    _areas,
    _clip_half_plane,
    _dot,
    _unit_normals,
    simplex_planes,
    triangle_distances,
)
from kneser.reconstruct import DiskComplex, build_complex, reconstruct
from kneser.triangulation import (
    EDGE_VERTICES,
    FACE_VERTICES,
    RawGluing,
    Triangulation,
    _gluing_arrays,
    perm_compose,
    perm_inverse,
    perm_sign,
    validate,
)


class _UnionFind:
    """Union-find where each slot carries an XOR bit relative to its root:
    the sequential reference for `kneser.triangulation.components`.

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


def exhaustive_chain_distance(tri: Triangulation, a: int, b: int) -> int | None:
    """Minimal chain length - 1 by brute-force enumeration of all simple
    chains of tetrahedra with consecutive vertex sharing."""
    sk = skeleton_reference(tri)
    share = [
        [
            any(
                sk.vertex_orbit_of[(x, u)] == sk.vertex_orbit_of[(y, v)]
                for u in range(4)
                for v in range(4)
            )
            for y in range(tri.size)
        ]
        for x in range(tri.size)
    ]
    best = None
    for length in range(1, tri.size + 1):
        for chain in itertools.permutations(range(tri.size), length):
            if chain[0] != a or chain[-1] != b:
                continue
            if all(share[x][y] for x, y in zip(chain, chain[1:])):
                best = length - 1
                break
        if best is not None:
            break
    return best


def orientations_reference(table) -> tuple[int, ...] | None:
    """Coherent +1/-1 tet orientations by depth-first search from the least
    unvisited tet, which gets +1; None when some gluing contradicts them."""
    t = len(table)
    orient = [0] * t
    for seed in range(t):
        if orient[seed]:
            continue
        orient[seed] = 1
        stack = [seed]
        while stack:
            i = stack.pop()
            for f in range(4):
                entry = table[i][f]
                if entry is None:
                    continue
                j, _, p = entry
                want = -orient[i] * _parity(p)
                if orient[j] == 0:
                    orient[j] = want
                    stack.append(j)
                elif orient[j] != want:
                    return None
    return tuple(orient)


def connected_components_reference(tri: Triangulation) -> list[list[int]]:
    """Tet index classes connected through face gluings, by depth-first
    search from the least unvisited tet, each sorted."""
    seen = [False] * tri.size
    comps: list[list[int]] = []
    for seed in range(tri.size):
        if seen[seed]:
            continue
        comp = [seed]
        seen[seed] = True
        stack = [seed]
        while stack:
            i = stack.pop()
            for f in range(4):
                g = tri.gluings[i][f]
                if g is not None and not seen[g.tet]:
                    seen[g.tet] = True
                    comp.append(g.tet)
                    stack.append(g.tet)
        comps.append(sorted(comp))
    return comps


def solved_bits(roots: list[int], bits: list[bool], unions) -> list[bool]:
    """bits, with every class that holds an (a, b, rel) union they do not
    solve cleared to False: the union-find rejected it, since it
    contradicts the unions of the class that the bits do solve."""
    bad = {roots[a] for a, b, rel, *_ in unions if bits[a] ^ bits[b] != bool(rel)}
    return [bit and root not in bad for root, bit in zip(roots, bits)]


def unionfind_reference(n: int, unions) -> tuple[list[int], list[bool], int | None]:
    """Roots, bits (`solved_bits`) and the index of the first rejected
    union of a `_UnionFind` on n nodes fed the (a, b, rel) unions in order:
    the sequential reference for `kneser.triangulation.components`."""
    uf = _UnionFind(n)
    first = None
    for index, (a, b, rel) in enumerate(unions):
        if not uf.union(a, b, bool(rel)) and first is None:
            first = index
    roots, bits = uf.resolve()
    return roots, solved_bits(roots, bits, unions), first


def spanning_forest_reference(
    n: int, edges: Sequence[tuple[int, int]]
) -> tuple[list[int], list[tuple[int, int, int]]]:
    """Roots and (edge, parent, child) steps of the breadth-first spanning
    trees that `kneser.vertex_enum` grew before `spanning_forest`: from
    each unseen node in ascending order, a deque of nodes, each node's
    edges taken in index order from an incidence dict."""
    incident: dict[int, list[int]] = {}
    for i, (a, b) in enumerate(edges):
        incident.setdefault(a, []).append(i)
        incident.setdefault(b, []).append(i)
    seen: set[int] = set()
    roots, steps = [], []
    for root in range(n):
        if root in seen:
            continue
        roots.append(root)
        seen.add(root)
        queue = collections.deque([root])
        while queue:
            parent = queue.popleft()
            for i in incident.get(parent, ()):
                a, b = edges[i]
                child = b if parent == a else a
                if child not in seen:
                    seen.add(child)
                    steps.append((i, parent, child))
                    queue.append(child)
    return roots, steps


def graph_components_reference(n: int, edges: Sequence[tuple[int, int]]) -> list[list[int]]:
    """The components of the graph on nodes 0..n-1, each ascending, in
    order of least node, by depth-first search."""
    adjacent: dict[int, list[int]] = {x: [] for x in range(n)}
    for a, b in edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    seen: set[int] = set()
    comps = []
    for seed in range(n):
        if seed in seen:
            continue
        seen.add(seed)
        comp, stack = [seed], [seed]
        while stack:
            for y in adjacent[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
        comps.append(sorted(comp))
    return comps


def surface_orientability_reference(
    tri: Triangulation, complex_: DiskComplex
) -> list[tuple[NormalCoordinates, bool]]:
    """(coordinates, orientable) of each component of a disk complex,
    sorted: a depth-first 2-colouring of the disks, in which two disks that
    traverse a shared arc in the same direction take different colours,
    fails exactly on the non-orientable components."""
    uses: dict = {}
    for d, disk in enumerate(complex_.disks):
        for use in complex_.boundaries[disk]:
            uses.setdefault(use.arc, []).append((d, use.direction))
    adjacent: dict[int, list[tuple[int, bool]]] = {d: [] for d in range(len(complex_.disks))}
    for (d1, s1), (d2, s2) in uses.values():
        adjacent[d1].append((d2, s1 == s2))
        adjacent[d2].append((d1, s1 == s2))
    colour: dict[int, bool] = {}
    out = []
    for seed in adjacent:
        if seed in colour:
            continue
        colour[seed] = False
        stack, comp, orientable = [seed], [seed], True
        while stack:
            d = stack.pop()
            for e, flip in adjacent[d]:
                want = colour[d] ^ flip
                if e not in colour:
                    colour[e] = want
                    comp.append(e)
                    stack.append(e)
                elif colour[e] != want:
                    orientable = False
        coords = [0] * (7 * tri.size)
        for d in comp:
            tet, kind, which, _ = complex_.disks[d]
            coords[tri_index(tet, which) if kind == "tri" else quad_index(tet, which)] += 1
        out.append((tuple(coords), orientable))
    return sorted(out)


def tet_unionfind_reference(table) -> tuple[_UnionFind, tuple[int, int] | None]:
    """Union-find over the tets, one union per gluing entry in both
    directions, whose bit says the orientation flips (the gluing permutation
    is even); also the first (tet, face) whose gluing contradicts a coherent
    orientation."""
    uf = _UnionFind(len(table))
    bad = None
    for i, j, rel, slot in tet_unions_reference(table):
        if not uf.union(i, j, rel):
            bad = bad or slot
    return uf, bad


def tet_unions_reference(table) -> list[tuple[int, int, bool, tuple[int, int]]]:
    """(i, j, rel, (i, f)) for every gluing entry (j, k, p) of face f of
    tet i, in row-major order, rel saying the permutation is even."""
    return [
        (i, entry[0], perm_sign(tuple(entry[2])) > 0, (i, f))
        for i, row in enumerate(table)
        for f, entry in enumerate(row)
        if entry is not None
    ]


@lru_cache(maxsize=256)
def skeleton_reference(tri: Triangulation) -> SimpleNamespace:
    """Orbit tables from one union per gluing entry in both directions, the
    face orbits from a union-find too; reversed_edge is the first (tet,
    edge) slot whose union contradicts the edge directions, and every slot
    of its orbit reads unreversed (`solved_bits`).  Every field and
    derived attribute of `SkeletonTable`: the per-slot arrays read off
    slot-to-orbit dicts, and the first slot of each orbit off the classes
    of the union-finds.  The oracles read the slot tuples and dicts too
    (vertex_orbits, edge_orbits, face_orbits, vertex_orbit_of,
    edge_orbit_of, face_orbit_of).  Cached, since the per-slot oracles ask
    for it once per vector."""
    edge_index = {frozenset(uv): e for e, uv in enumerate(EDGE_VERTICES)}
    t = tri.size
    vf = _UnionFind(4 * t)
    ef = _UnionFind(6 * t)
    ff = _UnionFind(4 * t)
    edge_unions = []
    reversed_edge = None
    for i in range(t):
        for f in range(4):
            g = tri.gluings[i][f]
            if g is None:
                continue
            ff.union(4 * i + f, 4 * g.tet + g.face, False)
            for v in range(4):
                if v != f:
                    vf.union(4 * i + v, 4 * g.tet + g.perm[v], False)
            for e, (u, v) in enumerate(EDGE_VERTICES):
                if u == f or v == f:
                    continue
                pu, pv = g.perm[u], g.perm[v]
                e2 = edge_index[frozenset((pu, pv))]
                edge_unions.append((6 * i + e, 6 * g.tet + e2, pu > pv))
                if not ef.union(*edge_unions[-1]):
                    reversed_edge = reversed_edge or (i, e)

    def slot_orbits(uf, width):
        return tuple(tuple(divmod(s, width) for s in c) for c in uf.classes())

    def first_slots(uf):
        return np.array([c[0] for c in uf.classes()], dtype=np.int64)

    def orbit_of(orbits):
        return {slot: idx for idx, orbit in enumerate(orbits) for slot in orbit}

    def per_slot(orbit_of, width):
        return np.array(
            [[int(orbit_of[(i, x)]) for x in range(width)] for i in range(t)],
            dtype=np.int64,
        ).reshape(t, width)

    vertex_orbits = slot_orbits(vf, 4)
    edge_orbits = slot_orbits(ef, 6)
    face_orbits = slot_orbits(ff, 4)
    edge_roots, edge_bits = ef.resolve()
    edge_bits = solved_bits(edge_roots, edge_bits, edge_unions)
    edge_orbit_of = {
        slot: (idx, edge_bits[6 * slot[0] + slot[1]])
        for idx, orbit in enumerate(edge_orbits)
        for slot in orbit
    }
    counts = (len(vertex_orbits), len(edge_orbits), len(face_orbits))
    return SimpleNamespace(
        vertex_orbit=per_slot(orbit_of(vertex_orbits), 4),
        edge_orbit=per_slot({s: v[0] for s, v in edge_orbit_of.items()}, 6),
        edge_reversed=per_slot({s: v[1] for s, v in edge_orbit_of.items()}, 6),
        face_orbit=per_slot(orbit_of(face_orbits), 4),
        vertex_first=first_slots(vf),
        edge_first=first_slots(ef),
        face_first=first_slots(ff),
        vertex_count=counts[0],
        edge_count=counts[1],
        face_count=counts[2],
        tet_count=t,
        reversed_edge=reversed_edge,
        euler_characteristic=counts[0] - counts[1] + counts[2] - t,
        vertex_orbits=vertex_orbits,
        edge_orbits=edge_orbits,
        face_orbits=face_orbits,
        vertex_orbit_of=orbit_of(vertex_orbits),
        edge_orbit_of=edge_orbit_of,
        face_orbit_of=orbit_of(face_orbits),
    )


def check_structure_reference(table) -> None:
    """The structural checks of `validate_reference`, permutations checked
    by sorting."""
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
            if len(p) != 4 or sorted(p) != [0, 1, 2, 3]:
                raise ValueError(f"(tet {i}, face {f}): {p} is not a permutation")
            if p[f] != k:
                raise ValueError(
                    f"(tet {i}, face {f}): permutation must send face {f} to face {k}"
                )


def validate_reference(
    table, *, require_closed: bool = True, require_orientable: bool = True
) -> Triangulation:
    """`validate` as it was before it followed each gluing from one slot
    only: every entry checked and unioned from both sides, permutations
    inverted one by one, over `skeleton_reference`."""
    check_structure_reference(table)
    t = len(table)
    for i in range(t):
        for f in range(4):
            entry = table[i][f]
            if entry is None:
                continue
            j, k, p = entry
            p = tuple(p)
            if (j, k) == (i, f):
                raise SelfGluedFace(i, f)
            back = table[j][k]
            if back is None:
                raise NonInvolutiveGluing(i, f, f"(tet {j}, face {k}) is unglued")
            j2, k2, q = back
            if (j2, k2) != (i, f) or tuple(q) != perm_inverse(p):
                raise NonInvolutiveGluing(
                    i, f, f"(tet {j}, face {k}) does not glue back with the inverse"
                )
    tets, bad = tet_unionfind_reference(table)
    orientations = None
    if bad is None:
        orientations = tuple(-1 if tets.find(i)[1] else 1 for i in range(t))
    elif require_orientable:
        raise NonOrientable(*bad)
    # every row is checked above; the array form is only read off them
    tri = Triangulation(_gluing_arrays(table), orientations=orientations, closed=False)
    closed = True
    for i in range(t):
        for f in range(4):
            if table[i][f] is None:
                if require_closed:
                    raise NotClosed(i, f)
                closed = False
    if closed:
        sk = skeleton_reference(tri)
        if sk.reversed_edge is not None:
            if require_closed:
                raise NotClosed(
                    *sk.reversed_edge, "edge identified with itself in reverse", kind="edge"
                )
            closed = False
        elif (bad := bad_vertex_link_reference(sk)) is not None:
            if require_closed:
                (tet, v), chi = bad
                raise NotClosed(
                    tet, v, f"vertex link has Euler characteristic {chi}, not 2",
                    kind="vertex",
                )
            closed = False
    object.__setattr__(tri, "closed", closed)
    return tri


def bad_vertex_link_reference(sk) -> tuple[tuple[int, int], int] | None:
    """The first slot of the first vertex orbit, in `skeleton_reference`'s
    order, whose link is not a sphere, with the link's Euler
    characteristic; None when every link is a sphere.  The table must have
    no boundary face and no reversed edge.  The link has a triangle per
    slot of the orbit and 3/2 edges per triangle (each side is shared with
    the triangle across its face); its vertices are the ends of edge orbits
    at the orbit, an end told apart by its edge orbit and whether it is the
    tail of the orbit direction."""
    for orbit in sk.vertex_orbits:
        ends = set()
        for tet, v in orbit:
            for u in range(4):
                if u != v:
                    edge = EDGE_VERTICES.index((min(u, v), max(u, v)))
                    idx, reversed_ = sk.edge_orbit_of[(tet, edge)]
                    ends.add((idx, (v < u) != reversed_))
        chi = len(ends) - len(orbit) // 2
        if chi != 2:
            return orbit[0], chi
    return None


def sympy_homology(tri: Triangulation, k: int) -> tuple[int, tuple[int, ...]]:
    """H_k invariants via sympy: ranks and Smith normal form of the orbit
    boundary matrices, built here from scratch."""
    sk = skeleton_reference(tri)
    d1 = _boundary_matrix(tri, 1)
    d2 = _boundary_matrix(tri, 2)
    d3 = _boundary_matrix(tri, 3)
    dims = {0: sk.vertex_count, 1: sk.edge_count, 2: sk.face_count}
    mats = {0: None, 1: d1, 2: d2, 3: d3}
    lower = mats[k]
    upper = mats[k + 1]
    rank_lower = 0 if lower is None else lower.rank()
    rank_upper = upper.rank()
    betti = dims[k] - rank_lower - rank_upper
    snf = smith_normal_form(upper)
    torsion = sorted(
        int(abs(snf[i, i]))
        for i in range(min(snf.shape))
        if abs(snf[i, i]) > 1
    )
    return betti, tuple(torsion)


def orbit_complex_homology(tri: Triangulation, k: int) -> tuple[int, tuple[int, ...]]:
    """H_k invariants from the full boundary matrices of the orbit complex:
    rank of d_k and rank and elementary divisors of d_{k+1}, with no
    spanning-forest reduction (the definition `kneser.homology` used before
    it reduced d_1 and d_2)."""
    if k not in (0, 1, 2):
        raise ValueError("homology implemented for k = 0, 1, 2")
    ek, nr_k, nk = full_boundary_entries(tri, k)
    rank_k, _ = elementary_divisors(ek, nr_k, nk)
    ek1, nr1, nc1 = full_boundary_entries(tri, k + 1)
    rank_k1, torsion = elementary_divisors(ek1, nr1, nc1)
    return nk - rank_k - rank_k1, tuple(torsion)


def full_boundary_entries(tri: Triangulation, k: int):
    """`kneser.homology.boundary_entries`, extended to the zero map out of
    C_0 and to the full incidence matrix d_1 of the 1-skeleton."""
    sk = skeleton_reference(tri)
    if k == 0:
        return [], 0, sk.vertex_count
    if k == 1:
        entries = []
        for idx, orbit in enumerate(sk.edge_orbits):
            tet, e = orbit[0]
            u, v = EDGE_VERTICES[e]
            entries.append((sk.vertex_orbit_of[(tet, v)], idx, 1))
            entries.append((sk.vertex_orbit_of[(tet, u)], idx, -1))
        return entries, sk.vertex_count, sk.edge_count
    entries, nrows, ncols = boundary_entries(tri, k)
    return [tuple(e) for e in entries.tolist()], nrows, ncols


def unit_elimination_rescan(entries) -> tuple[int, dict[int, dict[int, int]]]:
    """The sparse phase of `kneser.homology.elementary_divisors` as it was
    before its pivot heap: every unit entry is rescanned for each pivot, and
    the least (cost, row, col) is eliminated.  Returns the number of pivots
    and the rows left."""
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for r, c, v in entries:
        if v == 0:
            continue
        rows.setdefault(r, {})
        rows[r][c] = rows[r].get(c, 0) + v
        if rows[r][c] == 0:
            del rows[r][c]
    for r in list(rows):
        if not rows[r]:
            del rows[r]
    for r, rowdata in rows.items():
        for c in rowdata:
            cols.setdefault(c, set()).add(r)
    rank = 0
    while True:
        best = None
        for r, rowdata in rows.items():
            rcost = len(rowdata) - 1
            for c, v in rowdata.items():
                if v in (1, -1):
                    key = (rcost * (len(cols[c]) - 1), r, c)
                    if best is None or key < best:
                        best = key
        if best is None:
            return rank, rows
        _, pr, pc = best
        pv = rows[pr][pc]
        pivot_row = rows.pop(pr)
        for c in pivot_row:
            cols[c].discard(pr)
        for r in sorted(cols[pc]):
            factor = rows[r][pc] * pv
            for c, v in pivot_row.items():
                new = rows[r].get(c, 0) - factor * v
                if new == 0:
                    rows[r].pop(c, None)
                    cols[c].discard(r)
                else:
                    if c not in rows[r]:
                        cols.setdefault(c, set()).add(r)
                    rows[r][c] = new
            if not rows[r]:
                del rows[r]
        cols.pop(pc, None)
        rank += 1


def unit_heap_dense_divisors(entries, nrows: int, ncols: int) -> tuple[int, list[int]]:
    """`kneser.homology.elementary_divisors` as it was before its unit
    peel: every entry goes to the pivot heap, and what is left to the
    dense Smith form."""
    rank, rows = _unit_eliminate(entries)
    if not rows:
        return rank, []
    live_cols = sorted({c for row in rows.values() for c in row})
    divisors = _dense_snf([[rows[r].get(c, 0) for c in live_cols] for r in sorted(rows)])
    return rank + len(divisors), sorted(d for d in divisors if d > 1)


def _boundary_matrix(tri: Triangulation, k: int) -> sympy.Matrix:
    """Boundary of the orbit chain complex, written independently of the
    library: signs from sorting parities of identified vertex tuples."""
    edge_index = {frozenset(uv): e for e, uv in enumerate(EDGE_VERTICES)}
    sk = skeleton_reference(tri)
    if k == 1:
        m = sympy.zeros(sk.vertex_count, sk.edge_count)
        for idx, orbit in enumerate(sk.edge_orbits):
            tet, e = orbit[0]
            u, v = EDGE_VERTICES[e]
            m[sk.vertex_orbit_of[(tet, v)], idx] += 1
            m[sk.vertex_orbit_of[(tet, u)], idx] -= 1
        return m
    if k == 2:
        m = sympy.zeros(sk.edge_count, sk.face_count)
        for idx, orbit in enumerate(sk.face_orbits):
            tet, f = orbit[0]
            a, b, c = FACE_VERTICES[f]
            for sign, (u, v) in ((1, (b, c)), (-1, (a, c)), (1, (a, b))):
                eidx, reversed_ = sk.edge_orbit_of[(tet, edge_index[frozenset((u, v))])]
                m[eidx, idx] += -sign if reversed_ else sign
        return m
    if k == 3:
        m = sympy.zeros(sk.face_count, tri.size)
        for i in range(tri.size):
            for f in range(4):
                orbit = sk.face_orbit_of[(i, f)]
                rep = sk.face_orbits[orbit][0]
                if rep == (i, f):
                    rel = 1
                else:
                    g = tri.gluings[rep[0]][rep[1]]
                    images = [g.perm[v] for v in FACE_VERTICES[rep[1]]]
                    rel = _parity(images)
                m[orbit, i] += (-1) ** f * rel
        return m
    raise ValueError(k)


def _parity(seq) -> int:
    seen = 0
    s = list(seq)
    for i in range(len(s)):
        for j in range(len(s) - 1 - i):
            if s[j] > s[j + 1]:
                s[j], s[j + 1] = s[j + 1], s[j]
                seen += 1
    return -1 if seen % 2 else 1


def is_vertex_ray_sympy(tri: Triangulation, coords) -> bool:
    """Extremality via sympy rank: solutions supported inside supp(coords)
    must form a 1-dimensional space."""
    matching = matching_system(tri).tolist()
    support = [i for i, c in enumerate(coords) if c]
    if not support:
        return False
    m = sympy.Matrix([[row[c] for c in support] for row in matching])
    return len(support) - m.rank() == 1


def rank_of_columns(rows: Sequence[Sequence[int]], cols: list[int]) -> int:
    """Exact rank of the submatrix of `rows` on the given columns, by
    Gaussian elimination over `Fraction`."""
    m = [[Fraction(r[c]) for c in cols] for r in rows if any(r[c] for c in cols)]
    rank = 0
    ncols = len(cols)
    row = 0
    for col in range(ncols):
        pivot = None
        for i in range(row, len(m)):
            if m[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        for i in range(len(m)):
            if i != row and m[i][col] != 0:
                factor = m[i][col] / pv
                for j in range(col, ncols):
                    m[i][j] -= factor * m[row][j]
        row += 1
        rank += 1
        if row == len(m):
            break
    return rank


def is_vertex_ray_reference(matching, vec) -> bool:
    """{x : Mx = 0, x zero outside supp(vec)} is 1-dimensional, decided by
    the `Fraction` rank alone."""
    cols = [i for i, x in enumerate(vec) if x]
    if not cols:
        return False
    return len(cols) - rank_of_columns(matching, cols) == 1


def enumerate_vertex_solutions_reference(tri: Triangulation) -> list[tuple[int, ...]]:
    """Admissible vertex rays of the matching cone by the double description
    method on Python tuples and int bitsets, one pair at a time."""
    matching = matching_system(tri).tolist()
    n = 7 * tri.size
    forbidden = []
    for i in range(tri.size):
        q = [1 << quad_index(i, j) for j in range(3)]
        forbidden += [q[0] | q[1], q[0] | q[2], q[1] | q[2]]

    rays: list[tuple[tuple[int, ...], int]] = []
    for i in range(n):
        vec = [0] * n
        vec[i] = 1
        rays.append((tuple(vec), 1 << i))

    rows = [r for r in matching if any(r)]
    rows.sort(key=lambda r: (sum(1 for c in r if c), r))

    for a in rows:
        zero, pos, neg = [], [], []
        for vec, supp in rays:
            d = sum(c * x for c, x in zip(a, vec) if c)
            if d == 0:
                zero.append((vec, supp))
            elif d > 0:
                pos.append((vec, supp, d))
            else:
                neg.append((vec, supp, d))
        supports = [supp for _, supp in rays]
        new = {vec: supp for vec, supp in zero}
        for uvec, usupp, du in pos:
            for vvec, vsupp, dv in neg:
                union = usupp | vsupp
                if any((union & m) == m for m in forbidden):
                    continue
                if any(
                    w != usupp and w != vsupp and (w | union) == union
                    for w in supports
                ):
                    continue
                comb = [du * y - dv * x for x, y in zip(uvec, vvec)]
                g = 0
                for x in comb:
                    g = gcd(g, x)
                vec = tuple(x // g for x in comb) if g > 1 else tuple(comb)
                new.setdefault(vec, union)
        rays = sorted(new.items())

    out = [vec for vec, _ in rays if is_vertex_ray_reference(matching, vec)]
    out.sort()
    return out


def brute_force_solutions(
    tri: Triangulation, cmax: int = 4, max_weight: int | None = None
) -> list[tuple[int, ...]]:
    """Every admissible solution with all coordinates <= cmax (and, when
    max_weight is given, total weight <= max_weight), by per-tet pattern
    backtracking.

    Pruning: candidate pools are intersected over all already-assigned
    neighbor faces, and partial assignments are cut once the sum over edge
    orbits of the largest assigned crossing count exceeds the weight cap
    (crossing counts of a completed solution agree across incidences, so
    that sum is a valid lower bound).
    """
    t = tri.size
    sk = skeleton_reference(tri)
    patterns = _tet_patterns(cmax)

    def face_sig(pattern, face):
        return tuple(
            _pattern_arc_count(pattern, face, v) for v in FACE_VERTICES[face]
        )

    # pattern ids by per-face arc signature (shared by all tets)
    by_face: dict[int, dict[tuple, set[int]]] = {f: {} for f in range(4)}
    for pid, p in enumerate(patterns):
        for f in range(4):
            by_face[f].setdefault(face_sig(p, f), set()).add(pid)

    # per (tet, local edge): the edge orbit, for the weight bound
    orbit_of = {
        (tet, e): sk.edge_orbit_of[(tet, e)][0]
        for tet in range(t)
        for e in range(6)
    }

    def pattern_coords(pattern):
        coords = [0] * 7
        for v in range(4):
            coords[v] = pattern[v]
        if pattern[4] is not None:
            coords[4 + pattern[4]] = pattern[5]
        return coords

    pattern_edge_counts = []
    for p in patterns:
        local = pattern_coords(p)
        padded = local + [0] * 7  # edge_weight_in indexes a 7t vector
        pattern_edge_counts.append(
            tuple(edge_weight_in(padded, 0, e) for e in range(6))
        )

    order = [0]
    remaining = set(range(1, t))
    while remaining:
        nxt = None
        for cand in sorted(remaining):
            if any(
                tri.gluings[cand][f] is not None
                and tri.gluings[cand][f].tet in order
                for f in range(4)
            ):
                nxt = cand
                break
        if nxt is None:
            nxt = min(remaining)
        order.append(nxt)
        remaining.remove(nxt)

    solutions: list[tuple[int, ...]] = []
    assigned: dict[int, int] = {}
    orbit_max = [0] * sk.edge_count
    bound = 0

    def candidates(tet):
        pools = []
        for f in range(4):
            g = tri.gluings[tet][f]
            if g is None or g.tet not in assigned:
                continue
            other = patterns[assigned[g.tet]]
            sig = tuple(
                _pattern_arc_count(other, g.face, g.perm[v])
                for v in FACE_VERTICES[f]
            )
            pools.append(by_face[f].get(sig, set()))
        if not pools:
            return range(len(patterns))
        pool = set.intersection(*pools)
        return sorted(pool)

    def ok(tet, pattern):
        for f in range(4):
            g = tri.gluings[tet][f]
            if g is None or g.tet not in assigned:
                continue
            other = patterns[assigned[g.tet]]
            for v in FACE_VERTICES[f]:
                if _pattern_arc_count(pattern, f, v) != _pattern_arc_count(
                    other, g.face, g.perm[v]
                ):
                    return False
        return True

    def place(pos):
        nonlocal bound
        if pos == t:
            coords = [0] * (7 * t)
            for tet, pid in assigned.items():
                local = pattern_coords(patterns[pid])
                coords[7 * tet: 7 * tet + 7] = local
            solutions.append(tuple(coords))
            return
        tet = order[pos]
        for pid in candidates(tet):
            assigned[tet] = pid
            if not ok(tet, patterns[pid]):
                del assigned[tet]
                continue
            if max_weight is None:
                place(pos + 1)
                del assigned[tet]
                continue
            counts = pattern_edge_counts[pid]
            touched = []
            new_bound = bound
            feasible = True
            for e in range(6):
                orb = orbit_of[(tet, e)]
                if counts[e] > orbit_max[orb]:
                    touched.append((orb, orbit_max[orb]))
                    new_bound += counts[e] - orbit_max[orb]
                    orbit_max[orb] = counts[e]
            if new_bound > max_weight:
                feasible = False
            if feasible:
                old = bound
                bound = new_bound
                place(pos + 1)
                bound = old
            for orb, prev in touched:
                orbit_max[orb] = prev
            del assigned[tet]

    place(0)
    return sorted(solutions)


def _tet_patterns(cmax):
    """(t0, t1, t2, t3, qtype | None, qcount) with entries <= cmax."""
    out = []
    for tris in itertools.product(range(cmax + 1), repeat=4):
        out.append((*tris, None, 0))
        for qt in range(3):
            for qc in range(1, cmax + 1):
                out.append((*tris, qt, qc))
    return out


def _pattern_arc_count(pattern, face, corner):
    t0, t1, t2, t3, qt, qc = pattern
    tris = (t0, t1, t2, t3)
    others = [x for x in FACE_VERTICES[face] if x != corner]
    from kneser.normal import quad_type_separating

    need = quad_type_separating(others[0], others[1])
    return tris[corner] + (qc if qt == need else 0)


def shell_quadrature_k(r: float, shells: int = 20000) -> float:
    """Independent numerical quadrature of the bad-set constant
    K = integral over B(0, 2r) of 4 r^2 / |z|^2 dz, via midpoint spherical
    shells (the integrand is radial)."""
    import math

    total = 0.0
    for i in range(shells):
        rho0 = 2.0 * r * i / shells
        rho1 = 2.0 * r * (i + 1) / shells
        mid = 0.5 * (rho0 + rho1)
        vol = 4.0 / 3.0 * math.pi * (rho1 ** 3 - rho0 ** 3)
        total += 4.0 * r * r / (mid * mid) * vol
    return total


def boundary_project(config, u, x) -> np.ndarray:
    """psi_u: push x, one point (3,) or the rows of an (n, 3) array, along
    the ray from u onto the boundary of sigma0."""
    u = np.asarray(u, dtype=float)
    w = np.asarray(x, dtype=float) - u
    if np.any(np.sum(w * w, axis=-1) == 0.0):
        raise CenterHit("boundary projection evaluated at its center")
    normals, offsets = simplex_planes()
    heads = w @ normals.T
    with np.errstate(divide="ignore"):
        ts = np.where(heads > 0, (offsets - normals @ u) / heads, math.inf)
    return u + np.min(ts, axis=-1)[..., None] * w


QUAD_TOLERANCE = 1e-4
QUAD_MAX_DEPTH = 6

_SQRT15 = math.sqrt(15.0)
# 7-point degree-5 rule on the triangle (barycentric coordinates, weights)
_QUAD_BARY = np.array(
    [
        [1 / 3, 1 / 3, 1 / 3],
        [(6 - _SQRT15) / 21, (6 - _SQRT15) / 21, (9 + 2 * _SQRT15) / 21],
        [(6 - _SQRT15) / 21, (9 + 2 * _SQRT15) / 21, (6 - _SQRT15) / 21],
        [(9 + 2 * _SQRT15) / 21, (6 - _SQRT15) / 21, (6 - _SQRT15) / 21],
        [(6 + _SQRT15) / 21, (6 + _SQRT15) / 21, (9 - 2 * _SQRT15) / 21],
        [(6 + _SQRT15) / 21, (9 - 2 * _SQRT15) / 21, (6 + _SQRT15) / 21],
        [(9 - 2 * _SQRT15) / 21, (6 + _SQRT15) / 21, (6 + _SQRT15) / 21],
    ]
)
_QUAD_W = np.array(
    [9 / 40]
    + [(155 - _SQRT15) / 1200] * 3
    + [(155 + _SQRT15) / 1200] * 3
)


def _quad_points(tris: np.ndarray) -> np.ndarray:
    """(k, 7, 3) quadrature points of a (k, 3, 3) triangle batch."""
    return np.einsum("qb,kbd->kqd", _QUAD_BARY, tris)


def _subdivide(tris: np.ndarray) -> np.ndarray:
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
    children = np.stack(
        [
            np.stack([a, ab, ca], axis=1),
            np.stack([b, bc, ab], axis=1),
            np.stack([c, ca, bc], axis=1),
            np.stack([ab, bc, ca], axis=1),
        ],
        axis=1,
    )
    return children.reshape(-1, 3, 3)


def _integrate_jacobian(tris, jac):
    """Adaptive triangle quadrature of a pointwise Jacobian `jac(points,
    normals) -> values`: 7-point rule, refined by midpoint subdivision until
    the change is below the tolerance or the depth cap is reached.

    The tolerance is on the total (relative QUAD_TOLERANCE): a piece is
    accepted when its coarse-to-fine change is small relative to its own
    value or within its area-proportional share of the global error budget,
    which keeps the summed error below QUAD_TOLERANCE times the integral.
    """

    def rule(batch, areas, normals):
        pts = _quad_points(batch)
        rep = np.repeat(normals[:, None, :], 7, axis=1)
        vals = jac(pts.reshape(-1, 3), rep.reshape(-1, 3)).reshape(-1, 7)
        return areas * (vals @ _QUAD_W)

    # a midpoint child keeps its parent's normal and a quarter of its area
    areas = _areas(tris)
    normals = _unit_normals(tris)
    total = 0.0
    active = tris
    coarse = rule(active, areas, normals)
    scale = max(abs(float(np.sum(coarse))), 1e-300)
    budget = QUAD_TOLERANCE * scale / float(np.sum(areas))
    for depth in range(QUAD_MAX_DEPTH + 1):
        children = _subdivide(active)
        child_areas = np.repeat(areas / 4, 4)
        child_normals = np.repeat(normals, 4, axis=0)
        fine4 = rule(children, child_areas, child_normals).reshape(-1, 4)
        fine = np.sum(fine4, axis=1)
        err = np.abs(fine - coarse)
        allowance = np.maximum(QUAD_TOLERANCE * np.abs(fine), budget * areas)
        done = (err <= allowance) | np.full(fine.shape, depth == QUAD_MAX_DEPTH)
        total += float(np.sum(fine[done]))
        if np.all(done):
            return total
        keep = ~done
        active = children.reshape(-1, 4, 3, 3)[keep].reshape(-1, 3, 3)
        areas = child_areas.reshape(-1, 4)[keep].reshape(-1)
        normals = child_normals.reshape(-1, 4, 3)[keep].reshape(-1, 3)
        coarse = fine4[keep].reshape(-1)
    return total


def quadrature_projected_area(config, u, patch) -> float:
    """|pi_u(Q)|_2 by adaptive quadrature of the pointwise area Jacobian
    (2r)^2 |cos angle(normal, x - u)| / |x - u|^2 inside B_u, 1 outside;
    triangles 2r or more from u add their area.

    Every quadrature point checks the integrand bound Jacobian <=
    (2r/|x-u|)^2 of the bad-set estimate and raises JacobianBoundExceeded
    if it fails.
    """
    u = np.asarray(u, dtype=float)
    tris = patch.triangles
    two_r = 2.0 * config.r
    far = triangle_distances(u, tris) >= two_r
    cross = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    total = float(np.sum(0.5 * np.sqrt(np.sum(cross[far] ** 2, axis=1))))
    if np.all(far):
        return total

    def jac(points, normals):
        w = points - u
        rho2 = np.sum(w * w, axis=1)
        cos = np.abs(np.sum(w * normals, axis=1)) / np.sqrt(rho2)
        inside = rho2 < two_r ** 2
        vals = np.where(inside, (two_r ** 2) * cos / rho2, 1.0)
        bound = (two_r ** 2) / rho2
        if not np.all(vals[inside] <= bound[inside] * (1 + 1e-12)):
            raise JacobianBoundExceeded("area Jacobian exceeded the radial bound")
        return vals

    return total + _integrate_jacobian(tris[~far], jac)


def polygon_projected_area(config, u, tris, sides: int = 4000) -> float:
    """Sum over the triangles T of area(T - D) + (2r)^2 |Omega(T cap D)|,
    with the disk D where T's plane meets B(u, 2r) replaced by the regular
    `sides`-gon of the same area and centre.

    T cap D is the N-gon clipped to the three edge half-planes of T
    (Sutherland-Hodgman), its area the shoelace sum, and its solid angle
    Omega seen from u a fan of Van Oosterom-Strackee triangle angles from
    its vertex mean.  The only approximation is the N-gon in place of the
    disk; away from tangencies its error shrinks like 1/N^2 or faster.
    """
    u = np.asarray(u, dtype=float)
    two_r = 2.0 * config.r
    # circumradius rho of the N-gon of area pi R^2: N/2 rho^2 sin(2 pi/N) = pi R^2
    stretch = math.sqrt(2.0 * math.pi / (sides * math.sin(2.0 * math.pi / sides)))
    theta = 2.0 * math.pi * np.arange(sides) / sides
    total = 0.0
    for a, b, c in np.asarray(tris, dtype=float):
        normal = np.cross(b - a, c - a)
        area = 0.5 * float(np.linalg.norm(normal))
        normal = normal / (2.0 * area)
        s = float(normal @ (u - a))
        if abs(s) >= two_r:
            total += area
            continue
        e1 = (b - a) / np.linalg.norm(b - a)
        e2 = np.cross(normal, e1)
        rho = stretch * math.sqrt(two_r ** 2 - s * s)
        poly = (u - s * normal) + rho * (
            np.cos(theta)[:, None] * e1 + np.sin(theta)[:, None] * e2
        )
        for x, y in ((a, b), (b, c), (c, a)):
            poly = _clip_half_plane(poly, x, np.cross(normal, y - x))
        if len(poly) < 3:
            total += area
            continue
        rel = poly - poly[0]
        clipped = 0.5 * float(np.sum(np.cross(rel[1:-1], rel[2:]) @ normal))
        # fan from the vertex mean, inside the polygon: a fan from a vertex
        # has slivers whose angles lose precision when u is just above them
        qa = poly.mean(axis=0) - u
        qb = poly - u
        qc = np.roll(qb, -1, axis=0)
        la = np.linalg.norm(qa)
        lb = np.linalg.norm(qb, axis=1)
        lc = np.linalg.norm(qc, axis=1)
        num = np.cross(qb, qc) @ qa
        den = la * lb * lc + (qb @ qa) * lc + (qc @ qa) * lb + np.sum(qb * qc, axis=1) * la
        omega = 2.0 * float(np.sum(np.arctan2(num, den)))
        total += area - clipped + two_r ** 2 * abs(omega)
    return total


def triangle_distances_reference(p: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Euclidean distance from p to each closed flat triangle of an
    (n, 3, 3) batch, by the standard closest-point region tests.  p is one
    point (3,) or one point per triangle (n, 3)."""
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    ab, ac, bc = b - a, c - a, c - b
    ap = p - a
    bp = p - b
    cp = p - c
    d1 = np.sum(ab * ap, axis=1)
    d2 = np.sum(ac * ap, axis=1)
    d3 = np.sum(ab * bp, axis=1)
    d4 = np.sum(ac * bp, axis=1)
    d5 = np.sum(ab * cp, axis=1)
    d6 = np.sum(ac * cp, axis=1)
    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    def safe_div(num, den):
        return num / np.where(den == 0, 1e-300, den)

    t_ab = np.clip(safe_div(d1, d1 - d3), 0.0, 1.0)[:, None]
    t_ac = np.clip(safe_div(d2, d2 - d6), 0.0, 1.0)[:, None]
    t_bc = np.clip(safe_div(d4 - d3, (d4 - d3) + (d5 - d6)), 0.0, 1.0)[:, None]
    n = np.cross(ab, ac)
    n = n / np.sqrt(np.sum(n * n, axis=1, keepdims=True))
    foot = p - np.sum(n * ap, axis=1)[:, None] * n

    conditions = [
        (d1 <= 0) & (d2 <= 0),
        (d3 >= 0) & (d4 <= d3),
        (vc <= 0) & (d1 >= 0) & (d3 <= 0),
        (d6 >= 0) & (d5 <= d6),
        (vb <= 0) & (d2 >= 0) & (d6 <= 0),
        (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0),
    ]
    choices = [a, b, a + t_ab * ab, c, a + t_ac * ac, b + t_bc * bc]
    closest = np.select(
        [np.repeat(cond[:, None], 3, axis=1) for cond in conditions],
        choices,
        default=foot,
    )
    diff = p - closest
    return np.sqrt(np.sum(diff * diff, axis=1))


def projected_area_reference(config, us, patch) -> np.ndarray:
    """|pi_u(Q)|_2 for each centre in the rows of `us`, NaN for a centre on
    Q, by the per-pair closed form: every (centre, triangle) pair builds the
    triangle's normal and in-plane frame from its own tiled copy."""
    us = np.asarray(us, dtype=float)
    if us.ndim != 2 or us.shape[1] != 3:
        raise ValueError("centres must have shape (m, 3)")
    tris = patch.triangles
    areas = _areas(tris)
    out = np.empty(len(us))
    step = max(1, PAIR_BLOCK // max(len(tris), 1))
    for start in range(0, len(us), step):
        centres = us[start:start + step]
        rows = np.empty((len(centres), len(tris)))
        for lo in range(0, len(tris), PAIR_BLOCK):
            hi = lo + PAIR_BLOCK
            rows[:, lo:hi] = _pair_areas_reference(config, centres, tris[lo:hi], areas[lo:hi])
        out[start:start + len(centres)] = np.sum(rows, axis=1)
    return out


def _pair_areas_reference(config, centres, tris, areas):
    """(k, t) contributions of t triangles seen from k centres; NaN where
    the centre lies on the triangle."""
    k, t = len(centres), len(tris)
    u = np.repeat(centres, t, axis=0)
    tri = np.tile(tris, (k, 1, 1))
    dist = triangle_distances_reference(u, tri)
    out = np.tile(areas, k)
    on_q = dist <= 1e-12
    near = (dist < 2.0 * config.r) & ~on_q
    out[near] = _closed_form_reference(config, u[near], tri[near], out[near])
    out[on_q] = math.nan
    return out.reshape(k, t)


def _closed_form_reference(config, u, tri, area):
    """area(T - D) + (2r)^2 |Omega(T cap D)| for pairs of centres u and
    triangles T with areas `area`, each u off T and closer than 2r to it;
    the fans of kneser.projection._closed_form in a frame built per pair."""
    two_r = 2.0 * config.r
    # in-plane frame (e1, e2, n): e1 along the first edge, n the unit normal
    n = _unit_normals(tri)
    e1 = tri[:, 1] - tri[:, 0]
    e1 /= np.sqrt(_dot(e1, e1))[:, None]
    e2 = np.cross(n, e1)
    # vertices relative to p, in (e1, e2); edge i runs from (x, y) to
    # (x + dx, y + dy), counter-clockwise about n
    rel = tri - u[:, None, :]
    x, y = _dot(rel, e1[:, None, :]), _dot(rel, e2[:, None, :])
    s = -_dot(rel[:, 0], n)
    # below 1e-150 the triangle terms underflow while the sector terms keep
    # sign(s); the true Omega is then below 1e-100, as u is 1e-12 off T
    s = np.where(np.abs(s) < 1e-150, 0.0, s)[:, None]
    s2 = s * s
    r2 = np.maximum(two_r ** 2 - s2, 0.0)
    dx, dy = np.roll(x, -1, axis=1) - x, np.roll(y, -1, axis=1) - y
    qa = dx * dx + dy * dy
    qb = x * dx + y * dy
    disc = qb * qb - qa * (x * x + y * y - r2)
    root = np.sqrt(np.maximum(disc, 0.0))
    meets = disc > 0
    t1 = np.where(meets, np.clip((-qb - root) / qa, 0.0, 1.0), 1.0)
    t2 = np.where(meets, np.clip((-qb + root) / qa, 0.0, 1.0), 1.0)
    # pieces [v, w1] and [w2, v + d] lie outside D, [w1, w2] inside
    w1x, w1y = x + t1 * dx, y + t1 * dy
    w2x, w2y = x + t2 * dx, y + t2 * dy
    phi = np.arctan2(x * w1y - y * w1x, x * w1x + y * w1y) + np.arctan2(
        w2x * (y + dy) - w2y * (x + dx), w2x * (x + dx) + w2y * (y + dy)
    )
    fan = 0.5 * (w1x * w2y - w1y * w2x)
    # a = p - u = -s n, b = w1 - s n, c = w2 - s n
    h = np.abs(s)
    lb = np.sqrt(w1x * w1x + w1y * w1y + s2)
    lc = np.sqrt(w2x * w2x + w2y * w2y + s2)
    num = -2.0 * s * fan
    den = h * lb * lc + s2 * (lb + lc) + (w1x * w2x + w1y * w2y + s2) * h
    cap = np.sign(s) * np.maximum(1.0 - h / two_r, 0.0)
    inside = np.sum(fan + 0.5 * r2 * phi, axis=1)
    omega = np.sum(2.0 * np.arctan2(num, den) - cap * phi, axis=1)
    slack = _INVARIANT_SLACK
    ok = (inside >= -slack * area) & (inside <= (1.0 + slack) * area)
    ok &= np.abs(omega) <= 2.0 * math.pi * (1.0 + slack)
    if not np.all(ok):
        raise JacobianBoundExceeded(
            "closed-form projected area broke 0 <= area(T cap D) <= area(T) "
            "or |Omega(T cap D)| <= 2 pi"
        )
    return area - inside + two_r ** 2 * np.abs(omega)


def reconstruct_sphere_witnesses(
    tri: Triangulation, solutions: list[NormalCoordinates]
) -> list[NormalCoordinates]:
    """The solutions whose reconstructed surface is a connected
    non-vertex-linking 2-sphere, read off the full disk complex."""
    out = []
    for coords in solutions:
        surface = reconstruct(tri, build_complex(tri, coords))
        if (
            surface.connected
            and surface.euler_characteristic == 2
            and not surface.vertex_linking
        ):
            out.append(coords)
    return out


def complex_length(complex_: DiskComplex) -> float:
    """Canonical-placement length read off the disk complex: each arc's
    length from its count from the corner (ArcId[2]) and the weights of the
    edge orbits of its two crossings, summed over every disk boundary, so
    each arc twice, in the complex's disk and cycle order."""
    w = complex_.weights_per_edge
    arc_len = {
        aid: normal_arc_length(aid[2], w[c1[0]], w[c2[0]])
        for aid, (c1, c2) in complex_.arcs.items()
    }
    total = 0.0
    for disk in complex_.disks:
        for arc_use in complex_.boundaries[disk]:
            total += arc_len[arc_use.arc]
    return total


def least_pl_area_reference(
    tri: Triangulation, candidates
) -> tuple[NormalCoordinates, PLArea]:
    """Least PL area over every candidate, read off its disk complex, ties
    within tolerance going to the lexicographically smaller vector."""
    best = None
    best_area = None
    for coords in sorted(candidates):
        complex_ = build_complex(tri, coords)
        area = PLArea(sum(complex_.weights_per_edge), complex_length(complex_))
        if best is None or area.less_than(best_area):
            best, best_area = coords, area
    return best, best_area


def _transposition(a: int, b: int) -> tuple[int, int, int, int]:
    p = [0, 1, 2, 3]
    p[a], p[b] = b, a
    return (p[0], p[1], p[2], p[3])


def crush_walk_reference(tri: Triangulation, coords) -> tuple:
    """The gluing rows of the table that crush walks before it splits it:
    each face of a surviving tet followed one tuple permutation at a time,
    a wedge hop across a deleted tet composing the transposition of the
    face it entered by and that face's partner in the tet's quad pair."""
    quads: list[int | None] = []
    for i in range(tri.size):
        q = None
        for j in range(3):
            if coords[quad_index(i, j)]:
                q = j
        quads.append(q)
    survivors = [i for i in range(tri.size) if quads[i] is None]
    index = {old: new for new, old in enumerate(survivors)}

    def partner(qtype: int, k: int) -> int:
        return next(b if a == k else a for a, b in QUAD_PAIRS[qtype] if k in (a, b))

    def walk(tet: int, face: int):
        g = tri.gluings[tet][face]
        tet, face, perm = g.tet, g.face, g.perm
        while quads[tet] is not None:
            other = partner(quads[tet], face)
            perm = perm_compose(_transposition(face, other), perm)
            g = tri.gluings[tet][other]
            tet, face, perm = g.tet, g.face, perm_compose(g.perm, perm)
        return index[tet], face, perm

    return tuple(tuple(walk(old, f) for f in range(4)) for old in survivors)


def satisfies_matching_per_slot(tri: Triangulation, coords) -> bool:
    """Matching read off the gluings one face orbit at a time: each orbit
    must see the same arc counts from its two sides."""
    require_closed(tri)
    for orbit in skeleton_reference(tri).face_orbits:
        i, f = orbit[0]
        g = tri.gluings[i][f]
        for v in FACE_VERTICES[f]:
            other_side = arc_count(coords, g.tet, g.face, g.perm[v])
            if arc_count(coords, i, f, v) != other_side:
                return False
    return True


def quad_constraint_per_tet(coords, ntet: int) -> bool:
    """At most one nonzero quad coordinate in each tet, by quad index."""
    for i in range(ntet):
        if sum(1 for j in range(3) if coords[quad_index(i, j)] > 0) > 1:
            return False
    return True


def edge_weight_in(coords, tet: int, edge: int) -> int:
    """Crossings of edge `edge` of tet `tet`, counted inside that tet."""
    u, v = EDGE_VERTICES[edge]
    total = coords[tri_index(tet, u)] + coords[tri_index(tet, v)]
    for j in quad_types_crossing_edge(edge):
        total += coords[quad_index(tet, j)]
    return total


def edge_weights_per_slot(tri: Triangulation, coords) -> list[int]:
    """Crossing count per edge orbit from every slot of the orbit; raises
    InconsistentCrossings, with the message `kneser.normal.edge_weights`
    gives, if two slots disagree."""
    out = []
    for idx, orbit in enumerate(skeleton_reference(tri).edge_orbits):
        counts = {edge_weight_in(coords, tet, e) for tet, e in orbit}
        if len(counts) != 1:
            raise InconsistentCrossings(
                f"edge orbit {idx} sees crossing counts {sorted(counts)}"
            )
        out.append(counts.pop())
    return out


def euler_per_slot(tri: Triangulation, coords) -> int:
    """Euler characteristic as edge crossings - normal arcs + normal disks,
    the arcs counted on the representative slot of each face orbit."""
    v = sum(edge_weights_per_slot(tri, coords))
    e = 0
    for orbit in skeleton_reference(tri).face_orbits:
        i, f = orbit[0]
        for corner in FACE_VERTICES[f]:
            e += arc_count(coords, i, f, corner)
    return v - e + sum(coords)


def zero_coordinates(tri: Triangulation) -> NormalCoordinates:
    return (0,) * (7 * tri.size)


def vertex_link_coordinates(tri: Triangulation, vertex_orbit: int) -> NormalCoordinates:
    """The triangle vector of the link of the given vertex orbit."""
    sk = skeleton_reference(tri)
    coords = [0] * (7 * tri.size)
    for tet, v in sk.vertex_orbits[vertex_orbit]:
        coords[tri_index(tet, v)] += 1
    return tuple(coords)


def disjoint_union(a: Triangulation, b: Triangulation) -> Triangulation:
    rows: list[list[RawGluing]] = []
    for i in range(a.size):
        rows.append([
            (g.tet, g.face, g.perm) if g is not None else None
            for g in a.gluings[i]
        ])
    for i in range(b.size):
        rows.append([
            (g.tet + a.size, g.face, g.perm) if g is not None else None
            for g in b.gluings[i]
        ])
    return validate(
        rows,
        require_closed=a.closed and b.closed,
        require_orientable=a.orientable and b.orientable,
    )


def parse_surface_dump(text: str) -> list[tuple[list[int], int, int, bool]]:
    """Parse dump lines back into (coords, wt, chi, vl) tuples."""
    out = []
    for raw in text.splitlines():
        if not raw.strip():
            continue
        if "#" not in raw:
            raise ParseError(f"bad dump line {raw!r}")
        head, tail = raw.split("#", 1)
        parts = head.split()
        if not parts or parts[0] != "S":
            raise ParseError(f"bad dump line {raw!r}")
        coords = [int(x) for x in parts[1:]]
        fields = dict(kv.split("=", 1) for kv in tail.split())
        out.append(
            (coords, int(fields["wt"]), int(fields["chi"]), fields["vl"] == "1")
        )
    return out


def hyperbolic_distance(z: complex, w: complex) -> float:
    """Geodesic distance in the upper half-plane."""
    cosh_d = 1.0 + abs(z - w) ** 2 / (2.0 * z.imag * w.imag)
    return math.acosh(cosh_d)


def _rho(z: complex) -> complex:
    """Order-3 isometry of the ideal triangle, 0 -> 1 -> inf -> 0."""
    return 1.0 / (1.0 - z)


def point_on_edge(edge: int, s: float) -> complex:
    """Edges: 0 = (0, inf), 2 = (0, 1), 1 = (1, inf); s from the midpoint.

    Positive s runs toward inf on edge 0; the other two edges carry the
    directions induced by the order-3 isometry.
    """
    base = cmath.exp(s) * 1j
    if edge == 0:
        return base
    if edge == 2:
        return _rho(base)
    if edge == 1:
        return _rho(_rho(base))
    raise ValueError("edge must be 0, 1 or 2")


def arc_length(edge_a: int, s: float, edge_b: int, u: float) -> float:
    """Distance between parametrized points on two edges of the model."""
    return hyperbolic_distance(point_on_edge(edge_a, s), point_on_edge(edge_b, u))
