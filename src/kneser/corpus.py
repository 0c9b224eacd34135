"""Built-in test triangulations and patches.

The small census tables below (S^3 on one and two tetrahedra, a 2-tet
manifold with H_1 = Z/2) were found by exhaustive search over gluing tables
and are pinned here verbatim; tests re-derive them by running the same
search.  Everything emitted here round-trips through validate().
"""
from __future__ import annotations

import math

import numpy as np

from .triangulation import RawGluing, Triangulation, validate


def bd4_simplex() -> Triangulation:
    """Boundary of the 4-simplex: five tetrahedra, all ten face pairs glued
    by the order-preserving vertex correspondences.  A 5-tet 3-sphere."""
    tets = [sorted(set(range(5)) - {i}) for i in range(5)]
    table: list[list[RawGluing]] = [[None] * 4 for _ in range(5)]
    for i in range(5):
        for j in range(5):
            if i == j:
                continue
            f = tets[i].index(j)
            k = tets[j].index(i)
            perm = [0, 0, 0, 0]
            for l, g in enumerate(tets[i]):
                perm[l] = tets[j].index(i) if g == j else tets[j].index(g)
            table[i][f] = (j, k, tuple(perm))
    return validate(table)


def linear_chain(n: int) -> Triangulation:
    """n tets glued in a row with maximally twisted gluings.

    Face 0 of tet i glues to face 3 of tet i+1, rotating vertex roles, so
    that each vertex orbit spans at most 4 consecutive tets.  Any face-glued
    chain shares vertices between tets up to 3 apart (the shared faces of a
    middle tet always meet), so d_T(0, n-1) = ceil((n-1)/3) is the best a
    chain can do.  Open triangulation, used for quasimetric tests.
    """
    if n < 1:
        raise ValueError("chain needs at least one tet")
    table: list[list[RawGluing]] = [[None] * 4 for _ in range(n)]
    rot = (3, 0, 1, 2)
    rot_inv = (1, 2, 3, 0)
    for i in range(n - 1):
        table[i][0] = (i + 1, 3, rot)
        table[i + 1][3] = (i, 0, rot_inv)
    return validate(table, require_closed=False)


# Pinned small census tables (see module docstring).  Each is the
# lexicographically least closed orientable gluing table with the stated
# H_1 among its search class; the 2-tet ones are restricted to cross-tet
# gluings so that tet 0 has four distinct partner slots (a requirement for
# serving as a connected-sum summand).
_S3_ONE_TET = [
    [(0, 1, (1, 0, 2, 3)), (0, 0, (1, 0, 2, 3)),
     (0, 3, (0, 1, 3, 2)), (0, 2, (0, 1, 3, 2))],
]

# The double of a tetrahedron: both copies glued by the identity on each face.
_S3_TWO_TET = [
    [(1, 0, (0, 1, 2, 3)), (1, 1, (0, 1, 2, 3)),
     (1, 2, (0, 1, 2, 3)), (1, 3, (0, 1, 2, 3))],
    [(0, 0, (0, 1, 2, 3)), (0, 1, (0, 1, 2, 3)),
     (0, 2, (0, 1, 2, 3)), (0, 3, (0, 1, 2, 3))],
]

_Z2_TWO_TET = [
    [(1, 0, (0, 1, 2, 3)), (1, 1, (0, 1, 2, 3)),
     (1, 3, (1, 0, 3, 2)), (1, 2, (1, 0, 3, 2))],
    [(0, 0, (0, 1, 2, 3)), (0, 1, (0, 1, 2, 3)),
     (0, 3, (1, 0, 3, 2)), (0, 2, (1, 0, 3, 2))],
]

_Z3_TWO_TET = [
    [(1, 0, (0, 1, 2, 3)), (1, 1, (0, 1, 2, 3)),
     (1, 2, (0, 1, 2, 3)), (1, 3, (1, 2, 0, 3))],
    [(0, 0, (0, 1, 2, 3)), (0, 1, (0, 1, 2, 3)),
     (0, 2, (0, 1, 2, 3)), (0, 3, (2, 0, 1, 3))],
]

_Z_TWO_TET = [
    [(0, 1, (1, 2, 3, 0)), (0, 0, (3, 0, 1, 2)),
     (1, 0, (1, 2, 0, 3)), (1, 3, (1, 2, 0, 3))],
    [(0, 2, (2, 0, 1, 3)), (1, 2, (3, 2, 0, 1)),
     (1, 1, (2, 3, 1, 0)), (0, 3, (2, 0, 1, 3))],
]


def s3_one_tet() -> Triangulation:
    """Smallest closed orientable triangulation: a 1-tet S^3."""
    return validate(_S3_ONE_TET)


def s3_two_tet() -> Triangulation:
    """2-tet closed orientable, trivial H_1: the doubled tetrahedron S^3."""
    return validate(_S3_TWO_TET)


def rp3_two_tet() -> Triangulation:
    """2-tet closed orientable with H_1 = Z/2: real projective 3-space."""
    return validate(_Z2_TWO_TET)


def l31_two_tet() -> Triangulation:
    """2-tet closed orientable with H_1 = Z/3: the lens space L(3,1)."""
    return validate(_Z3_TWO_TET)


def s2xs1_two_tet() -> Triangulation:
    """2-tet closed orientable with H_1 = Z: the sphere bundle S^2 x S^1."""
    return validate(_Z_TWO_TET)


def rp3_octahedral() -> Triangulation:
    """Projective 3-space as the octahedron with antipodal boundary gluing.

    Eight tetrahedra cone the octahedron's faces from a central vertex; the
    boundary faces are identified in antipodal pairs.  Unlike the 2-tet
    model, tet 0 here is embedded (its vertices, edges and faces are
    pairwise distinct in the quotient), which a connected-sum summand needs.
    """
    verts = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    index = {v: i for i, v in enumerate(verts)}
    faces = []
    for x in (1, -1):
        for y in (1, -1):
            for z in (1, -1):
                faces.append(((x, 0, 0), (0, y, 0), (0, 0, z)))
    # tet i = cone on faces[i] from the barycenter; local vertex 0 is the
    # center, locals 1..3 are the face corners in the order listed above
    tet_of_face = {tuple(sorted(index[v] for v in f)): i for i, f in enumerate(faces)}
    table: list[list[RawGluing]] = [[None] * 4 for _ in range(8)]
    for i, f in enumerate(faces):
        corners = [index[v] for v in f]
        local_of = {index[v]: 1 + k for k, v in enumerate(f)}
        # outer face (opposite the center) glues to the antipodal tet
        anti = tuple(tuple(-c for c in v) for v in f)
        j = tet_of_face[tuple(sorted(index[a] for a in anti))]
        perm = [0, 0, 0, 0]
        perm[0] = 0
        for v in f:
            av = tuple(-c for c in v)
            jf = faces[j]
            perm[local_of[index[v]]] = 1 + list(jf).index(av)
        table[i][0] = (j, 0, tuple(perm))
        # inner faces (center + one octahedron edge) glue to the adjacent cone
        for k, v in enumerate(f):
            others = [w for w in f if w != v]
            shared = [index[w] for w in others]
            # the other boundary face containing this octahedron edge
            third = tuple(-c for c in v)
            j2 = tet_of_face[tuple(sorted(shared + [index[third]]))]
            jf2 = faces[j2]
            perm2 = [0, 0, 0, 0]
            perm2[0] = 0
            for w in others:
                perm2[local_of[index[w]]] = 1 + list(jf2).index(w)
            perm2[local_of[index[v]]] = 1 + list(jf2).index(third)
            table[i][local_of[index[v]]] = (j2, 1 + list(jf2).index(third), tuple(perm2))
    return validate(table)


def regular_tetrahedron() -> np.ndarray:
    """Unit-edge regular tetrahedron with barycenter at the origin, (4,3)."""
    scale = 1.0 / (2.0 * math.sqrt(2.0))
    return scale * np.array(
        [
            [1.0, 1.0, 1.0],
            [1.0, -1.0, -1.0],
            [-1.0, 1.0, -1.0],
            [-1.0, -1.0, 1.0],
        ]
    )


def _subdivided(tris: list[np.ndarray], refine: int) -> list[np.ndarray]:
    """Each triangle cut into four at its edge midpoints, `refine` times."""
    for _ in range(refine):
        nxt = []
        for t in tris:
            m01 = 0.5 * (t[0] + t[1])
            m12 = 0.5 * (t[1] + t[2])
            m20 = 0.5 * (t[2] + t[0])
            nxt += [
                np.array([t[0], m01, m20]),
                np.array([t[1], m12, m01]),
                np.array([t[2], m20, m12]),
                np.array([m01, m12, m20]),
            ]
        tris = nxt
    return tris


def sphere_patch(radius: float, refine: int = 1) -> np.ndarray:
    """Octahedron boundary refined and projected to the sphere of the given
    radius about the origin; (n, 3, 3) triangle array."""
    v = np.array(
        [
            [1, 0, 0], [-1, 0, 0],
            [0, 1, 0], [0, -1, 0],
            [0, 0, 1], [0, 0, -1],
        ],
        dtype=float,
    )
    faces = [
        (0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
        (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5),
    ]
    tris = [np.array([v[a], v[b], v[c]]) for a, b, c in faces]
    out = np.array(_subdivided(tris, refine))
    norms = np.sqrt(np.sum(out * out, axis=2, keepdims=True))
    return radius * out / norms


def tilted_square_patch(center, normal, half: float, refine: int = 2) -> np.ndarray:
    """A square of half-width `half` centered at `center`, facing `normal`."""
    n = np.asarray(normal, dtype=float)
    n = n / math.sqrt(float(np.sum(n * n)))
    a = np.array([1.0, 0.0, 0.0])
    if abs(float(np.dot(a, n))) > 0.9:
        a = np.array([0.0, 1.0, 0.0])
    u = np.cross(n, a)
    u = u / math.sqrt(float(np.sum(u * u)))
    w = np.cross(n, u)
    c = np.asarray(center, dtype=float)
    corners = [
        c - half * u - half * w,
        c + half * u - half * w,
        c + half * u + half * w,
        c - half * u + half * w,
    ]
    tris = [
        np.array([corners[0], corners[1], corners[2]]),
        np.array([corners[0], corners[2], corners[3]]),
    ]
    return np.array(_subdivided(tris, refine))
