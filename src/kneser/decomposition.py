"""Greedy sphere decomposition: certify pieces, crush least-area spheres.

The essentiality proxy: a piece is certified weakly irreducible when every
vertex normal surface that is a connected 2-sphere is vertex-linking.
Otherwise the lexicographically least offending sphere (by PL area, then by
coordinate vector) is crushed and the components re-enter the worklist.
Crushing strictly decreases the total tetrahedron count, so the loop runs
at most t0 times on an input with t0 tetrahedra.

Both the test and the choice are read off linear data, with no surface
reconstructed.  A vertex solution is the primitive integer vector on an
extremal ray of the admissible cone, so it is connected: were it S1 + S2
with both nonzero, both would lie on its ray and it would not be
primitive.  A connected normal surface with no quadrilateral is a vertex
link.  So a vertex solution is a connected non-vertex-linking sphere
exactly when it has a nonzero quad coordinate and Euler characteristic 2
(Jaco & Tollefson 1995; Jaco & Rubinstein 2003).  PL area compares the
exact integer weight first, so only the witnesses of least weight need a
length, a sum over normal arcs that the coordinates and edge weights fix.
Only the chosen sphere gets a disk complex, built once; `crush` (and
`cut_and_cap` under the oracle) cut along it, and `crush` reconstructs it
and checks that it is a connected non-vertex-linking sphere.

A sphere bounding a ball may well be selected; crushing it is harmless and
still makes progress.  Crushing can also silently discard summands in
degenerate situations; the homology ledger in the report makes any such
loss visible instead of hiding it.  H_1 of a connected sum is the direct
sum of the summands' H_1, and crushing may split or regroup its factors, so
the ledger (like the crush oracle) compares direct sums: total rank and the
multiset of prime-power torsion factors.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyCheckFailed, TerminationGuardTripped
from .homology import AbelianInvariants, homology
from .normal import (
    NormalCoordinates,
    check_coordinate_rows,
    edge_weight_rows,
    euler_rows,
)
from .pl_area import PLArea, pl_area, verify_diameter_bound
from .reconstruct import build_complex
from .surgery import crush, cut_and_cap
from .triangulation import (
    GluingArrays,
    Triangulation,
    connected_components,
    skeleton,
    split_components,
    validate_arrays,
)
from .vertex_enum import DEFAULT_BUDGET, enumerate_vertex_solutions


@dataclass(frozen=True)
class Certificate:
    """Vertex-level weak-irreducibility certificate for one piece."""

    kind: str  # "CertifiedWeaklyIrreducible" | "NotCertified"
    inspected: int
    witnesses: tuple[NormalCoordinates, ...]

    @property
    def certified(self) -> bool:
        return self.kind == "CertifiedWeaklyIrreducible"


@dataclass(frozen=True)
class SphereRecord:
    """A sphere selected and crushed by the decomposition loop."""

    coordinates: NormalCoordinates
    area: PLArea
    support_size: int
    diameter: int
    diameter_bound_ok: bool


@dataclass(frozen=True)
class PieceRecord:
    triangulation: Triangulation
    certificate: Certificate
    h1: AbelianInvariants


@dataclass(frozen=True)
class HomologyLedger:
    """H_1 bookkeeping: input components vs output pieces, balanced when
    their direct sums are isomorphic."""

    input_h1: tuple[AbelianInvariants, ...]
    pieces_h1: tuple[AbelianInvariants, ...]

    @property
    def balanced(self) -> bool:
        return _direct_sum(self.input_h1) == _direct_sum(self.pieces_h1)


def _prime_powers(d: int) -> list[int]:
    """The prime-power factors of d, so that Z/d is their direct sum."""
    out = []
    p = 2
    while d > 1:
        if d % p == 0:
            q = 1
            while d % p == 0:
                d //= p
                q *= p
            out.append(q)
        p += 1
    return out


def _direct_sum(groups) -> tuple[int, list[int]]:
    """Rank and sorted prime-power torsion factors of the direct sum of
    `groups`; two direct sums are isomorphic iff these agree."""
    factors = [q for g in groups for d in g.torsion for q in _prime_powers(d)]
    return sum(g.rank for g in groups), sorted(factors)


@dataclass(frozen=True)
class OracleSummary:
    checked: int
    agreed: bool


@dataclass(frozen=True)
class DecompositionReport:
    input_size: int
    spheres: tuple[SphereRecord, ...]
    pieces: tuple[PieceRecord, ...]
    ledger: HomologyLedger
    crushes: int
    enumerations: int
    oracle: OracleSummary | None

    @property
    def c3(self) -> int:
        return max((s.area.weight for s in self.spheres), default=0)

    @property
    def c1(self) -> int:
        return self.c3 ** 2


def sphere_witnesses(
    tri: Triangulation, solutions: list[NormalCoordinates]
) -> list[NormalCoordinates]:
    """Vertex solutions that are connected non-vertex-linking 2-spheres.

    The solutions are validated in one `check_coordinate_rows` pass and
    their Euler characteristics taken in one `euler_rows` pass; each is
    kept when it has a quad and Euler characteristic 2.  A vertex solution
    is primitive on an extremal ray, hence connected, and a connected
    quad-free normal surface is a vertex link, so these two linear tests
    decide the definition exactly."""
    rays = check_coordinate_rows(tri, solutions)
    has_quad = (rays.reshape(len(rays), tri.size, 7)[:, :, 4:] != 0).any(axis=(1, 2))
    keep = has_quad & (euler_rows(tri, rays) == 2)
    return list(map(tuple, rays[keep].tolist()))


def certify_weakly_irreducible(
    tri: Triangulation, budget: int = DEFAULT_BUDGET
) -> Certificate:
    """Certified iff every vertex normal sphere is vertex-linking."""
    solutions = enumerate_vertex_solutions(tri, budget)
    witnesses = sphere_witnesses(tri, solutions)
    if witnesses:
        return Certificate(
            kind="NotCertified",
            inspected=len(solutions),
            witnesses=tuple(sorted(witnesses)),
        )
    return Certificate(
        kind="CertifiedWeaklyIrreducible",
        inspected=len(solutions),
        witnesses=(),
    )


def _least_candidate(
    tri: Triangulation, candidates: tuple[NormalCoordinates, ...]
) -> tuple[NormalCoordinates, PLArea]:
    """The least-PL-area candidate and its area, read off the coordinates
    with no complex built."""
    # PL area compares weight first, so only the least-weight candidates can
    # win and only they need a length
    weights = edge_weight_rows(tri, candidates).sum(axis=1)
    least = weights.min()
    best = None
    best_area = None
    for coords in sorted(c for c, w in zip(candidates, weights) if w == least):
        area = pl_area(tri, coords)
        if best is None or area.less_than(best_area):
            best, best_area = coords, area
        # ties within tolerance keep the lexicographically smaller vector,
        # which sorted() already visited first
    return best, best_area


def find_essential_sphere(
    tri: Triangulation, budget: int = DEFAULT_BUDGET
) -> tuple[NormalCoordinates, PLArea] | None:
    """Least-PL-area connected non-vertex-linking vertex normal sphere,
    ties broken by the coordinate vector; None if the piece is certified."""
    cert = certify_weakly_irreducible(tri, budget)
    if cert.certified:
        return None
    return _least_candidate(tri, cert.witnesses)


def decompose(
    tri: Triangulation,
    budget: int = DEFAULT_BUDGET,
    oracle_check: bool = False,
) -> DecompositionReport:
    """Worklist loop: certify, else crush the least essential sphere.

    tri must be closed and orientable, as `parse_tri` demands.  A
    connected tri validated as closed and orientable is its own component;
    any other is split, and each component is validated as closed and
    orientable, which raises as `parse_tri` would.  With
    oracle_check, every crush is audited against cut_and_cap: the direct
    sums of the two sets of pieces' H_1 must be isomorphic."""
    t0 = tri.size
    if tri.closed and tri.orientable and len(connected_components(tri.arrays)) == 1:
        components = [tri]
    else:
        components = split_components(tri.arrays)
    input_h1 = tuple(homology(c, 1) for c in components)
    worklist = deque(components)
    spheres: list[SphereRecord] = []
    pieces: list[PieceRecord] = []
    crushes = 0
    enumerations = 0
    oracle_checked = 0
    oracle_agreed = True

    while worklist:
        piece = worklist.popleft()
        cert = certify_weakly_irreducible(piece, budget)
        enumerations += 1
        if cert.certified:
            pieces.append(
                PieceRecord(
                    triangulation=piece,
                    certificate=cert,
                    h1=homology(piece, 1),
                )
            )
            continue
        coords, area = _least_candidate(piece, cert.witnesses)
        check = verify_diameter_bound(piece, coords)
        spheres.append(
            SphereRecord(
                coordinates=coords,
                area=area,
                support_size=check.support_size,
                diameter=check.diameter,
                diameter_bound_ok=check.passed,
            )
        )
        if crushes >= t0:
            raise TerminationGuardTripped(
                f"attempted more than {t0} crushes on a {t0}-tet input"
            )
        complex_ = build_complex(piece, coords)
        parts = crush(piece, complex_)
        crushes += 1
        if oracle_check:
            reference = cut_and_cap(piece, complex_)
            oracle_checked += 1
            if _direct_sum([homology(p, 1) for p in parts]) != _direct_sum(
                [homology(p, 1) for p in reference]
            ):
                oracle_agreed = False
        worklist.extend(parts)

    return DecompositionReport(
        input_size=t0,
        spheres=tuple(spheres),
        pieces=tuple(pieces),
        ledger=HomologyLedger(
            input_h1=input_h1,
            pieces_h1=tuple(p.h1 for p in pieces),
        ),
        crushes=crushes,
        enumerations=enumerations,
        oracle=(
            OracleSummary(checked=oracle_checked, agreed=oracle_agreed)
            if oracle_check
            else None
        ),
    )


def _tet0_embedded(t: Triangulation) -> bool:
    """The closure of tet 0 is embedded: its vertices, edges and faces lie
    in pairwise distinct orbits, with the face partners off tet 0.

    Removing an open tetrahedron only removes a ball-with-embedded-boundary
    under this condition; otherwise the shell splice silently forgets the
    identifications among tet 0's boundary simplices and the result is not
    the connected sum.
    """
    sk = skeleton(t)
    for orbit in (sk.vertex_orbit, sk.edge_orbit, sk.face_orbit):
        row = orbit[0].tolist()
        if len(set(row)) != len(row):
            return False
    # a boundary face's neighbour is tet 0 itself
    return bool((t.arrays.neighbours()[0] != 0).all())


def connected_sum(a: Triangulation, b: Triangulation) -> Triangulation:
    """Remove tet 0 from each summand and glue the boundary tetrahedron
    shells by an orientation-reversing simplicial bijection.

    Each summand's tet 0 must be embedded (see _tet0_embedded); corpus
    summands are built that way."""
    for name, t in (("first", a), ("second", b)):
        if not (t.closed and t.orientable):
            raise ValueError(f"{name} summand must be closed and orientable")
        if t.size < 2:
            raise ValueError(f"{name} summand needs at least 2 tetrahedra")
        if not _tet0_embedded(t):
            raise ValueError(
                f"{name} summand: tet 0 is not embedded; removing it would "
                "not excise a ball with embedded boundary sphere"
            )

    # the shell identification must reverse orientation: odd when the two
    # removed tets carry equal signs, even otherwise
    phi = np.array([1, 0, 2, 3] if a.orientations[0] == b.orientations[0] else [0, 1, 2, 3])
    near, far, perm, shells = [], [], [], []
    # each summand's tets renumbered into the sum, tet 0 dropped
    for t, number in ((a, np.arange(a.size) - 1), (b, np.arange(b.size) + a.size - 2)):
        tet, face, images = t.arrays.tet, t.arrays.face, t.arrays.image_table()
        inner = tet[1:] != 0
        near.append((4 * number[1:, None] + np.arange(4))[inner])
        far.append(4 * number[tet[1:][inner]] + face[1:][inner])
        perm.append(images[1:][inner])
        shells.append((4 * number[tet[0]] + face[0], images[0]))
    # face i of a's tet 0 meets face phi[i] of b's across the removed balls,
    # so a's shell slot glues to b's by gb after phi after the inverse of ga
    # (argsort inverts a row of images)
    (src, ga), (dst, gb) = shells
    dst, gb = dst[phi], gb[phi]
    q = np.take_along_axis(gb, phi[np.argsort(ga, axis=1)], axis=1)
    table = GluingArrays.written(
        a.size + b.size - 2,
        np.concatenate((*near, src, dst)),
        np.concatenate((*far, dst, src)),
        np.concatenate((*perm, q, np.argsort(q, axis=1))),
    )
    out = validate_arrays(table, require_closed=True, require_orientable=True)
    if out.size != a.size + b.size - 2:
        raise ConsistencyCheckFailed(
            f"connected sum has {out.size} tets, not {a.size + b.size - 2}"
        )
    return out

