"""Pipeline fuzz over the full 2-tetrahedron census.

Every valid closed orientable 2-tet gluing table (including one-vertex
triangulations and same-tet face gluings) goes through enumeration,
reconstruction (whose internal cross-checks raise), the diameter bound,
and, for every non-vertex-linking sphere found, crushing and cutting.
Deterministic subsampling keeps the runtime bounded.
"""
import functools
import itertools

from kneser.errors import KneserError
from kneser.homology import homology
from kneser.pl_area import pl_area, verify_diameter_bound
from kneser.reconstruct import build_complex, reconstruct
from kneser.surgery import crush, cut_and_cap
from kneser.triangulation import connected_components, validate
from kneser.vertex_enum import enumerate_vertex_solutions
from oracles import complex_length


def two_tet_tables():
    slots = [(i, f) for i in range(2) for f in range(4)]

    def pairings(rest):
        if not rest:
            yield []
            return
        a = rest[0]
        for i in range(1, len(rest)):
            for sub in pairings(rest[1:i] + rest[i + 1:]):
                yield [(a, rest[i])] + sub

    def perms_fixing(f, k):
        others = [v for v in range(4) if v != f]
        targets = [v for v in range(4) if v != k]
        for assign in itertools.permutations(targets):
            p = [0] * 4
            p[f] = k
            for v, t in zip(others, assign):
                p[v] = t
            yield tuple(p)

    for pairing in pairings(slots):
        choices = [list(perms_fixing(f1, f2)) for (_, f1), (_, f2) in pairing]
        for combo in itertools.product(*choices):
            table = [[None] * 4 for _ in range(2)]
            for ((i1, f1), (i2, f2)), p in zip(pairing, combo):
                q = [0] * 4
                for v in range(4):
                    q[p[v]] = v
                table[i1][f1] = (i2, f2, p)
                table[i2][f2] = (i1, f1, tuple(q))
            yield table


@functools.lru_cache(maxsize=None)
def closed_two_tet():
    """Every table of two_tet_tables() that validates as a connected closed
    orientable triangulation, validated once per test session."""
    out = []
    for table in two_tet_tables():
        try:
            tri = validate(table)
        except (KneserError, ValueError):
            continue
        if len(connected_components(tri.arrays)) == 1:
            out.append(tri)
    return tuple(out)


def test_census_sweep():
    swept = 0
    spheres_crushed = 0
    valid = len(closed_two_tet())
    for count, tri in enumerate(closed_two_tet(), 1):
        if count % 7:  # deterministic subsample, about 200 manifolds
            continue
        swept += 1
        solutions = enumerate_vertex_solutions(tri)
        assert solutions, "a closed triangulation always has vertex links"
        for coords in solutions:
            complex_ = build_complex(tri, coords)
            surface = reconstruct(tri, complex_)  # internal chi cross-checks
            check = verify_diameter_bound(tri, coords)
            assert check.passed
            area = pl_area(tri, coords)
            assert area.weight == check.weight
            # the linear sum walks the same arcs in the same order
            assert area.length == complex_length(tri, coords)
            assert area.length > 0
            if not (
                surface.connected
                and surface.euler_characteristic == 2
                and not surface.vertex_linking
            ):
                continue
            pieces = crush(tri, complex_)  # raises InvalidAfterCrush on bugs
            assert sum(p.size for p in pieces) < tri.size
            reference = cut_and_cap(tri, complex_)
            assert len(reference) in (1, 2)
            for piece in pieces + reference:
                assert piece.closed and piece.orientable
                homology(piece, 1)
            spheres_crushed += 1
    assert valid > 500
    assert swept >= 70
    assert spheres_crushed >= 20
    print(
        f"census sweep: {valid} valid closed orientable tables, "
        f"{swept} swept, {spheres_crushed} spheres crushed"
    )
