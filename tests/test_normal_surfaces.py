import functools
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kneser import corpus, vertex_enum
from kneser.errors import BudgetExceeded, NotClosed
from kneser.normal import (
    check_coordinate_rows,
    check_coordinates,
    edge_weight_rows,
    edge_weights,
    euler_from_coordinates,
    euler_rows,
    matching_system,
    quad_index,
    quad_type_separating,
    tri_index,
    weight,
)
from kneser.reconstruct import build_complex, reconstruct
from kneser.triangulation import FACE_VERTICES, skeleton, validate
from kneser.vertex_enum import enumerate_vertex_solutions, is_vertex_ray
from oracles import (
    brute_force_solutions,
    edge_weights_per_slot,
    euler_per_slot,
    is_vertex_ray_sympy,
    quad_constraint_per_tet,
    satisfies_matching_per_slot,
    surface_orientability_reference,
    vertex_link_coordinates,
    zero_coordinates,
)
from test_decomposition import _closed_corpus_files
from test_triangulation import one_tet_table

_FILES = _closed_corpus_files()


@functools.lru_cache(maxsize=None)
def _rays(name):
    return enumerate_vertex_solutions(_FILES[name])


def _outcome(f, *args):
    """f's value, or the type and message of what it raised."""
    try:
        return "value", f(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _checked_per_slot(tri, coords):
    """`check_coordinates` by the per-slot matching and per-tet quad
    definitions, for a vector of the right length."""
    if any(c < 0 for c in coords):
        raise ValueError("normal coordinates must be nonnegative")
    if not satisfies_matching_per_slot(tri, coords):
        raise ValueError("matching equations fail")
    if not quad_constraint_per_tet(coords, tri.size):
        raise ValueError("quad constraint fails")
    return tuple(coords)


def _assert_table_matches_slots(tri, coords):
    for table, slots in (
        (check_coordinates, _checked_per_slot),
        (edge_weights, edge_weights_per_slot),
        (weight, lambda t, c: sum(edge_weights_per_slot(t, c))),
        (euler_from_coordinates, euler_per_slot),
    ):
        assert _outcome(table, tri, coords) == _outcome(slots, tri, coords), (
            table.__name__, coords,
        )


@st.composite
def _tri_and_vector(draw):
    """A closed corpus file and a vector on it: noise, or a vertex ray or
    the sum of two, with one coordinate moved so that matching may fail."""
    name = draw(st.sampled_from(sorted(_FILES)))
    n = 7 * _FILES[name].size
    if draw(st.booleans()):
        vec = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    else:
        rays = st.sampled_from(_rays(name))
        a, b, m = draw(rays), draw(rays), draw(st.integers(0, 2))
        vec = [x + m * y for x, y in zip(a, b)]
        vec[draw(st.integers(0, n - 1))] += draw(st.integers(-1, 2))
    return name, tuple(vec)


class TestCoordinateTable:
    """The table-driven tests agree with the per-slot definitions, value for
    value and exception for exception."""

    def test_every_corpus_vertex_ray(self):
        checked = 0
        for name, tri in _FILES.items():
            for coords in _rays(name):
                _assert_table_matches_slots(tri, coords)
                checked += 1
        assert checked == 345

    @given(_tri_and_vector())
    def test_hypothesis_vectors(self, case):
        name, coords = case
        _assert_table_matches_slots(_FILES[name], coords)

    def test_inconsistent_crossings_message(self, bd4):
        bad = list(zero_coordinates(bd4))
        bad[0] = 1
        assert _outcome(edge_weights, bd4, bad)[0] == "InconsistentCrossings"
        _assert_table_matches_slots(bd4, tuple(bad))

    def test_bad_row_among_good_ones(self, closed_corpus):
        """A vector whose edge slots disagree gets the message it gets on
        its own, wherever it sits among valid rows, from the batched edge
        weights and Euler characteristics alike."""
        for name, tri in closed_corpus.items():
            good = enumerate_vertex_solutions(tri)
            for i in range(0, 7 * tri.size, 5):
                bad = list(good[i % len(good)])
                bad[i] += 1
                single = _outcome(edge_weights, tri, bad)
                if single[0] != "InconsistentCrossings":
                    continue
                assert single == _outcome(edge_weights_per_slot, tri, bad), name
                for rows in ([*good, bad], [bad, *good], [*good[:2], bad, *good[2:]]):
                    assert _outcome(edge_weight_rows, tri, rows) == single, name
                    assert _outcome(euler_rows, tri, rows) == single, name

    def test_batched_kernels_match_slots(self, closed_corpus):
        for tri in closed_corpus.values():
            rays = enumerate_vertex_solutions(tri)
            weights = edge_weight_rows(tri, rays)
            assert weights.dtype == np.int64
            assert weights.tolist() == [edge_weights_per_slot(tri, c) for c in rays]
            assert euler_rows(tri, rays).tolist() == [euler_per_slot(tri, c) for c in rays]

    def test_exact_beyond_int64(self, closed_corpus):
        """A vertex link scaled by 2**70 gets the exact per-slot edge
        weights, weight and Euler characteristic, as Python ints."""
        for name, tri in closed_corpus.items():
            coords = tuple(2**70 * c for c in vertex_link_coordinates(tri, 0))
            weights = edge_weights(tri, coords)
            assert weights == edge_weights_per_slot(tri, coords), name
            assert all(type(w) is int for w in weights), name
            wt = weight(tri, coords)
            assert type(wt) is int and wt == sum(edge_weights_per_slot(tri, coords))
            chi = euler_from_coordinates(tri, coords)
            assert type(chi) is int and chi == euler_per_slot(tri, coords) == 2**71
            assert check_coordinates(tri, coords) == coords


class TestMatchingSystem:
    def test_bd4_shape(self, bd4):
        m = matching_system(bd4)
        assert len(m) == 30 and len(m[0]) == 35

    def test_zero_vector_satisfies(self, bd4):
        zero = zero_coordinates(bd4)
        assert satisfies_matching_per_slot(bd4, zero)
        assert check_coordinates(bd4, zero) == zero

    def test_vertex_links_satisfy(self, bd4):
        for orbit in range(skeleton(bd4).vertex_count):
            coords = vertex_link_coordinates(bd4, orbit)
            assert satisfies_matching_per_slot(bd4, coords)
            assert check_coordinates(bd4, coords) == coords

    def test_not_closed_rejected(self):
        open_tri = validate([[None] * 4], require_closed=False)
        with pytest.raises(NotClosed):
            matching_system(open_tri)

    def test_not_closed_named_as_validate_names_it(self):
        """On tables with no boundary face that are not closed, the linear
        tests raise the NotClosed that validate raises, slot and reason."""
        for q in ((0, 2, 3, 1), (1, 0, 3, 2), (2, 1, 3, 0)):
            table = one_tet_table(q)
            tri = validate(table, require_closed=False, require_orientable=False)
            with pytest.raises(NotClosed) as expected:
                validate(table, require_orientable=False)
            for check in (matching_system, lambda t: check_coordinate_rows(t, [[0] * 7])):
                with pytest.raises(NotClosed) as info:
                    check(tri)
                assert str(info.value) == str(expected.value), q

    def test_cached_value_is_shared_and_immutable(self, bd4):
        first = matching_system(bd4)
        assert matching_system(bd4) is first
        assert isinstance(first, np.ndarray) and first.dtype == np.int64
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1

    def test_rows_follow_the_face_orbits(self, closed_corpus):
        """Row (F, v), in face-orbit then corner order, adds 1 at the
        triangle and the quad cutting off corner v in the representative
        slot of F and subtracts 1 at those of the glued side."""
        for name, tri in closed_corpus.items():
            rows = []
            for first in skeleton(tri).face_first.tolist():
                i, f = divmod(first, 4)
                g = tri.gluings[i][f]
                for v in FACE_VERTICES[f]:
                    row = [0] * (7 * tri.size)
                    for tet, face, corner, sign in ((i, f, v, 1), (g.tet, g.face, g.perm[v], -1)):
                        others = [w for w in FACE_VERTICES[face] if w != corner]
                        row[tri_index(tet, corner)] += sign
                        row[quad_index(tet, quad_type_separating(*others))] += sign
                    rows.append(row)
            assert matching_system(tri).tolist() == rows, name

    def test_cache_leaves_answers_unchanged(self, closed_corpus, monkeypatch):
        """Vertex solution counts as pinned before the cache existed, the
        same solutions from a matrix rebuilt on every call, and the same
        matching verdicts as a direct evaluation of the rebuilt matrix, on
        the solutions, the unit vectors, each solution with one coordinate
        raised, and seeded random non-negative vectors."""
        counts = {
            "s3_one_tet": 3, "s3_two_tet": 7, "rp3_two_tet": 5,
            "l31_two_tet": 5, "s2xs1_two_tet": 4, "bd4_simplex": 15,
            "rp3_octahedral": 27, "sum_bd4_bd4": 30, "sum_bd4_rp3": 60,
            "sum_s3_rp3": 27,
        }
        assert set(counts) == set(closed_corpus)
        uncached = matching_system.__wrapped__
        cached = {n: enumerate_vertex_solutions(t) for n, t in closed_corpus.items()}
        with monkeypatch.context() as m:
            m.setattr(vertex_enum, "matching_system", uncached)
            rebuilt = {n: enumerate_vertex_solutions(t) for n, t in closed_corpus.items()}
        assert cached == rebuilt
        rng = random.Random(3)
        for name, tri in closed_corpus.items():
            assert len(cached[name]) == counts[name], name
            n = 7 * tri.size
            units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
            raised = [
                tuple(x + (i == k) for i, x in enumerate(sol))
                for sol in cached[name]
                for k in (rng.randrange(n),)
            ]
            noise = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(30)]
            for coords in cached[name] + units + raised + noise:
                direct = all(
                    sum(c * x for c, x in zip(row, coords)) == 0
                    for row in uncached(tri)
                )
                assert satisfies_matching_per_slot(tri, coords) == direct, name
                verdict = _outcome(check_coordinates, tri, coords)
                assert (verdict[1] != "matching equations fail") == direct, name


class TestEnumeration:
    def test_bd4_contains_all_vertex_links(self, bd4):
        solutions = enumerate_vertex_solutions(bd4)
        links = {
            vertex_link_coordinates(bd4, orbit)
            for orbit in range(skeleton(bd4).vertex_count)
        }
        assert links <= set(solutions)
        assert len(solutions) == 15  # 5 vertex links + 10 thin edge links

    def test_quad_constraint_postcondition(self, closed_corpus):
        for tri in closed_corpus.values():
            solutions = enumerate_vertex_solutions(tri)
            assert check_coordinate_rows(tri, solutions).tolist() == [
                list(c) for c in solutions
            ]
            for coords in solutions:
                assert quad_constraint_per_tet(coords, tri.size)
                assert satisfies_matching_per_slot(tri, coords)

    def test_budget(self, bd4):
        with pytest.raises(BudgetExceeded):
            enumerate_vertex_solutions(bd4, budget=4)

    def test_not_closed_propagates(self):
        open_tri = validate([[None] * 4], require_closed=False)
        with pytest.raises(NotClosed):
            enumerate_vertex_solutions(open_tri)

    def test_deterministic(self, closed_corpus):
        for tri in closed_corpus.values():
            assert enumerate_vertex_solutions(tri) == enumerate_vertex_solutions(tri)

    def test_gcd_reduced(self, closed_corpus):
        from math import gcd

        for tri in closed_corpus.values():
            for coords in enumerate_vertex_solutions(tri):
                g = 0
                for c in coords:
                    g = gcd(g, c)
                assert g == 1

    def test_brute_force_parity_small_corpus(self, small_corpus):
        """On every <= 6-tet triangulation, the enumerated solutions inside
        the window {coords <= 4, weight <= 12} must coincide with the
        brute-force solutions there that span extreme rays (extremality
        decided by an independent sympy rank computation).

        The weight cap keeps the search finite: the full coordinate box of
        the 4-simplex boundary lives in a 15-dimensional cone.  Every
        enumerated solution of the small corpus fits in the window, so the
        comparison covers the complete vertex-solution lists.
        """
        from math import gcd

        for name, tri in small_corpus.items():
            brute = brute_force_solutions(tri, cmax=4, max_weight=12)
            reduced = set()
            for coords in brute:
                if not any(coords) or not is_vertex_ray_sympy(tri, coords):
                    continue
                g = 0
                for c in coords:
                    g = gcd(g, c)
                if g == 1:
                    reduced.add(coords)
            enumerated = {
                coords
                for coords in enumerate_vertex_solutions(tri)
                if max(coords) <= 4 and weight(tri, coords) <= 12
            }
            assert enumerated == {
                coords for coords in enumerate_vertex_solutions(tri)
            }, f"{name}: a small-corpus vertex solution escaped the window"
            assert enumerated == reduced, name

    def test_full_box_parity_where_feasible(self):
        """The 1-tet sphere and the 2-tet projective space have small
        solution cones; there the whole <= 4 coordinate box is enumerable
        with no weight cap at all."""
        from math import gcd
        from kneser import corpus

        for tri in (corpus.s3_one_tet(), corpus.rp3_two_tet()):
            brute = brute_force_solutions(tri, cmax=4)
            reduced = set()
            for coords in brute:
                if not any(coords) or not is_vertex_ray_sympy(tri, coords):
                    continue
                g = 0
                for c in coords:
                    g = gcd(g, c)
                if g == 1:
                    reduced.add(coords)
            enumerated = {
                coords
                for coords in enumerate_vertex_solutions(tri)
                if max(coords) <= 4
            }
            assert enumerated == reduced

    def test_library_vertex_ray_test_matches_sympy(self, small_corpus):
        for name, tri in small_corpus.items():
            matching = matching_system(tri)
            for coords in enumerate_vertex_solutions(tri):
                assert is_vertex_ray(matching, coords)
                assert is_vertex_ray_sympy(tri, coords)


class TestWeight:
    def test_vertex_link_weight_four(self, bd4):
        coords = vertex_link_coordinates(bd4, 0)
        assert weight(bd4, coords) == 4

    def test_additive_on_solution_combinations(self, small_corpus):
        # weight only needs the matching equations, which are linear
        for tri in small_corpus.values():
            sols = enumerate_vertex_solutions(tri)
            for a in sols[:3]:
                for b in sols[:3]:
                    combo = tuple(2 * x + 3 * y for x, y in zip(a, b))
                    assert weight(tri, combo) == 2 * weight(tri, a) + 3 * weight(tri, b)

    def test_linearity(self, bd4):
        coords = vertex_link_coordinates(bd4, 0)
        doubled = tuple(2 * c for c in coords)
        assert weight(bd4, doubled) == 8

    def test_zero(self, bd4):
        assert weight(bd4, zero_coordinates(bd4)) == 0

    def test_inconsistent_crossings_detected(self, bd4):
        # a lone triangle violates matching, so its edge counts disagree
        # between incident tets; edge_weights must flag that
        from kneser.errors import InconsistentCrossings
        from kneser.normal import edge_weights, tri_index

        bad = list(zero_coordinates(bd4))
        bad[tri_index(0, 0)] = 1
        with pytest.raises(InconsistentCrossings):
            edge_weights(bd4, bad)


class TestReconstruct:
    def test_vertex_link_cells(self, bd4):
        coords = vertex_link_coordinates(bd4, 0)
        surface = reconstruct(bd4, build_complex(bd4, coords))
        assert surface.connected
        assert (surface.vertex_count, surface.arc_count, surface.disk_count) == (
            4, 6, 4,
        )
        assert surface.euler_characteristic == 2
        assert surface.vertex_linking
        [comp] = surface.components
        assert comp.is_sphere and comp.orientable and comp.genus == 0

    def test_quad_implies_not_vertex_linking(self, closed_corpus):
        for tri in closed_corpus.values():
            for coords in enumerate_vertex_solutions(tri):
                if any(
                    coords[quad_index(i, j)]
                    for i in range(tri.size)
                    for j in range(3)
                ):
                    surface = reconstruct(tri, build_complex(tri, coords))
                    assert not surface.vertex_linking

    def test_two_disjoint_links(self, bd4):
        a = vertex_link_coordinates(bd4, 0)
        b = vertex_link_coordinates(bd4, 1)
        both = tuple(x + y for x, y in zip(a, b))
        surface = reconstruct(bd4, build_complex(bd4, both))
        assert len(surface.components) == 2
        assert all(c.euler_characteristic == 2 for c in surface.components)
        assert tuple(
            sum(c.coordinates[i] for c in surface.components)
            for i in range(35)
        ) == both

    def test_orientability_per_component_against_two_colouring(self):
        """Every vertex surface of rp3_two_tet, rp3_octahedral and
        s2xs1_two_tet, among them RP^2 (chi 1) and a Klein bottle (chi 0),
        has the components and orientability of a graph-search
        2-colouring of its disks."""
        seen = set()
        for tri in (corpus.rp3_two_tet(), corpus.rp3_octahedral(), corpus.s2xs1_two_tet()):
            for coords in enumerate_vertex_solutions(tri):
                surface = reconstruct(tri, build_complex(tri, coords))
                assert sorted(
                    (c.coordinates, c.orientable) for c in surface.components
                ) == surface_orientability_reference(tri, coords)
                seen.update((c.euler_characteristic, c.orientable) for c in surface.components)
        assert {(1, False), (0, False), (0, True), (2, True)} <= seen

    def test_projective_plane_beside_a_vertex_link(self):
        """RP^2 plus a vertex link is two components: the non-orientable
        RP^2 and an orientable sphere."""
        tri = corpus.rp3_two_tet()
        rp2 = next(
            coords for coords in enumerate_vertex_solutions(tri)
            if euler_from_coordinates(tri, coords) == 1
        )
        both = tuple(x + y for x, y in zip(rp2, vertex_link_coordinates(tri, 0)))
        surface = reconstruct(tri, build_complex(tri, both))
        assert sorted(
            (c.euler_characteristic, c.orientable) for c in surface.components
        ) == [(1, False), (2, True)]
        assert not surface.orientable
        assert sorted(
            (c.coordinates, c.orientable) for c in surface.components
        ) == surface_orientability_reference(tri, both)

    def test_euler_cross_check_raises(self, bd4, monkeypatch):
        from kneser.errors import ConsistencyCheckFailed

        monkeypatch.setattr(
            "kneser.reconstruct.euler_from_coordinates", lambda t, c: 0
        )
        with pytest.raises(ConsistencyCheckFailed, match="coordinate formula"):
            reconstruct(bd4, build_complex(bd4, vertex_link_coordinates(bd4, 0)))

    def test_euler_cross_check_whole_corpus(self, closed_corpus):
        # reconstruct() internally checks cell-count chi == coordinate chi;
        # also verify the equality explicitly here
        for tri in closed_corpus.values():
            for coords in enumerate_vertex_solutions(tri):
                surface = reconstruct(tri, build_complex(tri, coords))
                assert surface.euler_characteristic == euler_from_coordinates(
                    tri, coords
                )

    def test_all_triangle_components_are_vertex_links(self, closed_corpus):
        for tri in closed_corpus.values():
            sk = skeleton(tri)
            links = {
                vertex_link_coordinates(tri, orbit)
                for orbit in range(sk.vertex_count)
            }
            for coords in enumerate_vertex_solutions(tri):
                for comp in reconstruct(tri, build_complex(tri, coords)).components:
                    if comp.vertex_linking:
                        assert comp.coordinates in links

    def test_doubled_link_weight_consistency(self, bd4):
        coords = vertex_link_coordinates(bd4, 0)
        doubled = tuple(2 * c for c in coords)
        complex_ = build_complex(bd4, doubled)
        assert sum(complex_.weights_per_edge) == 8

    def test_rejects_bad_coordinates(self, bd4):
        bad = list(zero_coordinates(bd4))
        bad[0] = 1  # an isolated triangle violates matching
        with pytest.raises(ValueError):
            check_coordinates(bd4, bad)
        two_quads = list(zero_coordinates(bd4))
        two_quads[quad_index(0, 0)] = 1
        two_quads[quad_index(0, 1)] = 1
        with pytest.raises(ValueError):
            check_coordinates(bd4, two_quads)

    def test_row_check_agrees_with_check_coordinates(self, bd4):
        """Each bad vector gets the error of `check_coordinates`, alone or
        among valid ones, and valid rows come back as one array: int64, or
        Python ints beyond int64."""
        good = enumerate_vertex_solutions(bd4)
        huge = tuple(2**70 * c for c in good[0])
        rows = check_coordinate_rows(bd4, [list(v) for v in good])
        assert rows.dtype == np.int64 and rows.tolist() == [list(v) for v in good]
        exact = check_coordinate_rows(bd4, [huge])
        assert exact.dtype == object
        assert [tuple(exact[0])] == [check_coordinates(bd4, huge)] == [huge]
        n = 7 * bd4.size
        negative = list(good[0])
        negative[negative.index(0)] = -1
        isolated = list(zero_coordinates(bd4))
        isolated[0] = 1
        isolated_huge = [2**70 * c for c in isolated]
        # a sum of two solutions satisfies matching, not the quad constraint
        sums = ([a + b for a, b in zip(u, v)] for u in good for v in good)
        two_quads = next(s for s in sums if not quad_constraint_per_tet(s, bd4.size))
        for bad in ([0] * (n - 1), negative, isolated, isolated_huge, two_quads):
            with pytest.raises(ValueError) as single:
                check_coordinates(bd4, bad)
            with pytest.raises(ValueError) as rows:
                check_coordinate_rows(bd4, [*good, bad])
            assert str(rows.value) == str(single.value)
