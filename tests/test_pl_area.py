import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kneser.errors import EmptySurface
from kneser.pl_area import (
    MIDPOINT_ARC,
    PLArea,
    corner_arc_length,
    pl_area,
    verify_diameter_bound,
)
from kneser.vertex_enum import enumerate_vertex_solutions
from oracles import (
    arc_length,
    hyperbolic_distance,
    point_on_edge,
    vertex_link_coordinates,
    zero_coordinates,
)

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


class TestHyperbolicModel:
    def test_midpoints(self):
        assert point_on_edge(0, 0.0) == pytest.approx(1j)
        assert point_on_edge(1, 0.0) == pytest.approx(1 + 1j)
        assert point_on_edge(2, 0.0) == pytest.approx((1 + 1j) / 2)

    def test_point_on_edge_zero_infinity(self):
        assert point_on_edge(0, 1.25) == pytest.approx(1j * math.exp(1.25))

    def test_midpoint_to_midpoint(self):
        # cosh d = 1 + |i - (1+i)|^2 / (2 Im Im) = 1.5
        d = hyperbolic_distance(1j, 1 + 1j)
        assert d == pytest.approx(math.acosh(1.5), abs=1e-12)
        assert arc_length(0, 0.0, 1, 0.0) == pytest.approx(MIDPOINT_ARC)

    def test_degenerate_same_point(self):
        assert arc_length(0, 0.7, 0, 0.7) == pytest.approx(0.0, abs=1e-9)

    @given(finite, finite)
    def test_order_three_symmetry(self, s, u):
        # length(s on e0, u on e2) = length(s on e2, u on e1) = ...
        cycle = [(0, 2), (2, 1), (1, 0)]
        values = [arc_length(a, s, b, u) for a, b in cycle]
        assert values[0] == pytest.approx(values[1], abs=1e-9)
        assert values[1] == pytest.approx(values[2], abs=1e-9)

    @given(finite, finite)
    def test_corner_formula_matches_model(self, d1, d2):
        # corner at infinity: edges (0, inf) and (1, inf); away-from-corner
        # offset d means parameter -d on edge 0 and +d on edge 1
        expect = arc_length(0, -d1, 1, d2)
        assert corner_arc_length(d1, d2) == pytest.approx(expect, abs=1e-9)

    @given(finite, finite)
    def test_corner_symmetry(self, d1, d2):
        assert corner_arc_length(d1, d2) == pytest.approx(
            corner_arc_length(d2, d1), abs=1e-12
        )


class TestLexicographicOrder:
    areas = st.builds(
        PLArea,
        weight=st.integers(min_value=0, max_value=5),
        length=st.floats(min_value=0, max_value=10, allow_nan=False),
    )

    @given(areas, areas)
    def test_totality(self, a, b):
        assert a.less_than(b) or b.less_than(a) or a.tol_equal(b)

    @given(areas, areas, areas)
    def test_transitivity(self, a, b, c):
        if a.less_than(b) and b.less_than(c):
            assert a.less_than(c)

    def test_weight_dominates(self):
        assert PLArea(1, 100.0).less_than(PLArea(2, 0.0))

    def test_tolerance(self):
        a = PLArea(3, 1.0)
        assert a.tol_equal(PLArea(3, 1.0 + 5e-10))
        assert a.less_than(PLArea(3, 1.0 + 5e-9))


class TestPLArea:
    def test_vertex_link_area(self, bd4):
        area = pl_area(bd4, vertex_link_coordinates(bd4, 0))
        assert area.weight == 4
        assert area.length == pytest.approx(12 * MIDPOINT_ARC, abs=1e-9)

    def test_rejects_invalid_coordinates(self, bd4):
        link = vertex_link_coordinates(bd4, 0)
        for bad in (link[:-1], (-1,) + link[1:], (link[0] + 1,) + link[1:]):
            with pytest.raises(ValueError):
                pl_area(bd4, bad)

    def test_zero_vector(self, bd4):
        assert pl_area(bd4, zero_coordinates(bd4)) == PLArea(0, 0.0)

    def test_doubled_link_strictly_superadditive(self, bd4):
        link = vertex_link_coordinates(bd4, 0)
        one = pl_area(bd4, link)
        two = pl_area(bd4, tuple(2 * c for c in link))
        assert two.weight == 8
        assert two.length > 2 * one.length

    def test_relabeling_invariance(self, bd4):
        # vertex links of the 4-simplex boundary are all equivalent under
        # relabeling; their lengths must agree to 1e-9
        lengths = {
            round(pl_area(bd4, link).length, 9)
            for link in (vertex_link_coordinates(bd4, orbit) for orbit in range(5))
        }
        assert len(lengths) == 1

    def test_relabeled_triangulation_same_length_spectrum(self):
        # reorder the tetrahedra of an isomorphic copy: the multiset of
        # (weight, length) pairs over all vertex solutions is unchanged
        from kneser import corpus
        from kneser.triangulation import _restricted

        tri = corpus.rp3_octahedral()
        shuffled = _restricted(tri.arrays, [3, 0, 6, 1, 7, 2, 5, 4])
        def spectrum(t):
            areas = [
                pl_area(t, c) for c in enumerate_vertex_solutions(t)
            ]
            return sorted((a.weight, round(a.length, 9)) for a in areas)
        assert spectrum(tri) == spectrum(shuffled)


class TestDiameterBound:
    def test_vertex_link(self, bd4):
        check = verify_diameter_bound(bd4, vertex_link_coordinates(bd4, 0))
        assert check.diameter == 1
        assert check.weight == 4
        assert check.passed

    def test_scaling_keeps_support(self, bd4):
        link = vertex_link_coordinates(bd4, 0)
        one = verify_diameter_bound(bd4, link)
        two = verify_diameter_bound(bd4, tuple(2 * c for c in link))
        assert one.diameter == two.diameter
        assert two.passed

    def test_zero_rejected(self, bd4):
        with pytest.raises(EmptySurface):
            verify_diameter_bound(bd4, zero_coordinates(bd4))

    def test_every_corpus_solution_passes(self, closed_corpus):
        for name, tri in closed_corpus.items():
            for coords in enumerate_vertex_solutions(tri):
                assert verify_diameter_bound(tri, coords).passed, name
