import itertools
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kneser import corpus, decomposition
from kneser.decomposition import connected_sum, decompose
from kneser.errors import KneserError
from kneser.homology import (
    AbelianInvariants,
    _merged,
    _peel_units,
    _unit_eliminate,
    elementary_divisors,
    homology,
)
from kneser.triangulation import skeleton, validate
from oracles import (
    disjoint_union,
    full_boundary_entries,
    orbit_complex_homology,
    sympy_homology,
    unit_elimination_rescan,
    unit_heap_dense_divisors,
)
from test_census_sweep import closed_two_tet, two_tet_tables
from test_decomposition import _closed_corpus_files

EXPECTED_H1 = {
    "s3_one_tet": (0, ()),
    "s3_two_tet": (0, ()),
    "rp3_two_tet": (0, (2,)),
    "rp3_octahedral": (0, (2,)),
    "l31_two_tet": (0, (3,)),
    "s2xs1_two_tet": (1, ()),
    "bd4_simplex": (0, ()),
}


class TestElementaryDivisors:
    def test_diagonal(self):
        entries = [(0, 0, 2), (1, 1, 6), (2, 2, 0)]
        rank, divisors = elementary_divisors(entries, 3, 3)
        assert rank == 2
        assert divisors == [2, 6]

    def test_divisor_chain_normalization(self):
        # diag(4, 6) ~ diag(2, 12)
        rank, divisors = elementary_divisors([(0, 0, 4), (1, 1, 6)], 2, 2)
        assert rank == 2 and divisors == [2, 12]

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 4), st.integers(0, 4), st.integers(-5, 5)
            ),
            max_size=18,
        )
    )
    def test_against_sympy_snf(self, entries):
        import sympy
        from sympy.matrices.normalforms import smith_normal_form

        m = sympy.zeros(5, 5)
        for r, c, v in entries:
            m[r, c] += v
        rank, divisors = elementary_divisors(entries, 5, 5)
        assert rank == m.rank()
        snf = smith_normal_form(m)
        expect = sorted(
            int(abs(snf[i, i])) for i in range(5) if abs(snf[i, i]) > 1
        )
        assert divisors == expect


def sympy_divisors(entries, nrows: int, ncols: int) -> tuple[int, list[int]]:
    """Rank and nontrivial elementary divisors from sympy's Smith form."""
    import sympy
    from sympy.matrices.normalforms import smith_normal_form

    m = sympy.zeros(nrows, ncols)
    for r, c, v in entries:
        m[r, c] += v
    snf = smith_normal_form(m)
    return m.rank(), sorted(
        int(abs(snf[i, i])) for i in range(min(nrows, ncols)) if abs(snf[i, i]) > 1
    )


@st.composite
def planted_matrices(draw):
    """A small random matrix grown by planted entries: rows and columns
    whose one entry is +-1, which the peel takes; rows and columns whose one
    entry is +-2 or +-3, which it must leave; entries with a twin that
    cancels them; and rows whose entries all lie in the column of a planted
    unit row, which its pivot leaves empty.  Entries come shuffled."""
    entries = draw(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3)), max_size=10
    ))
    size = {"rows": 4, "cols": 4}

    def fresh(axis: str) -> int:
        size[axis] += 1
        return size[axis] - 1

    def old(axis: str) -> int:
        return draw(st.integers(0, size[axis] - 1))

    unit, big = st.sampled_from([1, -1]), st.sampled_from([2, -2, 3, -3])
    plants = ["unit row", "unit col", "big row", "big col", "cancel", "emptied row"]
    for plant in draw(st.lists(st.sampled_from(plants), max_size=8)):
        if plant == "unit row":
            entries.append((fresh("rows"), old("cols"), draw(unit)))
        elif plant == "unit col":
            entries.append((old("rows"), fresh("cols"), draw(unit)))
        elif plant == "big row":
            entries.append((fresh("rows"), old("cols"), draw(big)))
        elif plant == "big col":
            entries.append((old("rows"), fresh("cols"), draw(big)))
        elif plant == "cancel":
            r, c, v = old("rows"), old("cols"), draw(st.integers(1, 3))
            entries += [(r, c, v), (r, c, -v)]
        else:
            c = fresh("cols")
            entries.append((fresh("rows"), c, draw(unit)))
            shadow = fresh("rows")
            entries += [(shadow, c, draw(big)), (shadow, c, draw(st.integers(-3, 3)))]
    return draw(st.permutations(entries)), size["rows"], size["cols"]


class TestUnitPeel:
    """The peel in front of the pivot heap deletes only unit pivots alone
    in their row or column, and keeps the rank and the divisors."""

    @given(planted_matrices())
    def test_against_sympy_snf(self, matrix):
        assert elementary_divisors(*matrix) == sympy_divisors(*matrix)

    @given(planted_matrices())
    def test_same_as_heap_and_dense(self, matrix):
        assert elementary_divisors(*matrix) == unit_heap_dense_divisors(*matrix)

    @given(planted_matrices())
    def test_leaves_no_lone_unit(self, matrix):
        entries, nrows, ncols = matrix
        _, (r, c, v) = _peel_units(*_merged(entries), nrows, ncols)
        rows, cols = Counter(r.tolist()), Counter(c.tolist())
        for r, c, v in zip(r.tolist(), c.tolist(), v.tolist()):
            assert v not in (1, -1) or (rows[r] > 1 and cols[c] > 1)

    def test_planted_cases(self):
        def peel(entries):
            n, (r, c, v) = _peel_units(*_merged(entries), 4, 4)
            return n, list(zip(r.tolist(), c.tolist(), v.tolist()))

        # lone +-2 and +-3 stay
        assert peel([(0, 0, 2), (1, 1, -3)]) == (0, [(0, 0, 2), (1, 1, -3)])
        # the pivot of a unit row empties a row that only meets its column
        assert peel([(1, 0, 2), (0, 0, 1)]) == (1, [])
        # entries that cancel are gone before the peel
        assert peel([(0, 0, 1), (2, 2, 3), (0, 0, -1)]) == (0, [(2, 2, 3)])
        # a unit alone in its column takes its whole row with it
        assert peel([(0, 0, 1), (0, 1, 2), (1, 1, 2), (1, 2, 2)]) == (1, [(1, 1, 2), (1, 2, 2)])


_MATRIX = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(-3, 3)),
    max_size=30,
)


class TestPivotHeap:
    """The heap picks the pivot the full rescan picks, so both leave the
    same rows for the dense phase."""

    @given(_MATRIX)
    def test_same_core_as_rescan(self, entries):
        assert _unit_eliminate(entries) == unit_elimination_rescan(entries)

    def test_same_core_on_boundary_matrices(self):
        tris = list(_closed_corpus_files().values()) + list(closed_two_tet()[::50])
        for tri in tris:
            for k in (1, 2, 3):
                entries = full_boundary_entries(tri, k)[0]
                assert _unit_eliminate(entries) == unit_elimination_rescan(entries)


def _cut_and_cap_pieces():
    """Every piece `cut_and_cap` returns while `decompose --oracle-check`
    runs on the connected sums of the decompose-sums benchmark."""
    files = _closed_corpus_files()
    inputs = ["sum_bd4_bd4.tri", "sum_s3_rp3.tri", "sum_bd4_rp3.tri", "rp3#rp3"]
    pieces = []
    real = decomposition.cut_and_cap

    def record(tri, coords):
        out = real(tri, coords)
        pieces.extend(out)
        return out

    with pytest.MonkeyPatch.context() as m:
        m.setattr(decomposition, "cut_and_cap", record)
        for name in inputs:
            decompose(files[name], oracle_check=True)
    return pieces


class TestReducedPresentation:
    """Spanning-forest presentations give the homology of the full boundary
    matrices."""

    @staticmethod
    def assert_agree(tris):
        for tri in tris:
            for k in (0, 1, 2):
                h = homology(tri, k)
                assert (h.rank, h.torsion) == orbit_complex_homology(tri, k), (
                    tri.gluings, k,
                )

    def test_corpus_files(self):
        files = _closed_corpus_files()
        assert "rp3#rp3" in files
        self.assert_agree(files.values())

    def test_cut_and_cap_pieces(self):
        pieces = _cut_and_cap_pieces()
        assert len(pieces) >= 10
        self.assert_agree(pieces)

    def test_edges_reversed_onto_themselves(self):
        # d_2 d_3 = 0 fails when an edge is glued to itself in reverse, so
        # there only the rows are reduced
        reversed_ = []
        for table in itertools.islice(two_tet_tables(), 0, None, 97):
            try:
                tri = validate(table, require_closed=False, require_orientable=False)
            except (KneserError, ValueError):
                continue
            if skeleton(tri).reversed_edge is not None:
                reversed_.append(tri)
        assert len(reversed_) >= 50
        self.assert_agree(reversed_)

    def test_closed_two_tet_census(self):
        tables = closed_two_tet()
        assert len(tables) == 5088
        self.assert_agree(tables)


class TestHomology:
    def test_census_h1(self, closed_corpus):
        for name, expected in EXPECTED_H1.items():
            h = homology(closed_corpus[name], 1)
            assert (h.rank, h.torsion) == expected, name

    def test_h0_counts_components(self, closed_corpus):
        for tri in closed_corpus.values():
            assert homology(tri, 0) == AbelianInvariants(1, ())
        both = disjoint_union(
            closed_corpus["bd4_simplex"], closed_corpus["rp3_two_tet"]
        )
        assert homology(both, 0).rank == 2

    def test_h2_duality(self, closed_corpus):
        # closed orientable: H2 is free of rank b1
        for name, tri in closed_corpus.items():
            h1 = homology(tri, 1)
            h2 = homology(tri, 2)
            assert h2.torsion == (), name
            assert h2.rank == h1.rank, name

    def test_whole_corpus_against_sympy(self, closed_corpus):
        for name, tri in closed_corpus.items():
            for k in (0, 1, 2):
                h = homology(tri, k)
                assert (h.rank, h.torsion) == sympy_homology(tri, k), (name, k)

    def test_connected_sum_additivity(self):
        bd4 = corpus.bd4_simplex()
        rp3 = corpus.rp3_octahedral()
        s3 = corpus.s3_two_tet()
        cases = [
            (bd4, bd4, (0, ())),
            (bd4, rp3, (0, (2,))),
            (s3, rp3, (0, (2,))),
            (rp3, rp3, (0, (2, 2))),
        ]
        for a, b, expected in cases:
            h = homology(connected_sum(a, b), 1)
            assert (h.rank, h.torsion) == expected

    def test_str_rendering(self):
        assert str(AbelianInvariants(0, ())) == "0"
        assert str(AbelianInvariants(1, (2,))) == "Z^1 + Z/2"


class TestBoundaryMatrices:
    def test_chain_complex_composes_to_zero(self, closed_corpus):
        import sympy

        for tri in closed_corpus.values():
            mats = {}
            for k in (1, 2, 3):
                entries, nr, nc = full_boundary_entries(tri, k)
                m = sympy.zeros(nr, nc)
                for r, c, v in entries:
                    m[r, c] += v
                mats[k] = m
            assert (mats[1] * mats[2]).is_zero_matrix
            assert (mats[2] * mats[3]).is_zero_matrix
