from hypothesis import given
from hypothesis import strategies as st

from kneser import corpus
from kneser.decomposition import connected_sum
from kneser.homology import (
    AbelianInvariants,
    boundary_entries,
    elementary_divisors,
    homology,
)
from oracles import disjoint_union, sympy_homology

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
                entries, nr, nc = boundary_entries(tri, k)
                m = sympy.zeros(nr, nc)
                for r, c, v in entries:
                    m[r, c] += v
                mats[k] = m
            assert (mats[1] * mats[2]).is_zero_matrix
            assert (mats[2] * mats[3]).is_zero_matrix
