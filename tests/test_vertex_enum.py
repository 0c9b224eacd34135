"""The numpy double description engine against the reference engine, and
the modular vertex-ray certificate against exact ranks."""
import random

import pytest

from kneser import corpus, vertex_enum
from kneser.decomposition import connected_sum
from kneser.normal import matching_system
from kneser.vertex_enum import enumerate_vertex_solutions, is_vertex_ray
from oracles import (
    enumerate_vertex_solutions_reference,
    is_vertex_ray_reference,
    is_vertex_ray_sympy,
    rank_of_columns,
)
from test_census_sweep import closed_two_tet


@pytest.fixture(scope="module")
def reference_lists(closed_corpus):
    """(triangulation, reference vertex solutions) for every closed corpus
    triangulation and every closed 2-tet census table."""
    cases = list(closed_corpus.values()) + list(closed_two_tet())
    return [(tri, enumerate_vertex_solutions_reference(tri)) for tri in cases]


class TestAgainstReferenceEngine:
    @pytest.mark.parametrize(
        "name, value",
        [(None, None), ("_CHUNK", 1), ("_TETS_PER_WORD", 1)],
        ids=["default", "one-element-blocks", "one-tet-per-quad-word"],
    )
    def test_identical_lists(self, reference_lists, monkeypatch, name, value):
        if name is not None:
            monkeypatch.setattr(vertex_enum, name, value)
        for tri, expected in reference_lists:
            assert enumerate_vertex_solutions(tri) == expected

    def test_identical_on_rp3_sum(self):
        rp3 = corpus.rp3_octahedral()
        tri = connected_sum(rp3, rp3)
        expected = enumerate_vertex_solutions_reference(tri)
        assert len(expected) == 162
        assert enumerate_vertex_solutions(tri) == expected


class TestVertexCertificate:
    def test_modular_rank_decides_corpus_solutions(self, closed_corpus, monkeypatch):
        """At the default prime no corpus solution needs the exact fallback."""
        calls = []
        exact = vertex_enum._exact_rank
        monkeypatch.setattr(
            vertex_enum, "_exact_rank", lambda rows: calls.append(1) or exact(rows)
        )
        for tri in closed_corpus.values():
            matching = matching_system(tri)
            for coords in enumerate_vertex_solutions(tri):
                assert is_vertex_ray(matching, coords)
        assert not calls

    @pytest.mark.parametrize("prime", [2, 3])
    def test_small_prime_falls_back_to_exact(self, small_corpus, monkeypatch, prime):
        calls = []
        exact = vertex_enum._exact_rank
        monkeypatch.setattr(
            vertex_enum, "_exact_rank", lambda rows: calls.append(1) or exact(rows)
        )
        solutions = {
            name: enumerate_vertex_solutions(tri) for name, tri in small_corpus.items()
        }
        monkeypatch.setattr(vertex_enum, "_PRIME", prime)
        for name, tri in small_corpus.items():
            matching = matching_system(tri)
            for coords in solutions[name]:
                assert is_vertex_ray(matching, coords) == is_vertex_ray_sympy(
                    tri, coords
                ), name
        if prime == 2:  # mod 2, r1 - r2 and r1 + r2 coincide and ranks drop
            assert calls, "the exact elimination never ran"

    @pytest.mark.parametrize("prime", [None, 2, 3])
    def test_non_solutions_match_rank_definition(
        self, small_corpus, monkeypatch, prime
    ):
        """Vectors with M vec != 0 get the answer of the rank definition,
        whether their support has nullity 0 or 1."""
        if prime is not None:
            monkeypatch.setattr(vertex_enum, "_PRIME", prime)
        nullities = set()
        for tri in small_corpus.values():
            matching = matching_system(tri)
            n = 7 * tri.size
            vectors = [tuple(int(i == j) for j in range(n)) for i in range(n)]
            for coords in enumerate_vertex_solutions(tri):
                for i in (j for j, x in enumerate(coords) if x):
                    vectors.append(coords[:i] + (coords[i] + 1,) + coords[i + 1:])
            for vec in vectors:
                if not any(sum(a * x for a, x in zip(r, vec)) for r in matching):
                    continue
                cols = [i for i, x in enumerate(vec) if x]
                nullities.add(len(cols) - rank_of_columns(matching, cols))
                assert is_vertex_ray(matching, vec) == is_vertex_ray_reference(
                    matching, vec
                )
        assert {0, 1} <= nullities

    def test_exact_rank_matches_fraction_rank(self):
        rng = random.Random(7)
        for _ in range(300):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
            rows = [
                [rng.choice((0, 0, 0, 1, -1, 2, -3, 5)) for _ in range(ncols)]
                for _ in range(nrows)
            ]
            if rng.random() < 0.3:
                rows.append([2 * x - y for x, y in zip(rows[0], rows[-1])])
            assert vertex_enum._exact_rank(rows) == rank_of_columns(
                rows, list(range(ncols))
            )
