"""The two-phase double description engine against the reference engine,
the distinct rays and supports of every step, its vertex-link lift and
Q-matching rows, and the three-tier vertex-ray certificate (GF(2), mod p,
exact) against exact ranks."""
import hashlib
import random
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import sympy

from kneser import corpus, vertex_enum
from kneser.decomposition import connected_sum, decompose
from kneser.errors import BudgetExceeded, ConsistencyCheckFailed
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


# promotion limits of 0 store the rays as int64, or as Python ints, from the
# first hyperplane on
RAY_DTYPES = {
    "int64-rays": {"_INT32_LIMIT": 0},
    "object-rays": {"_INT32_LIMIT": 0, "_INT64_LIMIT": 0},
}


def counted(monkeypatch, name):
    """The arguments of every call of `vertex_enum.<name>`, recorded by a
    wrapper installed with monkeypatch."""
    calls = []
    real = getattr(vertex_enum, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(vertex_enum, name, counting)
    return calls


@pytest.fixture(scope="module")
def rp3_sum():
    rp3 = corpus.rp3_octahedral()
    return connected_sum(rp3, rp3)


@pytest.fixture(scope="module")
def rp3_sum_reference(rp3_sum):
    return enumerate_vertex_solutions_reference(rp3_sum)


class TestAgainstReferenceEngine:
    @pytest.mark.parametrize(
        "patches",
        [
            {},
            {"_CHUNK": 1},
            {"_TETS_PER_WORD": 1},
            RAY_DTYPES["int64-rays"],
            RAY_DTYPES["object-rays"],
        ],
        ids=[
            "default",
            "one-element-blocks",
            "one-tet-per-quad-word",
            "int64-rays",
            "object-rays",
        ],
    )
    def test_identical_lists(self, reference_lists, monkeypatch, patches):
        for name, value in patches.items():
            monkeypatch.setattr(vertex_enum, name, value)
        for tri, expected in reference_lists:
            assert enumerate_vertex_solutions(tri) == expected

    def test_identical_on_rp3_sum(self, rp3_sum, rp3_sum_reference):
        assert len(rp3_sum_reference) == 162
        assert enumerate_vertex_solutions(rp3_sum) == rp3_sum_reference

    @pytest.mark.parametrize("patches", list(RAY_DTYPES.values()), ids=list(RAY_DTYPES))
    def test_identical_on_rp3_sum_in_wider_dtypes(
        self, rp3_sum, rp3_sum_reference, monkeypatch, patches
    ):
        for name, value in patches.items():
            monkeypatch.setattr(vertex_enum, name, value)
        assert enumerate_vertex_solutions(rp3_sum) == rp3_sum_reference


class TestRayStorage:
    def test_widened_at_the_combination_bound(self):
        """2 * top**2 * sum |a_j| below 2**31 keeps int32, from 2**31 on
        int64, from 2**63 on Python ints; a wider dtype is never narrowed."""
        top = 2**15  # 2 * top**2 = 2**31
        rays = np.array([[0, top - 1]], dtype=np.int32)
        assert vertex_enum._widened(rays, (1, 0)).dtype == np.int32
        wide = vertex_enum._widened(np.array([[0, top]], dtype=np.int32), (1, 0))
        assert wide.dtype == np.int64
        assert vertex_enum._widened(wide, (0, 0)).dtype == np.int64
        huge = vertex_enum._widened(np.array([[2**31]], dtype=np.int64), (1,))
        assert huge.dtype == object and huge[0, 0] == 2**31
        assert vertex_enum._widened(huge, (0,)).dtype == object

    def test_widened_by_a_negative_magnitude(self):
        """Conversion rays carry negative triangle entries: the bound reads
        the largest absolute value, here a negative entry."""
        top = 2**15
        rays = np.array([[1, -(top - 1)]], dtype=np.int32)
        assert vertex_enum._widened(rays, (1, 0)).dtype == np.int32
        rays = np.array([[1, -top]], dtype=np.int32)
        assert vertex_enum._widened(rays, (1, 0)).dtype == np.int64
        rays = np.array([[1, -(2**31 - 1)]], dtype=np.int64)
        assert vertex_enum._widened(rays, (1,)).dtype == np.int64
        huge = vertex_enum._widened(np.array([[1, -(2**31)]], dtype=np.int64), (1,))
        assert huge.dtype == object and huge[0, 1] == -(2**31)

    def test_peak_memory_on_rp3_sum(self, rp3_sum):
        """int32 rows, one combination buffer per step and no sorted copy
        of it keep the traced peak of an rp3#rp3 enumeration near 0.55 MB
        (0.68 MB with int64 rows); the engine that cut the matching
        hyperplanes in standard coordinates peaked at 1.7 MB."""
        enumerate_vertex_solutions(rp3_sum)  # fill the per-triangulation caches
        tracemalloc.start()
        try:
            enumerate_vertex_solutions(rp3_sum)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestRayBudget:
    def test_rp3_sum_exceeds_a_lowered_budget(self, rp3_sum, monkeypatch):
        """No step of rp3#rp3 writes more than 162 rows."""
        monkeypatch.setattr(vertex_enum, "MAX_RAYS", 161)
        with pytest.raises(BudgetExceeded, match="above the work budget of 161"):
            enumerate_vertex_solutions(rp3_sum)
        monkeypatch.setattr(vertex_enum, "MAX_RAYS", 162)
        assert len(enumerate_vertex_solutions(rp3_sum)) == 162

    def test_checked_before_the_rows_are_written(self, rp3_sum, monkeypatch):
        """The step that would cross the budget raises before `_combine`
        allocates its rows."""
        written = []
        combine = vertex_enum._combine
        monkeypatch.setattr(
            vertex_enum,
            "_combine",
            lambda rays, *args: written.append(len(args[1])) or combine(rays, *args),
        )
        monkeypatch.setattr(vertex_enum, "MAX_RAYS", 161)
        with pytest.raises(BudgetExceeded):
            enumerate_vertex_solutions(rp3_sum)
        assert max(written) <= 161


def last_step(tri, monkeypatch):
    """The number of `_step` calls an enumeration of `tri` makes."""
    steps = counted(monkeypatch, "_step")
    enumerate_vertex_solutions(tri)
    monkeypatch.undo()
    return len(steps)


# `repeating` wraps `_step` and appends a copy of the first ray, with its
# word columns, to the output of the call numbered LAST
REPEAT_A_RAY = """
import numpy as np
from kneser import vertex_enum

real = vertex_enum._step
calls = []

def repeating(*args):
    calls.append(1)
    rays, words, quads = real(*args)
    if len(calls) == LAST:
        rays = np.vstack([rays, rays[:1]])
        words, quads = (np.hstack([w, w[:, :1]]) for w in (words, quads))
    return rays, words, quads
"""


class TestDistinctRays:
    def test_every_step_holds_distinct_rays_and_supports(
        self, closed_corpus, rp3_sum, monkeypatch
    ):
        """After every step the rays are pairwise distinct, and so are their
        support words: each ray held is an extreme ray, fixed by the
        inequalities it meets with equality.  The engine keeps no duplicate
        handling on the strength of this."""
        real = vertex_enum._step
        held = []

        def checking(*args):
            rays, words, quads = real(*args)
            held.append(len(rays))
            assert len(set(map(tuple, rays.tolist()))) == len(rays)
            assert len(set(map(tuple, words.T.tolist()))) == len(rays)
            return rays, words, quads

        monkeypatch.setattr(vertex_enum, "_step", checking)
        for tri in [*closed_corpus.values(), *closed_two_tet()[::4], rp3_sum]:
            enumerate_vertex_solutions(tri)
        assert len(held) > 1000 and max(held) == 162

    def test_repeated_ray_raises(self, rp3_sum, monkeypatch):
        """A ray repeated in the output of the last step is reported, not
        returned twice."""
        namespace = {"LAST": last_step(rp3_sum, monkeypatch)}
        exec(REPEAT_A_RAY, namespace)
        monkeypatch.setattr(vertex_enum, "_step", namespace["repeating"])
        with pytest.raises(ConsistencyCheckFailed, match="ray twice"):
            enumerate_vertex_solutions(rp3_sum)

    def test_repeated_ray_raises_under_python_O(self, rp3_sum, monkeypatch):
        """The final check is an explicit raise, not an assert."""
        script = f"LAST = {last_step(rp3_sum, monkeypatch)}\n" + REPEAT_A_RAY + (
            textwrap.dedent(
                """
                from kneser import corpus
                from kneser.decomposition import connected_sum
                from kneser.errors import ConsistencyCheckFailed

                vertex_enum._step = repeating
                rp3 = corpus.rp3_octahedral()
                try:
                    vertex_enum.enumerate_vertex_solutions(connected_sum(rp3, rp3))
                except ConsistencyCheckFailed:
                    print("raised")
                """
            )
        )
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src)},
            timeout=120,
        )
        assert result.stdout.strip() == "raised", result.stderr


class TestQuadPhaseAndLift:
    @staticmethod
    def quad_rows(tri):
        matching = np.array(matching_system(tri), dtype=np.int64)
        _, steps, loose = vertex_enum._link_forest(tri)
        return np.array(vertex_enum._quad_rows(tri.size, matching, steps, loose))

    def test_quad_rows_vanish_on_vertex_solutions(
        self, closed_corpus, reference_lists, rp3_sum, rp3_sum_reference
    ):
        """Every Q-matching row vanishes on the quad part of every vertex
        solution of the closed corpus and rp3#rp3 (the quad part of a
        solution is in the projection of ker M they cut out)."""
        cases = reference_lists[:len(closed_corpus)] + [(rp3_sum, rp3_sum_reference)]
        for tri, solutions in cases:
            rows = self.quad_rows(tri)
            quads = np.array(solutions)[:, vertex_enum._quad_columns(tri.size)]
            assert not (quads @ rows.T).any(), tri.gluings

    def test_one_tree_per_vertex_link(self, closed_corpus, rp3_sum):
        for tri in [*closed_corpus.values(), rp3_sum]:
            roots, steps, loose = vertex_enum._link_forest(tri)
            assert len(roots) + len(steps) == 4 * tri.size
            assert len(steps) + len(loose) == len(matching_system(tri))
            assert roots == sorted(roots)

    def test_corrupted_tree_step_fails_the_lift_check(self, rp3_sum, monkeypatch):
        """The lift swaps the two quads of its first tree step, while the
        Q-matching rows keep the true forms."""
        lifted = vertex_enum._lifted

        def corrupted(tri, rays, roots, steps, matching):
            child, parent, plus, minus = steps[0]
            steps = [(child, parent, minus, plus), *steps[1:]]
            return lifted(tri, rays, roots, steps, matching)

        monkeypatch.setattr(vertex_enum, "_lifted", corrupted)
        with pytest.raises(ConsistencyCheckFailed, match="matching equations"):
            enumerate_vertex_solutions(rp3_sum)

    def test_corrupted_tree_step_fails_under_python_O(self):
        """The lift check is an explicit raise, not an assert."""
        script = textwrap.dedent(
            """
            from kneser import corpus, vertex_enum
            from kneser.decomposition import connected_sum
            from kneser.errors import ConsistencyCheckFailed

            lifted = vertex_enum._lifted

            def corrupted(tri, rays, roots, steps, matching):
                child, parent, plus, minus = steps[0]
                steps = [(child, parent, minus, plus), *steps[1:]]
                return lifted(tri, rays, roots, steps, matching)

            vertex_enum._lifted = corrupted
            rp3 = corpus.rp3_octahedral()
            try:
                vertex_enum.enumerate_vertex_solutions(connected_sum(rp3, rp3))
            except ConsistencyCheckFailed:
                print("raised")
            """
        )
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src)},
            timeout=120,
        )
        assert result.stdout.strip() == "raised", result.stderr

    def test_missing_vertex_link_tree_raises(self, rp3_sum, monkeypatch):
        forest = vertex_enum._link_forest

        def one_root_short(tri):
            roots, steps, loose = forest(tri)
            return roots[1:], steps, loose

        monkeypatch.setattr(vertex_enum, "_link_forest", one_root_short)
        with pytest.raises(ConsistencyCheckFailed, match="vertex-link trees"):
            enumerate_vertex_solutions(rp3_sum)

    def test_rp3_triple_sum_matches_the_standard_engine(self, monkeypatch):
        """rp3#rp3#rp3 (20 tetrahedra) gives the 1969 rays that the double
        description in standard coordinates gave, as one sha256 of the list;
        the GF(2) rank certifies all but 54 of them."""
        past_gf2 = counted(monkeypatch, "_rank_mod_p")
        rp3 = corpus.rp3_octahedral()
        tri = connected_sum(connected_sum(rp3, rp3), rp3)
        solutions = enumerate_vertex_solutions(tri)
        assert len(solutions) == 1969
        assert hashlib.sha256(repr(solutions).encode()).hexdigest() == (
            "a105449a91435f5bc923d90402e4bedaf70f313fe836a2effad4bd240987362f"
        )
        assert len(past_gf2) == 54


def certificate_cases(seed: int, count: int):
    """Seeded (rows, vec) pairs: small random integer matrices, some with
    rows r1 + r2 and r1 - r2 or a doubled column so that ranks drop mod 2,
    each with integral kernel vectors (one basis vector, and the sum of two)
    and vectors off the kernel."""
    rng = random.Random(seed)
    for _ in range(count):
        nrows, ncols = rng.randint(1, 7), rng.randint(2, 8)
        rows = [
            [rng.choice((0, 0, 0, 1, -1, 2, -2, 3)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        if nrows > 1 and rng.random() < 0.5:
            a, b = rows[0], rows[-1]
            rows[0] = [x + y for x, y in zip(a, b)]
            rows[-1] = [x - y for x, y in zip(a, b)]
        if rng.random() < 0.3:
            j, k = rng.sample(range(ncols), 2)
            for row in rows:
                row[k] = 2 * row[j]
        kernel = []
        for v in sympy.Matrix(rows).nullspace():
            scale = sympy.ilcm(*(x.q for x in v))
            kernel.append([int(x * scale) for x in v])
        vectors = kernel[:1]
        if len(kernel) > 1:
            vectors.append([x + y for x, y in zip(kernel[0], kernel[1])])
        vectors.append([rng.choice((0, 1, -1, 2)) for _ in range(ncols)])
        if kernel:
            vectors.append([x + (i == 0) for i, x in enumerate(kernel[0])])
        for vec in vectors:
            yield rows, tuple(vec)


class TestVertexCertificate:
    def test_three_tiers_match_the_rank_definition(self, monkeypatch):
        """On random matrices and vectors, in and off the kernel, the
        certificate gives the `Fraction` rank's answer, the GF(2) rank never
        exceeds the rational one, and every tier decides some case."""
        past_gf2 = counted(monkeypatch, "_rank_mod_p")
        exact = counted(monkeypatch, "_exact_rank")
        drops, deciders = 0, set()
        for rows, vec in certificate_cases(seed=13, count=400):
            cols = [i for i, x in enumerate(vec) if x]
            if not cols:
                continue
            gf2 = vertex_enum._rank_mod_2(np.array(rows, dtype=np.int64)[:, cols])
            rank = rank_of_columns(rows, cols)
            assert gf2 <= rank
            drops += gf2 < rank
            before = len(past_gf2), len(exact)
            assert is_vertex_ray(rows, vec) == is_vertex_ray_reference(rows, vec)
            deciders.add(
                "exact" if len(exact) > before[1]
                else "mod p" if len(past_gf2) > before[0]
                else "GF(2)"
            )
        assert drops
        assert deciders == {"GF(2)", "mod p", "exact"}

    def test_sum_of_two_vertex_rays_is_rejected(self, rp3_sum, rp3_sum_reference):
        """A mutation: the sum of two accepted rays of rp3#rp3 lies in the
        kernel, but on a support of nullity 2."""
        matching = np.array(matching_system(rp3_sum), dtype=np.int64)
        u, v = rp3_sum_reference[:2]
        assert is_vertex_ray(matching, u) and is_vertex_ray(matching, v)
        mixed = tuple(x + y for x, y in zip(u, v))
        assert not (matching @ np.array(mixed)).any()
        assert not is_vertex_ray(matching, mixed)

    def test_injected_sum_is_dropped(self, rp3_sum, rp3_sum_reference, monkeypatch):
        """A non-extreme ray appended to the output of the last
        double-description step never reaches the enumeration's output."""
        u, v = rp3_sum_reference[:2]
        mixed = tuple(x + y for x, y in zip(u, v))
        steps = counted(monkeypatch, "_step")
        enumerate_vertex_solutions(rp3_sum)
        last = len(steps)
        monkeypatch.undo()

        real = vertex_enum._step
        calls = []

        def injecting(*args):
            calls.append(1)
            rays, words, quads = real(*args)
            if len(calls) == last:
                # in standard coordinates; the support words of the extra
                # row, a copy of the first row's, are not read again
                assert rays.shape[1] == len(mixed)
                rays = np.vstack([rays, np.array([mixed], dtype=rays.dtype)])
                words, quads = (
                    np.hstack([w, w[:, :1]]) for w in (words, quads)
                )
            return rays, words, quads

        monkeypatch.setattr(vertex_enum, "_step", injecting)
        certified = counted(monkeypatch, "is_vertex_ray")
        assert enumerate_vertex_solutions(rp3_sum) == rp3_sum_reference
        assert len(calls) == last
        assert any(vec == mixed for _, vec in certified)

    def test_gf2_rank_decides_the_benchmark_sums(self, benchmark_sums, monkeypatch):
        """Every ray the four connected sums of the decompose benchmark
        enumerate, 401 in all, is certified by its GF(2) rank."""
        past_gf2 = counted(monkeypatch, "_rank_mod_p")
        certified = counted(monkeypatch, "is_vertex_ray")
        for tri in benchmark_sums:
            decompose(tri, oracle_check=True)
        assert len(certified) == 401
        assert not past_gf2

    def test_modular_rank_decides_corpus_solutions(self, closed_corpus, monkeypatch):
        """At the default prime no corpus solution needs the exact fallback,
        and GF(2) decides all but one: a vertex solution of s2xs1_two_tet
        whose six support columns have rank 5, but rank 4 mod 2."""
        exact = counted(monkeypatch, "_exact_rank")
        past_gf2 = counted(monkeypatch, "_rank_mod_p")
        falls = {}
        for name, tri in closed_corpus.items():
            matching = matching_system(tri)
            solutions = enumerate_vertex_solutions(tri)
            before = len(past_gf2)
            for coords in solutions:
                assert is_vertex_ray(matching, coords)
            falls[name] = len(past_gf2) - before
        assert not exact
        assert {name: n for name, n in falls.items() if n} == {"s2xs1_two_tet": 1}

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
