import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kneser import corpus
from kneser.errors import (
    Disconnected,
    EmptySupport,
    NonInvolutiveGluing,
    NonOrientable,
    NotClosed,
    SelfGluedFace,
)
from kneser.triangulation import (
    Triangulation,
    _UnionFind,
    connected_components,
    perm_compose,
    perm_inverse,
    perm_sign,
    quasimetric,
    skeleton,
    split_components,
    support_metrics,
    validate,
)
from oracles import (
    connected_components_reference,
    disjoint_union,
    exhaustive_chain_distance,
    orientations_reference,
)
from test_census_sweep import two_tet_tables

ALL_PERMS = list(itertools.permutations(range(4)))


class TestPermutations:
    def test_sign_of_identity_and_swap(self):
        assert perm_sign((0, 1, 2, 3)) == 1
        assert perm_sign((1, 0, 2, 3)) == -1

    @given(st.sampled_from(ALL_PERMS), st.sampled_from(ALL_PERMS))
    def test_sign_multiplicative(self, p, q):
        assert perm_sign(perm_compose(p, q)) == perm_sign(p) * perm_sign(q)

    def test_sign_is_inversion_parity(self):
        for r in (3, 4):
            for p in itertools.permutations(range(4), r):
                inversions = sum(p[a] > p[b] for a in range(r) for b in range(a + 1, r))
                assert perm_sign(p) == (-1 if inversions % 2 else 1)

    @given(st.sampled_from(ALL_PERMS))
    def test_inverse(self, p):
        assert perm_compose(p, perm_inverse(p)) == (0, 1, 2, 3)


class TestValidate:
    def test_bd4_valid_closed_orientable(self, bd4):
        # oracle: brute-force involution and orientation re-check
        for i in range(5):
            for f in range(4):
                g = bd4.gluings[i][f]
                back = bd4.gluings[g.tet][g.face]
                assert (back.tet, back.face) == (i, f)
                assert back.perm == perm_inverse(g.perm)
                assert g.perm[f] == g.face
                o = bd4.orientations
                assert perm_sign(g.perm) == -o[i] * o[g.tet]
        assert bd4.closed and bd4.orientable

    def test_tables_built_apart_hash_equal(self, bd4):
        raw = [
            [None if g is None else (g.tet, g.face, list(g.perm)) for g in row]
            for row in bd4.gluings
        ]
        again = validate(raw)
        assert again is not bd4 and again == bd4 and hash(again) == hash(bd4)

    def test_closed_and_orientations_not_hashed(self, bd4):
        other = Triangulation(bd4.gluings, orientations=None, closed=not bd4.closed)
        assert other == bd4 and hash(other) == hash(bd4)

    def test_closed_table_builds_one_skeleton(self, bd4):
        skeleton.cache_clear()
        tri = validate(bd4.gluings)
        skeleton(tri)
        assert skeleton.cache_info().misses == 1

    def test_single_tet_not_closed_when_demanded(self):
        with pytest.raises(NotClosed):
            validate([[None] * 4], require_closed=True)
        tri = validate([[None] * 4], require_closed=False)
        assert not tri.closed

    def test_non_involutive_rejected(self):
        # (0,0) -> (1,2,p) but (1,2) -> (0,0,q) with q != p^-1
        p = (2, 1, 0, 3)  # sends face 0 to face 2
        wrong = (2, 3, 0, 1)
        table = [
            [(1, 2, p), None, None, None],
            [None, None, (0, 0, wrong), None],
        ]
        with pytest.raises((NonInvolutiveGluing, ValueError)):
            validate(table, require_closed=False)

    def test_self_gluing_identity_rejected(self):
        table = [[(0, 0, (0, 1, 2, 3)), None, None, None]]
        with pytest.raises((SelfGluedFace, ValueError)):
            validate(table, require_closed=False)

    def test_nonorientable_rejected(self):
        # single tet, two face pairs glued with even permutations makes the
        # orientation condition unsatisfiable
        rot = (0, 2, 3, 1)  # even, fixes 0: glues face 1 to face 2... p(1)=2
        assert perm_sign(rot) == 1 and rot[1] == 2
        inv = perm_inverse(rot)
        table = [[None, (0, 2, rot), (0, 1, inv), None]]
        with pytest.raises(NonOrientable):
            validate(table, require_closed=False, require_orientable=True)
        tri = validate(table, require_closed=False, require_orientable=False)
        assert not tri.orientable


def random_tables(count: int, seed: int):
    """Seeded random involutive gluing tables of 1-4 tets, some faces left
    unglued; orientable or not, connected or not."""
    rng = random.Random(seed)
    for _ in range(count):
        t = rng.randint(1, 4)
        slots = [(i, f) for i in range(t) for f in range(4)]
        rng.shuffle(slots)
        table = [[None] * 4 for _ in range(t)]
        for n in range(rng.randint(0, 2 * t)):
            (i, f), (j, k) = slots[2 * n], slots[2 * n + 1]
            images = [v for v in range(4) if v != k]
            rng.shuffle(images)
            p = [0] * 4
            p[f] = k
            for v, w in zip((v for v in range(4) if v != f), images):
                p[v] = w
            table[i][f] = (j, k, tuple(p))
            table[j][k] = (i, f, perm_inverse(tuple(p)))
        yield table


class TestAgainstWalks:
    """Orientations, NonOrientable and components from the union-find agree
    with the depth-first walks they replaced."""

    def test_two_tet_census(self):
        # every table glues all faces; components of non-orientable tables
        # are compared on the random tables below
        for table in two_tet_tables():
            expected = orientations_reference(table)
            try:
                tri = validate(table, require_closed=False)
            except NonOrientable:
                assert expected is None
                continue
            assert tri.orientations == expected
            assert connected_components(tri.gluings) == connected_components_reference(tri)

    def test_random_tables(self):
        for table in random_tables(3000, seed=5):
            expected = orientations_reference(table)
            if expected is None:
                with pytest.raises(NonOrientable):
                    validate(table, require_closed=False)
            tri = validate(table, require_closed=False, require_orientable=False)
            assert tri.orientations == expected
            assert connected_components(tri.gluings) == connected_components_reference(tri)


class TestSkeleton:
    def test_bd4_counts_match_binomials(self, bd4):
        sk = skeleton(bd4)
        # oracle: orbit counts of the 4-simplex boundary are C(5, k+1)
        assert sk.vertex_count == 5
        assert sk.edge_count == 10
        assert sk.face_count == 10
        assert sk.tet_count == 5
        assert sk.euler_characteristic == 0
        assert all(d == 3 for d in sk.edge_degrees)

    def test_disjoint_union_doubles_counts(self, bd4):
        two = disjoint_union(bd4, bd4)
        sk = skeleton(two)
        assert (sk.vertex_count, sk.edge_count, sk.face_count) == (10, 20, 20)
        assert len(split_components(two.gluings)) == 2

    def test_every_corpus_triangulation_has_chi_zero(self, closed_corpus):
        for name, tri in closed_corpus.items():
            assert skeleton(tri).euler_characteristic == 0, name


class TestQuasimetric:
    def test_identity(self, bd4):
        assert quasimetric(bd4, 2, 2) == 0

    def test_bd4_any_pair_is_one(self, bd4):
        # any two 4-element subsets of a 5-element set intersect
        for a in range(5):
            for b in range(5):
                expected = 0 if a == b else 1
                assert quasimetric(bd4, a, b) == expected

    def test_symmetry_on_corpus(self, closed_corpus):
        for tri in closed_corpus.values():
            for a in range(tri.size):
                for b in range(tri.size):
                    assert quasimetric(tri, a, b) == quasimetric(tri, b, a)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_chain_against_exhaustive_search(self, n):
        chain = corpus.linear_chain(n)
        for a in range(n):
            for b in range(n):
                assert quasimetric(chain, a, b) == exhaustive_chain_distance(
                    chain, a, b
                )

    def test_small_corpus_against_exhaustive_search(self, small_corpus):
        for tri in small_corpus.values():
            for a in range(tri.size):
                for b in range(tri.size):
                    assert quasimetric(tri, a, b) == exhaustive_chain_distance(
                        tri, a, b
                    )

    def test_chain_distance_grows(self):
        # face-glued chains share vertices up to 3 tets apart, so the best
        # possible growth is ceil((n-1)/3)
        chain = corpus.linear_chain(13)
        assert quasimetric(chain, 0, 12) == 4

    def test_disconnected_raises(self, bd4):
        two = disjoint_union(bd4, bd4)
        with pytest.raises(Disconnected):
            quasimetric(two, 0, 5)


class TestSupportMetrics:
    def test_vertex_link_support(self, bd4):
        # the four tets containing vertex 4 of the 4-simplex: tets 0..3
        m = support_metrics(bd4, {0, 1, 2, 3})
        assert m.size == 4 and m.diameter == 1

    def test_singleton(self, bd4):
        m = support_metrics(bd4, {3})
        assert m.size == 1 and m.diameter == 0

    def test_full_support(self, bd4):
        m = support_metrics(bd4, range(5))
        assert m.size == 5 and m.diameter == 1

    def test_empty_rejected(self, bd4):
        with pytest.raises(EmptySupport):
            support_metrics(bd4, set())

    def test_connected_support_diameter_bound(self, closed_corpus):
        # a connected support of size s is covered by chains of length <= s
        from kneser.vertex_enum import enumerate_vertex_solutions

        for tri in closed_corpus.values():
            for coords in enumerate_vertex_solutions(tri):
                support = {
                    i for i in range(tri.size)
                    if any(coords[7 * i + k] for k in range(7))
                }
                m = support_metrics(tri, support)
                assert m.diameter <= m.size - 1


class TestUnionFind:
    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9), st.booleans()),
            max_size=25,
        )
    )
    def test_roots_and_bits_against_graph_search(self, constraints):
        """After each union, every find gives the least member of its class
        and the parity of its path to it over the accepted constraints."""
        uf = _UnionFind(10)
        adj = {x: [] for x in range(10)}

        def parities(start):
            seen = {start: False}
            stack = [start]
            while stack:
                a = stack.pop()
                for b, r in adj[a]:
                    if b not in seen:
                        seen[b] = seen[a] ^ r
                        stack.append(b)
            return seen

        for x, y, rel in constraints:
            colour = parities(x)
            consistent = y not in colour or colour[y] == rel
            assert uf.union(x, y, rel) == consistent
            if y not in colour:
                adj[x].append((y, rel))
                adj[y].append((x, rel))
            for z in range(10):
                seen = parities(z)
                root = min(seen)
                assert uf.find(z) == (root, seen[root])
