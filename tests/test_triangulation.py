import dataclasses
import itertools
import random
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kneser import corpus
from kneser.errors import (
    Disconnected,
    EmptySupport,
    KneserError,
    NonInvolutiveGluing,
    NonOrientable,
    NotClosed,
    SelfGluedFace,
)
from kneser.reconstruct import build_complex, reconstruct
from kneser.surgery import cut_and_cap, cut_complex
from kneser.triangulation import (
    SkeletonTable,
    Triangulation,
    _gluing_arrays,
    _tet_unions,
    components,
    connected_components,
    perm_compose,
    perm_inverse,
    perm_sign,
    skeleton,
    spanning_forest,
    split_components,
    support_metrics,
    validate,
    validate_arrays,
)
from kneser.vertex_enum import enumerate_vertex_solutions
from oracles import (
    _UnionFind,
    check_structure_reference,
    connected_components_reference,
    disjoint_union,
    exhaustive_chain_distance,
    graph_components_reference,
    orientations_reference,
    skeleton_reference,
    solved_bits,
    spanning_forest_reference,
    tet_unionfind_reference,
    tet_unions_reference,
    unionfind_reference,
    validate_reference,
)
from test_census_sweep import closed_two_tet, two_tet_tables

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
        other = Triangulation(bd4.arrays, orientations=None, closed=not bd4.closed)
        assert other == bd4 and hash(other) == hash(bd4)

    def test_one_table_built_three_ways(self, closed_corpus):
        """validate of the rows, validate_arrays of the arrays and
        split_components give equal triangulations, with equal hashes and
        the same Gluing rows; a different table compares unequal."""
        tris = list(closed_corpus.values())
        for tri, other in zip(tris, tris[1:] + tris[:1]):
            rows = raw(tri)
            by_rows = validate(rows)
            arrays = _gluing_arrays(rows)
            by_arrays = validate_arrays(_gluing_arrays(rows))
            (by_split,) = split_components(arrays)
            for built in (by_arrays, by_split):
                assert built == by_rows and hash(built) == hash(by_rows)
                assert built.gluings == by_rows.gluings == tri.gluings
            assert raw(by_rows) == rows
            assert by_rows != other and by_rows != rows

    def test_reversed_edge_named_as_an_edge(self):
        """A table whose only fault is an edge identified with itself in
        reverse names that (tet, edge), as the reference does."""
        table = one_tet_table((0, 2, 3, 1))
        with pytest.raises(NotClosed) as info:
            validate(table, require_orientable=False)
        assert str(info.value) == (
            "not closed at (tet 0, edge 4): edge identified with itself in reverse"
        )
        assert (info.value.tet, info.value.index, info.value.kind) == (0, 4, "edge")
        for flags in FLAGS:
            assert outcome(validate, table, **flags) == outcome(
                validate_reference, table, **flags
            )

    def test_bad_vertex_link_named_as_a_vertex(self):
        """A table whose only fault is a vertex link that is not a sphere
        names the least slot of that vertex orbit, as the reference does:
        here the orbit at (tet 1, vertex 0) has a torus link."""
        table = [
            [(0, 1, (1, 0, 2, 3)), (0, 0, (1, 0, 2, 3)),
             (0, 3, (0, 1, 3, 2)), (0, 2, (0, 1, 3, 2))],
            [(1, 1, (1, 2, 0, 3)), (1, 0, (2, 0, 1, 3)),
             (1, 3, (0, 2, 3, 1)), (1, 2, (0, 3, 1, 2))],
        ]
        with pytest.raises(NotClosed) as info:
            validate(table, require_orientable=False)
        assert str(info.value) == (
            "not closed at (tet 1, vertex 0): vertex link has Euler characteristic 0, not 2"
        )
        assert (info.value.tet, info.value.index, info.value.kind) == (1, 0, "vertex")
        assert not validate(table, require_closed=False, require_orientable=False).closed
        for flags in FLAGS:
            assert outcome(validate, table, **flags) == outcome(
                validate_reference, table, **flags
            )

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
            p = _perm_sending(rng, f, k)
            table[i][f] = (j, k, p)
            table[j][k] = (i, f, perm_inverse(p))
        yield table


def one_tet_table(q):
    """One tet with face 0 glued to face 1 by (1, 0, 2, 3) and face 2 to
    face 3 by q: no face is a boundary face."""
    swap = (1, 0, 2, 3)
    return [[(0, 1, swap), (0, 0, swap), (0, 3, q), (0, 2, perm_inverse(q))]]


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
            assert connected_components(tri.arrays) == connected_components_reference(tri)

    def test_random_tables(self):
        for table in random_tables(3000, seed=5):
            expected = orientations_reference(table)
            if expected is None:
                with pytest.raises(NonOrientable):
                    validate(table, require_closed=False)
            tri = validate(table, require_closed=False, require_orientable=False)
            assert tri.orientations == expected
            assert connected_components(tri.arrays) == connected_components_reference(tri)


DEFECTS = ("none", "open", "one_sided", "wrong_inverse", "self_glued", "redirect")


def _perm_sending(rng, f: int, k: int):
    """A random permutation of 0..3 that sends f to k."""
    images = [v for v in range(4) if v != k]
    rng.shuffle(images)
    p = [0] * 4
    p[f] = k
    for v, w in zip((v for v in range(4) if v != f), images):
        p[v] = w
    return tuple(p)


def build_raw_table(rng, defect: str):
    """A raw gluing table of 1-3 tets: an involutive pairing of every face
    slot (of some slots when `defect` is "open"), random permutations, then
    at most one broken entry: one side of a gluing dropped ("one_sided"),
    given another permutation ("wrong_inverse"), glued to its own slot
    ("self_glued") or pointed at a random slot ("redirect")."""
    t = rng.randint(1, 3)
    slots = [(i, f) for i in range(t) for f in range(4)]
    rng.shuffle(slots)
    table = [[None] * 4 for _ in range(t)]
    pairs = rng.randint(0, 2 * t - 1) if defect == "open" else 2 * t
    for n in range(pairs):
        (i, f), (j, k) = slots[2 * n], slots[2 * n + 1]
        p = _perm_sending(rng, f, k)
        table[i][f] = (j, k, p)
        table[j][k] = (i, f, perm_inverse(p))
    glued = sorted(s for s in slots if table[s[0]][s[1]] is not None)
    if defect in ("one_sided", "wrong_inverse", "redirect") and glued:
        i, f = rng.choice(glued)
        j, k, p = table[i][f]
        if defect == "one_sided":
            table[i][f] = None
        elif defect == "wrong_inverse":
            others = [q for q in ALL_PERMS if q[f] == k and q != p]
            table[i][f] = (j, k, rng.choice(others))
        else:
            j, k = rng.choice(sorted(slots))
            table[i][f] = (j, k, _perm_sending(rng, f, k))
    elif defect == "self_glued":
        i, f = rng.choice(sorted(slots))
        table[i][f] = (i, f, _perm_sending(rng, f, f))
    return table


@st.composite
def raw_tables(draw):
    rng = draw(st.randoms(use_true_random=False))
    return build_raw_table(rng, draw(st.sampled_from(DEFECTS)))


def outcome(fn, *args, **kwargs):
    """What fn returns, with each Triangulation as (gluings, orientations,
    closed), or the type and message of the error it raises; the message
    names the (tet, face) or (tet, edge)."""
    try:
        result = fn(*args, **kwargs)
    except (KneserError, ValueError) as exc:
        return type(exc), str(exc)

    def key(tri):
        return tri.gluings, tri.orientations, tri.closed

    return [key(r) for r in result] if isinstance(result, list) else key(result)


def split_reference(table):
    """`split_components` over the references: a structural check, then
    components by the union-find that follows every entry, each validated
    by `validate_reference`."""
    check_structure_reference(table)
    pieces = []
    for comp in tet_unionfind_reference(table)[0].classes():
        index = {old: new for new, old in enumerate(comp)}
        rows = [
            [None if e is None else (index[e[0]], e[1], e[2]) for e in table[old]]
            for old in comp
        ]
        pieces.append(validate_reference(rows))
    return pieces


FLAGS = [
    {"require_closed": c, "require_orientable": o}
    for c in (True, False) for o in (True, False)
]


# every field of SkeletonTable, and every attribute derived from them
SKELETON_ATTRIBUTES = [f.name for f in dataclasses.fields(SkeletonTable)] + [
    name for name, value in vars(SkeletonTable).items()
    if isinstance(value, (property, cached_property))
]


def same(ours, theirs) -> bool:
    if isinstance(ours, np.ndarray):
        return np.array_equal(ours, theirs)
    return ours == theirs


def split_raw(table):
    """`split_components` of a raw table, read into arrays by the reader
    that `validate` uses."""
    return split_components(_gluing_arrays(table))


def assert_matches_references(table):
    """validate under every flag pair, connected_components and
    split_components and, on a table that validates, skeleton and the tet
    components agree with the references that follow each gluing from both
    of its slots."""
    for flags in FLAGS:
        assert outcome(validate, table, **flags) == outcome(
            validate_reference, table, **flags
        ), flags
    assert (
        connected_components(_gluing_arrays(table))
        == tet_unionfind_reference(table)[0].classes()
    )
    assert outcome(split_raw, table) == outcome(split_reference, table)
    try:
        validate_reference(table, require_closed=False, require_orientable=False)
    except (KneserError, ValueError):
        pass
    else:
        tri = validate(table, require_closed=False, require_orientable=False)
        ours, theirs = skeleton(tri), skeleton_reference(tri)
        for name in SKELETON_ATTRIBUTES:
            assert same(getattr(ours, name), getattr(theirs, name)), name
        a, b, rel, slots = _tet_unions(tri.arrays)
        root, bit, first = components(tri.size, a, b, rel)
        bad = None if first is None else divmod(int(slots[first]), 4)
        ref, ref_bad = tet_unionfind_reference(table)
        roots, bits = ref.resolve()
        bits = solved_bits(roots, bits, tet_unions_reference(table))
        assert bad == ref_bad and (root.tolist(), bit.tolist()) == (roots, bits)


def raw(tri):
    return [[None if g is None else tuple(g) for g in row] for row in tri.gluings]


class TestOneSlotKernels:
    """skeleton, the tet union-find under validate, validate itself and
    split_components follow each gluing from its lesser slot only; they
    agree field for field and error for error with the references that
    follow both slots, and keep both slots where a table may be one-sided."""

    @settings(max_examples=400)
    @given(raw_tables())
    def test_random_raw_tables(self, table):
        assert_matches_references(table)

    def test_every_defect_and_error_occurs(self):
        seen = set()
        for seed in range(300):
            for defect in DEFECTS:
                table = build_raw_table(random.Random(seed), defect)
                assert_matches_references(table)
                for flags in FLAGS:
                    result = outcome(validate, table, **flags)
                    if isinstance(result[0], type):
                        seen.add((result[0], "reverse" in result[1]))
                    else:
                        seen.add((Triangulation, result[2]))
        assert seen >= {
            (Triangulation, True),
            (Triangulation, False),
            (NotClosed, True),
            (NotClosed, False),
            (NonOrientable, False),
            (SelfGluedFace, False),
            (NonInvolutiveGluing, False),
        }

    def test_closed_corpus_and_census(self, closed_corpus):
        for tri in list(closed_corpus.values()) + list(closed_two_tet()[::4]):
            assert_matches_references(raw(tri))

    def test_cut_and_cap_outputs(self, small_corpus):
        for tri in small_corpus.values():
            for coords in enumerate_vertex_solutions(tri):
                complex_ = build_complex(tri, coords)
                surface = reconstruct(tri, complex_)
                if not (surface.connected and surface.euler_characteristic == 2):
                    continue
                cut = validate_arrays(cut_complex(tri, complex_), require_closed=False)
                assert_matches_references(raw(cut))
                for piece in cut_and_cap(tri, complex_):
                    assert_matches_references(raw(piece))

    def test_targets_beyond_int64(self):
        """A target too large for the array form is out of range, and still
        the first failure only where no earlier entry fails."""
        huge = 10 ** 30
        identity = (0, 1, 2, 3)
        for entry in ((huge, 0, identity), (-huge, 0, identity), (0, huge, identity)):
            for table in (
                [[entry, None, None, None]],
                [[None, (0, 0, (1, 0, 2, 3)), None, None], [entry, None, None, None]],
                [[None, None, None, None], [None, entry, None]],
            ):
                for flags in FLAGS:
                    assert outcome(validate, table, **flags) == outcome(
                        validate_reference, table, **flags
                    )
                assert outcome(split_raw, table) == outcome(split_reference, table)

    def test_negative_face_with_non_permutation(self):
        """A negative target face is out of range whatever the permutation,
        also one that is not a permutation at all."""
        for p in ((0, 0, 0, 0), (9, 9, 9, 9), (0, 1, 2, 3), (1, 0, 2, 3)):
            for k in (-1, -2, -3, 4):
                for table in (
                    [[(0, k, p), None, None, None]],
                    [[None, (1, k, p), None, None], [None] * 4],
                    [
                        [(1, 0, (0, 1, 2, 3)), None, None, None],
                        [(0, 0, (0, 1, 2, 3)), (0, k, p), None, None],
                    ],
                ):
                    for flags in FLAGS:
                        assert outcome(validate, table, **flags) == outcome(
                            validate_reference, table, **flags
                        )
                    assert outcome(split_raw, table) == outcome(split_reference, table)

    def test_one_sided_gluing_is_not_involutive(self):
        # tet 1 glues face 0 to tet 0, which does not glue back: followed
        # from the lesser slot only, the two tets would fall apart and
        # tet 0 alone would fail as not closed
        table = _gluing_arrays([[None] * 4, [(0, 0, (0, 1, 2, 3)), None, None, None]])
        assert connected_components(table) == [[0, 1]]
        with pytest.raises(NonInvolutiveGluing) as info:
            split_components(table)
        assert (info.value.tet, info.value.face) == (1, 0)


class TestSkeleton:
    def test_bd4_counts_match_binomials(self, bd4):
        sk = skeleton(bd4)
        # oracle: orbit counts of the 4-simplex boundary are C(5, k+1)
        assert sk.vertex_count == 5
        assert sk.edge_count == 10
        assert sk.face_count == 10
        assert sk.tet_count == 5
        assert sk.euler_characteristic == 0
        assert np.bincount(sk.edge_orbit.ravel()).tolist() == [3] * 10

    def test_disjoint_union_doubles_counts(self, bd4):
        two = disjoint_union(bd4, bd4)
        sk = skeleton(two)
        assert (sk.vertex_count, sk.edge_count, sk.face_count) == (10, 20, 20)
        assert len(split_components(two.arrays)) == 2

    def test_every_corpus_triangulation_has_chi_zero(self, closed_corpus):
        for name, tri in closed_corpus.items():
            assert skeleton(tri).euler_characteristic == 0, name


def pair_distance(tri, a: int, b: int) -> int:
    """d_T(a, b): the diameter of the support {a, b}."""
    return support_metrics(tri, {a, b}).diameter


class TestQuasimetric:
    """d_T, the least number of vertex-sharing steps between two tets, read
    as the diameter of a two-tet support."""

    def test_identity(self, bd4):
        assert pair_distance(bd4, 2, 2) == 0

    def test_bd4_any_pair_is_one(self, bd4):
        # any two 4-element subsets of a 5-element set intersect
        for a in range(5):
            for b in range(5):
                expected = 0 if a == b else 1
                assert pair_distance(bd4, a, b) == expected

    def test_symmetry_on_corpus(self, closed_corpus):
        """d_T is symmetric whichever tet the search starts from, and obeys
        the triangle inequality."""
        for tri in closed_corpus.values():
            n = tri.size
            d = [[pair_distance(tri, a, b) for b in range(n)] for a in range(n)]
            for a in range(n):
                for b in range(n):
                    assert d[a][b] == d[b][a] == support_metrics(tri, [b, a]).diameter
                    assert all(d[a][b] <= d[a][c] + d[c][b] for c in range(n))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_chain_against_exhaustive_search(self, n):
        chain = corpus.linear_chain(n)
        for a in range(n):
            for b in range(n):
                assert pair_distance(chain, a, b) == exhaustive_chain_distance(
                    chain, a, b
                )

    def test_small_corpus_against_exhaustive_search(self, small_corpus):
        for tri in small_corpus.values():
            for a in range(tri.size):
                for b in range(tri.size):
                    assert pair_distance(tri, a, b) == exhaustive_chain_distance(
                        tri, a, b
                    )

    def test_chain_distance_grows(self):
        # face-glued chains share vertices up to 3 tets apart, so the best
        # possible growth is ceil((n-1)/3)
        chain = corpus.linear_chain(13)
        assert pair_distance(chain, 0, 12) == 4

    def test_disconnected_raises(self, bd4):
        two = disjoint_union(bd4, bd4)
        assert exhaustive_chain_distance(two, 0, 5) is None
        with pytest.raises(Disconnected):
            pair_distance(two, 0, 5)


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

    def test_diameter_against_pairwise_quasimetric(self, closed_corpus, monkeypatch):
        """The diameter is the largest d_T over pairs of the support, and
        one call builds the adjacency table once."""
        from kneser import triangulation

        built = []
        real = triangulation._vertex_adjacency

        def counting(tri):
            built.append(tri)
            return real(tri)

        monkeypatch.setattr(triangulation, "_vertex_adjacency", counting)
        for tri in closed_corpus.values():
            for coords in enumerate_vertex_solutions(tri):
                support = {
                    i for i in range(tri.size)
                    if any(coords[7 * i + k] for k in range(7))
                }
                built.clear()
                m = support_metrics(tri, support)
                assert len(built) == 1
                assert m.diameter == max(
                    pair_distance(tri, a, b) for a in support for b in support
                )

    def test_connected_support_diameter_bound(self, closed_corpus):
        # a connected support of size s is covered by chains of length <= s
        for tri in closed_corpus.values():
            for coords in enumerate_vertex_solutions(tri):
                support = {
                    i for i in range(tri.size)
                    if any(coords[7 * i + k] for k in range(7))
                }
                m = support_metrics(tri, support)
                assert m.diameter <= m.size - 1


def assert_kernel_matches(n, unions):
    """components gives the roots, bits and first rejected union of the
    sequential union-find fed the same unions, and no bit in a class whose
    unions contradict each other."""
    a, b, rel = (np.array([u[x] for u in unions], dtype=np.int64) for x in range(3))
    root, bit, first = components(n, a, b, rel)
    assert (root.tolist(), bit.tolist(), first) == unionfind_reference(n, unions)


@st.composite
def union_lists(draw):
    n = draw(st.integers(0, 12))
    if n == 0:
        return n, []
    node = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(node, node, st.booleans()), max_size=30))


class TestComponents:
    """The array kernel against the sequential union-find: roots, bits,
    whether a union is rejected and which is the first."""

    @settings(max_examples=300)
    @given(union_lists())
    def test_random_graphs(self, case):
        assert_kernel_matches(*case)

    def test_empty_and_single_node(self):
        assert_kernel_matches(0, [])
        assert_kernel_matches(1, [])
        assert_kernel_matches(1, [(0, 0, False)])
        assert_kernel_matches(1, [(0, 0, True)])
        assert_kernel_matches(1, [(0, 0, False), (0, 0, True), (0, 0, True)])

    def test_self_loops_and_repeated_unions(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(2, 6)
            unions = []
            for _ in range(rng.randint(1, 12)):
                x = rng.randrange(n)
                y = x if rng.random() < 0.3 else rng.randrange(n)
                unions.extend([(x, y, rng.random() < 0.5)] * rng.randint(1, 3))
            assert_kernel_matches(n, unions)

    def test_odd_and_even_cycles(self):
        for length in range(1, 9):
            for odd in (False, True):
                cycle = [(x, (x + 1) % length, False) for x in range(length)]
                cycle[-1] = (length - 1, 0, odd)
                for shift in range(length):
                    assert_kernel_matches(length, cycle[shift:] + cycle[:shift])

    def test_long_paths(self):
        """Paths whose labels fall away from one end, in random order and
        with random labels: many hooking rounds and deep pointer jumps."""
        rng = random.Random(7)
        for n in (2, 3, 64, 257, 1000):
            path = [(x + 1, x, rng.random() < 0.5) for x in range(n - 1)]
            assert_kernel_matches(n, path)
            assert_kernel_matches(n, path[::-1])
            labels = list(range(n))
            rng.shuffle(labels)
            shuffled = [(labels[x], labels[y], r) for x, y, r in path]
            rng.shuffle(shuffled)
            assert_kernel_matches(n, shuffled)
            # closing the path into a cycle of either parity
            assert_kernel_matches(n, shuffled + [(labels[0], labels[-1], False)])
            assert_kernel_matches(n, shuffled + [(labels[0], labels[-1], True)])


class TestUnionFind:
    """The oracles' sequential `_UnionFind`, checked on its own."""

    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9), st.booleans()),
            max_size=25,
        )
    )
    def test_roots_and_bits_against_graph_search(self, constraints):
        """After each union, every find, and `resolve` taken before them,
        give the least member of its class and the parity of its path to it
        over the accepted constraints."""
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
            resolved = uf.resolve()
            for z in range(10):
                seen = parities(z)
                root = min(seen)
                assert (resolved[0][z], resolved[1][z]) == (root, seen[root])
                assert uf.find(z) == (root, seen[root])


@st.composite
def graphs(draw):
    """A node count and edges among the nodes, loops and repeated edges
    included."""
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(node, node), max_size=30))


class TestSpanningForest:
    @given(graphs())
    def test_breadth_first_forest_against_graph_search(self, graph):
        """One tree per component, rooted at its least node; n - c steps,
        each along a non-loop edge that joins its parent to a new child,
        the parent reached before the child; and the very roots and steps
        of a deque breadth-first search that takes each node's edges in
        index order."""
        n, edges = graph
        a, b = np.array(edges, dtype=np.int64).reshape(-1, 2).T
        roots, steps = spanning_forest(n, a, b)
        comps = graph_components_reference(n, edges)
        assert roots == [comp[0] for comp in comps]
        assert len(steps) == n - len(comps)
        reached = list(roots)
        for edge, parent, child in steps:
            assert {parent, child} == set(edges[edge]) and parent != child
            assert parent in reached and child not in reached
            reached.append(child)
        assert sorted(reached) == list(range(n))
        assert (roots, steps) == spanning_forest_reference(n, edges)
