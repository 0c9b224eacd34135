"""Re-derive the pinned census tables by the same exhaustive search that
found them, and sanity-check the other corpus objects."""
import itertools

import numpy as np
import pytest

from kneser import corpus
from kneser.errors import KneserError
from kneser.homology import homology
from kneser.projection import TriangulatedPatch
from kneser.triangulation import connected_components, skeleton, validate


def perms_fixing(f, k):
    others = [v for v in range(4) if v != f]
    targets = [v for v in range(4) if v != k]
    for assign in itertools.permutations(targets):
        p = [0] * 4
        p[f] = k
        for v, t in zip(others, assign):
            p[v] = t
        yield tuple(p)


def pairings(slots):
    if not slots:
        yield []
        return
    a = slots[0]
    for i in range(1, len(slots)):
        rest = slots[1:i] + slots[i + 1:]
        for sub in pairings(rest):
            yield [(a, slots[i])] + sub


def census(ntet, cross_only=False):
    """Lexicographically least valid closed orientable connected table per
    H1 class; cross_only restricts to tables without same-tet gluings."""
    slots = [(i, f) for i in range(ntet) for f in range(4)]
    found = {}
    for pairing in pairings(slots):
        if cross_only and any(i1 == i2 for (i1, _), (i2, _) in pairing):
            continue
        choices = [list(perms_fixing(f1, f2)) for (_, f1), (_, f2) in pairing]
        for combo in itertools.product(*choices):
            table = [[None] * 4 for _ in range(ntet)]
            for ((i1, f1), (i2, f2)), p in zip(pairing, combo):
                q = [0] * 4
                for v in range(4):
                    q[p[v]] = v
                table[i1][f1] = (i2, f2, p)
                table[i2][f2] = (i1, f1, tuple(q))
            try:
                tri = validate(table)
            except (KneserError, ValueError):
                continue
            if len(connected_components(tri.arrays)) != 1:
                continue
            h1 = homology(tri, 1)
            key = (h1.rank, h1.torsion)
            canon = tuple(tuple(row) for row in table)
            if key not in found or canon < found[key]:
                found[key] = canon
    return found


def as_table(tri):
    return tuple(
        tuple((g.tet, g.face, g.perm) for g in row) for row in tri.gluings
    )


class TestCensusRederivation:
    def test_one_tet(self):
        found = census(1)
        assert found[(0, ())] == as_table(corpus.s3_one_tet())
        # the full 1-tet landscape: S^3, L(4,1), L(5,2)
        assert set(found) == {(0, ()), (0, (4,)), (0, (5,))}

    def test_two_tet_cross_only(self):
        found = census(2, cross_only=True)
        assert found[(0, ())] == as_table(corpus.s3_two_tet())
        assert found[(0, (2,))] == as_table(corpus.rp3_two_tet())
        assert found[(0, (3,))] == as_table(corpus.l31_two_tet())


class TestOctahedralRp3:
    def test_structure(self):
        tri = corpus.rp3_octahedral()
        sk = skeleton(tri)
        assert tri.size == 8
        assert (sk.vertex_count, sk.edge_count, sk.face_count) == (4, 12, 16)
        h1 = homology(tri, 1)
        assert (h1.rank, h1.torsion) == (0, (2,))
        assert homology(tri, 2).trivial

    def test_every_tet_embedded(self):
        from kneser.decomposition import _tet0_embedded
        from kneser.triangulation import _restricted

        tri = corpus.rp3_octahedral()
        for lead in range(tri.size):
            rotated = _restricted(
                tri.arrays, [lead] + [i for i in range(tri.size) if i != lead]
            )
            assert _tet0_embedded(rotated)


class TestS2xS1:
    def test_h_star(self):
        tri = corpus.s2xs1_two_tet()
        assert homology(tri, 1).rank == 1
        assert homology(tri, 2).rank == 1


class TestPatches:
    def test_all_generated_patches_valid(self):
        for tris in (
            corpus.sphere_patch(0.05, 1),
            corpus.sphere_patch(0.08, 1),
            corpus.tilted_square_patch([0.0, 0.0, 0.05], [1, 1, 1], 0.03),
        ):
            patch = TriangulatedPatch(tris)
            assert patch.area > 0

    def test_sphere_patch_area_converges(self):
        import math

        areas = [
            float(np.sum(_areas(corpus.sphere_patch(0.1, refine))))
            for refine in (1, 2, 3)
        ]
        target = 4 * math.pi * 0.1 ** 2
        errors = [abs(a - target) / target for a in areas]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 0.02

    def test_regular_tetrahedron(self):
        import math

        v = corpus.regular_tetrahedron()
        assert np.allclose(v.mean(axis=0), 0.0)
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(v[i] - v[j]) == pytest.approx(1.0)
        # inradius 1/(2 sqrt 6)
        from kneser.projection import INRADIUS

        assert INRADIUS == pytest.approx(1 / (2 * math.sqrt(6)))


def _areas(tris):
    cross = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    return 0.5 * np.sqrt(np.sum(cross * cross, axis=1))
