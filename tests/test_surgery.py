import os
import subprocess
import sys
from pathlib import Path

import pytest

import kneser
from kneser import corpus
from kneser.errors import ConsistencyCheckFailed, VertexLinkingRejected
from kneser.homology import homology
from kneser.reconstruct import reconstruct
from kneser.surgery import cap_boundary, crush, cut_and_cap, cut_complex
from kneser.triangulation import validate
from kneser.vertex_enum import enumerate_vertex_solutions
from oracles import sympy_homology, vertex_link_coordinates

# one tetrahedron with face 0 glued to face 1: a solid torus, whose boundary
# is a torus made of the two free faces
SOLID_TORUS = [[(0, 1, (1, 2, 3, 0)), (0, 0, (3, 0, 1, 2)), None, None]]


def sphere_solutions(tri):
    out = []
    for coords in enumerate_vertex_solutions(tri):
        surface = reconstruct(tri, coords)
        if surface.connected and surface.euler_characteristic == 2:
            out.append((coords, surface.vertex_linking))
    return out


def h1_multiset(pieces):
    return sorted(
        (h.rank, h.torsion)
        for h in (homology(p, 1) for p in pieces)
        if not h.trivial
    )


class TestCapBoundary:
    def test_single_tet_caps_to_sphere(self):
        ball = validate([[None] * 4], require_closed=False)
        capped = cap_boundary(ball)
        assert capped.closed and capped.orientable
        assert capped.size == 5
        assert homology(capped, 1).trivial
        assert homology(capped, 0).rank == 1

    def test_closed_input_unchanged(self, bd4):
        assert cap_boundary(bd4) is bd4

    def test_torus_boundary_raises(self):
        with pytest.raises(ConsistencyCheckFailed, match="Euler characteristic 0"):
            cap_boundary(validate(SOLID_TORUS, require_closed=False))

    def test_checks_survive_optimize_flag(self):
        # the torus boundary trips the chi == 2 check even with asserts off
        code = (
            "from kneser.errors import ConsistencyCheckFailed\n"
            "from kneser.surgery import cap_boundary\n"
            "from kneser.triangulation import validate\n"
            "from test_surgery import SOLID_TORUS\n"
            "try:\n"
            "    cap_boundary(validate(SOLID_TORUS, require_closed=False))\n"
            "except ConsistencyCheckFailed:\n"
            "    print('raised', __debug__)\n"
        )
        here = Path(__file__).resolve().parent
        src = Path(kneser.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            cwd=str(here),
            env={**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{here}"},
        )
        assert proc.stdout == "raised False\n", proc.stderr


class TestCutAndCap:
    def test_vertex_link_gives_two_trivial_pieces(self, bd4):
        pieces = cut_and_cap(bd4, vertex_link_coordinates(bd4, 0))
        assert len(pieces) == 2
        for p in pieces:
            assert p.closed and p.orientable
            assert homology(p, 1).trivial

    def test_vertex_link_always_separates(self, closed_corpus):
        for name, tri in closed_corpus.items():
            coords = vertex_link_coordinates(tri, 0)
            pieces = cut_and_cap(tri, coords)
            assert len(pieces) == 2, name

    def test_separating_count_is_one_or_two(self, small_corpus):
        for name, tri in small_corpus.items():
            for coords, _vl in sphere_solutions(tri):
                pieces = cut_and_cap(tri, coords)
                assert len(pieces) in (1, 2), name

    def test_summand_recovery(self):
        # cutting rp3 along its vertex link: a ball and rp3-minus-ball
        rp3 = corpus.rp3_two_tet()
        pieces = cut_and_cap(rp3, vertex_link_coordinates(rp3, 0))
        assert h1_multiset(pieces) == [(0, (2,))]
        l31 = corpus.l31_two_tet()
        pieces = cut_and_cap(l31, vertex_link_coordinates(l31, 0))
        assert h1_multiset(pieces) == [(0, (3,))]

    def test_nonseparating_sphere(self):
        s2xs1 = corpus.s2xs1_two_tet()
        nonvl = [c for c, vl in sphere_solutions(s2xs1) if not vl]
        assert nonvl
        pieces = cut_and_cap(s2xs1, nonvl[0])
        assert len(pieces) == 1  # the sphere does not separate
        assert homology(pieces[0], 1).trivial  # S^2 x I capped twice

    def test_pieces_validate_and_match_sympy(self, bd4):
        for coords, _vl in sphere_solutions(bd4):
            for piece in cut_and_cap(bd4, coords):
                assert piece.closed and piece.orientable
                h = homology(piece, 1)
                assert (h.rank, h.torsion) == sympy_homology(piece, 1)

    def test_cut_complex_of_one_tet_triangulations(self):
        # the 1-tet sphere exercises faces glued to the same tetrahedron
        tri = corpus.s3_one_tet()
        for coords, _vl in sphere_solutions(tri):
            cut = cut_complex(tri, coords)
            assert cut.orientable
            pieces = cut_and_cap(tri, coords)
            assert all(homology(p, 1).trivial for p in pieces)


class TestCrush:
    def test_vertex_linking_rejected(self, bd4):
        with pytest.raises(VertexLinkingRejected):
            crush(bd4, vertex_link_coordinates(bd4, 0))

    def test_bd4_edge_link_crush(self, bd4):
        nonvl = [c for c, vl in sphere_solutions(bd4) if not vl]
        assert nonvl
        for coords in nonvl:
            pieces = crush(bd4, coords)
            assert sum(p.size for p in pieces) < 5
            for p in pieces:
                assert p.closed and p.orientable
                assert homology(p, 1).trivial

    def test_strictly_decreasing(self, closed_corpus):
        for name, tri in closed_corpus.items():
            for coords, vl in sphere_solutions(tri):
                if vl:
                    continue
                pieces = crush(tri, coords)
                assert sum(p.size for p in pieces) < tri.size, name

    def test_crush_matches_cut_and_cap_up_to_trivial(self, closed_corpus):
        """The audit the decomposition loop relies on: crushing only ever
        differs from the faithful cut by trivial-H1 pieces on the corpus
        inputs used for decomposition (sums of bd4, rp3_octahedral, s3)."""
        for name in ("bd4_simplex", "sum_bd4_bd4", "sum_bd4_rp3", "sum_s3_rp3"):
            tri = closed_corpus[name]
            for coords, vl in sphere_solutions(tri):
                if vl:
                    continue
                crushed = h1_multiset(crush(tri, coords))
                reference = h1_multiset(cut_and_cap(tri, coords))
                assert crushed == reference, (name, coords)

    def test_known_degenerate_losses(self):
        """Crushing may lose L(3,1)- or S^2xS^1-type summands entirely;
        the plain cut never does.  These cases stay out of the ledger
        corpus and document the crush side effect."""
        l31 = corpus.l31_two_tet()
        nonvl = [c for c, vl in sphere_solutions(l31) if not vl]
        pieces = crush(l31, nonvl[0])
        assert pieces == []  # both tets carry quads
        assert h1_multiset(cut_and_cap(l31, nonvl[0])) == [(0, (3,))]

        s2xs1 = corpus.s2xs1_two_tet()
        nonvl = [c for c, vl in sphere_solutions(s2xs1) if not vl]
        assert crush(s2xs1, nonvl[0]) == []
