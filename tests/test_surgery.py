import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kneser
from kneser import corpus, decomposition, surgery, triangulation
from kneser.cli import CORPUS_FILES, cmd_generate
from kneser.decomposition import connected_sum
from kneser.errors import (
    ConsistencyCheckFailed,
    InvalidAfterCrush,
    KneserError,
    VertexLinkingRejected,
)
from kneser.fileio import format_tri, parse_tri
from kneser.homology import homology
from kneser.reconstruct import build_complex, reconstruct
from kneser.surgery import cap_boundary, crush, cut_and_cap, cut_complex
from kneser.triangulation import BOUNDARY, S4, S4_ROW, validate, validate_arrays
from kneser.vertex_enum import enumerate_vertex_solutions
from oracles import crush_walk_reference, sympy_homology, vertex_link_coordinates
from test_decomposition import _closed_corpus_files


@pytest.fixture
def row_calls(monkeypatch):
    """The names of the calls, in order, that build Gluing rows
    (`_gluing_rows`) or read raw rows (`_gluing_arrays`)."""
    calls = []
    for name in ("_gluing_rows", "_gluing_arrays"):
        real = getattr(triangulation, name)

        def counting(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(triangulation, name, counting)
    return calls


# one tetrahedron with face 0 glued to face 1: a solid torus, whose boundary
# is a torus made of the two free faces
SOLID_TORUS = [[(0, 1, (1, 2, 3, 0)), (0, 0, (3, 0, 1, 2)), None, None]]


def sphere_solutions(tri):
    out = []
    for coords in enumerate_vertex_solutions(tri):
        surface = reconstruct(tri, build_complex(tri, coords))
        if surface.connected and surface.euler_characteristic == 2:
            out.append((coords, surface.vertex_linking))
    return out


def h1_multiset(pieces):
    return sorted(
        (h.rank, h.torsion)
        for h in (homology(p, 1) for p in pieces)
        if not h.trivial
    )


def run_optimized(code: str) -> subprocess.CompletedProcess:
    """Run `code` under `python -O`, with this directory and the kneser
    sources importable."""
    here = Path(__file__).resolve().parent
    src = Path(kneser.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        cwd=str(here),
        env={**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{here}"},
    )


def swap_images(perm):
    """perm with the images of vertices 0 and 1 swapped."""
    return (perm[1], perm[0], perm[2], perm[3])


def corrupted_cut_and_cap(tri, coords):
    """cut_and_cap with the last cap's gluing (face 3, glued to the cut
    complex) given a wrong permutation in the capped arrays: it still sends
    face 3 to the same face, but is no longer the inverse of the gluing
    back."""
    real = surgery.cap_boundary

    def corrupt(cut):
        capped = real(cut)
        capped.perm[-1, 3] = S4_ROW[swap_images(S4[capped.perm[-1, 3]])]
        return capped

    surgery.cap_boundary = corrupt
    try:
        return surgery.cut_and_cap(tri, build_complex(tri, coords))
    finally:
        surgery.cap_boundary = real


def corrupted_crush(tri, coords):
    """crush with the first entry of its walked table whose walk crossed a
    deleted tet given a wrong permutation, two of its images swapped."""
    real = triangulation.GluingArrays.walked

    def corrupt(arrays, keep, hop):
        table = real(arrays, keep, hop)
        # IndexError if no walk made a wedge hop
        n = np.flatnonzero(~keep[arrays.tet[keep]].ravel())[0]
        table.perm.flat[n] = S4_ROW[swap_images(S4[table.perm.flat[n]])]
        return table

    triangulation.GluingArrays.walked = corrupt
    try:
        return surgery.crush(tri, build_complex(tri, coords))
    finally:
        triangulation.GluingArrays.walked = real


def corrupted_crush_table(tri, coords):
    """crush with slot (0, 0) of its walked table blanked in the arrays, so
    the gluing back to that slot is one-sided."""
    real = surgery.split_components

    def corrupt(table):
        for column in table:
            column[0, 0] = BOUNDARY
        return real(table)

    surgery.split_components = corrupt
    try:
        return surgery.crush(tri, build_complex(tri, coords))
    finally:
        surgery.split_components = real


def crushable_sphere(tri):
    """The first non-vertex-linking sphere vertex solution whose crush
    keeps a tetrahedron."""
    return next(
        c for c, vl in sphere_solutions(tri)
        if not vl and crush(tri, build_complex(tri, c))
    )


class TestCapBoundary:
    def test_single_tet_caps_to_sphere(self):
        ball = validate([[None] * 4], require_closed=False)
        capped = validate_arrays(cap_boundary(ball))
        assert capped.closed and capped.orientable
        assert capped.size == 5
        assert homology(capped, 1).trivial
        assert homology(capped, 0).rank == 1

    def test_closed_input_unchanged(self, bd4):
        capped = cap_boundary(bd4)
        assert all(np.array_equal(a, b) for a, b in zip(capped, bd4.arrays))

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
        proc = run_optimized(code)
        assert proc.stdout == "raised False\n", proc.stderr


class TestCutAndCap:
    def test_vertex_link_gives_two_trivial_pieces(self, bd4):
        pieces = cut_and_cap(bd4, build_complex(bd4, vertex_link_coordinates(bd4, 0)))
        assert len(pieces) == 2
        for p in pieces:
            assert p.closed and p.orientable
            assert homology(p, 1).trivial

    def test_vertex_link_always_separates(self, closed_corpus):
        for name, tri in closed_corpus.items():
            coords = vertex_link_coordinates(tri, 0)
            pieces = cut_and_cap(tri, build_complex(tri, coords))
            assert len(pieces) == 2, name

    def test_separating_count_is_one_or_two(self, small_corpus):
        for name, tri in small_corpus.items():
            for coords, _vl in sphere_solutions(tri):
                pieces = cut_and_cap(tri, build_complex(tri, coords))
                assert len(pieces) in (1, 2), name

    def test_summand_recovery(self):
        # cutting rp3 along its vertex link: a ball and rp3-minus-ball
        rp3 = corpus.rp3_two_tet()
        pieces = cut_and_cap(rp3, build_complex(rp3, vertex_link_coordinates(rp3, 0)))
        assert h1_multiset(pieces) == [(0, (2,))]
        l31 = corpus.l31_two_tet()
        pieces = cut_and_cap(l31, build_complex(l31, vertex_link_coordinates(l31, 0)))
        assert h1_multiset(pieces) == [(0, (3,))]

    def test_nonseparating_sphere(self):
        s2xs1 = corpus.s2xs1_two_tet()
        nonvl = [c for c, vl in sphere_solutions(s2xs1) if not vl]
        assert nonvl
        pieces = cut_and_cap(s2xs1, build_complex(s2xs1, nonvl[0]))
        assert len(pieces) == 1  # the sphere does not separate
        assert homology(pieces[0], 1).trivial  # S^2 x I capped twice

    def test_pieces_validate_and_match_sympy(self, bd4):
        for coords, _vl in sphere_solutions(bd4):
            for piece in cut_and_cap(bd4, build_complex(bd4, coords)):
                assert piece.closed and piece.orientable
                h = homology(piece, 1)
                assert (h.rank, h.torsion) == sympy_homology(piece, 1)

    def test_cut_complex_of_one_tet_triangulations(self):
        # the 1-tet sphere exercises faces glued to the same tetrahedron
        tri = corpus.s3_one_tet()
        for coords, _vl in sphere_solutions(tri):
            cut = cut_complex(tri, build_complex(tri, coords))
            assert cut.orientable
            pieces = cut_and_cap(tri, build_complex(tri, coords))
            assert all(homology(p, 1).trivial for p in pieces)


def malformed_complexes(tri, coords):
    """The complex of a sphere with its first disk removed, and with the
    weight of edge orbit 0 one too large."""
    complex_ = build_complex(tri, coords)
    weights = complex_.weights_per_edge
    return (
        dataclasses.replace(complex_, disks=complex_.disks[1:]),
        dataclasses.replace(complex_, weights_per_edge=(weights[0] + 1, *weights[1:])),
    )


# what cut_complex raises on malformed_complexes(bd4, crushable_sphere(bd4)):
# the first disk is a quad in tet 0 whose boundary arcs then bound one side
# each in its wedges; the heavier edge shifts the segments counted from the
# far end of edge 0 in tet 0, and the least unmatched key is named
MALFORMED_MESSAGES = (
    "cell 1-cell ((0, ('wedge', 0)), ('arc', (0, 3, 1), (0, 0))) bounds 1 sides",
    "cell 1-cell ((0, ('wedge', 1)), ('seg', 0, 1)) bounds 1 sides",
)


class TestCutComplexPairing:
    """cut_complex pairs every cone side with exactly one other within its
    cell, or names the least 1-cell that has another number of sides."""

    def test_malformed_complexes_raise(self, bd4):
        for complex_, message in zip(
            malformed_complexes(bd4, crushable_sphere(bd4)), MALFORMED_MESSAGES
        ):
            with pytest.raises(ConsistencyCheckFailed) as info:
                cut_complex(bd4, complex_)
            assert str(info.value) == message

    def test_checks_survive_optimize_flag(self):
        code = (
            "from kneser import corpus\n"
            "from kneser.errors import ConsistencyCheckFailed\n"
            "from kneser.surgery import cut_complex\n"
            "from test_surgery import crushable_sphere, malformed_complexes\n"
            "bd4 = corpus.bd4_simplex()\n"
            "for complex_ in malformed_complexes(bd4, crushable_sphere(bd4)):\n"
            "    try:\n"
            "        cut_complex(bd4, complex_)\n"
            "    except ConsistencyCheckFailed as exc:\n"
            "        print(exc, __debug__)\n"
        )
        proc = run_optimized(code)
        assert proc.stdout == "".join(f"{m} False\n" for m in MALFORMED_MESSAGES), proc.stderr


class TestCrush:
    def test_vertex_linking_rejected(self, bd4):
        with pytest.raises(VertexLinkingRejected):
            crush(bd4, build_complex(bd4, vertex_link_coordinates(bd4, 0)))

    def test_bd4_edge_link_crush(self, bd4):
        nonvl = [c for c, vl in sphere_solutions(bd4) if not vl]
        assert nonvl
        for coords in nonvl:
            pieces = crush(bd4, build_complex(bd4, coords))
            assert sum(p.size for p in pieces) < 5
            for p in pieces:
                assert p.closed and p.orientable
                assert homology(p, 1).trivial

    def test_strictly_decreasing(self, closed_corpus):
        for name, tri in closed_corpus.items():
            for coords, vl in sphere_solutions(tri):
                if vl:
                    continue
                pieces = crush(tri, build_complex(tri, coords))
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
                complex_ = build_complex(tri, coords)
                crushed = h1_multiset(crush(tri, complex_))
                reference = h1_multiset(cut_and_cap(tri, complex_))
                assert crushed == reference, (name, coords)

    def test_known_degenerate_losses(self):
        """Crushing may lose L(3,1)- or S^2xS^1-type summands entirely;
        the plain cut never does.  These cases stay out of the ledger
        corpus and document the crush side effect."""
        l31 = corpus.l31_two_tet()
        nonvl = [c for c, vl in sphere_solutions(l31) if not vl]
        complex_ = build_complex(l31, nonvl[0])
        assert crush(l31, complex_) == []  # both tets carry quads
        assert h1_multiset(cut_and_cap(l31, complex_)) == [(0, (3,))]

        s2xs1 = corpus.s2xs1_two_tet()
        nonvl = [c for c, vl in sphere_solutions(s2xs1) if not vl]
        assert crush(s2xs1, build_complex(s2xs1, nonvl[0])) == []


# sha256 of the piece gluing tables that crush and cut_and_cap give on every
# non-vertex-linking sphere vertex solution of PINNED_INPUTS, recorded when
# cut_and_cap still split the cut complex before capping each component
PINNED_INPUTS = ("bd4_simplex", "sum_bd4_bd4", "sum_bd4_rp3", "sum_s3_rp3")
PIECE_TABLES_SHA256 = (
    "b023256e80e3bb8146713a282c611c6316735b07a019de295cbeb8ac79bdd6eb"
)


# sha256 of the tet, face and perm arrays (int64 bytes, in that order) of
# cut_complex on each of the 10 spheres that one pass of the decompose-sums
# benchmark (decompose --oracle-check on its four connected sums) crushes,
# recorded while cut_complex still built its cones from nested tuples
BENCHMARK_CUTS = ("sum_bd4_bd4.tri", "sum_s3_rp3.tri", "sum_bd4_rp3.tri", "rp3#rp3")
BENCHMARK_CUTS_SHA256 = (
    "f5c1d988e163c8b7f58a56b4eda048b91495ba9a9aca93fa7e0226004561c789"
)


def piece_rows(piece):
    return tuple(
        tuple(None if g is None else (g.tet, g.face, tuple(g.perm)) for g in row)
        for row in piece.gluings
    )


class TestWalk:
    def test_matches_tuple_walk(self, closed_corpus, monkeypatch):
        """The table that crush walks on arrays, before the split, is the
        tuple walk's, on every non-vertex-linking sphere vertex solution of
        the closed corpus and of rp3#rp3."""
        rp3 = corpus.rp3_octahedral()
        inputs = {**closed_corpus, "rp3_rp3": connected_sum(rp3, rp3)}
        tables = []
        real = surgery.split_components

        def capture(table):
            tables.append(table)
            return real(table)

        monkeypatch.setattr(surgery, "split_components", capture)
        checked = 0
        for name, tri in inputs.items():
            for coords, vl in sphere_solutions(tri):
                if vl:
                    continue
                tables.clear()
                crush(tri, build_complex(tri, coords))
                (table,) = tables
                assert triangulation._gluing_rows(table) == crush_walk_reference(tri, coords), name
                checked += 1
        assert checked == 171


class TestValidateOnce:
    def test_each_table_validated_once(self, closed_corpus, validated_rows):
        """crush validates only its pieces; cut_and_cap validates the cut
        complex and its capped pieces, so each cut row twice in all."""
        tri = closed_corpus["sum_bd4_rp3"]
        nonvl = [c for c, vl in sphere_solutions(tri) if not vl]
        assert nonvl
        for coords in nonvl:
            complex_ = build_complex(tri, coords)
            validated_rows.clear()
            pieces = crush(tri, complex_)
            assert sum(validated_rows) == sum(p.size for p in pieces)

            cut_size = cut_complex(tri, complex_).size
            validated_rows.clear()
            pieces = cut_and_cap(tri, complex_)
            assert sum(validated_rows) == cut_size + sum(p.size for p in pieces)

    def test_cut_and_cap_builds_no_rows(self, closed_corpus, row_calls):
        """cut_and_cap hands arrays from the cut to the caps to the split:
        it reads no raw rows and builds no Gluing rows."""
        tri = closed_corpus["sum_bd4_rp3"]
        nonvl = [c for c, vl in sphere_solutions(tri) if not vl]
        assert nonvl
        for coords in nonvl:
            complex_ = build_complex(tri, coords)
            row_calls.clear()
            assert cut_and_cap(tri, complex_)
            assert row_calls == []

    def test_pipeline_builds_no_rows(self, row_calls, tmp_path):
        """No step of the package builds Gluing rows: not a decompose pass
        with the oracle over the benchmark's four sums, not connected_sum
        and format_tri, not `kneser generate`.  The inputs are built here,
        so that no row read elsewhere is cached on them."""
        files = dict(CORPUS_FILES)
        names = ("sum_bd4_bd4.tri", "sum_s3_rp3.tri", "sum_bd4_rp3.tri")
        inputs = [parse_tri(files[name]()) for name in names]
        rp3 = corpus.rp3_octahedral()
        # past parsing, nothing reads raw rows either
        row_calls.clear()
        inputs.append(connected_sum(rp3, rp3))
        for tri in inputs:
            assert decomposition.decompose(tri, oracle_check=True).oracle is not None
        assert format_tri(connected_sum(rp3, rp3)).startswith("tri 1\n")
        assert row_calls == []
        # the corpus constructors validate raw rows
        assert cmd_generate(str(tmp_path)).exit_code == 0
        assert "_gluing_rows" not in row_calls

    def test_piece_tables_pinned(self, closed_corpus):
        out = []
        for name in PINNED_INPUTS:
            tri = closed_corpus[name]
            for coords, vl in sphere_solutions(tri):
                if vl:
                    continue
                complex_ = build_complex(tri, coords)
                out.append((
                    name,
                    tuple(int(x) for x in coords),
                    [piece_rows(p) for p in crush(tri, complex_)],
                    [piece_rows(p) for p in cut_and_cap(tri, complex_)],
                ))
        assert len(out) == 80
        digest = hashlib.sha256(repr(out).encode()).hexdigest()
        assert digest == PIECE_TABLES_SHA256


class TestBenchmarkAudit:
    def test_cut_complexes_pinned(self, monkeypatch):
        audited = []
        real = decomposition.cut_and_cap

        def record(tri, complex_):
            audited.append((tri, complex_))
            return real(tri, complex_)

        monkeypatch.setattr(decomposition, "cut_and_cap", record)
        files = _closed_corpus_files()
        for name in BENCHMARK_CUTS:
            decomposition.decompose(files[name], oracle_check=True)
        assert len(audited) == 10
        digest = hashlib.sha256()
        for tri, complex_ in audited:
            for column in cut_complex(tri, complex_).arrays:
                digest.update(np.ascontiguousarray(column, dtype=np.int64).tobytes())
        assert digest.hexdigest() == BENCHMARK_CUTS_SHA256


class TestCorruptedTablesRaise:
    def test_corrupted_cap_gluing_raises(self, bd4):
        with pytest.raises(KneserError):
            corrupted_cut_and_cap(bd4, vertex_link_coordinates(bd4, 0))

    def test_corrupted_crush_walk_raises(self, bd4):
        with pytest.raises(InvalidAfterCrush):
            corrupted_crush(bd4, crushable_sphere(bd4))

    def test_corrupted_crush_table_raises(self, bd4):
        with pytest.raises(InvalidAfterCrush, match="is not involutive"):
            corrupted_crush_table(bd4, crushable_sphere(bd4))

    def test_checks_survive_optimize_flag(self):
        code = (
            "from kneser import corpus\n"
            "from kneser.errors import InvalidAfterCrush, KneserError\n"
            "from oracles import vertex_link_coordinates\n"
            "from test_surgery import (\n"
            "    corrupted_crush, corrupted_crush_table, corrupted_cut_and_cap,\n"
            "    crushable_sphere,\n"
            ")\n"
            "bd4 = corpus.bd4_simplex()\n"
            "try:\n"
            "    corrupted_cut_and_cap(bd4, vertex_link_coordinates(bd4, 0))\n"
            "except KneserError:\n"
            "    print('cap raised', __debug__)\n"
            "try:\n"
            "    corrupted_crush(bd4, crushable_sphere(bd4))\n"
            "except InvalidAfterCrush:\n"
            "    print('crush raised', __debug__)\n"
            "try:\n"
            "    corrupted_crush_table(bd4, crushable_sphere(bd4))\n"
            "except InvalidAfterCrush as exc:\n"
            "    print('table raised', 'is not involutive' in str(exc), __debug__)\n"
        )
        proc = run_optimized(code)
        assert proc.stdout == (
            "cap raised False\ncrush raised False\ntable raised True False\n"
        ), proc.stderr

    def test_corrupted_face_representative_survives_optimize_flag(self):
        """A face slot that is not its orbit's representative must glue to
        it; a skeleton whose face_first names another orbit's slot makes
        build_complex raise, with asserts off too."""
        code = (
            "import dataclasses\n"
            "import numpy as np\n"
            "from kneser import corpus, reconstruct\n"
            "from kneser.errors import ConsistencyCheckFailed\n"
            "from kneser.triangulation import skeleton\n"
            "from oracles import vertex_link_coordinates\n"
            "def corrupted(tri):\n"
            "    sk = skeleton(tri)\n"
            "    return dataclasses.replace(sk, face_first=np.roll(sk.face_first, 1))\n"
            "reconstruct.skeleton = corrupted\n"
            "bd4 = corpus.bd4_simplex()\n"
            "try:\n"
            "    reconstruct.build_complex(bd4, vertex_link_coordinates(bd4, 0))\n"
            "except ConsistencyCheckFailed as exc:\n"
            "    print('raised', 'representative' in str(exc), __debug__)\n"
        )
        proc = run_optimized(code)
        assert proc.stdout == "raised True False\n", proc.stderr
