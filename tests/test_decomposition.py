import sys

import pytest

from kneser import corpus, decomposition
from kneser.cli import CORPUS_FILES
from kneser.decomposition import (
    HomologyLedger,
    _least_candidate,
    certify_weakly_irreducible,
    connected_sum,
    decompose,
    find_essential_sphere,
    sphere_witnesses,
)
from kneser.errors import BudgetExceeded, NonOrientable, NotClosed
from kneser.fileio import parse_tri
from kneser.homology import AbelianInvariants, homology
from kneser.pl_area import pl_area
from kneser.reconstruct import build_complex, reconstruct
from kneser.triangulation import validate
from kneser.vertex_enum import enumerate_vertex_solutions
from oracles import (
    brute_force_solutions,
    disjoint_union,
    least_pl_area_reference,
    reconstruct_sphere_witnesses,
    sympy_homology,
)
from test_census_sweep import closed_two_tet


class TestConnectedSum:
    def test_sizes(self):
        bd4 = corpus.bd4_simplex()
        assert connected_sum(bd4, bd4).size == 8

    def test_valid_closed_orientable(self, sum_pairs):
        for a, b in sum_pairs.values():
            out = connected_sum(a, b)
            assert out.closed and out.orientable
            assert out.size == a.size + b.size - 2

    def test_h1_additivity_against_sympy(self, sum_pairs):
        for a, b in sum_pairs.values():
            out = connected_sum(a, b)
            ha, hb = homology(a, 1), homology(b, 1)
            h = homology(out, 1)
            assert h.rank == ha.rank + hb.rank
            assert sorted(h.torsion) == sorted(ha.torsion + hb.torsion)
            assert (h.rank, h.torsion) == sympy_homology(out, 1)

    def test_nonembedded_summand_rejected(self):
        rp3_small = corpus.rp3_two_tet()
        with pytest.raises(ValueError, match="not embedded"):
            connected_sum(rp3_small, rp3_small)


class TestCertify:
    def test_rp3_and_s3_one_tet_certify(self):
        for tri in (corpus.rp3_two_tet(), corpus.s3_one_tet()):
            cert = certify_weakly_irreducible(tri)
            assert cert.certified
            assert cert.inspected == len(enumerate_vertex_solutions(tri))
            assert cert.witnesses == ()

    def test_quad_sphere_blocks_certificate(self):
        for tri in (
            corpus.bd4_simplex(),
            corpus.s3_two_tet(),
            connected_sum(corpus.bd4_simplex(), corpus.bd4_simplex()),
        ):
            cert = certify_weakly_irreducible(tri)
            assert not cert.certified
            for coords in cert.witnesses:
                surface = reconstruct(tri, build_complex(tri, coords))
                assert surface.connected
                assert surface.euler_characteristic == 2
                assert not surface.vertex_linking

    def test_certified_iff_no_witness(self, closed_corpus):
        for tri in closed_corpus.values():
            cert = certify_weakly_irreducible(tri)
            witnesses = sphere_witnesses(tri, enumerate_vertex_solutions(tri))
            assert cert.certified == (not witnesses)

    def test_budget_propagates(self, bd4):
        with pytest.raises(BudgetExceeded):
            certify_weakly_irreducible(bd4, budget=2)


def _closed_corpus_files():
    """Every closed `.tri` the corpus generator writes, and rp3#rp3."""
    out = {}
    for name, make in CORPUS_FILES:
        if name.endswith(".tri"):
            tri = parse_tri(make(), require_closed=False)
            if tri.closed:
                out[name] = tri
    rp3 = corpus.rp3_octahedral()
    out["rp3#rp3"] = connected_sum(rp3, rp3)
    return out


class TestLinearWitnessRule:
    """A vertex solution is a connected non-vertex-linking sphere exactly
    when it has a quad and Euler characteristic 2; reconstructing its disk
    complex must agree on every vertex ray."""

    def test_agrees_with_reconstruction_on_corpus(self):
        files = _closed_corpus_files()
        assert len(files) == 11
        for name, tri in files.items():
            solutions = enumerate_vertex_solutions(tri)
            want = reconstruct_sphere_witnesses(tri, solutions)
            assert sphere_witnesses(tri, solutions) == want, name

    def test_agrees_with_reconstruction_on_census(self):
        tables = closed_two_tet()
        rays = 0
        for tri in tables:
            solutions = enumerate_vertex_solutions(tri)
            want = reconstruct_sphere_witnesses(tri, solutions)
            assert sphere_witnesses(tri, solutions) == want, tri.gluings
            rays += len(solutions)
        assert (len(tables), rays) == (5088, 17808)

    def test_least_weight_shortcut_keeps_the_choice(self):
        # PL area compares weight first, so pl_area on the least-weight
        # witnesses alone must pick what the loop over all of them picks
        pieces = list(_closed_corpus_files().values()) + list(closed_two_tet()[::7])
        compared = 0
        for tri in pieces:
            witnesses = sphere_witnesses(tri, enumerate_vertex_solutions(tri))
            if not witnesses:
                continue
            got = _least_candidate(tri, tuple(witnesses))
            assert got == least_pl_area_reference(tri, witnesses), tri.gluings
            compared += 1
        assert compared >= 20


class TestFindEssentialSphere:
    def test_none_on_certified(self):
        assert find_essential_sphere(corpus.rp3_two_tet()) is None

    def test_sum_yields_quad_sphere(self):
        tri = connected_sum(corpus.bd4_simplex(), corpus.bd4_simplex())
        found = find_essential_sphere(tri)
        assert found is not None
        coords, area = found
        surface = reconstruct(tri, build_complex(tri, coords))
        assert surface.connected and surface.euler_characteristic == 2
        assert not surface.vertex_linking
        assert any(coords[7 * i + 4 + j] for i in range(tri.size) for j in range(3))

    def test_lexicographic_selection(self, small_corpus):
        for name, tri in small_corpus.items():
            found = find_essential_sphere(tri)
            witnesses = sphere_witnesses(tri, enumerate_vertex_solutions(tri))
            if found is None:
                assert not witnesses, name
                continue
            coords, area = found
            assert coords in witnesses
            for other in witnesses:
                other_area = pl_area(tri, other)
                assert not other_area.less_than(area), name
                if other_area.tol_equal(area):
                    assert coords <= other

    def test_minimal_against_brute_force(self, small_corpus):
        """The selected sphere is minimal among ALL admissible solutions of
        weight up to the selection's weight (coordinates <= 4), not merely
        among vertex solutions."""
        for name, tri in small_corpus.items():
            found = find_essential_sphere(tri)
            if found is None:
                continue
            coords, area = found
            pool = brute_force_solutions(tri, cmax=4, max_weight=area.weight)
            for other in pool:
                if not any(other):
                    continue
                surface = reconstruct(tri, build_complex(tri, other))
                if not (
                    surface.connected
                    and surface.euler_characteristic == 2
                    and not surface.vertex_linking
                ):
                    continue
                other_area = pl_area(tri, other)
                assert not other_area.less_than(area), (name, other)


class TestDecompose:
    def test_bd4(self, bd4):
        report = decompose(bd4, oracle_check=True)
        assert report.crushes <= bd4.size
        assert all(p.certificate.certified for p in report.pieces)
        assert all(p.h1.trivial for p in report.pieces)
        assert report.ledger.balanced
        assert report.oracle.agreed

    def test_one_complex_per_crush(self, closed_corpus, monkeypatch):
        """Candidates are ranked off their coordinates; only the sphere
        that is crushed gets a complex, shared by crush and cut_and_cap."""
        built = []

        def counting(tri, coords):
            built.append(coords)
            return build_complex(tri, coords)

        monkeypatch.setattr(decomposition, "build_complex", counting)
        rp3 = corpus.rp3_octahedral()
        for tri in (closed_corpus["sum_bd4_rp3"], connected_sum(rp3, rp3)):
            built.clear()
            report = decompose(tri, oracle_check=True)
            assert len(built) == report.crushes > 0
            assert built == [s.coordinates for s in report.spheres]

    def test_one_edge_weight_pass_per_piece_and_crush(self, monkeypatch):
        """`sphere_witnesses` weighs all of a piece's rays in one batched
        pass, `_least_candidate` all of its candidates in one more, and no
        candidate is weighed on its own."""
        from kneser import normal

        calls = []

        def counted(real):
            def wrapper(*args):
                # the first caller outside `normal`, whose one-row kernels,
                # `edge_weight_rows` and `euler_rows` call the array kernel
                frame = sys._getframe(1)
                while frame.f_code.co_filename == normal.__file__:
                    frame = frame.f_back
                calls.append((real.__name__, frame.f_code.co_name))
                return real(*args)
            return wrapper

        for real in (normal._edge_weights, normal.weight):
            wrapper = counted(real)
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] != "kneser":
                    continue
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, wrapper)
        report = decompose(parse_tri(dict(CORPUS_FILES)["sum_bd4_rp3.tri"]()), oracle_check=True)
        assert report.crushes > 0 and report.enumerations > report.crushes
        assert calls.count(("_edge_weights", "sphere_witnesses")) == report.enumerations
        assert calls.count(("_edge_weights", "_least_candidate")) == report.crushes
        assert not [c for c in calls if c[0] == "weight" and c[1] in (
            "sphere_witnesses", "_least_candidate"
        )]

    def test_sums(self, sum_pairs):
        for name, (a, b) in sum_pairs.items():
            tri = connected_sum(a, b)
            report = decompose(tri, oracle_check=True)
            assert report.crushes <= tri.size, name
            assert all(p.certificate.certified for p in report.pieces), name
            assert report.ledger.balanced, name
            assert report.oracle.agreed, name
            assert report.c1 == report.c3 ** 2
            for s in report.spheres:
                assert s.diameter_bound_ok
                assert s.diameter <= report.c1

    def test_rp3_summand_survives(self):
        tri = connected_sum(corpus.bd4_simplex(), corpus.rp3_octahedral())
        report = decompose(tri, oracle_check=True)
        torsions = [p.h1 for p in report.pieces if not p.h1.trivial]
        assert len(torsions) == 1
        assert torsions[0].torsion == (2,)
        assert report.ledger.balanced

    def test_three_summands(self):
        double = connected_sum(corpus.bd4_simplex(), corpus.s3_two_tet())
        triple = connected_sum(double, corpus.rp3_octahedral())
        assert homology(triple, 1).torsion == (2,)
        report = decompose(triple, oracle_check=True)
        assert report.crushes <= triple.size
        assert report.ledger.balanced
        assert report.oracle.agreed
        assert all(p.certificate.certified for p in report.pieces)

    def test_disconnected_input(self, bd4):
        rp3 = corpus.rp3_octahedral()
        both = disjoint_union(bd4, rp3)
        report = decompose(both)
        assert len(report.ledger.input_h1) == 2
        assert report.ledger.balanced

    def test_connected_input_is_its_own_component(
        self, benchmark_sums, validated_rows
    ):
        """A validated connected input is not validated again: on the four
        connected sums of the decompose benchmark only the pieces of crush
        and of cut-and-cap are validated, 30 tables; the cut itself is
        checked only for structure and involution."""
        counts = []
        for tri in benchmark_sums:
            validated_rows.clear()
            report = decompose(tri, oracle_check=True)
            assert report.crushes and report.ledger.balanced
            counts.append(len(validated_rows))
        assert counts == [8, 6, 9, 7]

    def test_open_or_nonorientable_input_raises(self):
        ball = validate([[None] * 4], require_closed=False)
        with pytest.raises(NotClosed):
            decompose(ball)
        # a closed non-orientable 2-tet table
        table = [
            [(1, 0, (0, 1, 3, 2)), (1, 1, (0, 1, 3, 2)),
             (1, 2, (1, 3, 2, 0)), (1, 3, (2, 0, 1, 3))],
            [(0, 0, (0, 1, 3, 2)), (0, 1, (0, 1, 3, 2)),
             (0, 2, (3, 0, 2, 1)), (0, 3, (1, 2, 0, 3))],
        ]
        tri = validate(table, require_orientable=False)
        assert tri.closed and not tri.orientable
        with pytest.raises(NonOrientable):
            decompose(tri)

    def test_deterministic(self, sum_pairs):
        a, b = sum_pairs["bd4+rp3"]
        tri = connected_sum(a, b)
        r1 = decompose(tri)
        r2 = decompose(tri)
        assert r1 == r2

    def test_sphere_records_live_in_pieces(self, sum_pairs):
        a, b = sum_pairs["bd4+bd4"]
        report = decompose(connected_sum(a, b))
        for s in report.spheres:
            assert len(s.coordinates) % 7 == 0
            assert s.support_size >= 1


def _z(*torsion: int, rank: int = 0) -> AbelianInvariants:
    return AbelianInvariants(rank=rank, torsion=torsion)


class TestHomologyLedger:
    """H_1 of a connected sum is the direct sum of the summands' H_1, so
    the ledger compares direct sums, not groups one by one."""

    @pytest.mark.parametrize(
        "input_h1, pieces_h1, balanced",
        [
            ((_z(2, 2),), (_z(2), _z(2)), True),
            ((_z(6),), (_z(2), _z(3)), True),
            ((_z(rank=1),), (_z(), _z(rank=1)), True),
            ((_z(4),), (_z(2), _z(2)), False),
            ((_z(3),), (), False),
            ((_z(rank=1),), (_z(),), False),
        ],
    )
    def test_direct_sums(self, input_h1, pieces_h1, balanced):
        ledger = HomologyLedger(input_h1=input_h1, pieces_h1=pieces_h1)
        assert ledger.balanced is balanced

    def test_summand_losses_still_reported(self):
        l31 = decompose(corpus.l31_two_tet(), oracle_check=True)
        assert not l31.ledger.balanced
        assert not l31.oracle.agreed
        assert not decompose(corpus.s2xs1_two_tet()).ledger.balanced
