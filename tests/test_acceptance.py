"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdicts.
"""
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from kneser import corpus
from kneser.collapse import collapse_extract
from kneser.decomposition import connected_sum, decompose, find_essential_sphere
from kneser.pl_area import MIDPOINT_ARC, pl_area, verify_diameter_bound
from kneser.projection import (
    ProjectionConfig,
    TriangulatedPatch,
    bad_set_volume,
    constants,
    nu0_exact,
)
from kneser.reconstruct import build_complex, reconstruct
from kneser.vertex_enum import enumerate_vertex_solutions
from oracles import brute_force_solutions, shell_quadrature_k

from test_collapse import two_spheres_with_band


def verdict(number, name, ok, elapsed, limit):
    flag = "PASS" if ok else "FAIL"
    print(
        f"[criterion {number}] {flag} {name} "
        f"({elapsed:.2f}s, limit {limit:.0f}s)"
    )
    assert ok, f"criterion {number}: {name}"
    assert elapsed < limit, f"criterion {number} overran: {elapsed:.1f}s"


def corpus_patches():
    return {
        "sphere_small": corpus.sphere_patch(0.05, 1),
        "sphere_large": corpus.sphere_patch(0.08, 1),
        "square_center": corpus.tilted_square_patch(
            [0.0, 0.0, 0.05], [1.0, 1.0, 1.0], 0.03
        ),
        "square_tilted": corpus.tilted_square_patch(
            [0.02, -0.01, 0.03], [1.0, -2.0, 0.5], 0.04
        ),
        "corner": corpus.tilted_square_patch(
            0.55 * corpus.regular_tetrahedron()[0],
            corpus.regular_tetrahedron()[0],
            0.01,
        ),
    }


def test_criterion_1_constants():
    """nu0 is exactly 50 by rational arithmetic; K matches independent
    quadrature of the radial integral within 1%."""
    start = time.time()
    config = ProjectionConfig()
    c = constants(config)
    ok = nu0_exact() == Fraction(50)
    ok = ok and c.nu0 == 50
    quadrature = shell_quadrature_k(config.r)
    ok = ok and abs(c.k_constant - quadrature) <= 0.01 * c.k_constant
    ok = ok and c.k_constant == pytest.approx(32 * math.pi * config.r ** 3)
    verdict(1, "nu0 == 50 and K within 1% of quadrature", ok, time.time() - start, 1)


def test_criterion_2_bad_set_bound():
    """Bad-set Monte Carlo at nu = 50 with 10^4 samples passes the one-sided
    3-sigma test on five corpus patches; projected_area checks the
    invariants of its closed form on every (centre, triangle) pair."""
    start = time.time()
    ok = True
    for name, tris in corpus_patches().items():
        patch_start = time.time()
        config = ProjectionConfig(seed=7, samples=10_000)
        est = bad_set_volume(config, TriangulatedPatch(tris), 50.0)
        took = time.time() - patch_start
        ok = ok and est.passed and took < 60
        print(
            f"    patch {name}: estimate {est.estimate:.3e} "
            f"bound {est.bound:.3e} ({took:.1f}s)"
        )
    verdict(2, "bad-set bound at nu=50, 5 patches", ok, time.time() - start, 300)


def test_criterion_3_diameter_bound(closed_corpus):
    """diam <= wt^2 with exact integers for every vertex solution of every
    corpus triangulation with at most 12 tetrahedra."""
    start = time.time()
    ok = True
    checked = 0
    for name, tri in closed_corpus.items():
        assert tri.size <= 12
        for coords in enumerate_vertex_solutions(tri):
            check = verify_diameter_bound(tri, coords)
            ok = ok and check.passed
            checked += 1
    print(f"    {checked} surfaces checked")
    verdict(3, "diameter bound, zero failures", ok and checked > 50,
            time.time() - start, 300)


def test_criterion_4_decomposition(sum_pairs):
    """decompose(connected_sum(A, B)) terminates within t0 crushes, all
    pieces certified, ledger balanced, crush matches cut-and-cap on every
    crush performed; includes a summand with H1 = Z/2."""
    start = time.time()
    ok = True
    saw_z2 = False
    for name, (a, b) in sum_pairs.items():
        tri = connected_sum(a, b)
        report = decompose(tri, oracle_check=True)
        ok = ok and report.crushes <= tri.size
        ok = ok and all(p.certificate.certified for p in report.pieces)
        ok = ok and report.ledger.balanced
        ok = ok and report.oracle is not None and report.oracle.agreed
        if any(p.h1.torsion == (2,) for p in report.pieces):
            saw_z2 = True
        print(
            f"    {name}: {report.crushes} crushes, "
            f"{len(report.pieces)} pieces, balanced={report.ledger.balanced}"
        )
    verdict(4, "greedy decomposition with balanced ledgers", ok and saw_z2,
            time.time() - start, 600)


def test_criterion_5_minimizer_sanity(small_corpus):
    """The selected essential sphere is lexicographically least among ALL
    non-vertex-linking sphere solutions with coordinates <= 4 found by brute
    force (weight capped at the selection's weight: heavier solutions cannot
    win a lexicographic comparison).  Certified pieces select nothing, so
    nothing is asserted there; non-vertex spheres such as the double of a
    one-sided surface may well exist in them."""
    start = time.time()
    ok = True
    for name, tri in small_corpus.items():
        found = find_essential_sphere(tri)
        if found is None:
            print(f"    {name}: certified, nothing selected")
            continue
        pool = brute_force_solutions(tri, cmax=4, max_weight=found[1].weight)
        candidates = []
        for coords in pool:
            if not any(coords):
                continue
            surface = reconstruct(tri, build_complex(tri, coords))
            if (
                surface.connected
                and surface.euler_characteristic == 2
                and not surface.vertex_linking
            ):
                candidates.append(coords)
        coords, area = found
        beaten = [
            other
            for other in candidates
            if pl_area(tri, other).less_than(area)
        ]
        ok = ok and not beaten
        ties = [
            other
            for other in candidates
            if pl_area(tri, other).tol_equal(area) and other < coords
        ]
        ok = ok and not ties
        print(
            f"    {name}: selected wt={area.weight}, "
            f"{len(candidates)} brute-force candidates, none better"
        )
    verdict(5, "lexicographic minimizer vs brute force", ok,
            time.time() - start, 600)


def test_criterion_6_reconstruction(closed_corpus, bd4):
    """Cell-count chi equals the coordinate formula everywhere; the vertex
    links of the 4-simplex boundary are (4, 6, 4) spheres of PL area
    (4, 12 arccosh(3/2)) within 1e-9."""
    from kneser.normal import euler_from_coordinates
    from oracles import vertex_link_coordinates
    from kneser.triangulation import skeleton

    start = time.time()
    ok = True
    for tri in closed_corpus.values():
        for coords in enumerate_vertex_solutions(tri):
            # internal cross-checks raise
            surface = reconstruct(tri, build_complex(tri, coords))
            ok = ok and surface.euler_characteristic == euler_from_coordinates(
                tri, coords
            )
    for orbit in range(skeleton(bd4).vertex_count):
        link = vertex_link_coordinates(bd4, orbit)
        surface = reconstruct(bd4, build_complex(bd4, link))
        ok = ok and (
            surface.vertex_count, surface.arc_count, surface.disk_count
        ) == (4, 6, 4)
        area = pl_area(bd4, link)
        ok = ok and area.weight == 4
        ok = ok and abs(area.length - 12 * MIDPOINT_ARC) <= 1e-9
    verdict(6, "exact reconstruction and vertex-link areas", ok,
            time.time() - start, 300)


def test_criterion_7_cli_determinism(tmp_path):
    """Every CLI command is byte-identical across runs and across
    KNESER_THREADS settings."""
    start = time.time()
    outdir = tmp_path / "corpus"

    def run_cli(args, threads):
        env = dict(os.environ)
        env["KNESER_THREADS"] = str(threads)
        return subprocess.run(
            [sys.executable, "-m", "kneser.cli", *args],
            capture_output=True,
            env=env,
            cwd=str(Path(__file__).resolve().parent.parent),
        )

    commands = [
        ["generate", str(outdir)],
        ["enumerate", str(outdir / "bd4simplex.tri"), "--pl-area", "--verify-diam"],
        ["decompose", str(outdir / "sum_bd4_rp3.tri"), "--oracle-check"],
        [
            "montecarlo", str(outdir / "patch_square_tilted.patch"),
            "--samples", "500", "--seed", "11", "--sweep", "20:60:3",
        ],
    ]
    ok = True
    for args in commands:
        runs = [run_cli(args, threads) for threads in (1, 1, 3)]
        ok = ok and all(r.returncode == runs[0].returncode for r in runs)
        ok = ok and all(r.stdout == runs[0].stdout for r in runs)
        ok = ok and runs[0].stdout.strip() != b""
        json.loads(runs[0].stdout)
    verdict(7, "CLI byte-determinism across runs and thread counts", ok,
            time.time() - start, 300)


def test_criterion_8_collapse_accounting():
    """The hand-built two-sphere instance collapses to exactly two
    generators whose counts sum to the nondegenerate triangle count."""
    start = time.time()
    triangles, image = two_spheres_with_band()
    generators = collapse_extract(triangles, image)
    nondegenerate = sum(1 for img in image if img is not None)
    ok = len(generators) == 2
    ok = ok and sum(g.count for g in generators) == nondegenerate
    verdict(8, "collapse yields 2 generators with exact counts", ok,
            time.time() - start, 60)
