import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import kneser
from kneser import corpus
from kneser.errors import (
    CenterHit,
    CenterOnSurface,
    JacobianBoundExceeded,
    SampleBudgetExhausted,
    ZeroArea,
)
from kneser.projection import (
    DEFAULT_R,
    INRADIUS,
    ProjectionConfig,
    TriangulatedPatch,
    bad_set_volume,
    boundary_projected_area,
    constants,
    estimate_from_ratios,
    find_good_center,
    nu0_exact,
    projected_area,
    projection_ratios,
    radial_project,
    simplex_planes,
    triangle_distances,
)
from kneser.rng import ball_samples, philox2x32
from oracles import (
    _integrate_jacobian,
    _subdivide,
    ball_samples_reference,
    boundary_project,
    polygon_projected_area,
    projected_area_reference,
    quadrature_projected_area,
    shell_quadrature_k,
    solid_angle_mp,
    triangle_distances_reference,
)

CFG = ProjectionConfig(seed=7, samples=400)


def corner_patch(half=0.01):
    v0 = corpus.regular_tetrahedron()[0]
    return TriangulatedPatch(
        corpus.tilted_square_patch(0.55 * v0, v0, half, refine=1)
    )


class TestConstants:
    def test_nu0_exactly_fifty(self):
        assert nu0_exact() == 50
        assert constants(CFG).nu0 == 50
        # independent of r
        assert constants(ProjectionConfig(r=DEFAULT_R / 4)).nu0 == 50

    def test_default_r(self):
        assert DEFAULT_R == pytest.approx(1 / (6 * math.sqrt(6)), abs=1e-15)
        c = constants(CFG)
        r3 = DEFAULT_R ** 3
        assert c.k_constant == pytest.approx(32 * math.pi * r3, rel=1e-14)
        assert c.ball_volume == pytest.approx(4 / 3 * math.pi * r3, rel=1e-14)
        # ballpark magnitudes (~3.167e-2 and ~1.3195e-3)
        assert c.k_constant == pytest.approx(3.167e-2, rel=1e-3)
        assert c.ball_volume == pytest.approx(1.3195e-3, rel=1e-3)

    def test_k_against_quadrature(self):
        c = constants(CFG)
        assert c.k_constant == pytest.approx(shell_quadrature_k(CFG.r), rel=0.01)

    def test_k_scales_cubically(self):
        k1 = constants(ProjectionConfig(r=DEFAULT_R / 2)).k_constant
        k2 = constants(CFG).k_constant
        assert k2 == pytest.approx(8 * k1, rel=1e-12)

    def test_r_validation(self):
        with pytest.raises(ValueError):
            ProjectionConfig(r=INRADIUS)  # B(0, 3r) would poke out
        with pytest.raises(ValueError):
            ProjectionConfig(samples=0)

    def test_ball_inside_simplex(self):
        # B subset B_u subset sigma0 for all u in B
        normals, offsets = simplex_planes()
        for u in ball_samples(3, 0, 200, CFG.r):
            margin = offsets - normals @ u
            assert np.all(margin >= 2 * CFG.r - 1e-12)


class TestRadialProjection:
    def test_fixed_on_boundary_sphere(self):
        u = np.array([0.0, 0.0, CFG.r / 3])
        x = u + np.array([2 * CFG.r, 0, 0])
        assert radial_project(CFG, u, x) == pytest.approx(x)

    def test_pushes_to_sphere(self):
        u = np.array([0.01, 0.0, 0.0])
        x = u + np.array([CFG.r, 0, 0])
        out = radial_project(CFG, u, x)
        assert out == pytest.approx(u + np.array([2 * CFG.r, 0, 0]))

    def test_identity_outside(self):
        u = np.zeros(3)
        x = np.array([0.19, 0.0, 0.0])
        assert radial_project(CFG, u, x) is not x
        assert np.array_equal(radial_project(CFG, u, x), x)

    def test_center_hit(self):
        u = np.array([0.01, 0.02, 0.0])
        with pytest.raises(CenterHit):
            radial_project(CFG, u, u.copy())

    @given(st.integers(0, 10_000))
    def test_composition_with_boundary_projection(self, index):
        # psi_u after pi_u equals psi_u: both move points along the same ray
        u = ball_samples(11, index, 1, CFG.r)[0]
        x = ball_samples(12, index, 1, CFG.r)[0] + np.array([0.0, 0.0, 0.02])
        if np.allclose(x, u):
            return
        direct = boundary_project(CFG, u, x)
        via = boundary_project(CFG, u, radial_project(CFG, u, x))
        assert np.max(np.abs(direct - via)) < 1e-12


class TestPatch:
    def test_area(self):
        patch = corner_patch(0.01)
        assert patch.area == pytest.approx(4 * 0.01 * 0.01, rel=1e-12)

    def test_rejects_outside_vertices(self):
        tris = corpus.tilted_square_patch([0.4, 0.4, 0.4], [1, 1, 1], 0.01)
        with pytest.raises(ValueError):
            TriangulatedPatch(tris)

    def test_rejects_degenerate(self):
        flat = np.zeros((1, 3, 3))
        flat[0] = [[0, 0, 0.01], [0.01, 0, 0.01], [0.02, 0, 0.01]]
        with pytest.raises(ValueError):
            TriangulatedPatch(flat)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        tris = corpus.tilted_square_patch([0.0, 0.0, 0.01], [0, 0, 1], 0.01)
        tris[0, 1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            TriangulatedPatch(tris)

    def test_distance_matches_brute_force(self):
        rng = np.random.default_rng(5)
        tris = rng.normal(size=(25, 3, 3))
        grid = []
        for uu in np.linspace(0, 1, 40):
            for vv in np.linspace(0, 1 - uu, max(2, int(40 * (1 - uu)))):
                grid.append((1 - uu - vv, uu, vv))
        bary = np.array(grid)
        for _ in range(50):
            p = rng.normal(size=3)
            fast = triangle_distances(p, tris)
            pts = np.einsum("kb,nbd->nkd", bary, tris)
            brute = np.min(np.linalg.norm(pts - p[None, None, :], axis=2), axis=1)
            assert np.all(fast <= brute + 1e-9)
            assert np.all(brute - fast < 0.08)

    def test_paired_call_bitwise_equals_per_point_calls(self):
        rng = np.random.default_rng(6)
        tris = rng.normal(size=(40, 3, 3))
        points = rng.normal(size=(40, 3))
        points[:5] = tris[:5, 0]  # on a vertex
        points[5:10] = tris[5:10].mean(axis=1)  # inside the triangle
        paired = triangle_distances(points, tris)
        single = [triangle_distances(p, tris[i : i + 1])[0] for i, p in enumerate(points)]
        assert paired.tobytes() == np.array(single).tobytes()


class TestProjectedArea:
    def test_patch_on_boundary_sphere_fixed(self):
        u = np.array([0.0, 0.0, CFG.r / 2])
        patch = TriangulatedPatch(corpus.sphere_patch(2 * CFG.r, refine=5) + u)
        [out] = projected_area(CFG, u[None], patch)
        assert out == pytest.approx(patch.area, rel=1e-3)

    def test_concentric_scaling(self):
        u = np.array([0.0, 0.0, CFG.r / 2])
        d = CFG.r
        patch = TriangulatedPatch(corpus.sphere_patch(d, refine=5) + u)
        [out] = projected_area(CFG, u[None], patch)
        assert out / patch.area == pytest.approx((2 * CFG.r / d) ** 2, rel=1e-3)

    def test_far_patch_exact(self):
        patch = corner_patch()
        [out] = projected_area(CFG, np.zeros((1, 3)), patch)
        assert out == patch.area  # bitwise: the identity branch

    def test_center_on_surface_rejected(self):
        patch = TriangulatedPatch(
            corpus.tilted_square_patch([0.0, 0.0, 0.01], [0, 0, 1], 0.03)
        )
        us = np.array([[0.0, 0.0, 0.01], [0.0, 0.0, 0.02]])
        out = projected_area(CFG, us, patch)
        assert math.isnan(out[0])
        assert math.isfinite(out[1])

    def test_centres_must_be_rows(self):
        with pytest.raises(ValueError, match="shape"):
            projected_area(CFG, np.zeros(3), corner_patch())

    # halved triangle areas: the square of _near_flat_case lies inside the
    # ball, and the shoelace area of each triangle, twice what the kernel is
    # told, trips _whole_triangle; the square of _disk_crossing_case crosses
    # the circle of D, and the fan's area(T cap D) exceeds the halved area
    JACOBIAN_CASES = [
        ("_near_flat_case", "shoelace area"),
        ("_disk_crossing_case", "area\\(T cap D\\)"),
    ]

    def test_jacobian_bound_violation_raises(self, monkeypatch):
        import kneser.projection as kp

        areas = kp._areas
        for case, message in self.JACOBIAN_CASES:
            u, patch = globals()[case]()
            projected_area(CFG, u[None], patch)  # the true areas pass
            with monkeypatch.context() as m:
                m.setattr(kp, "_areas", lambda t: 0.5 * areas(t))
                with pytest.raises(JacobianBoundExceeded, match=message):
                    projected_area(CFG, u[None], patch)

    def test_jacobian_bound_survives_optimize_flag(self):
        code = (
            "import re\n"
            "import kneser.projection as kp\n"
            "import test_projection as tp\n"
            "from kneser.errors import JacobianBoundExceeded\n"
            "areas = kp._areas\n"
            "kp._areas = lambda t: 0.5 * areas(t)\n"
            "for case, message in tp.TestProjectedArea.JACOBIAN_CASES:\n"
            "    u, patch = getattr(tp, case)()\n"
            "    try:\n"
            "        kp.projected_area(tp.CFG, u[None], patch)\n"
            "    except JacobianBoundExceeded as exc:\n"
            "        print('raised', __debug__, bool(re.search(message, str(exc))))\n"
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
        assert proc.stdout == "raised False True\n" * 2, proc.stderr

    def test_paper_chain_inequality(self):
        """|pi_u(Q)|_2 <= |Q inter (sigma - B_u)|_2 + integral of the radial
        bound over Q inter B_u, with 1e-6 slack, for 100 random (u, Q)."""
        checked = 0
        index = 0
        while checked < 100:
            index += 1
            assert index < 300, "random pair generation starved"
            u = ball_samples(21, index, 1, CFG.r)[0]
            center = ball_samples(22, index, 1, 0.05)[0] + np.array([0, 0, 0.05])
            normal = ball_samples(23, index, 1, 1.0)[0]
            if np.linalg.norm(normal) < 1e-3:
                continue
            patch = TriangulatedPatch(
                corpus.tilted_square_patch(center, normal, 0.02, refine=1)
            )
            if triangle_distances(u, patch.triangles).min() <= 1e-6:
                continue
            [lhs] = projected_area(CFG, u[None], patch)
            rhs = _chain_rhs(CFG, u, patch)
            assert lhs <= rhs + 1e-6
            checked += 1

    def test_boundary_projection_dilates_from_formula(self):
        # a flat patch projected from an interior center onto the simplex
        # boundary: compare against dense midpoint-rule reference
        patch = corner_patch(0.008)
        u = np.array([0.001, -0.002, 0.0015])
        fast = boundary_projected_area(CFG, u, patch)
        ref = _dense_psi_reference(CFG, u, patch)
        assert fast == pytest.approx(ref, rel=2e-3)


SMALL = ProjectionConfig(r=DEFAULT_R / 4)  # keeps every drawn triangle in sigma0
PAIR_KINDS = ("generic", "s_zero", "s_near_2r", "p_on_edge", "p_at_vertex", "t_in_d", "d_in_t")


@st.composite
def centre_triangle_pairs(draw):
    """(kind, u, T): a centre and one triangle, built around the foot p of u
    in T's plane at signed height s, so that the disk D of radius
    R = sqrt((2r)^2 - s^2) about p meets T in the way `kind` names."""
    two_r = 2 * SMALL.r
    kind = draw(st.sampled_from(PAIR_KINDS))
    coord = st.floats(-1.5, 1.5)
    if kind == "s_zero":
        s = 0.0
    elif kind == "s_near_2r":
        s = draw(st.sampled_from([-1.0, 1.0])) * (two_r - draw(st.floats(0.0, 1e-9)))
    else:
        sign = draw(st.sampled_from([-1.0, 1.0]))
        s = sign * draw(st.floats(1e-3, 0.999)) * two_r
    radius = math.sqrt(max(two_r ** 2 - s * s, 0.0))
    scale = draw(st.sampled_from([two_r, radius])) if radius > 1e-3 * two_r else two_r
    plane = np.array([[draw(coord), draw(coord)] for _ in range(3)])
    if kind == "p_at_vertex":
        plane[0] = 0.0
    elif kind == "p_on_edge":
        plane[1] = -draw(st.floats(0.1, 1.0)) * plane[0]
    elif kind == "t_in_d":
        scale = radius
        rho = np.array([draw(st.floats(0.0, 0.99)) for _ in range(3)])
        theta = np.array([draw(st.floats(0.0, 2 * math.pi)) for _ in range(3)])
        plane = rho[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    elif kind == "d_in_t":
        # 120 degrees apart at distance >= 2.05 R: every edge clears the disk
        scale = radius
        rho = np.array([draw(st.floats(2.05, 3.0)) for _ in range(3)])
        theta = draw(st.floats(0.0, 2 * math.pi)) + 2 * math.pi * np.arange(3) / 3
        plane = rho[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    normal = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
    assume(np.linalg.norm(normal) > 0.1)
    normal /= np.linalg.norm(normal)
    e1 = np.cross(normal, [1.0, 0.0, 0.0] if abs(normal[0]) < 0.9 else [0.0, 1.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(normal, e1)
    u = np.array([draw(st.floats(-0.01, 0.01)) for _ in range(3)])
    foot = u - s * normal
    tri = foot + scale * (plane[:, :1] * e1 + plane[:, 1:] * e2)
    area = 0.5 * np.linalg.norm(np.cross(tri[1] - tri[0], tri[2] - tri[0]))
    assume(area > 1e-3 * scale ** 2 and area > 1e-12)
    return kind, u, tri


def _pair_tolerance(tri, want):
    # relative 1e-8; a pair whose contribution rounds away (u in the plane
    # of a triangle inside D) is held to 1e-8 of its area instead
    area = 0.5 * np.linalg.norm(np.cross(tri[1] - tri[0], tri[2] - tri[0]))
    return 1e-8 * max(abs(want), area)


class TestClosedForm:
    """The closed form against the polygon oracle and the quadrature of
    the pointwise Jacobian that it replaced."""

    @pytest.mark.parametrize("name", ["sphere_small", "sphere_large", "square_center",
                                      "square_tilted", "corner"])
    def test_matches_polygon_oracle_on_corpus(self, name):
        from test_acceptance import corpus_patches

        patch = TriangulatedPatch(corpus_patches()[name])
        cfg = ProjectionConfig(seed=0, samples=2000)
        # every 97th centre, and centre 218, where the quadrature at
        # tolerance 1e-10 stalls on square_center
        picks = sorted(set(range(0, 2000, 97)) | {218})
        us = ball_samples(cfg.seed, 0, cfg.samples, cfg.r)[picks]
        got = projected_area(cfg, us, patch)
        for u, value in zip(us, got):
            want = polygon_projected_area(cfg, u, patch.triangles)
            assert value == pytest.approx(want, rel=1e-8)

    @settings(max_examples=300, deadline=None)
    @given(centre_triangle_pairs())
    def test_matches_polygon_oracle_on_single_pairs(self, case):
        kind, u, tri = case
        [got] = projected_area(SMALL, u[None], TriangulatedPatch(tri[None]))
        dist = triangle_distances(u, tri[None])[0]
        if dist <= 1e-12:
            assert math.isnan(got)  # u on T
            return
        # closer than this, one rounding step of u moves Omega by more than
        # the tolerance, in the closed form and the oracle alike
        assume(dist > 1e-6 * 2 * SMALL.r)
        # a 4000-gon is off by up to 1e-13 on a partial arc, too much for
        # a triangle of area 1e-6
        want = polygon_projected_area(SMALL, u, tri[None], sides=16000)
        assert abs(got - want) <= _pair_tolerance(tri, want), kind

    def test_quadrature_of_pointwise_jacobian(self):
        # the quadrature checks Jacobian <= (2r/|x-u|)^2 at every point it
        # evaluates; its default tolerance is loose, so only its median
        # error against the closed form is held tight
        from test_acceptance import corpus_patches

        cfg = ProjectionConfig(seed=3, samples=40)
        us = ball_samples(cfg.seed, 0, cfg.samples, cfg.r)
        for tris in corpus_patches().values():
            patch = TriangulatedPatch(tris)
            closed = projected_area(cfg, us, patch)
            quad = np.array([quadrature_projected_area(cfg, u, patch) for u in us])
            assert np.median(np.abs(quad - closed) / closed) < 1e-5
            assert np.all(np.abs(quad - closed) <= 0.5 * closed)


@st.composite
def triangles_inside_ball(draw):
    """(x, y, s, area): a triangle in the frame of _closed_form, its three
    vertices inside B_u, counter-clockwise, at signed height s of u."""
    two_r = 2 * CFG.r
    s = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-3, 0.999)) * two_r
    radius = math.sqrt(two_r ** 2 - s * s)
    rho = np.array([draw(st.floats(0.0, 0.999)) for _ in range(3)]) * radius
    theta = np.array([draw(st.floats(0.0, 2 * math.pi)) for _ in range(3)])
    x, y = rho * np.cos(theta), rho * np.sin(theta)
    twice = (x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0])
    assume(abs(twice) > 1e-3 * radius ** 2)
    if twice < 0:
        x, y = x[[0, 2, 1]], y[[0, 2, 1]]
    return x, y, s, 0.5 * abs(twice)


def _kernel(kernel, x, y, s, area):
    return float(kernel(CFG, x[None], y[None], np.array([s]), np.array([area]))[0])


def _near_triangle_cases(kind, eps, count, seed):
    """`count` triangles inside B_u in the frame of _closed_form, with u at
    height eps over an interior point ("interior"), or at height eps over
    the point eps outside an edge ("edge"); yields (x, y, s, area, dist),
    dist the distance from u to T."""
    two_r = 2 * CFG.r
    rng = np.random.default_rng(seed)
    made = 0
    while made < count:
        if kind == "interior":
            theta = rng.uniform(0, 2 * math.pi) + 2 * math.pi * np.arange(3) / 3
            theta += rng.uniform(-0.5, 0.5, 3)
            rho = rng.uniform(0.2, 0.95, 3) * two_r
            x, y = rho * np.cos(theta), rho * np.sin(theta)
            dist = eps
        else:
            rho = rng.uniform(0, 0.45, 3) * two_r
            theta = rng.uniform(0, 2 * math.pi, 3)
            x, y = rho * np.cos(theta), rho * np.sin(theta)
            if (x[1] - x[0]) * (y[2] - y[0]) < (x[2] - x[0]) * (y[1] - y[0]):
                x, y = x[[0, 2, 1]], y[[0, 2, 1]]
            w = rng.uniform(0.1, 0.9)
            dx, dy = x[1] - x[0], y[1] - y[0]
            length = math.hypot(dx, dy)
            # (dy, -dx) points out of the counter-clockwise edge 0 -> 1
            x = x - (x[0] + w * dx + eps * dy / length)
            y = y - (y[0] + w * dy - eps * dx / length)
            dist = eps * math.sqrt(2.0)
        twice = (x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0])
        if twice > 1e-3 * two_r ** 2 and np.all(x * x + y * y + eps * eps < two_r ** 2):
            made += 1
            yield x, y, eps, 0.5 * twice, dist


class TestWholeTriangle:
    """_whole_triangle, the projected area of a triangle inside B_u, against
    the clipped fan of _closed_form and a 50-digit solid angle."""

    @settings(max_examples=500, deadline=None)
    @given(triangles_inside_ball())
    # a vertex at the foot p given as -0.0, which once made the fan's
    # sector angle atan2(0, -0) = pi
    @example((np.array([-0.0, 0.0078, 0.0199]), np.array([-0.0, 0.0027, 0.0261]),
              -0.0194, 0.5 * (0.0078 * 0.0261 - 0.0199 * 0.0027)))
    def test_agrees_with_clipped_fan(self, case):
        import kneser.projection as kp

        x, y, s, area = case
        whole = _kernel(kp._whole_triangle, x, y, s, area)
        fan = _kernel(kp._closed_form, x, y, s, area)
        assert abs(whole - fan) <= 1e-11 * max(whole, area)

    @pytest.mark.parametrize("kind", ["interior", "edge"])
    @pytest.mark.parametrize("eps", [1e-11, 1e-10, 1e-9])
    def test_accuracy_near_triangle(self, kind, eps):
        # the clipped fan, which projected_area takes this close to T,
        # against the exact solid angle of the same floats: just outside an
        # edge it errs by up to 0.05 times 1e-15 * 2r / dist (300 triangles
        # per band), so it is held to 1e-16 * 2r / dist
        import kneser.projection as kp

        two_r = 2 * CFG.r
        for x, y, s, area, dist in _near_triangle_cases(kind, eps, 40, seed=5):
            want = two_r ** 2 * solid_angle_mp(x, y, s)
            bound = 1e-16 * two_r / dist * max(want, area)
            assert abs(_kernel(kp._closed_form, x, y, s, area) - want) <= bound

    @pytest.mark.parametrize("kind", ["interior", "edge"])
    @pytest.mark.parametrize("frac", [1e-2, 3e-2, 1e-1])
    def test_accuracy_whole_triangle(self, kind, frac):
        # the one solid angle where projected_area takes it, u at least
        # _WHOLE_MIN_DIST * 2r from T: just outside an edge it errs by up to
        # 0.34 times 1e-15 * 2r / dist (300 triangles per band)
        import kneser.projection as kp

        two_r = 2 * CFG.r
        assert frac >= kp._WHOLE_MIN_DIST
        for x, y, s, area, dist in _near_triangle_cases(kind, frac * two_r, 40, seed=5):
            want = two_r ** 2 * solid_angle_mp(x, y, s)
            bound = 1e-15 * two_r / dist * max(want, area)
            assert abs(_kernel(kp._whole_triangle, x, y, s, area) - want) <= bound

    def test_pairs_split_by_vertices_in_ball(self, monkeypatch):
        # every near pair goes to exactly one kernel, the pairs whose three
        # vertices lie in B_u and that are _WHOLE_MIN_DIST * 2r or more from
        # u to _whole_triangle; the centres just off each triangle's centroid
        # are in the ball but too close for it
        import kneser.projection as kp
        from test_acceptance import corpus_patches

        seen = {}

        def counting(kernel):
            def wrapped(config, x, y, s, area):
                seen[kernel.__name__] = seen.get(kernel.__name__, 0) + len(s)
                return kernel(config, x, y, s, area)
            return wrapped

        monkeypatch.setattr(kp, "_whole_triangle", counting(kp._whole_triangle))
        monkeypatch.setattr(kp, "_closed_form", counting(kp._closed_form))
        patch = TriangulatedPatch(corpus_patches()["square_tilted"])
        tris = patch.triangles
        off = tris.mean(axis=1)[::4] + 1e-4 * kp._unit_normals(tris)[::4]
        us = np.vstack([ball_samples(7, 0, 200, CFG.r), off])
        projected_area(CFG, us, patch)
        two_r = 2 * CFG.r
        dist = np.array([triangle_distances(u, tris) for u in us])
        farthest = np.max(np.linalg.norm(tris[None] - us[:, None, None], axis=3), axis=2)
        near = (dist < two_r) & (dist > 1e-12)
        whole = near & (farthest < two_r) & (dist >= kp._WHOLE_MIN_DIST * two_r)
        close = near & (farthest < two_r) & ~whole
        assert seen["_whole_triangle"] == whole.sum()
        assert seen["_closed_form"] == (near & ~whole).sum()
        assert close.sum() >= len(off) and (near & (farthest >= two_r)).any()

    def test_sliver_inside_ball(self):
        # a sliver of area 3e-10 about 0.05 from u, whose shoelace area
        # rounds to 2.1e-9 below area(T): as in the fan, only a shoelace area
        # above area(T) breaks the invariant
        import kneser.projection as kp

        u = np.zeros(3)
        tri = np.array([[
            [0.006750731010304652, -0.0814461620694164, 0.00567578629837525],
            [-0.03796761780555352, -0.00015189164672451544, 0.04297874698014259],
            [-0.020080272990284333, -0.03266959698815729, 0.028057562885458506],
        ]])
        patch = TriangulatedPatch(tri)
        area = float(kp._areas(tri)[0])
        assert 2.9e-10 < area < 3.1e-10
        assert triangle_distances(u, tri)[0] >= kp._WHOLE_MIN_DIST * 2 * CFG.r
        got = projected_area(CFG, u[None], patch)[0]
        want = projected_area_reference(CFG, u[None], patch)[0]
        assert abs(got - want) <= 1e-8 * area


CORPUS_PATCHES = ["sphere_small", "sphere_large", "square_center", "square_tilted", "corner"]


def _assert_distances_agree(points, tris):
    """triangle_distances against the region-test reference: the same
    on-Q (<= 1e-12) and near (< 2r) decisions, and distances within relative
    1e-12.  The two kernels round differently, so a distance that is a small
    remainder of coordinates of size `scale` (a point on T or just over its
    plane) is held to 1e-15 scale instead."""
    got = triangle_distances(points, tris)
    want = triangle_distances_reference(points, tris)
    assert np.array_equal(got <= 1e-12, want <= 1e-12)
    assert np.array_equal(got < 2 * DEFAULT_R, want < 2 * DEFAULT_R)
    scale = np.max(np.linalg.norm(points[:, None, :] - tris, axis=2), axis=1)
    assert np.all(np.abs(got - want) <= 1e-12 * want + 1e-15 * scale)


class TestAgainstPerPairReference:
    """The per-triangle plane frames and the leaner distance kernel against
    the per-pair path they replaced (`oracles.projected_area_reference`,
    `oracles.triangle_distances_reference`)."""

    @pytest.mark.parametrize("name", CORPUS_PATCHES)
    def test_corpus_patches(self, name):
        from test_acceptance import corpus_patches

        patch = TriangulatedPatch(corpus_patches()[name])
        for seed in (0, 3, 7):
            cfg = ProjectionConfig(seed=seed, samples=2000)
            us = ball_samples(cfg.seed, 0, cfg.samples, cfg.r)
            got = projected_area(cfg, us, patch)
            want = projected_area_reference(cfg, us, patch)
            assert np.array_equal(np.isnan(got), np.isnan(want))
            ok = ~np.isnan(want)
            # relative 1e-12; a value below |Q| is the small remainder of
            # area(T) - area(T cap D) over terms of size |Q| (u near the
            # plane of a square inside D), and both paths round those terms
            tol = 1e-12 * np.maximum(np.abs(want[ok]), patch.area)
            assert np.all(np.abs(got[ok] - want[ok]) <= tol), seed

    def test_distances_on_random_triangles(self):
        rng = np.random.default_rng(8)
        tris = 0.1 * rng.normal(size=(4000, 3, 3))
        points = 0.1 * rng.normal(size=(4000, 3))
        _assert_distances_agree(points, tris)

    def test_distances_at_vertices_edges_interiors_and_in_plane(self):
        rng = np.random.default_rng(9)
        m = 500
        tris = 0.1 * rng.normal(size=(m, 3, 3))
        a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
        normal = np.cross(b - a, c - a)
        normal /= np.linalg.norm(normal, axis=1, keepdims=True)
        w = rng.uniform(size=(m, 1))
        interior = np.einsum("kb,kbd->kd", rng.dirichlet(np.ones(3), size=m), tris)
        # in the plane, inside T or outside it past any edge or vertex
        alpha, beta = rng.uniform(-1.5, 2.5, size=(2, m, 1))
        groups = {
            "vertex": [a, b, c],
            "edge": [a + w * (b - a), b + w * (c - b), c + w * (a - c)],
            "interior": [interior, interior + 1e-13 * normal, interior + 0.05 * normal],
            "in plane": [a + alpha * (b - a) + beta * (c - a)],
        }
        for points in groups.values():
            for p in points:
                _assert_distances_agree(p, tris)
        for p in groups["vertex"] + groups["edge"] + groups["interior"][:2]:
            assert np.all(triangle_distances(p, tris) <= 1e-12)


class TestOnSurfaceBoundary:
    """A centre within 1e-12 of Q gives NaN, one 2e-12 off a finite value,
    approached along the normal over an interior point, in the plane
    outward from an edge midpoint, and outward from a vertex."""

    @pytest.mark.parametrize("name", CORPUS_PATCHES)
    def test_nan_inside_1e12_finite_beyond(self, name):
        from test_acceptance import corpus_patches

        tri = corpus_patches()[name][0]
        patch = TriangulatedPatch(tri[None])
        a, b, c = tri
        normal = np.cross(b - a, c - a)
        normal /= np.linalg.norm(normal)
        # in-plane unit normal of edge ab, away from c
        out_ab = np.cross(b - a, normal)
        out_ab /= np.linalg.norm(out_ab)
        if out_ab @ (c - a) > 0:
            out_ab = -out_ab
        # the outward bisector at a lies in a's normal cone, so a is the
        # closest point of T
        bisector = -((b - a) / np.linalg.norm(b - a) + (c - a) / np.linalg.norm(c - a))
        bisector /= np.linalg.norm(bisector)
        starts = [(tri.mean(axis=0), normal), (0.5 * (a + b), out_ab), (a, bisector)]
        cfg = ProjectionConfig()
        for offset, on_q in ((0.5e-12, True), (2e-12, False)):
            us = np.array([p + offset * d for p, d in starts])
            dist = triangle_distances(us, np.repeat(tri[None], 3, axis=0))
            assert np.array_equal(dist <= 1e-12, [on_q] * 3), offset
            got = projected_area(cfg, us, patch)
            want = projected_area_reference(cfg, us, patch)
            assert np.array_equal(np.isnan(got), [on_q] * 3), offset
            assert np.array_equal(np.isnan(want), [on_q] * 3), offset
            assert np.array_equal(np.isfinite(got), [not on_q] * 3), offset


class TestBoundaryProjection:
    """psi_u against facts that need no quadrature."""

    @pytest.mark.parametrize("name", ["sphere_small", "sphere_large"])
    def test_enclosed_centre_covers_boundary_once(self, name):
        # the sphere patch bounds a convex polyhedron: from a centre inside
        # it every ray meets Q once, so psi_u(Q) is the whole boundary of
        # sigma0, four unit equilateral faces of area sqrt(3) / 4
        from test_acceptance import corpus_patches

        patch = TriangulatedPatch(corpus_patches()[name])
        tris = patch.triangles
        cfg = ProjectionConfig(seed=0, samples=2000)
        us = ball_samples(cfg.seed, 0, cfg.samples, cfg.r)
        # enclosed: on the origin's side of every triangle's plane, which
        # takes in centres near Q that |u| < radius / sqrt(3) leaves out
        normals = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
        heads = np.sum(normals * tris[:, 0], axis=1)
        enclosed = np.all((us @ normals.T - heads) * np.sign(heads) < 0, axis=1)
        picks = np.flatnonzero(enclosed)[:40]
        assert len(picks) == 40
        if name == "sphere_small":
            # centre 23 is 1.4e-4 from Q; the quadrature gave 1.644 there
            assert 23 in picks
            assert triangle_distances(us[23], tris).min() < 2e-4
        for u in us[picks]:
            got = boundary_projected_area(cfg, u, patch)
            assert got == pytest.approx(math.sqrt(3), rel=1e-12)

    @pytest.mark.parametrize("face", range(4))
    def test_triangle_in_one_cone_scales_by_height(self, face):
        # a triangle parallel to face i at height s over u, inside the cone
        # from u over face i: psi_u is the homothety by h_i / s about u
        normals, offsets = simplex_planes()
        n = normals[face]
        corners = np.delete(corpus.regular_tetrahedron(), face, axis=0)
        e1 = corners[1] - corners[0]
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(n, e1)
        # in-plane offsets shorter than 0.2, inside the face's inradius 0.289
        shape = 0.2 * np.array([[1.0, 0.0], [-0.5, 0.8], [-0.3, -0.9]])
        for u in ball_samples(31, 0, 5, CFG.r):
            h = offsets[face] - n @ u
            for frac in (0.1, 0.5, 0.9):
                # cone i at height frac * h is face i shrunk by frac about u
                axis = u + frac * (corners.mean(axis=0) - u)
                tri = axis + frac * (shape[:, :1] * e1 + shape[:, 1:] * e2)
                patch = TriangulatedPatch(tri[None])
                got = boundary_projected_area(CFG, u, patch)
                assert got == pytest.approx(patch.area / frac ** 2, rel=1e-12)

    @pytest.mark.parametrize("name", ["sphere_small", "sphere_large", "square_center",
                                      "square_tilted", "corner"])
    def test_split_and_scaling_about_centre_change_nothing(self, name):
        # psi_u(Q) is the same set after Q is cut into midpoint children or
        # shrunk towards u
        from test_acceptance import corpus_patches

        tris = corpus_patches()[name]
        cfg = ProjectionConfig(seed=0, samples=2000)
        for u in ball_samples(cfg.seed, 0, cfg.samples, cfg.r)[::97]:
            want = boundary_projected_area(cfg, u, TriangulatedPatch(tris))
            split = TriangulatedPatch(_subdivide(tris))
            scaled = TriangulatedPatch(u + 0.6 * (tris - u))
            assert boundary_projected_area(cfg, u, split) == pytest.approx(want, rel=1e-12)
            assert boundary_projected_area(cfg, u, scaled) == pytest.approx(want, rel=1e-12)

    def test_center_on_surface_rejected(self):
        patch = TriangulatedPatch(
            corpus.tilted_square_patch([0.0, 0.0, 0.01], [0, 0, 1], 0.03)
        )
        with pytest.raises(CenterOnSurface):
            boundary_projected_area(CFG, np.array([0.0, 0.0, 0.01]), patch)
        above = boundary_projected_area(CFG, np.array([0.0, 0.0, 0.01 + 1e-9]), patch)
        assert math.isfinite(above) and above > 0

    def test_centre_outside_simplex_rejected(self):
        # outside the open simplex the four face cones from u no longer
        # partition space, so their clipped areas do not add up to psi_u(Q)
        from test_acceptance import corpus_patches

        patch = TriangulatedPatch(corpus_patches()["corner"])
        with pytest.raises(ValueError, match="inside sigma0"):
            boundary_projected_area(CFG, np.array([2.0, 2.0, 2.0]), patch)
        normals, offsets = simplex_planes()
        for n, d in zip(normals, offsets):
            # just beyond face i, where only h_i is negative
            with pytest.raises(ValueError, match="inside sigma0"):
                boundary_projected_area(CFG, 1.001 * d * n, patch)


def _near_flat_case():
    """A centre and a flat square facing it from 0.01 above."""
    u = np.array([0.0, 0.0, CFG.r / 2])
    square = corpus.tilted_square_patch(u + [0, 0, 0.01], [0, 0, 1], 0.01)
    return u, TriangulatedPatch(square)


def _disk_crossing_case():
    """A centre and a flat square 0.01 above it whose two triangles each
    have a corner outside B_u and most of their area inside D."""
    u = np.array([0.0, 0.0, CFG.r / 2])
    square = corpus.tilted_square_patch(u + [0, 0, 0.01], [0, 0, 1], 0.12, refine=0)
    return u, TriangulatedPatch(square)


def _chain_rhs(config, u, patch):
    two_r = 2 * config.r

    def outside_part(points, normals):
        w = points - u
        rho = np.sqrt(np.sum(w * w, axis=1))
        return (rho >= two_r).astype(float)

    def bound_part(points, normals):
        w = points - u
        rho2 = np.sum(w * w, axis=1)
        return np.where(rho2 < two_r ** 2, (two_r ** 2) / rho2, 0.0)

    outside = _integrate_jacobian(patch.triangles, outside_part)
    bound = _integrate_jacobian(patch.triangles, bound_part)
    return outside + bound


def _dense_psi_reference(config, u, patch, n=60):
    """Mean boundary-projection Jacobian over a dense barycentric grid,
    Jacobians taken by finite differences of boundary_project."""
    i, j = np.divmod(np.arange(n * n), n)
    x, y = (i + 0.5) / n, (j + 0.5) / n
    inside = x + y < 1
    x, y = x[inside, None], y[inside, None]
    eps = 1e-6
    total = 0.0
    for a, b, c in patch.triangles:
        normal = np.cross(b - a, c - a)
        area = 0.5 * np.linalg.norm(normal)
        normal = normal / np.linalg.norm(normal)
        t1 = np.cross(normal, [1.0, 0.0, 0.0])
        if np.linalg.norm(t1) < 1e-6:
            t1 = np.cross(normal, [0.0, 1.0, 0.0])
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(normal, t1)
        p = a + x * (b - a) + y * (c - a)
        f0 = boundary_project(config, u, p)
        f1 = boundary_project(config, u, p + eps * t1)
        f2 = boundary_project(config, u, p + eps * t2)
        jac = np.linalg.norm(np.cross((f1 - f0) / eps, (f2 - f0) / eps), axis=1)
        total += float(np.mean(jac)) * area
    return total


class TestBadSet:
    def test_passes_at_nu0_on_corpus_patches(self):
        for tris in (
            corpus.sphere_patch(0.05, 1),
            corpus.sphere_patch(0.15, 1),
            corpus.tilted_square_patch([0.0, 0.0, 0.05], [1, 1, 1], 0.03),
        ):
            est = bad_set_volume(CFG, TriangulatedPatch(tris), 50.0)
            assert est.passed

    def test_trivial_pass_when_bound_exceeds_ball(self):
        patch = corner_patch()
        cfg = ProjectionConfig(seed=3, samples=50)
        est = bad_set_volume(cfg, patch, 10.0)
        # nu <= 25 makes the bound at least |B|_3, which the estimate
        # cannot exceed
        assert est.bound >= cfg.ball_volume
        assert est.passed

    def test_monotone_in_nu_on_shared_seed(self):
        patch = TriangulatedPatch(
            corpus.tilted_square_patch([0.0, 0.0, 0.03], [0, 0, 1], 0.05)
        )
        cfg = ProjectionConfig(seed=5, samples=300)
        ratios = projection_ratios(cfg, patch)
        estimates = [
            estimate_from_ratios(cfg, ratios, nu).estimate
            for nu in (2.0, 5.0, 20.0, 50.0, 200.0)
        ]
        assert estimates == sorted(estimates, reverse=True)
        assert estimates[0] > 0  # the near-center patch has a bad set

    def test_zero_area_rejected(self):
        cfg = ProjectionConfig(seed=1, samples=10)
        patch = TriangulatedPatch(np.zeros((0, 3, 3)))
        with pytest.raises(ZeroArea):
            projection_ratios(cfg, patch)
        with pytest.raises(ZeroArea):
            find_good_center(cfg, patch)

    def test_determinism(self):
        patch = corner_patch()
        a = bad_set_volume(CFG, patch, 50.0)
        b = bad_set_volume(CFG, patch, 50.0)
        assert a == b


def _patch_through_first_center(cfg):
    u0 = ball_samples(cfg.seed, 0, 1, cfg.r)[0]
    patch = TriangulatedPatch(corpus.tilted_square_patch(u0, [1, 2, 3], 0.01))
    assert triangle_distances(u0, patch.triangles).min() <= 1e-12
    return u0, patch


class TestCenterOnPatch:
    def test_ratio_nan_and_never_bad(self):
        cfg = ProjectionConfig(seed=4, samples=30)
        _, patch = _patch_through_first_center(cfg)
        ratios = projection_ratios(cfg, patch)
        assert math.isnan(ratios[0])
        assert not np.any(np.isnan(ratios[1:]))
        # every finite ratio exceeds a tiny nu, the NaN centre does not
        est = estimate_from_ratios(cfg, ratios, 1e-9)
        assert est.estimate == pytest.approx(cfg.ball_volume * 29 / 30, rel=1e-15)

    def test_good_center_skips_it(self):
        cfg = ProjectionConfig(seed=4, samples=30)
        u0, patch = _patch_through_first_center(cfg)
        gc = find_good_center(cfg, patch)
        assert gc.samples_used >= 2
        assert not np.array_equal(gc.center, u0)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_one_distance_pass_per_center(self, monkeypatch, threads):
        # every (centre, triangle) pair asks for its distance exactly once
        import kneser.projection as kp

        lengths = []
        distances = kp.triangle_distances

        def counted(p, tris):
            result = distances(p, tris)
            lengths.append(len(result))
            return result

        cfg = ProjectionConfig(seed=4, samples=300)
        _, patch = _patch_through_first_center(cfg)
        monkeypatch.setattr(kp, "triangle_distances", counted)
        monkeypatch.setenv("KNESER_THREADS", threads)
        projection_ratios(cfg, patch)
        assert sum(lengths) == cfg.samples * len(patch.triangles)
        assert max(lengths) <= kp.PAIR_BLOCK

    def test_block_size_never_changes_values(self, monkeypatch):
        # a block smaller than the patch splits each centre's triangles
        import kneser.projection as kp

        cfg = ProjectionConfig(seed=4, samples=30)
        _, patch = _patch_through_first_center(cfg)
        whole = projection_ratios(cfg, patch)
        monkeypatch.setattr(kp, "PAIR_BLOCK", 5)
        assert len(patch.triangles) > 5
        assert projection_ratios(cfg, patch).tobytes() == whole.tobytes()


class TestGoodCenter:
    def test_far_patch_first_sample(self):
        gc = find_good_center(CFG, corner_patch())
        assert gc.samples_used == 1
        assert gc.ratio <= 1.0 + 1e-12

    def test_ratio_bounded_by_nu0(self):
        patch = TriangulatedPatch(
            corpus.tilted_square_patch([0.0, 0.0, 0.04], [0, 0, 1], 0.04)
        )
        gc = find_good_center(CFG, patch)
        assert gc.ratio <= 50.0
        # recompute the ratio directly
        again = projected_area(CFG, gc.center[None], patch)[0] / patch.area
        assert again == pytest.approx(gc.ratio, rel=1e-12)

    def test_deterministic(self):
        patch = corner_patch()
        a = find_good_center(CFG, patch)
        b = find_good_center(CFG, patch)
        assert np.array_equal(a.center, b.center)
        assert a.dilatation == b.dilatation

    def test_budget_exhaustion(self):
        # a small patch through the middle of B: centers right next to it
        # dilate its area by far more than nu0; find a seed whose single
        # sample is one of them
        near = TriangulatedPatch(
            corpus.tilted_square_patch([0.0, 0.0, 0.0005], [0, 0, 1], 0.008)
        )
        bad_seed = None
        for seed in range(256):
            cfg = ProjectionConfig(seed=seed, samples=1)
            u = ball_samples(seed, 0, 1, cfg.r)[0]
            if triangle_distances(u, near.triangles).min() <= 1e-12:
                bad_seed = seed
                break
            if projected_area(cfg, u[None], near)[0] / near.area > 50.0:
                bad_seed = seed
                break
        assert bad_seed is not None, "no bad first sample among 256 seeds"
        with pytest.raises(SampleBudgetExhausted):
            find_good_center(ProjectionConfig(seed=bad_seed, samples=1), near)


class TestRng:
    def test_philox_pinned_regression(self):
        # pinned outputs: the sample streams may never drift between
        # releases, or every seeded result in the project changes
        lo, hi = philox2x32(
            np.array([0, 1], dtype=np.uint32),
            np.array([0, 0], dtype=np.uint32),
            np.uint32(0),
        )
        assert (int(lo[0]), int(hi[0])) == (4146912077, 3778772971)
        assert (int(lo[1]), int(hi[1])) != (int(lo[0]), int(hi[0]))

    def test_streams_independent_of_batching(self):
        whole = ball_samples(9, 0, 50, CFG.r)
        parts = np.concatenate(
            [ball_samples(9, i, 10, CFG.r) for i in range(0, 50, 10)]
        )
        assert np.array_equal(whole, parts)

    @pytest.mark.parametrize(
        "seed, start, count",
        [(0, 0, 3000), (3, 17, 3000), (7, 1000, 300), (11, 2**32 - 40, 3000), (13, 2**32 - 9000, 20000)],
    )
    def test_bitwise_equal_to_one_attempt_at_a_time(self, seed, start, count):
        # 300 samples take eight attempts each in their first round, 3000
        # take one, and 20000 go in three slices, the second crossing the
        # wrap of the 32-bit sample counter
        got = ball_samples(seed, start, count, CFG.r)
        want, attempts = ball_samples_reference(seed, start, count, CFG.r)
        assert got.tobytes() == want.tobytes()
        # some sample of each stream needs more than eight attempts
        assert attempts.max() > 8

    def test_single_samples_bitwise_equal(self):
        # count 1, as find_good_center draws its centres, including a sample
        # whose first eight attempts all fall outside the ball
        _, attempts = ball_samples_reference(5, 0, 2000, 1.0)
        late = int(np.argmax(attempts > 8))
        assert attempts[late] > 8
        for i in [0, 1, 2, late]:
            got = ball_samples(5, i, 1, 1.0)
            want, _ = ball_samples_reference(5, i, 1, 1.0)
            assert got.tobytes() == want.tobytes()

    def test_inside_ball_and_spread(self):
        pts = ball_samples(1, 0, 2000, 1.0)
        norms = np.linalg.norm(pts, axis=1)
        assert np.all(norms < 1.0)
        assert abs(float(np.mean(norms ** 3)) - 0.5) < 0.03  # uniform volume
