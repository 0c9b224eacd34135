"""Radial projections in the standard 3-simplex and bad-set volume bounds.

The model simplex sigma0 is the regular unit-edge tetrahedron centered at
the origin (inradius 1/(2 sqrt 6)).  For a center u in the ball B = B(0, r)
the map pi_u radially projects the ball B_u = B(u, 2r) onto its own
boundary and is the identity outside; psi_u projects all of sigma0 - {u}
onto the boundary of the simplex.  For a flat surface patch the area
scaling of pi_u at a point x in B_u is

    (2r)^2 |cos angle(normal, ray)| / |x - u|^2  <=  (2r / |x - u|)^2,

the right side being the integrand of the classical bad-set estimate
|A_nu|_3 <= (|B|_3 + K) / nu with K = integral of 4r^2/|z|^2 over B(0, 2r)
= 32 pi r^3.  The threshold nu0 = 2(|B|_3 + K)/|B|_3 = 50 independently
of r.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .corpus import regular_tetrahedron
from .errors import CenterHit, CenterOnSurface, JacobianBoundExceeded
from .errors import SampleBudgetExhausted, ZeroArea
from .rng import ball_samples

INRADIUS = 1.0 / (2.0 * math.sqrt(6.0))
DEFAULT_R = INRADIUS / 3.0

# coefficients of |B|_3 and K as multiples of pi * r^3, kept exact
BALL_COEFF = Fraction(4, 3)
K_COEFF = Fraction(32)

QUAD_TOLERANCE = 1e-4
QUAD_MAX_DEPTH = 6

_SQRT15 = math.sqrt(15.0)
# 7-point degree-5 rule on the triangle (barycentric coordinates, weights)
_QUAD_BARY = np.array(
    [
        [1 / 3, 1 / 3, 1 / 3],
        [(6 - _SQRT15) / 21, (6 - _SQRT15) / 21, (9 + 2 * _SQRT15) / 21],
        [(6 - _SQRT15) / 21, (9 + 2 * _SQRT15) / 21, (6 - _SQRT15) / 21],
        [(9 + 2 * _SQRT15) / 21, (6 - _SQRT15) / 21, (6 - _SQRT15) / 21],
        [(6 + _SQRT15) / 21, (6 + _SQRT15) / 21, (9 - 2 * _SQRT15) / 21],
        [(6 + _SQRT15) / 21, (9 - 2 * _SQRT15) / 21, (6 + _SQRT15) / 21],
        [(9 - 2 * _SQRT15) / 21, (6 + _SQRT15) / 21, (6 + _SQRT15) / 21],
    ]
)
_QUAD_W = np.array(
    [9 / 40]
    + [(155 - _SQRT15) / 1200] * 3
    + [(155 + _SQRT15) / 1200] * 3
)


def simplex_planes() -> tuple[np.ndarray, np.ndarray]:
    """Outward unit normals n_i and offsets d_i of sigma0: x inside iff
    n_i . x < d_i for all i."""
    v = regular_tetrahedron()
    normals = []
    offsets = []
    for i in range(4):
        face = np.delete(v, i, axis=0)
        n = np.cross(face[1] - face[0], face[2] - face[0])
        n = n / math.sqrt(float(np.sum(n * n)))
        d = float(np.sum(n * face[0]))
        if float(np.sum(n * v[i])) > d:
            n, d = -n, -d
        normals.append(n)
        offsets.append(d)
    return np.array(normals), np.array(offsets)


_PLANES = simplex_planes()


@dataclass(frozen=True)
class ProjectionConfig:
    """Geometry and sampling parameters of the projection laboratory."""

    r: float = DEFAULT_R
    samples: int = 10000
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.r <= INRADIUS / 3.0 + 1e-15:
            raise ValueError(
                f"need 0 < r <= inradius/3 so that B(0,3r) fits in sigma0"
            )
        if self.samples < 1:
            raise ValueError("need at least one sample")

    @property
    def ball_volume(self) -> float:
        return float(BALL_COEFF) * math.pi * self.r ** 3

    @property
    def k_constant(self) -> float:
        return float(K_COEFF) * math.pi * self.r ** 3


@dataclass(frozen=True)
class ProjectionConstants:
    r: float
    ball_volume: float
    k_constant: float
    nu0: Fraction


def nu0_exact() -> Fraction:
    """2(|B|_3 + K)/|B|_3 with the pi r^3 factors cancelled exactly."""
    return 2 * (BALL_COEFF + K_COEFF) / BALL_COEFF


def constants(config: ProjectionConfig) -> ProjectionConstants:
    """Closed forms: |B|_3 = (4/3) pi r^3, K = 32 pi r^3, nu0 = 50."""
    return ProjectionConstants(
        r=config.r,
        ball_volume=config.ball_volume,
        k_constant=config.k_constant,
        nu0=nu0_exact(),
    )


def radial_project(config: ProjectionConfig, u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """pi_u: push x in B_u to the boundary sphere of B_u, identity outside."""
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    w = x - u
    rho = math.sqrt(float(np.sum(w * w)))
    if rho == 0.0:
        raise CenterHit("radial projection evaluated at its center")
    if rho >= 2.0 * config.r:
        return x.copy()
    return u + (2.0 * config.r / rho) * w


def boundary_project(config: ProjectionConfig, u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """psi_u: push x along the ray from u onto the boundary of sigma0."""
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    w = x - u
    if float(np.sum(w * w)) == 0.0:
        raise CenterHit("boundary projection evaluated at its center")
    normals, offsets = _PLANES
    heads = normals @ w
    t_best = math.inf
    for i in range(4):
        if heads[i] > 0:
            t = (offsets[i] - float(normals[i] @ u)) / heads[i]
            t_best = min(t_best, t)
    return u + t_best * w


@dataclass(frozen=True)
class TriangulatedPatch:
    """Flat triangles strictly inside sigma0; the surface Q being projected."""

    triangles: np.ndarray  # (n, 3, 3)

    def __post_init__(self):
        tris = np.asarray(self.triangles, dtype=float)
        if tris.ndim != 3 or tris.shape[1:] != (3, 3):
            raise ValueError("triangles must have shape (n, 3, 3)")
        if not np.all(np.isfinite(tris)):
            raise ValueError("patch coordinates must be finite")
        object.__setattr__(self, "triangles", tris)
        normals, offsets = _PLANES
        margins = tris.reshape(-1, 3) @ normals.T - offsets
        if tris.size and margins.max() >= -1e-12:
            raise ValueError("patch vertices must lie strictly inside sigma0")
        if np.any(_areas(tris) <= 1e-14):
            raise ValueError("patch contains a degenerate triangle")

    @property
    def area(self) -> float:
        return float(np.sum(_areas(self.triangles)))


def _areas(tris: np.ndarray) -> np.ndarray:
    cross = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    return 0.5 * np.sqrt(np.sum(cross * cross, axis=1))


def _unit_normals(tris: np.ndarray) -> np.ndarray:
    cross = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    norm = np.sqrt(np.sum(cross * cross, axis=1, keepdims=True))
    return cross / norm


def triangle_distances(p: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Euclidean distance from p to each closed flat triangle, vectorized
    over an (n, 3, 3) batch via the standard closest-point region tests."""
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    ab, ac, bc = b - a, c - a, c - b
    ap = p[None, :] - a
    bp = p[None, :] - b
    cp = p[None, :] - c
    d1 = np.sum(ab * ap, axis=1)
    d2 = np.sum(ac * ap, axis=1)
    d3 = np.sum(ab * bp, axis=1)
    d4 = np.sum(ac * bp, axis=1)
    d5 = np.sum(ab * cp, axis=1)
    d6 = np.sum(ac * cp, axis=1)
    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    def safe_div(num, den):
        return num / np.where(den == 0, 1e-300, den)

    t_ab = np.clip(safe_div(d1, d1 - d3), 0.0, 1.0)[:, None]
    t_ac = np.clip(safe_div(d2, d2 - d6), 0.0, 1.0)[:, None]
    t_bc = np.clip(safe_div(d4 - d3, (d4 - d3) + (d5 - d6)), 0.0, 1.0)[:, None]
    n = np.cross(ab, ac)
    n = n / np.sqrt(np.sum(n * n, axis=1, keepdims=True))
    foot = p[None, :] - np.sum(n * ap, axis=1)[:, None] * n

    conditions = [
        (d1 <= 0) & (d2 <= 0),
        (d3 >= 0) & (d4 <= d3),
        (vc <= 0) & (d1 >= 0) & (d3 <= 0),
        (d6 >= 0) & (d5 <= d6),
        (vb <= 0) & (d2 >= 0) & (d6 <= 0),
        (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0),
    ]
    choices = [a, b, a + t_ab * ab, c, a + t_ac * ac, b + t_bc * bc]
    closest = np.select(
        [np.repeat(cond[:, None], 3, axis=1) for cond in conditions],
        choices,
        default=foot,
    )
    diff = p[None, :] - closest
    return np.sqrt(np.sum(diff * diff, axis=1))


def patch_distance(u: np.ndarray, patch: TriangulatedPatch) -> float:
    return float(np.min(triangle_distances(u, patch.triangles)))


def _quad_points(tris: np.ndarray) -> np.ndarray:
    """(k, 7, 3) quadrature points of a (k, 3, 3) triangle batch."""
    return np.einsum("qb,kbd->kqd", _QUAD_BARY, tris)


def _subdivide(tris: np.ndarray) -> np.ndarray:
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
    children = np.stack(
        [
            np.stack([a, ab, ca], axis=1),
            np.stack([b, bc, ab], axis=1),
            np.stack([c, ca, bc], axis=1),
            np.stack([ab, bc, ca], axis=1),
        ],
        axis=1,
    )
    return children.reshape(-1, 3, 3)


def _integrate_jacobian(tris, jac):
    """Adaptive triangle quadrature of a pointwise Jacobian `jac(points,
    normals) -> values`: 7-point rule, refined by midpoint subdivision until
    the change is below the tolerance or the depth cap is reached.

    The tolerance is on the total (relative QUAD_TOLERANCE): a piece is
    accepted when its coarse-to-fine change is small relative to its own
    value or within its area-proportional share of the global error budget,
    which keeps the summed error below QUAD_TOLERANCE times the integral.
    """

    def rule(batch, areas, normals):
        pts = _quad_points(batch)
        rep = np.repeat(normals[:, None, :], 7, axis=1)
        vals = jac(pts.reshape(-1, 3), rep.reshape(-1, 3)).reshape(-1, 7)
        return areas * (vals @ _QUAD_W)

    # a midpoint child keeps its parent's normal and a quarter of its area
    areas = _areas(tris)
    normals = _unit_normals(tris)
    total = 0.0
    active = tris
    coarse = rule(active, areas, normals)
    scale = max(abs(float(np.sum(coarse))), 1e-300)
    budget = QUAD_TOLERANCE * scale / float(np.sum(areas))
    for depth in range(QUAD_MAX_DEPTH + 1):
        children = _subdivide(active)
        child_areas = np.repeat(areas / 4, 4)
        child_normals = np.repeat(normals, 4, axis=0)
        fine4 = rule(children, child_areas, child_normals).reshape(-1, 4)
        fine = np.sum(fine4, axis=1)
        err = np.abs(fine - coarse)
        allowance = np.maximum(QUAD_TOLERANCE * np.abs(fine), budget * areas)
        done = (err <= allowance) | np.full(fine.shape, depth == QUAD_MAX_DEPTH)
        total += float(np.sum(fine[done]))
        if np.all(done):
            return total
        keep = ~done
        active = children.reshape(-1, 4, 3, 3)[keep].reshape(-1, 3, 3)
        areas = child_areas.reshape(-1, 4)[keep].reshape(-1)
        normals = child_normals.reshape(-1, 4, 3)[keep].reshape(-1, 3)
        coarse = fine4[keep].reshape(-1)
    return total


def projected_area(
    config: ProjectionConfig, u: np.ndarray, patch: TriangulatedPatch
) -> float:
    """|pi_u(Q)|_2 by adaptive quadrature of the exact area Jacobian.

    Every evaluated point checks the integrand bound Jacobian <= (2r/|x-u|)^2
    of the bad-set estimate and raises JacobianBoundExceeded if it fails.
    """
    u = np.asarray(u, dtype=float)
    tris = patch.triangles
    dist = triangle_distances(u, tris)
    if np.any(dist <= 1e-12):
        raise CenterOnSurface("projection center lies on the patch")
    two_r = 2.0 * config.r
    centers_far = dist >= two_r
    total = float(np.sum(_areas(tris[centers_far])))
    near = tris[~centers_far]
    if near.size == 0:
        return total

    def jac(points, normals):
        w = points - u
        rho2 = np.sum(w * w, axis=1)
        rho = np.sqrt(rho2)
        cos = np.abs(np.sum(w * normals, axis=1)) / rho
        inside = rho < two_r
        vals = np.where(inside, (two_r ** 2) * cos / rho2, 1.0)
        bound = (two_r ** 2) / rho2
        if not np.all(vals[inside] <= bound[inside] * (1 + 1e-12)):
            raise JacobianBoundExceeded("area Jacobian exceeded the radial bound")
        return vals

    return total + _integrate_jacobian(near, jac)


def boundary_projected_area(
    config: ProjectionConfig, u: np.ndarray, patch: TriangulatedPatch
) -> float:
    """|psi_u(Q)|_2: area of the patch pushed radially onto the simplex
    boundary, by the same adaptive quadrature."""
    u = np.asarray(u, dtype=float)
    if patch_distance(u, patch) <= 1e-12:
        raise CenterOnSurface("projection center lies on the patch")
    normals_pl, offsets_pl = _PLANES

    def jac(points, normals):
        w = points - u
        heads = w @ normals_pl.T
        with np.errstate(divide="ignore"):
            ts = np.where(
                heads > 0,
                (offsets_pl - u @ normals_pl.T)[None, :] / heads,
                np.inf,
            )
        face = np.argmin(ts, axis=1)
        t = ts[np.arange(len(points)), face][:, None]
        n_face = normals_pl[face]
        ndotw = np.sum(n_face * w, axis=1)
        # dF = t (I - w n^T / (n.w)); the area factor is the norm of the
        # cross product of the mapped orthonormal tangent frame
        t1 = _orthonormal_tangent(normals)
        t2 = np.cross(normals, t1)
        f1 = t * (t1 - w * (np.sum(n_face * t1, axis=1) / ndotw)[:, None])
        f2 = t * (t2 - w * (np.sum(n_face * t2, axis=1) / ndotw)[:, None])
        return np.sqrt(np.sum(np.cross(f1, f2) ** 2, axis=1))

    return _integrate_jacobian(patch.triangles, jac)


def _orthonormal_tangent(normals: np.ndarray) -> np.ndarray:
    ref = np.zeros_like(normals)
    small = np.abs(normals[:, 0]) < 0.9
    ref[small, 0] = 1.0
    ref[~small, 1] = 1.0
    t = np.cross(normals, ref)
    return t / np.sqrt(np.sum(t * t, axis=1, keepdims=True))


@dataclass(frozen=True)
class ProjectionEstimate:
    """Monte Carlo estimate of |A_nu|_3 against the closed-form bound."""

    nu: float
    estimate: float
    stderr: float
    bound: float
    passed: bool
    samples: int


def worker_count() -> int:
    try:
        n = int(os.environ.get("KNESER_THREADS", "1"))
    except ValueError:
        return 1
    return max(1, min(n, 64))


def projection_ratios(config: ProjectionConfig, patch: TriangulatedPatch) -> np.ndarray:
    """|pi_u(Q)|_2 / |Q|_2 for each sampled center; NaN marks a center on
    Q, where projected_area raises CenterOnSurface.

    Every thread count (KNESER_THREADS) runs the same pool over the
    independent samples, so it never changes the values, only the wall time.
    """
    area = patch.area
    if area <= 0:
        raise ZeroArea("patch has zero area")
    us = ball_samples(config.seed, 0, config.samples, config.r)

    def ratio(u):
        try:
            return projected_area(config, u, patch) / area
        except CenterOnSurface:
            return math.nan

    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        return np.array(list(pool.map(ratio, us)))


def estimate_from_ratios(
    config: ProjectionConfig, ratios: np.ndarray, nu: float
) -> ProjectionEstimate:
    n = len(ratios)
    bad = int(np.sum(ratios > nu))  # NaN (u on Q) never counts as bad
    p = bad / n
    volume = config.ball_volume
    estimate = volume * p
    stderr = volume * math.sqrt(p * (1.0 - p) / n)
    bound = (config.ball_volume + config.k_constant) / nu
    return ProjectionEstimate(
        nu=float(nu),
        estimate=estimate,
        stderr=stderr,
        bound=bound,
        passed=estimate - 3.0 * stderr <= bound + 1e-15,
        samples=n,
    )


def bad_set_volume(
    config: ProjectionConfig, patch: TriangulatedPatch, nu: float
) -> ProjectionEstimate:
    """Monte Carlo volume of the bad set A_nu = {u in B : |pi_u(Q)| > nu |Q|},
    with the one-sided 3-sigma pass flag against (|B|_3 + K)/nu."""
    return estimate_from_ratios(config, projection_ratios(config, patch), nu)


@dataclass(frozen=True)
class GoodCenter:
    center: np.ndarray
    ratio: float
    dilatation: float  # empirical lambda: |psi_u(Q)|_2 / |Q|_2
    samples_used: int


def find_good_center(config: ProjectionConfig, patch: TriangulatedPatch) -> GoodCenter:
    """First sampled center with |pi_u(Q)|_2 <= nu0 |Q|_2 and u off Q; also
    reports the empirical boundary-projection dilatation."""
    area = patch.area
    if area <= 0:
        raise ZeroArea("patch has zero area")
    nu0 = float(nu0_exact())
    for i in range(config.samples):
        u = ball_samples(config.seed, i, 1, config.r)[0]
        try:
            ratio = projected_area(config, u, patch) / area
        except CenterOnSurface:
            continue
        if ratio <= nu0:
            lam = boundary_projected_area(config, u, patch) / area
            return GoodCenter(
                center=u, ratio=ratio, dilatation=lam, samples_used=i + 1
            )
    raise SampleBudgetExhausted(config.samples)
