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

projected_area integrates that scaling in closed form, with no quadrature:
a triangle T meets B_u in a disk D of its plane, and pi_u maps T cap D onto
the sphere of radius 2r, so T contributes area(T - D) + (2r)^2 |Omega|,
Omega the solid angle T cap D subtends at u.  Only the boundary projection
psi_u (boundary_projected_area) still uses adaptive quadrature.
"""
from __future__ import annotations

import math
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

# (centre, triangle) pairs projected_area evaluates together: a block's
# temporaries stay at a few hundred kilobytes
PAIR_BLOCK = 4096
# relative slack of the closed form's invariant checks, for rounding only
_INVARIANT_SLACK = 1e-9

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


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis of length 3."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def triangle_distances(p: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Euclidean distance from p to each closed flat triangle of an
    (n, 3, 3) batch, by the standard closest-point region tests.  p is one
    point (3,) or one point per triangle (n, 3)."""
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    ab, ac, bc = b - a, c - a, c - b
    ap = p - a
    bp = p - b
    cp = p - c
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
    foot = p - np.sum(n * ap, axis=1)[:, None] * n

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
    diff = p - closest
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
    config: ProjectionConfig, us: np.ndarray, patch: TriangulatedPatch
) -> np.ndarray:
    """|pi_u(Q)|_2 for each centre u in the rows of the (m, 3) array `us`,
    in closed form; NaN for a centre on Q.

    The (centre, triangle) pairs are taken in blocks of at most PAIR_BLOCK,
    each with one paired triangle_distances call.  A triangle 2r or more from
    u contributes its area (pi_u is the identity there); any other
    contribution comes from _closed_form, whose invariant checks raise
    JacobianBoundExceeded.
    """
    us = np.asarray(us, dtype=float)
    if us.ndim != 2 or us.shape[1] != 3:
        raise ValueError("centres must have shape (m, 3)")
    tris = patch.triangles
    areas = _areas(tris)
    out = np.empty(len(us))
    step = max(1, PAIR_BLOCK // max(len(tris), 1))
    for start in range(0, len(us), step):
        centres = us[start:start + step]
        rows = np.empty((len(centres), len(tris)))
        for lo in range(0, len(tris), PAIR_BLOCK):
            hi = lo + PAIR_BLOCK
            rows[:, lo:hi] = _pair_areas(config, centres, tris[lo:hi], areas[lo:hi])
        out[start:start + len(centres)] = np.sum(rows, axis=1)
    return out


def _pair_areas(config, centres, tris, areas):
    """(k, t) contributions of t triangles seen from k centres; NaN where
    the centre lies on the triangle."""
    k, t = len(centres), len(tris)
    u = np.repeat(centres, t, axis=0)
    tri = np.tile(tris, (k, 1, 1))
    dist = triangle_distances(u, tri)
    out = np.tile(areas, k)
    on_q = dist <= 1e-12
    near = (dist < 2.0 * config.r) & ~on_q
    out[near] = _closed_form(config, u[near], tri[near], out[near])
    out[on_q] = math.nan
    return out.reshape(k, t)


def _closed_form(config, u, tri, area):
    """area(T - D) + (2r)^2 |Omega(T cap D)| for pairs of centres u and
    triangles T with areas `area`, each u off T and closer than 2r to it.

    D is the disk where the plane of T meets B_u: its centre p is the foot
    of u, its radius R = sqrt((2r)^2 - s^2) for the signed height s of u
    over the plane, and Omega is the solid angle seen from u.  Both
    area(T cap D) and Omega(T cap D) are signed fans from p over the edges
    of T, each edge clipped to the circle of D into up to three pieces:
    - a piece [w1, w2] inside D adds the triangle (p, w1, w2), with its
      Van Oosterom-Strackee solid angle 2 atan2(a.(b x c), ...) for
      a, b, c = p - u, w1 - u, w2 - u;
    - a piece outside D adds the sector its ends span, of angle phi signed
      about the normal: area R^2 phi / 2, solid angle
      -sign(s) phi (1 - |s|/2r).
    Pushing the boundary of T radially onto D keeps its winding number
    about every point inside D, so the fans sum to T cap D exactly.
    """
    two_r = 2.0 * config.r
    # in-plane frame (e1, e2, n): e1 along the first edge, n the unit normal
    n = _unit_normals(tri)
    e1 = tri[:, 1] - tri[:, 0]
    e1 /= np.sqrt(_dot(e1, e1))[:, None]
    e2 = np.cross(n, e1)
    # vertices relative to p, in (e1, e2); edge i runs from (x, y) to
    # (x + dx, y + dy), counter-clockwise about n
    rel = tri - u[:, None, :]
    x, y = _dot(rel, e1[:, None, :]), _dot(rel, e2[:, None, :])
    s = -_dot(rel[:, 0], n)
    # below 1e-150 the triangle terms underflow while the sector terms keep
    # sign(s); the true Omega is then below 1e-100, as u is 1e-12 off T
    s = np.where(np.abs(s) < 1e-150, 0.0, s)[:, None]
    s2 = s * s
    r2 = np.maximum(two_r ** 2 - s2, 0.0)
    dx, dy = np.roll(x, -1, axis=1) - x, np.roll(y, -1, axis=1) - y
    qa = dx * dx + dy * dy
    qb = x * dx + y * dy
    disc = qb * qb - qa * (x * x + y * y - r2)
    root = np.sqrt(np.maximum(disc, 0.0))
    meets = disc > 0
    t1 = np.where(meets, np.clip((-qb - root) / qa, 0.0, 1.0), 1.0)
    t2 = np.where(meets, np.clip((-qb + root) / qa, 0.0, 1.0), 1.0)
    # pieces [v, w1] and [w2, v + d] lie outside D, [w1, w2] inside
    w1x, w1y = x + t1 * dx, y + t1 * dy
    w2x, w2y = x + t2 * dx, y + t2 * dy
    phi = np.arctan2(x * w1y - y * w1x, x * w1x + y * w1y) + np.arctan2(
        w2x * (y + dy) - w2y * (x + dx), w2x * (x + dx) + w2y * (y + dy)
    )
    fan = 0.5 * (w1x * w2y - w1y * w2x)
    # a = p - u = -s n, b = w1 - s n, c = w2 - s n
    h = np.abs(s)
    lb = np.sqrt(w1x * w1x + w1y * w1y + s2)
    lc = np.sqrt(w2x * w2x + w2y * w2y + s2)
    num = -2.0 * s * fan
    den = h * lb * lc + s2 * (lb + lc) + (w1x * w2x + w1y * w2y + s2) * h
    cap = np.sign(s) * np.maximum(1.0 - h / two_r, 0.0)
    inside = np.sum(fan + 0.5 * r2 * phi, axis=1)
    omega = np.sum(2.0 * np.arctan2(num, den) - cap * phi, axis=1)
    slack = _INVARIANT_SLACK
    ok = (inside >= -slack * area) & (inside <= (1.0 + slack) * area)
    ok &= np.abs(omega) <= 2.0 * math.pi * (1.0 + slack)
    if not np.all(ok):
        raise JacobianBoundExceeded(
            "closed-form projected area broke 0 <= area(T cap D) <= area(T) "
            "or |Omega(T cap D)| <= 2 pi"
        )
    return area - inside + two_r ** 2 * np.abs(omega)


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


def projection_ratios(config: ProjectionConfig, patch: TriangulatedPatch) -> np.ndarray:
    """|pi_u(Q)|_2 / |Q|_2 for each sampled center; NaN marks a center on
    Q."""
    area = patch.area
    if area <= 0:
        raise ZeroArea("patch has zero area")
    us = ball_samples(config.seed, 0, config.samples, config.r)
    return projected_area(config, us, patch) / area


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
        ratio = float(projected_area(config, u[None], patch)[0]) / area
        if ratio <= nu0:  # False for NaN, a center on Q
            lam = boundary_projected_area(config, u, patch) / area
            return GoodCenter(
                center=u, ratio=ratio, dilatation=lam, samples_used=i + 1
            )
    raise SampleBudgetExhausted(config.samples)
