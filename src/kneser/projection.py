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
Omega the solid angle T cap D subtends at u.  Each triangle's plane frame
(normal, in-plane axes, vertex coordinates) is computed once per call; the
(centre, triangle) pairs go in blocks, each with one triangle_distances
pass that tells pairs on Q, near (closer than 2r) and far apart, and a
near pair needs only the projections of its centre on the frame's axes.
boundary_projected_area is exact as well: it clips T to the cones from u
over the faces of sigma0 and takes the shoelace area of each clipped
polygon's image.  Nothing here integrates numerically.
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

# (centre, triangle) pairs projected_area evaluates together: a block's
# temporaries stay at a few hundred kilobytes
PAIR_BLOCK = 4096
# relative slack of the closed form's invariant checks, for rounding only
_INVARIANT_SLACK = 1e-9


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


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products along the last axis of length 3."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def triangle_distances(p: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Euclidean distance from p to each closed flat triangle of an
    (n, 3, 3) batch of non-degenerate triangles (as a TriangulatedPatch
    holds).  p is one point (3,) or one point per triangle (n, 3).

    Where the foot of p in T's plane has barycentric coordinates all >= 0,
    the distance is the height of p over the plane; elsewhere the closest
    point lies on the boundary, and the distance is the least of the three
    distances to the edges as clamped segments.  Every pair is evaluated
    elementwise, so a pair's distance does not depend on the batch.
    projected_area makes one call per block of (centre, triangle) pairs,
    over every pair of the block, and reads both its on-Q test and its
    near/far split off the result."""
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    ab, ac = b - a, c - a
    ap = p - a
    # barycentric coordinates of the foot, scaled by the Gram determinant
    d00, d01, d11 = _dot(ab, ab), _dot(ab, ac), _dot(ac, ac)
    d20, d21 = _dot(ap, ab), _dot(ap, ac)
    gram = d00 * d11 - d01 * d01
    wb = d11 * d20 - d01 * d21
    wc = d00 * d21 - d01 * d20
    inside = (wb >= 0) & (wc >= 0) & (wb + wc <= gram)
    n = _cross(ab, ac)
    height = _dot(n, ap)
    plane2 = height * height / _dot(n, n)

    def segment2(q, edge, q_edge, edge_edge):
        # squared distance of q, taken from the edge's first vertex
        w = q - np.clip(q_edge / edge_edge, 0.0, 1.0)[:, None] * edge
        return _dot(w, w)

    bc = c - b
    bp = p - b
    edge2 = np.minimum(
        np.minimum(segment2(ap, ab, d20, d00), segment2(ap, ac, d21, d11)),
        segment2(bp, bc, _dot(bp, bc), _dot(bc, bc)),
    )
    return np.sqrt(np.where(inside, plane2, edge2))


def projected_area(
    config: ProjectionConfig, us: np.ndarray, patch: TriangulatedPatch
) -> np.ndarray:
    """|pi_u(Q)|_2 for each centre u in the rows of the (m, 3) array `us`,
    in closed form; NaN for a centre on Q.

    Each triangle's plane frame is computed once per call: its area, unit
    normal n, in-plane axes e1 and e2, its vertices' in-plane coordinates
    X and Y, and the plane's offset H = n . v0.  The (centre, triangle)
    pairs are taken in blocks of at most PAIR_BLOCK, each with one
    triangle_distances pass over all of its pairs.  A triangle 2r or more
    from u contributes its area (pi_u is the identity there); a nearer one
    gets _closed_form of its vertices relative to the foot of u,
    X - u . e1 and Y - u . e2, and of the height s = u . n - H of u over
    its plane.  The invariant checks of _closed_form raise
    JacobianBoundExceeded.
    """
    us = np.asarray(us, dtype=float)
    if us.ndim != 2 or us.shape[1] != 3:
        raise ValueError("centres must have shape (m, 3)")
    tris = patch.triangles
    frames = _plane_frames(tris)
    out = np.empty(len(us))
    step = max(1, PAIR_BLOCK // max(len(tris), 1))
    for start in range(0, len(us), step):
        centres = us[start:start + step]
        rows = np.empty((len(centres), len(tris)))
        for lo in range(0, len(tris), PAIR_BLOCK):
            hi = lo + PAIR_BLOCK
            part = tuple(f[lo:hi] for f in frames)
            rows[:, lo:hi] = _pair_areas(config, centres, tris[lo:hi], *part)
        out[start:start + len(centres)] = np.sum(rows, axis=1)
    return out


def _plane_frames(tris):
    """Per triangle: area, unit normal n, in-plane axes e1 (along the first
    edge) and e2 = n x e1, vertex coordinates X = v . e1 and Y = v . e2 of
    shape (t, 3), and plane offset H = n . v0."""
    area = _areas(tris)
    n = _unit_normals(tris)
    e1 = tris[:, 1] - tris[:, 0]
    e1 /= np.sqrt(_dot(e1, e1))[:, None]
    e2 = _cross(n, e1)
    x, y = _dot(tris, e1[:, None, :]), _dot(tris, e2[:, None, :])
    return area, n, e1, e2, x, y, _dot(n, tris[:, 0])


def _pair_areas(config, centres, tris, area, n, e1, e2, x, y, h):
    """(k, t) contributions of t triangles seen from k centres; NaN where
    the centre lies on the triangle."""
    k, t = len(centres), len(tris)
    dist = triangle_distances(np.repeat(centres, t, axis=0), np.tile(tris, (k, 1, 1)))
    dist = dist.reshape(k, t)
    out = np.tile(area, (k, 1))
    on_q = dist <= 1e-12
    near = (dist < 2.0 * config.r) & ~on_q
    c = centres[:, None, :]
    # elementwise sums, not c @ e.T: a matrix product may round differently
    # for different block shapes
    xs = x[None] - _dot(c, e1[None])[:, :, None]
    ys = y[None] - _dot(c, e2[None])[:, :, None]
    s = _dot(c, n[None]) - h[None]
    out[near] = _closed_form(config, xs[near], ys[near], s[near], out[near])
    out[on_q] = math.nan
    return out


def _closed_form(config, x, y, s, area):
    """area(T - D) + (2r)^2 |Omega(T cap D)| for pairs of a centre u and a
    triangle T of area `area`, u off T and closer than 2r to it.  Each pair
    comes in T's plane frame (e1, e2, n), with no frame built here: the
    rows of x and y hold the in-plane coordinates of T's vertices relative
    to the foot p of u, and s is the signed height of u over the plane;
    edge i runs from (x, y) to (x + dx, y + dy), counter-clockwise about n.

    D is the disk where the plane of T meets B_u: its centre is p, its
    radius R = sqrt((2r)^2 - s^2), and Omega is the solid angle seen from
    u.  Both area(T cap D) and Omega(T cap D) are signed fans from p over
    the edges of T, each edge clipped to the circle of D into up to three
    pieces:
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
    # below 1e-150 the triangle terms underflow while the sector terms keep
    # sign(s); the true Omega is then below 1e-100, as u is 1e-12 off T
    s = np.where(np.abs(s) < 1e-150, 0.0, s)[:, None]
    s2 = s * s
    r2 = np.maximum(two_r ** 2 - s2, 0.0)
    nxt = [1, 2, 0]
    dx, dy = x[:, nxt] - x, y[:, nxt] - y
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
    # the three edges summed column by column, in np.sum's order but without
    # its overhead on a length-3 axis
    inside = fan + 0.5 * r2 * phi
    inside = inside[:, 0] + inside[:, 1] + inside[:, 2]
    omega = 2.0 * np.arctan2(num, den) - cap * phi
    omega = omega[:, 0] + omega[:, 1] + omega[:, 2]
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
    """|psi_u(Q)|_2 for a centre u inside sigma0 and off Q, exactly.

    The cones from u over the four faces of sigma0 partition space, cone i
    cut out by the three planes through u and an edge of face i.  Each
    triangle T is clipped to each cone (Sutherland-Hodgman), leaving a
    convex polygon, and its vertices go along their rays from u to face
    i's plane, at t = h_i / n_i.(x - u) with h_i = d_i - n_i.u.  A ray from
    u meets T's plane at most once, so psi_u is injective on T, and central
    projection maps segments to segments: the image is the polygon of the
    projected vertices, and the shoelace sum gives its area.  Outside the
    open simplex the cones no longer partition space, so a centre with
    some h_i <= 0 raises ValueError.
    """
    u = np.asarray(u, dtype=float)
    normals, offsets = _PLANES
    heights = [offsets[i] - float(normals[i] @ u) for i in range(4)]
    if min(heights) <= 0:
        raise ValueError("projection center must lie inside sigma0")
    tris = patch.triangles
    if len(tris) and triangle_distances(u, tris).min() <= 1e-12:
        raise CenterOnSurface("projection center lies on the patch")
    corners = regular_tetrahedron()
    total = 0.0
    for i in range(4):
        # inward normals of cone i's sides: side j spans the rays to face
        # corners j+1 and j+2 and keeps corner j
        f = np.delete(corners, i, axis=0) - u
        sides = np.cross(np.roll(f, -1, axis=0), np.roll(f, -2, axis=0))
        sides *= np.sign(np.linalg.det(f))
        for tri in tris:
            poly = tri
            for w in sides:
                poly = _clip_half_plane(poly, u, w)
            if len(poly) < 3:
                continue
            rel = poly - u
            image = (heights[i] / (rel @ normals[i]))[:, None] * rel
            image -= image[0]
            fan = np.cross(image[1:-1], image[2:]) @ normals[i]
            total += 0.5 * abs(float(np.sum(fan)))
    return total


def _clip_half_plane(poly, x, w):
    """The convex polygon `poly` (rows in order) cut to (q - x).w >= 0."""
    dist = (poly - x) @ w
    keep = dist >= 0
    if keep.all():
        return poly
    nxt = np.roll(poly, -1, axis=0)
    dnext = np.roll(dist, -1)
    crossing = keep != (dnext >= 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(crossing, dist / (dist - dnext), 0.0)
    cut = poly + t[:, None] * (nxt - poly)
    points = np.stack([poly, cut], axis=1).reshape(-1, 3)
    return points[np.stack([keep, crossing], axis=1).reshape(-1)]


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
    dilatation: float  # lambda = |psi_u(Q)|_2 / |Q|_2, exact
    samples_used: int


def find_good_center(config: ProjectionConfig, patch: TriangulatedPatch) -> GoodCenter:
    """First sampled center with |pi_u(Q)|_2 <= nu0 |Q|_2 and u off Q; also
    reports its boundary-projection dilatation."""
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
