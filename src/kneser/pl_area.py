"""PL area: weight paired with hyperbolic arc length, compared lexically.

The metric model: every face carries the ideal hyperbolic triangle with
vertices 0, 1, infinity in the upper half-plane.  Edge midpoints are the
incircle touch points i, 1+i and (1+i)/2 (the unique isometry-equivariant
choice).  The point at arclength s from the midpoint i along the edge
(0, inf) is i*exp(s); the parametrizations of the other two edges are the
images under the order-3 isometry z -> 1/(1-z), which cycles

    (0, inf) -> (0, 1) -> (1, inf) -> (0, inf)

and matches midpoints.

Crossings are placed canonically: the k-th of m crossings on an edge sits at
arclength (k - (m+1)/2) * h from the midpoint, with spacing h = 1.  This
canonical-position length is an upper bound for the minimal length in the
metric, not the infimum; reports flag it as length_model "canonical-h1".
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EmptySurface
from .normal import check_coordinates, disk_boundaries, edge_weights
from .normal import weight as coordinate_weight
from .triangulation import (
    EDGE_BETWEEN,
    FACE_VERTICES,
    Triangulation,
    skeleton,
    support_metrics,
)

LENGTH_TOLERANCE = 1e-9
SPACING = 1.0
LENGTH_MODEL = "canonical-h1"

MIDPOINT_ARC = math.acosh(1.5)  # midpoint-to-midpoint arc in the ideal triangle


@dataclass(frozen=True, order=False)
class PLArea:
    """The pair (weight, length); lexicographic with 1e-9 length tolerance."""

    weight: int
    length: float

    def less_than(self, other: "PLArea") -> bool:
        if self.weight != other.weight:
            return self.weight < other.weight
        return self.length < other.length - LENGTH_TOLERANCE

    def tol_equal(self, other: "PLArea") -> bool:
        return (
            self.weight == other.weight
            and abs(self.length - other.length) <= LENGTH_TOLERANCE
        )


def corner_arc_length(delta1: float, delta2: float) -> float:
    """Length of an arc cutting off a corner, endpoints at away-from-corner
    offsets delta1 and delta2 from the respective edge midpoints.

    Model: corner at infinity, edges the two verticals; the endpoint at
    offset d sits at height exp(-d).
    """
    a = math.exp(-delta1)
    b = math.exp(-delta2)
    cosh_d = 1.0 + (1.0 + (a - b) ** 2) / (2.0 * a * b)
    return math.acosh(cosh_d)


def _arc_offsets(n: int, m: int) -> float:
    """Away-from-corner offset of the n-th crossing from a corner on an edge
    with m crossings, under the canonical equal-spacing placement."""
    return (n - (m + 1) / 2.0) * SPACING


def normal_arc_length(n: int, m1: int, m2: int) -> float:
    """Length of the n-th arc at a corner whose edges carry m1, m2 crossings."""
    return corner_arc_length(_arc_offsets(n, m1), _arc_offsets(n, m2))


# _CORNER_EDGES[f][v]: the two edges of face f that meet at its corner v,
# toward the smaller and the larger of the other two corners
_CORNER_EDGES = tuple(
    tuple(
        tuple(EDGE_BETWEEN[v][w] for w in FACE_VERTICES[f] if w != v)
        if v != f else ()
        for v in range(4)
    )
    for f in range(4)
)


def pl_area(tri: Triangulation, coords) -> PLArea:
    """Weight and canonical-placement length of the normal surface of a
    valid coordinate vector, read off the coordinates and edge weights.

    The length sums `normal_arc_length` over the boundary arcs of every
    disk of `disk_boundaries`, so each arc counts once per disk it
    borders: twice, since it lies in one face orbit.  Arcs are summed in
    walk order; an arc's length depends only on (n, m1, m2), so each such
    triple is evaluated once per call."""
    coords = check_coordinates(tri, coords)
    weights = edge_weights(tri, coords)
    # the crossing count of every edge slot 6i + e
    crossings = [weights[orbit] for orbit in skeleton(tri).edge_orbit.ravel().tolist()]
    lengths: dict[tuple[int, int, int], float] = {}
    total = 0.0
    for _disk, arcs in disk_boundaries(coords):
        for tet, face, corner, n, _start in arcs:
            e1, e2 = _CORNER_EDGES[face][corner]
            key = (n, crossings[6 * tet + e1], crossings[6 * tet + e2])
            length = lengths.get(key)
            if length is None:
                length = lengths[key] = normal_arc_length(*key)
            total += length
    return PLArea(weight=sum(weights), length=total)


@dataclass(frozen=True)
class DiameterCheck:
    support_size: int
    diameter: int
    weight: int
    passed: bool


def verify_diameter_bound(tri: Triangulation, coords) -> DiameterCheck:
    """Check diam(support) <= weight^2 in the quasimetric (exact integers)."""
    if not any(coords):
        raise EmptySurface("zero vector has no support")
    support = {i for i in range(tri.size) if any(coords[7 * i + k] for k in range(7))}
    metrics = support_metrics(tri, support)
    wt = coordinate_weight(tri, coords)
    return DiameterCheck(
        support_size=metrics.size,
        diameter=metrics.diameter,
        weight=wt,
        passed=metrics.diameter <= wt * wt,
    )
