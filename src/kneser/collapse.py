"""Collapsing degenerate triangles of a labeled sphere into a bouquet.

The domain is a triangulated 2-sphere whose triangles carry images: either
a face label plus per-edge labels (a nondegenerate, homeomorphic image) or
None (the triangle maps into the 1-skeleton and will be collapsed).
Collapsing the degenerate triangles one by one, each to a point, is a
homotopy equivalence onto a bouquet whose 2-cells are exactly the
nondegenerate triangles; the generators are the maximal nondegenerate
subcomplexes, i.e. the components of the nondegenerate triangles under
adjacency across surviving (nondegenerate-nondegenerate) edges.

`collapse_extract` is public on purpose, though no CLI command calls it:
it is the collapse that item 5 of the README promises as part of the
library, a step of the paper's argument that callers run on their own
labeled spheres, and the acceptance suite checks its accounting.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InconsistentLabels
from .triangulation import _classes, components

Triangle = tuple[int, int, int]


@dataclass(frozen=True)
class FaceImage:
    """Image data of one nondegenerate triangle: the face it maps onto and
    the images of its three edges (v0v1, v1v2, v2v0)."""

    face: object
    edges: tuple[object, object, object]


@dataclass(frozen=True)
class BouquetGenerator:
    """One sphere of the bouquet: the triangles it consists of."""

    triangles: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.triangles)


def _roots(n: int, joins: list[tuple[int, int]]) -> np.ndarray:
    """The least triangle of each triangle's class under the joins."""
    a, b = np.array(joins, dtype=np.int64).reshape(-1, 2).T
    return components(n, a, b, np.zeros_like(a))[0]


def _check_sphere(triangles: Sequence[Triangle]) -> dict:
    """Each edge in exactly two triangles, connected, Euler characteristic 2."""
    edges: dict[frozenset, list[tuple[int, int]]] = {}
    for ti, tri in enumerate(triangles):
        if len(set(tri)) != 3:
            raise ValueError(f"triangle {ti} repeats a vertex")
        for k in range(3):
            e = frozenset((tri[k], tri[(k + 1) % 3]))
            edges.setdefault(e, []).append((ti, k))
    for e, inc in edges.items():
        if len(inc) != 2:
            raise ValueError(f"edge {sorted(e)} lies in {len(inc)} triangles")
    verts = {v for tri in triangles for v in tri}
    chi = len(verts) - len(edges) + len(triangles)
    if chi != 2:
        raise ValueError(f"Euler characteristic {chi}, expected a sphere")
    if _roots(len(triangles), [(a, b) for (a, _), (b, _) in edges.values()]).any():
        raise ValueError("sphere is not connected")
    return edges


def collapse_extract(
    triangles: Sequence[Triangle],
    image: Sequence[FaceImage | None],
) -> list[BouquetGenerator]:
    """Collapse Degenerate (None-labeled) triangles in listed order and
    return the bouquet generators with their nondegenerate triangle counts.
    """
    triangles = [tuple(t) for t in triangles]
    if len(image) != len(triangles):
        raise InconsistentLabels(
            f"{len(triangles)} triangles but {len(image)} image labels"
        )
    edges = _check_sphere(triangles)

    # labels must agree along every edge shared by two nondegenerate faces
    for e, inc in edges.items():
        (a, ka), (b, kb) = inc
        ia, ib = image[a], image[b]
        if ia is None or ib is None:
            continue
        if ia.edges[ka] != ib.edges[kb]:
            raise InconsistentLabels(
                f"triangles {a} and {b} disagree on edge {sorted(e)}: "
                f"{ia.edges[ka]!r} vs {ib.edges[kb]!r}"
            )

    # Collapsing a closed triangle to a point identifies its vertices and
    # kills its edges; the surviving (nondegenerate-nondegenerate) edges are
    # untouched, so the bouquet pieces are the components of nondegenerate
    # triangles under adjacency across surviving edges.  The listed order
    # only orders the homotopy equivalences; the quotient is order-free.
    root = _roots(len(triangles), [
        (a, b) for (a, _), (b, _) in edges.values()
        if image[a] is not None and image[b] is not None
    ])
    # a degenerate triangle is never joined, so it is a class on its own
    return [
        BouquetGenerator(triangles=tuple(g.tolist()))
        for g in _classes(root)
        if image[g[0]] is not None
    ]
