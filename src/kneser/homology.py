"""Integer homology of the orbit chain complex, via Smith normal form.

The chain groups are free on the vertex/edge/face/tet orbits of the gluing
table; boundary coefficients carry the relative orientation of each incidence
against the orbit representative.  Because valid closed orientable gluings
never identify a cell with itself orientation-reversingly, this is the
cellular chain complex of the quotient CW structure.

Smith normal form runs in two phases: a sparse elimination over unit pivots
(which is all a boundary matrix usually needs and never grows coefficients),
then a textbook integer SNF on the small remaining core.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .triangulation import (
    EDGE_INDEX,
    EDGE_VERTICES,
    FACE_VERTICES,
    Triangulation,
    perm_sign,
    skeleton,
)


@dataclass(frozen=True)
class AbelianInvariants:
    """Finitely generated abelian group: Z^rank + sum of Z/d, d in torsion."""

    rank: int
    torsion: tuple[int, ...]

    def __str__(self) -> str:
        parts = [f"Z^{self.rank}"] if self.rank else []
        parts += [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"

    @property
    def trivial(self) -> bool:
        return self.rank == 0 and not self.torsion


Entry = tuple[int, int, int]  # (row, col, value)


def elementary_divisors(entries: list[Entry], nrows: int, ncols: int) -> tuple[int, list[int]]:
    """Rank and nontrivial elementary divisors (>1) of an integer matrix."""
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for r, c, v in entries:
        if v == 0:
            continue
        rows.setdefault(r, {})
        rows[r][c] = rows[r].get(c, 0) + v
        if rows[r][c] == 0:
            del rows[r][c]
    for r in list(rows):
        if not rows[r]:
            del rows[r]
    for r, rowdata in rows.items():
        for c in rowdata:
            cols.setdefault(c, set()).add(r)

    rank = 0
    # Sparse phase: eliminate with +-1 pivots, cheapest fill first.
    while True:
        best = None
        for r, rowdata in rows.items():
            rcost = len(rowdata) - 1
            for c, v in rowdata.items():
                if v in (1, -1):
                    cost = rcost * (len(cols[c]) - 1)
                    key = (cost, r, c)
                    if best is None or key < best:
                        best = key
        if best is None:
            break
        _, pr, pc = best
        pv = rows[pr][pc]
        pivot_row = rows.pop(pr)
        for c in pivot_row:
            cols[c].discard(pr)
        for r in sorted(cols[pc]):
            factor = rows[r][pc] * pv  # pv in {1,-1}: exact quotient
            for c, v in pivot_row.items():
                new = rows[r].get(c, 0) - factor * v
                if new == 0:
                    rows[r].pop(c, None)
                    cols[c].discard(r)
                else:
                    if c not in rows[r]:
                        cols.setdefault(c, set()).add(r)
                    rows[r][c] = new
            if not rows[r]:
                del rows[r]
        cols.pop(pc, None)
        rank += 1

    if not rows:
        return rank, []

    # Dense phase on the remaining core.
    live_rows = sorted(rows)
    live_cols = sorted({c for rd in rows.values() for c in rd})
    core = [[rows[r].get(c, 0) for c in live_cols] for r in live_rows]
    divisors = _dense_snf(core)
    rank += len(divisors)
    nontrivial = sorted(d for d in divisors if d > 1)
    return rank, nontrivial


def _dense_snf(m: list[list[int]]) -> list[int]:
    """Nonzero diagonal of the Smith form of a small dense integer matrix."""
    nr = len(m)
    nc = len(m[0]) if nr else 0
    diag: list[int] = []
    top = 0
    while True:
        best = None
        for i in range(top, nr):
            for j in range(top, nc):
                v = abs(m[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        _, bi, bj = best
        m[top], m[bi] = m[bi], m[top]
        for row in m:
            row[top], row[bj] = row[bj], row[top]
        while True:
            p = m[top][top]
            done = True
            for i in range(top + 1, nr):
                if m[i][top] % p:
                    done = False
                q = m[i][top] // p
                if q:
                    for j in range(top, nc):
                        m[i][j] -= q * m[top][j]
            for j in range(top + 1, nc):
                if m[top][j] % p:
                    done = False
                q = m[top][j] // p
                if q:
                    for i in range(top, nr):
                        m[i][j] -= q * m[i][top]
            if all(m[i][top] == 0 for i in range(top + 1, nr)) and all(
                m[top][j] == 0 for j in range(top + 1, nc)
            ):
                if done:
                    break
                continue
            # a smaller remainder appeared somewhere in the pivot row/col
            best = None
            for i in range(top, nr):
                v = abs(m[i][top])
                if v and (best is None or v < best[0]):
                    best = (v, i, top)
            for j in range(top, nc):
                v = abs(m[top][j])
                if v and (best is None or v < best[0]):
                    best = (v, top, j)
            _, bi, bj = best
            m[top], m[bi] = m[bi], m[top]
            for row in m:
                row[top], row[bj] = row[bj], row[top]
        diag.append(abs(m[top][top]))
        top += 1
        if top >= nr or top >= nc:
            break
    # Enforce the divisibility chain d1 | d2 | ... by gcd/lcm swaps.
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a:
                g = gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
    return diag


def boundary_entries(tri: Triangulation, k: int) -> tuple[list[Entry], int, int]:
    """Sparse entries of the boundary map C_k -> C_{k-1} of the orbit complex.

    Returns (entries, nrows, ncols) with rows indexed by (k-1)-orbits and
    columns by k-orbits.
    """
    sk = skeleton(tri)
    if k == 0:
        return [], 0, sk.vertex_count
    if k == 1:
        entries = []
        for idx, orbit in enumerate(sk.edge_orbits):
            tet, e = orbit[0]
            u, v = EDGE_VERTICES[e]
            head = sk.vertex_orbit_of[(tet, v)]
            tail = sk.vertex_orbit_of[(tet, u)]
            entries.append((head, idx, 1))
            entries.append((tail, idx, -1))
        return entries, sk.vertex_count, sk.edge_count
    if k == 2:
        entries = []
        for idx, orbit in enumerate(sk.face_orbits):
            tet, f = orbit[0]
            a, b, c = FACE_VERTICES[f]
            for sign, (u, v) in ((1, (b, c)), (-1, (a, c)), (1, (a, b))):
                e = EDGE_INDEX[frozenset((u, v))]
                eidx, reversed_ = sk.edge_orbit_of[(tet, e)]
                entries.append((eidx, idx, -sign if reversed_ else sign))
        return entries, sk.edge_count, sk.face_count
    if k == 3:
        entries = []
        rel = _face_orientation_table(tri)
        for i in range(tri.size):
            for f in range(4):
                fidx = sk.face_orbit_of[(i, f)]
                sign = (-1) ** f * rel[(i, f)]
                entries.append((fidx, i, sign))
        return entries, sk.face_count, tri.size
    raise ValueError("k must be 0, 1, 2 or 3")


def _face_orientation_table(tri: Triangulation) -> dict[tuple[int, int], int]:
    """+1/-1 per face slot: does its ascending-vertex orientation match the
    orbit representative's?"""
    sk = skeleton(tri)
    rel: dict[tuple[int, int], int] = {}
    for orbit in sk.face_orbits:
        rep = orbit[0]
        rel[rep] = 1
        if len(orbit) == 1:
            continue
        tet, f = rep
        g = tri.gluings[tet][f]
        if g is None:
            continue
        images = [g.perm[v] for v in FACE_VERTICES[f]]
        rel[(g.tet, g.face)] = perm_sign(images)
    return rel


@lru_cache(maxsize=512)
def homology(tri: Triangulation, k: int) -> AbelianInvariants:
    """H_k of the underlying space, k in {0, 1, 2}, exact over Z."""
    if k not in (0, 1, 2):
        raise ValueError("homology implemented for k = 0, 1, 2")
    ek, nr_k, nk = boundary_entries(tri, k)
    rank_k, _ = elementary_divisors(ek, nr_k, nk)
    ek1, nr1, nc1 = boundary_entries(tri, k + 1)
    rank_k1, torsion = elementary_divisors(ek1, nr1, nc1)
    betti = nk - rank_k - rank_k1
    return AbelianInvariants(rank=betti, torsion=tuple(torsion))
