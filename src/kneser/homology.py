"""Integer homology of the orbit chain complex, via Smith normal form.

The chain groups are free on the vertex/edge/face/tet orbits of the gluing
table; boundary coefficients carry the relative orientation of each incidence
against the orbit representative.  Because valid closed orientable gluings
never identify a cell with itself orientation-reversingly, this is the
cellular chain complex of the quotient CW structure.

H_k needs the rank of d_k and the rank and elementary divisors of d_{k+1}.
Two of the boundary maps need no full matrix (cellular H_1 via spanning
trees, Hatcher, Algebraic Topology, sections 1.2 and 2.2):

- d_1 is a signed incidence matrix of the 1-skeleton, totally unimodular
  with rank V - c, c its number of components: the number of edges in a
  spanning forest, with no elimination.  `triangulation.spanning_forest`
  grows it over the edge orbits, whose ends come off the skeleton's vertex
  array.
- d_2 keeps its rank and divisors when the rows of a spanning forest of the
  1-skeleton and the columns of a spanning forest of the dual graph (tets
  joined by face orbits of two slots) are deleted.  Rows: the image of d_2
  lies in the cycles, and projecting away the forest edges maps the cycles
  isomorphically onto the remaining coordinates (a cycle on a forest is
  zero), a direct summand of C_1.  Columns: peel the dual forest from a
  leaf tet; its parent face occurs once in d_3 of the tet, with
  coefficient +-1, so d_2 d_3 = 0 makes that face's column a unit
  combination of the tet's other faces, and the column lattice is
  unchanged.  What is left is (E - V + c) x (F - T + c), which is
  (T + 1) x (T + 1) for a connected closed triangulation, against the
  (V + T) x 2T of the full d_2.

d_3 (only H_2 needs it) keeps its full matrix.  The entries of d_2 and
d_3, with their orientation signs, are read off the skeleton's per-slot
orbit and direction arrays, its orbit representatives (`edge_first`,
`face_first`) and the table's permutation rows at once, as one (n, 3)
array of (row, col, value); the forests are boolean masks over the edge
and face orbits, and deleting their rows and columns is one mask of the
entries.

Smith normal form runs in three phases, each on what the one before
leaves:

1. A peel in array rounds (Dumas, Saunders and Villard, J. Symb. Comput.
   32, 2001): with repeated entries summed and zeros dropped, every +-1
   entry alone in its row or in its column is a unimodular pivot that
   just deletes its row and column, and pivots that share no row and no
   column commute, so each round takes one per row and column at once.
   On a boundary matrix this takes most of the rank.
2. A sparse elimination over the remaining unit pivots, which never grows
   coefficients: the least-cost pivot first (Markowitz, Management Sci. 3,
   1957) from a heap whose keys are pushed again when their row or column
   changes and are checked again when popped, so no pivot rescans the
   matrix.
3. A textbook integer SNF on the small dense core left.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from math import gcd

import numpy as np

from .triangulation import (
    EDGE_BETWEEN,
    EDGE_VERTICES,
    FACE_VERTICES,
    SkeletonTable,
    Triangulation,
    _firsts,
    skeleton,
    spanning_forest,
)

_EDGE_ENDS = np.array(EDGE_VERTICES)


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


def elementary_divisors(entries, nrows: int, ncols: int) -> tuple[int, list[int]]:
    """Rank and nontrivial elementary divisors (>1) of an integer matrix
    given by its (row, col, value) entries, an (n, 3) array or a sequence
    of triples; repeated entries add up.  Values and their sums must fit
    in int64."""
    r, c, v = _merged(entries)
    rank, (r, c, v) = _peel_units(r, c, v, nrows, ncols)
    pivots, rows = _unit_eliminate(list(zip(r.tolist(), c.tolist(), v.tolist())))
    rank += pivots
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


def _merged(entries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of `entries` with repeated positions summed
    and zeros dropped, ordered by (row, col)."""
    e = np.asarray(entries, dtype=np.int64).reshape(-1, 3)
    bound = (1 << 62) // max(len(e), 1)
    if len(e) and (e[:, 2].max() > bound or e[:, 2].min() < -bound):
        raise OverflowError("entries too large to sum exactly in int64")
    e = e[np.lexsort((e[:, 1], e[:, 0]))]
    r, c = e[:, 0], e[:, 1]
    starts = np.flatnonzero(_firsts(r) | _firsts(c))
    v = np.add.reduceat(e[:, 2], starts) if len(e) else e[:, 2]
    nonzero = v != 0
    return r[starts][nonzero], c[starts][nonzero], v[nonzero]


def _peel_units(r: np.ndarray, c: np.ndarray, v: np.ndarray, nrows: int, ncols: int):
    """Peel, round by round, every +-1 entry alone in its row or in its
    column: row (or column) operations clear the rest of its column (or
    row), so deleting its row and column is a unimodular step that lowers
    the rank by one and keeps the elementary divisors.  Pivots that share
    no row and no column commute, so a round takes one per row and column.
    The entries come ordered by row, and so do the ones returned, with the
    number of pivots."""
    peeled = 0
    unit = (v == 1) | (v == -1)
    while unit.any():
        row_len = np.bincount(r, minlength=nrows)
        col_len = np.bincount(c, minlength=ncols)
        pivots = np.flatnonzero(unit & ((row_len[r] == 1) | (col_len[c] == 1)))
        if not len(pivots):
            break
        # the first pivot in each row, then the first in each column
        pivots = pivots[_firsts(r[pivots])]
        by_col = np.argsort(c[pivots], kind="stable")
        pivots = pivots[by_col[_firsts(c[pivots][by_col])]]
        peeled += len(pivots)
        # a pivot's row and column are marked by a length of -1
        row_len[r[pivots]] = col_len[c[pivots]] = -1
        keep = (row_len[r] >= 0) & (col_len[c] >= 0)
        r, c, v, unit = r[keep], c[keep], v[keep], unit[keep]
    return peeled, (r, c, v)


def _unit_eliminate(entries: list[Entry]) -> tuple[int, dict[int, dict[int, int]]]:
    """Eliminate with +-1 pivots, cheapest fill first: the pivot is the least
    (cost, row, col) over the unit entries, cost being (row length - 1) *
    (column length - 1).  Returns the number of pivots and the rows left.

    Keys wait in a heap.  An entry's key is pushed again whenever its row or
    column changes, and a popped key is used only if it is still current, so
    the first current key popped is the least one."""
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

    def cost(r: int, c: int) -> int:
        return (len(rows[r]) - 1) * (len(cols[c]) - 1)

    heap: list[tuple[int, int, int]] = []

    def push_row(r: int) -> None:
        for c, v in rows[r].items():
            if v in (1, -1):
                heappush(heap, (cost(r, c), r, c))

    def push_col(c: int) -> None:
        for r in cols[c]:
            if rows[r][c] in (1, -1):
                heappush(heap, (cost(r, c), r, c))

    for r in rows:
        push_row(r)
    rank = 0
    while heap:
        key, pr, pc = heappop(heap)
        rowdata = rows.get(pr)
        if rowdata is None or rowdata.get(pc) not in (1, -1) or key != cost(pr, pc):
            continue
        pv = rowdata[pc]
        pivot_row = rows.pop(pr)
        for c in pivot_row:
            cols[c].discard(pr)
        touched = sorted(cols[pc])
        for r in touched:
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
        # row lengths change only in the touched rows, column lengths only
        # in the pivot row's columns
        for r in touched:
            if r in rows:
                push_row(r)
        for c in pivot_row:
            if c != pc:
                push_col(c)
    return rank, rows


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


# _D2_EDGES[f] and _D2_SIGNS: the edges (b, c), (a, c), (a, b) of face f =
# (a, b, c), and their signs in the boundary of the face
_D2_EDGES = np.array([
    [EDGE_BETWEEN[b][c], EDGE_BETWEEN[a][c], EDGE_BETWEEN[a][b]]
    for a, b, c in FACE_VERTICES
])
_D2_SIGNS = np.array([1, -1, 1])


def boundary_entries(tri: Triangulation, k: int) -> tuple[np.ndarray, int, int]:
    """Sparse entries of the boundary map C_k -> C_{k-1} of the orbit complex,
    k in {2, 3} (d_1 needs no matrix, see the module docstring), read off
    the skeleton's slot arrays.

    Returns (entries, nrows, ncols): entries is an (n, 3) int64 array of
    (row, col, value), rows indexed by (k-1)-orbits and columns by
    k-orbits.
    """
    sk = skeleton(tri)
    if k == 2:
        tet, face = np.divmod(sk.face_first, 4)
        edges = _D2_EDGES[face]
        rows = sk.edge_orbit[tet[:, None], edges]
        values = np.where(sk.edge_reversed[tet[:, None], edges], -_D2_SIGNS, _D2_SIGNS)
        cols = np.repeat(np.arange(len(tet)), 3)
        return _entries(rows, cols, values), sk.edge_count, sk.face_count
    if k == 3:
        signs = _face_signs(tri, sk) * np.array([1, -1, 1, -1])
        cols = np.repeat(np.arange(tri.size), 4)
        return _entries(sk.face_orbit, cols, signs), sk.face_count, tri.size
    raise ValueError("k must be 2 or 3")


def _entries(rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> np.ndarray:
    return np.stack((rows.ravel(), cols, values.ravel()), axis=1)


def _face_signs(tri: Triangulation, sk: SkeletonTable) -> np.ndarray:
    """+1/-1 per face slot: does its ascending-vertex orientation match the
    orbit representative's?  At the other slot of a gluing it is the sign
    of the gluing's map between the two faces."""
    reps = np.zeros(4 * tri.size, dtype=bool)
    reps[sk.face_first] = True
    return np.where(reps.reshape(tri.size, 4), 1, tri.arrays.face_signs())


def _forests(tri: Triangulation) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the edge orbits of a spanning forest of the 1-skeleton
    (joining vertex orbits) and of the face orbits of one of the dual graph
    (joining their tets, a boundary face a loop); any spanning forests
    serve."""
    sk = skeleton(tri)
    tet, edge = np.divmod(sk.edge_first, 6)
    ends = sk.vertex_orbit[tet[:, None], _EDGE_ENDS[edge]]
    tet, face = np.divmod(sk.face_first, 4)
    other = tri.arrays.neighbours()[tet, face]
    masks = np.zeros(sk.edge_count, dtype=bool), np.zeros(sk.face_count, dtype=bool)
    for mask, (_, steps) in zip(masks, (
        spanning_forest(sk.vertex_count, *ends.T), spanning_forest(tri.size, tet, other)
    )):
        mask[[i for i, _, _ in steps]] = True
    return masks


def _boundary_invariants(
    tri: Triangulation, k: int, forests: tuple[np.ndarray, np.ndarray]
) -> tuple[int, list[int]]:
    """Rank and nontrivial elementary divisors of the boundary map out of
    C_k, given `_forests(tri)`."""
    edge_forest, face_forest = forests
    if k == 0:
        return 0, []
    if k == 1:
        # a signed incidence matrix: totally unimodular, rank V - c
        return int(edge_forest.sum()), []
    entries, nrows, ncols = boundary_entries(tri, k)
    if k == 2:
        keep = ~edge_forest[entries[:, 0]]
        # the dual-forest argument needs d2 d3 = 0 on every tet
        if skeleton(tri).reversed_edge is None:
            keep &= ~face_forest[entries[:, 1]]
        entries = entries[keep]
    return elementary_divisors(entries, nrows, ncols)


@lru_cache(maxsize=512)
def homology(tri: Triangulation, k: int) -> AbelianInvariants:
    """H_k of the underlying space, k in {0, 1, 2}, exact over Z."""
    if k not in (0, 1, 2):
        raise ValueError("homology implemented for k = 0, 1, 2")
    sk = skeleton(tri)
    forests = _forests(tri)
    rank_k, _ = _boundary_invariants(tri, k, forests)
    rank_k1, torsion = _boundary_invariants(tri, k + 1, forests)
    nk = (sk.vertex_count, sk.edge_count, sk.face_count)[k]
    return AbelianInvariants(rank=nk - rank_k - rank_k1, torsion=tuple(torsion))
