"""Vertex normal surfaces by the double description method, over exact ints.

The solution cone is {x >= 0, Mx = 0} for the matching matrix M.  We start
from the nonnegative orthant (extreme rays: unit vectors) and cut with one
matching hyperplane at a time.  Rays violating the quad constraint are
discarded as soon as they appear: admissibility only depends on the support,
and the support of a combination is the union of its parents' supports, so
every admissible extreme ray of the final cone still gets generated and the
combinatorial adjacency test stays exact on the pruned sets.

Each surviving ray is finally re-checked to span an extreme ray (the linear
space of solutions vanishing outside its support must be 1-dimensional), so
correctness does not rest on the insertion heuristic.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import BudgetExceeded
from .normal import NormalCoordinates, matching_system, quad_index, require_closed
from .triangulation import Triangulation

DEFAULT_BUDGET = 20


def _forbidden_quad_masks(ntet: int) -> list[int]:
    """Bitmasks of quad-coordinate pairs that may not both be present."""
    masks = []
    for i in range(ntet):
        q = [1 << quad_index(i, j) for j in range(3)]
        masks += [q[0] | q[1], q[0] | q[2], q[1] | q[2]]
    return masks


def _admissible(support: int, forbidden: list[int]) -> bool:
    return all((support & m) != m for m in forbidden)


def _reduce(vec: list[int]) -> tuple[int, ...]:
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g > 1:
        return tuple(x // g for x in vec)
    return tuple(vec)


def rank_of_columns(rows: Sequence[Sequence[int]], cols: list[int]) -> int:
    """Exact rank of the submatrix of `rows` on the given columns."""
    m = [[Fraction(r[c]) for c in cols] for r in rows if any(r[c] for c in cols)]
    rank = 0
    ncols = len(cols)
    row = 0
    for col in range(ncols):
        pivot = None
        for i in range(row, len(m)):
            if m[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        for i in range(len(m)):
            if i != row and m[i][col] != 0:
                factor = m[i][col] / pv
                for j in range(col, ncols):
                    m[i][j] -= factor * m[row][j]
        row += 1
        rank += 1
        if row == len(m):
            break
    return rank


def is_vertex_ray(matching: Sequence[Sequence[int]], vec: tuple[int, ...]) -> bool:
    """True iff {x : Mx = 0, x zero outside supp(vec)} is 1-dimensional."""
    cols = [i for i, x in enumerate(vec) if x]
    if not cols:
        return False
    return len(cols) - rank_of_columns(matching, cols) == 1


def enumerate_vertex_solutions(
    tri: Triangulation, budget: int = DEFAULT_BUDGET
) -> list[NormalCoordinates]:
    """All admissible vertex rays of the matching cone, gcd-reduced and
    sorted lexicographically."""
    if tri.size > budget:
        raise BudgetExceeded(
            f"{tri.size} tetrahedra exceeds the enumeration budget {budget}"
        )
    require_closed(tri)
    matching = matching_system(tri)
    n = 7 * tri.size
    forbidden = _forbidden_quad_masks(tri.size)

    rays: list[tuple[tuple[int, ...], int]] = []
    for i in range(n):
        vec = [0] * n
        vec[i] = 1
        rays.append((tuple(vec), 1 << i))

    rows = [r for r in matching if any(r)]
    # most-zeros-first insertion heuristic; full row as deterministic tiebreak
    rows.sort(key=lambda r: (sum(1 for c in r if c), r))

    for a in rows:
        zero: list[tuple[tuple[int, ...], int]] = []
        pos: list[tuple[tuple[int, ...], int, int]] = []
        neg: list[tuple[tuple[int, ...], int, int]] = []
        for vec, supp in rays:
            d = sum(c * x for c, x in zip(a, vec) if c)
            if d == 0:
                zero.append((vec, supp))
            elif d > 0:
                pos.append((vec, supp, d))
            else:
                neg.append((vec, supp, d))
        supports = [supp for _, supp in rays]
        new: dict[tuple[int, ...], int] = {vec: supp for vec, supp in zero}
        for uvec, usupp, du in pos:
            for vvec, vsupp, dv in neg:
                union = usupp | vsupp
                if not _admissible(union, forbidden):
                    continue
                if not _adjacent(usupp, vsupp, union, supports):
                    continue
                comb = [du * y - dv * x for x, y in zip(uvec, vvec)]
                vec = _reduce(comb)
                new.setdefault(vec, union)
        rays = sorted(new.items())

    out = [vec for vec, _ in rays if is_vertex_ray(matching, vec)]
    out.sort()
    return out


def _adjacent(usupp: int, vsupp: int, union: int, supports: list[int]) -> bool:
    for w in supports:
        if w != usupp and w != vsupp and (w | union) == union:
            return False
    return True
