"""Vertex normal surfaces by the double description method, over exact ints.

The output is the sorted list of admissible vertex rays of the standard
cone {x >= 0, Mx = 0} for the matching matrix M, each gcd-reduced.  It is
computed in two double-description phases that share one step function,
`_step`: a quad phase in the 3t quad coordinates, then a conversion phase
that cuts the lifted quad cone down to the standard cone, one triangle
coordinate at a time (Tollefson, "Normal surface Q-theory", 1998; Burton,
"Converting between quadrilateral and standard solution sets", 2009).

Vertex-link trees.  Every matching row reads t_a + q_b = t_c + q_d, with
a, c triangle and b, d quad coordinates.  Taken as edges between triangle
coordinates, the rows split the 4t triangle coordinates into one connected
component per vertex link.  A breadth-first tree of each component, rooted
at its least coordinate, writes every triangle coordinate as its root's
value plus an integer linear form in the quads, one tree edge
t_c = t_a + q_b - q_d at a time.  With every root at 0 these forms are the
lift matrix L (7t x 3t, the identity on the quad columns).  A quad vector q
lifts to a solution of Mx = 0 iff the propagation closes up on every
non-tree row r, that is iff M_r L q = 0.  So the nonzero rows M_r L,
gcd-reduced, sign-fixed and deduplicated (the Q-matching rows), cut out
exactly the projection of ker M onto quad space, and every x in ker M is
L q plus a combination of the vertex links (1 on the triangles of one
link, 0 elsewhere).

Quad phase.  The cone {q >= 0, Eq = 0} for the Q-matching rows E is cut
from the nonnegative orthant (extreme rays: unit vectors) by one row at a
time: a step keeps the rays on the hyperplane and adds the combinations of
the adjacent (pos, neg) pairs.  The rows are taken in a banded order, by
their last nonzero column, then most zeros first (Burton, "Optimizing the
double description method for normal surface enumeration", Math. Comp. 79,
2010): rows that reach only the first tetrahedra are cut while the other
quad coordinates are still unit vectors.

Lift.  P0 = {x : Mx = 0, quads >= 0, roots >= 0} is pointed, and the quads
and roots are coordinates on it, so its extreme rays are the lifts L q of
the quad vertex rays and the vertex links.  Each lift and each link is
checked to satisfy Mx = 0 exactly; a failure raises
`ConsistencyCheckFailed`.  A lift contains q, so it is integral and
primitive when q is.

Conversion phase.  Each non-root triangle coordinate i, in index order, is
cut as the half space x_i >= 0: the rays with x_i >= 0 stay, and the
adjacent (pos, neg) pairs add their combinations, which lie on x_i = 0.  A
coordinate with no negative entry cuts nothing.  After the last cut the
cone is {x >= 0, Mx = 0}, so the rays left are its admissible extreme rays,
the set a double description in standard coordinates gives, and they are
sorted.

Pruning and adjacency.  Rays violating the quad constraint are discarded as
soon as they appear, in both phases: admissibility only depends on the quad
support, and a combination's quad support is the union of its parents', so
every admissible extreme ray of each intermediate cone is still generated.
A ray's support is the set of inequalities it does not meet with equality:
its nonzero quads in the quad phase, and its nonzero quads, roots and
already-cut triangle coordinates in the conversion phase.  Supports are
packed into uint64 words, and the quad bits into ceil(t/21) uint64 words,
three bits per tetrahedron (one word up to the default budget of 20
tetrahedra).  For each step the pos x neg pairs are tested in blocks, and
no temporary of the pair tests holds more than `_CHUNK` elements:

- a pair is admissible iff no tetrahedron has two quad types in the union
  of its quad bits: with a, b, c the three types' bits shifted onto one
  lane, (a & b) | (a & c) | (b & c) == 0;
- an admissible pair u, v is adjacent iff no third ray has its support
  inside U = supp(u) | supp(v).  Any such ray has its quad bits inside U,
  so it is admissible and was kept: the test is exact on the pruned sets.
  In both phases the rays held after each step are the admissible extreme
  rays of a pointed cone, and an extreme ray is fixed by the inequalities
  it meets with equality, so no two rays share a support.  The rays are
  scanned in tiles of isqrt(`_CHUNK`), fewest nonzero entries first, and a
  pair drops out at the first tile holding more rays with support inside U
  than the ones of u, v it holds, which settles most pairs within the
  first tile.

The gcd-reduced combinations of the adjacent pairs fill one array sized by
the pair count, a block of at most `_CHUNK` elements at a time, after the
rays kept.  Each adjacent (pos, neg) pair spans its own 2-face of the cone
before the cut, and its combination lies inside that face, so no
combination repeats another or a kept ray (Fukuda & Prodon, "Double
description method revisited", 1996).  The order in which rays are produced
cannot change the output: the rays kept after each step are a set, and the
adjacency test depends on that set and not on the scan order.  The output
is sorted as tuples, and two equal neighbours raise
`ConsistencyCheckFailed`.  `MAX_RAYS` bounds the work of both phases: a step
about to write more rows raises `BudgetExceeded` before it allocates them.

The rays are the rows of one 2-D integer array, widened once its bound
calls for it so that no value ever wraps.  With top the largest absolute
value of an entry (conversion rays carry negative triangle entries, so it
may be a negative one) and s = sum |a_j| for the next constraint a, every
dot product is at most top * s and every combination at most
2 * top**2 * s in absolute value.  The rows are int32 while that bound is
below 2**31, int64 while it is below 2**63, and Python ints in an object
array beyond.  The lifts are computed in int64, or in Python ints when
their own bound calls for it, and narrowed by the same rule (s = 1 for a
half space).  No intermediate entry exceeds 3 in absolute value on the
corpus and rp3#rp3 (6 on rp3#rp3#rp3), so int32 is the working dtype.

Each surviving ray is finally re-checked to span an extreme ray (the linear
space of solutions vanishing outside its support must be 1-dimensional), so
correctness does not rest on the insertion heuristic.  The check has three
tiers.  After an exact M vec = 0 test it takes the rank over GF(2) of the
support columns, each column's parities packed into one Python int and
inserted into an XOR basis; then, if that leaves a nullity above 1, the rank
modulo the prime `_PRIME`.  A rank modulo a prime never exceeds the rational
rank, since a minor that is nonzero modulo the prime is a nonzero integer.
So nullity 1 modulo 2 or p bounds the rational nullity by 1, and a nonzero
`vec` with M vec = 0 bounds it from below: the two together prove nullity 1.
Every other case is decided by exact fraction-free (Bareiss) elimination.
GF(2) decides every ray of the connected sums of the decompose benchmark,
and all but 54 of the 1969 of rp3#rp3#rp3.
"""
from __future__ import annotations

from math import isqrt
from typing import Iterator, Sequence

import numpy as np

from .errors import BudgetExceeded, ConsistencyCheckFailed
from .normal import (
    NormalCoordinates,
    coordinate_table,
    matching_system,
)
from .triangulation import Triangulation, skeleton, spanning_forest

DEFAULT_BUDGET = 20
# Most rows a double-description step may write.
MAX_RAYS = 100_000

# Largest number of elements in any numpy temporary of the pair tests.
_CHUNK = 1 << 14
# 2**31 - 1: residues below it multiply to less than 2**62 in int64.
_PRIME = 2_147_483_647
# Tetrahedra per quad word: three bits each, and `_LANE` marks their first.
_TETS_PER_WORD = 21
_LANE = np.uint64(sum(1 << (3 * i) for i in range(_TETS_PER_WORD)))
# Rays are int32 while every combination of the next step stays below
# `_INT32_LIMIT` in absolute value, int64 while it stays below
# `_INT64_LIMIT`, and Python ints in an object array beyond.
_INT32_LIMIT = 1 << 31
_INT64_LIMIT = 1 << 63


def _rank_mod_2(m: np.ndarray) -> int:
    """Rank over GF(2) of the columns of the integer matrix `m`.  Each
    column's parities are packed into one int and inserted into an XOR
    basis keyed by the leading bit."""
    width = max(1, -(-len(m) // 8))
    packed = np.packbits(m.T & 1, axis=1).tobytes()
    basis: dict[int, int] = {}
    for start in range(0, len(packed), width):
        v = int.from_bytes(packed[start:start + width], "big")
        while v:
            lead = v.bit_length()
            if lead not in basis:
                basis[lead] = v
                break
            v ^= basis[lead]
    return len(basis)


def _rank_mod_p(m: np.ndarray) -> int:
    """Rank of the integer matrix `m` modulo `_PRIME`.  Each nonzero row in
    turn pivots on its first nonzero column, and only the later rows with
    an entry there are updated."""
    p = _PRIME
    m = m % p
    rank = 0
    while len(m):
        top, m = m[0], m[1:]
        lead = top.nonzero()[0]
        if len(lead):
            col = lead[0]
            hit = m[:, col].nonzero()[0]
            rows = m[hit]
            m[hit] = (rows * top[col] - rows[:, col, None] * top) % p
            rank += 1
    return rank


def _exact_rank(rows: list[list[int]]) -> int:
    """Rank of `rows` over the rationals, by fraction-free (Bareiss)
    elimination: every entry stays an integer minor of the input."""
    m = [list(r) for r in rows]
    rank, prev = 0, 1
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        pv = top[col]
        for i in range(rank + 1, len(m)):
            mi = m[i][col]
            m[i] = [(pv * x - mi * y) // prev for x, y in zip(m[i], top)]
        prev = pv
        rank += 1
    return rank


def is_vertex_ray(matching: Sequence[Sequence[int]], vec: tuple[int, ...]) -> bool:
    """True iff {x : Mx = 0, x zero outside supp(vec)} is 1-dimensional.

    Three tiers, cheapest first.  When M vec = 0 exactly, the nullity of
    the support columns is at least 1, and a rank modulo 2, then modulo
    `_PRIME`, that leaves nullity 1 proves it: a minor that is nonzero
    modulo a prime is a nonzero integer, so no modular rank exceeds the
    rational one.  Every other case is decided by exact elimination."""
    cols = [i for i, x in enumerate(vec) if x]
    if not cols:
        return False
    sub = np.asarray(matching, dtype=np.int64)[:, cols]
    sub = sub[sub.any(axis=1)]
    values = [vec[c] for c in cols]
    # int64 products stay exact for entries below 2**31 and small matching rows
    exact = np.int64 if max(map(abs, values)) < _INT32_LIMIT else object
    kernel = not (sub @ np.array(values, dtype=exact)).any()
    # a support usually meets more matching rows than it has columns, and
    # the mod-p elimination takes one step per row of its input
    if kernel and (
        len(cols) - _rank_mod_2(sub) == 1 or len(cols) - _rank_mod_p(sub.T) == 1
    ):
        return True
    return len(cols) - _exact_rank(sub.tolist()) == 1


def _admissible_block(
    quads: np.ndarray, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of u x v, as two index arrays in row-major order, whose
    union has at most one quad type in every tetrahedron."""
    ok = np.ones((len(u), len(v)), dtype=bool)
    for word in quads:
        # with a, b, c the bits of one tetrahedron's quad types, lane bit 3i
        # of q & (q >> 1) is a & b, of q & (q >> 2) is a & c, and of
        # (q & (q >> 1)) >> 1 is b & c; shifted in place, at most three
        # blocks are alive at once
        q = word[u][:, None] | word[v][None, :]
        ab = q >> 1
        ab &= q
        q &= q >> 2
        q |= ab
        ab >>= 1
        q |= ab
        q &= _LANE
        ok &= q == 0
    i, j = np.nonzero(ok)
    return u[i], v[j]


def _admissible_pairs(
    quads: np.ndarray, pos: np.ndarray, neg: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The admissible pos x neg pairs, one block of at most `_CHUNK` pairs
    at a time."""
    cols = min(len(neg), _CHUNK)
    rows = max(1, _CHUNK // cols)
    for r0 in range(0, len(pos), rows):
        u = pos[r0:r0 + rows]
        for c0 in range(0, len(neg), cols):
            us, vs = _admissible_block(quads, u, neg[c0:c0 + cols])
            if len(us):
                yield us, vs


def _adjacent_pairs(
    words: np.ndarray, order: np.ndarray, us: np.ndarray, vs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (us[i], vs[i]) with no third ray whose support lies inside
    supp(u) | supp(v); no two rays share a support.  The rays are scanned
    in `order`, a tile at a time, and a pair is dropped at the first tile
    holding a third ray."""
    tile = isqrt(_CHUNK)
    unions = [w[us] | w[vs] for w in words]
    member = np.zeros(len(order), dtype=np.intp)
    live = np.arange(len(us))
    for r0 in range(0, len(order), tile):
        block = order[r0:r0 + tile]
        step = _CHUNK // len(block)
        cols = [w[block] for w in words]
        member[block] = 1
        own = member[us[live]] + member[vs[live]]
        member[block] = 0
        inside = np.empty(len(live), dtype=np.intp)
        for k0 in range(0, len(live), step):
            union = [x[live[k0:k0 + step], None] for x in unions]
            hit = (cols[0] | union[0]) == union[0]
            for col, word in zip(cols[1:], union[1:]):
                hit &= (col | word) == word
            inside[k0:k0 + step] = hit.sum(axis=1)
        live = live[inside == own]
        if not len(live):
            break
    return us[live], vs[live]


def _combine(
    rays: np.ndarray, dots: np.ndarray, us: np.ndarray, vs: np.ndarray, z: int
) -> np.ndarray:
    """One row per pair (us[i], vs[i]): for the first `z` pairs, kept rays
    paired with themselves, a copy of the ray, and for the rest
    the gcd-reduced combination dots[u] * rays[v] - dots[v] * rays[u],
    written in blocks of at most `_CHUNK` elements."""
    out = np.empty((len(us), rays.shape[1]), dtype=rays.dtype)
    out[:z] = rays[us[:z]]
    step = max(1, _CHUNK // rays.shape[1])
    for r0 in range(z, len(us), step):
        u, v = us[r0:r0 + step], vs[r0:r0 + step]
        block = out[r0:r0 + step]
        np.multiply(rays[v], dots[u, None], out=block)
        block -= rays[u] * dots[v, None]
        block //= np.gcd.reduce(block, axis=1)[:, None]
    return out


def _packed(mask: np.ndarray, width: int) -> np.ndarray:
    """The rows of the boolean matrix `mask` packed `width` columns to a
    uint64 word, columns width*w .. width*w + width - 1 into bits 0 ..
    width - 1 of word w; shape (words, rows)."""
    rows, cols = mask.shape
    count = -(-cols // width)
    bits = np.zeros((rows, count * width), dtype=np.uint64)
    bits[:, :cols] = mask
    shifts = np.arange(width, dtype=np.uint64)
    words = (bits.reshape(rows, count, width) << shifts).sum(axis=2, dtype=np.uint64)
    return np.ascontiguousarray(words.T)


def _magnitude(rays: np.ndarray) -> int:
    """The largest absolute value of an entry of `rays`."""
    return max(int(rays.max(initial=0)), -int(rays.min(initial=0)))


def _dtype_for(bound: int, dtype: np.dtype) -> np.dtype:
    """The narrowest of int32, int64 and object, no narrower than `dtype`,
    whose values stay below `bound` in absolute value."""
    if dtype == np.int32 and bound >= _INT32_LIMIT:
        dtype = np.dtype(np.int64)
    if dtype == np.int64 and bound >= _INT64_LIMIT:
        dtype = np.dtype(object)
    return dtype


def _widened(rays: np.ndarray, a: Sequence[int]) -> np.ndarray:
    """`rays` in a dtype that holds every dot product with the constraint
    `a` and every combination it makes.  With top the largest absolute
    value of an entry and s = sum |a_j|, |dot| <= top * s and
    |comb| <= 2 * top**2 * s."""
    bound = 2 * _magnitude(rays) ** 2 * sum(map(abs, a))
    return rays.astype(_dtype_for(bound, rays.dtype), copy=False)


def _step(
    rays: np.ndarray,
    words: np.ndarray,
    quads: np.ndarray,
    dots: np.ndarray,
    keep: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One double-description step.  `dots` holds each ray's value on the
    new constraint and `keep` the rays that meet it: on the hyperplane for
    an equation, on its nonnegative side for a half space.  Returns the kept
    rays and the gcd-reduced combinations of the admissible adjacent
    (pos, neg) pairs, with their support and quad words over the
    constraints cut before this one.  Each pair spans its own 2-face, so no
    combination repeats another or a kept ray."""
    pos = (dots > 0).nonzero()[0]
    neg = (dots < 0).nonzero()[0]
    # each new ray remembers the two rays its support is the union of
    us, vs = [keep], [keep]
    if len(pos) and len(neg):
        # small supports first: they are the likeliest third supports
        order = np.argsort(np.count_nonzero(rays, axis=1), kind="stable")
        for pairs in _admissible_pairs(quads, pos, neg):
            u, v = _adjacent_pairs(words, order, *pairs)
            us.append(u)
            vs.append(v)
    us, vs = np.concatenate(us), np.concatenate(vs)
    if len(us) > MAX_RAYS:
        raise BudgetExceeded(
            f"a double-description step would write {len(us)} rays, "
            f"above the work budget of {MAX_RAYS}"
        )
    rays = _combine(rays, dots, us, vs, len(keep))
    return rays, words[:, us] | words[:, vs], quads[:, us] | quads[:, vs]


def _link_forest(
    tri: Triangulation,
) -> tuple[list[int], list[tuple[int, int, int, int]], list[int]]:
    """Breadth-first spanning trees of the vertex links (`spanning_forest`),
    with the triangle coordinates as nodes and the rows of
    `coordinate_table(tri).matching` as edges.  Returns the roots, each the
    least coordinate of its link; the tree steps (child, parent, plus,
    minus) in breadth-first order, each meaning t_child = t_parent +
    x[plus] - x[minus]; and the indices of the rows that are not tree
    edges."""
    matching = coordinate_table(tri).matching
    # a quad coordinate is on no row's ends, so it is a tree of its own
    roots, tree = spanning_forest(7 * tri.size, matching[:, 0], matching[:, 2])
    rows = matching.tolist()
    steps = []
    for r, parent, _ in tree:
        a, b, c, d = rows[r]
        # t_a + q_b = t_c + q_d, read from whichever end is known
        steps.append((c, parent, b, d) if parent == a else (a, parent, d, b))
    taken = {r for r, _, _ in tree}
    loose = [r for r in range(len(rows)) if r not in taken]
    return [x for x in roots if x % 7 < 4], steps, loose


def _quad_columns(ntet: int) -> np.ndarray:
    """The standard coordinates of the quads, in quad-space order."""
    return np.arange(7 * ntet).reshape(ntet, 7)[:, 4:].ravel()


def _propagated(rays: np.ndarray, steps: Sequence[tuple[int, int, int, int]]) -> np.ndarray:
    """`rays` (standard coordinates, roots and quads set) with every other
    triangle column filled in, one column operation per tree step."""
    for child, parent, plus, minus in steps:
        rays[:, child] = rays[:, parent] + rays[:, plus] - rays[:, minus]
    return rays


def _quad_rows(
    ntet: int,
    matching: np.ndarray,
    steps: Sequence[tuple[int, int, int, int]],
    loose: Sequence[int],
) -> list[tuple[int, ...]]:
    """The Q-matching rows: the nonzero forms M_r L of the non-tree rows r,
    each divided by its gcd with its first nonzero entry positive, without
    duplicates, by last nonzero column, then most zeros first."""
    # row j of `forms` lifts the j-th quad unit vector, so its column x is
    # entry j of the form of coordinate x
    forms = np.zeros((3 * ntet, 7 * ntet), dtype=np.int64)
    forms[np.arange(3 * ntet), _quad_columns(ntet)] = 1
    forms = _propagated(forms, steps)
    rows = set()
    for form in matching[loose] @ forms.T:
        g = int(np.gcd.reduce(form))
        if g:
            form = form // g
            if form[form.nonzero()[0][0]] < 0:
                form = -form
            rows.add(tuple(form.tolist()))
    # banded insertion order; full row as deterministic tiebreak
    return sorted(rows, key=lambda r: (
        max(c for c, x in enumerate(r) if x), sum(1 for x in r if x), r
    ))


def _lifted(
    tri: Triangulation,
    quad_rays: np.ndarray,
    roots: Sequence[int],
    steps: Sequence[tuple[int, int, int, int]],
    matching: np.ndarray,
) -> np.ndarray:
    """The extreme rays of P0 in standard coordinates: every quad ray lifted
    with its roots at 0, then the vertex links in the order of their roots,
    each checked against every matching row.  The check ties the lift to
    the forms that gave the Q-matching rows, which were propagated
    separately.  Exact: the array is int64 while the lifts and the check
    stay below 2**63, Python ints beyond."""
    # each tree step adds at most 2 * top, and a matching row sums four entries
    bound = 4 * (2 * len(steps) + 1) * _magnitude(quad_rays)
    exact = np.int64 if bound < _INT64_LIMIT else object
    rays = np.zeros((len(quad_rays) + len(roots), 7 * tri.size), dtype=exact)
    rays[:len(quad_rays), _quad_columns(tri.size)] = quad_rays
    rays[range(len(quad_rays), len(rays)), roots] = 1
    rays = _propagated(rays, steps)
    if (rays @ matching.T.astype(exact)).any():
        raise ConsistencyCheckFailed(
            "a lifted quad vertex ray or vertex link fails the matching equations"
        )
    return rays


def enumerate_vertex_solutions(
    tri: Triangulation, budget: int = DEFAULT_BUDGET
) -> list[NormalCoordinates]:
    """All admissible vertex rays of the matching cone, gcd-reduced and
    sorted lexicographically."""
    if tri.size > budget:
        raise BudgetExceeded(
            f"{tri.size} tetrahedra exceeds the enumeration budget {budget}"
        )
    matching = matching_system(tri)  # raises NotClosed on an open tri
    roots, steps, loose = _link_forest(tri)
    vertices = skeleton(tri).vertex_count
    if len(roots) != vertices:
        raise ConsistencyCheckFailed(
            f"{len(roots)} vertex-link trees for {vertices} vertices"
        )

    # quad phase: {q >= 0, Eq = 0} from the unit vectors, one Q-matching row
    # at a time
    rays = np.eye(3 * tri.size, dtype=np.int32)
    words, quads = _packed(rays != 0, 64), _packed(rays != 0, 3 * _TETS_PER_WORD)
    for a in _quad_rows(tri.size, matching, steps, loose):
        rays = _widened(rays, a)
        dots = rays @ np.array(a, dtype=rays.dtype)
        rays, words, quads = _step(rays, words, quads, dots, (dots == 0).nonzero()[0])

    # conversion phase: from the extreme rays of P0, cut x_i >= 0 for every
    # triangle coordinate i that is not a root
    rays = _lifted(tri, rays, roots, steps, matching)
    rays = rays.astype(_dtype_for(2 * _magnitude(rays) ** 2, np.dtype(np.int32)))
    quad = _quad_columns(tri.size)
    cut = np.zeros(7 * tri.size, dtype=bool)
    cut[quad] = cut[roots] = True
    words = _packed((rays != 0) & cut, 64)
    quads = _packed(rays[:, quad] != 0, 3 * _TETS_PER_WORD)
    for i in (~cut).nonzero()[0].tolist():
        if (rays[:, i] < 0).any():
            rays = _widened(rays, (1,))
            dots = rays[:, i]
            rays, words, quads = _step(rays, words, quads, dots, (dots >= 0).nonzero()[0])
        words[i // 64] |= (rays[:, i] > 0).astype(np.uint64) << np.uint64(i % 64)

    rays = sorted(map(tuple, rays.tolist()))
    if any(a == b for a, b in zip(rays, rays[1:])):
        raise ConsistencyCheckFailed("the double description holds a ray twice")
    return [vec for vec in rays if is_vertex_ray(matching, vec)]
