"""Vertex normal surfaces by the double description method, over exact ints.

The solution cone is {x >= 0, Mx = 0} for the matching matrix M.  We start
from the nonnegative orthant (extreme rays: unit vectors) and cut with one
matching hyperplane at a time.  Rays violating the quad constraint are
discarded as soon as they appear: admissibility only depends on the support,
and the support of a combination is the union of its parents' supports, so
every admissible extreme ray of the final cone still gets generated and the
combinatorial adjacency test stays exact on the pruned sets.

The rays are the rows of one 2-D integer array.  Before each hyperplane a,
the array is widened once its bound calls for it, so that no value ever
wraps: with top the largest entry and s = sum |a_j|, every dot product is
at most top * s and every combination at most 2 * top**2 * s in absolute
value, and the rows are int32 while that bound is below 2**31, int64 while
it is below 2**63, and Python ints in an object array beyond.  No
intermediate entry exceeds 6 on the corpus and rp3#rp3, so int32 is the
working dtype.

Each ray's support is packed into ceil(7t/64) uint64 words, and its quad
bits into ceil(t/21) uint64 words, three bits per tetrahedron (one word up
to the default budget of 20 tetrahedra).  For each hyperplane the pos x neg
pairs are tested in blocks, and no temporary of the pair tests holds more
than `_CHUNK` elements:

- a pair is admissible iff no tetrahedron has two quad types in the union
  of its quad bits: with a, b, c the three types' bits shifted onto one
  lane, (a & b) | (a & c) | (b & c) == 0;
- an admissible pair u, v is adjacent iff no third support lies inside
  U = supp(u) | supp(v): no ray whose support is inside U and is neither
  supp(u) nor supp(v).  Supports need not be distinct, so the test counts
  the rays with support inside U and compares the count with the number of
  rays whose support is supp(u) or supp(v).  The rays are scanned in tiles
  of isqrt(`_CHUNK`), smallest supports first, and a pair drops out at the
  first tile whose two counts differ, which settles most pairs within the
  first tile.

The gcd-reduced combinations of the adjacent pairs fill one array sized by
the adjacent-pair count, a block of at most `_CHUNK` elements at a time,
after the rays that lie on the hyperplane.  A stable lexsort and a
comparison of neighbouring rows drop duplicates; rows are nonnegative, so
this order is the order of the coordinate tuples.  The order in which rays
are produced cannot change the output: the rays kept after each
hyperplane are a set, stored sorted, the adjacency test depends on that set
and not on the scan order, and a duplicate's support is the support of the
vector itself, so which copy's parents give the support words changes
nothing.  `MAX_RAYS` bounds the work: a run whose ray set outgrows it after
any hyperplane raises `BudgetExceeded`.

Each surviving ray is finally re-checked to span an extreme ray (the linear
space of solutions vanishing outside its support must be 1-dimensional), so
correctness does not rest on the insertion heuristic.  The check first takes
the rank modulo the prime `_PRIME`.  Rank mod p never exceeds the rational
rank, so nullity 1 mod p bounds the rational nullity by 1, and a nonzero
`vec` with M vec = 0 bounds it from below: the two together prove nullity 1.
Every other case is decided by exact fraction-free (Bareiss) elimination.
"""
from __future__ import annotations

from math import isqrt
from typing import Iterator, Sequence

import numpy as np

from .errors import BudgetExceeded
from .normal import NormalCoordinates, matching_system, require_closed
from .triangulation import Triangulation

DEFAULT_BUDGET = 20
# Most intermediate rays a run may hold after any hyperplane.
MAX_RAYS = 100_000

# Largest number of elements in any numpy temporary of the pair tests.
_CHUNK = 1 << 14
# 2**31 - 1: residues below it multiply to less than 2**62 in int64.
_PRIME = 2_147_483_647
# Tetrahedra per quad word: three bits each, and `_LANE` marks their first.
_TETS_PER_WORD = 21
_LANE = np.uint64(sum(1 << (3 * i) for i in range(_TETS_PER_WORD)))
# Rays are int32 while every combination of the next hyperplane stays below
# `_INT32_LIMIT` in absolute value, int64 while it stays below
# `_INT64_LIMIT`, and Python ints in an object array beyond.
_INT32_LIMIT = 1 << 31
_INT64_LIMIT = 1 << 63


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
    """True iff {x : Mx = 0, x zero outside supp(vec)} is 1-dimensional."""
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
    # the elimination takes one step per row of its input
    if kernel and len(cols) - _rank_mod_p(sub.T) == 1:
        return True
    return len(cols) - _exact_rank(sub.tolist()) == 1


def _unit_supports(ntet: int) -> tuple[np.ndarray, np.ndarray]:
    """Packed support words, shape (ceil(7t/64), 7t), and quad words, shape
    (ceil(t/21), 7t), of the unit vectors e_0 .. e_{7t-1}."""
    n = 7 * ntet
    index = np.arange(n)
    words = np.zeros((-(-n // 64), n), dtype=np.uint64)
    words[index // 64, index] = np.uint64(1) << (index % 64).astype(np.uint64)
    quads = np.zeros((-(-ntet // _TETS_PER_WORD), n), dtype=np.uint64)
    quad = index[index % 7 >= 4]
    word, lane = np.divmod(quad // 7, _TETS_PER_WORD)
    quads[word, quad] = np.uint64(1) << (3 * lane + quad % 7 - 4).astype(np.uint64)
    return words, quads


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
    words: np.ndarray,
    kind: np.ndarray,
    order: np.ndarray,
    us: np.ndarray,
    vs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (us[i], vs[i]) with no third support inside their union,
    that is no ray whose support lies in supp(u) | supp(v) and is neither
    supp(u) nor supp(v) (`kind` numbers the distinct supports).  The rays
    are scanned in `order`, a tile at a time, and a pair is dropped at the
    first tile holding a third support."""
    tile = isqrt(_CHUNK)
    unions = [w[us] | w[vs] for w in words]
    ku, kv = kind[us], kind[vs]
    live = np.arange(len(us))
    for r0 in range(0, len(order), tile):
        block = order[r0:r0 + tile]
        step = _CHUNK // len(block)
        cols = [w[block] for w in words]
        present = np.bincount(kind[block], minlength=len(kind))
        own = present[ku[live]] + np.where(
            ku[live] == kv[live], 0, present[kv[live]]
        )
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


def _widened(rays: np.ndarray, a: Sequence[int]) -> np.ndarray:
    """`rays` in a dtype that holds every dot product with the hyperplane
    `a` and every combination it makes.  With top the largest entry and
    s = sum |a_j|, |dot| <= top * s and |comb| <= 2 * top**2 * s."""
    bound = 2 * int(rays.max(initial=0)) ** 2 * sum(map(abs, a))
    if rays.dtype == np.int32 and bound >= _INT32_LIMIT:
        rays = rays.astype(np.int64)
    if rays.dtype == np.int64 and bound >= _INT64_LIMIT:
        rays = rays.astype(object)
    return rays


def _combine(
    rays: np.ndarray, dots: np.ndarray, us: np.ndarray, vs: np.ndarray, z: int
) -> np.ndarray:
    """One row per pair (us[i], vs[i]): for the first `z` pairs, rays on the
    hyperplane paired with themselves, a copy of the ray, and for the rest
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


def _first_copies(rays: np.ndarray) -> np.ndarray:
    """Indices of the first copy of each distinct row, in lexicographic
    order of the rows."""
    order = np.lexsort(rays.T[::-1])
    first = np.ones(len(order), dtype=bool)
    # neighbours in that order are compared a block of rows at a time, so
    # no sorted copy of `rays` is made
    step = max(1, _CHUNK // rays.shape[1])
    for r0 in range(1, len(order), step):
        rows = order[r0:r0 + step]
        before = order[r0 - 1:r0 - 1 + len(rows)]
        first[r0:r0 + step] = (rays[rows] != rays[before]).any(axis=1)
    return order[first]


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

    rays = np.eye(n, dtype=np.int32)
    words, quads = _unit_supports(tri.size)

    rows = [r for r in matching if any(r)]
    # most-zeros-first insertion heuristic; full row as deterministic tiebreak
    rows.sort(key=lambda r: (sum(1 for c in r if c), r))

    for a in rows:
        rays = _widened(rays, a)
        dots = rays @ np.array(a, dtype=rays.dtype)
        zero = (dots == 0).nonzero()[0]
        pos = (dots > 0).nonzero()[0]
        neg = (dots < 0).nonzero()[0]
        # each new ray remembers the two rays its support is the union of
        us, vs = [zero], [zero]
        if len(pos) and len(neg):
            numbers: dict[tuple[int, ...], int] = {}
            supports = zip(*words.tolist())
            kind = np.array([numbers.setdefault(s, len(numbers)) for s in supports])
            # small supports first: they are the likeliest third supports
            order = np.argsort(np.count_nonzero(rays, axis=1), kind="stable")
            for pairs in _admissible_pairs(quads, pos, neg):
                u, v = _adjacent_pairs(words, kind, order, *pairs)
                us.append(u)
                vs.append(v)
        us, vs = np.concatenate(us), np.concatenate(vs)
        if len(us) > len(zero):
            rays = _combine(rays, dots, us, vs, len(zero))
            first = _first_copies(rays)
            rays, us, vs = rays[first], us[first], vs[first]
        else:  # rows of a sorted set of distinct rows stay sorted and distinct
            rays = rays[zero]
        words = words[:, us] | words[:, vs]
        quads = quads[:, us] | quads[:, vs]
        if len(rays) > MAX_RAYS:
            raise BudgetExceeded(
                f"the double description reached {len(rays)} intermediate rays, "
                f"above the work budget of {MAX_RAYS}"
            )

    matching = np.array(matching, dtype=np.int64)
    return [vec for vec in map(tuple, rays.tolist()) if is_vertex_ray(matching, vec)]
