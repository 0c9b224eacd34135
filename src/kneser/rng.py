"""Counter-based deterministic random sampling (Philox 2x32-10).

Every draw is a pure function of (seed, sample index, draw index), so
results are reproducible bit-for-bit regardless of chunking or thread
count.  Sample i of a stream uses counter-high = i, and its rejection
attempt j uses counter-low values 2j and 2j + 1 (rejection sampling never
disturbs other samples' streams).  ball_samples draws the attempts of all
pending samples in rounds, one Philox call each, and keeps each sample's
first accepted attempt: the same point that drawing the attempts one at a
time would keep.
"""
from __future__ import annotations

import numpy as np

PHILOX_M = np.uint64(0xD2511F53)
PHILOX_W = np.uint32(0x9E3779B9)
_U32 = np.uint64(0xFFFFFFFF)

# An attempt is accepted with probability pi/6, so a sample needs 1.9 on
# average.  A round costs about the same up to some thousands of attempts,
# so it draws _ROUND // pending attempts of each pending sample, at least
# one and at most _BATCH: up to 512 pending samples get eight each, and
# each is done in that round with probability 1 - (1 - pi/6)^8 > 99.7%,
# while a full slice gets one each, near what it needs.
_BATCH = 8
_ROUND = 4096
_MAX_ATTEMPTS = 64
# samples per slice: a round draws at most 2 * max(_SLICE, _ROUND) Philox
# counters, so its uint64 arrays stay at 128 KB whatever the count
_SLICE = 8192


def _fold_seed(seed: int) -> np.uint32:
    seed &= (1 << 64) - 1
    return np.uint32((seed ^ (seed >> 32)) & 0xFFFFFFFF)


def philox2x32(lo: np.ndarray, hi: np.ndarray, key: np.uint32):
    """Vectorized Philox 2x32, 10 rounds; lo/hi are uint32 arrays."""
    ctr_lo = lo.astype(np.uint64)
    ctr_hi = hi.astype(np.uint64)
    product = np.empty_like(ctr_lo)
    k = np.uint64(key)
    for _ in range(10):
        # in place: the next (lo, hi) is (hi(M lo) ^ k ^ hi, lo(M lo)), and
        # hi(M lo) ^ k ^ hi needs no mask, as each term is below 2^32
        np.multiply(ctr_lo, PHILOX_M, out=product)
        np.right_shift(product, np.uint64(32), out=ctr_lo)
        ctr_lo ^= ctr_hi
        ctr_lo ^= k
        np.bitwise_and(product, _U32, out=ctr_hi)
        k = (k + np.uint64(PHILOX_W)) & _U32
    return ctr_lo.astype(np.uint32), ctr_hi.astype(np.uint32)


def _to_unit(u32: np.ndarray) -> np.ndarray:
    """uint32 -> (0, 1), strictly inside by the half-step offset."""
    return (u32.astype(np.float64) + 0.5) / 4294967296.0


def ball_samples(seed: int, start: int, count: int, radius: float) -> np.ndarray:
    """Uniform points in the open ball B(0, radius): rows start..start+count-1
    of the stream determined by seed.

    Attempt j of sample i is a point of the cube, x and y from counter
    (2j, i) and z from counter (2j + 1, i); the sample is its first attempt
    inside the ball.  The samples go in slices of _SLICE.  A round draws
    the next attempts of every pending sample of a slice in one philox2x32
    call, _ROUND // pending of them but at least one and at most _BATCH.
    Raises RuntimeError if a sample has none among its first
    _MAX_ATTEMPTS."""
    key = _fold_seed(seed)
    out = np.zeros((count, 3))
    for first in range(0, count, _SLICE):
        _fill_slice(out[first:first + _SLICE], key, start + first, radius)
    return out


def _fill_slice(out, key, start, radius):
    """Rows start..start+len(out)-1 of ball_samples' stream, into out."""
    pending = np.arange(len(out), dtype=np.int64)
    first = 0
    while pending.size and first < _MAX_ATTEMPTS:
        size = min(_BATCH, max(1, _ROUND // pending.size), _MAX_ATTEMPTS - first)
        # counter-low 2j and 2j + 1 of each attempt j of the round
        lo = np.arange(2 * first, 2 * (first + size), dtype=np.uint32)
        idx = (pending + start).astype(np.uint32)
        a, b = philox2x32(np.tile(lo, pending.size), np.repeat(idx, 2 * size), key)
        a, b = a.reshape(pending.size, size, 2), b.reshape(pending.size, size, 2)
        x = (2.0 * _to_unit(a[:, :, 0]) - 1.0) * radius
        y = (2.0 * _to_unit(b[:, :, 0]) - 1.0) * radius
        z = (2.0 * _to_unit(a[:, :, 1]) - 1.0) * radius
        ok = x * x + y * y + z * z < radius * radius
        hit = ok.any(axis=1)
        rows = np.flatnonzero(hit)
        j = ok[rows].argmax(axis=1)
        out[pending[rows]] = np.stack([x[rows, j], y[rows, j], z[rows, j]], axis=1)
        pending = pending[~hit]
        first += size
    if pending.size:  # pragma: no cover - astronomically unlikely
        raise RuntimeError("ball rejection sampling failed to converge")
