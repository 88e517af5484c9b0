"""Counter-based Brownian increment streams.

Every stochastic run in the package draws its randomness through a
stream addressed by (seed, path_index, tag).  Streams with different
addresses are statistically independent (distinct Philox keys derived via
SeedSequence spawn keys), and a stream is a pure function of its address:
re-creating it and drawing the same number of values replays the exact
bit pattern.  increments draws the (steps, P, m) array of one noise
family for P paths, from one seed for all of them or one seed each; the
kernels take that array, and a coupling that drives two systems with
"the same" Brownian motion hands both the one array.

Gaussians come from an explicit Box-Muller transform over raw 64-bit
Philox output rather than Generator.standard_normal, so this file alone
fixes which counter positions feed each normal deviate: each normal
consumes exactly two raw words.  The bits of a deviate also depend on
numpy's float64 log and cos on the host, which differ between SIMD code
paths by up to 2 ulp; on one host, the same draw sequence gives the same
bits.

increments draws in blocks of at most _BLOCK_WORDS raw words: as many
whole streams as fit, or a stream too long for one block in pieces of
whole steps.  Each block gets one Box-Muller pass, and its normals are
scaled by sqrt(dt) straight into their places in the step-major output,
so no per-path buffer or transposed copy is made.  The block is kept
small so that its temporaries stay under glibc's mmap threshold: at
2^17 words every pass mapped fresh pages.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np
from numpy.random import Philox, SeedSequence

from .errors import DomainError, UsageError
from .segment import _whole

W1 = "W1"
W2 = "W2"

_TAG_CODES = {W1: 1, W2: 2}

_U53 = 2.0 ** -53

# Raw words per Box-Muller pass of increments (128 KiB).
_BLOCK_WORDS = 2 ** 14


def _tag_code(tag: str) -> int:
    if tag not in _TAG_CODES:
        raise UsageError(f"unknown stream tag {tag!r}; expected one of {sorted(_TAG_CODES)}")
    return _TAG_CODES[tag]


def _philox(seed: int, path_index: int, code: int) -> Philox:
    # Philox keys itself from the sequence's generate_state(2, np.uint64)
    # with a zero counter; passing that key instead would also draw an
    # unused OS-entropy SeedSequence for every stream.
    return Philox(SeedSequence(seed, spawn_key=(path_index, code)))


def _box_muller(raw: np.ndarray) -> np.ndarray:
    """One standard normal per pair of raw words, in order."""
    # Top 53 bits, shifted into (0, 1] so log never sees zero.
    u1 = ((raw[0::2] >> np.uint64(11)) + np.uint64(1)) * _U53
    u2 = ((raw[1::2] >> np.uint64(11)) + np.uint64(1)) * _U53
    # sqrt(-2 log u1) * cos(2 pi u2), the same products in place.
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= 2.0 * np.pi
    np.cos(u2, out=u2)
    u1 *= u2
    return u1


class NoiseStream:
    """Deterministic N(0,1) source for one (seed, path, tag) address.

    Draws only move forward.  There is deliberately no seek: resuming a
    stream means rebuilding it and replaying, which keeps the counter
    bookkeeping impossible to get subtly wrong.
    """

    __slots__ = ("_bits",)

    def __init__(self, seed: int, path_index: int, tag: str):
        code = _tag_code(tag)
        seed, path_index = _whole(seed, "seed"), _whole(path_index, "path_index")
        self._bits = _philox(seed, path_index, code)

    def normals(self, count: int) -> np.ndarray:
        """Draw count standard normals, two raw words each."""
        if _whole(count, "count") == 0:
            return np.empty(0)
        return _box_muller(self._bits.random_raw(2 * count))


def increments(seed, indices, tag: str, m: int, steps: int, dt: float) -> np.ndarray:
    """C-contiguous Brownian increments over steps of length dt, shape (steps, len(indices), m).

    Column p comes from stream (seed[p], indices[p], tag); a single
    integer seed stands for that seed in every column.  Column p equals
    NoiseStream(seed[p], indices[p], tag).normals(steps * m) taken
    step-major and times sqrt(dt), bit for bit.
    """
    code = _tag_code(tag)
    indices = [_whole(i, "path index") for i in indices]
    if not indices:
        raise UsageError("need at least one path index, got none")
    if isinstance(seed, Iterable):
        seeds = [_whole(s, "seed") for s in seed]
        if len(seeds) != len(indices):
            raise UsageError(f"{len(seeds)} seeds for {len(indices)} path indices")
    else:
        seeds = [_whole(seed, "seed")] * len(indices)
    m, steps = _whole(m, "noise dimension m"), _whole(steps, "steps")
    if m < 1:
        raise DomainError(f"noise dimension m must be >= 1, got {m}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise DomainError(f"dt must be positive and finite, got {dt}")
    out = np.empty((steps, len(indices), m))
    scale = np.sqrt(dt)
    span = max(1, min(steps, _BLOCK_WORDS // (2 * m)))  # steps of a stream per block
    width = max(1, _BLOCK_WORDS // (2 * m * span))  # streams per block
    for p in range(0, len(indices), width):
        streams = [_philox(s, i, code) for s, i in zip(seeds[p: p + width], indices[p: p + width])]
        for k in range(0, steps, span):
            words = 2 * m * min(span, steps - k)
            z = _box_muller(np.concatenate([bits.random_raw(words) for bits in streams]))
            np.multiply(z.reshape(len(streams), -1, m).swapaxes(0, 1), scale,
                        out=out[k: k + span, p: p + len(streams)])
    return out
