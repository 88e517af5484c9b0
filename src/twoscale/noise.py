"""Counter-based Brownian increment streams.

Every stochastic run in the package draws its randomness through a
NoiseStream addressed by (seed, path_index, tag).  Streams with different
addresses are statistically independent (distinct Philox keys derived via
SeedSequence spawn keys), and a stream is a pure function of its address:
re-creating it and drawing the same number of values replays the exact
bit pattern.  increments draws the (steps, P, m) array of one noise
family for P paths; the kernels take that array, and a coupling that
drives two systems with "the same" Brownian motion hands both the one
array.

Gaussians come from an explicit Box-Muller transform over raw 64-bit
Philox output rather than Generator.standard_normal, so this file alone
fixes which counter positions feed each normal deviate: each normal
consumes exactly two raw words.  The bits of a deviate also depend on
numpy's float64 log and cos on the host, which differ between SIMD code
paths by up to 2 ulp; on one host, the same draw sequence gives the same
bits.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Philox, SeedSequence

from .errors import DomainError, UsageError

W1 = "W1"
W2 = "W2"

_TAG_CODES = {W1: 1, W2: 2}

_U53 = 2.0 ** -53


class NoiseStream:
    """Deterministic N(0,1) source for one (seed, path, tag) address.

    Draws only move forward.  There is deliberately no seek: resuming a
    stream means rebuilding it and replaying, which keeps the counter
    bookkeeping impossible to get subtly wrong.
    """

    __slots__ = ("m", "_bits")

    def __init__(self, seed: int, path_index: int, tag: str, m: int = 1):
        if tag not in _TAG_CODES:
            raise UsageError(f"unknown stream tag {tag!r}; expected one of {sorted(_TAG_CODES)}")
        if path_index < 0:
            raise DomainError(f"path_index must be >= 0, got {path_index}")
        if m < 1:
            raise DomainError(f"noise dimension m must be >= 1, got {m}")
        self.m = int(m)
        # Philox keys itself from the sequence's generate_state(2, np.uint64)
        # with a zero counter; passing that key instead would also draw an
        # unused OS-entropy SeedSequence for every stream.
        self._bits = Philox(SeedSequence(int(seed),
                                         spawn_key=(int(path_index), _TAG_CODES[tag])))

    def normals(self, count: int) -> np.ndarray:
        """Draw count standard normals, two raw words each."""
        if count < 0:
            raise DomainError(f"count must be >= 0, got {count}")
        if count == 0:
            return np.empty(0)
        raw = self._bits.random_raw(2 * count)
        # Top 53 bits, shifted into (0, 1] so log never sees zero.
        u1 = ((raw[0::2] >> np.uint64(11)) + np.uint64(1)) * _U53
        u2 = ((raw[1::2] >> np.uint64(11)) + np.uint64(1)) * _U53
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def increments(seed: int, indices, tag: str, m: int, steps: int, dt: float) -> np.ndarray:
    """C-contiguous Brownian increments over steps of length dt, shape (steps, len(indices), m).

    Column p comes from stream (seed, indices[p], tag).
    """
    if dt <= 0.0:
        raise DomainError(f"dt must be positive, got {dt}")
    if len(indices) == 0:
        raise UsageError("need at least one path index, got none")
    out = np.empty((len(indices), steps * m))
    for p, i in enumerate(indices):
        out[p] = NoiseStream(seed, i, tag, m).normals(steps * m)
    out *= np.sqrt(dt)
    return np.ascontiguousarray(out.reshape(len(indices), steps, m).transpose(1, 0, 2))
