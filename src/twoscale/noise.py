"""Counter-based Brownian increment streams.

Every stochastic run in the package draws its randomness through a
NoiseStream addressed by (seed, path_index, tag).  Streams with different
addresses are statistically independent (distinct Philox keys derived via
SeedSequence spawn keys), and a stream is a pure function of its address:
re-creating it and drawing the same number of values replays the exact
bit pattern.  That replay property is what the coupling constructions
rely on, e.g. driving a pair of systems with "the same" Brownian motion
means giving both simulations streams with the same address.

Gaussians come from an explicit Box-Muller transform over raw 64-bit
Philox output rather than Generator.standard_normal, so the mapping from
counter position to normal deviate is fixed by this file alone and each
normal consumes exactly two raw words.  Positions therefore never drift
between runs or platforms as long as the draw sequence is the same.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Philox, SeedSequence

from .errors import DomainError, UsageError

W1 = "W1"
W2 = "W2"

_TAG_CODES = {W1: 1, W2: 2}

_U53 = 2.0 ** -53


class NoiseStream:
    """Deterministic N(0,1) source for one (seed, path, tag) address.

    position counts Gaussians drawn so far; it only moves forward.  There
    is deliberately no seek: resuming a stream means rebuilding it and
    replaying, which keeps the counter bookkeeping impossible to get
    subtly wrong.
    """

    __slots__ = ("seed", "path_index", "tag", "m", "position", "_bits")

    def __init__(self, seed: int, path_index: int, tag: str, m: int = 1):
        if tag not in _TAG_CODES:
            raise UsageError(f"unknown stream tag {tag!r}; expected one of {sorted(_TAG_CODES)}")
        if path_index < 0:
            raise DomainError(f"path_index must be >= 0, got {path_index}")
        if m < 1:
            raise DomainError(f"noise dimension m must be >= 1, got {m}")
        self.seed = int(seed)
        self.path_index = int(path_index)
        self.tag = tag
        self.m = int(m)
        self.position = 0
        # Philox keys itself from the sequence's generate_state(2, np.uint64)
        # with a zero counter; passing that key instead would also draw an
        # unused OS-entropy SeedSequence for every stream.
        self._bits = Philox(SeedSequence(self.seed,
                                         spawn_key=(self.path_index, _TAG_CODES[tag])))

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
        z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        self.position += count
        return z


def gaussian_increments(stream: NoiseStream, count: int, dt: float) -> np.ndarray:
    """count Brownian increments over steps of length dt, shape (count, m)."""
    if dt <= 0.0:
        raise DomainError(f"dt must be positive, got {dt}")
    if count < 0:
        raise DomainError(f"count must be >= 0, got {count}")
    if count == 0:
        return np.empty((0, stream.m))
    z = stream.normals(count * stream.m).reshape(count, stream.m)
    return z * np.sqrt(dt)


def fast_increments(stream: NoiseStream, count: int, dt: float, epsilon: float) -> np.ndarray:
    """Increments of the accelerated motion: gaussian_increments / sqrt(epsilon).

    epsilon = 1 reproduces gaussian_increments bit for bit (the scale
    factor is exactly 1.0).
    """
    if epsilon <= 0.0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    return gaussian_increments(stream, count, dt) * (epsilon ** -0.5)


@dataclass(frozen=True)
class StreamFactory:
    """Hands out streams for one experiment seed and noise dimension."""

    seed: int
    m: int = 1

    def stream(self, path_index: int, tag: str) -> NoiseStream:
        return NoiseStream(self.seed, path_index, tag, self.m)
