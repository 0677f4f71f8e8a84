"""The 64-bit integer mix behind the engine's deterministic hash decisions."""

from __future__ import annotations

import numpy as np


def fmix64(x) -> np.ndarray:
    """murmur3's fmix64 finalizer over ``x`` as uint64 (two's complement
    for signed input); returns a new uint64 array."""
    h = np.asarray(x).astype(np.uint64)
    with np.errstate(over="ignore"):
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xC4CEB9FE1A85EC53)
        h ^= h >> np.uint64(33)
    return h
