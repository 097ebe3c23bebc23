"""Seeded, counter-based random streams.

Every stochastic routine in the package draws from a Philox generator keyed
by ``(seed, stream)``.  Philox is counter-based, so independent substreams
are cheap and the draws of one stream never depend on how another stream is
consumed.  With a fixed seed, every run of the library is bit-reproducible.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 0xC4A07


def check_seed(seed) -> int:
    """Return seed as an int; ValueError unless it is an integer in [0, 2**64)."""
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool) \
            and 0 <= seed < 2**64:
        return int(seed)
    raise ValueError(f"seed must be an integer >= 0 and < 2**64, got {seed!r}")


def generator(seed: int = DEFAULT_SEED, stream: int = 0) -> np.random.Generator:
    """Return the Generator for the given seed and stream index."""
    key = np.array([check_seed(seed), stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
