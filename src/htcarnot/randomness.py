"""Seeded, counter-based random streams.

Every stochastic routine in the package draws from a Philox generator keyed
by ``(seed, stream)``.  Philox is counter-based, so independent substreams
are cheap and the draws of one stream never depend on how another stream is
consumed.  With a fixed seed, every run of the library is bit-reproducible.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 0xC4A07


def generator(seed: int = DEFAULT_SEED, stream: int = 0) -> np.random.Generator:
    """Return the Generator for the given seed and stream index."""
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Uniform random direction on the unit sphere of R^dim."""
    w = rng.standard_normal(dim)
    n = np.linalg.norm(w)
    while n == 0.0:  # essentially impossible, but keeps the contract total
        w = rng.standard_normal(dim)
        n = np.linalg.norm(w)
    return w / n
