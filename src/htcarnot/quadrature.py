"""Deterministic tensor-product Gauss-Legendre quadrature.

Accumulation order is fixed regardless of chunking or worker count: every
reduction goes through ``pairwise_sum`` on a zero-padded power-of-two tree,
so results are bit-identical across runs and thread counts.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np

CHUNK = 1 << 16


def pairwise_sum(values) -> float:
    """Sum with a fixed binary-tree association order.

    Pads to the next power of two with zeros and folds halves; the result
    depends only on the input sequence, never on chunk boundaries.
    """
    vals = np.asarray(values, dtype=np.float64).ravel()
    if vals.size == 0:
        return 0.0
    n = 1 << (int(vals.size - 1).bit_length())
    if n != vals.size:
        vals = np.concatenate((vals, np.zeros(n - vals.size)))
    else:
        vals = vals.copy()
    while vals.size > 1:
        half = vals.size // 2
        vals = vals[:half] + vals[half:]
    return float(vals[0])


@lru_cache(maxsize=None)
def gauss_legendre(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1]; cached, read-only."""
    if npts < 1:
        raise ValueError("need at least one quadrature point")
    x, w = np.polynomial.legendre.leggauss(npts)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def mapped_rule(lo: float, hi: float, npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [lo, hi]."""
    if not hi > lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    x, w = gauss_legendre(npts)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def grid_chunk(nodes, weights, npts: int, start: int, stop: int):
    """Points and weights for linear indices [start, stop) of the tensor grid.

    The grid is ordered row-major (last axis fastest), so a fixed chunk size
    always slices the same nodes into the same positions.
    """
    dim = len(nodes)
    idx = np.arange(start, stop)
    pts = np.empty((idx.size, dim))
    wts = np.ones(idx.size)
    rem = idx
    for axis in range(dim - 1, -1, -1):
        rem, col = np.divmod(rem, npts)
        pts[:, axis] = nodes[axis][col]
        wts *= weights[axis][col]
    return pts, wts


def _chunk_value(integrand, nodes, weights, npts, start, stop):
    pts, wts = grid_chunk(nodes, weights, npts, start, stop)
    return pairwise_sum(wts * integrand(pts))


def tensor_quadrature(integrand, lower, upper, npts: int,
                      workers: int = 1, chunk: int = CHUNK) -> float:
    """Integrate over the box [lower, upper] with npts Gauss-Legendre points per axis.

    ``integrand`` receives an (m, dim) array of points and must return m
    values.  The full tensor grid is walked in fixed row-major chunks; each
    chunk reduces by pairwise summation and the per-chunk partials reduce the
    same way, so the value is independent of ``chunk`` and ``workers``.
    """
    lower = np.atleast_1d(np.asarray(lower, dtype=np.float64))
    upper = np.atleast_1d(np.asarray(upper, dtype=np.float64))
    if lower.shape != upper.shape or lower.ndim != 1:
        raise ValueError("lower and upper must be equal-length vectors")
    dim = lower.size
    rules = [mapped_rule(lower[i], upper[i], npts) for i in range(dim)]
    nodes = [r[0] for r in rules]
    weights = [r[1] for r in rules]
    total = npts**dim
    spans = [(s, min(s + chunk, total)) for s in range(0, total, chunk)]

    def run(span):
        return _chunk_value(integrand, nodes, weights, npts, *span)

    if workers > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(run, spans))
    else:
        partials = [run(s) for s in spans]
    return pairwise_sum(partials)
