"""Deterministic tensor-product Gauss-Legendre quadrature.

Every reduction goes through ``pairwise_sum`` (or its row-wise form
``pairwise_sums``) on a zero-padded power-of-two tree, so results depend
only on the summands and are bit-identical across runs.  ``NODE_BUDGET``
caps the size of every grid before it is allocated.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

NODE_BUDGET = 1 << 22


def require_node_budget(npts: int, dim: int) -> None:
    """Raise ValueError when an npts^dim tensor grid exceeds NODE_BUDGET nodes."""
    nodes = npts**dim
    if nodes > NODE_BUDGET:
        raise ValueError(
            f"{npts} points per axis in {dim} dimensions make {nodes} nodes, "
            f"above the budget of {NODE_BUDGET} nodes per grid"
        )


def pairwise_sums(values) -> np.ndarray:
    """Pairwise sums along the last axis; each row sums as ``pairwise_sum`` would."""
    vals = np.asarray(values, dtype=np.float64)
    size = vals.shape[-1]
    if size == 0:
        return np.zeros(vals.shape[:-1])
    n = 1 << (int(size - 1).bit_length())
    if n != size:
        vals = np.concatenate((vals, np.zeros(vals.shape[:-1] + (n - size,))), axis=-1)
    else:
        vals = vals.copy()
    while vals.shape[-1] > 1:
        half = vals.shape[-1] // 2
        vals = vals[..., :half] + vals[..., half:]
    return vals[..., 0]


def pairwise_sum(values) -> float:
    """Sum with a fixed binary-tree association order.

    Pads to the next power of two with zeros and folds halves; the result
    depends only on the input sequence.
    """
    return float(pairwise_sums(np.ravel(values)))


@lru_cache(maxsize=None)
def gauss_legendre(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1]; cached, read-only.

    The rule solves an npts x npts eigenproblem, so npts^2 must stay within
    NODE_BUDGET.
    """
    if npts < 1:
        raise ValueError("need at least one quadrature point")
    if npts * npts > NODE_BUDGET:
        raise ValueError(
            f"{npts} Gauss-Legendre points need an {npts} x {npts} eigenproblem, "
            f"above the budget of {NODE_BUDGET} entries"
        )
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


def tensor_squares(lower, upper, npts: int, groups):
    """Weights of the npts^dim Gauss-Legendre rule on [lower, upper], and for
    each group of axes the sum of squared nodes over that group, per node.

    Nodes are ordered row-major (last axis fastest); each weight is the
    product of its axis weights, multiplied in from the last axis to the
    first, and each sum adds its axes in the group's order.  Both are built
    by outer products, without a point array.
    """
    dim = len(lower)
    require_node_budget(npts, dim)
    rules = [mapped_rule(lo, hi, npts) for lo, hi in zip(lower, upper)]
    wts = rules[-1][1]
    for _, w in rules[-2::-1]:
        wts = np.multiply.outer(w, wts).ravel()
    shape = (npts,) * dim

    def squares(c):
        x = rules[c][0]
        return (x * x).reshape([npts if j == c else 1 for j in range(dim)])

    sums = [np.broadcast_to(sum(map(squares, group), 0.0), shape).ravel() for group in groups]
    return wts, sums
