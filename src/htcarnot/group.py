"""The Lie group layer in exponential coordinates.

Points live in R^k x R^p as (x, z).  The product is the step-2
Baker-Campbell-Hausdorff formula; its quadratic correction is the unique one
making the frame returned by :func:`frame_fields` left-invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .structure import StructureConstants


@dataclass(frozen=True, eq=False)
class GroupPoint:
    x: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=np.float64))
        z = np.atleast_1d(np.asarray(self.z, dtype=np.float64))
        if not all(map(math.isfinite, x.tolist() + z.tolist())):
            raise ValueError(f"point coordinates must be finite, got x={x}, z={z}")
        x.flags.writeable = False
        z.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)

    def as_vector(self) -> np.ndarray:
        return np.concatenate((self.x, self.z))

    @staticmethod
    def from_vector(w, rank: int) -> "GroupPoint":
        w = np.asarray(w, dtype=np.float64)
        return GroupPoint(w[:rank], w[rank:])

    def __repr__(self):
        return f"GroupPoint(x={self.x.tolist()}, z={self.z.tolist()})"


def _check_point(sc: StructureConstants, p: GroupPoint):
    if p.x.shape != (sc.rank,) or p.z.shape != (sc.corank,):
        raise DimensionMismatch(
            f"point has shapes x{p.x.shape}, z{p.z.shape}; expected "
            f"({sc.rank},), ({sc.corank},)"
        )


def identity(sc: StructureConstants) -> GroupPoint:
    return GroupPoint(np.zeros(sc.rank), np.zeros(sc.corank))


def multiply(sc: StructureConstants, p_left: GroupPoint, p_right: GroupPoint) -> GroupPoint:
    """Group product. The z-correction +(1/2) x^T L^a x' is fixed by left-invariance."""
    _check_point(sc, p_left)
    _check_point(sc, p_right)
    x, xp = p_left.x, p_right.x
    corr = 0.5 * np.vecdot(sc.L @ xp, x)
    return GroupPoint(x + xp, p_left.z + p_right.z + corr)


def inverse(p: GroupPoint) -> GroupPoint:
    return GroupPoint(-p.x, -p.z)


def dilate(eps: float, p: GroupPoint) -> GroupPoint:
    """Anisotropic dilation (x, z) -> (eps x, eps^2 z)."""
    eps = float(eps)
    if eps <= 0:
        raise ValueError(f"dilation factor must be positive, got {eps}")
    return GroupPoint(eps * p.x, eps * eps * p.z)


def frame_fields(sc: StructureConstants, p: GroupPoint) -> list[np.ndarray]:
    """The orthonormal left-invariant horizontal frame at p, as coordinate vectors.

    X_i(p) = e_i - (1/2) sum_a (L^a x)_i e_{z_a}, so the list has k entries of
    length n = k + p each.
    """
    _check_point(sc, p)
    k = sc.rank
    lx = sc.L @ p.x  # (p, k); row a holds L^a x
    return list(np.hstack((np.eye(k), -0.5 * lx.T)))


def translation_differential(sc: StructureConstants, p_left: GroupPoint) -> np.ndarray:
    """Differential of the left translation q -> p_left * q, an n x n matrix.

    Closed form from the quadratic group law: identity on x and z blocks,
    with d z''_a / d x'_j = (1/2) (x^T L^a)_j in the lower-left block.
    """
    _check_point(sc, p_left)
    k = sc.rank
    out = np.eye(sc.dim)
    out[k:, :k] = 0.5 * (p_left.x @ sc.L)
    return out
