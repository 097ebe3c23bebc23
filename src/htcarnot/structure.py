"""Structure constants of generalized H-type groups.

A group here is encoded by a diagonal non-negative operator ``S`` acting on
the horizontal layer R^k together with ``p`` skew-symmetric matrices ``L^a``
satisfying the Clifford-type relations

    L_v L_w + L_w L_v = -2 <v, w> S^2        for all v, w in R^p,

where ``L_v = sum_a v_a L^a``.  This module builds such families in normal
form (kernel block first, then eigenvalue blocks of increasing alpha),
validates user-supplied matrices, and exposes the Hurwitz-Radon bound that
governs which (rank, corank, spectrum) combinations are realizable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionMismatch, SpecNotRealizable, StructureInvalid
from .randomness import DEFAULT_SEED, generator, unit_vector

# The 2x2 base block of every skew family built here.  All built L^a reduce
# to (signed, scaled) tensor products of this matrix and symmetric 2x2
# Pauli-type matrices.
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

_P2 = np.array([[0.0, 1.0], [1.0, 0.0]])
_Q2 = np.array([[1.0, 0.0], [0.0, -1.0]])


def hurwitz_radon(n: int) -> int:
    """Hurwitz-Radon function rho(n).

    Writing n = 2^(4a+b) * m with m odd and 0 <= b <= 3, returns 8a + 2^b.
    R^n carries at most rho(n) - 1 orthogonal skew-symmetric matrices that
    pairwise anticommute; see :func:`anticommuting_family` for the witness.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"hurwitz_radon is defined for positive integers, got {n}")
    twos = 0
    while n % 2 == 0:
        n //= 2
        twos += 1
    a, b = divmod(twos, 4)
    return 8 * a + 2**b


def max_skew_family_size(n: int) -> int:
    """Largest m such that R^n carries m anticommuting orthogonal skew matrices."""
    return hurwitz_radon(n) - 1


def _cd_multiply(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Cayley-Dickson product on coefficient vectors whose length is a power
    # of two: (a,b)(c,d) = (ac - conj(d) b, d a + b conj(c)).
    n = x.shape[0]
    if n == 1:
        return x * y
    h = n // 2
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]

    def conj(w):
        out = -w
        out[0] = w[0]
        return out

    return np.concatenate(
        (
            _cd_multiply(a, c) - _cd_multiply(conj(d), b),
            _cd_multiply(d, a) + _cd_multiply(b, conj(c)),
        )
    )


def _cd_left_multiplications(m: int) -> list[np.ndarray]:
    # Left multiplication by each imaginary unit of the 2^m-dimensional
    # Cayley-Dickson algebra (complex, quaternion, octonion for m = 1, 2, 3).
    # Alternativity holds up to m = 3, which is what makes these anticommute.
    dim = 2**m
    basis = np.eye(dim)
    mats = []
    for i in range(1, dim):
        cols = [_cd_multiply(basis[i].copy(), basis[j].copy()) for j in range(dim)]
        mats.append(np.stack(cols, axis=1))
    return mats


@lru_cache(maxsize=None)
def _pow2_family(m: int) -> tuple[np.ndarray, ...]:
    """Maximal anticommuting family on R^(2^m); entries are exact integers."""
    if m == 0:
        return ()
    if m <= 3:
        # negated so the 2x2 diagonal blocks come out as J2, not its transpose
        # (adding 0.0 normalizes the -0.0 entries the negation leaves behind)
        fam = tuple((-A) + 0.0 for A in _cd_left_multiplications(m))
    elif m == 4:
        oct8 = _pow2_family(3)
        fam = (np.kron(J2, np.eye(8)),) + tuple(np.kron(_Q2, A) for A in oct8)
    else:
        # periodicity step: a maximal family on R^16 contributes eight
        # generators; its full product omega is a symmetric involution
        # anticommuting with each of them, which carries the rest.
        base = _pow2_family(4)
        omega = base[0]
        for g in base[1:]:
            omega = omega @ g
        small = _pow2_family(m - 4)
        eye = np.eye(2 ** (m - 4))
        fam = tuple(np.kron(eye, G) for G in base) + tuple(
            np.kron(K, omega) for K in small
        )
    for a in fam:
        a.flags.writeable = False
    return fam


def anticommuting_family(dim: int, count: int) -> list[np.ndarray]:
    """Return ``count`` orthogonal skew dim x dim matrices A_i with
    A_i A_j + A_j A_i = -2 delta_ij I.

    The maximal count is ``hurwitz_radon(dim) - 1``; asking for more raises
    SpecNotRealizable.  Entries are exact integers in {-1, 0, 1}.
    """
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    cap = max_skew_family_size(dim)
    if count > cap:
        raise SpecNotRealizable(
            f"R^{dim} carries at most {cap} anticommuting orthogonal skew "
            f"matrices (Hurwitz-Radon), {count} requested"
        )
    odd = dim
    m = 0
    while odd % 2 == 0:
        odd //= 2
        m += 1
    fam = [A.copy() for A in _pow2_family(m)[:count]]
    if odd > 1:
        eye = np.eye(odd)
        fam = [np.kron(eye, A) for A in fam]
    return fam


@dataclass(frozen=True)
class GroupSpec:
    """Spectral description of an admissible structure.

    Parameters
    ----------
    rank : int
        Dimension k of the horizontal layer.
    corank : int
        Dimension p of the vertical layer; the total dimension is n = k + p.
    spectrum : tuple of (alpha, pair_multiplicity)
        Distinct positive singular values of S in strictly increasing order,
        each with the number of 2x2 pairs it acts on.
    kernel_dim : int
        Dimension of ker S inside the horizontal layer (0 for ideal groups
        with injective S).
    """

    rank: int
    corank: int
    spectrum: tuple[tuple[float, int], ...]
    kernel_dim: int = 0

    def __post_init__(self):
        spectrum = tuple((float(a), int(m)) for a, m in self.spectrum)
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "rank", int(self.rank))
        object.__setattr__(self, "corank", int(self.corank))
        object.__setattr__(self, "kernel_dim", int(self.kernel_dim))
        if self.rank < 1:
            raise ValueError(f"rank must be a positive integer, got {self.rank}")
        if self.corank < 1:
            raise ValueError(f"corank must be a positive integer, got {self.corank}")
        if self.kernel_dim < 0:
            raise ValueError(f"kernel_dim must be non-negative, got {self.kernel_dim}")
        if not spectrum:
            raise ValueError("spectrum must be non-empty (S must be non-zero)")
        alphas = [a for a, _ in spectrum]
        # the comparison also rejects NaN
        if not all(0.0 < a < math.inf for a in alphas):
            raise ValueError(f"spectrum values must be finite positive reals, got {alphas}")
        if any(m < 1 for _, m in spectrum):
            raise ValueError("pair multiplicities must be positive integers, got "
                             f"{[m for _, m in spectrum]}")
        if any(b <= a for a, b in zip(alphas, alphas[1:])):
            raise ValueError(f"spectrum values must be strictly increasing, got {alphas}")
        expected = self.kernel_dim + 2 * sum(m for _, m in spectrum)
        if self.rank != expected:
            raise ValueError(
                f"rank {self.rank} does not equal kernel_dim + "
                f"2*sum(multiplicities) = {expected}"
            )

    @property
    def dim(self) -> int:
        return self.rank + self.corank

    @property
    def pair_count(self) -> int:
        """Total number of 2x2 pairs d = sum of pair multiplicities."""
        return sum(m for _, m in self.spectrum)

    @property
    def alpha_max(self) -> float:
        return self.spectrum[-1][0]


@dataclass(frozen=True)
class ExistenceResult:
    ok: bool
    detail: str

    def __bool__(self) -> bool:
        return self.ok


def existence_check(spec: GroupSpec) -> ExistenceResult:
    """Decide whether the spectral data is realizable by a skew family.

    For every eigenvalue block of dimension k_j = 2 * pair_multiplicity the
    corank must satisfy corank <= hurwitz_radon(k_j) - 1.  The weaker bound
    corank <= hurwitz_radon(k_j) circulates for the classical case; this
    library enforces the strict form uniformly, and the diagnostic says so
    whenever the two readings disagree.
    """
    p = spec.corank
    for alpha, pairs in spec.spectrum:
        block_dim = 2 * pairs
        cap = hurwitz_radon(block_dim) - 1
        if p > cap:
            detail = (
                f"Hurwitz-Radon bound violated: corank {p} exceeds the "
                f"capacity {cap} of the {block_dim}-dimensional eigenblock "
                f"with alpha={alpha:g}"
            )
            if p == cap + 1:
                detail += (
                    "; note the weaker classical reading corank <= rho(k_j) "
                    "would admit this boundary case, but the strict form "
                    "corank <= rho(k_j) - 1 is enforced"
                )
            return ExistenceResult(False, detail)
    return ExistenceResult(
        True, "admissible: every eigenblock carries enough anticommuting structures"
    )


@dataclass(frozen=True)
class SpectralBlock:
    """One distinct eigenvalue of S with the horizontal indices it acts on."""

    alpha: float
    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.intp)
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)
        if idx.size % 2 != 0 or idx.size == 0:
            raise DimensionMismatch(
                f"eigenblock for alpha={self.alpha} must have even positive "
                f"dimension, got {idx.size}"
            )

    @property
    def pairs(self) -> int:
        return self.indices.size // 2


@dataclass(frozen=True, eq=False)
class StructureConstants:
    """Realized structure: the operator S, the skew family L, and the block data."""

    spec: GroupSpec
    S: np.ndarray
    L: np.ndarray  # shape (p, k, k)
    blocks: tuple[SpectralBlock, ...]
    kernel_indices: np.ndarray

    def __post_init__(self):
        S = np.asarray(self.S, dtype=np.float64)
        S.flags.writeable = False
        object.__setattr__(self, "S", S)
        L = np.stack([np.asarray(a, dtype=np.float64) for a in self.L])
        L.flags.writeable = False
        object.__setattr__(self, "L", L)
        ker = np.asarray(self.kernel_indices, dtype=np.intp)
        ker.flags.writeable = False
        object.__setattr__(self, "kernel_indices", ker)

    @property
    def rank(self) -> int:
        return self.spec.rank

    @property
    def corank(self) -> int:
        return self.spec.corank

    @property
    def dim(self) -> int:
        return self.spec.dim

    @cached_property
    def s_diag(self) -> np.ndarray:
        return np.diagonal(self.S)

    @cached_property
    def s_positive(self) -> slice | np.ndarray:
        """Index of the horizontal coordinates with s_c > 0, off ker S.

        A slice when they are contiguous, as build_structure lays them out,
        so that indexing with it makes views; an index array otherwise.
        """
        idx = np.flatnonzero(self.s_diag > 0.0)
        if idx.size and idx[-1] - idx[0] + 1 == idx.size:
            return slice(int(idx[0]), int(idx[-1]) + 1)
        return idx

    @property
    def alpha_max(self) -> float:
        return self.spec.alpha_max

    @property
    def first_conjugate_radius(self) -> float:
        """The vertical-momentum radius 2*pi/alpha_max bounding the injectivity domain."""
        return 2.0 * np.pi / self.alpha_max

    def block_alphas(self) -> np.ndarray:
        return np.array([b.alpha for b in self.blocks])

    def block_pairs(self) -> np.ndarray:
        return np.array([b.pairs for b in self.blocks])


def build_structure(spec: GroupSpec) -> StructureConstants:
    """Construct structure constants in normal form for a realizable spec.

    S comes out diagonal with the kernel block first and eigenvalue blocks in
    increasing alpha order; on each eigenblock every L^a equals alpha times a
    fixed anticommuting orthogonal skew family, and L^a vanishes on ker S.
    Entries are exact up to the float representation of alpha.
    """
    result = existence_check(spec)
    if not result:
        raise SpecNotRealizable(result.detail)
    k, p = spec.rank, spec.corank
    s = np.zeros(k)
    L = [np.zeros((k, k)) for _ in range(p)]
    blocks = []
    pos = spec.kernel_dim
    for alpha, pairs in spec.spectrum:
        bdim = 2 * pairs
        idx = np.arange(pos, pos + bdim)
        fam = anticommuting_family(bdim, p)
        for a in range(p):
            L[a][np.ix_(idx, idx)] = alpha * fam[a]
        s[idx] = alpha
        blocks.append(SpectralBlock(alpha, idx))
        pos += bdim
    return StructureConstants(
        spec=spec,
        S=np.diag(s),
        L=tuple(L),
        blocks=tuple(blocks),
        kernel_indices=np.arange(spec.kernel_dim),
    )


def l_of_v(sc: StructureConstants, v) -> np.ndarray:
    """The skew matrix L_v = sum_a v_a L^a."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (sc.corank,):
        raise DimensionMismatch(f"v has shape {v.shape}, expected ({sc.corank},)")
    return np.tensordot(v, sc.L, axes=1)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]
    tol: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max(c.residual for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def validate_structure(S, L, tol: float = 1e-12, seed: int = DEFAULT_SEED,
                       random_pairs: int = 64) -> ValidationReport:
    """Check user-supplied (S, L) against the structure relations.

    Verifies that S is symmetric, non-negative and non-zero, that each L^a is
    skew, that the family is linearly independent, and that the Clifford-type
    relation holds on the standard basis of R^p plus ``random_pairs`` seeded
    random unit pairs.  Returns a per-check report; nothing is raised on
    mathematical failure (shape inconsistencies do raise).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DimensionMismatch(f"S must be square, got shape {S.shape}")
    k = S.shape[0]
    L = [np.asarray(a, dtype=np.float64) for a in L]
    if not L:
        raise DimensionMismatch("the skew family must contain at least one matrix")
    for i, a in enumerate(L):
        if a.shape != (k, k):
            raise DimensionMismatch(
                f"L[{i}] has shape {a.shape}, expected ({k}, {k})"
            )
    p = len(L)
    checks = []

    sym = float(np.max(np.abs(S - S.T))) if k else 0.0
    checks.append(CheckResult("S symmetric", sym <= tol, sym))
    evals = np.linalg.eigvalsh(0.5 * (S + S.T))
    neg = float(max(0.0, -evals.min()))
    checks.append(CheckResult("S non-negative", neg <= tol, neg))
    top = float(evals.max())
    checks.append(
        CheckResult("S non-zero", top > tol, 0.0 if top > tol else 1.0,
                     f"largest eigenvalue {top:.3e}")
    )

    skew = max(float(np.max(np.abs(a + a.T))) for a in L)
    checks.append(CheckResult("skew-symmetry of L", skew <= tol, skew))

    # linear independence of the family, scale-normalized
    flat = np.stack([a.ravel() for a in L])
    sv = np.linalg.svd(flat, compute_uv=False)
    dep = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
    checks.append(
        CheckResult("linear independence of L", dep > tol, 0.0 if dep > tol else 1.0,
                     f"normalized smallest singular value {dep:.3e}")
    )

    S2 = S @ S
    res_basis = 0.0
    for a in range(p):
        for b in range(a, p):
            target = -2.0 * S2 if a == b else np.zeros((k, k))
            res = np.max(np.abs(L[a] @ L[b] + L[b] @ L[a] - target))
            res_basis = max(res_basis, float(res))
    checks.append(CheckResult("Clifford relations on basis pairs", res_basis <= tol,
                              res_basis))

    rng = generator(seed, stream=1)
    res_rand = 0.0
    for _ in range(random_pairs):
        v = unit_vector(rng, p)
        w = unit_vector(rng, p)
        Lv = sum(c * a for c, a in zip(v, L))
        Lw = sum(c * a for c, a in zip(w, L))
        res = np.max(np.abs(Lv @ Lw + Lw @ Lv + 2.0 * float(v @ w) * S2))
        res_rand = max(res_rand, float(res))
    checks.append(CheckResult(f"Clifford relations on {random_pairs} random pairs",
                              res_rand <= tol, res_rand))

    return ValidationReport(checks=tuple(checks), tol=tol)


def structure_from_matrices(S, L, tol: float = 1e-12) -> StructureConstants:
    """Ingest explicit (S, L) matrices, deriving the spectral block data.

    S may be given as a length-k diagonal or a k x k matrix; it must be
    exactly diagonal (the block machinery indexes eigenspaces by coordinate
    sets).  Diagonal entries are grouped by exact equality; each non-zero
    value must appear an even number of times.  The matrices are run through
    :func:`validate_structure` and rejected on failure.
    """
    S = np.asarray(S, dtype=np.float64)
    if S.ndim == 1:
        S = np.diag(S)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DimensionMismatch(f"S must be square or a diagonal vector, got {S.shape}")
    k = S.shape[0]
    # Exact tests, where validate_structure tests to tol only: the blocks
    # index eigenspaces by coordinates, and a diagonal entry of -1e-13 would
    # pass at tol and reach GroupSpec as a negative alpha, a ValueError where
    # the structure is invalid
    if np.any(S - np.diag(np.diagonal(S)) != 0.0):
        raise StructureInvalid("S must be exactly diagonal in explicit form")
    diag = np.diagonal(S)
    if np.any(diag < 0):
        raise StructureInvalid("S must be non-negative")

    report = validate_structure(S, L, tol=tol)
    if not report.passed:
        names = ", ".join(c.name for c in report.failures())
        raise StructureInvalid(
            f"structure relations fail at tolerance {tol:g}: {names} "
            f"(max residual {report.max_residual:.3e})"
        )

    kernel = np.flatnonzero(diag == 0.0)
    values = sorted(set(float(a) for a in diag if a != 0.0))
    blocks = []
    for alpha in values:
        idx = np.flatnonzero(diag == alpha)
        if idx.size % 2 != 0:
            raise StructureInvalid(
                f"eigenvalue {alpha:g} of S has odd multiplicity {idx.size}; "
                "non-zero eigenvalues must come in pairs"
            )
        blocks.append(SpectralBlock(alpha, idx))
    spec = GroupSpec(
        rank=k,
        corank=len(L),
        spectrum=tuple((b.alpha, b.pairs) for b in blocks),
        kernel_dim=int(kernel.size),
    )
    return StructureConstants(
        spec=spec,
        S=S,
        L=tuple(np.asarray(a, dtype=np.float64) for a in L),
        blocks=tuple(blocks),
        kernel_indices=kernel,
    )
