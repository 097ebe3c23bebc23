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
from .randomness import DEFAULT_SEED, check_seed

# The 2x2 base block of every skew family built here.  All built L^a reduce
# to (signed, scaled) tensor products of this matrix and symmetric 2x2
# Pauli-type matrices.
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

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
    cap = hurwitz_radon(dim) - 1
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
    """One distinct eigenvalue of S with the horizontal indices it acts on,
    as :attr:`StructureConstants.blocks` derives it."""

    alpha: float
    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.intp)
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)

    @property
    def pairs(self) -> int:
        return self.indices.size // 2


def _as_matrices(S, L):
    # S as a square float matrix and L as one (p, k, k) float array, p >= 1
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DimensionMismatch(f"S must be square, got shape {S.shape}")
    L = [np.asarray(a, dtype=np.float64) for a in L]
    if not L:
        raise DimensionMismatch("the skew family must contain at least one matrix")
    for i, a in enumerate(L):
        if a.shape != S.shape:
            raise DimensionMismatch(f"L[{i}] has shape {a.shape}, expected {S.shape}")
    return S, np.stack(L)


@dataclass(frozen=True, eq=False)
class StructureConstants:
    """Realized structure: the operator S and the skew family L, shape (p, k, k).

    The blocks (one per distinct non-zero entry of diag(S), increasing), ker
    S and the spec derive from diag(S) by exact equality.  Construction
    checks the shapes, that S and L are finite and, exactly, that S is
    diagonal, non-negative and non-zero with every non-zero entry of even
    multiplicity; the Clifford relations are checked by :func:`accept_matrices`.
    """

    S: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        S, L = _as_matrices(self.S, self.L)
        S.flags.writeable = False
        L.flags.writeable = False
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "L", L)
        if not (np.isfinite(S).all() and np.isfinite(L).all()):
            raise ValueError("S and L must have finite entries")
        # exact tests, where validate_structure has a tolerance: the blocks
        # index eigenspaces by coordinates
        diag = np.diagonal(S)
        if np.any(S - np.diag(diag) != 0.0):
            raise StructureInvalid("S must be exactly diagonal in explicit form")
        if np.any(diag < 0):
            raise StructureInvalid("S must be non-negative")
        if not np.any(diag):
            raise StructureInvalid("S must be non-zero")
        self.blocks  # checks the multiplicities

    @cached_property
    def blocks(self) -> tuple[SpectralBlock, ...]:
        """One block per distinct non-zero entry of diag(S), in increasing order."""
        s = self.s_diag
        blocks = []
        for alpha in sorted(set(s[s > 0.0].tolist())):
            idx = np.flatnonzero(s == alpha)
            if idx.size % 2:
                raise StructureInvalid(
                    f"eigenvalue {alpha:g} of S has odd multiplicity {idx.size}; "
                    "non-zero eigenvalues must come in pairs"
                )
            blocks.append(SpectralBlock(alpha, idx))
        return tuple(blocks)

    @cached_property
    def kernel_indices(self) -> np.ndarray:
        """The horizontal coordinates of ker S, where diag(S) is 0."""
        ker = np.flatnonzero(self.s_diag == 0.0)
        ker.flags.writeable = False
        return ker

    @cached_property
    def spec(self) -> GroupSpec:
        return GroupSpec(rank=self.rank, corank=self.corank,
                         spectrum=tuple((b.alpha, b.pairs) for b in self.blocks),
                         kernel_dim=self.kernel_indices.size)

    @cached_property
    def rank(self) -> int:
        return self.S.shape[0]

    @cached_property
    def corank(self) -> int:
        return self.L.shape[0]

    @cached_property
    def dim(self) -> int:
        return self.rank + self.corank

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

    def su_nonzero(self, u) -> bool:
        """S u != 0, decided exactly: u has a non-zero entry off ker S.  No
        product s_c u_c is formed, which could underflow to 0."""
        return bool(np.any(np.asarray(u)[self.s_positive]))

    @property
    def alpha_max(self) -> float:
        return self.blocks[-1].alpha

    @property
    def first_conjugate_radius(self) -> float:
        """The vertical-momentum radius 2*pi/alpha_max bounding the injectivity domain."""
        return 2.0 * np.pi / self.alpha_max

    @cached_property
    def unit_exponent(self) -> int:
        """a with alpha_max 2^-a in [1/2, 1): the exponent of :attr:`unit_frame`."""
        return math.frexp(self.alpha_max)[1]

    @cached_property
    def unit_frame(self) -> "StructureConstants":
        """This group in the frame where alpha_max lies in [1/2, 1): the
        structure (2^-a S, 2^-a L), a = unit_exponent.

        (x, z) -> (x, 2^-a z) maps the group onto the frame's, and covectors
        map as (u, v) -> (u, 2^a v): every angle s_c |v| keeps its bits, |u|
        is unchanged, J scales by 4^(-a p), and R lies in (2 pi, 4 pi].  The
        frame's blocks, ker S and spec describe 2^-a S: an entry that rounds
        to 0 there, as 1e-300 beside 1e300 does, joins ker S.
        """
        a = self.unit_exponent
        if a == 0:
            return self
        return StructureConstants(np.ldexp(self.S, -a), np.ldexp(self.L, -a))

    @cached_property
    def row_tables(self) -> tuple[tuple[float, ...], tuple]:
        """This structure as Python floats, for exp at one covector.

        The block alphas in increasing order, and per coordinate c with
        s_c > 0, in increasing c, the triple (c, the position of its block,
        its row of L); the row lists (j, ((a, L^a[c, j]), ...)) over the
        columns j, with only the non-zero entries.  A zero entry would add a
        signed zero to a sum that starts at 0.0, which leaves it unchanged.
        """
        block_of = {c: j for j, b in enumerate(self.blocks) for c in b.indices.tolist()}
        L = self.L.tolist()
        rows = []
        for c in sorted(block_of):
            row = []
            for j in range(self.rank):
                entries = tuple((a, la[c][j]) for a, la in enumerate(L) if la[c][j] != 0.0)
                if entries:
                    row.append((j, entries))
            rows.append((c, block_of[c], tuple(row)))
        return tuple(b.alpha for b in self.blocks), tuple(rows)

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
    L = np.zeros((p, k, k))
    pos = spec.kernel_dim
    for alpha, pairs in spec.spectrum:
        idx = slice(pos, pos + 2 * pairs)
        L[:, idx, idx] = alpha * np.stack(anticommuting_family(2 * pairs, p))
        s[idx] = alpha
        pos += 2 * pairs
    return StructureConstants(np.diag(s), L)


def l_of_v(sc: StructureConstants, v) -> np.ndarray:
    """The skew matrix L_v = sum_a v_a L^a."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (sc.corank,):
        raise DimensionMismatch(f"v has shape {v.shape}, expected ({sc.corank},)")
    k = sc.rank
    return (v @ sc.L.reshape(sc.corank, k * k)).reshape(k, k)


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


@np.errstate(over="ignore", invalid="ignore")
def validate_structure(S, L, tol: float = 1e-12,
                       seed: int = DEFAULT_SEED) -> ValidationReport:
    """Check user-supplied (S, L) against the structure relations.

    Verifies that S is symmetric, non-negative and non-zero, that each L^a is
    skew, that the family is linearly independent, and that the Clifford-type
    relation holds for every pair of unit vectors v, w of R^p.  That
    relation is bilinear: with C_ab = L^a L^b + L^b L^a + 2 delta_ab S^2,
    its residual at (v, w) is sum_ab v_a w_b C_ab, and the worst case over
    unit pairs of entry (r, s) is the spectral norm of the symmetric p x p
    matrix C_..[r, s], which is attained; the check reports the largest
    over r <= s (C_ab is symmetric when the L^a are skew).  The checks run
    on 2^-a (S, L), with |S|_max 2^-a in [1/2, 1), so no product of finite
    entries leaves the float range, and residuals are relative to |S|_max,
    the largest entry of S (squared for the Clifford relations); at
    |S|_max = 1 they keep their bits.  A residual or an entry that is not
    finite fails its checks.  ``seed`` is accepted for compatibility and
    range-checked; no check draws from it.  Returns a per-check report and
    warns nothing; only shapes and a seed out of range raise.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    check_seed(seed)
    S, L = _as_matrices(S, L)
    p, k = L.shape[:2]
    # unit is |S|_max 2^-a in [1/2, 1), and 1 for S = 0
    unit, a = math.frexp(float(np.max(np.abs(S), initial=0.0)))
    unit = unit or 1.0
    S, L = np.ldexp(S, -a), np.ldexp(L, -a)
    checks = []

    def check(name, residual, scale):
        residual = float(residual) / scale
        checks.append(CheckResult(name, residual <= tol, residual))

    check("S symmetric", np.max(np.abs(S - S.T), initial=0.0), unit)
    # LAPACK may not converge on a non-finite entry, whose checks fail instead
    failed = np.full(1, np.nan)
    evals = np.linalg.eigvalsh(0.5 * (S + S.T)) if np.isfinite(S).all() else failed
    # np.maximum keeps a NaN, and + 0.0 turns its -0.0 into 0.0
    check("S non-negative", np.maximum(0.0, -evals.min()) + 0.0, unit)
    top = float(evals.max()) / unit
    checks.append(
        CheckResult("S non-zero", top > tol, 0.0 if top > tol else 1.0,
                     f"largest eigenvalue {top:.3e} relative to |S|_max")
    )

    check("skew-symmetry of L", np.max(np.abs(L + L.transpose(0, 2, 1))), unit)

    # linear independence of the family, scale-normalized
    sv = np.linalg.svd(L.reshape(p, -1), compute_uv=False) if np.isfinite(L).all() else failed
    dep = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
    checks.append(
        CheckResult("linear independence of L", dep > tol, 0.0 if dep > tol else 1.0,
                     f"normalized smallest singular value {dep:.3e}")
    )

    # one p x p matrix M[., a, b] = C[a, b][r, s] per entry r <= s, with
    # C[a, b] = L^a L^b + L^b L^a + 2 delta_ab S^2: the entries of L^a L^b
    # one a at a time, plus their (a, b) transpose, plus the diagonal, so
    # no (p, p, k, k) array is formed.  A non-finite M reports its largest
    # entry, inf or NaN (np.max keeps a NaN), which then fails
    r, s = np.triu_indices(k)
    M = np.empty((r.size, p, p))
    for j in range(p):
        M[:, j, :] = (L[j] @ L)[:, r, s].T
    M += M.transpose(0, 2, 1)
    M[:, np.arange(p), np.arange(p)] += 2.0 * (S @ S)[r, s][:, None]
    worst = np.linalg.eigvalsh(M) if np.isfinite(M).all() else M
    check("Clifford relations on all unit pairs", np.max(np.abs(worst)), unit * unit)

    return ValidationReport(checks=tuple(checks), tol=tol)


def accept_matrices(S, L, tol: float = 1e-12):
    """(StructureConstants, ValidationReport) of explicit (S, L), S a k x k
    matrix or its diagonal: the exact checks of :class:`StructureConstants`,
    which raise, then one :func:`validate_structure` at ``tol``, whose
    report is returned passed or not.
    """
    S = np.asarray(S, dtype=np.float64)
    sc = StructureConstants(np.diag(S) if S.ndim == 1 else S, L)
    return sc, validate_structure(sc.S, sc.L, tol=tol)


def structure_from_matrices(S, L, tol: float = 1e-12) -> StructureConstants:
    """Ingest explicit (S, L) matrices, deriving the spectral block data.

    :func:`accept_matrices`, raising StructureInvalid when its report fails.
    """
    sc, report = accept_matrices(S, L, tol=tol)
    if not report.passed:
        names = ", ".join(c.name for c in report.failures())
        raise StructureInvalid(
            f"structure relations fail at tolerance {tol:g}: {names} "
            f"(max residual {report.max_residual:.3e})"
        )
    return sc
