"""Group configuration files.

JSON with exactly one of two forms:

  spectral: {"rank": k, "corank": p,
             "spectrum": [{"alpha": a, "pair_multiplicity": m}, ...],
             "kernel_dim": d}
  explicit: {"S_diagonal": [k reals],
             "L_matrices": [p row-major k x k arrays]}

plus optional top-level "seed" (unsigned int) and "tolerance" (positive
real, default 1e-12, used to validate the explicit form).  Schema problems
raise ConfigError; a well-formed config that fails the mathematical checks
raises StructureInvalid/SpecNotRealizable from realize().
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .randomness import DEFAULT_SEED
from .structure import (
    GroupSpec,
    StructureConstants,
    build_structure,
    structure_from_matrices,
)

_SPECTRAL_KEYS = {"rank", "corank", "spectrum", "kernel_dim"}
_EXPLICIT_KEYS = {"S_diagonal", "L_matrices"}
_OPTIONAL_KEYS = {"seed", "tolerance"}


@dataclass(frozen=True)
class ParsedConfig:
    """Validated configuration: exactly one of spec / matrices is set."""

    spec: GroupSpec | None
    s_diagonal: np.ndarray | None
    l_matrices: np.ndarray | None
    seed: int
    tolerance: float

    @property
    def is_spectral(self) -> bool:
        return self.spec is not None

    def realize(self) -> StructureConstants:
        """Build structure constants, running the appropriate validation."""
        if self.spec is not None:
            return build_structure(self.spec)
        return structure_from_matrices(self.s_diagonal, self.l_matrices,
                                       tol=self.tolerance)


def _fail(msg: str) -> ConfigError:
    return ConfigError(msg)


def _uint(data, key, minimum=0):
    val = data[key]
    if isinstance(val, bool) or not isinstance(val, int) or val < minimum:
        raise _fail(f"{key!r} must be an integer >= {minimum}, got {val!r}")
    return val


def parse_config(path) -> ParsedConfig:
    """Read and validate a JSON group configuration."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _fail(f"not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise _fail("top level must be a JSON object")

    keys = set(data)
    unknown = keys - _SPECTRAL_KEYS - _EXPLICIT_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise _fail(f"unknown keys: {sorted(unknown)}")
    has_spectral = bool(keys & _SPECTRAL_KEYS)
    has_explicit = bool(keys & _EXPLICIT_KEYS)
    if has_spectral == has_explicit:
        raise _fail("config must use exactly one of the spectral form "
                    "(rank/corank/spectrum/kernel_dim) or the explicit form "
                    "(S_diagonal/L_matrices)")

    seed = _uint(data, "seed") if "seed" in data else DEFAULT_SEED
    tolerance = data.get("tolerance", 1e-12)
    if not isinstance(tolerance, (int, float)) or isinstance(tolerance, bool) \
            or not 0 < float(tolerance) < 1:
        raise _fail(f"'tolerance' must be a real in (0, 1), got {tolerance!r}")
    tolerance = float(tolerance)

    if has_spectral:
        missing = _SPECTRAL_KEYS - keys
        if missing:
            raise _fail(f"spectral form is missing keys: {sorted(missing)}")
        spec = _parse_spectral(data)
        return ParsedConfig(spec=spec, s_diagonal=None, l_matrices=None,
                            seed=seed, tolerance=tolerance)

    missing = _EXPLICIT_KEYS - keys
    if missing:
        raise _fail(f"explicit form is missing keys: {sorted(missing)}")
    s_diag, l_mats = _parse_explicit(data)
    return ParsedConfig(spec=None, s_diagonal=s_diag, l_matrices=l_mats,
                        seed=seed, tolerance=tolerance)


def _parse_spectral(data) -> GroupSpec:
    rank = _uint(data, "rank", minimum=1)
    corank = _uint(data, "corank", minimum=1)
    kernel_dim = _uint(data, "kernel_dim")
    entries = data["spectrum"]
    if not isinstance(entries, list) or not entries:
        raise _fail("'spectrum' must be a non-empty list")
    pairs = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or set(entry) != {"alpha", "pair_multiplicity"}:
            raise _fail(f"spectrum[{i}] must be an object with keys "
                        "'alpha' and 'pair_multiplicity'")
        alpha = entry["alpha"]
        if not isinstance(alpha, (int, float)) or isinstance(alpha, bool) \
                or not float(alpha) > 0:
            raise _fail(f"spectrum[{i}].alpha must be a positive real")
        mult = entry["pair_multiplicity"]
        if isinstance(mult, bool) or not isinstance(mult, int) or mult < 1:
            raise _fail(f"spectrum[{i}].pair_multiplicity must be a positive integer")
        pairs.append((float(alpha), mult))

    # merge equal eigenvalues, reject decreasing order
    merged: list[tuple[float, int]] = []
    for alpha, mult in pairs:
        if merged and alpha == merged[-1][0]:
            merged[-1] = (alpha, merged[-1][1] + mult)
        elif merged and alpha < merged[-1][0]:
            raise _fail("'spectrum' entries must be in increasing alpha order")
        else:
            merged.append((alpha, mult))

    try:
        return GroupSpec(rank=rank, corank=corank, spectrum=tuple(merged),
                         kernel_dim=kernel_dim)
    except ValueError as exc:
        raise _fail(str(exc)) from None


def _parse_explicit(data):
    s_raw = data["S_diagonal"]
    if not isinstance(s_raw, list) or not s_raw or \
            not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                    for x in s_raw):
        raise _fail("'S_diagonal' must be a non-empty list of reals")
    k = len(s_raw)
    l_raw = data["L_matrices"]
    if not isinstance(l_raw, list) or not l_raw:
        raise _fail("'L_matrices' must be a non-empty list of k x k matrices")
    mats = []
    for a, mat in enumerate(l_raw):
        try:
            arr = np.asarray(mat, dtype=np.float64)
        except (TypeError, ValueError):
            raise _fail(f"L_matrices[{a}] is not a numeric array") from None
        if arr.shape != (k, k):
            raise _fail(f"L_matrices[{a}] must be a {k} x {k} row-major array")
        mats.append(arr)
    return np.asarray(s_raw, dtype=np.float64), np.stack(mats)
