"""Group configuration files.

JSON with exactly one of two forms:

  spectral: {"rank": k, "corank": p,
             "spectrum": [{"alpha": a, "pair_multiplicity": m}, ...],
             "kernel_dim": d}
  explicit: {"S_diagonal": [k reals],
             "L_matrices": [p row-major k x k arrays]}

plus optional top-level "seed" (an integer in [0, 2**64)) and "tolerance"
(real in (0, 1), default 1e-12, used to validate the explicit form).  Schema
problems and the values GroupSpec rejects raise ConfigError; a well-formed
config that fails the mathematical checks raises
StructureInvalid/SpecNotRealizable from realize().
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .randomness import DEFAULT_SEED, check_seed
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


def _real(value):
    # a JSON number as a float, else None (also for integers beyond floats)
    try:
        return float(value) if type(value) in (int, float) else None
    except OverflowError:
        return None


def _int(data, key):
    val = data[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{key!r} must be an integer, got {val!r}")
    return val


def parse_config(path) -> ParsedConfig:
    """Read and validate a JSON group configuration."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("top level must be a JSON object")

    keys = set(data)
    unknown = keys - _SPECTRAL_KEYS - _EXPLICIT_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    has_spectral = bool(keys & _SPECTRAL_KEYS)
    has_explicit = bool(keys & _EXPLICIT_KEYS)
    if has_spectral == has_explicit:
        raise ConfigError("config must use exactly one of the spectral form "
                          "(rank/corank/spectrum/kernel_dim) or the explicit form "
                          "(S_diagonal/L_matrices)")

    try:
        seed = check_seed(data.get("seed", DEFAULT_SEED))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    tolerance = _real(data.get("tolerance", 1e-12))
    if tolerance is None or not 0 < tolerance < 1:
        raise ConfigError(
            f"'tolerance' must be a real in (0, 1), got {data['tolerance']!r}")

    form, form_keys = ("spectral", _SPECTRAL_KEYS) if has_spectral else \
        ("explicit", _EXPLICIT_KEYS)
    missing = form_keys - keys
    if missing:
        raise ConfigError(f"{form} form is missing keys: {sorted(missing)}")
    if has_spectral:
        return ParsedConfig(_parse_spectral(data), None, None, seed, tolerance)
    return ParsedConfig(None, *_parse_explicit(data), seed, tolerance)


def _parse_spectral(data) -> GroupSpec:
    # JSON types here; GroupSpec checks the values
    rank = _int(data, "rank")
    corank = _int(data, "corank")
    kernel_dim = _int(data, "kernel_dim")
    entries = data["spectrum"]
    if not isinstance(entries, list):
        raise ConfigError("'spectrum' must be a list")
    merged: list[tuple[float, int]] = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or set(entry) != {"alpha", "pair_multiplicity"}:
            raise ConfigError(f"spectrum[{i}] must be an object with keys "
                              "'alpha' and 'pair_multiplicity'")
        alpha = _real(entry["alpha"])
        if alpha is None:
            raise ConfigError(f"spectrum[{i}].alpha must be a real")
        mult = _int(entry, "pair_multiplicity")
        # equal eigenvalues in a row merge into one block; a multiplicity
        # below 1 stays unmerged, for GroupSpec to reject
        if merged and alpha == merged[-1][0] and min(mult, merged[-1][1]) >= 1:
            merged[-1] = (alpha, merged[-1][1] + mult)
        else:
            merged.append((alpha, mult))
    try:
        return GroupSpec(rank=rank, corank=corank, spectrum=tuple(merged),
                         kernel_dim=kernel_dim)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_explicit(data):
    s_raw = data["S_diagonal"]
    s_diag = [_real(x) for x in s_raw] if isinstance(s_raw, list) else []
    if not s_diag or None in s_diag:
        raise ConfigError("'S_diagonal' must be a non-empty list of reals")
    k = len(s_diag)
    l_raw = data["L_matrices"]
    if not isinstance(l_raw, list) or not l_raw:
        raise ConfigError("'L_matrices' must be a non-empty list of k x k matrices")
    mats = []
    for a, mat in enumerate(l_raw):
        try:
            arr = np.asarray(mat, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"L_matrices[{a}] is not a numeric array") from None
        if arr.shape != (k, k):
            raise ConfigError(f"L_matrices[{a}] must be a {k} x {k} row-major array")
        mats.append(arr)
    return np.array(s_diag), np.stack(mats)
