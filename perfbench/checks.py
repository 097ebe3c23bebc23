"""Output checks.  Each takes values the library returned and says whether
they are right; a wrong answer counts as a failed operation."""

from __future__ import annotations

import math

import numpy as np

ROUNDTRIP_TOL = 1e-10
ENDPOINT_RTOL = 1e-12
CUTLOCUS_TOL = 1e-8


def roundtrip_ok(target, back) -> bool:
    """exp(log(target)) lands within 1e-10 of target (group coordinates)."""
    gap = np.asarray(back, dtype=float) - np.asarray(target, dtype=float)
    return bool(np.all(np.isfinite(gap)) and np.linalg.norm(gap) <= ROUNDTRIP_TOL)


def endpoint_ok(last_sample, endpoint) -> bool:
    """The last geodesic sample (t = 1) equals exp_map(lam) to 1e-12 relative."""
    last = np.asarray(last_sample, dtype=float)
    end = np.asarray(endpoint, dtype=float)
    scale = max(1.0, float(np.linalg.norm(end)))
    return bool(np.all(np.isfinite(last))
                and np.linalg.norm(last - end) <= ENDPOINT_RTOL * scale)


def jacobian_ok(report) -> bool:
    return bool(report.passed and math.isfinite(report.min_margin))


def mcp_ok(report, n_expected: float, t_grid) -> bool:
    """Every verdict passes at the geodesic dimension, on the requested t grid."""
    return bool(
        report.n_claimed == n_expected
        and tuple(report.t_grid) == tuple(t_grid)
        and all(math.isfinite(r) and math.isfinite(b)
                for r, b in zip(report.ratios, report.bounds))
        and report.passed
    )


def sharpness_ok(report) -> bool:
    return bool(report.passed and all(math.isfinite(r) for r in report.ratios))


def cutlocus_distance(alpha_max: float, zn: float) -> float:
    """Distance from the identity to a vertical point (0, z), |z| = zn.

    The minimizer has |v| = R = 2 pi / alpha_max with all of u in the top
    eigenblock, and |z| = (R/2) alpha^2 h3(alpha R) |u|^2 with
    h3(x) = (x - sin x)/x^3, so d = |u| = sqrt(2 |z| / (R alpha^2 h3(2 pi))).
    """
    radius = 2.0 * math.pi / alpha_max
    x = alpha_max * radius
    h3 = (x - math.sin(x)) / x**3
    return math.sqrt(2.0 * zn / (radius * alpha_max**2 * h3))


def cutlocus_ok(group: str, alpha_max: float, zn: float, d: float) -> bool:
    """|d - |u_gen|| <= 1e-8, and d = sqrt(4 pi |z|) on heisenberg3."""
    if not math.isfinite(d) or abs(d - cutlocus_distance(alpha_max, zn)) > CUTLOCUS_TOL:
        return False
    if group == "heisenberg3":
        return abs(d - math.sqrt(4.0 * math.pi * zn)) <= CUTLOCUS_TOL
    return True


def cli_ok(returncode: int, expected_code: int, outputs: bytes, reference: bytes) -> bool:
    """Expected exit code, and output bytes identical to the first pass."""
    return returncode == expected_code and outputs == reference
