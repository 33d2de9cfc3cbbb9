"""Analytic curvature of the single-qubit pure curve, with FD validation.

Substituting y = c*x turns the conclusive-rate cubic into
y^3 - 2y^2 + (1 - P_I)y + P_I c^2 = 0, whose least root, in [-c, c^2]
(proved in `_cubic`), gives the pure-curve success as

    P_S = (1 - P_I)/2 + (sqrt(1-c^2)/2c) * sqrt(c^2-y^2) * [1 - P_I/(1-y)].

Implicit differentiation yields y', y'' and an explicit second derivative
d2 P_S / d P_I^2 = (sqrt(1-c^2)/2c) * (alpha*y' + beta*y'^2 + gamma*y''),
which is non-negative up to the q = 0 boundary budget; past it the curve
follows the q = 0 arc whose curvature -c*sqrt(1-c^2)*(c^2-(1-2P_I)^2)^(-3/2)
is strictly negative. finite_difference_check validates either branch
numerically.

`finite_difference_check_array` takes arrays: one array call of
`_cubic.least_root` gives the analytic curvature of every row, and one
call of the pure-curve kernel evaluates every five-point stencil. Each
public function runs one domain check on entry, the budget's before any
stencil is formed; the private helpers and the `strategies` kernels they
call (`_pib`, `_pure_kernel`) assume checked, flat float arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _cubic
from .errors import BranchCrossingError, DomainError, SingularityError
from .geometry import TOL
from .strategies import _pib, _pure_kernel

DENOM_FLOOR = 1e-10
# The least step whose square is a normal double.
MIN_STEP = math.sqrt(np.finfo(float).tiny)


@dataclass(frozen=True)
class DerivativeBundle:
    """y and its budget-derivatives plus the assembled curvature."""

    y: float
    y_prime: float
    y_double_prime: float
    alpha: float
    beta: float
    gamma: float
    d2PS_dPI2: float


def _check_convex_domain(c, p_inc) -> None:
    _check_overlap_inside(c)
    if not np.all((p_inc >= -TOL) & (p_inc < _pib(c))):
        raise DomainError("budget outside [0, boundary_PIB)")


def _check_overlap_inside(c) -> None:
    if not np.all((c > TOL) & (c < 1.0 - TOL)):
        raise DomainError("overlap c must lie strictly inside (0, 1)")


def check_step(h):
    """The finite-difference step(s), which must be finite and at least
    MIN_STEP: the stencil divides by 3h², which must not underflow."""
    if not np.all(np.isfinite(h) & (np.asarray(h) >= MIN_STEP)):
        raise DomainError(
            f"step h must be finite and positive, at least {MIN_STEP:.3g}, got {h}"
        )
    return h


def _y_roots(c: np.ndarray, p_inc: np.ndarray) -> np.ndarray:
    """y_root on 1-D arrays inside the convex domain."""
    return _cubic.least_root(1.0, -2.0, 1.0 - p_inc, p_inc * c * c, -c, c * c)


def y_root(c: float, p_inc: float) -> float:
    """The maximizing root y = c*x of the substituted cubic.

    It is the least root, which lies in [-c, c^2] (see `_cubic`); its
    x = y/c is the probe of the pure curve.
    """
    _check_convex_domain(c, p_inc)
    return float(_y_roots(np.array([c]), np.array([p_inc]))[0])


def _derivatives(c: np.ndarray, p_inc: np.ndarray) -> tuple[np.ndarray, ...]:
    """y, y', y'', alpha, beta, gamma, the curvature and the implicit
    denominator on 1-D arrays inside the convex domain."""
    y = _y_roots(c, p_inc)
    denom = 3.0 * y * y - 4.0 * y + 1.0 - p_inc
    with np.errstate(divide="ignore", invalid="ignore"):
        y_prime = (y - c * c) / denom
        y_double_prime = 2.0 * (y_prime + y_prime * y_prime * (2.0 - 3.0 * y)) / denom
    c2 = c * c
    one = 1.0 - y
    sq = np.sqrt(np.maximum(1e-300, c2 - y * y))
    alpha = 2.0 * (y - c2) / (sq * one * one)
    beta = (
        p_inc * (3.0 * c2 * y * y + c2 - 2.0 * c2 * c2 - 2.0 * y**3)
        - c2 * one**3
    ) / (sq**3 * one**3)
    gamma = (y - c2) * p_inc / (sq * one * one) - y / sq
    d2 = (np.sqrt(1.0 - c2) / (2.0 * c)) * (
        alpha * y_prime + beta * y_prime * y_prime + gamma * y_double_prime
    )
    return y, y_prime, y_double_prime, alpha, beta, gamma, d2, denom


def second_derivative(c: float, p_inc: float) -> DerivativeBundle:
    """Curvature of the pure curve below the q = 0 boundary budget."""
    _check_convex_domain(c, p_inc)
    if p_inc <= TOL:
        raise DomainError("budget outside the open interval (0, boundary_PIB)")
    *values, denom = (float(v[0]) for v in _derivatives(np.array([c]), np.array([p_inc])))
    if abs(denom) <= DENOM_FLOOR:
        raise SingularityError(
            f"implicit-derivative denominator 3y^2-4y+1-P_I = {denom:.3e} "
            f"vanishes at c = {c}, p_inc = {p_inc}"
        )
    return DerivativeBundle(*values)


def _concave_curvature(c, p_inc):
    return -c * np.sqrt(1.0 - c * c) * (c * c - (1.0 - 2.0 * p_inc) ** 2) ** -1.5


def concave_second_derivative(c: float, p_inc: float) -> float:
    """Curvature of the q = 0 arc; strictly negative on its domain."""
    _check_overlap_inside(c)
    if not _pib(c) < p_inc < 0.5 * (1.0 + c * c):
        raise DomainError("budget outside (boundary_PIB, (1 + c^2)/2)")
    if c * c - (1.0 - 2.0 * p_inc) ** 2 <= 0.0:
        raise DomainError("q = 0 arc curvature undefined: c^2 - (1-2*p_inc)^2 <= 0")
    return float(_concave_curvature(c, p_inc))


def finite_difference_check_array(
    c, p_inc, h=1e-4
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """finite_difference_check at arrays of overlaps, budgets and steps.

    The arguments broadcast to one shape. One array call of the pure curve
    evaluates the stencils of all rows, and one array call of the least
    root gives the analytic curvature of every convex row. A convex row
    whose implicit denominator vanishes comes back NaN in all three
    outputs, where finite_difference_check raises SingularityError. Every
    other error is raised for the whole call when any row commits it.
    """
    shape = np.broadcast(c, p_inc, h).shape
    c, p_inc, h = (np.ravel(a) for a in np.broadcast_arrays(c, p_inc, h))
    check_step(h)
    _check_overlap_inside(c)
    p_top = 0.5 * (1.0 + c * c)
    if not np.all((p_inc >= 0.0) & (p_inc <= p_top)):
        raise DomainError("budget must be finite and lie in [0, (1 + c^2)/2]")
    pib = _pib(c)
    straddle = ((p_inc - h < pib) & (pib < p_inc + h)) | (np.abs(p_inc - pib) <= TOL)
    if straddle.any():
        k = int(np.argmax(straddle))
        raise BranchCrossingError(
            f"stencil [{p_inc[k] - h[k]}, {p_inc[k] + h[k]}] straddles the branch "
            f"boundary at {pib[k]}"
        )
    convex = p_inc < pib
    if np.any(convex & (p_inc - h <= 0.0)):
        raise BranchCrossingError("stencil leaves the convex branch at 0")
    if np.any(~convex & (p_inc + h >= p_top)):
        raise BranchCrossingError(
            "stencil leaves the q = 0 arc at the unambiguous endpoint"
        )

    analytic = np.empty(p_inc.shape)
    analytic[~convex] = _concave_curvature(c[~convex], p_inc[~convex])
    if convex.any():
        *_, d2, denom = _derivatives(c[convex], p_inc[convex])
        analytic[convex] = np.where(np.abs(denom) <= DENOM_FLOOR, np.nan, d2)
    s = 0.5 * h
    stencil = p_inc + np.array([-h, -s, np.zeros_like(h), s, h])
    # The curve is read at θ = arccos(c)/2 and that angle's own cos 2θ, which
    # can differ from c in the last bit; the convexity tables depend on it.
    theta = 0.5 * np.arccos(c)
    c_probe = np.cos(2.0 * theta)
    f = _pure_kernel(np.tile(theta, 5), np.tile(c_probe, 5), stencil.ravel())[0].reshape(5, -1)
    numeric = (-f[0] + 16.0 * f[1] - 30.0 * f[2] + 16.0 * f[3] - f[4]) / (3.0 * h * h)
    numeric[np.isnan(analytic)] = np.nan
    rel_err = np.abs(analytic - numeric) / np.maximum(np.abs(analytic), 1e-12)
    return analytic.reshape(shape), numeric.reshape(shape), rel_err.reshape(shape)


def finite_difference_check(
    c: float, p_inc: float, h: float = 1e-4
) -> tuple[float, float, float]:
    """Compare analytic curvature against a central second difference.

    Uses a five-point stencil at half steps, so exactly [p_inc - h,
    p_inc + h] must stay inside one branch; straddling the q = 0 boundary
    budget raises BranchCrossingError. Returns (analytic, numeric,
    rel_err) with rel_err = |a - n| / max(|a|, 1e-12).
    finite_difference_check_array takes arrays.
    """
    analytic, numeric, rel_err = map(float, finite_difference_check_array(c, p_inc, h))
    if math.isnan(analytic):
        second_derivative(c, p_inc)  # raises SingularityError naming the denominator
    return analytic, numeric, rel_err
