"""Closed-form curvature of the single-qubit pure curve, with FD validation.

Below boundary_PIB the pure curve's probe is x* = y/c, with y the least root
of the conclusive-rate cubic f(y) = y^3 - 2y^2 + (1 - P_I)y + P_I c^2
(`_cubic.least_root`), and its success is F(x*, P_I), where

    F(x, P) = ½(1 - P) + ½R(x)(1 - P/(1 - xc)),  R(x) = sqrt((1-c^2)(1-x^2)).

Convexity. By the sign argument in `_cubic`, F rises from x = -1 to
x₁ = y/c, falls until the next root, and F(±1) = ½(1 - P) ≤ F(x₁); so
F(x₁, P) is the maximum of F(x, P) over x ∈ [-1, 1]. At fixed x, F is affine
in P, so below boundary_PIB the pure curve is a pointwise maximum of affine
functions of P_I, and is convex (Boyd and Vandenberghe, Convex Optimization,
§3.2.3).

Curvature. By the envelope theorem dP_S/dP = F_P(x*, P). With F_x = 0 at
x*, x*' = -F_xP/F_xx and d2 P_S / d P^2 = F_xP x*' = -F_xP^2/F_xx, where

    F_xP = -½ sqrt(1-c^2)(c - x) / (sqrt(1-x^2)(1 - xc)^2),
    F_xx = -f'(y) R / (2(1-x^2)(1 - xc)^2)

(the second from the slope formula in `_cubic`, whose factor f(cx) vanishes
at x*). In y = cx this is `_convex_curvature`:

    d2 P_S / d P_I^2 = sqrt(1-c^2)(c^2 - y)^2
                       / (2c f'(y) sqrt(c^2 - y^2) (1 - y)^2),
    f'(y) = 3y^2 - 4y + 1 - P_I.

No denominator of it vanishes. boundary_PIB = (3 + sqrt(1 + 8c^2))/8 is at
most (1 + c/2)^2/(1 + 2c), that is sqrt(1 + 8c^2)(1 + 2c) ≤ 5 + 2c + 2c^2,
as (5 + 2c + 2c^2)^2 - (1 + 8c^2)(1 + 2c)^2 = (24 + 16c)(1 - c^3) +
12c^2(1 - c^2) ≥ 0, zero only at c = 1. So f(-c/2) = (c/2)(P_I(1 + 2c) -
(1 + c/2)^2) ≤ 0 ≤ f(0) = P_I c^2 on the convex domain, and -c/2 ≤ y ≤ 0.
Hence f'(y) ≥ 1 - P_I > ¼ (boundary_PIB ≤ ¾), c^2 - y^2 ≥ ¾c^2 and
(1 - y)^2 ≥ 1; and c^2 - y > 0, so the curvature is strictly positive.

Past boundary_PIB the curve follows the q = 0 arc, whose curvature
-c*sqrt(1-c^2)*(c^2-(1-2P_I)^2)^(-3/2) is strictly negative.
finite_difference_check validates either branch numerically.

`finite_difference_check_array` takes arrays: one array call of
`_cubic.least_root` gives the analytic curvature of every convex row, and
one call of the pure-curve kernel, at the row's own c, evaluates every
five-point stencil. Each public function runs one domain check on entry,
the budget's before any stencil is formed; the private helpers and the
`strategies` kernels they call (`_p_top`, `_pib`, `_pure_kernel`) assume
checked, flat float arrays.
"""

from __future__ import annotations

import math

import numpy as np

from . import _cubic
from .errors import BranchCrossingError, DomainError
from .geometry import TOL
from .strategies import _p_top, _pib, _pure_kernel

# Least |curvature| rel_err divides by: far below the least tabled one, 5e-7 at c = 0.001.
REL_ERR_FLOOR = 1e-12
# The least step whose square is a normal double.
MIN_STEP = math.sqrt(np.finfo(float).tiny)


def _check_convex_domain(c, p_inc):
    """Reject budgets outside [-TOL, boundary_PIB); clamp the rest to [0, boundary_PIB)."""
    _check_overlap_inside(c)
    if not np.all((p_inc >= -TOL) & (p_inc < _pib(c))):
        raise DomainError("budget outside [0, boundary_PIB)")
    return np.maximum(p_inc, 0.0)


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


def y_root(c: float, p_inc: float) -> float:
    """The maximizing root y = c*x of the substituted cubic.

    It is the least root, which lies in [-c, 0] (see `_cubic`); its
    x = y/c is the probe of the pure curve.
    """
    p_inc = _check_convex_domain(c, p_inc)
    return float(_cubic.least_root(np.array([c]), np.array([p_inc]))[0])


def _convex_curvature(c, p_inc):
    """d2 P_S / d P_I^2 of the pure curve below boundary_PIB (module docstring)."""
    y = _cubic.least_root(c, p_inc)
    df = (3.0 * y - 4.0) * y + 1.0 - p_inc
    c2 = c * c
    return (
        np.sqrt(1.0 - c2) * (c2 - y) ** 2
        / (2.0 * c * df * np.sqrt(c2 - y * y) * (1.0 - y) ** 2)
    )


def second_derivative(c: float, p_inc: float) -> float:
    """Curvature of the pure curve below the q = 0 boundary budget; strictly positive."""
    p_inc = _check_convex_domain(c, p_inc)
    if p_inc <= TOL:
        raise DomainError("budget outside the open interval (0, boundary_PIB)")
    return float(_convex_curvature(np.array([c]), np.array([p_inc]))[0])


def _concave_curvature(c, p_inc):
    return -c * np.sqrt(1.0 - c * c) * (c * c - (1.0 - 2.0 * p_inc) ** 2) ** -1.5


def concave_second_derivative(c: float, p_inc: float) -> float:
    """Curvature of the q = 0 arc; strictly negative on its domain.

    There c² - (1 - 2P_I)² > 0: 1 - 2P_I lies in (-c², (1 - sqrt(1 + 8c²))/4),
    inside (-c, 0) as sqrt(1 + 8c²) < 1 + 4c.
    """
    _check_overlap_inside(c)
    if not _pib(c) < p_inc < _p_top(c):
        raise DomainError("budget outside (boundary_PIB, (1 + c^2)/2)")
    return float(_concave_curvature(c, p_inc))


def finite_difference_check_array(
    c, p_inc, h=1e-4
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """finite_difference_check at arrays of overlaps, budgets and steps.

    The arguments broadcast to one shape. One array call of the pure curve
    evaluates the stencils of all rows, and one array call of the least
    root gives the analytic curvature of every convex row. An error is
    raised for the whole call when any row commits it.
    """
    shape = np.broadcast(c, p_inc, h).shape
    c, p_inc, h = (np.ravel(a) for a in np.broadcast_arrays(c, p_inc, h))
    check_step(h)
    _check_overlap_inside(c)
    p_top = _p_top(c)
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
    analytic[convex] = _convex_curvature(c[convex], p_inc[convex])
    s = 0.5 * h
    stencil = p_inc + np.array([-h, -s, np.zeros_like(h), s, h])
    theta = 0.5 * np.arccos(c)
    f = _pure_kernel(np.tile(theta, 5), np.tile(c, 5), stencil.ravel())[0].reshape(5, -1)
    numeric = (-f[0] + 16.0 * f[1] - 30.0 * f[2] + 16.0 * f[3] - f[4]) / (3.0 * h * h)
    rel_err = np.abs(analytic - numeric) / np.maximum(np.abs(analytic), REL_ERR_FLOOR)
    return analytic.reshape(shape), numeric.reshape(shape), rel_err.reshape(shape)


def finite_difference_check(
    c: float, p_inc: float, h: float = 1e-4
) -> tuple[float, float, float]:
    """Compare analytic curvature against a central second difference.

    Uses a five-point stencil at half steps, so exactly [p_inc - h,
    p_inc + h] must stay inside one branch; straddling the q = 0 boundary
    budget raises BranchCrossingError. Returns (analytic, numeric,
    rel_err) with rel_err = |a - n| / max(|a|, REL_ERR_FLOOR).
    finite_difference_check_array takes arrays.
    """
    return tuple(map(float, finite_difference_check_array(c, p_inc, h)))
