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
-c*sqrt(1-c^2)*(c^2-(1-2P_I)^2)^(-3/2) is strictly negative. So the sign of
the curvature is proved on both branches; the finite differences check the
closed forms' values.

finite_difference_check differences the closed-form slope S = dP_S/dP_I,
F_P(x*, P) = -½ - ½R(x*)/(1 - x*c) on the cubic branch and
`strategies._arc_slope` on the arc, by the four-point stencil
(S(p - h) - 8S(p - h/2) + 8S(p + h/2) - S(p + h))/(6h), whose rounding
grows as ε/h, not as the ε/h² of a second difference of P_S. A row's step is
h = min(FD_STEP, 0.4·margin), its margin the distance to the nearer end of
its branch (0, boundary_PIB or (1 + c²)/2), so no stencil leaves its
branch; a budget within FD_BOUNDARY of an end (`near_branch_end`) has no
difference. Each public function runs one domain check on entry; the
private helpers and the `strategies` kernels they call (`_p_top`, `_pib`,
`_arc_slope`) assume checked, flat float arrays.
"""

from __future__ import annotations

import numpy as np

from . import _cubic
from .errors import BranchCrossingError, DomainError
from .geometry import TOL
from .strategies import _arc_slope, _p_top, _pib

# Least |curvature| rel_err divides by: far below the least tabled one, 5e-7 at c = 0.001.
REL_ERR_FLOOR = 1e-12
# The largest finite-difference step; a row nearer a branch end takes 0.4 of its margin.
FD_STEP = 1e-4
# Budgets closer than this to a branch end get no finite difference.
FD_BOUNDARY = 1e-7


def _check_convex_domain(c, p_inc):
    """Reject budgets outside [-TOL, boundary_PIB); clamp the rest to [0, boundary_PIB)."""
    _check_overlap_inside(c)
    if not np.all((p_inc >= -TOL) & (p_inc < _pib(c))):
        raise DomainError("budget outside [0, boundary_PIB)")
    return np.maximum(p_inc, 0.0)


def _check_overlap_inside(c) -> None:
    if not np.all((c > TOL) & (c < 1.0 - TOL)):
        raise DomainError("overlap c must lie strictly inside (0, 1)")


def _branch_margin(c, p_inc):
    """Distance to the nearer end of the budget's branch: 0, boundary_PIB or (1 + c²)/2."""
    return np.minimum(np.minimum(p_inc, np.abs(p_inc - _pib(c))), _p_top(c) - p_inc)


def near_branch_end(c, p_inc):
    """Budgets within FD_BOUNDARY of an end of their branch; arrays broadcast."""
    return _branch_margin(c, p_inc) < FD_BOUNDARY


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


def _convex_slope(c, p_inc):
    """dP_S/dP_I of the pure curve below boundary_PIB: F_P(x*, P_I), x* = y/c."""
    y = _cubic.least_root(c, p_inc)
    return -0.5 - 0.5 * np.sqrt((1.0 - c * c) * (1.0 - (y / c) ** 2)) / (1.0 - y)


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


def finite_difference_check_array(c, p_inc) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """finite_difference_check at arrays of overlaps and budgets.

    The arguments broadcast to one shape. One array call of the least root
    gives the analytic curvature of every convex row, and one more the
    slopes of all their stencils. An error is raised for the whole call
    when any row commits it.
    """
    shape = np.broadcast(c, p_inc).shape
    c, p_inc = (np.ravel(a) for a in np.broadcast_arrays(c, p_inc))
    _check_overlap_inside(c)
    p_top = _p_top(c)
    if not np.all((p_inc >= 0.0) & (p_inc <= p_top)):
        raise DomainError("budget must be finite and lie in [0, (1 + c^2)/2]")
    if np.any(near := near_branch_end(c, p_inc)):
        raise BranchCrossingError(
            f"budget {p_inc[np.argmax(near)]} lies within {FD_BOUNDARY:g} of a branch end"
        )
    convex = p_inc < _pib(c)
    h = np.minimum(FD_STEP, 0.4 * _branch_margin(c, p_inc))
    analytic = np.empty(p_inc.shape)
    analytic[~convex] = _concave_curvature(c[~convex], p_inc[~convex])
    analytic[convex] = _convex_curvature(c[convex], p_inc[convex])
    stencil = p_inc + np.array([[-1.0], [-0.5], [0.5], [1.0]]) * h
    slope = np.empty(stencil.shape)
    slope[:, convex] = _convex_slope(c[convex], stencil[:, convex])
    ca = c[~convex]
    slope[:, ~convex] = _arc_slope(ca, np.sqrt(1.0 - ca * ca), stencil[:, ~convex])
    numeric = (slope[0] - 8.0 * slope[1] + 8.0 * slope[2] - slope[3]) / (6.0 * h)
    rel_err = np.abs(analytic - numeric) / np.maximum(np.abs(analytic), REL_ERR_FLOOR)
    return analytic.reshape(shape), numeric.reshape(shape), rel_err.reshape(shape)


def finite_difference_check(c: float, p_inc: float) -> tuple[float, float, float]:
    """Compare the analytic curvature against a difference of the slope.

    The four-point stencil spans [p_inc - h, p_inc + h] with
    h = min(FD_STEP, 0.4·margin) and stays inside the budget's branch; a
    budget within FD_BOUNDARY of a branch end raises BranchCrossingError.
    Returns (analytic, numeric, rel_err) with
    rel_err = |a - n| / max(|a|, REL_ERR_FLOOR).
    finite_difference_check_array takes arrays.
    """
    return tuple(map(float, finite_difference_check_array(c, p_inc)))
