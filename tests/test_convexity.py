"""Curvature of the single-qubit success curve on both branches."""

import math

import numpy as np
import pytest

from measdiscrim import (
    BranchCrossingError,
    DomainError,
    boundary_PIB,
    concave_second_derivative,
    finite_difference_check,
    second_derivative,
    y_root,
)
from measdiscrim import _cubic
from measdiscrim.convexity import FD_BOUNDARY, _convex_slope
from measdiscrim.strategies import _arc_slope, _pib, _pure_probe_success, single_pure_curve

import oracles
from oracles import FROZEN

C_GRID = np.arange(0.05, 0.951, 0.05)


def test_substituted_root_frozen_value():
    assert y_root(0.5, 0.3) == pytest.approx(FROZEN["y_root_c05_p03"], abs=1e-14)
    # y = c * x by construction
    assert y_root(0.5, 0.3) == pytest.approx(
        0.5 * FROZEN["x_opt_c05_p03"], abs=1e-14
    )


def success_in_y(c: float, p_inc: float, y: float) -> float:
    """The module docstring's P_S in terms of y = c*x, written out anew."""
    return 0.5 * (1.0 - p_inc) + (math.sqrt(1.0 - c * c) / (2.0 * c)) * math.sqrt(
        max(0.0, c * c - y * y)
    ) * (1.0 - p_inc / (1.0 - y))


@pytest.mark.parametrize("c", [0.2, 0.5, 0.8])
def test_substituted_form_reproduces_the_pure_curve(c):
    theta = 0.5 * math.acos(c)
    for p in np.linspace(0.02, boundary_PIB(c) - 0.02, 12):
        y = y_root(c, float(p))
        direct = single_pure_curve(theta, float(p))[0].p_success
        assert abs(success_in_y(c, float(p), y) - direct) <= 1e-12
        assert abs(float(_pure_probe_success(c, float(p), y / c)) - direct) <= 1e-12


def test_substituted_root_is_c_times_the_pure_curve_probe():
    for c in C_GRID:
        c = float(c)
        theta = 0.5 * math.acos(c)
        for p in np.linspace(0.0, boundary_PIB(c), 40, endpoint=False):
            x = single_pure_curve(theta, float(p))[1].x
            assert abs(y_root(c, float(p)) - c * x) <= 1e-10


@pytest.mark.parametrize(
    "c,p",
    [(0.5, 0.3), (0.9, 0.1), (0.2, 0.35), (0.7, 0.5)]
    + [
        (c, round(fraction * boundary_PIB(c), 6))
        for c in (0.001, 0.01, 0.05, 0.2, 0.5, 0.9, 0.99)
        for fraction in (0.1, 0.5, 0.9)
    ],
)
def test_curvature_matches_high_precision_differencing(c, p):
    reference = oracles.mp_second_derivative(c, p)
    assert second_derivative(c, p) == pytest.approx(reference, rel=1e-13)


def test_convex_branch_curvature_is_non_negative():
    for c in C_GRID:
        pib = boundary_PIB(float(c))
        for p in np.linspace(1e-3, pib - 1e-3, 30):
            assert second_derivative(float(c), float(p)) > 0.0


@pytest.mark.parametrize("c", [1e-6, 0.001, 0.05, 0.3, 0.7, 0.99, 1.0 - 1e-9])
def test_pure_curve_is_the_maximum_of_affine_functions(c):
    # The convexity proof's premise: below boundary_PIB the pure curve is
    # F(x₁, P) = max over x in [-1, 1] of F(x, P), each F(x, ·) affine in P.
    theta = 0.5 * math.acos(c)
    x = np.linspace(-1.0, 1.0, 4001)
    step = x[1] - x[0]
    for p in np.linspace(0.0, boundary_PIB(c), 25, endpoint=False):
        point, strat = single_pure_curve(theta, float(p))
        f = _pure_probe_success(c, float(p), x)
        assert f.max() - point.p_success <= 1e-15
        assert abs(x[np.argmax(f)] - strat.x) <= step


def test_concave_branch_frozen_values():
    assert concave_second_derivative(0.5, 0.61) == pytest.approx(
        FROZEN["d2_concave_c05_p061"], abs=1e-12
    )
    assert concave_second_derivative(0.9, 0.8) == pytest.approx(
        FROZEN["d2_concave_c09_p08"], abs=1e-12
    )
    assert concave_second_derivative(0.5, 0.61) == pytest.approx(
        oracles.mp_second_derivative(0.5, 0.61, concave=True), rel=1e-9
    )
    assert concave_second_derivative(0.9, 0.8) == pytest.approx(
        oracles.mp_second_derivative(0.9, 0.8, concave=True), rel=1e-9
    )


def test_concave_branch_curvature_is_negative():
    for c in C_GRID:
        c = float(c)
        pib = boundary_PIB(c)
        top = 0.5 * (1.0 + c * c)
        band = top - pib
        for p in np.linspace(pib + 0.05 * band, top - 0.05 * band, 10):
            assert concave_second_derivative(c, float(p)) < 0.0


def test_finite_difference_check_convex():
    analytic, numeric, rel_err = finite_difference_check(0.5, 0.3)
    assert rel_err <= 1e-3
    assert analytic == pytest.approx(numeric, rel=1e-3)
    assert analytic == pytest.approx(second_derivative(0.5, 0.3), abs=1e-15)


def test_finite_difference_check_concave():
    analytic, numeric, rel_err = finite_difference_check(0.5, 0.61)
    assert rel_err <= 1e-3
    assert analytic < 0.0
    assert analytic == pytest.approx(FROZEN["d2_concave_c05_p061"], abs=1e-12)


def test_finite_difference_stencil_must_stay_inside_one_branch():
    # A budget within FD_BOUNDARY of a branch end has no difference; one
    # just outside it takes a step of 0.4 of its margin, and its stencil
    # stays on its own branch.
    pib = boundary_PIB(0.5)
    for p in (pib, pib - 0.5 * FD_BOUNDARY, pib + 0.5 * FD_BOUNDARY,
              0.5 * FD_BOUNDARY, 0.625 - 0.5 * FD_BOUNDARY):
        with pytest.raises(BranchCrossingError, match="of a branch end"):
            finite_difference_check(0.5, p)
    for p in (pib - 5e-5, pib + 5e-5, 5e-5, 0.625 - 5e-5, pib - 2.0 * FD_BOUNDARY):
        analytic, _, rel_err = finite_difference_check(0.5, p)
        assert (analytic > 0.0) == (p < pib)
        assert rel_err <= 1e-5


@pytest.mark.parametrize("c", [0.001, 0.05, 0.5, 0.9, 0.999])
def test_closed_form_slopes_match_high_precision_differencing(c):
    # The slopes that finite_difference_check differences: F_P(x*, P) on the
    # cubic branch (the envelope theorem) and the arc's own derivative.
    pib = boundary_PIB(c)
    p_top = 0.5 * (1.0 + c * c)
    for p in (0.1 * pib, 0.5 * pib, 0.9 * pib):
        slope = float(_convex_slope(np.array([c]), np.array([p]))[0])
        assert slope == pytest.approx(oracles.mp_slope(c, p), rel=1e-13)
    for p in (pib + 0.1 * (p_top - pib), 0.5 * (pib + p_top)):
        slope = float(_arc_slope(c, math.sqrt(1.0 - c * c), p))
        assert slope == pytest.approx(oracles.mp_slope(c, p, concave=True), rel=1e-13)


def test_implicit_denominator_stays_regular_on_domain():
    # On the convex domain -c/2 <= y <= 0 (the convexity docstring), so the
    # curvature's denominators keep f'(y) >= 1 - P_I and c² - y² >= ¾c².
    rng = np.random.default_rng(3401)
    n = 50_000
    c = np.concatenate([
        10.0 ** rng.uniform(-12.0, 0.0, n),
        1.0 - 10.0 ** rng.uniform(-12.0, -1.0, n),
        rng.uniform(1e-12, 1.0 - 1e-12, n),
    ])
    c = np.clip(c, 1e-12, 1.0 - 1e-12)
    pib = _pib(c)
    near_top = pib * (1.0 - 10.0 ** rng.uniform(-16.0, -1.0, c.size))
    p = np.where(rng.uniform(size=c.size) < 0.5, rng.uniform(size=c.size) * pib, near_top)
    assert np.all(p < pib) and p.max() > 0.7
    y = _cubic.least_root(c, p)
    assert np.all((y <= 0.0) & (y >= -0.5 * c))
    assert np.all((3.0 * y - 4.0) * y + 1.0 - p >= 1.0 - p)
    assert np.all(c * c - y * y >= 0.75 * c * c)


@pytest.mark.parametrize("c", [1e-6, 0.5, 1.0 - 1e-9])
def test_a_budget_just_below_zero_is_clamped_to_zero(c):
    assert y_root(c, -1e-13) == y_root(c, 0.0) == 0.0


def test_domain_validation():
    with pytest.raises(DomainError, match="strictly inside"):
        second_derivative(0.0, 0.1)
    with pytest.raises(DomainError, match="strictly inside"):
        second_derivative(1.0, 0.1)
    with pytest.raises(DomainError, match="open interval"):
        second_derivative(0.5, 0.0)
    with pytest.raises(DomainError, match="outside"):
        second_derivative(0.5, boundary_PIB(0.5) + 0.01)
    with pytest.raises(DomainError, match="outside"):
        concave_second_derivative(0.5, 0.3)
    with pytest.raises(DomainError, match="outside"):
        concave_second_derivative(0.5, 0.63)


def test_budget_is_range_checked_before_the_stencil():
    # A budget outside [0, (1 + c^2)/2] is outside the domain; no stencil
    # is formed from it, so nothing overflows.
    for p_inc in (1e308, math.nan, math.inf, -1e-13, 0.625 + 1e-12):
        with pytest.raises(DomainError, match="budget must be finite and lie in") as err:
            finite_difference_check(0.5, p_inc)
        assert not isinstance(err.value, BranchCrossingError)
    # The endpoints themselves are in the domain, but at a branch end.
    with pytest.raises(BranchCrossingError, match="0.0 lies within 1e-07 of a branch end"):
        finite_difference_check(0.5, 0.0)
    with pytest.raises(BranchCrossingError, match="0.625 lies within 1e-07 of a branch end"):
        finite_difference_check(0.5, 0.625)
