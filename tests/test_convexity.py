"""Curvature of the single-qubit success curve on both branches."""

import math

import numpy as np
import pytest

from measdiscrim import (
    BranchCrossingError,
    DomainError,
    SingularityError,
    boundary_PIB,
    concave_second_derivative,
    finite_difference_check,
    second_derivative,
    y_root,
)
from measdiscrim.strategies import _pure_probe_success, single_pure_curve

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


@pytest.mark.parametrize("c,p", [(0.5, 0.3), (0.9, 0.1), (0.2, 0.35), (0.7, 0.5)])
def test_curvature_matches_high_precision_differencing(c, p):
    bundle = second_derivative(c, p)
    reference = oracles.mp_second_derivative(c, p)
    assert bundle.d2PS_dPI2 == pytest.approx(reference, rel=1e-6)


@pytest.mark.parametrize("c", [0.3, 0.6, 0.9])
def test_implicit_derivatives_match_finite_differences(c):
    h = 1e-5
    for p in np.linspace(0.05, boundary_PIB(c) - 0.05, 8):
        p = float(p)
        bundle = second_derivative(c, p)
        y_lo, y_hi = y_root(c, p - h), y_root(c, p + h)
        first = (y_hi - y_lo) / (2.0 * h)
        second = (y_hi - 2.0 * bundle.y + y_lo) / (h * h)
        assert bundle.y_prime == pytest.approx(first, rel=1e-4, abs=1e-9)
        assert bundle.y_double_prime == pytest.approx(second, rel=1e-3, abs=1e-5)


def test_convex_branch_curvature_is_non_negative():
    for c in C_GRID:
        pib = boundary_PIB(float(c))
        for p in np.linspace(1e-3, pib - 1e-3, 30):
            assert second_derivative(float(c), float(p)).d2PS_dPI2 >= -1e-9


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
    analytic, numeric, rel_err = finite_difference_check(0.5, 0.3, h=1e-4)
    assert rel_err <= 1e-3
    assert analytic == pytest.approx(numeric, rel=1e-3)
    assert analytic == pytest.approx(
        second_derivative(0.5, 0.3).d2PS_dPI2, abs=1e-15
    )


def test_finite_difference_check_concave():
    analytic, numeric, rel_err = finite_difference_check(0.5, 0.61, h=1e-4)
    assert rel_err <= 1e-3
    assert analytic < 0.0
    assert analytic == pytest.approx(FROZEN["d2_concave_c05_p061"], abs=1e-12)


def test_finite_difference_stencil_must_stay_inside_one_branch():
    pib = boundary_PIB(0.5)
    with pytest.raises(BranchCrossingError, match="straddles"):
        finite_difference_check(0.5, pib, h=1e-4)
    with pytest.raises(BranchCrossingError, match="straddles"):
        finite_difference_check(0.5, pib - 5e-5, h=1e-4)
    with pytest.raises(BranchCrossingError, match="at 0"):
        finite_difference_check(0.5, 5e-5, h=1e-4)
    with pytest.raises(BranchCrossingError, match="unambiguous endpoint"):
        finite_difference_check(0.5, 0.625 - 5e-5, h=1e-4)


def test_implicit_denominator_stays_regular_on_domain():
    # double roots of the substituted cubic would need a negative budget,
    # so the implicit denominator is bounded away from zero everywhere
    for c in C_GRID:
        pib = boundary_PIB(float(c))
        for p in np.linspace(1e-3, pib - 1e-3, 15):
            bundle = second_derivative(float(c), float(p))
            denom = 3.0 * bundle.y**2 - 4.0 * bundle.y + 1.0 - float(p)
            assert abs(denom) > 1e-3


def test_singularity_guard_fires_when_tripped(monkeypatch):
    import measdiscrim.convexity as convexity

    monkeypatch.setattr(convexity, "DENOM_FLOOR", 10.0)
    with pytest.raises(SingularityError, match="denominator"):
        second_derivative(0.5, 0.3)


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
    with pytest.raises(DomainError, match="step h"):
        finite_difference_check(0.5, 0.3, h=0.0)
