"""States, projectors and the attenuation filter."""

import math

import numpy as np
import pytest

from measdiscrim import (
    DomainError,
    FilterOperator,
    PureQubitState,
    apply_filter,
    apply_sigma_y,
    filter_for_budget,
    measurement_pair,
    overlap,
)
from measdiscrim.geometry import SIGMA_Y

from oracles import FROZEN

THETAS = np.linspace(0.0, math.pi / 4.0, 9)


def test_eigenstates_match_trig_form():
    theta = math.pi / 6.0
    pair = measurement_pair(theta)
    c, s = math.cos(theta), math.sin(theta)
    np.testing.assert_allclose(pair.phi.amplitudes, [c, s], atol=1e-15)
    np.testing.assert_allclose(pair.phi_perp.amplitudes, [s, -c], atol=1e-15)
    np.testing.assert_allclose(pair.psi.amplitudes, [c, -s], atol=1e-15)
    np.testing.assert_allclose(pair.psi_perp.amplitudes, [s, c], atol=1e-15)


@pytest.mark.parametrize("theta", THETAS)
def test_projectors_complete_and_orthogonal(theta):
    pair = measurement_pair(theta)
    eye = np.eye(2)
    np.testing.assert_allclose(pair.m0 + pair.m1, eye, atol=1e-12)
    np.testing.assert_allclose(pair.n0 + pair.n1, eye, atol=1e-12)
    np.testing.assert_allclose(pair.m0 @ pair.m1, 0.0 * eye, atol=1e-12)
    np.testing.assert_allclose(pair.n0 @ pair.n1, 0.0 * eye, atol=1e-12)
    assert pair.m0 @ pair.phi.amplitudes == pytest.approx(list(pair.phi.amplitudes))


@pytest.mark.parametrize("theta", THETAS)
def test_overlap_is_cos_two_theta(theta):
    assert overlap(measurement_pair(theta)) == pytest.approx(
        math.cos(2.0 * theta), abs=1e-15
    )


def test_overlap_frozen_value():
    assert overlap(measurement_pair(math.pi / 6.0)) == pytest.approx(
        FROZEN["overlap_pi6"], abs=1e-15
    )


@pytest.mark.parametrize("theta", THETAS)
def test_sigma_y_swaps_the_two_measurements(theta):
    pair = measurement_pair(theta)
    np.testing.assert_allclose(SIGMA_Y @ pair.m1 @ SIGMA_Y.T, pair.m0, atol=1e-12)
    np.testing.assert_allclose(SIGMA_Y @ pair.n1 @ SIGMA_Y.T, pair.n0, atol=1e-12)
    # on the eigenstates: sigma_y maps phi_perp to -phi and psi_perp to psi
    np.testing.assert_allclose(
        apply_sigma_y(pair.phi_perp).amplitudes, -pair.phi.amplitudes, atol=1e-12
    )
    np.testing.assert_allclose(
        apply_sigma_y(pair.psi_perp).amplitudes, pair.psi.amplitudes, atol=1e-12
    )


def test_theta_domain_is_validated():
    with pytest.raises(DomainError, match="theta outside"):
        measurement_pair(-0.01)
    with pytest.raises(DomainError, match="theta outside"):
        measurement_pair(math.pi / 4.0 + 0.01)


def test_state_validation():
    with pytest.raises(DomainError, match="two amplitudes"):
        PureQubitState(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(DomainError, match="unit norm"):
        PureQubitState(np.array([1.0, 1.0]))
    proj = PureQubitState(np.array([0.6, 0.8])).projector()
    np.testing.assert_allclose(proj, [[0.36, 0.48], [0.48, 0.64]], atol=1e-15)


def test_filter_operator_validation():
    with pytest.raises(DomainError, match="attenuation"):
        FilterOperator(1.2)
    with pytest.raises(DomainError, match="attenuation"):
        FilterOperator(-0.2)
    np.testing.assert_allclose(FilterOperator(0.25).matrix, np.diag([0.25, 1.0]))


def test_filter_for_budget_frozen_value():
    filt = filter_for_budget(math.pi / 6.0, 0.3)
    assert filt.f == pytest.approx(FROZEN["filter_pi6_p03"], abs=1e-15)
    # spending the whole unambiguous budget leaves f = tan(theta)
    idp = filter_for_budget(math.pi / 6.0, 0.5)
    assert idp.f == pytest.approx(FROZEN["idp_filter_pi6"], abs=1e-15)


def test_filter_budget_domain():
    with pytest.raises(DomainError, match="exceeds IDP point"):
        filter_for_budget(math.pi / 6.0, 0.51)
    with pytest.raises(DomainError, match="non-negative"):
        filter_for_budget(math.pi / 6.0, -0.01)
    with pytest.raises(DomainError, match="budget is not a number"):
        filter_for_budget(0.3, math.nan)
    # A bad angle is named before the budget is looked at.
    for theta, p_inc in ((math.inf, math.nan), (5.0, 0.0)):
        with pytest.raises(DomainError, match="theta"):
            filter_for_budget(theta, p_inc)


@pytest.mark.parametrize("theta", THETAS[1:-1])
@pytest.mark.parametrize("p_inc", [0.0, 0.1, 0.25])
def test_filter_spends_the_requested_budget(theta, p_inc):
    c = math.cos(2.0 * theta)
    if p_inc > c:
        pytest.skip("budget beyond the unambiguous point for this theta")
    filt = filter_for_budget(theta, p_inc)
    pair = measurement_pair(theta)
    out_phi, prob_phi = apply_filter(filt, pair.phi)
    out_psi, prob_psi = apply_filter(filt, pair.psi)
    # both conclusive branches survive with the same probability 1 - p_inc
    assert prob_phi == pytest.approx(prob_psi, abs=1e-12)
    assert prob_phi == pytest.approx(1.0 - p_inc, abs=1e-12)
    expected = filt.matrix @ pair.phi.amplitudes
    np.testing.assert_allclose(
        out_phi.amplitudes, expected / np.linalg.norm(expected), atol=1e-12
    )


def test_filter_success_is_squared_norm():
    filt = FilterOperator(0.3)
    state = PureQubitState(np.array([0.6, 0.8]))
    _, prob = apply_filter(filt, state)
    assert prob == pytest.approx(0.09 * 0.36 + 0.64, abs=1e-15)


def test_fully_blocked_state_has_no_output():
    out, prob = apply_filter(FilterOperator(0.0), PureQubitState(np.array([1.0, 0.0])))
    assert out is None
    assert prob == 0.0
