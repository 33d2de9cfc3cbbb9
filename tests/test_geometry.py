"""The measurement pair, its projectors and the sigma_y relation."""

import math

import numpy as np
import pytest

from measdiscrim import DomainError, measurement_pair, overlap
from measdiscrim.geometry import check_integer

from oracles import FROZEN, SIGMA_Y

THETAS = np.linspace(0.0, math.pi / 4.0, 9)


def test_eigenstates_match_trig_form():
    theta = math.pi / 6.0
    pair = measurement_pair(theta)
    c, s = math.cos(theta), math.sin(theta)
    for proj, vec in (
        (pair.m0, [c, s]), (pair.m1, [s, -c]), (pair.n0, [c, -s]), (pair.n1, [s, c])
    ):
        np.testing.assert_array_equal(proj, np.outer(vec, vec))


@pytest.mark.parametrize("theta", THETAS)
def test_projectors_complete_and_orthogonal(theta):
    pair = measurement_pair(theta)
    eye = np.eye(2)
    np.testing.assert_allclose(pair.m0 + pair.m1, eye, atol=1e-12)
    np.testing.assert_allclose(pair.n0 + pair.n1, eye, atol=1e-12)
    np.testing.assert_allclose(pair.m0 @ pair.m1, 0.0 * eye, atol=1e-12)
    np.testing.assert_allclose(pair.n0 @ pair.n1, 0.0 * eye, atol=1e-12)
    phi = [math.cos(theta), math.sin(theta)]
    assert pair.m0 @ phi == pytest.approx(phi)


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
    np.testing.assert_allclose(SIGMA_Y @ pair.m0 @ SIGMA_Y.T, pair.m1, atol=1e-12)
    np.testing.assert_allclose(SIGMA_Y @ pair.n0 @ SIGMA_Y.T, pair.n1, atol=1e-12)


def test_theta_domain_is_validated():
    with pytest.raises(DomainError, match="theta outside"):
        measurement_pair(-0.01)
    with pytest.raises(DomainError, match="theta outside"):
        measurement_pair(math.pi / 4.0 + 0.01)


def test_integer_check_accepts_integers_and_names_the_rest():
    assert check_integer(np.int64(7), "seed") == 7
    assert check_integer(100.0, "n", 100) == 100
    assert check_integer(2**200, "seed") == 2**200  # seeds of any size, as in numpy
    for bad in (True, np.bool_(False), 2.5, math.nan, math.inf, "3", None):
        with pytest.raises(DomainError, match=r"^seed must be an integer"):
            check_integer(bad, "seed")
    with pytest.raises(DomainError, match=r"^seed must be non-negative, got -1$"):
        check_integer(-1, "seed")
    with pytest.raises(DomainError, match=r"^n must be at least 100, got 99$"):
        check_integer(99, "n", 100, 200)
    with pytest.raises(DomainError, match=r"^n must be at most 200, got 201$"):
        check_integer(201, "n", 100, 200)
    with pytest.raises(DomainError, match=r"^too many$"):
        check_integer(2**63, "n", 100, 200, above="too many")


@pytest.mark.parametrize("theta", THETAS[1:-1])
@pytest.mark.parametrize("p_inc", [0.0, 0.1, 0.25])
def test_filter_spends_the_requested_budget(theta, p_inc):
    # diag(f, 1) with f^2 = 1 - p_inc / cos^2(theta), the bench filter at
    # transmittance T = f^2, passes either outcome-0 eigenstate with 1 - p_inc
    c = math.cos(2.0 * theta)
    if p_inc > c:
        pytest.skip("budget beyond the unambiguous point for this theta")
    pair = measurement_pair(theta)
    f2 = np.diag([1.0 - p_inc / math.cos(theta) ** 2, 1.0])
    assert np.trace(f2 @ pair.m0) == pytest.approx(1.0 - p_inc, abs=1e-12)
    assert np.trace(f2 @ pair.n0) == pytest.approx(1.0 - p_inc, abs=1e-12)
