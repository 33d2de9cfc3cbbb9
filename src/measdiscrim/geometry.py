"""Measurement pair, probe states, the sigma_y relation, and the filter.

Two projective qubit measurements M and N are parameterized by a single
angle theta in [0, pi/4]. Their outcome-0 eigenstates phi and psi have
real amplitudes and overlap cos(2*theta); the antisymmetric unitary
sigma_y = |0><1| - |1><0| exchanges the outcome-1 projectors for the
outcome-0 ones. A partial filter diag(f, 1) attenuates the |0> amplitude
and turns the conclusive/inconclusive trade-off into a single knob.

Everything here is real-valued and exact up to double precision; state
equality is always projector equality (global sign is unphysical).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

TOL = 1e-12

SIGMA_Y = np.array([[0.0, 1.0], [-1.0, 0.0]])


def check_theta(theta) -> np.ndarray:
    """Reject angles more than TOL outside [0, pi/4]; clamp the rest.

    The one domain check for the measurement angle; accepts scalars and
    arrays and returns a float array of the same shape.
    """
    theta = np.asarray(theta, dtype=float)
    if not np.all((theta >= -TOL) & (theta <= math.pi / 4.0 + TOL)):
        raise DomainError("theta outside [0, pi/4]")
    return np.clip(theta, 0.0, math.pi / 4.0)


@dataclass(frozen=True)
class PureQubitState:
    """A qubit state with real amplitudes, unit norm."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=float)
        if amps.shape != (2,):
            raise DomainError("state must have exactly two amplitudes")
        if abs(amps @ amps - 1.0) > TOL:
            raise DomainError("state amplitudes must have unit norm")
        object.__setattr__(self, "amplitudes", amps)

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes)


@dataclass(frozen=True)
class FilterOperator:
    """diag(f, 1): attenuates the |0> amplitude by f in [0, 1]."""

    f: float

    def __post_init__(self):
        if not -TOL <= self.f <= 1.0 + TOL:
            raise DomainError("filter attenuation must lie in [0, 1]")
        object.__setattr__(self, "f", float(min(max(self.f, 0.0), 1.0)))

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.f, 0.0], [0.0, 1.0]])


@dataclass(frozen=True)
class MeasurementPair:
    """The two projective measurements and their eigenstates at angle theta.

    phi/phi_perp are the outcome-0/1 eigenstates of M, psi/psi_perp those
    of N; m0, m1, n0, n1 are the corresponding rank-1 projectors.
    """

    theta: float
    phi: PureQubitState
    phi_perp: PureQubitState
    psi: PureQubitState
    psi_perp: PureQubitState
    m0: np.ndarray
    m1: np.ndarray
    n0: np.ndarray
    n1: np.ndarray


def measurement_pair(theta: float) -> MeasurementPair:
    """Build the measurement pair for theta in [0, pi/4].

    Callers must canonicalize their bases to this normal form first; out of
    range angles are rejected, never remapped.
    """
    theta = float(check_theta(theta))
    ct, st = math.cos(theta), math.sin(theta)
    phi = PureQubitState(np.array([ct, st]))
    phi_perp = PureQubitState(np.array([st, -ct]))
    psi = PureQubitState(np.array([ct, -st]))
    psi_perp = PureQubitState(np.array([st, ct]))
    return MeasurementPair(
        theta=theta,
        phi=phi,
        phi_perp=phi_perp,
        psi=psi,
        psi_perp=psi_perp,
        m0=phi.projector(),
        m1=phi_perp.projector(),
        n0=psi.projector(),
        n1=psi_perp.projector(),
    )


def overlap(pair: MeasurementPair) -> float:
    """c = |<psi|phi>| = cos(2*theta), the pair's distinguishability knob."""
    return math.cos(2.0 * pair.theta)


def apply_sigma_y(state: PureQubitState) -> PureQubitState:
    return PureQubitState(SIGMA_Y @ state.amplitudes)


def filter_for_budget(theta: float, p_inc: float) -> FilterOperator:
    """The attenuation filter that spends exactly p_inc on inconclusives.

    f = sqrt(1 - p_inc / cos^2(theta)); p_inc may not exceed cos(2*theta),
    the point where the filtered states become orthogonal.
    """
    theta = float(check_theta(theta))
    if math.isnan(p_inc):
        raise DomainError("inconclusive budget is not a number")
    if p_inc < -TOL:
        raise DomainError("inconclusive budget must be non-negative")
    c = math.cos(2.0 * theta)
    if p_inc > c + TOL:
        raise DomainError("budget exceeds IDP point")
    p_inc = min(max(p_inc, 0.0), c)
    cos2 = math.cos(theta) ** 2
    return FilterOperator(math.sqrt(max(0.0, 1.0 - p_inc / cos2)))


def apply_filter(
    filt: FilterOperator, state: PureQubitState
) -> tuple[PureQubitState | None, float]:
    """Filter a state; returns (normalized output or None, success prob).

    The output is None exactly when the filtered vector has zero norm
    (f = 0 acting on |0>), in which case the success probability is 0 and
    the conditional output state is undefined.
    """
    out = filt.matrix @ state.amplitudes
    norm_sq = float(out @ out)
    if norm_sq < 1e-24:
        return None, 0.0
    return PureQubitState(out / math.sqrt(norm_sq)), norm_sq
