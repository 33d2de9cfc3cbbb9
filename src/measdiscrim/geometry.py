"""The measurement pair, and the domain checks for angles and integer arguments.

Two projective qubit measurements M and N are parameterized by a single
angle theta in [0, pi/4]. Their outcome-0 eigenvectors (cos θ, sin θ) and
(cos θ, −sin θ) have real amplitudes and overlap cos(2*theta); the
outcome-1 eigenvectors are their orthogonal complements. Everything here
is real-valued and exact up to double precision.

The filter and the sigma_y branch correction of the entangled protocol
act inside the bench model (`simulator.cell_probabilities`) and the
test suite's process-tester oracle, not here.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

TOL = 1e-12
# Grid counts and ends this near whole or the stop snap to it: above rounding, below a step.
GRID_SNAP = 1e-9


def check_theta(theta) -> np.ndarray:
    """Reject angles more than TOL outside [0, pi/4]; clamp the rest.

    The one domain check for the measurement angle; accepts scalars and
    arrays and returns a float array of the same shape.
    """
    theta = np.asarray(theta, dtype=float)
    if not np.all((theta >= -TOL) & (theta <= math.pi / 4.0 + TOL)):
        raise DomainError("theta outside [0, pi/4]")
    return np.clip(theta, 0.0, math.pi / 4.0)


def check_integer(
    value, name: str, low: int = 0, high: int | None = None, *,
    below: str | None = None, above: str | None = None,
) -> int:
    """Reject bools, NaN, non-integral numbers and integers outside
    [low, high]; return the value as a Python int.

    The one domain check for counts and seeds, run before anything is sized
    by them. Python and numpy integers and integral floats pass; high=None
    leaves the range open above, as numpy does for seeds. Every message
    names the argument; `below` and `above` replace the range messages
    where a caller keeps its own wording.
    """
    n = None
    if isinstance(value, (float, np.floating)):
        n = int(value) if float(value).is_integer() else None
    elif not isinstance(value, (bool, np.bool_)):
        try:
            n = operator.index(value)
        except TypeError:
            pass
    if n is None:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if n < low:
        least = "non-negative" if low == 0 else f"at least {low}"
        raise DomainError(below or f"{name} must be {least}, got {n}")
    if high is not None and n > high:
        raise DomainError(above or f"{name} must be at most {high}, got {n}")
    return n


@dataclass(frozen=True)
class MeasurementPair:
    """The rank-1 projectors of the two measurements at angle theta.

    m0/m1 are the outcome-0/1 projectors of M, n0/n1 those of N.
    """

    theta: float
    m0: np.ndarray
    m1: np.ndarray
    n0: np.ndarray
    n1: np.ndarray


def _projector(a: float, b: float) -> np.ndarray:
    v = np.array([a, b])
    return np.outer(v, v)


def measurement_pair(theta: float) -> MeasurementPair:
    """Build the measurement pair for theta in [0, pi/4].

    Callers must canonicalize their bases to this normal form first; out of
    range angles are rejected, never remapped.
    """
    theta = float(check_theta(theta))
    ct, st = math.cos(theta), math.sin(theta)
    return MeasurementPair(
        theta=theta,
        m0=_projector(ct, st),
        m1=_projector(st, -ct),
        n0=_projector(ct, -st),
        n1=_projector(st, ct),
    )


def overlap(pair: MeasurementPair) -> float:
    """c = cos(2*theta), the overlap of the two outcome-0 eigenvectors."""
    return math.cos(2.0 * pair.theta)
