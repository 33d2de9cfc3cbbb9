"""Closed-form optimal discrimination curves and their characteristic points.

Discriminating the two measurements at overlap c = cos(2*theta) with a
fixed inconclusive budget P_I admits two families of protocols:

* entangled probe: success ½(1 - P_I + sin(2θ)·sqrt(1 - P_I/cos²θ)) on
  P_I ∈ [0, cos 2θ], interpolating from minimum-error discrimination at
  P_I = 0 to unambiguous discrimination at the endpoint;
* single-qubit probe at angle ϑ with post-processing probability q of
  guessing on the unfavorable outcome. The best pure protocol at fixed
  P_I has the probe x = cos(2ϑ) = y/c, where y is the least root of a
  cubic that `_cubic` proves optimal and computes alone, up to the budget
  boundary_PIB, then a q = 0 arc; probabilistically mixing the P_I = 0
  protocol with the arc's tangent point (at tangent_PIT) is strictly
  better in between, and the resulting piecewise curve is the upper
  boundary of the convex hull of all pure protocols: the arc read at the
  tangent budget on the chord, at the row's own budget beyond it. That
  curve needs no cubic.

Both budgets are (1 + c²)/2 minus a gap. As 1 + 2 sqrt(1 + 3c²) ≥ sqrt(1 + 8c²),
boundary_PIB's gap is at least 1.25 times tangent_PIT's, and rounded subtraction
is monotone, so boundary_PIB ≤ tangent_PIT ≤ (1 + c²)/2 holds in floats too.

`hull_verify` certifies that curve at the budgets of sampled protocols by
the single-qubit Lagrange dual h(λ), which bounds every protocol, sampled or
not; `advantage` measures how much the entangled family wins by.

Each public closed form checks and clamps its inputs once, on entry
(`check_theta`, `_check_budget`, `_check_overlap`), then calls private kernels
(`_entangled`, `_p_top`, `_pib`, `_pit`, `_arc_kernel`, `_pure_kernel`,
`_optimal_kernel`, `_dual`, `_optimal_slope`) that check nothing: they take
clamped float arrays, flat where they index by branch, with c = cos 2θ
computed once by the caller. The `_array` curves broadcast angles against
budgets and return `CurveSamples`; the scalar ones return `StrategyPoint`s
and `SingleQubitStrategy`s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _cubic
from .errors import DomainError, ValidationError
from .geometry import GRID_SNAP, TOL, check_integer, check_theta
# Below this overlap the measurements are effectively orthogonal and the
# single-qubit formulas are replaced by their analytic limits.
DEGENERATE_C = 1e-12
# Most protocols hull_verify samples; `hull` at this size peaks at about 140 MiB.
MAX_SAMPLES = 1_000_000
# Spacing of the default budget grid of the curves.
PI_GRID_STEP = 0.01


@dataclass(frozen=True)
class StrategyPoint:
    """Outcome probabilities (success, error, inconclusive) of a protocol."""

    p_success: float
    p_error: float
    p_inconclusive: float

    def __post_init__(self):
        vals = (self.p_success, self.p_error, self.p_inconclusive)
        for v in vals:
            if not -TOL <= v <= 1.0 + TOL:
                raise ValidationError(f"probability {v} outside [0, 1]")
        if abs(sum(vals) - 1.0) > TOL:
            raise ValidationError(f"probabilities sum to {sum(vals)}, not 1")
        for name, v in zip(("p_success", "p_error", "p_inconclusive"), vals):
            object.__setattr__(self, name, min(max(v, 0.0), 1.0))


@dataclass(frozen=True)
class SingleQubitStrategy:
    """A single-qubit protocol: probe angle ϑ, x = cos 2ϑ, guess rate q.

    Hull points carry `mixture`, a pair of (weight, component strategy);
    the angle fields are then None.
    """

    probe_angle: float | None
    x: float | None
    q: float | None
    mixture: tuple[tuple[float, "SingleQubitStrategy"], ...] | None = None

    def __post_init__(self):
        if self.mixture is None:
            if self.probe_angle is None or self.x is None or self.q is None:
                raise ValidationError("pure strategy needs probe_angle, x and q")
            if abs(math.cos(2.0 * self.probe_angle) - self.x) > TOL:
                raise ValidationError("x must equal cos(2*probe_angle)")
            if not -TOL <= self.q <= 1.0 + TOL:
                raise ValidationError("q outside [0, 1]")
            object.__setattr__(self, "q", min(max(self.q, 0.0), 1.0))
        elif abs(sum(w for w, _ in self.mixture) - 1.0) > TOL:
            raise ValidationError("mixture weights must sum to 1")


class CurveSamples(NamedTuple):
    """Closed-form curve values at many budgets, as numpy arrays.

    `p_inc` holds the budgets as used, clamped into the curve's domain.
    Pure-curve samples also carry the probe x = cos 2ϑ and the guess rate
    q; single_optimal samples carry `w_tangent`, the weight of the tangent
    protocol on the chord below tangent_PIT and NaN on the arc.
    """

    p_inc: np.ndarray
    p_success: np.ndarray
    x: np.ndarray | None = None
    q: np.ndarray | None = None
    w_tangent: np.ndarray | None = None


def _scalar(value: np.ndarray):
    """A Python float for a 0-d result, the array otherwise."""
    return float(value) if np.ndim(value) == 0 else value


def _check_overlap(c) -> np.ndarray:
    """Reject overlaps more than TOL outside [0, 1]; clamp the rest."""
    c = np.asarray(c, dtype=float)
    if not np.all((c >= -TOL) & (c <= 1.0 + TOL)):
        raise DomainError("overlap c outside [0, 1]")
    return np.clip(c, 0.0, 1.0)


def _check_budget(p_inc, upper, message: str) -> np.ndarray:
    """Reject NaN, budgets that do not broadcast against the angles' `upper`
    and budgets more than TOL outside [0, upper], naming the end they pass
    (`message` names the upper one); clamp the rest."""
    p_inc = np.asarray(p_inc, dtype=float)
    try:
        inside = (p_inc >= -TOL) & (p_inc <= upper + TOL)
    except ValueError:
        raise DomainError(
            f"budget shape {p_inc.shape} does not broadcast against "
            f"angle shape {np.shape(upper)}"
        ) from None
    if not np.all(inside):
        if np.isnan(p_inc).any():
            raise DomainError("budget is not a number")
        if np.any(p_inc < -TOL):
            raise DomainError("budget is below 0")
        raise DomainError(message)
    return np.clip(p_inc, 0.0, upper)


def _point(p_success: float, p_inc: float) -> StrategyPoint:
    return StrategyPoint(p_success, 1.0 - p_success - p_inc, p_inc)


def _entangled(theta, p_inc):
    """Entangled-probe success; checked arrays broadcast."""
    root = np.sqrt(np.maximum(0.0, 1.0 - p_inc / np.cos(theta) ** 2))
    return 0.5 * (1.0 - p_inc + np.sin(2.0 * theta) * root)


def entangled_success_array(theta, p_inc) -> CurveSamples:
    """entangled_success at arrays of angles and budgets (broadcast)."""
    theta = check_theta(theta)
    p_inc = _check_budget(p_inc, np.cos(2.0 * theta), "budget exceeds IDP point")
    return CurveSamples(p_inc, _entangled(theta, p_inc))


def entangled_success(theta: float, p_inc: float) -> StrategyPoint:
    """Best entangled-probe success at inconclusive budget p_inc.

    Defined for p_inc ∈ [0, cos 2θ]; beyond that endpoint discarding
    conclusive outcomes is never useful, so larger budgets are rejected.
    entangled_success_array takes arrays.
    """
    samples = entangled_success_array(theta, p_inc)
    return _point(float(samples.p_success), float(samples.p_inc))


def relative_success(point: StrategyPoint) -> float:
    """P_S conditioned on a conclusive result: P_S / (1 - P_I)."""
    if point.p_inconclusive >= 1.0 - TOL:
        raise DomainError("relative success undefined at p_inconclusive = 1")
    return point.p_success / (1.0 - point.p_inconclusive)


def helstrom_point(theta: float) -> StrategyPoint:
    """Minimum-error discrimination: P_I = 0, P_S = (1 + sin 2θ)/2."""
    theta = float(check_theta(theta))
    return _point(0.5 * (1.0 + math.sin(2.0 * theta)), 0.0)


def _p_top(c):
    return 0.5 * (1.0 + c * c)


def _pib(c):
    c2 = c * c
    return _p_top(c) - 2.0 * c2 * c2 / (1.0 + 4.0 * c2 + np.sqrt(1.0 + 8.0 * c2))


def _pit(c):
    c2 = c * c
    return _p_top(c) - c2 * c2 / (1.0 + 2.0 * c2 + np.sqrt(1.0 + 3.0 * c2))


def boundary_PIB(c):
    """Budget where the pure-curve optimum hits q = 0: (3 + sqrt(1+8c²))/8,
    computed without cancellation as (1 + c²)/2 - 2c⁴/(1 + 4c² + sqrt(1 + 8c²)).
    Accepts an array of overlaps."""
    return _scalar(_pib(_check_overlap(c)))


def tangent_PIT(c):
    """Budget where the line from the P_I = 0 point touches the q = 0 arc,
    (1 + c²)/2 - c⁴/(1 + 2c² + sqrt(1 + 3c²)); accepts an array of overlaps.
    It lies in [boundary_PIB, (1 + c²)/2] in floats (see the module docstring)."""
    c = _check_overlap(c)
    if np.any(c < DEGENERATE_C):
        raise DomainError("tangent point undefined at c = 0 (hull degenerates to a segment)")
    return _scalar(_pit(c))


def _arc_success(c, sin2theta, p_inc):
    """Success on the q = 0 arc; arrays broadcast."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(c > 0.0, (1.0 - 2.0 * p_inc) / c, 0.0)
    arg = np.maximum(0.0, 1.0 - ratio * ratio)
    return 0.5 * (1.0 - p_inc) + 0.25 * sin2theta * np.sqrt(arg)


def concave_branch(theta: float, p_inc: float) -> StrategyPoint:
    """The q = 0 single-qubit arc: sqrt requires |1 - 2 P_I| ≤ cos 2θ."""
    theta = float(check_theta(theta))
    c = math.cos(2.0 * theta)
    if math.isnan(p_inc):
        raise DomainError("budget is not a number")
    if abs(1.0 - 2.0 * p_inc) > c + TOL:
        raise DomainError("q = 0 arc undefined: |1 - 2*p_inc| exceeds cos(2*theta)")
    return _point(float(_arc_success(c, math.sin(2.0 * theta), p_inc)), p_inc)


def _pure_probe_success(c, p_inc, x):
    """Success of the pure probe x = cos 2ϑ with the optimal q; arrays broadcast."""
    root = np.sqrt(np.maximum(0.0, (1.0 - c * c) * (1.0 - x * x)))
    return 0.5 * (1.0 - p_inc) + 0.5 * root * (1.0 - p_inc / (1.0 - x * c))


def _single_domain(theta, p_inc):
    """The broadcast shape and flat, checked θ, c = cos 2θ and P_I."""
    theta = check_theta(theta)
    c = np.cos(2.0 * theta)
    p_inc = _check_budget(p_inc, _p_top(c), "budget exceeds the unambiguous endpoint (1 + c^2)/2")
    theta, c, p_inc = np.broadcast_arrays(theta, c, p_inc)
    return p_inc.shape, theta.ravel(), c.ravel(), p_inc.ravel()


def _arc_kernel(sin2theta, c, p_inc):
    """P_S, x and q on the q = 0 arc, on flat, checked arrays; below
    DEGENERATE_C, on the straight P_S = 1 - P_I with x = 0, q = 1 - 2 P_I."""
    live = c >= DEGENERATE_C
    ps = np.where(live, _arc_success(c, sin2theta, p_inc), 1.0 - p_inc)
    x = np.clip((1.0 - 2.0 * p_inc) / np.maximum(c, DEGENERATE_C), -1.0, 1.0)
    return ps, np.where(live, x, 0.0), np.where(live, 0.0, 1.0 - 2.0 * p_inc)


def _pure_kernel(theta, c, p_inc):
    """P_S, x and q of the pure curve on flat, checked θ, c and P_I: the arc,
    but below boundary_PIB the probe is x = y/c, with y the least root of the
    conclusive-rate cubic (see `_cubic`), one array call for every budget."""
    ps, x, q = _arc_kernel(np.sin(2.0 * theta), c, p_inc)
    cubic = (c >= DEGENERATE_C) & (p_inc < _pib(c))
    if cubic.any():
        cc, pc = c[cubic], p_inc[cubic]
        xc = _cubic.least_root(cc, pc) / cc
        x[cubic] = xc
        q[cubic] = np.clip(1.0 - 2.0 * pc / (1.0 - xc * cc), 0.0, 1.0)
        ps[cubic] = _pure_probe_success(cc, pc, xc)
    return ps, x, q


def single_pure_curve_array(theta, p_inc) -> CurveSamples:
    """single_pure_curve at arrays of angles and budgets (broadcast), with x and q."""
    shape, theta, c, p_inc = _single_domain(theta, p_inc)
    ps, x, q = _pure_kernel(theta, c, p_inc)
    return CurveSamples(*(a.reshape(shape) for a in (p_inc, ps, x, q)))


def single_pure_curve(
    theta: float, p_inc: float
) -> tuple[StrategyPoint, SingleQubitStrategy]:
    """Best unmixed single-qubit protocol at inconclusive budget p_inc.

    Below boundary_PIB the optimal x = y/c, where y is the least root of
    y³ - 2y² + (1 - P_I)y + P_I c² = 0, with q = 1 - 2 P_I/(1 - xc);
    above it the optimum sits on the q = 0 boundary.
    single_pure_curve_array takes arrays.
    """
    samples = single_pure_curve_array(theta, p_inc)
    x = float(samples.x)
    strat = SingleQubitStrategy(probe_angle=0.5 * math.acos(x), x=x, q=float(samples.q))
    return _point(float(samples.p_success), float(samples.p_inc)), strat


def _optimal_kernel(theta, c, p_inc):
    """P_S and tangent weight of the optimal curve on flat, checked θ, c and
    P_I, with the x and q of the pure probe each row uses, all read off the
    q = 0 arc with no cubic: a chord row below tangent_PIT reads it at the
    tangent budget and mixes it with the P_I = 0 point, an arc row at its own."""
    pit = _pit(c)
    chord = (c >= DEGENERATE_C) & (p_inc < pit)
    sin2 = np.sin(2.0 * theta)
    ps, x, q = _arc_kernel(sin2, c, np.where(chord, pit, p_inc))
    w_t = np.where(chord, p_inc / pit, np.nan)
    ps = np.where(chord, (1.0 - w_t) * (0.5 * (1.0 + sin2)) + w_t * ps, ps)
    return ps, w_t, x, q


def single_optimal_array(theta, p_inc) -> CurveSamples:
    """single_optimal at arrays of angles and budgets (broadcast)."""
    shape, theta, c, p_inc = _single_domain(theta, p_inc)
    ps, w_t = (a.reshape(shape) for a in _optimal_kernel(theta, c, p_inc)[:2])
    return CurveSamples(p_inc.reshape(shape), ps, w_tangent=w_t)


def single_optimal(
    theta: float, p_inc: float
) -> tuple[StrategyPoint, SingleQubitStrategy]:
    """Best single-qubit protocol allowing mixtures (the hull boundary).

    Below tangent_PIT this mixes the P_I = 0 protocol (weight 1 - P_I/P_IT)
    with the tangent-point protocol (weight P_I/P_IT); from the tangent
    point on, the pure q = 0 arc is already optimal.
    single_optimal_array takes arrays.
    """
    shape, theta, c, p_inc = _single_domain(theta, p_inc)
    p_success, w_t, x, q = (float(v.reshape(shape)) for v in _optimal_kernel(theta, c, p_inc))
    strat = SingleQubitStrategy(probe_angle=0.5 * math.acos(x), x=x, q=q)
    if not math.isnan(w_t):
        strat_a = SingleQubitStrategy(probe_angle=math.pi / 4.0, x=0.0, q=1.0)
        mixture = ((1.0 - w_t, strat_a), (w_t, strat))
        strat = SingleQubitStrategy(probe_angle=None, x=None, q=None, mixture=mixture)
    return _point(p_success, float(p_inc.reshape(shape))), strat


def unambiguous_points(theta: float) -> tuple[StrategyPoint, StrategyPoint]:
    """Zero-error endpoints of the two families.

    Entangled probes reach (P_S, P_E, P_I) = (2sin²θ, 0, cos 2θ); a single
    qubit cannot do better than ((1-c²)/2, 0, (1+c²)/2).
    """
    theta = float(check_theta(theta))
    c = math.cos(2.0 * theta)
    entangled = StrategyPoint(2.0 * math.sin(theta) ** 2, 0.0, c)
    single = StrategyPoint(0.5 * (1.0 - c * c), 0.0, _p_top(c))
    return entangled, single


def advantage(theta: float, p_inc: float) -> float:
    """Entangled-minus-single-qubit success at the same budget.

    Strictly positive whenever p_inc > 0, exactly zero at p_inc = 0 where
    both families reduce to minimum-error discrimination.
    """
    theta = check_theta(theta)
    c = np.cos(2.0 * theta)
    p_ent = _check_budget(p_inc, c, "budget exceeds IDP point")
    ent = _point(float(_entangled(theta, p_ent)), float(p_ent))
    # The single-qubit family clamps the budget into its own, wider domain.
    p_single = np.clip(np.asarray(p_inc, dtype=float), 0.0, _p_top(c))
    ps_single = _optimal_kernel(*(np.ravel(a) for a in (theta, c, p_single)))[0]
    return ent.p_success - _point(float(ps_single[0]), float(p_single)).p_success


def default_pi_grid(upper: float) -> np.ndarray:
    """Budget grid over [0, upper] in steps of 0.01, with both endpoints exact."""
    if upper < 0.0:
        raise DomainError("grid upper bound must be non-negative")
    n = int(math.floor(upper / PI_GRID_STEP + GRID_SNAP))
    values = [k * PI_GRID_STEP for k in range(n + 1)]
    if values[-1] < upper - TOL:
        values.append(upper)
    else:
        values[-1] = upper if abs(values[-1] - upper) <= TOL else values[-1]
    return np.array(values)


def q_strategy_points(
    theta: float, probe_angles: np.ndarray, qs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (P_I, P_S) of arbitrary (ϑ, q) single-qubit protocols.

    Labels are canonicalized first: measurements are swapped so that the
    outcome-probability chain P_M0/P_N0 ≥ P_N1/P_M1 holds, then outcomes
    are swapped so the chain ends ≥ 1. Guess-on-outcome-0, hedge-on-1 with
    rate q is then the optimal post-processing convention.
    """
    pm0 = np.cos(theta - probe_angles) ** 2
    pn0 = np.cos(theta + probe_angles) ** 2
    pm1 = np.sin(theta - probe_angles) ** 2
    pn1 = np.sin(theta + probe_angles) ** 2

    swap_meas = pm0 * pm1 < pn0 * pn1
    qm0 = np.where(swap_meas, pn0, pm0)
    qm1 = np.where(swap_meas, pn1, pm1)
    qn0 = np.where(swap_meas, pm0, pn0)
    qn1 = np.where(swap_meas, pm1, pn1)

    swap_out = qn1 < qm1
    rm0 = np.where(swap_out, qm1, qm0)
    rm1 = np.where(swap_out, qm0, qm1)
    rn1 = np.where(swap_out, qn0, qn1)

    p_success = 0.5 * (rm0 + qs * rn1)
    p_inc = 0.5 * (1.0 - qs) * (rm1 + rn1)
    return p_inc, p_success


def _dual(sin2, c, lam):
    """The single-qubit Lagrange dual h(λ): the most P_S + λ P_I of any protocol.

    A deterministic rule maps each outcome of the probed measurement to M, N
    or inconclusive, so P_S + λ P_I is affine in the probe's Bloch vector and
    its best probe gives the constant term plus the vector's length. Guessing
    by the outcome gives ½(1 + s), always discarding λ, guessing on one
    outcome and discarding the other ¼(1 + 2λ + hypot(s, c(1 - 2λ))), and
    the other rules no more. Mixtures add nothing, so h(λ) - λ P_I bounds the
    P_S of every protocol at budget P_I, for each λ (weak duality).
    """
    third = 0.25 * (1.0 + 2.0 * lam + np.hypot(sin2, c * (1.0 - 2.0 * lam)))
    return np.maximum(np.maximum(0.5 * (1.0 + sin2), lam), third)


def _optimal_slope(sin2, c, p_inc):
    """λ = -dP_S/dP_I of the optimal curve, where h(λ) - λ P_I touches it:
    the chord's slope up to tangent_PIT, the arc's beyond it, 1 on the line
    below DEGENERATE_C, clipped to [0, 1]."""
    pit = _pit(c)
    chord = (0.5 * (1.0 + sin2) - _arc_success(c, sin2, pit)) / pit
    u = 1.0 - 2.0 * p_inc
    with np.errstate(divide="ignore", invalid="ignore"):
        arc = 0.5 - 0.5 * sin2 * u / (c * np.sqrt(c * c - u * u))
    lam = np.where(c < DEGENERATE_C, 1.0, np.where(p_inc <= pit, chord, arc))
    # fmin takes 1 for a NaN slope, such as the arc's 0/0 at c = P_I = 1, where 1 is tight
    return np.fmax(np.fmin(lam, 1.0), 0.0)


def _cloud(theta, p_max, grid, n_samples, seed):
    """(P_I, P_S) rows: the pure curve on `grid`, then seeded random (ϑ, q)
    protocols up to n_samples, less those past the budget p_max. Its draws
    are freed on return, before hull_verify's full-size certificate pass."""
    curve_pts = np.column_stack([grid, single_pure_curve_array(theta, grid).p_success])
    rng = np.random.default_rng(seed)
    n_rand = max(n_samples - len(curve_pts), 0)
    angles = rng.uniform(0.0, math.pi / 2.0, n_rand)
    qs = rng.uniform(0.0, 1.0, n_rand)
    pi_r, ps_r = q_strategy_points(theta, angles, qs)
    rand_pts = np.column_stack([pi_r, ps_r])[pi_r <= p_max + TOL]
    return np.vstack([curve_pts, rand_pts])


@dataclass(frozen=True)
class HullReport:
    """Sampled single-qubit protocols and two checks of the closed-form
    optimum at their budgets: the largest gap between it and the dual bound
    h(λ) - λ P_I at its own slope, and the most any sample exceeds it."""

    c: float
    n_samples: int
    seed: int
    degenerate: bool
    certificate_gap: float
    sample_excess: float
    points: np.ndarray
    point_a: tuple[float, float]
    point_t: tuple[float, float] | None
    point_u: tuple[float, float]


def hull_verify(c: float, n_samples: int, seed: int) -> HullReport:
    """Certify the single-qubit optimum at the budgets of sampled protocols.

    Samples n protocols: an exact pure-curve budget grid including the
    branch and tangency budgets, plus seeded random (ϑ, q) draws. At their
    budgets, `certificate_gap` is the largest |h(λ) - λ P_I - P_S| between
    the closed-form optimum and the Lagrange dual bound at the optimum's
    own slope (`_dual`, `_optimal_slope`). The dual bounds every protocol,
    so a zero gap shows that no protocol beats the closed form.
    `sample_excess` is the most any sample beats it. Degenerate overlaps
    (c near 0 or 1) yield a report without a tangency point.
    """
    n_samples = check_integer(
        n_samples, "n_samples", 100, MAX_SAMPLES,
        below="hull verification needs at least 100 samples",
        above=f"hull verification takes at most {MAX_SAMPLES} samples",
    )
    seed = check_integer(seed, "seed")
    c = float(_check_overlap(c))
    theta = 0.5 * math.acos(c)
    p_max = _p_top(c)
    degenerate = c < DEGENERATE_C or c > 1.0 - DEGENERATE_C

    grid = np.linspace(0.0, p_max, max(n_samples // 2 - 2, 2))
    if not degenerate:
        pit = tangent_PIT(c)
        grid = np.sort(np.concatenate([grid, [boundary_PIB(c), pit]]))
        grid = grid[np.append(True, np.diff(grid) > 0.0)]  # np.unique loads numpy.ma
    points = _cloud(theta, p_max, grid, n_samples, seed)

    optimal = single_optimal_array(theta, points[:, 0])
    sin2 = math.sin(2.0 * theta)
    lam = _optimal_slope(sin2, c, optimal.p_inc)
    bound = _dual(sin2, c, lam) - lam * optimal.p_inc
    certificate_gap = float(np.max(np.abs(bound - optimal.p_success)))
    sample_excess = float(np.max(points[:, 1] - optimal.p_success))

    point_a = (0.0, helstrom_point(theta).p_success)
    point_u = (p_max, 0.5 * (1.0 - c * c))
    point_t = None if degenerate else (pit, float(points[np.searchsorted(grid, pit), 1]))
    return HullReport(
        c, n_samples, seed, degenerate, certificate_gap, sample_excess,
        points, point_a, point_t, point_u,
    )
