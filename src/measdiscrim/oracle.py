"""Numerical re-derivation of the optimal curves via process testers.

A full discrimination experiment (probe, processing, readout, answer
k ∈ {M, N, inconclusive}) is a three-component process tester
T_k = H_{k,0}⊗|0⟩⟨0| + H_{k,1}⊗|1⟩⟨1| constrained by Σ T_k = ρ⊗𝕀.
Averaging each block with its sigma_y conjugate leaves all outcome
probabilities untouched and lands in the covariant family
H_{k,1} = σ_y H_{k,0} σ_y†, where ρ = 𝕀/2 and everything reduces to three
2×2 blocks summing to 𝕀/2 (`PovmTriple`, `reduced_probabilities`); see
Chiribella, D'Ariano and Perinotti, Phys. Rev. A 80, 022339 (2009). The
search works on that reduction alone. The full 4×4 testers and the
symmetrization that justifies it are checked in the test suite's oracles.

Every block is handled in light-cone form: a real symmetric 2×2 matrix
t 𝕀 + p₁ σ_z + p₂ σ_x is the triple (t, p₁, p₂), its eigenvalues are
t ± ‖p‖, and tr ab = 2 (t_a t_b + p_a·p_b). One rule decides PSD
everywhere: a block is accepted when t − ‖p‖ ≥ −BLOCK_TOL. No eigensolver
and no matrix product runs in this module.

`optimize_povm` maximizes success at a fixed inconclusive rate over those
blocks through the Lagrange dual of that reduction. For 2×2 blocks each
semidefinite constraint is a light cone, and at fixed λ the least ½ tr Y
is the 1-center of three cones (`_one_center`). m0 and n0 are mirror
images in the axis p₂ = 0 and the scaled m0 + n0 cone lies on it, so the
1-center lies on that axis too, in a three-case closed form: below the M
apex, at the scaled apex, or where those two cones meet. Complementary
slackness puts each block on the kernel of its dual slack, and
H_M + H_N + H_I = 𝕀/2 fixes the kernel weights (`_slack_tester`). The
reflection gives H_M and H_N one weight w, in closed form from the
M slack's axis and the sign of the I slack's: ½ where the I slack is
positive definite, the largest w that keeps H_I PSD where it vanishes,
and the one that balances the three kernel axes where all three slacks
have rank one. That tester's rate is the dual's slope in λ, so
`_dual_bound` bisects on it.
The bracket's two testers are each optimal at their own rate, and the
blocks are linear, so their mixture weighted onto the target rate is a
tester too (`_mix`); it is returned with the least dual value evaluated.
`_result` applies the PSD rule to H_M, H_N and H_I, floors the accepted
blocks onto the PSD cone in closed form, reads the probabilities off the
cone triples and certifies the tester when its success meets the bound at
its own rate. Where the measurements coincide to within about 1e-9 every
slack vanishes and the dual point leaves the tester open; the tester that
ignores the measurement (`_blind_tester`) is optimal there and takes the
same check. The search exists to check the closed forms in `strategies`,
never to replace them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .geometry import TOL, MeasurementPair
from .strategies import StrategyPoint

# Tester-block asymmetry, negative eigenvalue and sum error allowed: above rounding, below tol.
BLOCK_TOL = 1e-10
EYE2 = np.eye(2)


# --- 2×2 blocks as light cones ---
#
# A real symmetric 2×2 matrix is a = t 𝕀 + p₁ σ_z + p₂ σ_x with
# t = tr a / 2 and p = ((a00 − a11)/2, a01); its eigenvalues are t ± ‖p‖, so
# a ⪰ b holds exactly when t_a − t_b ≥ ‖p_a − p_b‖ (a light cone).


def _cone(a: np.ndarray) -> tuple[float, float, float]:
    """(t, p₁, p₂) of the symmetric part of a, as Python floats."""
    a00, a11 = float(a[0, 0]), float(a[1, 1])
    return 0.5 * (a00 + a11), 0.5 * (a00 - a11), 0.5 * (float(a[0, 1]) + float(a[1, 0]))


def _matrix(cone) -> np.ndarray:
    """The symmetric 2×2 matrix of (t, p₁, p₂)."""
    t, u, v = cone
    return np.array([[t + u, v], [v, t - u]])


def _least(cone) -> float:
    """The least eigenvalue t − ‖p‖."""
    t, u, v = cone
    return t - math.hypot(u, v)


def _trace(a, b) -> float:
    """tr ab = tr (t_a 𝕀 + p_a·σ)(t_b 𝕀 + p_b·σ) = 2 (t_a t_b + p_a·p_b)."""
    return 2.0 * (a[0] * b[0] + a[1] * b[1] + a[2] * b[2])


def _rest(h_m, h_n):
    """H_I = 𝕀/2 − H_M − H_N; 0.0 − a − b keeps −0.0 out where a + b cancels."""
    return 0.5 - h_m[0] - h_n[0], 0.0 - h_m[1] - h_n[1], 0.0 - h_m[2] - h_n[2]


def _floor(cone):
    """The PSD part of a block: its negative eigenvalue set to zero."""
    t, u, v = cone
    r = math.hypot(u, v)
    if t >= r:
        return cone
    if t <= -r:
        return 0.0, 0.0, 0.0
    k = 0.5 * (t + r)  # (t + r) times the projector (𝕀 + p·σ/r)/2
    return k, k * u / r, k * v / r


def _inside(h_m, h_n):
    """Scale (H_M, H_N) so that H_I = 𝕀/2 − H_M − H_N is PSD.

    H_I's least eigenvalue is ½ minus the largest of H_M + H_N, t + ‖p‖;
    scaling both blocks by ½ over that keeps them PSD and keeps the sum.
    """
    top = h_m[0] + h_n[0] + math.hypot(h_m[1] + h_n[1], h_m[2] + h_n[2])
    if top <= 0.5:
        return h_m, h_n
    s = 0.5 / top
    return tuple(s * x for x in h_m), tuple(s * x for x in h_n)


def _check_symmetric_psd(mat: np.ndarray, name: str) -> np.ndarray:
    # NaN compares false against every bound, so each check here and in
    # PovmTriple is written to fail on it; an inf cell makes the asymmetry,
    # the least eigenvalue or the sum's residual NaN or inf.
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (2, 2):
        raise ValidationError(f"{name} must be a 2x2 matrix")
    if not abs(float(mat[0, 1]) - float(mat[1, 0])) <= BLOCK_TOL:
        raise ValidationError(f"{name} must be finite and symmetric")
    if not _least(_cone(mat)) >= -BLOCK_TOL:
        raise ValidationError(f"{name} must be finite, with no eigenvalue below -{BLOCK_TOL}")
    return mat


@dataclass(frozen=True)
class PovmTriple:
    """Covariant-form blocks (H_M0, H_N0, H_I0) summing to rho = 𝕀/2."""

    h_m: np.ndarray
    h_n: np.ndarray
    h_i: np.ndarray

    def __post_init__(self):
        for name in ("h_m", "h_n", "h_i"):
            object.__setattr__(self, name, _check_symmetric_psd(getattr(self, name), name))
        residual = np.abs(self.h_m + self.h_n + self.h_i - 0.5 * EYE2).max()
        if not residual <= BLOCK_TOL:
            raise ValidationError(
                f"blocks must sum to identity/2 (residual {residual:.3e})"
            )

    @property
    def rho(self) -> np.ndarray:
        return 0.5 * EYE2


def _probabilities(h_m, h_n, h_i, cones) -> tuple[float, float, float]:
    """Unvalidated (P_S, P_E, P_I) of cone-form blocks; `cones` from `_cones`."""
    cone_m, cone_n, cone_s = cones
    ps = _trace(h_m, cone_m) + _trace(h_n, cone_n)
    return ps, _trace(h_n, cone_m) + _trace(h_m, cone_n), _trace(h_i, cone_s)


def reduced_probabilities(triple: PovmTriple, pair: MeasurementPair) -> StrategyPoint:
    """Probabilities from the covariant 2x2 reduction."""
    blocks = (_cone(triple.h_m), _cone(triple.h_n), _cone(triple.h_i))
    return StrategyPoint(*_probabilities(*blocks, _cones(pair.m0, pair.n0)))


@dataclass(frozen=True)
class OracleResult:
    """The tester found and its dual certificate.

    (y, lam) is a feasible point of the Lagrange dual: y ⪰ m0, y ⪰ n0 and
    y ⪰ lam·(m0 + n0). It proves P_S ≤ upper_bound = ½ tr y − lam·P_I for
    every tester at the returned inconclusive rate; gap = upper_bound − P_S.
    """

    point: StrategyPoint
    triple: PovmTriple
    converged: bool
    p_inc_error: float
    upper_bound: float
    gap: float
    y: np.ndarray
    lam: float

    @property
    def restart_values(self) -> tuple[float, ...]:
        """Always (): no search restarts. Kept while the benchmark reads it."""
        return ()


# --- the Lagrange dual: a certified upper bound on P_S at a given P_I ---
#
# Pairing H_M, H_N, H_I with the constraints Y ⪰ m0, Y ⪰ n0, Y ⪰ λ(m0+n0)
# gives P_S = ½ tr Y − λ P_I − tr H_M(Y − m0) − tr H_N(Y − n0)
# − tr H_I(Y − λ(m0+n0)) ≤ ½ tr Y − λ P_I for every feasible tester, so
# each dual-feasible (Y, λ) bounds the whole curve from above. A tester
# whose blocks lie in the kernels of their slacks makes the three subtracted
# traces vanish and attains the bound (complementary slackness).
#
# In cone form Y ⪰ a reads t_Y − t_a ≥ ‖p_Y − p_a‖. For fixed λ the least
# ½ tr Y = t_Y is the 1-center min_p maxᵢ (tᵢ + ‖p − pᵢ‖) of three cones.


def _top(cones, x: float, y: float) -> float:
    """Least t_Y with Y ⪰ every cone's matrix, given p_Y = (x, y)."""
    (t1, u1, v1), (t2, u2, v2), (t3, u3, v3) = cones
    return max(
        t1 + math.hypot(x - u1, y - v1),
        t2 + math.hypot(x - u2, y - v2),
        t3 + math.hypot(x - u3, y - v3),
    )


def _one_center(cones) -> tuple[float, float, float]:
    """min over p of maxᵢ (tᵢ + ‖p − pᵢ‖), as (value, p₁, p₂).

    The cones are those of `_at`: M = (t₁, a, h) and N, its mirror image in
    the axis p₂ = 0, and the scaled m0 + n0 cone (t₃, u₃, 0) on that axis.
    The objective is convex and unchanged by the reflection, so the mirror
    image of an optimum is an optimum too, and by convexity so is their
    midpoint, which lies on the axis. There the M and N cones agree, and
    with d = u₃ − a the optimum p₁ = x is
    - a, where the M cone's apex value t₁ + h already covers the scaled
      cone there (t₃ + |d| ≤ t₁ + h);
    - u₃, where the scaled cone's apex value covers the M cone there
      (t₁ + √(d² + h²) ≤ t₃);
    - otherwise a + z between a and u₃, where the two cones meet:
      t₁ + √(z² + h²) = t₃ + |d| − sign(d) z, that is
      z = sign(d)(e − h)(e + h)/(2e) with e = t₃ − t₁ + |d| > h.
    The value at (x, 0) is recomputed from all three cones by `_top`, so
    the point is a feasible Y and rounding can only loosen the bound, never
    break it.
    """
    (t1, a, h), _, (t3, u3, _) = cones
    d = u3 - a
    if t3 + abs(d) <= t1 + h:
        x = a
    elif t1 + math.hypot(d, h) <= t3:
        x = u3
    else:
        e = t3 - t1 + abs(d)
        x = a + math.copysign((e - h) * (e + h) / (2.0 * e), d)
    return _top(cones, x, 0.0), x, 0.0


# A slack whose least eigenvalue is within _ACTIVE of zero is active; an
# active slack whose axis p_Y − p_A is shorter than _ACTIVE is zero to
# within rounding, so its kernel is the whole plane.
_ACTIVE = 1e-9
# Bisection steps over λ ∈ [0, 1]: 2⁻⁶⁰ is below the spacing of doubles near 1.
_BISECTION_STEPS = 60


def _cones(m0: np.ndarray, n0: np.ndarray):
    """The cones of m0, n0 and m0 + n0."""
    return _cone(m0), _cone(n0), _cone(m0 + n0)


def _at(cones, lam: float):
    """The cones of the constraints Y ⪰ m0, Y ⪰ n0 and Y ⪰ λ(m0 + n0)."""
    cone_m, cone_n, (t, u, v) = cones
    return cone_m, cone_n, (lam * t, lam * u, lam * v)


def _slack_tester(cones, t: float, x: float):
    """The tester that complementary slackness assigns to the 1-center (t, x, 0).

    tr H_M (Y − m0) = 0 with both factors PSD puts H_M = w_M K_M on the
    kernel projector K_M = (𝕀 − n_M·σ)/2 of its slack, likewise H_N and H_I,
    and H_M + H_N + H_I = 𝕀/2 fixes the weights: Σ w = 1 and Σ w n = 0.
    With the M cone (t₁, a, h), r = hypot(x − a, h) and α = (x − a)/r, the
    M slack's axis is n_M = (α, −h/r) and the N slack's is its mirror image,
    so the reflection gives w_M = w_N = w, H_M = (w/2, −wα/2, wh/(2r)) and
    H_N its mirror image. The I slack Y − (t₃, u₃, 0) has axis (σ, 0) with
    σ = sign(x − u₃), and w is
    - ½ where the I slack is positive definite (as at P_I = 0): H_I = 0,
      and Y lies between the M and N apexes, so x = a and α = 0;
    - 1/(2 + 2|α|) where the I slack vanishes (|x − u₃| ≤ `_ACTIVE`, as at
      λ = 1): any H_I is slack free, and this is the largest w that keeps
      H_I = 𝕀/2 − H_M − H_N PSD. It is decided from the slack itself: at
      λ = 1 the 1-center is often the scaled apex, x = u₃ exactly, where
      σ = sign(0) fits neither of the other cases;
    - σ/(2(σ − α)) otherwise, from 2w + w_I = 1 and 2wα + w_I σ = 0.
    Returns (H_M, H_N) as (t, p₁, p₂) triples, or None where the M slack is
    positive definite or zero, which leaves the tester undetermined (m0 and
    n0 within about 1e-9 of each other).
    """
    (t1, a, h), _, (t3, u3, _) = cones
    r = math.hypot(x - a, h)
    if t - t1 - r > _ACTIVE or r <= _ACTIVE:
        return None
    alpha, d = (x - a) / r, x - u3
    if t - t3 - abs(d) > _ACTIVE:
        w = 0.5
    elif abs(d) <= _ACTIVE:
        w = 0.5 / (1.0 + abs(alpha))
    else:
        sigma = math.copysign(1.0, d)
        w = 0.5 * sigma / (sigma - alpha)
    h_m = (0.5 * w, -0.5 * w * alpha, 0.5 * w * h / r)
    return h_m, (h_m[0], h_m[1], -h_m[2])


def _dual_bound(m0: np.ndarray, n0: np.ndarray, p_inc: float):
    """Least dual value ½ tr Y − λ P_I, with the (Y, λ) that attains it.

    The dual function is convex in λ. An optimum has λ ≥ 0: for λ ≤ 0 the
    third constraint follows from the first, and −λ P_I ≥ 0. It has λ ≤ 1:
    for λ ≥ 1 the third constraint implies the other two, so the dual is
    λ (tr(m0+n0)/2 − P_I), which does not decrease because P_I ≤ tr(m0+n0)/2.
    Its slope at λ is P_I(λ) − p_inc, where P_I(λ) is the rate of the tester
    that complementary slackness assigns to the 1-center at λ
    (`_slack_tester`), so a bisection on the sign of the slope finds the
    optimal λ to rounding. It stops early where a midpoint's slacks leave
    the tester undetermined. Every evaluation is dual feasible, so the least
    value evaluated is always a bound.

    Returns (value, Y, λ, tester): Y as a cone triple (t, p₁, p₂), and the
    final bracket's two testers mixed onto p_inc (`_mix`), (H_M, H_N) as
    cone triples or None.
    """
    base = _cones(m0, n0)

    def dual(lam: float):
        """(value, Y, λ, tester, the tester's rate or None)."""
        cones = _at(base, lam)
        t, x, y = _one_center(cones)
        tester = _slack_tester(cones, t, x)
        rate = None if tester is None else _trace(_rest(*tester), base[2])
        return t - lam * p_inc, (t, x, y), lam, tester, rate

    lo, hi = dual(0.0), dual(1.0)
    open_mid = ()
    for _ in range(_BISECTION_STEPS):
        lam = 0.5 * (lo[2] + hi[2])
        if lam in (lo[2], hi[2]):
            break
        mid = dual(lam)
        if mid[4] is None:
            open_mid = (mid,)
            break
        if mid[4] < p_inc:
            lo = mid
        else:
            hi = mid
    least = min(lo, hi, *open_mid, key=lambda d: d[0])
    return (*least[:3], _mix(lo[3:], hi[3:], p_inc))


def _mix(lo, hi, p_inc: float):
    """The chord between two (tester, rate) pairs at rate p_inc.

    H_M and H_N are linear in a mixture, and so is the rate, so the weight
    w = (p_inc − r_lo)/(r_hi − r_lo) of the upper tester hits p_inc; it is
    clipped to [0, 1] to keep the mixture convex. A missing tester leaves
    the chord open (None).
    """
    (a, r_lo), (b, r_hi) = lo, hi
    if a is None or b is None:
        return None
    w = min(max((p_inc - r_lo) / (r_hi - r_lo), 0.0), 1.0) if r_hi != r_lo else 0.0
    return tuple(tuple((1.0 - w) * x + w * z for x, z in zip(ha, hb)) for ha, hb in zip(a, b))


def _blind_tester(p_inc: float):
    """(H_M, H_N), as cone triples, of the tester that ignores the measurement.

    H_M = H_N = (1 − P_I)/4·𝕀 and H_I = (P_I/2)·𝕀: a fair coin guess,
    withheld at rate P_I. Where the measurements coincide (θ = 0) it is
    optimal, yet every dual slack vanishes and `_slack_tester` cannot pick
    it.
    """
    h = (0.25 * (1.0 - p_inc), 0.0, 0.0)
    return h, h


def optimize_povm(
    pair: MeasurementPair, p_inc_target: float, *, tol: float = 1e-4, seed: int = 0,
    restarts: int = 20,
) -> OracleResult:
    """Maximize success at a fixed inconclusive rate over covariant testers.

    `_dual_bound` solves the Lagrange dual at the target and returns the
    tester its bisection brackets, mixed onto the target rate. The dual
    point bounds every tester's success at the tester's own rate, so that
    tester is returned when its blocks pass `_result`'s PSD rule, its rate
    is within `tol` of the target and its success within `tol` of the
    bound. Otherwise, and where the slacks leave the tester open
    (θ ≲ 1e-9), `_blind_tester` takes its place under the same check. If
    neither passes, the first of the two that the PSD rule accepts is
    returned with converged=False; the blind tester always is.

    `converged` means |P_I − target| ≤ tol and gap ≤ tol. `seed` and
    `restarts` are accepted and ignored; they go once the benchmark stops
    passing them (ROADMAP.md, item 1).
    Raises DomainError for a target outside [0, cos 2θ] or a `tol` that is
    not finite and positive.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and positive, got {tol}")
    c = math.cos(2.0 * pair.theta)
    if not -TOL <= p_inc_target <= c + TOL:
        raise DomainError("inconclusive target outside [0, cos(2*theta)]")
    p_inc_target = min(max(p_inc_target, 0.0), c)

    _, y, lam, tester = _dual_bound(pair.m0, pair.n0, p_inc_target)
    fallback = None
    for blocks in (tester, _blind_tester(p_inc_target)):
        result = None if blocks is None else _result(pair, p_inc_target, tol, *blocks, y, lam)
        if result is not None and result.converged:
            return result
        fallback = fallback or result
    return fallback


def _result(
    pair: MeasurementPair, p_inc_target: float, tol: float, h_m, h_n, y, lam: float
) -> OracleResult | None:
    """Validate a tester and certify it with the dual point (Y, λ).

    The blocks H_M, H_N and Y come as cone triples. One PSD rule holds for
    H_M, H_N and H_I = 𝕀/2 − H_M − H_N: a block whose least eigenvalue is
    below −BLOCK_TOL rejects the tester (None). Accepted blocks are floored
    onto the PSD cone (`_floor`), and H_I's floor is absorbed by scaling
    H_M and H_N (`_inside`), so the blocks still sum to 𝕀/2 and no
    probability is negative beyond rounding.
    """
    if min(_least(h) for h in (h_m, h_n, _rest(h_m, h_n))) < -BLOCK_TOL:
        return None
    h_m, h_n = _inside(_floor(h_m), _floor(h_n))
    h_i = _rest(h_m, h_n)
    point = StrategyPoint(*_probabilities(h_m, h_n, h_i, _cones(pair.m0, pair.n0)))
    p_inc_error = abs(point.p_inconclusive - p_inc_target)
    # (Y, λ) is dual feasible, so it bounds P_S at the returned tester's rate.
    upper_bound = y[0] - lam * point.p_inconclusive
    gap = upper_bound - point.p_success
    return OracleResult(
        point=point,
        triple=PovmTriple(*(_matrix(h) for h in (h_m, h_n, h_i))),
        converged=p_inc_error <= tol and gap <= tol,
        p_inc_error=p_inc_error,
        upper_bound=upper_bound,
        gap=gap,
        y=_matrix(y),
        lam=lam,
    )
