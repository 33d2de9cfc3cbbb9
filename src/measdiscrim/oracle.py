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

`optimize_povm` maximizes success at a fixed inconclusive rate over those
blocks through the Lagrange dual of that reduction. For 2×2 blocks each
semidefinite constraint is a light cone, and at fixed λ the least ½ tr Y
is the 1-center of three cones. Complementary slackness puts each block on
the kernel of its dual slack, and H_M + H_N + H_I = 𝕀/2 fixes the kernel
weights (`_slack_tester`). That tester's rate is the dual's slope in λ, so
`_dual_bound` bisects on it, and `_recover_tester` reads the optimal tester
off the dual point. The tester's success matches the bound at its own rate
to rounding, which certifies it. The dual and the recovery run on Python
floats, with no eigensolver and no scipy. Where the measurements coincide
to within about 1e-9 every slack vanishes and the recovery gives nothing;
the tester that ignores the measurement (`_blind_tester`) is optimal there
and takes the same check.

Only when no tester passes that check does the search fall back
to penalized gradient ascent from seeded random starts, each proved or
rejected by the same dual bound. Its objective and gradient
(`_penalized_objective`) are a scalar kernel on Python floats, and
scipy.optimize is imported on the first fallback (`minimize`), not with
the package. `brute_force_single` is the analogous exhaustive scan over
single-qubit protocols. Both searches exist to check the closed forms in
`strategies`, never to replace them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .geometry import TOL, MeasurementPair, check_integer
from .strategies import StrategyPoint, q_strategy_points, upper_hull

PSD_TOL = 1e-10
SUM_TOL = 1e-10
EYE2 = np.eye(2)
# Largest brute_force_single resolution: 25 times the default's protocols,
# about 5 s of scanning on one x86-64 core.
MAX_RESOLUTION = 10_000


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on first use.

    Importing scipy.optimize costs about half a second, and only the tester
    search's fallback ascent needs it, so the package import, the other
    subcommands and a certified search skip it.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def _check_symmetric_psd(mat: np.ndarray, name: str, tol: float = PSD_TOL) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (2, 2):
        raise ValidationError(f"{name} must be a 2x2 matrix")
    if abs(mat[0, 1] - mat[1, 0]) > 1e-10:
        raise ValidationError(f"{name} must be symmetric")
    if np.linalg.eigvalsh(mat)[0] < -tol:
        raise ValidationError(f"{name} has eigenvalue below -{tol}")
    return mat


@dataclass(frozen=True)
class PovmTriple:
    """Covariant-form blocks (H_M0, H_N0, H_I0) summing to rho = 𝕀/2."""

    h_m: np.ndarray
    h_n: np.ndarray
    h_i: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h_m", _check_symmetric_psd(self.h_m, "h_m"))
        object.__setattr__(self, "h_n", _check_symmetric_psd(self.h_n, "h_n"))
        object.__setattr__(self, "h_i", _check_symmetric_psd(self.h_i, "h_i"))
        residual = np.abs(self.h_m + self.h_n + self.h_i - 0.5 * EYE2).max()
        if residual > SUM_TOL:
            raise ValidationError(
                f"blocks must sum to identity/2 (residual {residual:.3e})"
            )

    @property
    def rho(self) -> np.ndarray:
        return 0.5 * EYE2


def reduced_probabilities(triple: PovmTriple, pair: MeasurementPair) -> StrategyPoint:
    """Probabilities from the covariant 2x2 reduction."""
    m0, n0 = pair.m0, pair.n0
    ps = np.trace(triple.h_m @ m0) + np.trace(triple.h_n @ n0)
    pe = np.trace(triple.h_n @ m0) + np.trace(triple.h_m @ n0)
    pi = np.trace(triple.h_i @ (m0 + n0))
    return StrategyPoint(float(ps), float(pe), float(pi))


@dataclass(frozen=True)
class OracleResult:
    """Best tester found, its dual certificate, and the fallback's bookkeeping.

    (y, lam) is a feasible point of the Lagrange dual: y ⪰ m0, y ⪰ n0 and
    y ⪰ lam·(m0 + n0). It proves P_S ≤ upper_bound = ½ tr y − lam·P_I for
    every tester at the returned inconclusive rate; gap = upper_bound − P_S.
    When the tester comes from the dual point itself, restart_values is ()
    and best_restart is None; otherwise they hold the success of each
    fallback ascent restart and the index of the returned one.
    """

    point: StrategyPoint
    triple: PovmTriple
    converged: bool
    p_inc_error: float
    restart_values: tuple[float, ...]
    best_restart: int | None
    upper_bound: float
    gap: float
    y: np.ndarray
    lam: float


def _raw_reduced(h_m: np.ndarray, h_n: np.ndarray, m0, n0) -> tuple[float, float]:
    ps = float(np.sum(h_m * m0) + np.sum(h_n * n0))
    pi = float(np.sum((0.5 * EYE2 - h_m - h_n) * (m0 + n0)))
    return ps, pi


def _mix_to_target(
    h_m: np.ndarray, h_n: np.ndarray, target: float, m0, n0
) -> tuple[np.ndarray, np.ndarray]:
    """Mix with an anchor tester so the inconclusive rate hits the target.

    Anchors: all-inconclusive (blocks 0, 0) when short of the target,
    always-guess-M (𝕀/2, 0) when past it. Mixing preserves PSD and the
    sum constraint exactly.
    """
    _, pi = _raw_reduced(h_m, h_n, m0, n0)
    if pi < target:
        lam = (target - pi) / (1.0 - pi) if pi < 1.0 else 0.0
        return (1.0 - lam) * h_m, (1.0 - lam) * h_n
    if pi > target and pi > 0.0:
        lam = 1.0 - target / pi
        return (1.0 - lam) * h_m + lam * 0.5 * EYE2, (1.0 - lam) * h_n
    return h_m, h_n


def _kernel_coefficients(m0: np.ndarray, n0: np.ndarray, target: float) -> tuple:
    """The entries `_penalized_objective` reads, as Python floats.

    Order: (m00, m01, m11, n00, n01, n11, s00, s01, s11, target) with
    s = m0 + n0; the projectors are real symmetric, so m01 stands for m10.
    """
    s0 = m0 + n0
    return (
        float(m0[0, 0]), float(m0[0, 1]), float(m0[1, 1]),
        float(n0[0, 0]), float(n0[0, 1]), float(n0[1, 1]),
        float(s0[0, 0]), float(s0[0, 1]), float(s0[1, 1]),
        float(target),
    )


def _penalized_objective(
    v: np.ndarray, mu: float, nu: float, coeffs: tuple
) -> tuple[float, np.ndarray]:
    """Negated penalized success and its gradient, in closed form.

    v holds the Cholesky-like factors L_M = [[v0, 0], [v1, v2]] and
    L_N = [[v3, 0], [v4, v5]], so H_M = L_M L_Mᵀ and H_N = L_N L_Nᵀ are PSD
    and H_I = 𝕀/2 − H_M − H_N. The objective is

        P_S − mu (P_I − target)² − nu ‖(H_I)₋‖²_F,

    where (H_I)₋ = z is the negative part of H_I. Its 2×2 eigenvalues are
    lo, hi = mean ± r; with lo < 0 < hi, z = lo (H_I − hi 𝕀) / (lo − hi) is
    lo times the projector onto the lower eigenvector, and with hi ≤ 0,
    z = H_I.
    `coeffs` comes from `_kernel_coefficients`.
    """
    a, b, c, d, e, f = v.tolist()
    m00, m01, m11, n00, n01, n11, s00, s01, s11, target = coeffs
    hm00, hm01, hm11 = a * a, a * b, b * b + c * c
    hn00, hn01, hn11 = d * d, d * e, e * e + f * f
    i00 = 0.5 - hm00 - hn00
    i01 = -hm01 - hn01
    i11 = 0.5 - hm11 - hn11
    ps = (hm00 * m00 + 2.0 * hm01 * m01 + hm11 * m11
          + hn00 * n00 + 2.0 * hn01 * n01 + hn11 * n11)
    slack = i00 * s00 + 2.0 * i01 * s01 + i11 * s11 - target

    mean = 0.5 * (i00 + i11)
    half = 0.5 * (i00 - i11)
    r = math.sqrt(half * half + i01 * i01)
    lo, hi = mean - r, mean + r
    if lo >= 0.0:
        pen = 0.0
        z00 = z01 = z11 = 0.0
    elif hi > 0.0:
        pen = lo * lo
        k = lo / (lo - hi)
        z00, z01, z11 = k * (i00 - hi), k * i01, k * (i11 - hi)
    else:
        pen = lo * lo + hi * hi
        z00, z01, z11 = i00, i01, i11
    obj = ps - mu * slack * slack - nu * pen

    # dObj/dH_M = m0 + 2 mu slack s + 2 nu z (likewise for N); the chain
    # rule through H = L Lᵀ gives 2 D L, of which we keep the free entries.
    ws, wz = 2.0 * mu * slack, 2.0 * nu
    c00, c01, c11 = ws * s00 + wz * z00, ws * s01 + wz * z01, ws * s11 + wz * z11
    dm00, dm01, dm11 = m00 + c00, m01 + c01, m11 + c11
    dn00, dn01, dn11 = n00 + c00, n01 + c01, n11 + c11
    grad = np.array(
        [
            -2.0 * (dm00 * a + dm01 * b),
            -2.0 * (dm01 * a + dm11 * b),
            -2.0 * dm11 * c,
            -2.0 * (dn00 * d + dn01 * e),
            -2.0 * (dn01 * d + dn11 * e),
            -2.0 * dn11 * f,
        ]
    )
    return -obj, grad


# --- the Lagrange dual: a certified upper bound on P_S at a given P_I ---
#
# Pairing H_M, H_N, H_I with the constraints Y ⪰ m0, Y ⪰ n0, Y ⪰ λ(m0+n0)
# gives P_S = ½ tr Y − λ P_I − tr H_M(Y − m0) − tr H_N(Y − n0)
# − tr H_I(Y − λ(m0+n0)) ≤ ½ tr Y − λ P_I for every feasible tester, so
# each dual-feasible (Y, λ) bounds the whole curve from above. A tester
# whose blocks lie in the kernels of their slacks makes the three subtracted
# traces vanish and attains the bound (complementary slackness).
#
# A real symmetric 2×2 matrix is a = t 𝕀 + p₁ σ_z + p₂ σ_x with
# t = tr a / 2 and p = ((a00 − a11)/2, a01); its eigenvalues are t ± ‖p‖, so
# Y ⪰ a holds exactly when t_Y − t_a ≥ ‖p_Y − p_a‖ (a light cone). For
# fixed λ the least ½ tr Y = t_Y is the 1-center min_p maxᵢ (tᵢ + ‖p − pᵢ‖)
# of three cones, which sits where one, two or three cones are active.


def _cone(a: np.ndarray) -> tuple[float, float, float]:
    """(t, p₁, p₂) of a, as Python floats."""
    a00, a01, a11 = float(a[0, 0]), float(a[0, 1]), float(a[1, 1])
    return 0.5 * (a00 + a11), 0.5 * (a00 - a11), a01


def _top(cones, x: float, y: float) -> float:
    """Least t_Y with Y ⪰ every cone's matrix, given p_Y = (x, y)."""
    (t1, u1, v1), (t2, u2, v2), (t3, u3, v3) = cones
    return max(
        t1 + math.hypot(x - u1, y - v1),
        t2 + math.hypot(x - u2, y - v2),
        t3 + math.hypot(x - u3, y - v3),
    )


def _polish(cones, x: float, y: float) -> tuple[float, float]:
    """Newton steps on t₁ + r₁ = t₂ + r₂ = t₃ + r₃ from a three-cone point.

    The algebraic solve in `_one_center` loses digits when the apexes form
    a thin triangle (θ near π/4); these equations stay well conditioned.
    """
    (t1, u1, v1), (t2, u2, v2), (t3, u3, v3) = cones
    for _ in range(3):
        r1 = math.hypot(x - u1, y - v1)
        r2 = math.hypot(x - u2, y - v2)
        r3 = math.hypot(x - u3, y - v3)
        if r1 == 0.0 or r2 == 0.0 or r3 == 0.0:
            break
        f2, f3 = t1 + r1 - t2 - r2, t1 + r1 - t3 - r3
        a = (x - u1) / r1 - (x - u2) / r2
        b = (y - v1) / r1 - (y - v2) / r2
        c = (x - u1) / r1 - (x - u3) / r3
        d = (y - v1) / r1 - (y - v3) / r3
        det = a * d - b * c
        if det == 0.0:
            break
        x -= (f2 * d - f3 * b) / det
        y -= (a * f3 - c * f2) / det
    return x, y


def _one_center(cones) -> tuple[float, float, float]:
    """min over p of maxᵢ (tᵢ + ‖p − pᵢ‖), as (value, p₁, p₂).

    Candidates: each apex; on each segment between two apexes, the point
    where those two cones meet; and the points where all three meet. The
    value at each candidate is recomputed by `_top`, so every candidate is
    a feasible Y and rounding can only loosen the bound, never break it.
    """
    candidates = [(u, v) for _, u, v in cones]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        ti, ui, vi = cones[i]
        tj, uj, vj = cones[j]
        d = math.hypot(uj - ui, vj - vi)
        if d > 0.0:
            w = min(max(0.5 * (tj - ti + d), 0.0), d) / d
            candidates.append((ui + w * (uj - ui), vi + w * (vj - vi)))
    # All three active: with q = p − p₁ and R = t − t₁, ‖q‖ = R and
    # ‖q − dⱼ‖ = R − τⱼ turn into the linear q·dⱼ = aⱼ + R τⱼ (j = 2, 3),
    # so q = u + R v, and ‖u + R v‖ = R is a quadratic in R.
    (t1, u1, v1), (t2, u2, v2), (t3, u3, v3) = cones
    d2x, d2y, d3x, d3y = u2 - u1, v2 - v1, u3 - u1, v3 - v1
    det = d2x * d3y - d2y * d3x
    if det != 0.0:
        tau2, tau3 = t2 - t1, t3 - t1
        a2 = 0.5 * (d2x * d2x + d2y * d2y - tau2 * tau2)
        a3 = 0.5 * (d3x * d3x + d3y * d3y - tau3 * tau3)
        ux, uy = (a2 * d3y - a3 * d2y) / det, (d2x * a3 - d3x * a2) / det
        vx, vy = (tau2 * d3y - tau3 * d2y) / det, (d2x * tau3 - d3x * tau2) / det
        qa, qb, qc = vx * vx + vy * vy - 1.0, ux * vx + uy * vy, ux * ux + uy * uy
        roots = []
        if qa == 0.0:
            if qb != 0.0:
                roots.append(-0.5 * qc / qb)
        elif qb * qb - qa * qc >= 0.0:
            s = -(qb + math.copysign(math.sqrt(qb * qb - qa * qc), qb))
            roots.extend((s / qa, qc / s) if s != 0.0 else (0.0,))
        for r in roots:
            if r >= 0.0:
                x, y = u1 + ux + r * vx, v1 + uy + r * vy
                candidates.append((x, y))
                candidates.append(_polish(cones, x, y))
    return min((_top(cones, x, y), x, y) for x, y in candidates)


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


def _kernel_axis(cone, t: float, x: float, y: float):
    """Kernel of the slack Y − A, for Y = (t, x, y) and A = `cone`.

    Y − A = (t − t_A) 𝕀 + (p_Y − p_A)·σ has eigenvalues t − t_A ± r with
    r = ‖p_Y − p_A‖, and its lower eigenvector does not need an eigensolver:
    the kernel projector is (𝕀 − n·σ)/2 with n = (p_Y − p_A)/r. Returns n,
    () when the slack is zero (the kernel is the whole plane), or None when
    the slack is positive definite.
    """
    ta, ua, va = cone
    du, dv = x - ua, y - va
    r = math.hypot(du, dv)
    if t - ta - r > _ACTIVE:
        return None
    if r <= _ACTIVE:
        return ()
    return du / r, dv / r


def _slack_tester(cones, t: float, x: float, y: float):
    """The tester that complementary slackness assigns to the dual point.

    tr H_M (Y − m0) = 0 with both factors PSD puts H_M = w_M K_M on the
    kernel projector K_M of its slack, likewise H_N and H_I, and
    H_M + H_N + H_I = 𝕀/2 fixes the weights: Σ w = 1 and Σ w n = 0.
    - Y − λ(m0 + n0) positive definite (as at P_I = 0): H_I = 0, and
      w_M = w_N = ½ on opposite kernels.
    - All three slacks of rank one: a 3×3 system, solved by Cramer's rule.
    - Y − λ(m0 + n0) = 0 (λ = 1, the unambiguous end): any H_I is slack
      free. The most success on K_M and K_N has w_M = w_N = w (by the
      m0 ↔ n0 reflection) and the largest w that keeps
      H_I = 𝕀/2 − w (K_M + K_N) PSD, w = 1/(2 + ‖n_M + n_N‖).
    Returns (H_M, H_N) as (t, p₁, p₂) triples, or None when the slacks leave
    the tester undetermined (m0 and n0 within about 1e-9 of each other).
    """
    km, kn, ki = (_kernel_axis(cone, t, x, y) for cone in cones)
    if not km or not kn:
        return None
    (a1, a2), (b1, b2) = km, kn
    if ki == ():
        wm = wn = 1.0 / (2.0 + math.hypot(a1 + b1, a2 + b2))
        wi = 0.0  # H_I ⪰ 0 by the choice of w
    elif ki is None:
        # Y lies on the segment between the M and N apexes, so the kernels
        # are opposite and w_M = w_N = ½. Their axis comes from the apexes,
        # which carry no rounding from Y.
        (_, um, vm), (_, un, vn) = cones[0], cones[1]
        d = math.hypot(un - um, vn - vm)
        if d == 0.0:
            return None
        a1, a2 = (un - um) / d, (vn - vm) / d
        b1, b2 = -a1, -a2
        wm = wn = 0.5
        wi = 0.0
    else:
        c1, c2 = ki
        det = (b1 * c2 - c1 * b2) - (a1 * c2 - c1 * a2) + (a1 * b2 - b1 * a2)
        if det == 0.0:
            return None
        wm = (b1 * c2 - c1 * b2) / det
        wn = (c1 * a2 - a1 * c2) / det
        wi = 1.0 - wm - wn
    if min(wm, wn, wi) < -_ACTIVE:
        return None
    h_m = (0.5 * wm, -0.5 * wm * a1, -0.5 * wm * a2)
    h_n = (0.5 * wn, -0.5 * wn * b1, -0.5 * wn * b2)
    return h_m, h_n


def _slack_rate(tester, cone_s) -> float:
    """P_I = tr H_I (m0 + n0) of a `_slack_tester` result, H_I = 𝕀/2 − H_M − H_N."""
    (tm, um, vm), (tn, un, vn) = tester
    ts, us, vs = cone_s
    # tr (a 𝕀 + p·σ)(b 𝕀 + q·σ) = 2 (a b + p·q)
    return 2.0 * ((0.5 - tm - tn) * ts - (um + un) * us - (vm + vn) * vs)


def _dual_bound(m0: np.ndarray, n0: np.ndarray, p_inc: float) -> tuple[float, np.ndarray, float]:
    """Least dual value ½ tr Y − λ P_I, with the (Y, λ) that attains it.

    The dual function is convex in λ. An optimum has λ ≥ 0: for λ ≤ 0 the
    third constraint follows from the first, and −λ P_I ≥ 0. It has λ ≤ 1:
    for λ ≥ 1 the third constraint implies the other two, so the dual is
    λ (tr(m0+n0)/2 − P_I), which does not decrease because P_I ≤ tr(m0+n0)/2.
    Its slope at λ is P_I(λ) − p_inc, where P_I(λ) is the rate of the tester
    that complementary slackness assigns to the 1-center at λ
    (`_slack_tester`), so a bisection on the sign of the slope finds the
    optimal λ to rounding. Of the final bracket's two ends, the one whose
    rate is nearer p_inc is returned. Where the slacks leave the tester
    undetermined, the bisection stops at the least value it has evaluated.
    Every evaluation is dual feasible, so the result is always a bound.
    """
    base = _cones(m0, n0)

    def dual(lam: float):
        cones = _at(base, lam)
        t, x, y = _one_center(cones)
        tester = _slack_tester(cones, t, x, y)
        rate = None if tester is None else _slack_rate(tester, base[2])
        return t - lam * p_inc, rate, t, x, y, lam

    def bound(d) -> tuple[float, np.ndarray, float]:
        value, _, t, x, y, lam = d
        return value, np.array([[t + x, y], [y, t - x]]), lam

    lo, hi = dual(0.0), dual(1.0)
    for _ in range(_BISECTION_STEPS):
        lam = 0.5 * (lo[5] + hi[5])
        if lam in (lo[5], hi[5]):
            break
        mid = dual(lam)
        if mid[1] is None:
            return bound(min(lo, mid, hi, key=lambda d: d[0]))
        if mid[1] < p_inc:
            lo = mid
        else:
            hi = mid
    return bound(
        min(lo, hi, key=lambda d: (math.inf if d[1] is None else abs(d[1] - p_inc), d[0]))
    )


def _recover_tester(
    m0: np.ndarray, n0: np.ndarray, y: np.ndarray, lam: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """(H_M, H_N) that complementary slackness assigns to the dual point (Y, λ).

    H_I = 𝕀/2 − H_M − H_N. None when the slacks leave the tester
    undetermined (see `_slack_tester`) or when rounding leaves H_I outside
    the PSD tolerance of `PovmTriple`.
    """
    tester = _slack_tester(_at(_cones(m0, n0), lam), *_cone(y))
    if tester is None:
        return None
    (tm, um, vm), (tn, un, vn) = tester
    if 0.5 - tm - tn - math.hypot(um + un, vm + vn) < -PSD_TOL:
        return None
    return tuple(np.array([[t + u, v], [v, t - u]]) for t, u, v in tester)


def _blind_tester(p_inc: float) -> tuple[np.ndarray, np.ndarray]:
    """(H_M, H_N) of the tester that ignores the measurement.

    H_M = H_N = (1 − P_I)/4·𝕀 and H_I = (P_I/2)·𝕀: a fair coin guess,
    withheld at rate P_I. Where the measurements coincide (θ = 0) it is
    optimal, yet every dual slack vanishes and `_recover_tester` cannot
    pick it.
    """
    h = 0.25 * (1.0 - p_inc) * EYE2
    return h, h.copy()


def _ascent_restart(
    m0: np.ndarray,
    n0: np.ndarray,
    target: float,
    rng: np.random.Generator,
    tol: float,
) -> tuple[float, float, np.ndarray, np.ndarray]:
    coeffs = _kernel_coefficients(m0, n0, target)
    w = rng.dirichlet((1.0, 1.0, 1.0))
    angles = rng.uniform(0.0, math.pi, 2)
    v = np.array(
        [
            math.sqrt(w[0] / 2.0) * math.cos(angles[0]),
            math.sqrt(w[0] / 2.0) * math.sin(angles[0]),
            0.0,
            math.sqrt(w[1] / 2.0) * math.cos(angles[1]),
            math.sqrt(w[1] / 2.0) * math.sin(angles[1]),
            0.0,
        ]
    )
    for mu in (1e2, 1e3, 1e4, 1e6):
        res = minimize(
            _penalized_objective,
            v,
            args=(mu, 100.0 * mu, coeffs),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 200, "ftol": 1e-16, "gtol": 1e-12},
        )
        v = res.x

    lm = np.array([[v[0], 0.0], [v[1], v[2]]])
    ln = np.array([[v[3], 0.0], [v[4], v[5]]])
    h_m = lm @ lm.T
    h_n = ln @ ln.T
    # Feasibility polish: pull the pair inside the constraint, then, only
    # if the penalty stages left a real gap, mix exactly onto the target.
    top = np.linalg.eigvalsh(h_m + h_n)[-1]
    if top > 0.5:
        h_m = h_m * (0.5 / top)
        h_n = h_n * (0.5 / top)
    _, pi = _raw_reduced(h_m, h_n, m0, n0)
    if abs(pi - target) > 0.5 * tol:
        h_m, h_n = _mix_to_target(h_m, h_n, target, m0, n0)
    ps, pi = _raw_reduced(h_m, h_n, m0, n0)
    return ps, pi, h_m, h_n


def optimize_povm(
    pair: MeasurementPair,
    p_inc_target: float,
    *,
    tol: float = 1e-4,
    seed: int = 0,
    restarts: int = 20,
) -> OracleResult:
    """Maximize success at a fixed inconclusive rate over covariant testers.

    `_dual_bound` solves the Lagrange dual at the target, and
    `_recover_tester` reads the tester off its dual point by complementary
    slackness. The dual point bounds every tester's success at the
    recovered tester's own rate, so the tester is returned, with
    restart_values=() and best_restart=None, when that rate is within `tol`
    of the target and its success within `tol` of the bound. When the
    slacks leave the tester open (θ ≲ 1e-9), `_blind_tester` takes its
    place under the same check. No scipy is imported on this path.

    Only when that tester fails the check does the search fall back to
    penalized L-BFGS ascent from seeded random starts; `seed` and
    `restarts` govern this fallback alone. Restart r draws from the
    generator (seed, r) and passes through four penalty stages
    mu = 1e2, 1e3, 1e4, 1e6 with a PSD penalty nu = 100 mu, each minimizing
    the closed-form 2×2 kernel `_penalized_objective`; a final polish scales
    the blocks inside the constraint and, if needed, mixes them onto the
    target rate. The fallback returns the first restart that passes the
    same check against its own dual bound, so `restarts` caps the number of
    starts rather than fixing it. If none passes within the cap, the best
    feasible restart (ties to the lowest index), or failing that the one
    nearest the target rate, is returned with converged=False.

    `converged` means |P_I − target| ≤ tol and gap ≤ tol.
    Raises DomainError for a target outside [0, cos 2θ], `restarts` that
    is not an integer ≥ 1, or a `tol` that is not finite and positive.
    """
    restarts = check_integer(restarts, "restarts", 1)
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and positive, got {tol}")
    c = math.cos(2.0 * pair.theta)
    if not -TOL <= p_inc_target <= c + TOL:
        raise DomainError("inconclusive target outside [0, cos(2*theta)]")
    p_inc_target = min(max(p_inc_target, 0.0), c)
    m0, n0 = pair.m0, pair.n0

    _, y, lam = _dual_bound(m0, n0, p_inc_target)
    blocks = _recover_tester(m0, n0, y, lam)
    if blocks is None:
        blocks = _blind_tester(p_inc_target)
    if blocks is not None:
        result = _result(pair, p_inc_target, tol, *blocks, y, lam, (), None)
        if result.converged:
            return result

    runs = []  # (ps, pi, h_m, h_n, dual bound or None) per restart
    for r in range(restarts):
        rng = np.random.default_rng((seed, r))
        ps, pi, h_m, h_n = _ascent_restart(m0, n0, p_inc_target, rng, tol)
        bound = _dual_bound(m0, n0, pi) if abs(pi - p_inc_target) <= tol else None
        runs.append((ps, pi, h_m, h_n, bound))
        if bound is not None and bound[0] - ps <= tol:
            best = r
            break
    else:
        feasible = [r for r, run in enumerate(runs) if run[4] is not None]
        if feasible:
            best = max(feasible, key=lambda r: runs[r][0])
        else:
            best = min(range(restarts), key=lambda r: abs(runs[r][1] - p_inc_target))
    _, pi, h_m, h_n, bound = runs[best]
    _, y, lam = bound if bound is not None else _dual_bound(m0, n0, pi)
    restart_values = tuple(run[0] for run in runs)
    return _result(pair, p_inc_target, tol, h_m, h_n, y, lam, restart_values, best)


def _result(
    pair: MeasurementPair,
    p_inc_target: float,
    tol: float,
    h_m: np.ndarray,
    h_n: np.ndarray,
    y: np.ndarray,
    lam: float,
    restart_values: tuple[float, ...],
    best_restart: int | None,
) -> OracleResult:
    """Validate a tester and certify it with the dual point (y, lam)."""
    # Scrub float dust so the triple passes its own PSD validation.
    h_m = _psd_floor(h_m)
    h_n = _psd_floor(h_n)
    h_i = 0.5 * EYE2 - h_m - h_n
    triple = PovmTriple(h_m=h_m, h_n=h_n, h_i=h_i)
    point = reduced_probabilities(triple, pair)
    p_inc_error = abs(point.p_inconclusive - p_inc_target)
    # (Y, λ) is dual feasible, so it bounds P_S at the returned tester's rate.
    upper_bound = 0.5 * float(y[0, 0] + y[1, 1]) - lam * point.p_inconclusive
    gap = upper_bound - point.p_success
    return OracleResult(
        point=point,
        triple=triple,
        converged=p_inc_error <= tol and gap <= tol,
        p_inc_error=p_inc_error,
        restart_values=restart_values,
        best_restart=best_restart,
        upper_bound=upper_bound,
        gap=gap,
        y=y,
        lam=lam,
    )


def _psd_floor(mat: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(0.5 * (mat + mat.T))
    if evals[0] >= 0.0:
        return 0.5 * (mat + mat.T)
    evals = np.maximum(evals, 0.0)
    return evecs @ np.diag(evals) @ evecs.T


def brute_force_single(
    pair: MeasurementPair, p_inc_target: float, resolution: int = 2000
) -> StrategyPoint:
    """Exhaustive single-qubit scan: probe angles x guess rates, plus mixtures.

    Scans (resolution+1)^2 canonical protocols, keeps the best success in
    each of 4*resolution inconclusive-rate bins, and evaluates the upper
    hull of the survivors at the target rate (chords between scanned
    protocols are two-point mixtures, hence achievable). Raises DomainError
    for a target outside [0, (1 + cos 2θ)/2], the rates the scan reaches,
    and for a resolution that is not an integer in [100, MAX_RESOLUTION].
    """
    resolution = check_integer(resolution, "resolution", 100, MAX_RESOLUTION)
    theta = pair.theta
    angles = np.linspace(0.0, math.pi / 2.0, resolution + 1)
    qs = np.linspace(0.0, 1.0, resolution + 1)
    n_bins = 4 * resolution
    c = math.cos(2.0 * theta)
    pi_max = 0.5 * (1.0 + c)
    if not -TOL <= p_inc_target <= pi_max + TOL:
        raise DomainError("inconclusive target outside [0, (1 + cos(2*theta))/2]")
    scale = (n_bins - 1) / pi_max if pi_max > 0 else 0.0

    best_ps = np.full(n_bins, -np.inf)
    chunk = max(1, 40000 // (resolution + 1))

    def chunks():
        for start in range(0, len(qs), chunk):
            q = qs[start : start + chunk, None]
            pi, ps = q_strategy_points(theta, angles[None, :], q)
            yield pi.ravel(), ps.ravel()

    for pi, ps in chunks():
        bins = np.clip((pi * scale).astype(int), 0, n_bins - 1)
        np.maximum.at(best_ps, bins, ps)
    best_pi = np.zeros(n_bins)
    for pi, ps in chunks():
        bins = np.clip((pi * scale).astype(int), 0, n_bins - 1)
        hit = ps >= best_ps[bins]
        best_pi[bins[hit]] = pi[hit]

    valid = best_ps > -np.inf
    pts = np.column_stack([best_pi[valid], best_ps[valid]])
    hull = pts[upper_hull(pts)]

    target = min(max(p_inc_target, float(hull[0, 0])), float(hull[-1, 0]))
    ps_at = float(np.interp(target, hull[:, 0], hull[:, 1]))
    return StrategyPoint(ps_at, 1.0 - ps_at - target, target)
