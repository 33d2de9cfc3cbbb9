"""Numerical re-derivation of the optimal curves via process testers.

A full discrimination experiment (probe, processing, readout, answer
k ∈ {M, N, inconclusive}) is a three-component process tester
T_k = H_{k,0}⊗|0⟩⟨0| + H_{k,1}⊗|1⟩⟨1| constrained by Σ T_k = ρ⊗𝕀.
Averaging each block with its sigma_y conjugate (`symmetrize`) leaves all
outcome probabilities untouched and lands in the covariant family
H_{k,1} = σ_y H_{k,0} σ_y†, where ρ = 𝕀/2 and everything reduces to three
2×2 blocks summing to 𝕀/2 (`reduced_probabilities`).

`optimize_povm` maximizes success at a fixed inconclusive rate over those
blocks, by penalized gradient ascent from random starts or by a rank-1
grid scan; `brute_force_single` is the analogous exhaustive scan over
single-qubit protocols. Both exist to check the closed forms in
`strategies`, never to replace them.

The ascent's objective and gradient (`_penalized_objective`) are a scalar
kernel on Python floats: the three blocks are built entry by entry and the
negative part of H_I, which the feasibility penalty needs, comes from the
closed-form eigenvalues mean ± r of a symmetric 2×2 matrix, so no numpy
array is built per call except the returned gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import DomainError, ValidationError
from .geometry import SIGMA_Y, MeasurementPair
from .strategies import StrategyPoint, q_strategy_points, upper_hull

PSD_TOL = 1e-10
SUM_TOL = 1e-10
EYE2 = np.eye(2)


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
class TesterComponent:
    """One answer's pair of blocks (H_k0, H_k1), each PSD."""

    h0: np.ndarray
    h1: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h0", _check_symmetric_psd(self.h0, "h0"))
        object.__setattr__(self, "h1", _check_symmetric_psd(self.h1, "h1"))

    def full(self) -> np.ndarray:
        """The 4x4 tester block H_k0 ⊗ |0><0| + H_k1 ⊗ |1><1|."""
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        return np.kron(self.h0, p0) + np.kron(self.h1, p1)


@dataclass(frozen=True)
class TesterTriple:
    """Components for the three answers M, N, inconclusive."""

    m: TesterComponent
    n: TesterComponent
    i: TesterComponent


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


@dataclass(frozen=True)
class MeasurementOperatorPair:
    """Block-diagonal 4x4 operators E_X = X0^T⊗|0><0| + X1^T⊗|1><1|."""

    e_m: np.ndarray
    e_n: np.ndarray

    @classmethod
    def from_pair(cls, pair: MeasurementPair) -> "MeasurementOperatorPair":
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        e_m = np.kron(pair.m0.T, p0) + np.kron(pair.m1.T, p1)
        e_n = np.kron(pair.n0.T, p0) + np.kron(pair.n1.T, p1)
        return cls(e_m=e_m, e_n=e_n)


def tester_probabilities(triple: TesterTriple, pair: MeasurementPair) -> StrategyPoint:
    """Outcome probabilities of a full tester, straight from the 4x4 traces.

    Requires T_M + T_N + T_I = rho ⊗ 𝕀 for some density rho (checked to
    1e-8); the probe preparation is implicit in the tester formalism.
    """
    t_m, t_n, t_i = triple.m.full(), triple.n.full(), triple.i.full()
    sum0 = triple.m.h0 + triple.n.h0 + triple.i.h0
    sum1 = triple.m.h1 + triple.n.h1 + triple.i.h1
    residual = np.abs(sum0 - sum1).max()
    rho = 0.5 * (sum0 + sum1)
    trace_err = abs(np.trace(rho) - 1.0)
    if residual > 1e-8 or trace_err > 1e-8 or np.linalg.eigvalsh(rho)[0] < -1e-8:
        raise ValidationError(
            "tester triple does not sum to rho ⊗ identity for a density rho "
            f"(block residual {residual:.3e}, trace error {trace_err:.3e})"
        )
    ops = MeasurementOperatorPair.from_pair(pair)
    ps = 0.5 * (np.trace(t_m @ ops.e_m.T) + np.trace(t_n @ ops.e_n.T))
    pe = 0.5 * (np.trace(t_n @ ops.e_m.T) + np.trace(t_m @ ops.e_n.T))
    pi = 0.5 * np.trace(t_i @ (ops.e_m + ops.e_n).T)
    return StrategyPoint(float(ps), float(pe), float(pi))


def symmetrize(triple: TesterTriple) -> TesterTriple:
    """Average each block with its sigma_y conjugate.

    The output is covariant (H_k1 = σ_y H_k0 σ_y†) and produces identical
    probabilities for every measurement pair.
    """

    def sym(comp: TesterComponent) -> TesterComponent:
        h0 = 0.5 * (comp.h0 + SIGMA_Y @ comp.h1 @ SIGMA_Y.T)
        h1 = 0.5 * (comp.h1 + SIGMA_Y @ comp.h0 @ SIGMA_Y.T)
        return TesterComponent(h0=h0, h1=h1)

    return TesterTriple(m=sym(triple.m), n=sym(triple.n), i=sym(triple.i))


def covariant_blocks(triple: TesterTriple) -> PovmTriple:
    """Extract the H_k0 blocks of a covariant tester as a PovmTriple."""
    for name, comp in (("m", triple.m), ("n", triple.n), ("i", triple.i)):
        residual = np.abs(comp.h1 - SIGMA_Y @ comp.h0 @ SIGMA_Y.T).max()
        if residual > 1e-10:
            raise ValidationError(
                f"component {name} is not covariant (residual {residual:.3e})"
            )
    return PovmTriple(h_m=triple.m.h0, h_n=triple.n.h0, h_i=triple.i.h0)


def reduced_probabilities(triple: PovmTriple, pair: MeasurementPair) -> StrategyPoint:
    """Probabilities from the covariant 2x2 reduction."""
    m0, n0 = pair.m0, pair.n0
    ps = np.trace(triple.h_m @ m0) + np.trace(triple.h_n @ n0)
    pe = np.trace(triple.h_n @ m0) + np.trace(triple.h_m @ n0)
    pi = np.trace(triple.h_i @ (m0 + n0))
    return StrategyPoint(float(ps), float(pe), float(pi))


@dataclass(frozen=True)
class OracleResult:
    """Best tester found, with enough bookkeeping to audit the search."""

    point: StrategyPoint
    triple: PovmTriple
    converged: bool
    method: str
    p_inc_error: float
    restart_values: tuple[float, ...]
    best_restart: int | None


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


def _grid_candidates(
    m0: np.ndarray, n0: np.ndarray, n_angles: int, n_weights: int
) -> tuple[np.ndarray, np.ndarray]:
    """Best rank-1-block testers binned by achieved inconclusive rate.

    Returns (points, params): points[k] = (p_inc, p_success) of the best
    tester in bin k, params[k] = (angle_m, angle_n, w_m, w_n).
    """
    angles = np.linspace(0.0, math.pi, n_angles, endpoint=False)
    weights = np.linspace(0.0, 1.0, n_weights)
    cos, sin = np.cos(angles), np.sin(angles)
    vecs = np.stack([cos, sin], axis=1)
    msum = m0 + n0
    t_m = np.einsum("ki,ij,kj->k", vecs, m0, vecs)
    t_n = np.einsum("ki,ij,kj->k", vecs, n0, vecs)
    t_s = np.einsum("ki,ij,kj->k", vecs, msum, vecs)
    proj = np.einsum("ki,kj->kij", vecs, vecs)

    n_bins = 2001
    best_ps = np.full(n_bins, -np.inf)
    best_par = np.zeros((n_bins, 4))
    best_pi = np.zeros(n_bins)

    for wm in weights:
        for wn in weights:
            # H_I = I/2 - wm/2 P(am) - wn/2 P(an); feasible iff its minimum
            # eigenvalue is non-negative; 2x2 closed form over angle x angle.
            hm = 0.5 * wm * proj
            hn = 0.5 * wn * proj
            hi = 0.5 * EYE2 - hm[:, None] - hn[None, :]
            a = hi[..., 0, 0]
            d = hi[..., 1, 1]
            b = hi[..., 0, 1]
            lam_min = 0.5 * (a + d) - np.sqrt(0.25 * (a - d) ** 2 + b * b)
            ok = lam_min >= -1e-12
            ps = 0.5 * wm * t_m[:, None] + 0.5 * wn * t_n[None, :]
            pi = 1.0 - 0.5 * wm * t_s[:, None] - 0.5 * wn * t_s[None, :]
            ps = np.where(ok, ps, -np.inf)
            bins = np.clip((pi * (n_bins - 1)).astype(int), 0, n_bins - 1)
            flat_bins = bins.ravel()
            flat_ps = ps.ravel()
            order = np.argsort(flat_ps)
            upd_bins = flat_bins[order]
            upd_ps = flat_ps[order]
            mask = upd_ps > best_ps[upd_bins]
            if not np.any(mask):
                continue
            ub, up = upd_bins[mask], upd_ps[mask]
            best_ps[ub] = up
            ii, jj = np.unravel_index(order[mask], ps.shape)
            best_pi[ub] = pi[ii, jj]
            best_par[ub, 0] = angles[ii]
            best_par[ub, 1] = angles[jj]
            best_par[ub, 2] = wm
            best_par[ub, 3] = wn

    valid = best_ps > -np.inf
    points = np.column_stack([best_pi[valid], best_ps[valid]])
    return points, best_par[valid]


def _blocks_from_params(par: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vm = np.array([math.cos(par[0]), math.sin(par[0])])
    vn = np.array([math.cos(par[1]), math.sin(par[1])])
    return 0.5 * par[2] * np.outer(vm, vm), 0.5 * par[3] * np.outer(vn, vn)


def optimize_povm(
    pair: MeasurementPair,
    p_inc_target: float,
    method: str = "ascent",
    tol: float = 1e-4,
    seed: int = 0,
    restarts: int = 20,
    free_rho: bool = False,
) -> OracleResult:
    """Maximize success at a fixed inconclusive rate over covariant testers.

    `ascent` runs penalized L-BFGS ascent from `restarts` seeded random
    starts and keeps the best feasible result (ties to the lowest restart
    index). Each start passes through four penalty stages mu = 1e2, 1e3,
    1e4, 1e6 with a PSD penalty nu = 100 mu, each minimizing the closed-form
    2×2 kernel `_penalized_objective`; a final polish scales the blocks
    inside the constraint and, if needed, mixes them onto the target rate.
    `grid` scans rank-1 blocks, bins them by achieved rate, and
    interpolates the binned upper hull at the target (hull chords are
    two-tester mixtures, hence achievable). If no run lands within `tol`
    of the target the best attempt is returned with converged=False.

    `free_rho` is a diagnostic: it re-runs the search without fixing
    rho = 𝕀/2 (normalizing total trace instead) to confirm the fixed
    choice loses nothing.

    Raises DomainError for a target outside [0, cos 2θ], `restarts` < 1,
    a `tol` that is not finite and positive, or an unknown method.
    """
    if restarts < 1:
        raise DomainError(f"restarts must be at least 1, got {restarts}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and positive, got {tol}")
    c = math.cos(2.0 * pair.theta)
    if not -1e-12 <= p_inc_target <= c + 1e-12:
        raise DomainError("inconclusive target outside [0, cos(2*theta)]")
    p_inc_target = min(max(p_inc_target, 0.0), c)
    m0, n0 = pair.m0, pair.n0

    if free_rho:
        return _optimize_free_rho(pair, p_inc_target, tol, seed, restarts)

    if method == "ascent":
        values: list[float] = []
        errors: list[float] = []
        blocks: list[tuple[np.ndarray, np.ndarray]] = []
        for r in range(restarts):
            rng = np.random.default_rng((seed, r))
            ps, pi, h_m, h_n = _ascent_restart(m0, n0, p_inc_target, rng, tol)
            values.append(ps)
            errors.append(abs(pi - p_inc_target))
            blocks.append((h_m, h_n))
        values_arr = np.array(values)
        errors_arr = np.array(errors)
        feasible = errors_arr <= tol
        if np.any(feasible):
            masked = np.where(feasible, values_arr, -np.inf)
            best = int(np.argmax(masked))
            converged = True
        else:
            best = int(np.argmin(errors_arr))
            converged = False
        h_m, h_n = blocks[best]
        restart_values = tuple(values)
        best_restart: int | None = best
    elif method == "grid":
        points, params = _grid_candidates(m0, n0, n_angles=96, n_weights=64)
        # Two exact anchors so the hull always spans the full rate range:
        # all-inconclusive at (1, 0) and guess-M at (0, 1/2). Sentinel angle
        # -1 marks them for exact block reconstruction.
        anchors = np.array([[1.0, 0.0], [0.0, 0.5]])
        anchor_par = np.array([[-1.0, -1.0, 0.0, 0.0], [-1.0, -1.0, 1.0, 0.0]])
        points = np.vstack([points, anchors])
        params = np.vstack([params, anchor_par])
        hull_idx = upper_hull(points)
        hpts = points[hull_idx]
        j = int(np.searchsorted(hpts[:, 0], p_inc_target, side="right"))
        j = min(max(j, 1), len(hpts) - 1)
        left, right = hull_idx[j - 1], hull_idx[j]
        x0, y0 = points[left]
        x1, y1 = points[right]
        lam = 0.0 if x1 == x0 else (p_inc_target - x0) / (x1 - x0)
        lam = min(max(lam, 0.0), 1.0)

        def blocks_at(idx: int) -> tuple[np.ndarray, np.ndarray]:
            p = params[idx]
            if p[0] < 0.0:
                if p[2] == 1.0:
                    return 0.5 * EYE2, np.zeros((2, 2))
                return np.zeros((2, 2)), np.zeros((2, 2))
            return _blocks_from_params(p)

        bm0, bn0 = blocks_at(left)
        bm1, bn1 = blocks_at(right)
        h_m = (1.0 - lam) * bm0 + lam * bm1
        h_n = (1.0 - lam) * bn0 + lam * bn1
        _, pi = _raw_reduced(h_m, h_n, m0, n0)
        converged = abs(pi - p_inc_target) <= tol
        restart_values = ()
        best_restart = None
    else:
        raise DomainError(f"unknown optimization method: {method}")

    # Scrub float dust so the triple passes its own PSD validation.
    h_m = _psd_floor(h_m)
    h_n = _psd_floor(h_n)
    h_i = 0.5 * EYE2 - h_m - h_n
    triple = PovmTriple(h_m=h_m, h_n=h_n, h_i=h_i)
    point = reduced_probabilities(triple, pair)
    p_inc_error = abs(point.p_inconclusive - p_inc_target)
    if p_inc_error > tol:
        converged = False
    return OracleResult(
        point=point,
        triple=triple,
        converged=converged,
        method=method,
        p_inc_error=p_inc_error,
        restart_values=restart_values,
        best_restart=best_restart,
    )


def _psd_floor(mat: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(0.5 * (mat + mat.T))
    if evals[0] >= 0.0:
        return 0.5 * (mat + mat.T)
    evals = np.maximum(evals, 0.0)
    return evecs @ np.diag(evals) @ evecs.T


def _optimize_free_rho(
    pair: MeasurementPair, target: float, tol: float, seed: int, restarts: int
) -> OracleResult:
    """Diagnostic search with rho free (blocks normalized to unit trace)."""
    m0, n0 = pair.m0, pair.n0
    msum = m0 + n0

    def objective(v: np.ndarray, mu: float) -> float:
        ls = [np.array([[v[3 * k], 0.0], [v[3 * k + 1], v[3 * k + 2]]]) for k in range(3)]
        hs = [l @ l.T for l in ls]
        tr = sum(np.trace(h) for h in hs)
        if tr < 1e-12:
            return 1e6
        hs = [h / tr for h in hs]
        ps = np.sum(hs[0] * m0) + np.sum(hs[1] * n0)
        pi = np.sum(hs[2] * msum)
        return -(ps - mu * (pi - target) ** 2)

    best_val = -np.inf
    best_x = None
    values = []
    for r in range(restarts):
        rng = np.random.default_rng((seed, r, 1))
        v = rng.normal(size=9) * 0.5
        for mu in (1e2, 1e3, 1e4, 1e6):
            res = minimize(objective, v, args=(mu,), method="L-BFGS-B",
                           options={"maxiter": 400})
            v = res.x
        val = -objective(v, 1e6)
        values.append(val)
        if val > best_val:
            best_val = val
            best_x = v

    v = best_x
    ls = [np.array([[v[3 * k], 0.0], [v[3 * k + 1], v[3 * k + 2]]]) for k in range(3)]
    hs = [l @ l.T for l in ls]
    tr = sum(np.trace(h) for h in hs)
    hs = [h / tr for h in hs]
    ps = float(np.sum(hs[0] * m0) + np.sum(hs[1] * n0))
    pe = float(np.sum(hs[1] * m0) + np.sum(hs[0] * n0))
    pi = float(np.sum(hs[2] * msum))
    # Rescale away the tiny constraint slack so the report is a valid point.
    total = ps + pe + pi
    point = StrategyPoint(ps / total, pe / total, pi / total)
    # The returned triple is the nearest fixed-rho projection, for shape
    # compatibility; the diagnostic value lives in point.p_success.
    h_m, h_n = _mix_to_target(
        _psd_floor(hs[0] * (0.5 / max(np.trace(hs[0] + hs[1]), 0.5))),
        _psd_floor(hs[1] * (0.5 / max(np.trace(hs[0] + hs[1]), 0.5))),
        point.p_inconclusive,
        m0,
        n0,
    )
    h_i = 0.5 * EYE2 - h_m - h_n
    triple = PovmTriple(h_m=_psd_floor(h_m), h_n=_psd_floor(h_n),
                        h_i=_psd_floor(0.5 * EYE2 - _psd_floor(h_m) - _psd_floor(h_n)))
    return OracleResult(
        point=point,
        triple=triple,
        converged=abs(pi - target) <= tol,
        method="free-rho",
        p_inc_error=abs(point.p_inconclusive - target),
        restart_values=tuple(values),
        best_restart=int(np.argmax(values)),
    )


def brute_force_single(
    pair: MeasurementPair, p_inc_target: float, resolution: int = 2000
) -> StrategyPoint:
    """Exhaustive single-qubit scan: probe angles x guess rates, plus mixtures.

    Scans (resolution+1)^2 canonical protocols, keeps the best success in
    each of 4*resolution inconclusive-rate bins, and evaluates the upper
    hull of the survivors at the target rate (chords between scanned
    protocols are two-point mixtures, hence achievable).
    """
    if resolution < 100:
        raise DomainError("resolution must be at least 100")
    theta = pair.theta
    angles = np.linspace(0.0, math.pi / 2.0, resolution + 1)
    qs = np.linspace(0.0, 1.0, resolution + 1)
    n_bins = 4 * resolution
    c = math.cos(2.0 * theta)
    pi_max = 0.5 * (1.0 + c)
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
