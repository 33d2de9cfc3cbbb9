"""Independent cross-check routes used by the test suite.

Every helper here recomputes something the library derives in closed form,
but by a different route: generic polynomial root finders, the cubic's
trigonometric root with b2**3 raised on every row, an exhaustive scan of
single-qubit protocols, scipy's convex hull and a plain monotone chain,
high-precision differencing with mpmath, a
branch-by-branch expectation model of the Monte Carlo bench, a
trial-by-trial sampler of that bench, the Lagrange dual over every
single-qubit protocol, and the process-tester formalism. `stress_sweep`
lists the seeded inputs on which the tester search is stress-tested.
Tests compare the two routes; nothing in this module imports the package
under test. `two_pass_optimal` takes the library's pure-curve kernel as an
argument and checks only how the optimal curve is put together from it.

The process-tester formalism (Chiribella, D'Ariano and Perinotti, Phys.
Rev. A 80, 022339, 2009) is kept here in full. A tester is a dict
{(k, i): H} of 2x2 blocks, answer k in "mni" and remote outcome i in
(0, 1). `tester_probabilities` reads its statistics off the 4x4 traces,
`symmetrize` averages it with its sigma_y conjugate, and
`protocol_tester_blocks` and `random_tester` build testers. The library's
search works on the covariant 2x2 reduction that this symmetrization
justifies.

FROZEN holds reference values computed once at 50 significant digits and
pasted in, so regressions cannot hide behind a shared code path.
"""

import math

import numpy as np

SIGMA_Y = np.array([[0.0, 1.0], [-1.0, 0.0]])

FROZEN = {
    # overlap and entangled filter curve at theta = pi/6, budget 0.3
    "overlap_pi6": 0.5,
    "filter_pi6_p03": 0.77459666924148338,
    "ps_entangled_pi6_p03": 0.68541019662496845,
    "rel_success_pi6_p03": 0.97915742374995493,
    "helstrom_pi6": 0.93301270189221932,
    "idp_filter_pi6": 0.5773502691896258,
    # single-qubit pure curve at c = 0.5, budget 0.3
    "x_opt_c05_p03": -0.17082039324993691,
    "q_c05_p03": 0.44721359549995794,
    "ps_pure_c05_p03": 0.65872565409072384,
    "y_root_c05_p03": -0.085410196624968454,
    # branch boundary and tangent budgets
    "pib_c05": 0.59150635094610966,
    "pib_c09": 0.71686985827943358,
    "pib_c10": 0.75,
    "pit_c05": 0.60285945694153691,
    "pit_c09": 0.75828797013528841,
    "pit_c10": 0.8,
    "ps_tangent_c05": 0.39590234973312896,
    # hull mixture at c = 0.5, budget 0.3
    "ps_opt_c05_p03": 0.66573132512623587,
    "w_anchor_c05_p03": 0.50237157840738178,
    "w_tangent_c05_p03": 0.49762842159261822,
    "advantage_pi6_p03": 0.019678871498732589,
    # unambiguous endpoint of the single-qubit hull at c = 0.5
    "u_pinc_c05": 0.625,
    "u_ps_c05": 0.375,
    # q = 0 arc values, plus curvatures at budgets inside the hull band
    "ps_concave_c05_p05": 0.46650635094610966,
    "ps_concave_c09_p07": 0.24761824106003099,
    "ps_concave_c05_p061": 0.38942222095223581,
    "d2_concave_c05_p061": -4.7837100062652502,
    "ps_concave_c09_p08": 0.18122328620674137,
    "d2_concave_c09_p08": -1.2995725793078619,
}


def protocol_tester_blocks(theta: float, f: float) -> dict:
    """Tester blocks for the filter protocol, built from the circuit.

    Collapse the held qubit (outcome i of the remote device), correct the
    i = 0 branch with sigma_y, attenuate |0> by f, then interfere: the
    |+><+| port answers M, the |-><-| port answers N, and the filter loss
    I - F^2 answers inconclusive. Returns {(k, i): H} for k in "mni".
    """
    fmat = np.diag([f, 1.0])
    plus = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
    minus = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    blocks = {
        ("m", 0): 0.5 * fmat @ plus @ fmat,
        ("n", 0): 0.5 * fmat @ minus @ fmat,
        ("i", 0): 0.5 * (np.eye(2) - fmat @ fmat),
    }
    for k in ("m", "n", "i"):
        blocks[(k, 1)] = SIGMA_Y @ blocks[(k, 0)] @ SIGMA_Y.T
    return blocks


P0, P1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])


def tester_probabilities(blocks: dict, pair) -> tuple[float, float, float]:
    """(P_S, P_E, P_I) of a tester {(k, i): H} on a measurement pair.

    T_k = H_k0 (x) |0><0| + H_k1 (x) |1><1| is the answer-k element and
    E_X = X0^T (x) |0><0| + X1^T (x) |1><1| the operator of device X, read
    off the pair's projectors; the answer-k rate given X is tr T_k E_X^T,
    and the two devices are equally likely. Raises ValueError unless the
    blocks sum to rho (x) identity for a density rho (to 1e-8).
    """
    sums = [sum(blocks[(k, i)] for k in "mni") for i in (0, 1)]
    if (
        np.abs(sums[0] - sums[1]).max() > 1e-8
        or abs(np.trace(sums[0]) - 1.0) > 1e-8
        or np.linalg.eigvalsh(sums[0])[0] < -1e-8
    ):
        raise ValueError("tester blocks do not sum to rho (x) identity")
    t = {k: np.kron(blocks[(k, 0)], P0) + np.kron(blocks[(k, 1)], P1) for k in "mni"}
    e_m = np.kron(pair.m0.T, P0) + np.kron(pair.m1.T, P1)
    e_n = np.kron(pair.n0.T, P0) + np.kron(pair.n1.T, P1)
    ps = 0.5 * (np.trace(t["m"] @ e_m.T) + np.trace(t["n"] @ e_n.T))
    pe = 0.5 * (np.trace(t["n"] @ e_m.T) + np.trace(t["m"] @ e_n.T))
    pi = 0.5 * np.trace(t["i"] @ (e_m + e_n).T)
    return float(ps), float(pe), float(pi)


def symmetrize(blocks: dict) -> dict:
    """Average each answer's blocks with their sigma_y conjugates.

    The result is covariant (H_k1 = sigma_y H_k0 sigma_y^T) and, since
    sigma_y swaps each device's outcome-0 and outcome-1 projectors, has
    the same statistics on every measurement pair.
    """

    def conj(h):
        return SIGMA_Y @ h @ SIGMA_Y.T

    return {
        (k, i): 0.5 * (blocks[(k, i)] + conj(blocks[(k, 1 - i)]))
        for k in "mni"
        for i in (0, 1)
    }


def conclusive_cubic_roots(c: float, p_inc: float) -> list[float]:
    """Real roots of the conclusive-rate cubic via the companion matrix."""
    roots = np.roots([c * c, -2.0 * c, 1.0 - p_inc, p_inc * c])
    return sorted(float(r.real) for r in roots if abs(r.imag) < 1e-9)


def trig_least_root(a3, a2, a1, a0, lo, hi) -> np.ndarray:
    """The least root of a3 x^3 + a2 x^2 + a1 x + a0 per row, in [lo, hi].

    The general six-coefficient solver that `_cubic.least_root` specializes
    to its one monic cubic, written out with b2**3 raised on every row:
    normalize each row by its largest coefficient, take the
    trigonometric root m cos(phi - 4 pi/3) - b2/3 of the depressed cubic,
    clip it to the bracket, take three Newton steps (none where the
    derivative vanishes) and clip again. The cube is numpy's array power
    over the whole column, because numpy's scalar power can round
    differently from its array loop.
    """
    rows = np.array(np.broadcast_arrays(a3, a2, a1, a0, lo, hi), dtype=float)
    coefs, (lo, hi) = rows[:4].reshape(4, -1), rows[4:].reshape(2, -1)
    coefs = coefs / np.abs(coefs).max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        b2, b1, b0 = coefs[1:] / coefs[0]
        p = b1 - b2 * b2 / 3.0
        q = 2.0 * b2**3 / 27.0 - b2 * b1 / 3.0 + b0
        m = 2.0 * np.sqrt(-p / 3.0)
        phi = np.arccos(np.minimum(np.maximum(3.0 * q / (p * m), -1.0), 1.0)) / 3.0
        x = m * np.cos(phi - 4.0 * math.pi / 3.0) - b2 / 3.0
    x = np.clip(x, lo, hi)
    c3, c2, c1, c0 = coefs
    for _ in range(3):
        df = (3.0 * c3 * x + 2.0 * c2) * x + c1
        f = ((c3 * x + c2) * x + c1) * x + c0
        x = x - np.divide(f, df, out=np.zeros(x.shape), where=df != 0.0)
    return np.clip(x, lo, hi)


def two_pass_optimal(pure_kernel, theta, c, p_inc):
    """The optimal single-qubit curve assembled from two masked pure-curve calls.

    The arc rows (and rows below overlap 1e-12) are read at their own
    budget, the chord rows below the tangent budget
    (1 + c^2)/2 - c^4/(1 + 2c^2 + sqrt(1 + 3c^2)) at that budget and mixed
    with the P_I = 0 point; each result is scattered back into NaN-filled
    columns. `pure_kernel(theta, c, p_inc)`
    returns (P_S, x, q) on flat rows. The caller passes the library's, as
    this checks how the optimal curve is assembled from the pure curve,
    not the pure curve itself. Returns P_S, the tangent weight (NaN off
    the chord), x and q.
    """
    ps, w_t, x, q = np.full((4,) + p_inc.shape, np.nan)
    c2 = c * c
    pit = 0.5 * (1.0 + c2) - c2 * c2 / (1.0 + 2.0 * c2 + np.sqrt(1.0 + 3.0 * c2))
    chord = (c >= 1e-12) & (p_inc < pit)
    arc = ~chord
    if arc.any():
        ps[arc], x[arc], q[arc] = pure_kernel(theta[arc], c[arc], p_inc[arc])
    if chord.any():
        th, pt = theta[chord], pit[chord]
        w_t[chord] = w = p_inc[chord] / pt
        ps_t, x[chord], q[chord] = pure_kernel(th, c[chord], pt)
        ps[chord] = (1.0 - w) * (0.5 * (1.0 + np.sin(2.0 * th))) + w * ps_t
    return ps, w_t, x, q


def best_pure_probe(c: float, p_inc: float):
    """Best admissible pure-probe point from the generic root finder.

    Returns (p_success, x, q) or None when no root is admissible.
    """
    best = None
    for x in conclusive_cubic_roots(c, p_inc):
        if abs(x) > 1.0 + 1e-9:
            continue
        den = 1.0 - x * c
        if den <= 0.0:
            continue
        q = 1.0 - 2.0 * p_inc / den
        if not -1e-9 <= q <= 1.0 + 1e-9:
            continue
        ps = 0.5 * (1.0 - p_inc) + 0.5 * math.sqrt(
            (1.0 - c * c) * max(1.0 - x * x, 0.0)
        ) * (1.0 - p_inc / den)
        if best is None or ps > best[0]:
            best = (ps, x, q)
    return best


def relabeling_candidates(theta: float, probe_angle: float, q: float) -> list:
    """All four guess assignments for a probe-and-abstain strategy.

    The probe |v> = (cos a, sin a) is measured by the unknown device; one
    outcome triggers a firm guess, the other guesses the opposite device
    with probability q and abstains otherwise. Four assignments: which
    outcome is firm, and which device the firm guess names. Returns
    (p_success, p_error, p_inconclusive) tuples.
    """
    pm = (math.cos(theta - probe_angle) ** 2, math.sin(theta - probe_angle) ** 2)
    pn = (math.cos(theta + probe_angle) ** 2, math.sin(theta + probe_angle) ** 2)
    candidates = []
    for firm in (0, 1):
        other = 1 - firm
        for firm_device, hedge_device in ((pm, pn), (pn, pm)):
            ps = 0.5 * (firm_device[firm] + q * hedge_device[other])
            pe = 0.5 * (hedge_device[firm] + q * firm_device[other])
            pi = 0.5 * (1.0 - q) * (pm[other] + pn[other])
            candidates.append((ps, pe, pi))
    return candidates


# Largest brute_force_single resolution: 25 times the default's protocols.
MAX_RESOLUTION = 10_000


def brute_force_single(pair, p_inc_target: float, resolution: int = 2000) -> float:
    """Best single-qubit success at an inconclusive rate, by exhaustive scan.

    Scans (resolution+1)^2 probe angles x guess rates under each of the four
    guess assignments of `relabeling_candidates`, keeps the best success in
    each of 4*resolution inconclusive-rate bins, and reads the upper hull of
    the survivors (`upper_hull_chain`) at the target rate: chords between
    scanned protocols are two-point mixtures, hence achievable. Raises
    ValueError for a resolution that is not an integer in
    [100, MAX_RESOLUTION] and for a target outside [0, (1 + cos 2θ)/2].
    """
    if not (isinstance(resolution, int) and 100 <= resolution <= MAX_RESOLUTION):
        raise ValueError(f"resolution must be an integer in [100, {MAX_RESOLUTION}]")
    theta = pair.theta
    pi_max = 0.5 * (1.0 + math.cos(2.0 * theta))
    if not -1e-12 <= p_inc_target <= pi_max + 1e-12:
        raise ValueError("inconclusive target outside [0, (1 + cos(2*theta))/2]")
    angles = np.linspace(0.0, math.pi / 2.0, resolution + 1)
    qs = np.linspace(0.0, 1.0, resolution + 1)
    pm = (np.cos(theta - angles) ** 2, np.sin(theta - angles) ** 2)
    pn = (np.cos(theta + angles) ** 2, np.sin(theta + angles) ** 2)
    n_bins = 4 * resolution
    scale = (n_bins - 1) / pi_max
    step = max(1, 40000 // (resolution + 1))

    def chunks():
        for start in range(0, len(qs), step):
            q = qs[start : start + step, None]
            for firm in (0, 1):
                other = 1 - firm
                pi = (0.5 * (1.0 - q) * (pm[other] + pn[other])).ravel()
                bins = np.clip((pi * scale).astype(int), 0, n_bins - 1)
                for sure, hedge in ((pm, pn), (pn, pm)):
                    yield pi, bins, (0.5 * (sure[firm] + q * hedge[other])).ravel()

    best_ps = np.full(n_bins, -np.inf)
    for _, bins, ps in chunks():
        np.maximum.at(best_ps, bins, ps)
    best_pi = np.zeros(n_bins)
    for pi, bins, ps in chunks():
        hit = ps >= best_ps[bins]
        best_pi[bins[hit]] = pi[hit]

    valid = best_ps > -np.inf
    pts = np.column_stack([best_pi[valid], best_ps[valid]])
    hull = pts[upper_hull_chain(pts)]
    target = min(max(p_inc_target, hull[0, 0]), hull[-1, 0])
    return float(np.interp(target, hull[:, 0], hull[:, 1]))


def upper_hull_interp(p_inc, p_success, query):
    """Upper-envelope heights at the query abscissas via scipy's hull."""
    from scipy.spatial import ConvexHull

    pts = np.column_stack(
        [np.asarray(p_inc, dtype=float), np.asarray(p_success, dtype=float)]
    )
    cycle = list(ConvexHull(pts).vertices)  # counterclockwise
    n = len(cycle)
    start = max(range(n), key=lambda j: (pts[cycle[j], 0], pts[cycle[j], 1]))
    stop = max(range(n), key=lambda j: (-pts[cycle[j], 0], pts[cycle[j], 1]))
    chain = [cycle[start]]
    j = start
    while j != stop:
        j = (j + 1) % n
        chain.append(cycle[j])
    chain.reverse()
    return np.interp(np.asarray(query, dtype=float), pts[chain, 0], pts[chain, 1])


def upper_hull_chain(points) -> list[int]:
    """Row indices of the upper hull by a plain monotone chain over all points.

    Rows are ordered by (x, -y, index) and only the first row at each x is
    kept; a vertex goes when the turn through it is not clockwise by more
    than 1e-15. There is no prefilter: every row enters the chain.
    """
    xs = [float(v) for v in points[:, 0]]
    ys = [float(v) for v in points[:, 1]]
    order = sorted(range(len(xs)), key=lambda i: (xs[i], -ys[i], i))
    order = [i for k, i in enumerate(order) if k == 0 or xs[i] != xs[order[k - 1]]]
    hull: list[int] = []
    for i in order:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            turn = (xs[b] - xs[a]) * (ys[i] - ys[a]) - (ys[b] - ys[a]) * (xs[i] - xs[a])
            if turn < -1e-15:
                break
            hull.pop()
        hull.append(i)
    return hull


def mp_pure_success(c, p_inc, dps: int = 60):
    """Best pure-probe success at high precision (mpmath root finder)."""
    import mpmath as mp

    with mp.workdps(dps):
        cc = mp.mpf(c)
        pp = mp.mpf(p_inc)
        tiny = mp.mpf("1e-30")
        roots = mp.polyroots(
            [cc * cc, -2 * cc, 1 - pp, pp * cc], maxsteps=200, extraprec=120
        )
        best = None
        for root in roots:
            if abs(mp.im(root)) > tiny:
                continue
            x = mp.re(root)
            if abs(x) > 1 + tiny:
                continue
            den = 1 - x * cc
            if den <= 0:
                continue
            q = 1 - 2 * pp / den
            if q < -tiny or q > 1 + tiny:
                continue
            ps = (1 - pp) / 2 + mp.sqrt((1 - cc * cc) * (1 - x * x)) * (
                1 - pp / den
            ) / 2
            if best is None or ps > best:
                best = ps
        return best


def mp_least_root(c, p_inc, dps: int = 40):
    """Least root y of y^3 - 2y^2 + (1 - P_I) y + P_I c^2 (mpmath root finder)."""
    import mpmath as mp

    with mp.workdps(dps):
        cc, pp = mp.mpf(c), mp.mpf(p_inc)
        roots = mp.polyroots([1, -2, 1 - pp, pp * cc * cc], maxsteps=400, extraprec=400)
        return min(mp.re(r) for r in roots)


def mp_second_derivative(c, p_inc, concave: bool = False, dps: int = 60) -> float:
    """d^2 P_S / d P_I^2 by a high-precision central stencil."""
    import mpmath as mp

    with mp.workdps(dps):
        cc = mp.mpf(c)
        if concave:

            def func(t):
                return (1 - t) / 2 + mp.sqrt(
                    (1 - cc * cc) * (cc * cc - (1 - 2 * t) ** 2)
                ) / (4 * cc)

        else:

            def func(t):
                return mp_pure_success(c, t, dps=dps)

        p0 = mp.mpf(p_inc)
        h = mp.mpf("1e-15")
        return float((func(p0 - h) - 2 * func(p0) + func(p0 + h)) / (h * h))


def bench_expectations(
    theta: float,
    transmittance: float,
    phase_sigma: float = 0.0,
    visibility: float = 1.0,
    imbalance: float = 0.0,
    feed_forward: bool = True,
) -> dict:
    """Exact per-cell firing probabilities for the bench model.

    Enumerates the discrete branches (device, outcome, singlet or impostor)
    and integrates the continuous draws analytically; the phase average
    uses E[cos chi] = exp(-sigma^2 / 2), exact for Gaussian phase noise.
    Returns the (2, 2, 3) pre-thinning cell array indexed
    (device, outcome, detector) with detectors (dark, bright, inconclusive),
    plus the derived probabilities.
    """
    sq_t = math.sqrt(transmittance)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    a_base = [[sin_t, cos_t], [sin_t, cos_t]]
    b_base = [[-cos_t, sin_t], [cos_t, -sin_t]]
    split = 0.5 + imbalance
    cross = 2.0 * math.sqrt(split * (1.0 - split))
    mean_cos = math.exp(-0.5 * phase_sigma * phase_sigma)
    cells = np.zeros((2, 2, 3))
    for device in (0, 1):
        for outcome in (0, 1):
            branches = [
                (0.25 * visibility, a_base[device][outcome], b_base[device][outcome])
            ]
            if visibility < 1.0:
                share = 0.125 * (1.0 - visibility)
                branches.append((share, 1.0, 0.0))
                branches.append((share, 0.0, 1.0))
            for weight, a, b in branches:
                if feed_forward and outcome == 0:
                    a, b = b, a
                p_fail = (1.0 - transmittance) * a * a
                cells[device, outcome, 2] += weight * p_fail
                p_pass = 1.0 - p_fail
                if p_pass <= 0.0:
                    continue
                a_pass = sq_t * a
                norm = math.sqrt(a_pass * a_pass + b * b)
                if norm == 0.0:
                    norm = 1.0
                a_out = a_pass / norm
                b_out = b / norm
                p_bright = (
                    split * a_out * a_out
                    + (1.0 - split) * b_out * b_out
                    + cross * a_out * b_out * mean_cos
                )
                p_bright = min(max(p_bright, 0.0), 1.0)
                # Deterministic ports reproduce the simulator's dust flush.
                if phase_sigma == 0.0:
                    if p_bright < 1e-24:
                        p_bright = 0.0
                    elif p_bright > 1.0 - 1e-24:
                        p_bright = 1.0
                cells[device, outcome, 1] += weight * p_pass * p_bright
                cells[device, outcome, 0] += weight * p_pass * (1.0 - p_bright)
    p_success = cells[0, 0, 0] + cells[0, 1, 1] + cells[1, 1, 0] + cells[1, 0, 1]
    p_inc = cells[:, :, 2].sum()
    p_error = 1.0 - p_success - p_inc
    rel = p_success / (1.0 - p_inc) if p_inc < 1.0 else float("nan")
    return {
        "cells": cells,
        "p_success": p_success,
        "p_error": p_error,
        "p_inc": p_inc,
        "rel_success": rel,
    }


def thinned_cells(cells, eta_outcome=(1.0, 1.0), eta_detector=(1.0, 1.0, 1.0)):
    """Registered-cell probabilities after detector-efficiency thinning."""
    eo = np.asarray(eta_outcome, dtype=float)
    ed = np.asarray(eta_detector, dtype=float)
    return np.asarray(cells) * eo[None, :, None] * ed[None, None, :]


def sample_bench_trials(
    theta: float,
    transmittance: float,
    trials: int,
    rng: np.random.Generator,
    phase_sigma: float = 0.0,
    visibility: float = 1.0,
    imbalance: float = 0.0,
    eta_outcome=(1.0, 1.0),
    eta_detector=(1.0, 1.0, 1.0),
    feed_forward: bool = True,
) -> np.ndarray:
    """Registered counts of the bench, sampled trial by trial.

    One numpy pass over all trials: uniforms pick the device (equal priors)
    and its outcome, replace the collapsed held qubit by a random impostor
    |0> or |1> with probability 1 - visibility, swap its amplitudes on
    outcome 0 when feed_forward is on, fail the filter with probability
    (1 - T) a^2, draw a Gaussian phase for the interference, pick the
    port, and thin by the outcome-side times the answer-side efficiency.
    Returns the (2, 2, 3) counts indexed (device, outcome, detector) with
    detectors (dark, bright, inconclusive).
    """
    u = rng.random((trials, 9))
    sq_t = math.sqrt(transmittance)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    a_base = np.array([[sin_t, cos_t], [sin_t, cos_t]])
    b_base = np.array([[-cos_t, sin_t], [cos_t, -sin_t]])
    split = 0.5 + imbalance
    cross = 2.0 * math.sqrt(split * (1.0 - split))
    device = (u[:, 0] >= 0.5).astype(np.int64)
    outcome = (u[:, 1] >= 0.5).astype(np.int64)
    a = a_base[device, outcome]
    b = b_base[device, outcome]
    mixed = u[:, 2] >= visibility
    a_mixed = np.where(u[:, 3] < 0.5, 1.0, 0.0)
    a = np.where(mixed, a_mixed, a)
    b = np.where(mixed, 1.0 - a_mixed, b)
    if feed_forward:
        sw = outcome == 0
        a, b = np.where(sw, b, a), np.where(sw, a, b)
    fail = u[:, 4] < (1.0 - transmittance) * a * a
    a_pass = sq_t * a
    norm = np.sqrt(a_pass * a_pass + b * b)
    norm = np.where(norm > 0.0, norm, 1.0)
    a_out = a_pass / norm
    b_out = b / norm
    chi = (
        phase_sigma
        * np.sqrt(-2.0 * np.log1p(-u[:, 5]))
        * np.cos(2.0 * math.pi * u[:, 6])
    )
    p_bright = (
        split * a_out * a_out
        + (1.0 - split) * b_out * b_out
        + cross * a_out * b_out * np.cos(chi)
    )
    p_bright = np.clip(p_bright, 0.0, 1.0)
    p_bright = np.where(p_bright < 1e-24, 0.0, p_bright)
    p_bright = np.where(p_bright > 1.0 - 1e-24, 1.0, p_bright)
    detector = np.where(fail, 2, np.where(u[:, 7] < p_bright, 1, 0))
    eta = np.asarray(eta_outcome)[outcome] * np.asarray(eta_detector)[detector]
    cells = (device * 6 + outcome * 3 + detector)[u[:, 8] < eta]
    return np.bincount(cells, minlength=12).reshape(2, 2, 3)


def random_tester(rng: np.random.Generator):
    """A random valid tester: blocks sum to rho (x) identity, rho random.

    Draws a random state rho and, for each remote outcome, an independent
    random three-outcome measurement, then sandwiches it with sqrt(rho).
    Returns ({(k, i): H} for k in "mni", rho); all blocks are symmetric
    and positive semidefinite by construction.
    """
    w = rng.normal(size=(2, 2))
    rho = w @ w.T + 0.1 * np.eye(2)
    rho = rho / np.trace(rho)
    evals, evecs = np.linalg.eigh(rho)
    s = evecs @ np.diag(np.sqrt(np.clip(evals, 0.0, None))) @ evecs.T
    blocks = {}
    for i in (0, 1):
        raw = [rng.normal(size=(2, 2)) for _ in range(3)]
        raw = [r @ r.T + 1e-6 * np.eye(2) for r in raw]
        g = raw[0] + raw[1] + raw[2]
        ge, gv = np.linalg.eigh(g)
        g_isqrt = gv @ np.diag(1.0 / np.sqrt(ge)) @ gv.T
        for k, label in enumerate("mni"):
            element = g_isqrt @ raw[k] @ g_isqrt
            blocks[(label, i)] = s @ element @ s
    return blocks, rho


def stress_sweep() -> list[tuple[float, float]]:
    """The seed-7 (θ, P_I) sweep of the tester search, 45 010 points.

    θ: 6 000 from U[0, π/4], 1 500 from 10^U(−16, −1), 1 500 from
    π/4 − 10^U(−16, −1), then 0 and π/4. At each θ, with c = cos 2θ, P_I
    takes 0, c, U(0, c), c·U(0.999999, 1) and c·10^U(−12, −1), the last
    three drawn in that order, θ by θ, after all the angles.
    """
    rng = np.random.default_rng(7)
    quarter = math.pi / 4.0
    thetas = np.concatenate([
        rng.uniform(0.0, quarter, 6000),
        10.0 ** rng.uniform(-16.0, -1.0, 1500),
        quarter - 10.0 ** rng.uniform(-16.0, -1.0, 1500),
        [0.0, quarter],
    ]).tolist()
    points = []
    for theta in thetas:
        c = math.cos(2.0 * theta)
        inner = rng.uniform(0.0, c)
        near = c * rng.uniform(0.999999, 1.0)
        tiny = c * 10.0 ** rng.uniform(-12.0, -1.0)
        points += [(theta, p) for p in (0.0, c, inner, near, tiny)]
    return points


def single_qubit_dual(theta, lam):
    """h(λ) = max over deterministic rules of max over probes of P_S + λ P_I.

    A single-qubit protocol sends a probe with Bloch vector r, ‖r‖ ≤ 1,
    through M or N (outcome-0 Bloch axes a = (sin 2θ, cos 2θ) and
    b = (−sin 2θ, cos 2θ) in the x–z plane) and maps outcome k ∈ {0, 1}
    to an answer M, N or inconclusive. With P(k) = (1 ± axis·r)/2, a
    deterministic rule gives P_S + λ P_I = α + β·r, whose maximum over the
    ball is α + ‖β‖; randomized rules and mixed protocols are mixtures, so
    h(λ) − λ P_I bounds P_S at every P_I (weak duality). Arrays broadcast.
    """
    theta, lam = np.broadcast_arrays(np.asarray(theta, float), np.asarray(lam, float))
    s, c = np.sin(2.0 * theta), np.cos(2.0 * theta)
    # answer: (weight in α, Bloch vector in β) for M, N and inconclusive
    answers = ((1.0, (s, c)), (1.0, (-s, c)), (2.0 * lam, (0.0 * s, 2.0 * lam * c)))
    best = np.full(theta.shape, -np.inf)
    for w0, (x0, z0) in answers:
        for w1, (x1, z1) in answers:
            # outcome 0 adds +axis·r, outcome 1 adds −axis·r
            norm = np.hypot(x0 - x1, z0 - z1)
            best = np.maximum(best, 0.25 * (w0 + w1 + norm))
    return best


def single_qubit_bound(theta, p_inc, pit, ps_pit):
    """h(λ) − λ P_I at λ = −dP_S/dP_I of the optimal single-qubit curve.

    Any λ gives a bound; at the curve's own slope it is tight. The caller
    supplies the tangent budget P_IT and the success there, NaN where the
    hull degenerates (c ≈ 0) to the line P_S = 1 − P_I of slope −1. Below
    P_IT the curve is the chord from (0, ½(1 + sin 2θ)); from P_IT on it is
    the arc ½(1 − P_I) + ¼ sin 2θ √(1 − R²) with R = (1 − 2P_I)/cos 2θ.
    """
    theta, p_inc = np.broadcast_arrays(np.asarray(theta, float), np.asarray(p_inc, float))
    s, c = np.sin(2.0 * theta), np.cos(2.0 * theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        chord = (0.5 * (1.0 + s) - ps_pit) / pit
        r = (1.0 - 2.0 * p_inc) / c
        # at c = 1 the arc is the line ½(1 − P_I): its 0/0 term is 0
        arc = 0.5 - np.nan_to_num(s * r / (2.0 * c * np.sqrt(1.0 - r * r)))
    # −dP_S/dP_I lies in [0, 1]; the clip absorbs the rounding of 1 − 2P_I
    # relative to c² at the arc's far end
    lam = np.clip(np.where(np.isnan(pit), 1.0, np.where(p_inc <= pit, chord, arc)), 0.0, 1.0)
    return single_qubit_dual(theta, lam) - lam * p_inc
