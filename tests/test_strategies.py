"""Closed-form success curves, the single-qubit hull, and their cross-checks."""

import math

import numpy as np
import pytest

from measdiscrim import (
    DomainError,
    StrategyPoint,
    ValidationError,
    advantage,
    boundary_PIB,
    concave_branch,
    entangled_success,
    entangled_success_array,
    helstrom_point,
    hull_verify,
    relative_success,
    single_optimal,
    single_optimal_array,
    single_pure_curve,
    single_pure_curve_array,
    tangent_PIT,
    unambiguous_points,
)
from measdiscrim import _cubic, strategies
from measdiscrim.strategies import (
    SingleQubitStrategy,
    default_pi_grid,
    q_strategy_points,
)

import oracles
from oracles import FROZEN

THETA_GRID = [j * math.pi / 30.0 for j in range(1, 8)]


def theta_for_overlap(c: float) -> float:
    return 0.5 * math.acos(c)


# --- entangled filter curve ---


def test_entangled_curve_frozen_point():
    point = entangled_success(math.pi / 6.0, 0.3)
    assert point.p_success == pytest.approx(FROZEN["ps_entangled_pi6_p03"], abs=1e-15)
    assert point.p_inconclusive == pytest.approx(0.3, abs=1e-15)
    assert relative_success(point) == pytest.approx(
        FROZEN["rel_success_pi6_p03"], abs=1e-15
    )


def test_entangled_curve_starts_at_minimum_error():
    for theta in THETA_GRID:
        start = entangled_success(theta, 0.0)
        hel = helstrom_point(theta)
        assert start.p_success == pytest.approx(hel.p_success, abs=1e-15)
        assert hel.p_success == pytest.approx(
            0.5 * (1.0 + math.sin(2.0 * theta)), abs=1e-15
        )
    assert helstrom_point(math.pi / 6.0).p_success == pytest.approx(
        FROZEN["helstrom_pi6"], abs=1e-15
    )


@pytest.mark.parametrize("theta", THETA_GRID)
def test_entangled_curve_ends_unambiguously(theta):
    c = math.cos(2.0 * theta)
    end = entangled_success(theta, c)
    assert end.p_success == pytest.approx(2.0 * math.sin(theta) ** 2, abs=1e-12)
    assert end.p_error == pytest.approx(0.0, abs=1e-12)
    assert end.p_inconclusive == pytest.approx(c, abs=1e-12)


def test_entangled_curve_rejects_overspent_budget():
    with pytest.raises(DomainError, match="exceeds IDP point"):
        entangled_success(math.pi / 6.0, 0.51)


@pytest.mark.parametrize("theta", THETA_GRID)
def test_entangled_success_decreases_and_relative_success_increases(theta):
    c = math.cos(2.0 * theta)
    budgets = np.linspace(0.0, c, 40)
    points = [entangled_success(theta, float(p)) for p in budgets]
    ps = [pt.p_success for pt in points]
    rel = [relative_success(pt) for pt in points]
    assert all(a > b - 1e-15 for a, b in zip(ps, ps[1:]))
    assert all(b > a - 1e-15 for a, b in zip(rel, rel[1:]))


def test_relative_success_undefined_when_everything_is_discarded():
    with pytest.raises(DomainError, match="relative success undefined"):
        relative_success(StrategyPoint(0.0, 0.0, 1.0))


# --- single-qubit pure curve ---


def test_pure_curve_frozen_point():
    point, strat = single_pure_curve(theta_for_overlap(0.5), 0.3)
    assert point.p_success == pytest.approx(FROZEN["ps_pure_c05_p03"], abs=1e-14)
    assert strat.x == pytest.approx(FROZEN["x_opt_c05_p03"], abs=1e-14)
    assert strat.q == pytest.approx(FROZEN["q_c05_p03"], abs=1e-14)
    assert strat.probe_angle == pytest.approx(
        0.5 * math.acos(FROZEN["x_opt_c05_p03"]), abs=1e-14
    )


def test_branch_boundary_frozen_values():
    assert boundary_PIB(0.5) == pytest.approx(FROZEN["pib_c05"], abs=1e-15)
    assert boundary_PIB(0.9) == pytest.approx(FROZEN["pib_c09"], abs=1e-15)
    assert boundary_PIB(1.0) == pytest.approx(FROZEN["pib_c10"], abs=1e-15)
    assert tangent_PIT(0.5) == pytest.approx(FROZEN["pit_c05"], abs=1e-15)
    assert tangent_PIT(0.9) == pytest.approx(FROZEN["pit_c09"], abs=1e-15)
    assert tangent_PIT(1.0) == pytest.approx(FROZEN["pit_c10"], abs=1e-15)
    with pytest.raises(DomainError, match="tangent point undefined"):
        tangent_PIT(0.0)


def test_tangent_point_invariant_survives_optimization(monkeypatch):
    # The check is an explicit raise, so `python -O` keeps it.
    monkeypatch.setattr(strategies, "_pib", lambda c: 1.0)
    with pytest.raises(ValidationError, match="below the q = 0 boundary"):
        tangent_PIT(0.5)


def test_tangent_point_frozen_success():
    point, strat = single_pure_curve(theta_for_overlap(0.5), FROZEN["pit_c05"])
    assert point.p_success == pytest.approx(FROZEN["ps_tangent_c05"], abs=1e-14)
    assert strat.q == 0.0


@pytest.mark.parametrize("theta", THETA_GRID)
def test_pure_curve_satisfies_the_cubic(theta):
    c = math.cos(2.0 * theta)
    pib = boundary_PIB(c)
    for p in np.arange(0.01, pib - 1e-9, 0.01):
        point, strat = single_pure_curve(theta, float(p))
        x = strat.x
        residual = c * c * x**3 - 2.0 * c * x**2 + (1.0 - p) * x + p * c
        assert abs(residual) <= 1e-10
        assert 0.0 <= strat.q <= 1.0
        # the root agrees with an independent companion-matrix solve
        roots = oracles.conclusive_cubic_roots(c, float(p))
        assert min(abs(x - r) for r in roots) <= 1e-8
        oracle_best = oracles.best_pure_probe(c, float(p))
        assert point.p_success == pytest.approx(oracle_best[0], abs=1e-12)


@pytest.mark.parametrize("c", [0.3, 0.5, 0.7, 0.9])
def test_pure_curve_is_continuous_at_the_branch_boundary(c):
    theta = theta_for_overlap(c)
    pib = boundary_PIB(c)
    eps = 1e-9
    below = single_pure_curve(theta, pib - eps)[0].p_success
    at = single_pure_curve(theta, pib)[0].p_success
    assert abs(below - at) <= 1e-8
    # the boundary point itself sits on the q = 0 arc
    assert at == pytest.approx(concave_branch(theta, pib).p_success, abs=1e-12)


def test_pure_curve_degenerate_overlap_is_a_line():
    point, strat = single_pure_curve(math.pi / 4.0, 0.3)
    assert point.p_success == pytest.approx(0.7, abs=1e-15)
    assert point.p_error == pytest.approx(0.0, abs=1e-15)
    assert strat.x == 0.0


def test_budget_beyond_unambiguous_endpoint_is_rejected():
    with pytest.raises(DomainError, match="unambiguous endpoint"):
        single_pure_curve(theta_for_overlap(0.5), 0.63)
    with pytest.raises(DomainError, match="unambiguous endpoint"):
        single_optimal(theta_for_overlap(0.5), 0.63)


@pytest.mark.parametrize(
    "curve", [entangled_success, single_optimal, single_pure_curve, concave_branch]
)
def test_nan_budget_is_named_as_not_a_number(curve):
    with pytest.raises(DomainError, match="budget is not a number"):
        curve(math.pi / 6.0, math.nan)


def test_concave_branch_frozen_values():
    assert concave_branch(theta_for_overlap(0.5), 0.5).p_success == pytest.approx(
        FROZEN["ps_concave_c05_p05"], abs=1e-14
    )
    assert concave_branch(theta_for_overlap(0.9), 0.7).p_success == pytest.approx(
        FROZEN["ps_concave_c09_p07"], abs=1e-14
    )
    with pytest.raises(DomainError, match="q = 0 arc undefined"):
        concave_branch(theta_for_overlap(0.5), 0.1)


# --- single-qubit hull ---


def test_hull_frozen_mixture():
    point, strat = single_optimal(theta_for_overlap(0.5), 0.3)
    assert point.p_success == pytest.approx(FROZEN["ps_opt_c05_p03"], abs=1e-14)
    assert strat.mixture is not None
    (w_a, comp_a), (w_t, comp_t) = strat.mixture
    assert w_a == pytest.approx(FROZEN["w_anchor_c05_p03"], abs=1e-14)
    assert w_t == pytest.approx(FROZEN["w_tangent_c05_p03"], abs=1e-14)
    # anchor component is the minimum-error protocol
    assert comp_a.x == 0.0
    assert comp_a.q == 1.0
    # tangent component sits on the q = 0 arc at the tangency budget
    assert comp_t.q == 0.0


def test_mixture_tangent_is_the_pure_curve_at_the_tangent_budget():
    # Near c = 0 the tangent budget can round an ulp past (1 + c^2)/2, where
    # the pure curve clamps it; the mixture's tangent protocol must match.
    for gap in (m * 10.0**-k for k in range(2, 13) for m in (1.0, 2.0, 3.0, 5.0, 7.0)):
        theta = math.pi / 4.0 - gap
        pit = tangent_PIT(float(np.cos(2.0 * theta)))
        tangent = single_optimal(theta, 0.5 * pit)[1].mixture[1][1]
        expected = single_pure_curve(theta, pit)[1]
        assert (tangent.x, tangent.q) == (expected.x, expected.q), gap


@pytest.mark.parametrize("c", [0.3, 0.5, 0.7, 0.9])
def test_hull_is_chord_then_arc(c):
    theta = theta_for_overlap(c)
    pit = tangent_PIT(c)
    p_max = 0.5 * (1.0 + c * c)
    # at and beyond the tangency the hull coincides with the pure curve
    for p in np.linspace(pit, p_max, 12):
        hull = single_optimal(theta, float(p))[0].p_success
        pure = single_pure_curve(theta, float(p))[0].p_success
        assert abs(hull - pure) <= 1e-12
    # before it the chord strictly dominates the pure curve
    for p in np.linspace(0.02, pit - 0.02, 12):
        hull = single_optimal(theta, float(p))[0].p_success
        pure = single_pure_curve(theta, float(p))[0].p_success
        assert hull >= pure - 1e-12
    mid = 0.5 * pit
    assert (
        single_optimal(theta, mid)[0].p_success
        > single_pure_curve(theta, mid)[0].p_success
    )


@pytest.mark.parametrize("c", [0.3, 0.5, 0.7, 0.9])
def test_hull_is_continuous_at_the_tangency(c):
    theta = theta_for_overlap(c)
    pit = tangent_PIT(c)
    eps = 1e-9
    below = single_optimal(theta, pit - eps)[0].p_success
    at = single_optimal(theta, pit)[0].p_success
    assert abs(below - at) <= 1e-8


def test_unambiguous_points_frozen():
    theta = theta_for_overlap(0.5)
    ent, single = unambiguous_points(theta)
    assert ent.p_success == pytest.approx(2.0 * math.sin(theta) ** 2, abs=1e-15)
    assert ent.p_inconclusive == pytest.approx(0.5, abs=1e-15)
    assert single.p_success == pytest.approx(FROZEN["u_ps_c05"], abs=1e-15)
    assert single.p_inconclusive == pytest.approx(FROZEN["u_pinc_c05"], abs=1e-15)
    # the single-qubit curve actually attains its endpoint
    end = single_pure_curve(theta, FROZEN["u_pinc_c05"])[0]
    assert end.p_success == pytest.approx(FROZEN["u_ps_c05"], abs=1e-12)
    assert end.p_error == pytest.approx(0.0, abs=1e-12)


# --- entangled advantage ---


def test_advantage_frozen_value():
    assert advantage(math.pi / 6.0, 0.3) == pytest.approx(
        FROZEN["advantage_pi6_p03"], abs=1e-14
    )


@pytest.mark.parametrize("theta", THETA_GRID)
def test_advantage_positive_for_positive_budget(theta):
    assert advantage(theta, 0.0) == pytest.approx(0.0, abs=1e-12)
    c = math.cos(2.0 * theta)
    for p in np.linspace(0.01, c, 15):
        assert advantage(theta, float(p)) > 0.0


# --- arbitrary (probe, q) protocols vs the hull ---


def test_q_strategy_points_match_the_four_relabelings():
    theta = math.pi / 7.0
    rng = np.random.default_rng(11)
    angles = rng.uniform(0.0, math.pi, 200)
    qs = rng.uniform(0.0, 1.0, 200)
    pi_v, ps_v = q_strategy_points(theta, angles, qs)
    c = math.cos(2.0 * theta)
    p_max = 0.5 * (1.0 + c * c)
    for k in range(len(angles)):
        candidates = oracles.relabeling_candidates(theta, angles[k], qs[k])
        gap = min(
            abs(ps_v[k] - ps) + abs(pi_v[k] - pi) for ps, _, pi in candidates
        )
        assert gap <= 1e-12
        # no relabeling beats the hull at its own budget
        for ps, _, pi in candidates:
            if pi <= p_max:
                ceiling = single_optimal(theta, float(pi))[0].p_success
                assert ps <= ceiling + 1e-12


def test_hull_verify_report():
    report = hull_verify(0.5, 2000, seed=4)
    assert not report.degenerate
    assert report.max_deviation <= 1e-6
    assert report.tangent_error <= 1e-6
    assert report.point_a[0] == 0.0
    assert report.point_a[1] == pytest.approx(
        helstrom_point(theta_for_overlap(0.5)).p_success, abs=1e-15
    )
    assert report.point_u == (pytest.approx(0.625), pytest.approx(0.375))
    assert report.point_t[0] == pytest.approx(FROZEN["pit_c05"], abs=1e-12)
    # vertices are strictly increasing in budget, starting at the anchor
    assert report.vertices[0][0] == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.diff(report.vertices[:, 0]) > 0)


def test_hull_verify_matches_generic_convex_hull():
    report = hull_verify(0.7, 3000, seed=2)
    query = np.linspace(0.0, 0.5 * (1.0 + 0.49) - 1e-9, 250)
    oracle_heights = oracles.upper_hull_interp(
        report.points[:, 0], report.points[:, 1], query
    )
    production_heights = np.interp(
        query, report.vertices[:, 0], report.vertices[:, 1]
    )
    np.testing.assert_allclose(production_heights, oracle_heights, atol=1e-12)


def test_hull_verify_degenerate_overlaps():
    for c in (0.0, 1.0):
        report = hull_verify(c, 500, seed=0)
        assert report.degenerate
        assert report.point_t is None
        assert report.max_deviation <= 1e-9
    with pytest.raises(DomainError, match="at least 100 samples"):
        hull_verify(0.5, 50, seed=0)


def hull_case(rng: np.random.Generator, kind: str, n: int) -> np.ndarray:
    """A seeded point set of one of the shapes the hull must handle."""
    x = rng.uniform(0.0, 1.0, n)
    if kind == "random":
        return np.column_stack([x, rng.uniform(0.0, 1.0, n)])
    if kind == "grid":
        # few grid levels: repeated budgets, duplicate points, collinear runs
        k = int(rng.integers(2, 40))
        return np.round(rng.uniform(0.0, 1.0, (n, 2)) * k) / k
    if kind == "arc":
        # most points on a concave arc, the rest below it
        drop = rng.uniform(0.0, 0.2, n) * (rng.uniform(size=n) < 0.3)
        return np.column_stack([x, np.sqrt(1.0 - (x - 0.5) ** 2) - drop])
    if kind == "line":
        # points on one line, so only rounding decides the hull's vertices;
        # scaled so that the chain keeps some of them
        scale = float(rng.choice([1.0, 10.0, 100.0, 1000.0]))
        a, b = rng.uniform(-1.0, 1.0, 2)
        return np.column_stack([x, a + b * x]) * scale
    # the samples hull_verify builds: an on-curve grid plus random protocols
    c = float(rng.uniform(0.05, 0.95))
    theta = theta_for_overlap(c)
    grid = np.linspace(0.0, 0.5 * (1.0 + c * c), n // 2 + 1)
    m = n - len(grid)
    pi_r, ps_r = q_strategy_points(
        theta, rng.uniform(0.0, math.pi / 2.0, m), rng.uniform(0.0, 1.0, m)
    )
    ps = np.concatenate([single_pure_curve_array(theta, grid).p_success, ps_r])
    return np.column_stack([np.concatenate([grid, pi_r]), ps])


HULL_KINDS = ("random", "grid", "arc", "line", "protocols")


def test_upper_hull_matches_the_plain_chain():
    # the coarse-hull prefilter must leave every vertex index unchanged
    rng = np.random.default_rng(2718)
    sizes = [1, 2, 3, 127, 128, 129]
    cases = [
        (HULL_KINDS[k % 5], sizes[k // 3 % 6] if k % 3 == 0 else None) for k in range(2000)
    ]
    cases += [(kind, 10_000) for kind in HULL_KINDS]
    for kind, n in cases:
        n = n if n is not None else int(rng.integers(4, 500))
        points = hull_case(rng, kind, n)
        expected = oracles.upper_hull_chain(points)
        assert strategies.upper_hull(points).tolist() == expected, (kind, n)


# --- small containers ---


def test_strategy_point_validation():
    with pytest.raises(ValidationError, match="outside"):
        StrategyPoint(1.2, -0.2, 0.0)
    with pytest.raises(ValidationError, match="sum to"):
        StrategyPoint(0.5, 0.1, 0.1)
    point = StrategyPoint(0.5 + 1e-13, 0.5 - 1e-13, 0.0)
    assert 0.0 <= point.p_success <= 1.0


def test_single_qubit_strategy_validation():
    with pytest.raises(ValidationError, match="needs probe_angle"):
        SingleQubitStrategy(probe_angle=None, x=None, q=None)
    with pytest.raises(ValidationError, match="cos"):
        SingleQubitStrategy(probe_angle=0.3, x=0.0, q=0.5)
    with pytest.raises(ValidationError, match="q outside"):
        SingleQubitStrategy(probe_angle=0.3, x=math.cos(0.6), q=1.5)
    with pytest.raises(ValidationError, match="weights must sum"):
        SingleQubitStrategy(
            probe_angle=None,
            x=None,
            q=None,
            mixture=((0.5, SingleQubitStrategy(0.3, math.cos(0.6), 0.5)),),
        )


def test_default_pi_grid_hits_both_endpoints():
    grid = default_pi_grid(0.5)
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(0.5, abs=1e-12)
    assert len(grid) == 51
    assert np.all(np.diff(grid) > 0)
    odd = default_pi_grid(0.505)
    assert odd[-1] == pytest.approx(0.505, abs=1e-12)


# --- array closed forms ---


def seeded_budgets(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Angles and budgets over the whole single-qubit domain.

    Includes the degenerate overlaps c = 0 and c = 1, budgets at zero
    (where the cubic has a double root) and budgets exactly at both
    characteristic points.
    """
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.0, 1.0, n)
    c[:3] = [0.0, 1e-13, 1.0]
    theta = 0.5 * np.arccos(c)
    c = np.cos(2.0 * theta)
    p = rng.uniform(0.0, 1.0, n) * 0.5 * (1.0 + c * c)
    p[3:40] = 0.0
    p[40:80] = boundary_PIB(c[40:80])
    p[80:120] = tangent_PIT(c[80:120])
    return theta, p


def test_array_curves_match_the_scalar_wrappers():
    theta, p = seeded_budgets(2000, seed=11)
    pure = single_pure_curve_array(theta, p)
    opt = single_optimal_array(theta, p)
    p_ent = np.minimum(p, np.cos(2.0 * theta))
    ent = entangled_success_array(theta, p_ent)
    for k in range(len(p)):
        point, strat = single_pure_curve(theta[k], p[k])
        assert (point.p_success, strat.x, strat.q) == (
            pure.p_success[k], pure.x[k], pure.q[k]
        )
        assert single_optimal(theta[k], p[k])[0].p_success == opt.p_success[k]
        assert entangled_success(theta[k], p_ent[k]).p_success == ent.p_success[k]


def test_array_pure_curve_matches_the_generic_root_finder():
    theta, p = seeded_budgets(2000, seed=12)
    c = np.cos(2.0 * theta)
    pure = single_pure_curve_array(theta, p)
    cubic_rows = np.flatnonzero((c > 1e-12) & (p < boundary_PIB(c)))
    assert len(cubic_rows) > 1000
    for k in cubic_rows:
        ps, x, q = oracles.best_pure_probe(float(c[k]), float(p[k]))
        assert pure.p_success[k] == pytest.approx(ps, abs=1e-12)
        assert pure.x[k] == pytest.approx(x, abs=1e-8)
        assert pure.q[k] == pytest.approx(min(max(q, 0.0), 1.0), abs=1e-8)


def test_array_curves_accept_broadcast_shapes():
    theta = np.array([[math.pi / 6.0], [math.pi / 8.0]])
    p = np.array([0.0, 0.1, 0.3])
    pure = single_pure_curve_array(theta, p)
    assert pure.p_success.shape == pure.x.shape == pure.q.shape == (2, 3)
    assert single_optimal_array(theta, p).p_success.shape == (2, 3)
    assert pure.p_success[0, 2] == pytest.approx(FROZEN["ps_pure_c05_p03"], abs=1e-14)
    with pytest.raises(DomainError, match="unambiguous endpoint"):
        single_pure_curve_array(math.pi / 6.0, [0.1, 0.7])
    with pytest.raises(DomainError, match="theta"):
        entangled_success_array([0.1, math.nan], 0.0)


@pytest.mark.parametrize(
    "curve", [entangled_success_array, single_pure_curve_array, single_optimal_array]
)
def test_array_curves_name_mismatched_shapes(curve):
    with pytest.raises(DomainError, match=r"budget shape \(2,\) .* angle shape \(3,\)"):
        curve(np.zeros(3), np.zeros(2))


def test_least_root_is_the_best_pure_probe():
    rng = np.random.default_rng(21)
    c = rng.uniform(0.0, 1.0, 2000)
    p = rng.uniform(0.0, 1.0, 2000) * boundary_PIB(c)
    # Edge rows: c within 1e-12 of 0 and of 1, each at P_I = 0, at the
    # least positive budget and at two budgets just below boundary_PIB.
    edge_c = np.repeat(
        [5e-13, 1e-12, 1.5e-12, 0.05, 0.5, 0.95, 1.0 - 1e-12, 1.0 - 5e-13], 4
    )
    pib = boundary_PIB(edge_c)
    edge_p = np.tile([0.0, 5e-324, 0.0, 0.0], len(edge_c) // 4)
    edge_p[2::4] = np.nextafter(pib[2::4], 0.0)
    edge_p[3::4] = pib[3::4] * (1.0 - 1e-12)
    c, p = np.append(c, edge_c), np.append(p, edge_p)

    y = _cubic.least_root(1.0, -2.0, 1.0 - p, p * c * c, -c, c * c)
    x = _cubic.least_root(c * c, -2.0 * c, 1.0 - p, p * c, -1.0, c)
    assert np.all((-c <= y) & (y <= c * c) & (-1.0 <= x) & (x <= c))
    assert np.all(x[p == 0.0] == 0.0) and np.all(y[p == 0.0] == 0.0)
    theta = 0.5 * np.arccos(c)
    curve_c = np.cos(2.0 * theta)
    curve = single_pure_curve_array(theta, p)
    assert np.all(curve.x[p == 0.0] == 0.0)
    assert np.all((-1.0 <= curve.x) & (curve.x <= np.maximum(curve_c, 0.0)))
    for k in range(len(c)):
        least = oracles.conclusive_cubic_roots(float(c[k]), float(p[k]))[0]
        assert abs(x[k] - least) <= 4e-15 and abs(y[k] - c[k] * least) <= 4e-15
        ps, _, _ = oracles.best_pure_probe(float(curve_c[k]), float(p[k]))
        assert abs(curve.p_success[k] - ps) <= 1e-15


def test_near_degenerate_rows_take_the_scalar_fallback():
    """Rows beside a degeneracy stay on the curve.

    At P_I = 0 the cubic is x (cx - 1)^2: the least root is 0 and the
    other two coincide at 1/c. Below DEGENERATE_C the overlap counts as
    zero and every row falls back to the line P_S = 1 - P_I, x = 0,
    q = 1 - 2 P_I, which the least root meets from above the cut.
    """
    c = np.linspace(0.05, 0.95, 19)
    theta = 0.5 * np.arccos(c)
    at_zero = single_pure_curve_array(theta, np.zeros_like(c))
    assert np.all(at_zero.x == 0.0)
    np.testing.assert_allclose(
        at_zero.p_success, 0.5 * (1.0 + np.sin(2.0 * theta)), atol=1e-15
    )

    p = np.array([0.0, 0.1, 0.3, 0.5])
    cut = strategies.DEGENERATE_C
    line = single_pure_curve_array(0.5 * math.acos(0.1 * cut), p)
    assert np.all(line.x == 0.0)
    assert np.array_equal(line.p_success, 1.0 - p)
    assert np.array_equal(line.q, 1.0 - 2.0 * p)
    beside = single_pure_curve_array(0.5 * math.acos(10.0 * cut), p)
    np.testing.assert_allclose(beside.p_success, 1.0 - p, atol=1e-10)
    np.testing.assert_allclose(beside.x, 0.0, atol=1e-10)

    theta, p = seeded_budgets(300, seed=13)
    c = np.cos(2.0 * theta)
    keep = (c > 1e-6) & (p < boundary_PIB(c))
    theta, p, c = theta[keep], p[keep], c[keep]
    curve = single_pure_curve_array(theta, p)
    for k in range(len(p)):
        ps, _, _ = oracles.best_pure_probe(float(c[k]), float(p[k]))
        assert curve.p_success[k] == pytest.approx(ps, abs=1e-12)


def test_best_root_rejects_inadmissible_roots_and_breaks_ties_upward():
    """The curve's root is the one admissible root, at the top of a flat tie.

    At c = 0.5, P_I = 0.3 the cubic's roots are x_opt ≈ -0.171, ≈ 1.171
    (|x| > 1 and q = 1 - 2 P_I/(1 - xc) < 0) and 3 (|x| > 1). Near x_opt
    the success is flat to well inside TOL, yet the curve returns x_opt
    itself, whose success is at least that of either neighbour.
    """
    c, p = 0.5, 0.3
    x_opt = FROZEN["x_opt_c05_p03"]
    low, mid, high = oracles.conclusive_cubic_roots(c, p)
    assert low == pytest.approx(x_opt, abs=1e-14)
    assert abs(mid) > 1.0 and 1.0 - 2.0 * p / (1.0 - mid * c) < 0.0
    assert abs(high) > 1.0
    least = _cubic.least_root(c * c, -2.0 * c, 1.0 - p, p * c, -1.0, c)
    assert least[0] == pytest.approx(x_opt, abs=1e-14)

    point, strat = single_pure_curve(theta_for_overlap(c), p)
    assert strat.x == pytest.approx(x_opt, abs=1e-14)
    nearby = np.array([x_opt - 1e-7, x_opt + 1e-7])
    neighbours = strategies._pure_probe_success(c, p, nearby)
    assert np.all(np.abs(neighbours - point.p_success) < strategies.TOL)
    assert np.all(neighbours <= point.p_success)
