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


def test_hull_budgets_are_ordered_in_floats():
    """P_IB ≤ P_IT ≤ (1 + c²)/2 at every overlap, not just in exact arithmetic.

    At small c all three budgets lie within ulps of 1/2, where rounding
    alone would decide their order.
    """
    c = np.concatenate([
        np.geomspace(1e-12, 1.0, 300_000),
        np.random.default_rng(21).uniform(0.0, 1.0, 300_000),
    ])
    pib, pit, top = strategies._pib(c), strategies._pit(c), strategies._p_top(c)
    assert np.count_nonzero(pit < pib) == 0
    assert np.count_nonzero(pit > top) == 0
    assert np.count_nonzero(pib > top) == 0


def test_hull_budget_gaps_match_the_closed_forms():
    """The gap forms that _pib and _pit subtract from (1 + c²)/2 equal the
    direct closed forms to 40 significant digits, down to c = 1e-12, and the
    float budgets lie within 2 ulps of those values."""
    import mpmath as mp

    c = np.concatenate([np.geomspace(1e-12, 1.0, 25), np.linspace(0.05, 0.95, 10)])
    pib, pit = strategies._pib(c), strategies._pit(c)
    with mp.workdps(100):
        for k, ck in enumerate(c.tolist()):
            x2 = mp.mpf(ck) ** 2
            top = (1 + x2) / 2
            exact_pib = (3 + mp.sqrt(1 + 8 * x2)) / 8
            exact_pit = (1 + 3 * x2 + 2 * x2 * mp.sqrt(1 + 3 * x2)) / (2 * (1 + 4 * x2))
            gap_b = 2 * x2 * x2 / (1 + 4 * x2 + mp.sqrt(1 + 8 * x2))
            gap_t = x2 * x2 / (1 + 2 * x2 + mp.sqrt(1 + 3 * x2))
            assert abs(top - exact_pib - gap_b) <= mp.mpf(10) ** -40 * gap_b
            assert abs(top - exact_pit - gap_t) <= mp.mpf(10) ** -40 * gap_t
            assert gap_b >= gap_t
            assert abs(pib[k] - float(exact_pib)) <= 2.0 * np.spacing(pib[k])
            assert abs(pit[k] - float(exact_pit)) <= 2.0 * np.spacing(pit[k])


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
    "curve", [entangled_success, single_optimal, single_pure_curve_array, advantage]
)
def test_negative_budget_is_named_as_below_zero(curve):
    # the lower end is named, not the upper one the budget stays below
    with pytest.raises(DomainError, match="budget is below 0") as caught:
        curve(0.3, -0.5)
    assert "exceeds" not in str(caught.value)
    assert curve(0.3, -1e-13) == curve(0.3, 0.0)


def test_checked_overlaps_are_clamped():
    # within TOL of [0, 1] an overlap counts as its end
    assert boundary_PIB(-1e-13) == boundary_PIB(0.0)
    assert boundary_PIB(1.0 + 1e-13) == boundary_PIB(1.0) == 0.75
    assert tangent_PIT(1.0 + 1e-13) == tangent_PIT(1.0) == 0.8
    for c in (0.0, -1e-13):
        with pytest.raises(DomainError, match="tangent point undefined"):
            tangent_PIT(c)
    assert hull_verify(1.0 + 1e-13, 100, 0).c == 1.0


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


# --- a dual certificate for the single-qubit optimum ---


def single_dual_bound(theta, p_inc):
    """oracles.single_qubit_bound at the optimal curve's own slope."""
    theta, p_inc = np.broadcast_arrays(np.asarray(theta, float), np.asarray(p_inc, float))
    c = np.cos(2.0 * theta)
    live = c >= strategies.DEGENERATE_C
    pit = np.where(live, tangent_PIT(np.maximum(c, strategies.DEGENERATE_C)), np.nan)
    ps_pit = single_optimal_array(theta, np.where(live, pit, 0.0)).p_success
    return oracles.single_qubit_bound(theta, p_inc, pit, ps_pit)


def single_dual_rows():
    """A seeded pool of (θ, P_I) rows, and edge rows: c below DEGENERATE_C,
    and P_I = 0, P_IT and (1 + c²)/2 over overlaps from 1e-12 to 1 (half of
    (1 + c²)/2 in place of P_IT, which is undefined below DEGENERATE_C)."""
    rng = np.random.default_rng(4)
    quarter = math.pi / 4.0
    theta = np.concatenate([
        rng.uniform(0.0, quarter, 200_000),
        10.0 ** rng.uniform(-8.0, -1.0, 50_000),
        quarter - 10.0 ** rng.uniform(-8.0, -1.0, 50_000),
    ])
    pool = (theta, rng.uniform(0.0, 1.0, theta.size) * 0.5 * (1.0 + np.cos(2.0 * theta) ** 2))
    c = np.concatenate([[0.0, 2e-13, 9e-13], 10.0 ** rng.uniform(-12.0, 0.0, 3000)])
    edge_theta = 0.5 * np.arccos(c)
    c = np.cos(2.0 * edge_theta)
    live = c >= strategies.DEGENERATE_C
    top = 0.5 * (1.0 + c * c)
    pit = np.where(live, tangent_PIT(np.maximum(c, strategies.DEGENERATE_C)), 0.5 * top)
    edges = (np.tile(edge_theta, 3), np.concatenate([np.zeros_like(c), pit, top]))
    return pool, edges


def test_single_qubit_dual_meets_the_optimal_curve():
    # weak duality makes h(λ) − λP_I a bound at every λ; at the curve's own
    # slope it meets the closed form, which nothing in h knows
    pool, edges = single_dual_rows()
    assert np.any(np.cos(2.0 * edges[0]) < strategies.DEGENERATE_C)
    for (theta, p_inc), above in ((pool, 1e-15), (edges, 1e-12)):
        excess = single_dual_bound(theta, p_inc) - single_optimal_array(theta, p_inc).p_success
        assert excess.min() >= -4.5e-16
        assert excess.max() <= above


def test_closed_form_dual_matches_the_nine_rules():
    # the three-term h of `hull_verify` against the maximum over every
    # deterministic rule, with both ends of θ and λ crossed
    rng = np.random.default_rng(33)
    theta = np.concatenate([rng.uniform(0.0, math.pi / 4.0, 200_000), [0.0, math.pi / 4.0] * 2])
    lam = np.concatenate([rng.uniform(0.0, 1.0, 200_000), [0.0, 0.0, 1.0, 1.0]])
    closed = strategies._dual(np.sin(2.0 * theta), np.cos(2.0 * theta), lam)
    assert np.abs(closed - oracles.single_qubit_dual(theta, lam)).max() <= 4.5e-16


@pytest.mark.parametrize(
    "c", [0.0, 2e-13, 1e-6, 1e-3, 0.05, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-13, 1.0]
)
def test_hull_verify_certifies_the_optimum_at_every_overlap(c):
    for seed in range(4):
        report = hull_verify(c, 10_000, seed)
        assert report.certificate_gap <= 1e-12
        assert report.sample_excess <= 1e-12


@pytest.mark.parametrize("c", [0.0, 0.3, 0.5, 0.7, 0.9, 1.0])
def test_no_sampled_protocol_beats_the_single_qubit_dual(c):
    report = hull_verify(c, 10_000, seed=5)
    p_inc, p_success = report.points.T
    theta = 0.5 * math.acos(c)
    assert np.all(p_success <= single_dual_bound(theta, p_inc) + 1e-15)


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


def sampled_hull(report):
    """The vertices of a generic upper hull of the report's samples."""
    return report.points[oracles.upper_hull_chain(report.points)]


def test_hull_verify_report():
    report = hull_verify(0.5, 2000, seed=4)
    assert not report.degenerate
    assert report.certificate_gap <= 1e-12
    assert report.sample_excess <= 1e-12
    assert report.point_a[0] == 0.0
    assert report.point_a[1] == pytest.approx(
        helstrom_point(theta_for_overlap(0.5)).p_success, abs=1e-15
    )
    assert report.point_u == (pytest.approx(0.625), pytest.approx(0.375))
    assert report.point_t[0] == pytest.approx(FROZEN["pit_c05"], abs=1e-12)
    # a hull of the samples has strictly increasing budgets from the anchor,
    # lies on the closed form and turns at the tangency
    vertices = sampled_hull(report)
    assert vertices[0][0] == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.diff(vertices[:, 0]) > 0)
    closed = single_optimal_array(theta_for_overlap(0.5), vertices[:, 0]).p_success
    assert np.abs(vertices[:, 1] - closed).max() <= 1e-6
    assert abs(vertices[1][0] - report.point_t[0]) <= 1e-6


def test_hull_verify_matches_generic_convex_hull():
    report = hull_verify(0.7, 3000, seed=2)
    query = np.linspace(0.0, 0.5 * (1.0 + 0.49) - 1e-9, 250)
    scipy_heights = oracles.upper_hull_interp(
        report.points[:, 0], report.points[:, 1], query
    )
    vertices = sampled_hull(report)
    chain_heights = np.interp(query, vertices[:, 0], vertices[:, 1])
    np.testing.assert_allclose(chain_heights, scipy_heights, atol=1e-12)
    closed = single_optimal_array(theta_for_overlap(0.7), query).p_success
    assert np.all(scipy_heights <= closed + 1e-12)
    assert np.abs(scipy_heights - closed).max() <= 1e-6


def test_hull_verify_degenerate_overlaps():
    for c in (0.0, 1.0):
        report = hull_verify(c, 500, seed=0)
        assert report.degenerate
        assert report.point_t is None
        assert report.certificate_gap <= 1e-12
        assert report.sample_excess <= 1e-12
        vertices = sampled_hull(report)
        closed = single_optimal_array(theta_for_overlap(c), vertices[:, 0]).p_success
        assert np.abs(vertices[:, 1] - closed).max() <= 1e-9
    with pytest.raises(DomainError, match="at least 100 samples"):
        hull_verify(0.5, 50, seed=0)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("c", [0.05, 0.3, 0.5, 0.7, 0.9, 0.999])
def test_hull_verify_reads_the_tangent_point_off_its_grid(c, seed):
    n = 1000
    report = hull_verify(c, n, seed)
    theta, pib, pit = theta_for_overlap(c), boundary_PIB(c), tangent_PIT(c)
    assert report.point_t[0] == pit
    expected = single_pure_curve(theta, pit)[0].p_success
    assert np.float64(report.point_t[1]).tobytes() == np.float64(expected).tobytes()
    # the on-curve grid comes first: the linspace plus both budgets, sorted,
    # without repeats, each row on the pure curve
    grid = sorted(set(np.linspace(0.0, 0.5 * (1.0 + c * c), n // 2 - 2)) | {pib, pit})
    rows = report.points[: len(grid)]
    assert rows[:, 0].tolist() == grid
    assert np.all(np.diff(rows[:, 0]) > 0.0)
    assert pib in rows[:, 0] and pit in rows[:, 0]
    curve = single_pure_curve_array(theta, np.array(grid)).p_success
    assert rows[:, 1].tobytes() == curve.tobytes()


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

    y = _cubic.least_root(c, p)
    x = y / c
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



@pytest.mark.parametrize("n", [0, 1, 2, 127, 5000])
def test_least_root_keeps_its_bits(n):
    # The monic y-form gives the bits of the normalized six-coefficient
    # solver, so y_root and the analytic curvature keep theirs.
    rng = np.random.default_rng(70 + n)
    for pool in (1, 3, n):  # one, a few and all-distinct overlaps
        c = rng.uniform(0.0, 1.0, max(pool, 1))[rng.integers(0, max(pool, 1), n)]
        p = rng.uniform(0.0, 1.0, n) * boundary_PIB(c)
        p[: n // 10] = 0.0
        root = _cubic.least_root(c, p)
        assert root.shape == (n,)
        reference = oracles.trig_least_root(1.0, -2.0, 1.0 - p, p * c * c, -c, c * c)
        assert root.tobytes() == reference.tobytes(), pool


def test_least_root_matches_40_digits():
    # y and the probe x = y/c against mpmath, on seeded rows and on rows
    # with c near 0 and 1, at P_I = 0, a tiny P_I and just below boundary_PIB.
    import mpmath as mp

    rng = np.random.default_rng(24)
    c = rng.uniform(0.0, 1.0, 200)
    p = rng.uniform(0.0, 1.0, 200) * boundary_PIB(c)
    edge_c = np.repeat([1e-12, 1e-8, 1e-3, 0.5, 1.0 - 1e-3, 1.0 - 1e-8, 1.0 - 1e-12], 4)
    pib = boundary_PIB(edge_c)
    edge_p = np.tile([0.0, 1e-300, 0.0, 0.0], len(edge_c) // 4)
    edge_p[2::4] = np.nextafter(pib[2::4], 0.0)
    edge_p[3::4] = pib[3::4] * (1.0 - 1e-12)
    c, p = np.append(c, edge_c), np.append(p, edge_p)
    y = _cubic.least_root(c, p)
    x = y / c
    eps = np.finfo(float).eps
    with mp.workdps(40):
        for k in range(len(c)):
            exact = oracles.mp_least_root(float(c[k]), float(p[k]))
            assert abs(y[k] - exact) <= eps * c[k], (c[k], p[k])
            assert abs(x[k] - exact / mp.mpf(float(c[k]))) <= eps, (c[k], p[k])


def optimal_bit_cases() -> tuple[np.ndarray, np.ndarray]:
    """Angles and budgets for the one-pass optimal curve.

    Seeded random angles, overlaps from 1e-12 to 1e-3 and from 1 - 1e-2 to
    1 - 1e-12 (where boundary_PIB, tangent_PIT and (1 + c^2)/2 lie within
    ulps of each other near c = 0), each at budget 0, boundary_PIB,
    tangent_PIT, (1 + c^2)/2 and a seeded random budget.
    """
    rng = np.random.default_rng(31)
    c = np.concatenate([
        np.cos(2.0 * rng.uniform(0.0, math.pi / 4.0, 300)),
        np.geomspace(1e-12, 1e-3, 150),
        1.0 - np.geomspace(1e-2, 1e-12, 150),
    ])
    theta = 0.5 * np.arccos(c)
    c = np.cos(2.0 * theta)
    p_top = 0.5 * (1.0 + c * c)
    live = np.maximum(c, strategies.DEGENERATE_C)
    budgets = (
        np.zeros_like(c),
        np.minimum(boundary_PIB(live), p_top),
        np.minimum(tangent_PIT(live), p_top),
        p_top,
        rng.uniform(0.0, 1.0, len(c)) * p_top,
    )
    return np.tile(theta, len(budgets)), np.concatenate(budgets)


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def test_one_pass_optimal_curve_keeps_its_bits():
    theta, p = optimal_bit_cases()
    samples = single_optimal_array(theta, p)
    c, p = np.cos(2.0 * theta), samples.p_inc
    ps, w_t, x, q = oracles.two_pass_optimal(strategies._pure_kernel, theta, c, p)
    assert np.isfinite(w_t).any() and np.isnan(w_t).any()
    assert_same_bits(samples.p_success, ps)
    assert_same_bits(samples.w_tangent, w_t)
    for k in range(0, len(p), 3):
        point, strat = single_optimal(theta[k], p[k])
        expected = StrategyPoint(ps[k], 1.0 - ps[k] - p[k], p[k])
        assert_same_bits(
            (point.p_success, point.p_error, point.p_inconclusive),
            (expected.p_success, expected.p_error, expected.p_inconclusive),
        )
        if np.isnan(w_t[k]):
            assert strat.mixture is None
            assert_same_bits((strat.x, strat.q), (x[k], q[k]))
        else:
            (w_a, anchor), (w, tangent) = strat.mixture
            assert (anchor.x, anchor.q) == (0.0, 1.0)
            assert_same_bits((w_a, w, tangent.x, tangent.q), (1.0 - w_t[k], w_t[k], x[k], q[k]))
    # advantage, at budgets inside the entangled domain [0, c]
    p_ent = np.minimum(p, c)
    ps_ent = oracles.two_pass_optimal(strategies._pure_kernel, theta, c, p_ent)[0]
    for k in range(0, len(p), 3):
        ent = entangled_success(theta[k], p_ent[k]).p_success
        single = StrategyPoint(ps_ent[k], 1.0 - ps_ent[k] - p_ent[k], p_ent[k]).p_success
        assert_same_bits(advantage(theta[k], p_ent[k]), ent - single)


def test_one_pass_optimal_curve_keeps_its_bits_when_broadcast():
    rng = np.random.default_rng(32)
    theta = rng.uniform(0.0, math.pi / 4.0, (50, 1))
    p = rng.uniform(0.0, 0.5, (1, 40))
    samples = single_optimal_array(theta, p)
    assert samples.p_success.shape == samples.w_tangent.shape == (50, 40)
    flat_theta, flat_p = (a.ravel() for a in np.broadcast_arrays(theta, p))
    ps, w_t, _, _ = oracles.two_pass_optimal(
        strategies._pure_kernel, flat_theta, np.cos(2.0 * flat_theta), flat_p
    )
    assert_same_bits(samples.p_success, ps.reshape(50, 40))
    assert_same_bits(samples.w_tangent, w_t.reshape(50, 40))


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
    least = _cubic.least_root(np.array([c]), np.array([p])) / c
    assert least[0] == pytest.approx(x_opt, abs=1e-14)

    point, strat = single_pure_curve(theta_for_overlap(c), p)
    assert strat.x == pytest.approx(x_opt, abs=1e-14)
    nearby = np.array([x_opt - 1e-7, x_opt + 1e-7])
    neighbours = strategies._pure_probe_success(c, p, nearby)
    assert np.all(np.abs(neighbours - point.p_success) < strategies.TOL)
    assert np.all(neighbours <= point.p_success)
