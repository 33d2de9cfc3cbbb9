"""Process testers for the discrimination experiment and the POVM search."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import measdiscrim as md
from measdiscrim import (
    DomainError,
    ValidationError,
    entangled_success,
    helstrom_point,
    measurement_pair,
    single_optimal,
)
from measdiscrim import oracle as oracle_module
from measdiscrim.cli import main
from measdiscrim.oracle import BLOCK_TOL, _dual_bound

import oracles
from oracles import FROZEN, SIGMA_Y

EYE2 = np.eye(2)


def cone_matrix(cone):
    """The symmetric 2×2 matrix t 𝕀 + p₁ σ_z + p₂ σ_x of a cone triple."""
    t, u, v = cone
    return np.array([[t + u, v], [v, t - u]])


def protocol_point(theta: float, f: float):
    """The filter protocol's statistics, as a StrategyPoint for comparison."""
    blocks = oracles.protocol_tester_blocks(theta, f)
    return md.StrategyPoint(*oracles.tester_probabilities(blocks, measurement_pair(theta)))


# --- the filter protocol's tester against the closed-form curve ---


def test_full_transmission_tester_is_minimum_error():
    point = protocol_point(math.pi / 6.0, 1.0)
    assert point.p_success == pytest.approx(FROZEN["helstrom_pi6"], abs=1e-12)
    assert point.p_inconclusive == pytest.approx(0.0, abs=1e-12)


def test_tangent_filter_tester_is_unambiguous():
    theta = math.pi / 6.0
    point = protocol_point(theta, math.tan(theta))
    assert point.p_success == pytest.approx(2.0 * math.sin(theta) ** 2, abs=1e-12)
    assert point.p_error == pytest.approx(0.0, abs=1e-12)
    assert point.p_inconclusive == pytest.approx(math.cos(2.0 * theta), abs=1e-12)


@pytest.mark.parametrize("theta", [0.2, math.pi / 6.0, 0.6, 0.75])
def test_filter_tester_sweeps_the_entangled_curve(theta):
    f_floor = math.tan(theta)
    for s in (0.0, 0.25, 0.6, 1.0):
        f = f_floor + (1.0 - f_floor) * s
        p_inc = math.cos(theta) ** 2 * (1.0 - f * f)
        point = protocol_point(theta, f)
        closed = entangled_success(theta, p_inc)
        assert point.p_success == pytest.approx(closed.p_success, abs=1e-12)
        assert point.p_error == pytest.approx(closed.p_error, abs=1e-12)
        assert point.p_inconclusive == pytest.approx(closed.p_inconclusive, abs=1e-12)


def test_all_inconclusive_tester():
    zero = np.zeros((2, 2))
    blocks = {(k, i): zero for k in "mn" for i in (0, 1)}
    blocks.update({("i", 0): 0.5 * EYE2, ("i", 1): 0.5 * EYE2})
    ps, _, pi = oracles.tester_probabilities(blocks, measurement_pair(0.3))
    assert pi == pytest.approx(1.0, abs=1e-15)
    assert ps == pytest.approx(0.0, abs=1e-15)


def test_tester_must_sum_to_a_state():
    blocks = oracles.protocol_tester_blocks(0.4, 0.7)
    broken = dict(blocks)
    broken[("i", 0)] = blocks[("i", 0)] + 0.01 * EYE2
    with pytest.raises(ValueError, match="sum to rho"):
        oracles.tester_probabilities(broken, measurement_pair(0.4))


# --- symmetrization ---


def test_symmetrize_preserves_probabilities_for_random_testers():
    pair = measurement_pair(0.4)
    for seed in range(25):
        blocks, _ = oracles.random_tester(np.random.default_rng(seed))
        before = oracles.tester_probabilities(blocks, pair)
        after = oracles.tester_probabilities(oracles.symmetrize(blocks), pair)
        np.testing.assert_allclose(after, before, rtol=0.0, atol=1e-12)


def test_symmetrize_output_is_covariant_and_idempotent():
    blocks, _ = oracles.random_tester(np.random.default_rng(123))
    sym = oracles.symmetrize(blocks)
    for k in "mni":
        np.testing.assert_allclose(
            sym[(k, 1)], SIGMA_Y @ sym[(k, 0)] @ SIGMA_Y.T, atol=1e-12
        )
    again = oracles.symmetrize(sym)
    for key in sym:
        np.testing.assert_allclose(again[key], sym[key], atol=1e-14)


def test_full_and_reduced_probabilities_agree():
    # the production 2x2 reduction against the 4x4 traces, on the filter
    # protocol and on symmetrized random testers (both covariant)
    cases = [
        (theta, oracles.protocol_tester_blocks(theta, f))
        for theta, f in ((0.3, 0.8), (math.pi / 6.0, 0.9), (0.7, 0.95))
    ]
    rng = np.random.default_rng(7)
    cases += [
        (float(rng.uniform(0.0, math.pi / 4.0)), oracles.symmetrize(oracles.random_tester(rng)[0]))
        for _ in range(5)
    ]
    for theta, blocks in cases:
        pair = measurement_pair(theta)
        triple = md.PovmTriple(*(blocks[(k, 0)] for k in "mni"))
        reduced = md.reduced_probabilities(triple, pair)
        np.testing.assert_allclose(
            (reduced.p_success, reduced.p_error, reduced.p_inconclusive),
            oracles.tester_probabilities(blocks, pair),
            rtol=0.0,
            atol=1e-12,
        )


def test_reduced_probabilities_edge_testers():
    pair = measurement_pair(0.3)
    always_m = md.PovmTriple(
        h_m=0.5 * EYE2, h_n=np.zeros((2, 2)), h_i=np.zeros((2, 2))
    )
    point = md.reduced_probabilities(always_m, pair)
    assert point.p_success == pytest.approx(0.5, abs=1e-15)
    assert point.p_error == pytest.approx(0.5, abs=1e-15)
    all_inc = md.PovmTriple(
        h_m=np.zeros((2, 2)), h_n=np.zeros((2, 2)), h_i=0.5 * EYE2
    )
    assert md.reduced_probabilities(all_inc, pair).p_inconclusive == pytest.approx(
        1.0, abs=1e-15
    )


def test_povm_triple_validation():
    with pytest.raises(ValidationError, match="sum to identity/2"):
        md.PovmTriple(h_m=0.5 * EYE2, h_n=0.5 * EYE2, h_i=0.5 * EYE2)
    with pytest.raises(ValidationError, match="eigenvalue below"):
        md.PovmTriple(h_m=np.diag([0.6, 0.5]), h_n=np.diag([-0.1, 0.0]), h_i=np.zeros((2, 2)))
    triple = md.PovmTriple(h_m=0.25 * EYE2, h_n=0.25 * EYE2, h_i=np.zeros((2, 2)))
    np.testing.assert_allclose(triple.rho, 0.5 * EYE2, atol=1e-15)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "cells", [((0, 0),), ((0, 1), (1, 0)), ((1, 0),)], ids=["diagonal", "off-diagonals", "one-off-diagonal"]
)
@pytest.mark.parametrize("block", [0, 1, 2])
def test_povm_triple_rejects_non_finite_cells(block, cells, value):
    # NaN compares false against every bound, so a check written as
    # "value > bound" lets it through
    blocks = [0.3 * EYE2, 0.1 * EYE2, 0.1 * EYE2]
    for cell in cells:
        blocks[block][cell] = value
    with pytest.raises(ValidationError, match="finite"):
        md.PovmTriple(*blocks)


# --- the numeric POVM search ---


@pytest.mark.parametrize("p_inc", [0.0, 0.3, 0.5])
def test_search_returns_the_recovered_tester_without_restarts(p_inc):
    theta = math.pi / 6.0
    pair = measurement_pair(theta)
    result = md.optimize_povm(pair, p_inc)
    assert result.converged
    assert result.restart_values == ()
    assert result.p_inc_error <= 1e-6
    assert abs(result.gap) <= 1e-12
    closed = entangled_success(theta, p_inc).p_success
    assert result.point.p_success == pytest.approx(closed, abs=1e-6)
    # seed and restarts are accepted and change nothing
    again = md.optimize_povm(pair, p_inc, seed=99, restarts=1)
    np.testing.assert_array_equal(again.triple.h_m, result.triple.h_m)
    np.testing.assert_array_equal(again.triple.h_n, result.triple.h_n)


def test_search_falls_back_where_the_dual_point_leaves_the_tester_open():
    # at θ = 0 the measurements coincide and every slack of the dual point
    # vanishes; the measurement-blind tester is optimal there
    pair = measurement_pair(0.0)
    assert _dual_bound(pair.m0, pair.n0, 0.3)[3] is None
    result = md.optimize_povm(pair, 0.3)
    assert result.converged
    assert result.restart_values == ()
    np.testing.assert_allclose(result.triple.h_i, 0.15 * EYE2, atol=1e-15)
    closed = entangled_success(0.0, 0.3).p_success
    assert result.point.p_success == pytest.approx(closed, abs=1e-12)


@pytest.mark.parametrize("theta", [0.0, 1e-12, 1e-9])
def test_blind_tester_is_certified_where_the_measurements_coincide(theta):
    c = math.cos(2.0 * theta)
    for p_inc in (0.0, 0.3, c):
        result = md.optimize_povm(measurement_pair(theta), p_inc)
        assert result.converged and result.restart_values == ()
        assert result.gap <= theta + 1e-15  # the blind tester forgoes ~sin(2θ)/2
        assert result.p_inc_error <= 1e-12


def test_search_recovers_minimum_error():
    pair = measurement_pair(math.pi / 6.0)
    result = md.optimize_povm(pair, 0.0)
    assert result.converged
    assert result.point.p_success == pytest.approx(FROZEN["helstrom_pi6"], abs=1e-12)
    assert result.p_inc_error <= 1e-12
    assert abs(result.gap) <= 1e-12


def test_search_without_a_dual_tester_returns_the_blind_one_unconverged(monkeypatch):
    # the blind tester is valid at every rate, so an uncertified search still
    # returns a tester, with its true gap to the bound
    dual_bound = oracle_module._dual_bound
    monkeypatch.setattr(oracle_module, "_dual_bound", lambda *a: (*dual_bound(*a)[:3], None))
    result = md.optimize_povm(measurement_pair(math.pi / 6.0), 0.3)
    assert not result.converged
    assert math.isfinite(result.gap) and result.gap > 1e-4
    assert result.p_inc_error <= 1e-15
    np.testing.assert_allclose(result.triple.h_i, 0.15 * EYE2, atol=1e-15)
    assert result.upper_bound == pytest.approx(FROZEN["ps_entangled_pi6_p03"], abs=1e-9)


def test_search_recovers_the_frozen_curve_point():
    pair = measurement_pair(math.pi / 6.0)
    result = md.optimize_povm(pair, 0.3)
    assert result.converged
    assert abs(result.point.p_success - FROZEN["ps_entangled_pi6_p03"]) <= 1e-4
    # the report's triple reproduces the reported probabilities
    replay = md.reduced_probabilities(result.triple, pair)
    assert replay.p_success == pytest.approx(result.point.p_success, abs=1e-12)


def test_search_recovers_the_unambiguous_endpoint():
    pair = measurement_pair(math.pi / 6.0)
    result = md.optimize_povm(pair, 0.5)
    assert result.converged
    assert result.point.p_success == pytest.approx(0.5, abs=1e-4)
    assert result.point.p_error <= 1e-4


def test_search_handles_identical_measurement_bases():
    pair = measurement_pair(math.pi / 4.0)
    result = md.optimize_povm(pair, 0.0)
    assert result.point.p_success == pytest.approx(1.0, abs=1e-6)


def test_search_target_domain():
    pair = measurement_pair(math.pi / 6.0)
    with pytest.raises(DomainError, match="inconclusive target"):
        md.optimize_povm(pair, 0.6)
    for tol in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(DomainError, match="tol"):
            md.optimize_povm(pair, 0.1, tol=tol)


def test_certified_search_leaves_scipy_optimize_unloaded():
    code = (
        "import math, sys, measdiscrim\n"
        "pair = measdiscrim.measurement_pair(math.pi / 10.0)\n"
        "result = measdiscrim.optimize_povm(pair, 0.3)\n"
        "assert result.converged and result.restart_values == ()\n"
        "assert 'scipy.optimize' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_coinciding_measurements_leave_scipy_optimize_unloaded():
    code = (
        "import sys, measdiscrim\n"
        "result = measdiscrim.optimize_povm(measdiscrim.measurement_pair(0.0), 0.3)\n"
        "assert result.converged and result.restart_values == ()\n"
        "assert 'scipy.optimize' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# --- the dual certificate ---

CRITERION_1_POINTS = [
    (theta, float(p))
    for theta in (j * math.pi / 30.0 for j in range(1, 8))
    for p in np.linspace(0.0, math.cos(2.0 * theta), 6)
]
EDGE_POINTS = [
    (theta, share * math.cos(2.0 * theta))
    for theta in (1e-3, 0.05, math.pi / 4.0 - 1e-4, math.pi / 4.0)
    for share in (0.0, 0.5, 1.0)
]


def assert_dual_feasible(pair, y, lam):
    """Y ⪰ m0, Y ⪰ n0 and Y ⪰ λ(m0 + n0), by a dense eigensolver."""
    for a in (pair.m0, pair.n0, lam * (pair.m0 + pair.n0)):
        assert np.linalg.eigvalsh(y - a)[0] >= -1e-12


def test_dual_bound_holds_for_random_testers():
    # weak duality: no tester, with any probe state, beats the bound
    rng = np.random.default_rng(80117)
    worst = -math.inf
    for _ in range(1000):
        pair = measurement_pair(float(rng.uniform(0.0, math.pi / 4.0)))
        blocks, _ = oracles.random_tester(rng)
        ps, _, pi = oracles.tester_probabilities(blocks, pair)
        bound, y, lam, _ = _dual_bound(pair.m0, pair.n0, pi)
        assert_dual_feasible(pair, cone_matrix(y), lam)
        worst = max(worst, ps - bound)
    assert worst <= 1e-12


@pytest.mark.parametrize("theta, p_inc", CRITERION_1_POINTS + EDGE_POINTS)
def test_dual_bound_is_tight(theta, p_inc):
    pair = measurement_pair(theta)
    bound, y, lam, _ = _dual_bound(pair.m0, pair.n0, p_inc)
    assert bound == pytest.approx(entangled_success(theta, p_inc).p_success, abs=1e-9)
    y = cone_matrix(y)
    assert_dual_feasible(pair, y, lam)
    assert 0.5 * np.trace(y) - lam * p_inc == pytest.approx(bound, abs=1e-15)


@pytest.mark.parametrize("theta, p_inc", [pt for pt in CRITERION_1_POINTS if pt[1] > 0.0])
def test_dual_bound_lambda_is_the_envelope_slope(theta, p_inc):
    """By the envelope theorem the optimal λ is minus the slope of the
    entangled curve, ½(1 + tan θ/sqrt(1 - P_I/cos²θ)), which is 1 at
    P_I = cos 2θ. At P_I = 0 the dual is flat in λ, so it is left out."""
    pair = measurement_pair(theta)
    lam = _dual_bound(pair.m0, pair.n0, p_inc)[2]
    if p_inc >= math.cos(2.0 * theta):
        expected = 1.0
    else:
        expected = 0.5 * (1.0 + math.tan(theta) / math.sqrt(1.0 - p_inc / math.cos(theta) ** 2))
    assert lam == pytest.approx(expected, abs=1e-7)


@pytest.mark.parametrize("theta, p_inc", CRITERION_1_POINTS[::5] + EDGE_POINTS)
def test_search_returns_a_checkable_certificate(theta, p_inc):
    pair = measurement_pair(theta)
    result = md.optimize_povm(pair, p_inc, tol=1e-4)
    assert result.converged
    assert result.gap <= 1e-4
    assert_dual_feasible(pair, result.y, result.lam)
    dual_value = 0.5 * np.trace(result.y) - result.lam * result.point.p_inconclusive
    assert dual_value == pytest.approx(result.upper_bound, abs=1e-15)
    assert result.gap == pytest.approx(result.upper_bound - result.point.p_success, abs=1e-15)


def test_criterion_1_testers_carry_no_negative_zeros():
    # H_I's off-diagonal is the sum of two mirrored ones that cancel; a
    # negated +0.0 there would print as -0.0 in the oracle report. At θ = 0
    # both are zero, and the blind tester's H_I is diagonal.
    for theta, p_inc in CRITERION_1_POINTS + [(0.0, 0.3)]:
        h_i = md.optimize_povm(measurement_pair(theta), p_inc).triple.h_i
        assert not np.signbit(h_i[h_i == 0.0]).any(), (theta, p_inc, h_i)


def test_blind_tester_report_carries_no_negative_zeros(tmp_path):
    assert main(["oracle", "--theta", "0", "--pi", "0.3", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "oracle_report.json").read_text())
    cells = np.array(report["blocks"]["h_i"], dtype=float)
    assert cells[0, 1] == cells[1, 0] == 0.0
    assert not np.signbit(cells).any()


def test_search_runs_no_eigensolver_or_matrix_product(monkeypatch):
    # every 2×2 block is a light-cone triple, so its eigenvalues are t ± ‖p‖
    # and a trace of a product is 2 (t_a t_b + p_a·p_b)
    def refuse(*args, **kwargs):
        raise AssertionError("the search called an eigensolver or a matrix product")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np, "matmul", refuse)
    for theta, p_inc in CRITERION_1_POINTS + [(0.0, 0.3)]:  # θ = 0: the blind tester
        result = md.optimize_povm(measurement_pair(theta), p_inc)
        assert result.converged, (theta, p_inc)


def test_small_angle_searches_converge():
    # nearly coinciding measurements and tiny budgets, where an H_I eigenvalue
    # of about -1e-10 once passed BLOCK_TOL, gave P_I below -TOL and raised
    rng = np.random.default_rng(0)
    for _ in range(400):
        theta = 10.0 ** rng.uniform(-7.0, -4.0)
        p_inc = math.cos(2.0 * theta) * 10.0 ** rng.uniform(-12.0, -6.0)
        result = md.optimize_povm(measurement_pair(theta), p_inc)
        assert result.converged, (theta, p_inc)
        assert min(np.linalg.eigvalsh(h)[0] for h in vars(result.triple).values()) >= -1e-15


# Tiny budgets that once needed a scipy ascent, because the dual point left
# the tester open there. No bisection midpoint leaves `_slack_tester` open at
# them now (every one of their 330 dual evaluations returns a tester); the
# search must still converge.
ASCENT_RESCUES = [
    (0.12131344938203924, 2.472817527932488e-08),
    (0.5038892389695054, 3.1385519610677e-09),
    (0.27034242568048966, 3.1918132222420705e-08),
    (0.7331058763978167, 4.440284088372718e-09),
    (0.10741423490033748, 2.297572407586757e-08),
    (0.40489055750581565, 1.8802122134125313e-09),
]


@pytest.mark.parametrize("theta, p_inc", ASCENT_RESCUES)
def test_tiny_budgets_that_the_dual_point_leaves_open_converge(theta, p_inc):
    result = md.optimize_povm(measurement_pair(theta), p_inc)
    assert result.converged
    closed = entangled_success(theta, p_inc).p_success
    assert abs(result.point.p_success - closed) <= 1e-4


def test_searches_and_the_cli_load_no_scipy(tmp_path):
    code = (
        "import sys\n"
        "import measdiscrim as md\n"
        "from measdiscrim.cli import main\n"
        f"for theta, p_inc in {ASCENT_RESCUES!r}:\n"
        "    assert md.optimize_povm(md.measurement_pair(theta), p_inc).converged\n"
        f"out = {str(tmp_path)!r}\n"
        "for argv in (['curves', '--theta', '0.3', '--pi-grid', '0:0.2:0.1'],\n"
        "             ['hull', '--c', '0.5', '--samples', '200'],\n"
        "             ['convexity', '--c-grid', '0.5', '--pi-grid', '0.1'],\n"
        "             ['oracle', '--theta', '0.3', '--pi', '0.2'],\n"
        "             ['simulate', '--mode', 'unambiguous', '--t-grid', '0.5',\n"
        "              '--trials', '100']):\n"
        "    assert main([*argv, '--out', out + '/' + argv[0]]) == 0, argv\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_small_angle_sweep_points_converge_at_a_tight_tol():
    # the seed-7 sweep's angles in [1e-5, 1e-4], where a bisection midpoint
    # once left the tester open and the bracket's chord missed tol 1e-8
    points = [pt for pt in oracles.stress_sweep() if 1e-5 <= pt[0] <= 1e-4]
    assert len(points) == 500
    for theta, p_inc in points:
        result = md.optimize_povm(measurement_pair(theta), p_inc, tol=1e-8)
        assert result.converged, (theta, p_inc, result.gap, result.p_inc_error)


def test_stress_sweep_converges():
    # about every 50th point of the seed-7 sweep: tiny angles, angles near
    # π/4, budgets near 0 and near cos 2θ. The stride 51 is prime to the five
    # budgets of each angle, so it samples every kind; the last ten points
    # are θ = 0 and θ = π/4.
    points = oracles.stress_sweep()
    assert len(points) == 45_010
    tol = 1e-4
    for theta, p_inc in points[::51] + points[-10:]:
        result = md.optimize_povm(measurement_pair(theta), p_inc, tol=tol)
        assert result.converged, (theta, p_inc)
        assert result.gap <= tol and result.p_inc_error <= tol, (theta, p_inc)
        rate = min(result.point.p_inconclusive, math.cos(2.0 * theta))
        closed = entangled_success(theta, max(rate, 0.0)).p_success
        assert abs(result.point.p_success - closed) <= tol, (theta, p_inc)


# --- the three-cone 1-center ---


def center_rows():
    """20 008 seeded (θ, λ): four λ at each of 5 002 angles.

    θ: 3 000 from U[0, π/4], 1 000 from 10^U(−16, −1) and 1 000 from
    π/4 − 10^U(−16, −1), then 0 and π/4; λ: 0, 1, U[0, 1] and
    1 − 10^U(−16, −3).
    """
    rng = np.random.default_rng(30)
    quarter = math.pi / 4.0
    thetas = np.concatenate([
        rng.uniform(0.0, quarter, 3000),
        10.0 ** rng.uniform(-16.0, -1.0, 1000),
        quarter - 10.0 ** rng.uniform(-16.0, -1.0, 1000),
        [0.0, quarter],
    ]).tolist()
    return [
        (theta, lam)
        for theta in thetas
        for lam in (0.0, 1.0, float(rng.uniform()), 1.0 - 10.0 ** rng.uniform(-16.0, -3.0))
    ]


def test_one_center_is_no_worse_than_the_general_three_cone_solve():
    # the axis closed form against the general route: apexes, pair points
    # and the quadratic's three-cone roots, each also Newton-polished
    rows = center_rows()
    assert len(rows) >= 20_000
    worst = -math.inf
    for theta, lam in rows:
        pair = measurement_pair(theta)
        cones = oracle_module._at(oracle_module._cones(pair.m0, pair.n0), lam)
        value, x, y = oracle_module._one_center(cones)
        assert value == oracle_module._top(cones, x, y), (theta, lam)
        worst = max(worst, value - oracles.one_center_reference(cones)[0])
    assert worst <= 1e-15


def test_one_center_lies_on_the_axis_in_each_of_its_three_cases():
    # x = a below the M apex, x = u₃ at the scaled apex, or between them
    # (to rounding) where the M cone meets the scaled one
    hits = {"m_apex": 0, "scaled_apex": 0, "meet": 0}
    worst = 0.0
    for theta, lam in center_rows():
        pair = measurement_pair(theta)
        cones = oracle_module._at(oracle_module._cones(pair.m0, pair.n0), lam)
        (t1, a, h), _, (t3, u3, _) = cones
        _, x, y = oracle_module._one_center(cones)
        assert y == 0.0, (theta, lam)
        if x == a:
            hits["m_apex"] += 1
        elif x == u3:
            hits["scaled_apex"] += 1
        else:
            assert min(a, u3) - 1e-15 <= x <= max(a, u3) + 1e-15, (theta, lam)
            hits["meet"] += 1
            worst = max(worst, abs(t1 + math.hypot(x - a, h) - t3 - abs(x - u3)))
    assert min(hits.values()) > 0, hits
    assert worst <= 1e-15, worst


def test_a_wrong_axis_point_loosens_the_certificate_but_never_breaks_it(
    tmp_path, monkeypatch
):
    # the axis point moved off by 1e-3, with its value recomputed from the
    # three cones, can only raise the dual value, so the bound still holds
    # and a search that claims convergence still lands on the curve
    one_center = oracle_module._one_center

    def off(cones):
        _, x, y = one_center(cones)
        return oracle_module._top(cones, x + 1e-3, y), x + 1e-3, y

    monkeypatch.setattr(oracle_module, "_one_center", off)
    tol = 1e-4
    for k, (theta, p_inc) in enumerate(CRITERION_1_POINTS):
        result = md.optimize_povm(measurement_pair(theta), p_inc, tol=tol)
        rate = min(max(result.point.p_inconclusive, 0.0), math.cos(2.0 * theta))
        closed = entangled_success(theta, rate).p_success
        assert result.upper_bound >= closed - 1e-12, (theta, p_inc)
        if result.converged:
            assert abs(result.point.p_success - closed) <= tol, (theta, p_inc)
        argv = ["oracle", "--theta", repr(theta), "--pi", repr(p_inc)]
        assert main([*argv, "--out", str(tmp_path / str(k))]) in (0, 3), (theta, p_inc)


# --- the tester from the dual point ---


def test_slack_tester_matches_the_3x3_solve_in_each_weight_case():
    # the closed form on the axis against the general route: the kernel axes
    # of all three slacks and Cramer's rule, with no mirror symmetry assumed
    hits = {"i_slack_inactive": 0, "i_slack_vanishes": 0, "rank_one": 0}
    worst = 0.0
    for theta, lam in center_rows():
        pair = measurement_pair(theta)
        cones = oracle_module._at(oracle_module._cones(pair.m0, pair.n0), lam)
        t, x, y = oracle_module._one_center(cones)
        expected = oracles.slack_tester_reference(cones, t, x, y)
        if expected is None:
            continue
        tester = oracle_module._slack_tester(cones, t, x)
        assert tester is not None, (theta, lam)
        axis = oracles.kernel_axis(cones[2], t, x, y)
        hits["i_slack_inactive" if axis is None else "i_slack_vanishes" if axis == () else "rank_one"] += 1
        worst = max(worst, *(abs(p - q) for a, b in zip(tester, expected) for p, q in zip(a, b)))
    assert min(hits.values()) > 0, hits
    assert worst <= 1e-12, worst


def test_a_wrong_tester_weight_is_reported_unconverged(tmp_path, monkeypatch):
    # H_M and H_N are linear in w, so a weight off by a factor 1 + 1e-3 pushes
    # H_I out of the PSD cone; the search must say so, not certify it
    slack_tester = oracle_module._slack_tester

    def off(*args):
        tester = slack_tester(*args)
        return None if tester is None else tuple(tuple((1.0 + 1e-3) * v for v in h) for h in tester)

    monkeypatch.setattr(oracle_module, "_slack_tester", off)
    theta = math.pi / 6.0
    result = md.optimize_povm(measurement_pair(theta), 0.3)
    assert not result.converged
    assert math.isfinite(result.gap) and result.gap > 1e-4
    argv = ["oracle", "--theta", repr(theta), "--pi", "0.3", "--out", str(tmp_path)]
    assert main(argv) == 3


NEAR_QUARTER = math.pi / 4.0 - 1e-11


@pytest.mark.parametrize("share", [1.0, 1.0 - 1e-6])
def test_search_converges_next_to_identical_bases(share):
    # c = cos 2θ ≈ 2e-11, so a = c/2 and u₃ = λc lie within 1e-9 of each
    # other and the I slack is taken to vanish at every 1-center between them
    c = math.cos(2.0 * NEAR_QUARTER)
    tol = 1e-12
    result = md.optimize_povm(measurement_pair(NEAR_QUARTER), share * c, tol=tol)
    assert result.converged
    assert result.p_inc_error <= tol and result.gap <= tol


def test_slack_tester_at_the_unambiguous_end_next_to_identical_bases():
    # at λ = 1 the 1-center is the scaled apex, x = u₃ exactly, so sign(x − u₃)
    # is sign(0); the tester must still be the unambiguous one, at rate c
    pair = measurement_pair(NEAR_QUARTER)
    base = oracle_module._cones(pair.m0, pair.n0)
    cones = oracle_module._at(base, 1.0)
    t, x, _ = oracle_module._one_center(cones)
    assert x == cones[2][1]
    tester = oracle_module._slack_tester(cones, t, x)
    rate = oracle_module._trace(oracle_module._rest(*tester), base[2])
    assert abs(rate - math.cos(2.0 * NEAR_QUARTER)) <= 1e-15


def assert_recovered_tester_is_optimal(theta, p_inc):
    pair = measurement_pair(theta)
    _, y, lam, blocks = _dual_bound(pair.m0, pair.n0, p_inc)
    assert blocks is not None, (theta, p_inc)
    y, h_m, h_n = (cone_matrix(a) for a in (y, *blocks))
    h_i = 0.5 * EYE2 - h_m - h_n
    for h in (h_m, h_n, h_i):
        assert np.linalg.eigvalsh(h)[0] >= -1e-12, (theta, p_inc)
    assert np.abs(h_m + h_n + h_i - 0.5 * EYE2).max() <= BLOCK_TOL
    ps = float(np.sum(h_m * pair.m0) + np.sum(h_n * pair.n0))
    pi = float(np.sum(h_i * (pair.m0 + pair.n0)))
    assert abs(pi - p_inc) <= 1e-6, (theta, p_inc)
    # the dual point bounds every tester at the tester's own rate
    gap = 0.5 * float(np.trace(y)) - lam * pi - ps
    assert abs(gap) <= 1e-12, (theta, p_inc)
    assert abs(ps - entangled_success(theta, p_inc).p_success) <= 1e-6, (theta, p_inc)


# nearly identical measurements, where the kernel axes are shortest
SMALL_ANGLE_POINTS = [
    (theta, share * math.cos(2.0 * theta))
    for theta in (1e-5, 1e-7)
    for share in (0.0, 0.3, 1.0)
]


@pytest.mark.parametrize(
    "theta, p_inc", CRITERION_1_POINTS + EDGE_POINTS + SMALL_ANGLE_POINTS
)
def test_recovered_tester_is_optimal(theta, p_inc):
    assert_recovered_tester_is_optimal(theta, p_inc)


def test_recovered_tester_is_optimal_at_random_points():
    # P_I is 0, cos 2θ or uniform in between
    rng = np.random.default_rng(61203)
    for _ in range(2000):
        theta = float(rng.uniform(0.0, math.pi / 4.0))
        c = math.cos(2.0 * theta)
        p_inc = (0.0, c, float(rng.uniform(0.0, c)))[rng.integers(3)]
        assert_recovered_tester_is_optimal(theta, p_inc)


# --- the single-qubit brute force ---


def test_brute_force_matches_the_hull():
    pair = measurement_pair(math.pi / 6.0)
    got = oracles.brute_force_single(pair, 0.3, resolution=800)
    assert got == pytest.approx(FROZEN["ps_opt_c05_p03"], abs=1e-3)
    assert got <= FROZEN["ps_opt_c05_p03"] + 1e-9
    theta = math.pi / 6.0
    for target in (0.1, 0.45, 0.55):
        got = oracles.brute_force_single(pair, target, resolution=400)
        closed = single_optimal(theta, target)[0].p_success
        assert abs(got - closed) <= 1e-3
        assert got <= closed + 1e-9


def test_brute_force_endpoints():
    pair = measurement_pair(math.pi / 6.0)
    at_zero = oracles.brute_force_single(pair, 0.0, resolution=400)
    assert at_zero == pytest.approx(helstrom_point(math.pi / 6.0).p_success, abs=1e-6)
    at_end = oracles.brute_force_single(pair, 0.625, resolution=400)
    assert at_end == pytest.approx(0.375, abs=1e-3)
    with pytest.raises(ValueError, match="resolution"):
        oracles.brute_force_single(pair, 0.3, resolution=50)
