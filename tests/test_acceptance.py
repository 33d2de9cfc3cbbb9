"""Acceptance gate: one check per shipped claim, one printed line each.

Each test exercises a full workflow at production scale and prints
"criterion N: PASS/FAIL - detail" directly to the terminal, so a plain
verbose pytest run doubles as the acceptance report.
"""

import json
import math
import time

import numpy as np
import pytest

import measdiscrim as md
from measdiscrim.cli import main
from measdiscrim.convexity import finite_difference_check
from measdiscrim.simulator import (
    ExperimentConfig,
    estimate,
    load_imperfections,
    run_trials,
    scan_unambiguous,
)

import oracles
from oracles import FROZEN

THETA_GRID = [j * math.pi / 30.0 for j in range(1, 8)]


def report(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_povm_search_recovers_the_curve(capsys):
    start = time.perf_counter()
    worst = 0.0
    worst_certified_gap = 0.0
    # least eigenvalue of Y − m0, Y − n0 and Y − λ(m0 + n0) over all certificates
    min_slack = math.inf
    searches = 0
    worst_rate = 0.0
    all_converged = True
    for theta in THETA_GRID:
        pair = md.measurement_pair(theta)
        c = math.cos(2.0 * theta)
        for target in np.linspace(0.0, c, 6):
            result = md.optimize_povm(pair, float(target), tol=1e-4)
            closed = md.entangled_success(theta, float(target)).p_success
            worst = max(worst, abs(result.point.p_success - closed))
            worst_certified_gap = max(worst_certified_gap, result.gap)
            for a in (pair.m0, pair.n0, result.lam * (pair.m0 + pair.n0)):
                min_slack = min(min_slack, np.linalg.eigvalsh(result.y - a)[0])
            all_converged = all_converged and result.converged
            worst_rate = max(worst_rate, result.p_inc_error)
            searches += 1
    elapsed = time.perf_counter() - start
    ok = (
        worst <= 1e-4
        and worst_certified_gap <= 1e-4
        and min_slack >= -1e-12
        and all_converged
        and elapsed < 300.0
    )
    report(
        capsys, 1, ok,
        f"worst |gap| {worst:.2e} over {searches} searches, worst certified "
        f"gap {worst_certified_gap:.2e}, worst p_inc_error {worst_rate:.1e}, "
        f"least dual slack eigenvalue {min_slack:.1e}, "
        f"all converged: {all_converged}, {elapsed:.1f}s",
    )


def test_criterion_2_hull_verification(capsys):
    start = time.perf_counter()
    worst_dev = 0.0
    worst_tangent = 0.0
    worst_dual = 0.0
    worst_certificate = 0.0
    for c in (0.3, 0.5, 0.7, 0.9):
        rep = md.hull_verify(c, 10_000, seed=0)
        worst_certificate = max(worst_certificate, rep.certificate_gap, rep.sample_excess)
        # a generic hull of the samples, against the closed form and its tangency
        theta = 0.5 * math.acos(c)
        vertices = rep.points[oracles.upper_hull_chain(rep.points)]
        closed = md.single_optimal_array(theta, vertices[:, 0]).p_success
        worst_dev = max(worst_dev, float(np.abs(vertices[:, 1] - closed).max()))
        pit = md.tangent_PIT(c)
        worst_tangent = max(worst_tangent, abs(vertices[1, 0] - pit))
        # the dual bound at the curve's slope, against the closed form
        p_inc = np.linspace(0.0, 0.5 * (1.0 + c * c), 2001)
        ps_pit = md.single_optimal(theta, pit)[0].p_success
        bound = oracles.single_qubit_bound(theta, p_inc, pit, ps_pit)
        dual_gap = bound - md.single_optimal_array(theta, p_inc).p_success
        worst_dual = max(worst_dual, float(np.abs(dual_gap).max()))
    elapsed = time.perf_counter() - start
    ok = (
        worst_dev <= 1e-6
        and worst_tangent <= 1e-6
        and worst_dual <= 1e-12
        and worst_certificate <= 1e-12
        and elapsed < 30.0
    )
    report(
        capsys, 2, ok,
        f"max hull deviation {worst_dev:.2e}, max tangency error "
        f"{worst_tangent:.2e}, worst single-qubit dual gap {worst_dual:.1e}, "
        f"worst certificate gap or sample excess {worst_certificate:.1e}, {elapsed:.1f}s",
    )


def test_criterion_3_curvature_certificate(capsys):
    # The curvature's sign is proved on both branches (the convexity module
    # docstring); the slope differences check the closed forms' values.
    start = time.perf_counter()
    min_convex = math.inf
    max_concave = -math.inf
    worst_rel = 0.0
    rows = 0
    for c in np.arange(0.05, 0.951, 0.05):
        c = float(c)
        pib = md.boundary_PIB(c)
        p_top = 0.5 * (1.0 + c * c)
        for p in np.linspace(1e-3, pib - 1e-3, 30):
            analytic, _, rel_err = finite_difference_check(c, float(p))
            min_convex = min(min_convex, analytic)
            worst_rel = max(worst_rel, rel_err)
            rows += 1
        band = p_top - pib
        if band > 4e-7:
            margin = min(1e-3, 0.25 * band)
            for p in np.linspace(pib + margin, p_top - margin, 10):
                analytic, _, rel_err = finite_difference_check(c, float(p))
                max_concave = max(max_concave, analytic)
                worst_rel = max(worst_rel, rel_err)
                rows += 1
    elapsed = time.perf_counter() - start
    ok = (
        min_convex >= -1e-9
        and max_concave < 0.0
        and worst_rel <= 1e-3
        and elapsed < 10.0
    )
    report(
        capsys, 3, ok,
        f"{rows} budgets: curvature sign proved on both branches; sampled min "
        f"convex {min_convex:.2e}, max concave {max_concave:.2e}; worst rel err "
        f"of the slope differences against the closed form {worst_rel:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_4_unambiguous_endpoint_identity(capsys):
    worst = 0.0
    for theta in np.linspace(0.0, math.pi / 4.0, 100):
        theta = float(theta)
        c = math.cos(2.0 * theta)
        point = md.entangled_success(theta, c)
        worst = max(
            worst,
            abs(point.p_success - 2.0 * math.sin(theta) ** 2),
            abs(point.p_error),
            abs(point.p_inconclusive - c),
        )
    ok = worst <= 1e-12
    report(capsys, 4, ok, f"endpoint identity holds to {worst:.2e} over 100 angles")


def test_criterion_5_entangled_advantage_is_strict(capsys):
    min_adv = math.inf
    worst_zero = 0.0
    for theta in THETA_GRID:
        c = math.cos(2.0 * theta)
        worst_zero = max(worst_zero, abs(md.advantage(theta, 0.0)))
        for p in np.linspace(0.01, c, 15):
            min_adv = min(min_adv, md.advantage(theta, float(p)))
    ok = min_adv > 0.0 and worst_zero <= 1e-12
    report(
        capsys, 5, ok,
        f"min advantage {min_adv:.2e} for budgets >= 0.01, "
        f"|advantage| at zero budget {worst_zero:.2e}",
    )


def test_criterion_6_monte_carlo_hits_the_curve(capsys):
    start = time.perf_counter()
    hits = 0
    for seed in range(10):
        config = ExperimentConfig(
            theta=math.pi / 6.0, vrc_transmittance=0.6, trials=1_000_000, seed=seed
        )
        est = estimate(run_trials(config))
        ok_ps = (
            abs(est.point.p_success - FROZEN["ps_entangled_pi6_p03"])
            <= 4.0 * est.std_errors[0]
        )
        ok_pi = abs(est.point.p_inconclusive - 0.3) <= 4.0 * est.std_errors[2]
        hits += ok_ps and ok_pi
    elapsed = time.perf_counter() - start
    ok = hits >= 9 and elapsed < 60.0
    report(
        capsys, 6, ok,
        f"{hits}/10 seeds within 4 sigma of the curve point, {elapsed:.1f}s",
    )


def test_criterion_7_unambiguous_scan(capsys):
    start = time.perf_counter()
    ideal = scan_unambiguous(trials=1_000_000, seed=0)
    error_counts = ideal["error_counts"]
    worst_pull = 0.0
    for k, t_value in enumerate(ideal["transmittance"]):
        ps, ps_sigma = ideal["p_success"][k], ideal["p_success_sigma"][k]
        pi, pi_sigma = ideal["p_inc"][k], ideal["p_inc_sigma"][k]
        want_ps = 2.0 * t_value / (1.0 + t_value)
        want_pi = (1.0 - t_value) / (1.0 + t_value)
        worst_pull = max(
            worst_pull,
            abs(ps - want_ps) / max(ps_sigma, 1e-12),
            abs(pi - want_pi) / max(pi_sigma, 1e-12),
        )
    bench = scan_unambiguous(
        trials=1_000_000, seed=0, imperfections=load_imperfections("labnoise")
    )
    max_error = max(bench["p_error"])
    elapsed = time.perf_counter() - start
    ok = (
        max(error_counts) == 0.0
        and worst_pull <= 4.0
        and max_error <= 0.032
        and elapsed < 60.0
    )
    report(
        capsys, 7, ok,
        f"ideal error coincidences {int(max(error_counts))}, worst pull "
        f"{worst_pull:.2f} sigma, bench-noise max error rate {max_error:.4f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_symmetrization_preserves_statistics(capsys):
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        theta = float(rng.uniform(0.05, math.pi / 4.0))
        pair = md.measurement_pair(theta)
        blocks, _ = oracles.random_tester(rng)
        before = oracles.tester_probabilities(blocks, pair)
        after = oracles.tester_probabilities(oracles.symmetrize(blocks), pair)
        worst = max(worst, *(abs(a - b) for a, b in zip(before, after)))
    ok = worst <= 1e-12
    report(
        capsys, 8, ok,
        f"probability shift under symmetrization {worst:.2e} over 100 testers",
    )


def test_criterion_9_manifest_replay(capsys, tmp_path):
    curves_dir = tmp_path / "curves"
    simulate_dir = tmp_path / "simulate"
    ok_runs = (
        main(["curves", "--theta", "0.5235987755982988", "--out", str(curves_dir)])
        == 0
        and main(
            ["simulate", "--mode", "unambiguous", "--t-grid", "0:1:0.25",
             "--trials", "50000", "--out", str(simulate_dir)]
        )
        == 0
    )
    replay_ok = True
    byte_identical = True
    for out_dir in (curves_dir, simulate_dir):
        replay_ok = replay_ok and main(["replay", str(out_dir / "manifest.json")]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        for name in manifest["outputs"]:
            original = (out_dir / name).read_bytes()
            replayed = (out_dir / "replay" / name).read_bytes()
            byte_identical = byte_identical and original == replayed
    ok = ok_runs and replay_ok and byte_identical
    report(
        capsys, 9, ok,
        f"replay exit codes ok: {replay_ok}, outputs byte-identical: "
        f"{byte_identical}",
    )
