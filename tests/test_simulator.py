"""Monte Carlo bench model: determinism, estimation, and noise response."""

import math

import numpy as np
import pytest

from measdiscrim import DomainError, ValidationError, entangled_success
from measdiscrim.simulator import (
    DEFAULT_THETA_GRID,
    SCAN_COLUMNS,
    CoincidenceCounts,
    ExperimentConfig,
    ImperfectionModel,
    estimate,
    load_imperfections,
    run_trials,
    scan_intermediate,
    scan_unambiguous,
)

import oracles

THETA = math.pi / 6.0


def ideal_config(trials=200_000, seed=0, theta=THETA, t=0.6):
    return ExperimentConfig(
        theta=theta, vrc_transmittance=t, trials=trials, seed=seed
    )


# --- configuration objects ---


def test_imperfection_validation():
    with pytest.raises(ValidationError, match="eta_d0"):
        ImperfectionModel(eta_d0=0.0)
    with pytest.raises(ValidationError, match="eta_db"):
        ImperfectionModel(eta_db=1.2)
    with pytest.raises(ValidationError, match="phase_noise_sigma"):
        ImperfectionModel(phase_noise_sigma=-0.1)
    for sigma in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="phase_noise_sigma"):
            ImperfectionModel(phase_noise_sigma=sigma)
    with pytest.raises(ValidationError, match="singlet_visibility"):
        ImperfectionModel(singlet_visibility=1.0001)
    with pytest.raises(ValidationError, match="splitter_imbalance"):
        ImperfectionModel(splitter_imbalance=0.6)


def test_imperfection_mapping_round_trip():
    imp = ImperfectionModel(
        eta_d0=0.9, phase_noise_sigma=0.2, singlet_visibility=0.95
    )
    assert ImperfectionModel.from_mapping(imp.to_mapping()) == imp
    with pytest.raises(ValidationError, match="unknown imperfection key"):
        ImperfectionModel.from_mapping({"eta_XX": 1.0})
    with pytest.raises(ValidationError, match="eta_D0 needs a number"):
        ImperfectionModel.from_mapping({"eta_D0": "high"})


def test_load_imperfections_sources(tmp_path):
    assert load_imperfections("ideal") == ImperfectionModel.ideal()
    bench = load_imperfections("labnoise")
    assert bench.phase_noise_sigma == pytest.approx(0.1)
    assert bench.singlet_visibility == pytest.approx(0.98)
    assert bench.splitter_imbalance == pytest.approx(0.02)
    assert bench.eta_d0 == bench.eta_di == 1.0
    with pytest.raises(DomainError, match="unknown noise preset"):
        load_imperfections("benchnoise")
    with pytest.raises(DomainError, match="not found"):
        load_imperfections("./no_such_file.cfg")
    cfg = tmp_path / "custom.cfg"
    cfg.write_text("# comment\nsinglet_visibility = 0.9\neta_DA=0.8\n")
    custom = load_imperfections(str(cfg))
    assert custom.singlet_visibility == pytest.approx(0.9)
    assert custom.eta_da == pytest.approx(0.8)
    bad = tmp_path / "bad.cfg"
    bad.write_text("eta_DA 0.8\n")
    with pytest.raises(ValidationError, match="malformed"):
        load_imperfections(str(bad))


def test_experiment_config_validation():
    with pytest.raises(DomainError, match="theta"):
        ExperimentConfig(theta=1.0, vrc_transmittance=0.5, trials=10, seed=0)
    with pytest.raises(DomainError, match="transmittance"):
        ExperimentConfig(theta=0.3, vrc_transmittance=1.5, trials=10, seed=0)
    with pytest.raises(DomainError, match="trials"):
        ExperimentConfig(theta=0.3, vrc_transmittance=0.5, trials=0, seed=0)


def test_coincidence_counts_validation():
    with pytest.raises(ValidationError, match="shape"):
        CoincidenceCounts(counts=np.zeros((2, 2)), trials=10)
    with pytest.raises(ValidationError, match="non-negative"):
        CoincidenceCounts(counts=np.full((2, 2, 3), -1), trials=10)
    with pytest.raises(ValidationError, match="exceed"):
        CoincidenceCounts(counts=np.ones((2, 2, 3)), trials=5)
    counts = CoincidenceCounts(counts=np.arange(12).reshape(2, 2, 3), trials=100)
    assert counts.total == 66
    assert counts.cell("N", 1, "I") == 11


# --- determinism ---


def test_runs_are_reproducible():
    first = run_trials(ideal_config())
    second = run_trials(ideal_config())
    np.testing.assert_array_equal(first.counts, second.counts)
    different_seed = run_trials(ideal_config(seed=1))
    assert (different_seed.counts != first.counts).any()
    different_stream = run_trials(ideal_config(), stream=3)
    assert (different_stream.counts != first.counts).any()


def test_counts_do_not_depend_on_batch_size():
    reference = run_trials(ideal_config(trials=100_000))
    for batch in (1337, 4096, 100_000):
        chunked = run_trials(ideal_config(trials=100_000), batch_size=batch)
        np.testing.assert_array_equal(chunked.counts, reference.counts)


# --- estimation ---


def test_estimate_uniform_counts():
    counts = CoincidenceCounts(counts=np.full((2, 2, 3), 100), trials=1200)
    est = estimate(counts)
    assert est.point.p_success == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert est.point.p_inconclusive == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert est.registered == 1200
    assert est.conclusive == 800
    assert est.std_errors[0] == pytest.approx(
        math.sqrt((1.0 / 3.0) * (2.0 / 3.0) / 1200.0), abs=1e-12
    )


def test_estimate_requires_counts():
    empty = CoincidenceCounts(counts=np.zeros((2, 2, 3), dtype=np.int64), trials=10)
    with pytest.raises(ValidationError, match="no registered"):
        estimate(empty)


def test_estimate_inverts_detector_thinning():
    raw = np.zeros((2, 2, 3), dtype=np.int64)
    raw[0, 0, 0] = 400  # success cell, outcome 0, dark port
    raw[0, 1, 2] = 100  # inconclusive cell, outcome 1
    counts = CoincidenceCounts(counts=raw, trials=1000)
    imp = ImperfectionModel(eta_d0=0.5, eta_di=0.8)
    est = estimate(counts, imp)
    rescaled_success = 400 / 0.5
    rescaled_inc = 100 / 0.8
    total = rescaled_success + rescaled_inc
    assert est.point.p_success == pytest.approx(rescaled_success / total, abs=1e-12)
    assert est.point.p_inconclusive == pytest.approx(rescaled_inc / total, abs=1e-12)


def test_error_bars_scale_with_counts():
    small = estimate(run_trials(ideal_config(trials=10_000)))
    large = estimate(run_trials(ideal_config(trials=40_000)))
    ratio = small.std_errors[0] / large.std_errors[0]
    assert ratio == pytest.approx(2.0, rel=0.1)


# --- agreement with the exact branch model ---


def assert_within_sigma(got, want, sigma, n_sigma=4.0):
    assert abs(got - want) <= n_sigma * max(sigma, 1e-12)


def test_ideal_bench_matches_the_entangled_curve():
    config = ideal_config(trials=300_000)
    est = estimate(run_trials(config))
    closed = entangled_success(THETA, (1.0 - 0.6) * math.cos(THETA) ** 2)
    assert_within_sigma(est.point.p_success, closed.p_success, est.std_errors[0])
    assert_within_sigma(est.point.p_error, closed.p_error, est.std_errors[1])
    assert_within_sigma(
        est.point.p_inconclusive, closed.p_inconclusive, est.std_errors[2]
    )


def test_noisy_bench_matches_the_branch_model():
    imp = ImperfectionModel(
        eta_d0=0.8,
        eta_db=0.7,
        phase_noise_sigma=0.3,
        singlet_visibility=0.9,
        splitter_imbalance=0.05,
    )
    config = ExperimentConfig(
        theta=math.pi / 5.0,
        vrc_transmittance=0.7,
        trials=300_000,
        seed=3,
        imperfections=imp,
    )
    counts = run_trials(config)
    est = estimate(counts, imp)
    expected = oracles.bench_expectations(
        math.pi / 5.0, 0.7, phase_sigma=0.3, visibility=0.9, imbalance=0.05
    )
    assert_within_sigma(est.point.p_success, expected["p_success"], est.std_errors[0])
    assert_within_sigma(est.point.p_error, expected["p_error"], est.std_errors[1])
    assert_within_sigma(
        est.point.p_inconclusive, expected["p_inc"], est.std_errors[2]
    )
    # raw registered counts match the thinned branch model cell by cell
    registered = oracles.thinned_cells(
        expected["cells"], (0.8, 1.0), (1.0, 0.7, 1.0)
    )
    mean = config.trials * registered
    spread = np.sqrt(np.maximum(mean * (1.0 - registered), 1.0))
    assert np.all(np.abs(counts.counts - mean) <= 5.0 * spread)


def test_estimates_are_invariant_to_detector_efficiency():
    imp = ImperfectionModel(eta_d0=0.6, eta_da=0.85, eta_di=0.75)
    lossy_config = ExperimentConfig(
        theta=THETA, vrc_transmittance=0.5, trials=400_000, seed=7,
        imperfections=imp,
    )
    lossy = estimate(run_trials(lossy_config), imp)
    clean = estimate(run_trials(ideal_config(trials=400_000, seed=7, t=0.5)))
    for got, want, s1, s2 in zip(
        (lossy.point.p_success, lossy.point.p_inconclusive),
        (clean.point.p_success, clean.point.p_inconclusive),
        lossy.std_errors, clean.std_errors,
    ):
        assert abs(got - want) <= 4.0 * math.hypot(s1, s2)


def test_feed_forward_correction_matters():
    config = ideal_config(trials=200_000)
    with_ff = estimate(run_trials(config))
    without_ff = estimate(run_trials(config, feed_forward=False))
    expected = oracles.bench_expectations(THETA, 0.6, feed_forward=False)
    assert_within_sigma(
        without_ff.point.p_success, expected["p_success"], without_ff.std_errors[0]
    )
    gap = with_ff.rel_success - without_ff.rel_success
    sigma = math.hypot(with_ff.rel_success_sigma, without_ff.rel_success_sigma)
    assert gap > 5.0 * sigma


# --- working-point scans ---


def test_intermediate_scan_layout_and_streams():
    table = scan_intermediate(
        theta_list=[THETA], transmittance_list=[0.8, 0.5], trials=50_000
    )
    assert table.columns == SCAN_COLUMNS
    assert len(table.rows) == 2
    assert table.column("theta") == [THETA, THETA]
    assert table.column("transmittance") == [0.8, 0.5]
    # row k reproduces a direct run on stream k
    direct = estimate(run_trials(ideal_config(trials=50_000, t=0.5), stream=1))
    assert table.rows[1][4] == pytest.approx(direct.point.p_success, abs=1e-15)
    again = scan_intermediate(
        theta_list=[THETA], transmittance_list=[0.8, 0.5], trials=50_000
    )
    assert again.rows == table.rows


def test_default_theta_grid_spans_the_angle_range():
    assert len(DEFAULT_THETA_GRID) == 7
    assert DEFAULT_THETA_GRID[0] == pytest.approx(math.pi / 30.0)
    assert DEFAULT_THETA_GRID[-1] < math.pi / 4.0


def test_unambiguous_scan_has_no_errors_on_an_ideal_bench():
    table = scan_unambiguous(transmittance_list=[0.2, 0.6, 1.0], trials=150_000)
    assert table.columns == SCAN_COLUMNS + ("error_counts",)
    for row in table.rows:
        t_value = row[1]
        theta = math.atan(math.sqrt(t_value))
        assert row[0] == pytest.approx(theta, abs=1e-15)
        assert row[-1] == 0.0  # no wrong-port coincidences at all
        ps, ps_sigma = row[4], row[5]
        pi, pi_sigma = row[2], row[3]
        assert_within_sigma(ps, 2.0 * t_value / (1.0 + t_value), ps_sigma)
        assert_within_sigma(pi, (1.0 - t_value) / (1.0 + t_value), pi_sigma)


def test_unambiguous_scan_errors_stay_bounded_with_bench_noise():
    bench = load_imperfections("labnoise")
    table = scan_unambiguous(
        transmittance_list=[0.3, 0.7], trials=100_000, imperfections=bench
    )
    assert max(table.column("p_error")) <= 0.032
