"""Monte Carlo bench model: determinism, estimation, and noise response."""

import dataclasses
import math

import numpy as np
import pytest

from measdiscrim import DomainError, ValidationError, entangled_success, measurement_pair
from measdiscrim.simulator import (
    DEFAULT_THETA_GRID,
    MAX_TRIALS,
    SCAN_COLUMNS,
    CoincidenceCounts,
    ExperimentConfig,
    ImperfectionModel,
    cell_probabilities,
    estimate,
    load_imperfections,
    run_trials,
    scan_intermediate,
    scan_unambiguous,
)

import oracles
from oracles import FROZEN

THETA = math.pi / 6.0


def ideal_config(trials=200_000, seed=0, theta=THETA, t=0.6):
    return ExperimentConfig(
        theta=theta, vrc_transmittance=t, trials=trials, seed=seed
    )


# A bench with every imperfection on, so that all twelve cells fire.
NOISY = ImperfectionModel(
    eta_d0=0.8,
    eta_db=0.7,
    phase_noise_sigma=0.3,
    singlet_visibility=0.9,
    splitter_imbalance=0.05,
)


def noisy_config(trials=300_000, seed=3):
    return ExperimentConfig(
        theta=math.pi / 5.0,
        vrc_transmittance=0.7,
        trials=trials,
        seed=seed,
        imperfections=NOISY,
    )


def reference_counts(config, rng, feed_forward=True):
    """Counts of the per-trial reference sampler for an ExperimentConfig."""
    imp = config.imperfections
    return oracles.sample_bench_trials(
        config.theta,
        config.vrc_transmittance,
        config.trials,
        rng,
        phase_sigma=imp.phase_noise_sigma,
        visibility=imp.singlet_visibility,
        imbalance=imp.splitter_imbalance,
        eta_outcome=(imp.eta_d0, imp.eta_d1),
        eta_detector=(imp.eta_da, imp.eta_db, imp.eta_di),
        feed_forward=feed_forward,
    )


def expected_cells(config, feed_forward=True):
    """Registered-cell probabilities of the branch model for a config."""
    imp = config.imperfections
    expected = oracles.bench_expectations(
        config.theta,
        config.vrc_transmittance,
        phase_sigma=imp.phase_noise_sigma,
        visibility=imp.singlet_visibility,
        imbalance=imp.splitter_imbalance,
        feed_forward=feed_forward,
    )
    registered = oracles.thinned_cells(
        expected["cells"], (imp.eta_d0, imp.eta_d1), (imp.eta_da, imp.eta_db, imp.eta_di)
    )
    return expected, registered


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
    with pytest.raises(DomainError, match="trials"):
        ExperimentConfig(
            theta=0.3, vrc_transmittance=0.5, trials=MAX_TRIALS + 1, seed=0
        )
    # the theta domain is the one of measurement_pair: TOL slack, clamped
    edge = ExperimentConfig(theta=-1e-13, vrc_transmittance=0.5, trials=10, seed=0)
    assert edge.theta == 0.0
    with pytest.raises(DomainError, match="theta"):
        ExperimentConfig(theta=-1e-11, vrc_transmittance=0.5, trials=10, seed=0)


def test_the_largest_trial_count_draws_at_once():
    config = ideal_config(trials=MAX_TRIALS)
    counts = run_trials(config)
    assert counts.total == MAX_TRIALS
    est = estimate(counts)
    assert est.point.p_inconclusive == pytest.approx(0.3, abs=1e-8)


def test_coincidence_counts_validation():
    with pytest.raises(ValidationError, match="shape"):
        CoincidenceCounts(counts=np.zeros((2, 2)), trials=10)
    with pytest.raises(ValidationError, match="non-negative"):
        CoincidenceCounts(counts=np.full((2, 2, 3), -1), trials=10)
    with pytest.raises(ValidationError, match="exceed"):
        CoincidenceCounts(counts=np.ones((2, 2, 3)), trials=5)
    counts = CoincidenceCounts(counts=np.arange(12).reshape(2, 2, 3), trials=100)
    assert counts.total == 66
    assert counts.counts[1, 1, 2] == 11


# --- determinism ---


def test_runs_are_reproducible():
    first = run_trials(ideal_config())
    second = run_trials(ideal_config())
    np.testing.assert_array_equal(first.counts, second.counts)
    different_seed = run_trials(ideal_config(seed=1))
    assert (different_seed.counts != first.counts).any()
    different_stream = run_trials(ideal_config(), stream=3)
    assert (different_stream.counts != first.counts).any()


def labnoise_with(**changes):
    return dataclasses.replace(load_imperfections("labnoise"), **changes)


def test_cell_probabilities_match_the_branch_model():
    rng = np.random.default_rng(2024)
    models = [
        ImperfectionModel.ideal(),
        load_imperfections("labnoise"),
        labnoise_with(singlet_visibility=0.7),
        labnoise_with(eta_d0=0.55, eta_d1=0.9, eta_da=0.8, eta_db=0.65, eta_di=0.95),
        ImperfectionModel(splitter_imbalance=0.5, phase_noise_sigma=1.5),
    ]
    for _ in range(40):
        etas = rng.uniform(0.05, 1.0, 5)
        models.append(
            ImperfectionModel(
                *etas,
                phase_noise_sigma=float(rng.uniform(0.0, 2.0)),
                singlet_visibility=float(rng.uniform(0.0, 1.0)),
                splitter_imbalance=float(rng.uniform(-0.5, 0.5)),
            )
        )
    thetas = [0.0, math.pi / 4.0, *rng.uniform(0.0, math.pi / 4.0, 3)]
    t_values = [0.0, 1.0, *rng.uniform(0.0, 1.0, 3)]
    worst = 0.0
    for imp in models:
        for theta in thetas:
            for t_value in t_values:
                config = ExperimentConfig(
                    theta=float(theta),
                    vrc_transmittance=float(t_value),
                    trials=1,
                    seed=0,
                    imperfections=imp,
                )
                cells = cell_probabilities(config)
                _, want = expected_cells(config)
                worst = max(worst, float(np.max(np.abs(cells - want))))
                assert cells.min() >= 0.0 and cells.sum() <= 1.0 + 1e-15
    assert worst <= 1e-15


def test_counts_match_the_per_trial_reference():
    # Pooled over seeds, production counts and the trial-by-trial sampler
    # are two samples of one multinomial: a homogeneity chi-square test.
    from scipy.stats import chi2_contingency

    trials = 20_000
    production = np.zeros(13, dtype=np.int64)
    reference = np.zeros(13, dtype=np.int64)
    for seed in range(200):
        config = noisy_config(trials=trials, seed=seed)
        counts = run_trials(config).counts.ravel()
        production += np.append(counts, trials - counts.sum())
        sampled = reference_counts(config, np.random.default_rng(10_000 + seed))
        reference += np.append(sampled.ravel(), trials - sampled.sum())
    assert production.min() > 1000 and reference.min() > 1000
    _, p_value, dof, _ = chi2_contingency(np.vstack([production, reference]))
    assert dof == 12
    assert p_value > 1e-3


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


def test_error_bars_are_binomial_at_unit_efficiency():
    rng = np.random.default_rng(11)
    for _ in range(200):
        raw = rng.integers(0, 5000, size=(2, 2, 3))
        raw[rng.random((2, 2, 3)) < 0.2] = 0
        raw[0, 0, 0] += 1
        raw[0, 0, 2] += 1
        counts = CoincidenceCounts(counts=raw, trials=int(raw.sum()))
        est = estimate(counts)
        n = counts.total
        for p, sigma in zip(
            (est.point.p_success, est.point.p_error, est.point.p_inconclusive),
            est.std_errors,
        ):
            assert sigma == pytest.approx(math.sqrt(p * (1.0 - p) / n), rel=1e-12)
        rel = est.rel_success
        assert est.rel_success_sigma == pytest.approx(
            math.sqrt(rel * (1.0 - rel) / est.conclusive), rel=1e-12
        )


@pytest.mark.parametrize(
    "etas",
    [(1.0, 1.0, 1.0, 1.0, 1.0), (0.5, 1.0, 1.0, 0.4, 0.6)],
    ids=["unit-efficiency", "lossy"],
)
def test_error_bars_cover_the_branch_model(etas):
    # 2 000 multinomial rows drawn from the branch model: each 2-sigma
    # interval must cover the truth 95.45 % of the time, within four
    # binomial standard deviations of that rate.
    imp = ImperfectionModel(
        *etas, phase_noise_sigma=0.3, singlet_visibility=0.9, splitter_imbalance=0.05
    )
    config = ExperimentConfig(
        theta=math.pi / 5.0, vrc_transmittance=0.7, trials=1, seed=0,
        imperfections=imp,
    )
    expected, registered = expected_cells(config)
    pvals = np.append(registered.ravel(), 1.0 - registered.sum())
    truth = (
        expected["p_success"], expected["p_error"], expected["p_inc"],
        expected["rel_success"],
    )
    rows, trials = 2000, 20_000
    hits = np.zeros(4)
    for draw in np.random.default_rng(5).multinomial(trials, pvals, size=rows):
        est = estimate(CoincidenceCounts(draw[:12].reshape(2, 2, 3), trials), imp)
        point = est.point
        values = (point.p_success, point.p_error, point.p_inconclusive, est.rel_success)
        sigmas = (*est.std_errors, est.rel_success_sigma)
        hits += [abs(v - t) <= 2.0 * s for v, t, s in zip(values, truth, sigmas)]
    rate = 0.9545
    band = 4.0 * math.sqrt(rate * (1.0 - rate) / rows)
    assert np.all(np.abs(hits / rows - rate) <= band), hits / rows


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


def test_ideal_bench_cells_lie_exactly_on_the_entangled_curve():
    # Filter transmittance T spends P_I = (1 - T) cos^2(theta); from
    # T = tan^2(theta) on, that budget stays within [0, cos 2theta].
    device, outcome, detector = np.indices((2, 2, 3))
    success = detector == device ^ outcome
    for theta in np.arange(1, 10) * math.pi / 40.0:
        for t in np.linspace(math.tan(theta) ** 2, 1.0, 11):
            cells = cell_probabilities(ideal_config(trials=1, theta=theta, t=t))
            p_inc = (1.0 - t) * math.cos(theta) ** 2
            assert abs(cells[..., 2].sum() - p_inc) <= 1e-15
            closed = entangled_success(theta, p_inc)
            assert abs(cells[success].sum() - closed.p_success) <= 1e-15
    # The frozen filters at theta = pi/6, as transmittances T = f^2: f spends
    # P_I = 0.3, and f = tan(theta) reaches the unambiguous point (0.5, 0, 0.5).
    theta = math.pi / 6.0
    pair = measurement_pair(theta)
    error = ~success & (detector < 2)
    for f, p_inc, p_success in (
        (FROZEN["filter_pi6_p03"], 0.3, FROZEN["ps_entangled_pi6_p03"]),
        (FROZEN["idp_filter_pi6"], 0.5, 0.5),
    ):
        cells = cell_probabilities(ideal_config(trials=1, theta=theta, t=f * f))
        point = (cells[success].sum(), cells[error].sum(), cells[..., 2].sum())
        assert abs(point[2] - p_inc) <= 1e-15
        assert abs(point[0] - p_success) <= 1e-15
        blocks = oracles.protocol_tester_blocks(theta, f)
        np.testing.assert_allclose(
            point, oracles.tester_probabilities(blocks, pair), rtol=0.0, atol=1e-15
        )
    assert not cells[error].any()  # no error cell fires at the unambiguous point


def test_noisy_bench_matches_the_branch_model():
    config = noisy_config()
    expected, registered = expected_cells(config)
    reference = reference_counts(config, np.random.default_rng(3))
    for counts in (
        run_trials(config),
        CoincidenceCounts(counts=reference, trials=config.trials),
    ):
        est = estimate(counts, NOISY)
        assert_within_sigma(
            est.point.p_success, expected["p_success"], est.std_errors[0]
        )
        assert_within_sigma(est.point.p_error, expected["p_error"], est.std_errors[1])
        assert_within_sigma(
            est.point.p_inconclusive, expected["p_inc"], est.std_errors[2]
        )
        # raw registered counts match the thinned branch model cell by cell
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
        (lossy.std_errors[0], lossy.std_errors[2]),
        (clean.std_errors[0], clean.std_errors[2]),
    ):
        assert abs(got - want) <= 4.0 * math.hypot(s1, s2)


def test_feed_forward_correction_matters():
    # The bench always corrects; its cells are the corrected branch model.
    config = ideal_config(trials=200_000)
    _, corrected = expected_cells(config, feed_forward=True)
    np.testing.assert_allclose(cell_probabilities(config), corrected, rtol=0, atol=1e-15)
    # Without the correction (reference sampler only) the conditional
    # success rate drops.
    with_ff = estimate(run_trials(config))
    raw = reference_counts(config, np.random.default_rng(0), feed_forward=False)
    without_ff = estimate(CoincidenceCounts(counts=raw, trials=config.trials))
    expected = oracles.bench_expectations(THETA, 0.6, feed_forward=False)
    assert_within_sigma(
        without_ff.point.p_success, expected["p_success"], without_ff.std_errors[0]
    )
    gap = with_ff.rel_success - without_ff.rel_success
    sigma = math.hypot(with_ff.rel_success_sigma, without_ff.rel_success_sigma)
    assert gap > 5.0 * sigma


# --- working-point scans ---


def assert_rows_match_the_per_config_route(table, imp, trials, seed):
    """Row k of a scan is, bit for bit, estimate(run_trials(config, stream=k))."""
    device, outcome, detector = np.indices((2, 2, 3))
    error = detector == 1 - (device ^ outcome)
    for k, (theta, t_value) in enumerate(zip(table["theta"], table["transmittance"])):
        config = ExperimentConfig(theta, t_value, trials, seed, imp)
        counts = run_trials(config, stream=k)
        est = estimate(counts, imp)
        want = {
            "p_inc": est.point.p_inconclusive,
            "p_inc_sigma": est.std_errors[2],
            "p_success": est.point.p_success,
            "p_success_sigma": est.std_errors[0],
            "p_error": est.point.p_error,
            "p_error_sigma": est.std_errors[1],
            "rel_success": est.rel_success,
            "rel_success_sigma": est.rel_success_sigma,
            "error_counts": float(counts.counts[error].sum()),
        }
        for name in list(table)[2:]:
            got = table[name][k]
            assert got == want[name] or (math.isnan(got) and math.isnan(want[name])), (
                name, k, got, want[name]
            )


def test_intermediate_scan_layout_and_streams():
    table = scan_intermediate(
        theta_list=[THETA], transmittance_list=[0.8, 0.5], trials=50_000
    )
    assert list(table) == list(SCAN_COLUMNS)
    assert all(column.shape == (2,) for column in table.values())
    assert table["theta"].tolist() == [THETA, THETA]
    assert table["transmittance"].tolist() == [0.8, 0.5]
    again = scan_intermediate(
        theta_list=[THETA], transmittance_list=[0.8, 0.5], trials=50_000
    )
    for name, column in table.items():
        np.testing.assert_array_equal(again[name], column)
    # Row k of either scan reproduces a direct run on stream k, bit for bit,
    # on the edges of the grid. On an ideal bench the unambiguous point
    # T = 0 leaves no conclusive event, so its rel_success is NaN.
    for imp in (ImperfectionModel.ideal(), load_imperfections("labnoise")):
        grid = scan_intermediate([0.0, math.pi / 4.0], [0.0, 1.0], 20_000, 4, imp)
        assert grid["theta"].tolist() == [0.0, 0.0, math.pi / 4.0, math.pi / 4.0]
        assert grid["transmittance"].tolist() == [0.0, 1.0, 0.0, 1.0]
        assert_rows_match_the_per_config_route(grid, imp, 20_000, 4)
        points = scan_unambiguous([0.0, 1.0], 20_000, 4, imp)
        assert list(points) == [*SCAN_COLUMNS, "error_counts"]
        assert_rows_match_the_per_config_route(points, imp, 20_000, 4)
        assert math.isnan(points["rel_success"][0]) == (imp.singlet_visibility == 1.0)


def test_default_theta_grid_spans_the_angle_range():
    assert len(DEFAULT_THETA_GRID) == 7
    assert DEFAULT_THETA_GRID[0] == pytest.approx(math.pi / 30.0)
    assert DEFAULT_THETA_GRID[-1] < math.pi / 4.0


def test_unambiguous_scan_has_no_errors_on_an_ideal_bench():
    table = scan_unambiguous(transmittance_list=[0.2, 0.6, 1.0], trials=150_000)
    assert list(table) == [*SCAN_COLUMNS, "error_counts"]
    assert not table["error_counts"].any()  # no wrong-port coincidences at all
    for k, t_value in enumerate(table["transmittance"]):
        theta = math.atan(math.sqrt(t_value))
        assert table["theta"][k] == pytest.approx(theta, abs=1e-15)
        ps, ps_sigma = table["p_success"][k], table["p_success_sigma"][k]
        pi, pi_sigma = table["p_inc"][k], table["p_inc_sigma"][k]
        assert_within_sigma(ps, 2.0 * t_value / (1.0 + t_value), ps_sigma)
        assert_within_sigma(pi, (1.0 - t_value) / (1.0 + t_value), pi_sigma)


def test_unambiguous_scan_errors_stay_bounded_with_bench_noise():
    bench = load_imperfections("labnoise")
    table = scan_unambiguous(
        transmittance_list=[0.3, 0.7], trials=100_000, imperfections=bench
    )
    assert table["p_error"].max() <= 0.032
