"""Command-line front end: outputs, manifests, exit codes, replay."""

import dataclasses
import hashlib
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from measdiscrim import PovmTriple, __version__, boundary_PIB, tangent_PIT
from measdiscrim import cli, oracle
from measdiscrim.cli import MAX_SAMPLES, main

from oracles import FROZEN

PI6 = "0.5235987755982988"


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# artifact=")
    columns = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        values = []
        for cell in line.split(","):
            if cell == "":
                values.append(None)
            else:
                try:
                    values.append(float(cell))
                except ValueError:
                    values.append(cell)
        rows.append(dict(zip(columns, values)))
    return columns, rows


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def checksums_match(out_dir):
    manifest = read_manifest(out_dir)
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == digest


# --- curves ---


def test_curves_default_grid(tmp_path):
    assert main(["curves", "--theta", PI6, "--out", str(tmp_path)]) == 0
    columns, rows = read_csv(tmp_path / "curves.csv")
    assert columns == [
        "p_inc",
        "ps_entangled",
        "ps_single_optimal",
        "ps_single_pure",
        "pts_entangled",
        "pts_single",
        "advantage",
    ]
    assert len(rows) == 51
    first = rows[0]
    assert first["p_inc"] == 0.0
    assert first["ps_entangled"] == pytest.approx(FROZEN["helstrom_pi6"], abs=1e-12)
    assert first["advantage"] == pytest.approx(0.0, abs=1e-12)
    by_budget = {row["p_inc"]: row for row in rows}
    assert by_budget[0.3]["ps_entangled"] == pytest.approx(
        FROZEN["ps_entangled_pi6_p03"], abs=1e-12
    )
    assert by_budget[0.3]["advantage"] == pytest.approx(
        FROZEN["advantage_pi6_p03"], abs=1e-12
    )
    assert all(row["advantage"] >= -1e-12 for row in rows if row["advantage"] is not None)
    checksums_match(tmp_path)


def test_curves_budgets_past_the_entangled_endpoint_are_blank(tmp_path):
    code = main(
        ["curves", "--theta", PI6, "--pi-grid", "0.4:0.6:0.1", "--out", str(tmp_path)]
    )
    assert code == 0
    _, rows = read_csv(tmp_path / "curves.csv")
    assert [row["p_inc"] for row in rows] == [0.4, 0.5, 0.6]
    assert rows[1]["ps_entangled"] is not None  # endpoint itself is on the curve
    assert rows[2]["ps_entangled"] is None
    assert rows[2]["advantage"] is None
    assert rows[2]["ps_single_optimal"] is not None


def test_curves_degrees_flag_matches_radians(tmp_path):
    rad_dir = tmp_path / "rad"
    deg_dir = tmp_path / "deg"
    assert main(["curves", "--theta", repr(math.radians(30.0)), "--out", str(rad_dir)]) == 0
    assert main(["curves", "--degrees", "--theta", "30", "--out", str(deg_dir)]) == 0
    assert (rad_dir / "curves.csv").read_bytes() == (deg_dir / "curves.csv").read_bytes()


def test_curves_json_format(tmp_path):
    code = main(
        ["curves", "--theta", "0.7854", "--pi-grid", "0.3", "--format", "json",
         "--out", str(tmp_path)]
    )
    assert code == 0
    payload = json.loads((tmp_path / "curves.json").read_text())
    assert payload["columns"][0] == "p_inc"
    assert len(payload["rows"]) == 1
    row = dict(zip(payload["columns"], payload["rows"][0]))
    # 0.7854 snaps to the exact right edge where both bases coincide
    assert row["ps_single_optimal"] == pytest.approx(0.7, abs=1e-12)
    assert row["ps_entangled"] is None


def test_curves_domain_errors(tmp_path, capsys):
    assert main(["curves", "--theta", "2.0", "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert (
        main(["curves", "--theta", PI6, "--pi-grid", "0:0.7:0.1",
              "--out", str(tmp_path)])
        == 2
    )
    assert "achievable range" in capsys.readouterr().err
    assert (
        main(["curves", "--theta", PI6, "--pi-grid", "0.3:0.1:-0.1",
              "--out", str(tmp_path)])
        == 2
    )


# --- hull ---


def test_hull_report(tmp_path):
    assert main(["hull", "--c", "0.9", "--samples", "2000", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "hull_report.json").read_text())
    assert not report["degenerate"]
    assert report["max_deviation"] <= 1e-6
    assert report["tangent_p_inc"] == pytest.approx(tangent_PIT(0.9), abs=1e-6)
    assert report["point_a"][0] == 0.0
    assert report["point_u"] == [pytest.approx(0.905), pytest.approx(0.095)]
    _, vertices = read_csv(tmp_path / "hull_vertices.csv")
    assert vertices[0]["p_inc"] == 0.0
    assert len(vertices) == report["n_vertices"]
    # random draws past the endpoint budget are discarded, so at most 2000
    _, points = read_csv(tmp_path / "hull_points.csv")
    assert 1900 <= len(points) <= 2000
    checksums_match(tmp_path)


@pytest.mark.parametrize("samples", [MAX_SAMPLES + 1, 10**20])
def test_hull_bounds_the_sample_count(tmp_path, capsys, samples):
    # the README and benchmark size stays allowed
    assert MAX_SAMPLES >= 10_000
    start = time.perf_counter()
    code = main(["hull", "--c", "0.5", "--samples", str(samples), "--out", str(tmp_path)])
    assert code == 2
    assert f"at most {MAX_SAMPLES} samples" in capsys.readouterr().err
    assert time.perf_counter() - start < 1.0
    assert not (tmp_path / "manifest.json").exists()


def test_hull_degenerate_overlap(tmp_path):
    assert main(["hull", "--c", "1.0", "--samples", "500", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "hull_report.json").read_text())
    assert report["degenerate"]
    assert report["tangent_p_inc"] is None
    assert report["point_t"] is None


def test_hull_rejects_bad_overlap(tmp_path, capsys):
    assert main(["hull", "--c", "1.5", "--out", str(tmp_path)]) == 2
    assert "overlap" in capsys.readouterr().err


# --- convexity ---


def test_convexity_table(tmp_path):
    code = main(
        ["convexity", "--c-grid", "0.3:0.7:0.2", "--out", str(tmp_path)]
    )
    assert code == 0
    _, rows = read_csv(tmp_path / "convexity.csv")
    branches = {row["branch"] for row in rows}
    assert branches <= {"convex", "concave", "boundary"}
    assert "convex" in branches and "concave" in branches
    for row in rows:
        if row["branch"] == "convex":
            assert row["d2_analytic"] >= -1e-9
            assert row["rel_err"] <= 1e-3
        elif row["branch"] == "concave":
            assert row["d2_analytic"] < 0.0
            assert row["rel_err"] <= 1e-3
    checksums_match(tmp_path)


def test_convexity_explicit_budgets_straddle_both_branches(tmp_path):
    code = main(
        ["convexity", "--c-grid", "0.5", "--pi-grid", "0.1:0.6:0.1",
         "--out", str(tmp_path)]
    )
    assert code == 0
    _, rows = read_csv(tmp_path / "convexity.csv")
    assert [row["branch"] for row in rows] == ["convex"] * 5 + ["concave"]
    assert rows[-1]["p_inc"] == 0.6
    assert rows[-1]["d2_analytic"] < 0.0


@pytest.mark.parametrize(
    "grid, message",
    [("0.1:0.9:1e-12", "more than 100000 points"), ("0.1:inf:0.1", "must be finite")],
)
def test_convexity_rejects_an_unbounded_grid(tmp_path, capsys, grid, message):
    code = main(["convexity", "--c-grid", grid, "--out", str(tmp_path)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


def test_convexity_rejects_bad_inputs(tmp_path, capsys):
    assert main(["convexity", "--c-grid", "0:0.9:0.1", "--out", str(tmp_path)]) == 2
    assert "strictly inside" in capsys.readouterr().err
    assert main(["convexity", "--h", "0", "--c-grid", "0.5", "--out", str(tmp_path)]) == 2
    assert main(["convexity", "--c-grid", "abc", "--out", str(tmp_path)]) == 2
    # a step whose square underflows would write inf into the table
    assert main(["convexity", "--h", "5e-324", "--c-grid", "0.5", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("h", ["nan", "-inf", "inf"])
def test_convexity_rejects_a_non_finite_step(tmp_path, capsys, h):
    # `--h=-inf` keeps argparse from reading the value as an option.
    assert main(["convexity", "--c-grid", "0.5", f"--h={h}", "--out", str(tmp_path)]) == 2
    assert "step h must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


# --- oracle ---


def test_oracle_report_matches_the_curve(tmp_path):
    code = main(["oracle", "--theta", PI6, "--pi", "0.3", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "oracle_report.json").read_text())
    assert report["converged"]
    assert abs(report["gap_to_closed_form"]) <= 1e-4
    assert report["gap"] <= 1e-4
    assert report["gap"] == pytest.approx(report["upper_bound"] - report["p_success"], abs=1e-15)
    # the stored dual point proves the bound: Y ⪰ m0, n0 and λ(m0 + n0)
    y = np.array(report["certificate"]["y"])
    lam = report["certificate"]["lam"]
    assert 0.5 * np.trace(y) - lam * report["p_inc"] == pytest.approx(
        report["upper_bound"], abs=1e-15
    )
    assert report["closed_form_p_success"] == pytest.approx(
        FROZEN["ps_entangled_pi6_p03"], abs=1e-12
    )
    assert report["p_inc"] == pytest.approx(0.3, abs=1e-15)
    assert not {"seed", "restarts", "restart_values", "best_restart"} & set(report)
    assert "restarts" not in read_manifest(tmp_path)["parameters"]
    # the stored blocks reconstruct a valid tester with those probabilities
    triple = PovmTriple(
        h_m=np.array(report["blocks"]["h_m"]),
        h_n=np.array(report["blocks"]["h_n"]),
        h_i=np.array(report["blocks"]["h_i"]),
    )
    assert triple.rho.shape == (2, 2)
    checksums_match(tmp_path)


def test_oracle_exits_3_without_a_dual_tester(tmp_path, monkeypatch):
    # with no tester from the dual point, the blind tester is reported,
    # uncertified, with its finite gap
    dual_bound = oracle._dual_bound
    monkeypatch.setattr(oracle, "_dual_bound", lambda *args: (*dual_bound(*args)[:3], None))
    code = main(["oracle", "--theta", PI6, "--pi", "0.3", "--out", str(tmp_path)])
    assert code == cli.EXIT_NONCONVERGED
    report = json.loads((tmp_path / "oracle_report.json").read_text())
    assert report["converged"] is False
    assert 1e-4 < report["gap"] < 1.0
    assert report["p_inc"] == pytest.approx(0.3, abs=1e-15)
    checksums_match(tmp_path)


def test_oracle_exits_3_when_the_search_does_not_converge(tmp_path, monkeypatch):
    search = cli.optimize_povm
    monkeypatch.setattr(
        cli,
        "optimize_povm",
        lambda *args, **kwargs: dataclasses.replace(search(*args, **kwargs), converged=False),
    )
    code = main(["oracle", "--theta", PI6, "--pi", "0.3", "--out", str(tmp_path)])
    assert code == cli.EXIT_NONCONVERGED == 3
    report = json.loads((tmp_path / "oracle_report.json").read_text())
    assert report["converged"] is False
    checksums_match(tmp_path)


def test_oracle_accepts_a_tiny_angle_and_budget(tmp_path, capsys):
    # an H_I eigenvalue of -8.6e-11 here once gave P_I = -1.7e-10 and exit 2
    code = main(
        ["oracle", "--theta", "6.436445874855116e-07", "--pi", "6.116474029169209e-10",
         "--out", str(tmp_path)]
    )
    assert code in (0, 3), capsys.readouterr().err
    report = json.loads((tmp_path / "oracle_report.json").read_text())
    assert report["p_inc"] >= 0.0


def test_oracle_snaps_the_angle_endpoint(tmp_path):
    code = main(
        ["oracle", "--theta", "0.7854", "--pi", "0", "--out", str(tmp_path)]
    )
    assert code == 0
    report = json.loads((tmp_path / "oracle_report.json").read_text())
    assert report["theta"] == pytest.approx(math.pi / 4.0, abs=0.0)
    assert report["p_success"] == pytest.approx(1.0, abs=1e-6)


def test_oracle_rejects_unreachable_targets(tmp_path, capsys):
    assert main(["oracle", "--theta", PI6, "--pi", "0.6", "--out", str(tmp_path)]) == 2
    assert "inconclusive target" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--restarts", "0"), ("--restarts", "-3"), ("--tol", "nan"), ("--tol", "-1")],
)
def test_oracle_rejects_bad_search_settings(tmp_path, capsys, flag, value):
    argv = ["oracle", "--theta", PI6, "--pi", "0.3", flag, value, "--out", str(tmp_path)]
    if flag == "--restarts":
        # --restarts went with the ascent it capped: the parser refuses it
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --restarts" in capsys.readouterr().err
    else:
        assert main(argv) == 2
        assert flag.lstrip("-") in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


# --- simulate ---


def test_simulate_unambiguous_is_deterministic(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    args = ["simulate", "--mode", "unambiguous", "--trials", "20000"]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert (first / "simulate.csv").read_bytes() == (second / "simulate.csv").read_bytes()
    columns, rows = read_csv(first / "simulate.csv")
    assert len(rows) == 11
    assert columns[-1] == "error_counts"
    assert all(row["error_counts"] == 0.0 for row in rows)
    manifest = read_manifest(first)
    assert manifest["parameters"]["noise"]["singlet_visibility"] == 1.0
    checksums_match(first)


def test_simulate_intermediate_grid(tmp_path):
    code = main(
        ["simulate", "--mode", "intermediate", "--theta", PI6, "--t-grid",
         "1.0:0.6:-0.2", "--trials", "10000", "--out", str(tmp_path)]
    )
    assert code == 0
    _, rows = read_csv(tmp_path / "simulate.csv")
    assert [row["transmittance"] for row in rows] == [1.0, 0.8, 0.6]
    assert all(row["theta"] == pytest.approx(math.pi / 6.0) for row in rows)


@pytest.mark.parametrize(
    "line, message",
    [
        ("phase_noise_sigma_rad = nan", "phase_noise_sigma must be finite"),
        ("eta_D0 = high", "eta_D0 needs a number, got 'high'"),
    ],
)
def test_simulate_rejects_a_bad_noise_file(tmp_path, line, message):
    noise = tmp_path / "noise.cfg"
    noise.write_text(f"{line}\n")
    result = subprocess.run(
        [sys.executable, "-m", "measdiscrim.cli", "simulate", "--mode", "unambiguous",
         "--trials", "1000", "--noise", str(noise), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert message in result.stderr
    assert "Traceback" not in result.stderr


def test_simulate_with_a_noise_preset(tmp_path):
    code = main(
        ["simulate", "--mode", "unambiguous", "--t-grid", "0.5", "--trials",
         "20000", "--noise", "labnoise", "--out", str(tmp_path)]
    )
    assert code == 0
    manifest = read_manifest(tmp_path)
    assert manifest["parameters"]["noise"]["phase_noise_sigma_rad"] == 0.1
    assert manifest["parameters"]["noise"]["singlet_visibility"] == 0.98
    _, rows = read_csv(tmp_path / "simulate.csv")
    assert rows[0]["p_error"] <= 0.032


def test_simulate_rejects_an_oversized_grid(tmp_path, capsys):
    code = main(
        ["simulate", "--mode", "unambiguous", "--t-grid", "0:1:1e-12",
         "--out", str(tmp_path)]
    )
    assert code == 2
    assert "more than 100000 points" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


def test_simulate_bounds_the_trial_count(tmp_path, capsys):
    args = ["simulate", "--mode", "unambiguous", "--t-grid", "0.5"]
    code = main(args + ["--trials", "100000000000000000000", "--out", str(tmp_path)])
    assert code == 2
    assert "trials must lie in" in capsys.readouterr().err
    # one multinomial draw per row: a huge legal count costs no more time
    start = time.perf_counter()
    code = main(args + ["--trials", "1000000000000000", "--out", str(tmp_path)])
    assert code == 0
    assert time.perf_counter() - start < 1.0


def test_simulate_rejects_unknown_noise(tmp_path, capsys):
    code = main(
        ["simulate", "--mode", "unambiguous", "--noise", "doesnotexist",
         "--out", str(tmp_path)]
    )
    assert code == 2
    assert "unknown noise preset" in capsys.readouterr().err


# --- replay ---


def run_small_simulate(out_dir):
    args = ["simulate", "--mode", "unambiguous", "--t-grid", "0.4:0.8:0.2",
            "--trials", "5000", "--out", str(out_dir)]
    assert main(args) == 0


def test_replay_reproduces_outputs(tmp_path, capsys):
    run_small_simulate(tmp_path)
    assert main(["replay", str(tmp_path / "manifest.json")]) == 0
    out = capsys.readouterr().out
    assert "replay ok" in out
    replayed = tmp_path / "replay" / "simulate.csv"
    assert replayed.read_bytes() == (tmp_path / "simulate.csv").read_bytes()


def test_replay_detects_tampered_parameters(tmp_path, capsys):
    run_small_simulate(tmp_path)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["parameters"]["trials"] = 6000
    path.write_text(json.dumps(manifest))
    assert main(["replay", str(path)]) == 2
    assert "checksum does not match" in capsys.readouterr().err


def test_replay_names_a_version_mismatch(tmp_path, capsys):
    run_small_simulate(tmp_path)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["artifact_version"] = "0.0.9"
    path.write_text(json.dumps(manifest))
    assert main(["replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert "0.0.9" in err
    assert __version__ in err
    assert "checksum" not in err


def test_replay_detects_tampered_outputs(tmp_path, capsys):
    run_small_simulate(tmp_path)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["outputs"]["simulate.csv"] = "0" * 64
    path.write_text(json.dumps(manifest))
    assert main(["replay", str(path), "--out", str(tmp_path / "check")]) == 4
    assert "replay mismatch" in capsys.readouterr().err


def test_replay_requires_a_manifest(tmp_path, capsys):
    assert main(["replay", str(tmp_path / "missing.json")]) == 2
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"command": "curves"}))
    assert main(["replay", str(incomplete)]) == 2
    assert "missing" in capsys.readouterr().err
    for text, message in (
        ("{not json", "not valid JSON"),
        ("[1, 2]", "must be a JSON object"),
    ):
        incomplete.write_text(text)
        assert main(["replay", str(incomplete)]) == 2
        assert message in capsys.readouterr().err
    run_small_simulate(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["outputs"] = None
    incomplete.write_text(json.dumps(manifest))
    assert main(["replay", str(incomplete)]) == 2
    assert "outputs must map" in capsys.readouterr().err


def rewrite_parameters(manifest_path, target, edit):
    """Write `target`: the manifest with edited parameters and a matching checksum."""
    manifest = json.loads(manifest_path.read_text())
    manifest["parameters"] = edit(manifest["parameters"])
    manifest["params_checksum"] = cli._params_checksum(
        manifest["command"], manifest["parameters"], manifest["seed"]
    )
    target.write_text(json.dumps(manifest))
    return target


def edited(key, value=None, drop=False):
    def edit(parameters):
        parameters = dict(parameters)
        if drop:
            del parameters[key]
        else:
            parameters[key] = value
        return parameters

    return edit


@pytest.mark.parametrize(
    "command, edit, messages",
    [
        ("curves", lambda _: [1, 2], ["parameters must be a JSON object"]),
        ("curves", edited("pi_grid", drop=True), ["do not run", "KeyError('pi_grid')"]),
        ("curves", edited("theta", "x"), ["do not run", "ValueError"]),
        ("convexity", edited("pi_grid", "abc"), ["do not run", "TypeError"]),
        ("convexity", edited("pi_grid", [[0.1]]), ["do not run", "IndexError"]),
        ("simulate", edited("noise", None), ["do not run", "AttributeError"]),
        ("curves", edited("format", "xml"), ["format must be csv or json"]),
        ("curves", edited("format", "/../../x"), ["format must be csv or json"]),
    ],
)
def test_replay_rejects_malformed_parameters_with_a_matching_checksum(
    tmp_path, capsys, command, edit, messages
):
    argv = {
        "curves": ["curves", "--theta", "0.3", "--pi-grid", "0:0.2:0.1"],
        "convexity": ["convexity", "--c-grid", "0.5", "--pi-grid", "0.1:0.3:0.1"],
        "simulate": ["simulate", "--mode", "unambiguous", "--t-grid", "0.5", "--trials", "100"],
    }[command]
    run = tmp_path / "run"
    assert main([*argv, "--out", str(run)]) == 0
    manifest = rewrite_parameters(run / "manifest.json", tmp_path / "bad.json", edit)
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / "replay"
    assert main(["replay", str(manifest), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(message in err for message in messages), err
    # a parameter that fails to re-run names the manifest
    assert ("do not run" in err) == (str(manifest) in err)
    # nothing is written, inside --out or outside it
    assert sorted(tmp_path.rglob("*")) == before


def test_an_out_path_that_is_a_file_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("keep")
    argv = ["curves", "--theta", "0.3", "--pi-grid", "0:0.2:0.1"]
    assert main([*argv, "--out", str(blocker)]) == 2
    assert "cannot write outputs" in capsys.readouterr().err
    assert main([*argv, "--out", str(blocker / "sub")]) == 2
    assert "cannot write outputs" in capsys.readouterr().err
    run = tmp_path / "run"
    assert main([*argv, "--out", str(run)]) == 0
    assert main(["replay", str(run / "manifest.json"), "--out", str(blocker)]) == 2
    assert "cannot write outputs" in capsys.readouterr().err
    assert blocker.read_text() == "keep"


def test_grid_counts_within_the_snap_of_a_whole_number_snap_to_it():
    # n + δ steps: |δ| ≤ GRID_SNAP gives n + 1 points, and otherwise the
    # whole steps that fit, floor(n + δ) + 1
    rng = np.random.default_rng(11)
    snap = cli.GRID_SNAP
    cases = [(0.0, True), (1e-12, True), (-1e-12, True), (0.5 * snap, True),
             (-0.5 * snap, True), (2.0 * snap, False), (-2.0 * snap, False),
             (1e-3, False), (-1e-3, False), (0.5, False), (-0.5, False)]
    for _ in range(40):
        n = int(10.0 ** rng.uniform(0.0, math.log10(cli.MAX_GRID_POINTS - 2)))
        start = float(rng.choice([0.0, 0.25, -3.5]))
        step = float(rng.choice([0.01, 0.1, 1.0, 7.0]))
        for delta, snaps in cases:
            stop = start + (n + delta) * step
            grid = cli._parse_grid(f"{start!r}:{stop!r}:{step!r}")
            expected = n + 1 if snaps else math.floor(n + delta) + 1
            assert len(grid) == expected, (start, stop, step, delta)


# --- seeded fuzzing of every subcommand ---


@pytest.mark.parametrize(
    "argv, message",
    [
        (["hull", "--c", "0.5", "--seed=-1"], "seed must be non-negative"),
        (["convexity", "--c-grid", "0.9:0.4:5e-324"], "never reaches the stop"),
        (["simulate", "--mode", "unambiguous", "--t-grid=-0.2"], "transmittance"),
        (["simulate", "--mode", "unambiguous", "--theta", "nan"], "theta outside"),
    ],
)
def test_fuzz_findings_exit_2(tmp_path, capsys, argv, message):
    try:
        code = main(argv + ["--out", str(tmp_path)])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err

SPECIAL_NUMBERS = (
    "nan", "inf", "-inf", "-1", "-0.25", "0", "1e308", "-1e308", "1e20",
    "1e-320", "5e-324", "abc", "", "0x10",
)
NOISE_KEYS = (
    "eta_D0", "eta_D1", "eta_DA", "eta_DB", "eta_DI", "phase_noise_sigma_rad",
    "singlet_visibility", "splitter_imbalance",
)


def fuzz_number(rng, low, high):
    if rng.random() < 0.3:
        return str(rng.choice(SPECIAL_NUMBERS))
    return repr(float(rng.uniform(low, high)))


def fuzz_int(rng, bad_values, low, high):
    if rng.random() < 0.35:
        return str(rng.choice(bad_values))
    return str(rng.integers(low, high))


def fuzz_grid(rng, low, high):
    kind = rng.integers(8)
    a, b = sorted(rng.uniform(low, high, 2).tolist())
    if kind == 0:
        return fuzz_number(rng, low, high)
    if kind in (1, 2):
        return f"{a!r}:{b!r}:{(b - a) / rng.integers(1, 5)!r}"
    if kind == 3:
        return f"{b!r}:{a!r}:{(b - a) / 2!r}"  # the step never reaches the stop
    if kind == 4:
        return ""
    if kind == 5:
        return f"{a!r}:{b!r}"
    return ":".join(fuzz_number(rng, low, high) for _ in range(3))


def fuzz_noise_file(rng, path):
    lines = []
    for _ in range(rng.integers(0, 5)):
        kind = rng.integers(6)
        key = str(rng.choice(NOISE_KEYS))
        if kind == 0:
            lines.append(f"{key} {fuzz_number(rng, 0.0, 1.0)}")  # no '='
        elif kind == 1:
            lines.append(f"unknown_key = {fuzz_number(rng, 0.0, 1.0)}")
        elif kind == 2:
            lines.append("# a comment")
        else:
            lines.append(f"{key} = {fuzz_number(rng, -0.1, 1.1)}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def fuzz_flag(rng, name, value):
    # "--x=-inf" keeps argparse from reading a negative value as a flag
    return [f"{name}={value}"] if rng.random() < 0.5 else [name, value]


def fuzz_argv(rng, case_dir, manifests):
    command = str(rng.choice(["curves", "hull", "convexity", "oracle", "simulate", "replay"]))
    if command == "replay":
        kind = rng.integers(5)
        if kind <= 1 and manifests:
            manifest = manifests[rng.integers(len(manifests))]
            if kind == 1:
                data = json.loads(manifest.read_text())
                data[str(rng.choice(["seed", "parameters", "outputs"]))] = None
                manifest = case_dir / "tampered.json"
                manifest.write_text(json.dumps(data))
            return ["replay", str(manifest), "--out", str(case_dir / "replay")]
        bad = case_dir / "manifest.json"
        bad.write_text(str(rng.choice(["{not json", "[1, 2]", "null", '"text"', ""])))
        return ["replay", str(bad if kind < 4 else case_dir / "missing.json")]
    argv = [command]
    if command == "curves":
        argv += fuzz_flag(rng, "--theta", fuzz_number(rng, -0.1, 0.9))
        if rng.random() < 0.5:
            argv += fuzz_flag(rng, "--pi-grid", fuzz_grid(rng, -0.1, 1.1))
    elif command == "hull":
        argv += fuzz_flag(rng, "--c", fuzz_number(rng, -0.2, 1.2))
        # valid sizes stay tiny; counts past MAX_SAMPLES must exit 2 at once
        too_many = [str(MAX_SAMPLES + 1), str(10**20)]
        samples = fuzz_int(rng, ["-5", "0", "99", "1e3", "x", *too_many], 100, 400)
        argv += fuzz_flag(rng, "--samples", samples)
    elif command == "convexity":
        argv += fuzz_flag(rng, "--c-grid", fuzz_grid(rng, -0.1, 1.1))
        if rng.random() < 0.4:
            argv += fuzz_flag(rng, "--pi-grid", fuzz_grid(rng, -0.1, 1.1))
        if rng.random() < 0.5:
            argv += fuzz_flag(rng, "--h", fuzz_number(rng, 1e-6, 1e-2))
    elif command == "oracle":
        argv += fuzz_flag(rng, "--theta", fuzz_number(rng, -0.1, 0.9))
        argv += fuzz_flag(rng, "--pi", fuzz_number(rng, -0.1, 1.0))
        argv += fuzz_flag(rng, "--tol", fuzz_number(rng, 1e-6, 1e-2))
    elif command == "simulate":
        argv += ["--mode", str(rng.choice(["intermediate", "unambiguous", "bogus"]))]
        if rng.random() < 0.5:
            count = rng.integers(0, 3)
            argv += ["--theta"] + [fuzz_number(rng, -0.1, 0.9) for _ in range(count)]
        argv += fuzz_flag(rng, "--t-grid", fuzz_grid(rng, -0.2, 1.2))
        huge = ["100000000000000000000", "1000000000000000"]
        trials = fuzz_int(rng, ["0", "-7", "1", "1e3", *huge], 1, 3000)
        argv += fuzz_flag(rng, "--trials", trials)
        noise = rng.integers(4)
        if noise == 1:
            argv += ["--noise", "labnoise"]
        elif noise == 2:
            argv += ["--noise", str(rng.choice(["nosuchpreset", "./missing.cfg"]))]
        elif noise == 3:
            argv += ["--noise", fuzz_noise_file(rng, case_dir / "noise.cfg")]
    seed = (
        fuzz_flag(rng, "--seed", str(rng.choice(["-1", "7", "10" * 15, "z"])))
        if rng.random() < 0.3
        else []
    )
    fmt = ["--format", str(rng.choice(["csv", "json", "xml"]))] if rng.random() < 0.3 else []
    degrees = ["--degrees"] if rng.random() < 0.2 else []
    # only flags the command takes: the others stop at argparse, tested apart
    for flag in (seed, fmt, degrees):
        if flag and flag[0].split("=")[0] in FLAGS[command]:
            argv += flag
    return argv + ["--out", str(case_dir / "out")]


def reject_constant(name):
    raise ValueError(f"non-finite JSON value {name}")


def assert_finite_outputs(out_dir):
    for path in out_dir.iterdir():
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=reject_constant)
        elif path.suffix == ".csv":
            for line in path.read_text().splitlines()[2:]:
                for cell in line.split(","):
                    try:
                        value = float(cell)
                    except ValueError:
                        continue  # blank cells and labels
                    assert math.isfinite(value), (path, line)


def test_cli_fuzz_exits_cleanly(tmp_path, capsys):
    rng = np.random.default_rng(1)
    manifests = []
    codes = []
    start = time.perf_counter()
    for case in range(240):
        case_dir = tmp_path / f"case{case}"
        case_dir.mkdir()
        argv = fuzz_argv(rng, case_dir, manifests)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        assert code in (0, 2, 3, 4), argv
        if code == 0:
            out_dir = case_dir / ("replay" if argv[0] == "replay" else "out")
            assert_finite_outputs(out_dir)
            if argv[0] != "replay":
                manifests.append(out_dir / "manifest.json")
        codes.append(code)
    capsys.readouterr()
    assert time.perf_counter() - start < 20.0
    assert {0, 2} <= set(codes)


# --- table output ---


def cellwise_body(columns) -> str:
    """The CSV body as one `_fmt` call per cell, joined row by row."""
    values = [c.tolist() for c in columns]
    return "".join(",".join(cli._fmt(v) for v in row) + "\n" for row in zip(*values))


def random_column(rng, n):
    kind = rng.integers(4)
    if kind == 0:  # finite floats, as an array
        return rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, n)
    if kind == 1:  # an array with NaN, ±inf and signed zeros
        return rng.choice([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0 / 3.0, -2.5e-300], n)
    if kind == 2:  # integers, as an array
        return rng.integers(-(10**15), 10**15, n)
    # strings, as an array
    return np.array(["convex", "concave", "boundary"])[rng.integers(3, size=n)]


def test_csv_body_matches_the_cellwise_format():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.choice([0, 1, 2, int(rng.integers(3, 60))]))
        columns = [random_column(rng, n) for _ in range(int(rng.integers(1, 6)))]
        assert cli._csv_body(columns) == cellwise_body(columns).encode()
    assert cli._csv_body([np.array([], dtype=str), np.empty(0)]) == b""
    edges = [np.array([-0.0, math.nan, 1e16]), np.array([np.inf, -np.inf, 1e-5])]
    assert cli._csv_body(edges) == b"-0,inf\n,-inf\n1e+16,1e-05\n"
    fixed = [
        [np.empty(0), np.array([], dtype=int), np.array([], dtype=bool)],  # no rows
        [np.array([0.5]), np.array([7]), np.array([True]), np.array(["convex"])],
        [np.array([-0.0, 1e16, 1e-05]), np.array([3, -(2**62), 0])],  # finite floats
        [np.array([np.nan, np.inf, -np.inf]), np.array([False, True, False])],
        [np.array(["boundary", "concave", ""]), np.array([-0.0, np.nan, 1e16])],
    ]
    for columns in fixed:
        assert cli._csv_body(columns) == cellwise_body(columns).encode(), columns


# SHA-256 of each table body (the lines after the first line). The CSV
# bodies other than `convexity` are unchanged since version 0.1.5;
# `convexity` was re-pinned at 0.1.6, where boundary_PIB, which sets its
# default budgets, moved in the last bit, and at 0.1.8, where the
# five-point stencil came to read the pure curve at c itself and the probe
# x = y/c, moving 104 of its 760 rows in `d2_numeric` and `rel_err` at 12
# digits. A JSON body carries the version
# and the checksum, so its digest changes with every version. The JSON one
# pins NaN as null (the ideal T = 0 row has no conclusive event) and the
# JSON float text.
GOLDEN_BODIES = {
    "hull": (
        ["hull", "--c", "0.5", "--samples", "10000", "--seed", "3"],
        {
            "hull_points.csv": "33a04ec3ca927fc58d9b850da15d71d37e9648efd8cd053c8828819f90194c96",
            "hull_vertices.csv": "72a4c41bf1520738ea3ea96a2507a5e18667186f0a776a1f26760f52ebb867d0",
        },
    ),
    "convexity": (
        ["convexity"],
        {"convexity.csv": "a49f85da6a24fc4fa396a0a91b37604a6196c549595655ae69d275b8220f5eeb"},
    ),
    "curves": (
        ["curves", "--theta", PI6],
        {"curves.csv": "7b7905284b5b6f86b4aa8c5f5b18ec3df5a01cb652e6cf5733475b3f9d128116"},
    ),
    "simulate": (
        ["simulate", "--mode", "unambiguous", "--noise", "labnoise", "--seed", "3"],
        {"simulate.csv": "bb8575c3f959afc8fd0b626cda65fe0fa7d9312a3e60ab32bd3fc8816343bd20"},
    ),
    "simulate-intermediate": (
        ["simulate", "--mode", "intermediate", "--noise", "labnoise", "--seed", "3"],
        {"simulate.csv": "33071bd5382c6b49ec1dde3abfeaa7c51c4ab0f9f191cc123fc7b11e26468059"},
    ),
    "simulate-json": (
        ["simulate", "--mode", "unambiguous", "--format", "json", "--seed", "3"],
        {"simulate.json": "907160248c7085b8ae1fca2c8b5d2a8f5b09e4e05fcfbde0f3e1675e50435e9e"},
    ),
}


@pytest.mark.parametrize("command", sorted(GOLDEN_BODIES))
def test_table_bodies_match_their_golden_digests(tmp_path, command):
    argv, digests = GOLDEN_BODIES[command]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    for name, digest in digests.items():
        body = (tmp_path / name).read_bytes().split(b"\n", 1)[1]
        assert hashlib.sha256(body).hexdigest() == digest, name


# SHA-256 of whole files, header lines included, and of the manifests, taken
# at version 0.1.9. Their headers and manifests carry the version and the
# parameter checksum, so these change with every version. At 0.1.7 the
# oracle report's floats also moved, by at most 1.5e-15, when the tester
# came to be read off the dual point in light-cone form. At 0.1.8 the hull
# manifest lost its constant "format" parameter, and 10 curvature cells of
# the convexity JSON moved with its stencil. At 0.1.9 the oracle report
# lost its "seed", "restarts", "restart_values" and "best_restart" fields
# and the oracle manifest its "restarts" parameter, and the report's floats
# moved by about 1e-16 when the tester became the mixture of the bisection's
# two bracket testers.
GOLDEN_FILES = {
    "hull": (
        ["hull", "--c", "0.5", "--samples", "10000", "--seed", "3"],
        {
            "hull_report.json": "bb71d650f83ca3d1b4b96593af96dac1cf81906a71ce53e0b6e4512ed7b39a72",
            "hull_vertices.csv": "893de0e59d3ed0ca86f8a841bbda03660349dd1daf5335e1bac534c8fb7cb2d9",
            "manifest.json": "ac5c258a27ad0a9a8826a09e2a3241ae8f2d6d3b87035b3f0b661b4480d99df4",
        },
    ),
    "oracle": (
        ["oracle", "--theta", PI6, "--pi", "0.3"],
        {
            "oracle_report.json": "874426f420329e8bad9a18f6c6241b3357cdf747617f358ffa98e65d384d91dd",
            "manifest.json": "3117ac5c3f00294f7894f41472da5c5e43d311bdccc7a7fdd2b065705b8b3939",
        },
    ),
    "curves": (
        ["curves", "--theta", PI6],
        {
            "curves.csv": "4c0fcc32ebedd08c833f8691fba7378a45bbef92d784a4af62442bc2d19c7ca7",
            "manifest.json": "0d03ebbf2befa40bdcb8ee6ad8920fdf97485c14553f20741c259ffb7bebe050",
        },
    ),
    "convexity-json": (
        ["convexity", "--c-grid", "0.3:0.7:0.2", "--pi-grid", "0.1:0.4:0.1",
         "--format", "json"],
        {
            "convexity.json": "361b4aed8cf6b27c4c32e2c9ae23975e1ec65e5cd66d88253cfaeca445f3a101",
            "manifest.json": "273ab16329a3c14af352674e05039a5eb29dd1f0df7a75ed5fb49f880644fa57",
        },
    ),
}


@pytest.mark.parametrize("command", sorted(GOLDEN_FILES))
def test_whole_files_match_their_golden_digests(tmp_path, command):
    argv, digests = GOLDEN_FILES[command]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# The flags each subcommand takes, beyond --help, with a value for each.
FLAGS = {
    "curves": {"--theta": "0.3", "--pi-grid": "0:0.2:0.1", "--out": "o",
               "--format": "json", "--degrees": None},
    "hull": {"--c": "0.5", "--samples": "100", "--out": "o", "--seed": "2"},
    "convexity": {"--c-grid": "0.5", "--pi-grid": "0.1", "--h": "1e-4", "--out": "o",
                  "--format": "json"},
    "oracle": {"--theta": "0.3", "--pi": "0.2", "--tol": "1e-4", "--out": "o",
               "--degrees": None},
    "simulate": {"--mode": "unambiguous", "--theta": "0.3", "--t-grid": "0.5",
                 "--trials": "100", "--noise": "ideal", "--out": "o", "--format": "json",
                 "--seed": "2", "--degrees": None},
}
# Flags that changed nothing computed and are no longer accepted.
REMOVED_FLAGS = [
    ("curves", "--seed", "1"),
    ("convexity", "--seed", "1"),
    ("hull", "--format", "csv"),
    ("hull", "--degrees", None),
    ("convexity", "--degrees", None),
    ("oracle", "--format", "json"),
    ("oracle", "--restarts", "3"),
    ("oracle", "--seed", "1"),
]


def flag_argv(flags):
    return [item for flag, value in flags.items() for item in (flag, value) if item]


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_every_flag_of_a_command_parses(command):
    args = cli._build_parser().parse_args([command, *flag_argv(FLAGS[command])])
    expected = {flag[2:].replace("-", "_") for flag in FLAGS[command]}
    assert set(vars(args)) == expected | {"command"}
    assert sum(len(flags) for flags in FLAGS.values()) == 28


@pytest.mark.parametrize("command, flag, value", REMOVED_FLAGS)
def test_a_removed_flag_exits_2(tmp_path, capsys, command, flag, value):
    required = {k: v for k, v in FLAGS[command].items() if k in ("--theta", "--pi", "--c")}
    argv = [command, *flag_argv(required), *flag_argv({flag: value}), "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_repeated_calls_in_one_process_agree(tmp_path, capsys):
    # the parser is built once per process and reused by every call
    runs = [
        ["curves", "--theta", "0.3", "--pi-grid", "0:0.2:0.1"],
        ["hull", "--c", "0.6", "--samples", "300"],
        ["convexity", "--c-grid", "0.4", "--pi-grid", "0.1:0.5:0.2"],
        ["oracle", "--theta", "0.3", "--pi", "0.2"],
        ["simulate", "--mode", "unambiguous", "--t-grid", "0.5", "--trials", "100"],
        ["replay", "MANIFEST"],
        ["hull", "--c"],
        ["--version"],
    ]

    def session(root):
        results = []
        for k, argv in enumerate(runs):
            out_dir = root / str(k)
            argv = [str(root / "0" / "manifest.json") if a == "MANIFEST" else a for a in argv]
            if argv[0] != "--version":
                argv = [*argv, "--out", str(out_dir)]
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            files = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*"))}
            results.append((code, captured.out, captured.err, files))
        return results

    first = session(tmp_path / "first")
    second = session(tmp_path / "second")
    assert [r[0] for r in first] == [0, 0, 0, 0, 0, 0, 2, 0]
    assert first == second
    assert cli._build_parser() is cli._build_parser()


# --- process invocation ---


def test_import_leaves_hashlib_unloaded():
    # hashlib loads OpenSSL; only a run that writes outputs needs it
    code = (
        "import sys, measdiscrim, measdiscrim.cli\n"
        "assert '_hashlib' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "measdiscrim.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "measdiscrim" in result.stdout
    result = subprocess.run(
        [sys.executable, "-m", "measdiscrim.cli", "curves", "--theta", "0.3",
         "--pi-grid", "0:0.2:0.1", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert (tmp_path / "curves.csv").is_file()
