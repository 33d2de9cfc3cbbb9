"""The library's contract, fuzzed over its public surface.

Every call on edge inputs, float or integer, gives a finite, validated
result, or raises a `measdiscrim.errors` type whose message names the bad
argument. The import guard pins what `import measdiscrim` loads and exports.
"""

import dataclasses
import itertools
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import measdiscrim as md
from measdiscrim import cli

EDGES = (math.nan, math.inf, -math.inf, -0.1, 1e308, -1e-13, 0.0, 5e-324, 1.0, 0.3)

# The words by which an error message may name each argument.
THETA = ("theta",)
BUDGET = ("budget", "p_inc", "target")
OVERLAP = ("overlap", "c =", "c must")

PAIR = md.measurement_pair(0.3)

# name: (call, valid base arguments, words naming each argument)
SCALAR_CALLS = {
    "measurement_pair": (md.measurement_pair, (0.3,), (THETA,)),
    "helstrom_point": (md.helstrom_point, (0.3,), (THETA,)),
    "unambiguous_points": (md.unambiguous_points, (0.3,), (THETA,)),
    "boundary_PIB": (md.boundary_PIB, (0.5,), (OVERLAP,)),
    "tangent_PIT": (md.tangent_PIT, (0.5,), (OVERLAP,)),
    "hull_verify": (lambda c: md.hull_verify(c, 100, 0), (0.5,), (OVERLAP,)),
    "entangled_success": (md.entangled_success, (0.3, 0.2), (THETA, BUDGET)),
    "single_pure_curve": (md.single_pure_curve, (0.3, 0.2), (THETA, BUDGET)),
    "single_optimal": (md.single_optimal, (0.3, 0.2), (THETA, BUDGET)),
    "concave_branch": (md.concave_branch, (0.3, 0.5), (THETA, BUDGET)),
    "advantage": (md.advantage, (0.3, 0.2), (THETA, BUDGET)),
    "y_root": (md.y_root, (0.5, 0.2), (OVERLAP, BUDGET)),
    "second_derivative": (md.second_derivative, (0.5, 0.2), (OVERLAP, BUDGET)),
    "concave_second_derivative": (
        md.concave_second_derivative, (0.5, 0.61), (OVERLAP, BUDGET)
    ),
    "finite_difference_check": (md.finite_difference_check, (0.5, 0.2), (OVERLAP, BUDGET)),
    # The tol check has its own test (test_oracle.py).
    "optimize_povm": (lambda p: md.optimize_povm(PAIR, p), (0.2,), (BUDGET,)),
}

ARRAY_CALLS = {
    "entangled_success_array": (md.entangled_success_array, (THETA, BUDGET)),
    "single_pure_curve_array": (md.single_pure_curve_array, (THETA, BUDGET)),
    "single_optimal_array": (md.single_optimal_array, (THETA, BUDGET)),
    "boundary_PIB": (md.boundary_PIB, (OVERLAP,)),
    "tangent_PIT": (md.tangent_PIT, (OVERLAP,)),
}


def floats(value):
    """Every float a result carries, as a flat array; `w_tangent` is NaN on
    the arc by design and is left out."""
    if isinstance(value, md.CurveSamples):
        value = value._replace(w_tangent=None)
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        parts = [floats(v) for v in value]
        return np.concatenate(parts) if parts else np.empty(0)
    if isinstance(value, (float, int, np.ndarray, np.floating)):
        return np.ravel(np.asarray(value, dtype=float))
    return np.empty(0)


def check_call(label, call, args, words, must_raise=False):
    """A finite result, or an error type of the package naming an argument."""
    try:
        result = call(*args)
    except Exception as err:  # noqa: BLE001 - the type is what is checked
        assert type(err).__module__ == "measdiscrim.errors", (label, args, repr(err))
        assert any(w in str(err) for w in words), (label, args, str(err))
        return
    assert not must_raise, (label, args, "accepted")
    assert np.all(np.isfinite(floats(result))), (label, args, result)


@pytest.mark.parametrize("name", sorted(SCALAR_CALLS))
def test_scalar_calls_on_edge_values(name):
    call, base, words = SCALAR_CALLS[name]
    # Each argument, and each pair of arguments, runs through the edge values
    # with the others at their base. Where the domain of one argument depends
    # on another (a budget's on the angle), either may be named.
    named = sum(words, ())
    for k in range(1, min(len(base), 2) + 1):
        for varied in itertools.combinations(range(len(base)), k):
            for values in itertools.product(EDGES, repeat=k):
                args = list(base)
                for i, v in zip(varied, values):
                    args[i] = v
                check_call(name, call, args, named)


@pytest.mark.parametrize("name", sorted(ARRAY_CALLS))
def test_array_calls_on_nan_empty_and_mismatched_arrays(name):
    call, words = ARRAY_CALLS[name]
    rng = np.random.default_rng(1408)
    # valid draws: angles in [0, pi/4], overlaps in [0, 1], budgets in [0, 0.4]
    highs = [math.pi / 4.0 if w is THETA else 1.0 if w is OVERLAP else 0.4 for w in words]
    for _ in range(20):
        n = int(rng.integers(1, 6))
        for i in range(len(words)):
            args = [rng.uniform(0.0, high, n) for high in highs]
            args[i][rng.integers(n)] = math.nan
            check_call(name, call, args, words[i])
        check_call(name, call, [np.empty(0) for _ in words], ())
        if len(words) == 2:
            m = n + int(rng.integers(1, 4))
            args = [rng.uniform(0.0, high, size) for high, size in zip(highs, (n, m))]
            check_call(name, call, args, words[1])


# No count or seed is -1, 2.5, NaN or True; 0 and 2**63 may be in range.
NOT_COUNTS = (-1, 2.5, math.nan, True)
INTEGER_EDGES = NOT_COUNTS + (0, 2**63)

# name: (call, small valid base arguments, words naming each argument). Every
# count is checked before anything is sized by it, so 2**63 allocates nothing.
INTEGER_CALLS = {
    "run_trials": (
        lambda trials, seed: md.run_trials(md.ExperimentConfig(0.3, 0.5, trials, seed)),
        (10, 0),
        (("trials",), ("seed",)),
    ),
    "hull_verify": (
        lambda n, seed: md.hull_verify(0.5, n, seed), (100, 0), (("samples",), ("seed",))
    ),
}


@pytest.mark.parametrize("name", sorted(INTEGER_CALLS))
def test_integer_arguments_on_edge_values(name):
    call, base, words = INTEGER_CALLS[name]
    for i, named in enumerate(words):
        for k, value in enumerate(INTEGER_EDGES):
            args = list(base)
            args[i] = value
            check_call(name, call, args, named, must_raise=k < len(NOT_COUNTS))


# One fault in the last row of a scan grid, or in its trials or seed, and
# the message the per-row checks gave before the scans became one pass.
SCAN_FAULTS = (
    *(({"t": t}, "transmittance must lie in [0, 1]") for t in (-0.1, 1.1, math.nan)),
    *(({"theta": v}, "theta outside [0, pi/4]") for v in (-0.1, 1.0, math.nan)),
    ({"trials": 0}, "trials must lie in [1, 2**63 - 1], got 0"),
    ({"trials": 2.5}, "trials must be an integer, got 2.5"),
    ({"trials": math.nan}, "trials must be an integer, got nan"),
    ({"trials": True}, "trials must be an integer, got True"),
    ({"trials": 2**63}, f"trials must lie in [1, 2**63 - 1], got {2**63}"),
    ({"seed": -1}, "seed must be non-negative, got -1"),
    ({"seed": 2.5}, "seed must be an integer, got 2.5"),
    ({"seed": True}, "seed must be an integer, got True"),
)


def test_scans_check_their_whole_grid_before_any_draw(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a generator was made before the grid was checked")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    for fault, message in SCAN_FAULTS:
        thetas = [0.3, fault.get("theta", 0.5)]
        t_values = [0.5, fault.get("t", 0.6)]
        trials, seed = fault.get("trials", 100), fault.get("seed", 0)
        scans = [lambda: md.scan_intermediate(thetas, t_values, trials, seed)]
        if "theta" not in fault:  # the unambiguous scan derives its angles
            scans.append(lambda: md.scan_unambiguous(t_values, trials, seed))
        for scan in scans:
            with pytest.raises(md.DomainError) as info:
                scan()
            assert type(info.value) is md.DomainError, (fault, info.value)
            assert str(info.value) == message, fault


def test_a_scan_row_with_no_registered_coincidence_is_rejected(tmp_path, capsys):
    faint = md.ImperfectionModel(*(1e-9,) * 5)
    message = "^no registered coincidences to estimate from$"
    with pytest.raises(md.ValidationError, match=message):
        md.scan_intermediate([0.3], [0.5, 0.6], trials=1, imperfections=faint)
    with pytest.raises(md.ValidationError, match=message):
        md.scan_unambiguous([0.5], trials=1, imperfections=faint)
    cfg = tmp_path / "faint.cfg"
    cfg.write_text("".join(f"eta_{d} = 1e-9\n" for d in ("D0", "D1", "DA", "DB", "DI")))
    argv = ["simulate", "--mode", "unambiguous", "--t-grid", "0.5", "--trials", "1"]
    assert cli.main([*argv, "--noise", str(cfg), "--out", str(tmp_path)]) == 2
    assert "no registered coincidences" in capsys.readouterr().err


def test_import_loads_no_scipy_and_exports_exactly_all():
    code = (
        "import sys, types, measdiscrim, measdiscrim.cli\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
        "missing = [n for n in measdiscrim.__all__ if not hasattr(measdiscrim, n)]\n"
        "assert not missing, missing\n"
        "public = {n for n, v in vars(measdiscrim).items()\n"
        "          if not n.startswith('_') and not isinstance(v, types.ModuleType)}\n"
        "extra = public ^ (set(measdiscrim.__all__) - {'__version__'})\n"
        "assert not extra, sorted(extra)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_hull_verify_loads_no_numpy_ma():
    # np.unique imports numpy.ma on first use, about 15 ms of a fresh process
    code = (
        "import sys, measdiscrim\n"
        "measdiscrim.hull_verify(0.5, 100, 0)\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_package_version_matches_pyproject():
    # A regex, as tomllib is new in Python 3.11 and the package runs on 3.10.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    versions = re.findall(r'^version\s*=\s*"([^"]+)"', text, flags=re.MULTILINE)
    assert versions == [md.__version__]
