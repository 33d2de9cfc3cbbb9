"""The benchmark workloads.

A workload turns (seed, unit index) into a list of ops, so an untraced and
a traced pass over the same units do exactly the same work. An op is one
call into the program plus a check of its output; only the call is timed.
Calls go through module attributes at call time, so the tracer's wrappers
see them. The checks use references taken at import, before any wrapping,
so checking adds nothing to the traced counts.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import shutil
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import measdiscrim as md
import measdiscrim.cli
from measdiscrim.strategies import entangled_success

THETAS = tuple(j * math.pi / 30.0 for j in range(1, 8))
HULL_C = ("0.3", "0.5", "0.7", "0.9")


@dataclass(frozen=True)
class Op:
    kind: str
    call: Callable[[], object]
    # Returns None when the output is correct, else the reason it is not.
    check: Callable[[object], str | None]


def _op_seed(workload: str, seed: int, index: int) -> int:
    return random.Random(f"{workload}:{seed}:{index}").randrange(2**31)


class Workload:
    """Ops of one workload; `unit(index, workdir)` depends on seed and index only."""

    name: str
    smoke_units: int
    # Units of the untraced and the traced pass of `--trace 1`: fixed, so
    # per-layer counts and times cover the same work on every commit.
    trace_units: int
    sizes: dict

    def reset(self) -> None:
        """Clear the workload's own counters before a pass."""

    def counters(self) -> dict[str, float]:
        return {}


class TesterSearch(Workload):
    """optimize_povm over the criterion-1 grid, one search per op."""

    name = "tester-search"
    smoke_units = 1
    trace_units = len(THETAS)  # the whole grid once
    tol = 1e-4

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.restarts = 2 if smoke else 20
        points = [
            [(theta, float(p)) for p in np.linspace(0.0, math.cos(2.0 * theta), 6)]
            for theta in THETAS
        ]
        # Unit r visits budget i at angle (r + i) % 7 for i = 0..5: each unit
        # covers all six budgets, endpoints included, at six of the seven
        # angles, and seven units cover the whole grid once.
        self.grid = [
            [points[(r + i) % len(THETAS)][i] for i in range(6)]
            for r in range(len(THETAS))
        ]
        self.sizes = {
            "ops_per_unit": 6,
            "grid_points": 6 * len(self.grid),
            "restarts": self.restarts,
            "tol": self.tol,
        }

    def unit(self, index: int, workdir: Path) -> list[Op]:
        return [
            self._op(theta, p_inc, _op_seed(self.name, self.seed, 6 * index + i))
            for i, (theta, p_inc) in enumerate(self.grid[index % len(self.grid)])
        ]

    def _op(self, theta: float, p_inc: float, seed: int) -> Op:
        expected = entangled_success(theta, p_inc).p_success

        def call():
            pair = md.measurement_pair(theta)
            return md.optimize_povm(
                pair, p_inc, tol=self.tol, seed=seed, restarts=self.restarts
            )

        def check(result) -> str | None:
            if not result.converged:
                return "search did not converge"
            gap = abs(result.point.p_success - expected)
            if gap > self.tol:
                return f"P_S differs from entangled_success by {gap:.3e}"
            return None

        return Op("optimize_povm", call, check)


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = measdiscrim.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class CertifyCli(Workload):
    """In-process CLI sessions: every command, then a replay of its manifest."""

    name = "certify-cli"
    smoke_units = 1
    trace_units = 8

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.hull_samples = 200 if smoke else 10_000
        self.sim_trials = 2000 if smoke else 50_000
        self.convexity_args = ["--c-grid", "0.3:0.7:0.2"] if smoke else []
        self.sizes = {
            "ops_per_unit": 2 * len(self._commands(0)),
            "curves_angles": len(THETAS),
            "hull_samples": self.hull_samples,
            "hull_c": list(HULL_C),
            "convexity_args": self.convexity_args,
            "simulate_trials": self.sim_trials,
        }
        self.reset()

    def reset(self) -> None:
        self.bytes_written = 0
        self.replay_mismatches = 0

    def counters(self) -> dict[str, float]:
        return {
            "cli.bytes_written": self.bytes_written,
            "cli.replay.mismatches": self.replay_mismatches,
        }

    def _commands(self, index: int) -> list[tuple[str, list[str]]]:
        seed = str(_op_seed(self.name, self.seed, index))
        curves = [["curves", "--theta", repr(theta)] for theta in THETAS]
        hulls = [
            ["hull", "--c", c, "--samples", str(self.hull_samples), "--seed", seed]
            for c in HULL_C
        ]
        sims = [
            ["simulate", "--mode", "unambiguous", "--t-grid", "0:1:0.25",
             "--trials", str(self.sim_trials), "--noise", noise, "--seed", seed]
            for noise in ("ideal", "labnoise")
        ]
        others = [hulls[0], sims[0], hulls[1], ["convexity", *self.convexity_args],
                  hulls[2], sims[1], hulls[3]]
        return [(argv[0], argv) for pair in zip(curves, others) for argv in pair]

    def unit(self, index: int, workdir: Path) -> list[Op]:
        ops = []
        for k, (kind, argv) in enumerate(self._commands(index)):
            out = workdir / f"{index}-{k}-{kind}"
            replay_out = workdir / f"{index}-{k}-replay"
            replay_argv = ["replay", str(out / "manifest.json"), "--out", str(replay_out)]
            ops.append(Op(kind, partial(_cli, argv + ["--out", str(out)]),
                          partial(self._check_command, out)))
            ops.append(Op("replay", partial(_cli, replay_argv),
                          partial(self._check_replay, out, replay_out)))
        return ops

    def _check_command(self, out: Path, result) -> str | None:
        code, _, stderr = result
        if out.is_dir():
            self.bytes_written += _dir_bytes(out)
        return None if code == 0 else f"exit {code}: {stderr.strip()[:200]}"

    def _check_replay(self, out: Path, replay_out: Path, result) -> str | None:
        code, stdout, stderr = result
        if replay_out.is_dir():
            self.bytes_written += _dir_bytes(replay_out)
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(replay_out, ignore_errors=True)
        if code == measdiscrim.cli.EXIT_THRESHOLD:
            self.replay_mismatches += 1
        if code != 0:
            return f"replay exit {code}: {stderr.strip()[:200]}"
        if "byte-identically" not in stdout:
            return "replay did not report byte-identical outputs"
        return None


WORKLOADS = {w.name: w for w in (TesterSearch, CertifyCli)}
