"""measdiscrim benchmark: one closed-loop client per workload.

Run from the repository root:

    python3 perfbench/run.py --workload tester-search --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload certify-cli --seed 0 --seconds 40 --trace 1
    python3 perfbench/run.py --workload certify-cli --seed 0 --smoke

`--trace 0` runs ops one after another for `--seconds`, times fifteen set-ups
in fresh interpreters spread over that pass, and reports the end-to-end
metrics. `--trace 1` ignores `--seconds`: it runs the workload's fixed
`trace_units` untraced, repeats the same ops with every layer wrapped, and
reports the per-layer metrics plus the tracing overhead.
`--smoke` runs a few ops at tiny sizes, untraced and then traced twice,
checks that the traced counts repeat exactly, and prints every metric.

The last line of standard output is the result object; the line before it
is a report with the environment, input sizes and any failed ops. The exit
status is 1 if any op failed its check, 2 if the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
PIN_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 15
TAIL_BEYOND = 10


class BenchError(Exception):
    """The program or its inputs are missing or unusable."""


def run_warmup(workload: str, *python_flags: str) -> subprocess.CompletedProcess:
    """Run the set-up script in a fresh interpreter and wait for it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *python_flags, str(HERE / "warmup.py"), workload],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up failed: {proc.stderr.strip()[-500:]}")
    return proc


def time_setup(workload: str) -> float:
    """Fresh interpreter -> imports -> warm-up, ended by the child's clock."""
    start = time.monotonic()
    return float(run_warmup(workload).stdout.split()[-1]) - start


def import_times(workload: str) -> dict[str, float]:
    """Cumulative import cost of the package and of scipy.optimize.

    Runs the set-up under `-X importtime`, so an import deferred into the
    warm-up still counts.
    """
    proc = run_warmup(workload, "-X", "importtime")
    package_us = scipy_us = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        top_level = not name[1:].startswith(" ")
        if top_level and name.strip() in ("measdiscrim", "measdiscrim.cli"):
            package_us += int(cumulative)
        elif name.strip() == "scipy.optimize":
            scipy_us += int(cumulative)
    return {
        "import.measdiscrim_s": package_us * 1e-6,
        "import.scipy_optimize_s": scipy_us * 1e-6,
    }


@dataclass
class PassResult:
    units: int
    times: list[float]
    failures: list[dict]
    wall: float


def run_pass(workload, *, seconds=None, units=None, tracer=None, setups=None) -> PassResult:
    """Issue ops one after another; each starts after the last one is checked.

    With `setups` (a list), a timed pass also times SETUP_REPEATS set-ups at
    unit boundaries spread evenly over `seconds`, so their median samples
    the machine across the run; the pass clock stops while they run.
    """
    workload.reset()
    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=RUNS))
    times: list[float] = []
    failures: list[dict] = []
    unit = 0
    paused = 0.0
    start = time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - start - paused

    def more() -> bool:
        if units is not None:
            return unit < units
        return unit == 0 or elapsed() < seconds

    def sample_setup() -> None:
        nonlocal paused
        if setups is None or len(setups) >= SETUP_REPEATS:
            return
        if elapsed() >= len(setups) * seconds / SETUP_REPEATS:
            t0 = time.perf_counter()
            setups.append(time_setup(workload.name))
            paused += time.perf_counter() - t0

    try:
        sample_setup()
        while more():
            for op in workload.unit(unit, workdir):
                op_id = len(times)
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        result = op.call()
                    else:
                        with tracer.op_span(op_id, op.kind):
                            result = op.call()
                except Exception as exc:  # a failed op is counted, not fatal
                    result = exc
                times.append(time.perf_counter() - t0)
                try:
                    if isinstance(result, Exception):
                        reason = f"{type(result).__name__}: {result}"
                    else:
                        reason = op.check(result)
                except Exception as exc:
                    reason = f"check raised {type(exc).__name__}: {exc}"
                if reason is not None:
                    failures.append({"op": op_id, "kind": op.kind, "reason": reason})
            unit += 1
            sample_setup()
        wall = elapsed()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return PassResult(unit, times, failures, wall)


def end_to_end(result: PassResult, setup_s: float | None) -> tuple[dict, dict]:
    times = sorted(result.times)
    n = len(times)
    # Highest order statistic with TAIL_BEYOND ops above it; the maximum
    # when the pass is too short to have one.
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": n / result.wall,
        # Upper median: the order statistic at n // 2.
        "op_p50_s": times[n // 2],
        "op_tail_s": times[k],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_fail_ratio": len(result.failures) / n,
    }
    tail = {"percentile": 100.0 * (k + 1) / n, "ops": n, "ops_beyond": n - 1 - k}
    return metrics, tail


# (span name, module, function, leaf). A leaf calls no other traced
# function and also reports its median duration.
LAYERS = (
    ("geometry.measurement_pair", "measdiscrim.geometry", "measurement_pair", True),
    ("cubic.real_roots", "measdiscrim._cubic", "real_roots", True),
    ("strategies.entangled_success", "measdiscrim.strategies", "entangled_success", True),
    ("strategies.single_pure_curve", "measdiscrim.strategies", "single_pure_curve", False),
    ("strategies.single_optimal", "measdiscrim.strategies", "single_optimal", False),
    ("strategies.hull_verify", "measdiscrim.strategies", "hull_verify", False),
    ("convexity.y_root", "measdiscrim.convexity", "y_root", False),
    ("convexity.finite_difference_check", "measdiscrim.convexity",
     "finite_difference_check", False),
    ("oracle.minimize", "measdiscrim.oracle", "minimize", True),
    ("oracle.optimize_povm", "measdiscrim.oracle", "optimize_povm", False),
    ("simulator.run_trials", "measdiscrim.simulator", "run_trials", True),
    ("simulator.estimate", "measdiscrim.simulator", "estimate", True),
    ("cli.main", "measdiscrim.cli", "main", False),
)


def install_tracer(tracer) -> None:
    from measdiscrim.simulator import ImperfectionModel

    ideal = ImperfectionModel.ideal()

    def on_minimize(args, kwargs, result, duration):
        tracer.count("oracle.minimize.nit", result.nit)

    def on_optimize(args, kwargs, result, duration):
        values = result.restart_values
        if values:
            best = max(values)
            tol = kwargs.get("tol", 1e-4)
            tracer.count("restarts.run", len(values))
            tracer.count("restarts.at_best", sum(v >= best - tol for v in values))

    def on_run_trials(args, kwargs, result, duration):
        config = args[0] if args else kwargs["config"]
        noise = "ideal" if config.imperfections == ideal else "labnoise"
        tracer.count(f"trials.{noise}", config.trials)
        tracer.count(f"trials_ns.{noise}", duration)

    observers = {
        "oracle.minimize": on_minimize,
        "oracle.optimize_povm": on_optimize,
        "simulator.run_trials": on_run_trials,
    }
    for layer, module, attr, _ in LAYERS:
        tracer.wrap(layer, module, attr, observers.get(layer))


def traced_pass(workload, units: int):
    from spans import Tracer

    tracer = Tracer()
    install_tracer(tracer)
    try:
        result = run_pass(workload, units=units, tracer=tracer)
    finally:
        tracer.unwrap()
    layer = tracer.summary({name for name, *_, leaf in LAYERS if leaf})
    c = tracer.counters
    layer["oracle.minimize.nit"] = int(c.get("oracle.minimize.nit", 0))
    run = c.get("restarts.run", 0)
    layer["oracle.restarts_at_best_ratio"] = c.get("restarts.at_best", 0) / run if run else 0.0
    for noise in ("ideal", "labnoise"):
        ns = c.get(f"trials_ns.{noise}", 0)
        layer[f"simulator.run_trials.mtrials_per_s.{noise}"] = (
            c[f"trials.{noise}"] / ns * 1e3 if ns else 0.0
        )
    layer.update({"cli.bytes_written": 0, "cli.replay.mismatches": 0, **workload.counters()})
    layer["trace.traced_s"] = result.wall
    layer["trace.op_cover_ratio"] = layer.pop("top_level_s") / result.wall
    return result, layer, tracer


def git_commit() -> str:
    """HEAD of the checkout, or 'unknown' outside a git repository.

    The search for a repository stops at the checkout's root.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int, sizes: dict) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "threads": {var: os.environ.get(var) for var in PIN_VARS},
        "commit": git_commit(),
        "seed": seed,
        "sizes": sizes,
    }


def select(values: dict, specs: list[dict]) -> dict:
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def exact_counts(layer: dict) -> dict:
    """The per-layer values that must repeat exactly for the same seed and sizes."""
    return {
        k: v
        for k, v in layer.items()
        if k.endswith(".calls") or k in ("oracle.minimize.nit", "cli.bytes_written")
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tester-search", "certify-cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, fixed op count, every metric, count self-check")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "measdiscrim" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no measdiscrim sources or BENCHMARK.json under {ROOT}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    metric_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metric_units["op_fail_ratio"] = "1"

    # Pin BLAS/OpenMP pools before numpy loads; children inherit the pin.
    for var in PIN_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import measdiscrim

    if Path(measdiscrim.__file__).resolve().parent != (SRC / "measdiscrim").resolve():
        print(f"error: measdiscrim imported from {measdiscrim.__file__}", file=sys.stderr)
        return 2
    import warmup
    from workloads import WORKLOADS

    timed_setup = args.trace == 0 or args.smoke
    traced = args.trace == 1 or args.smoke
    setups: list[float] = []
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke)
        imports = import_times(args.workload) if traced else {}
        if args.smoke:
            setups.append(time_setup(args.workload))
        warmup.WARMUPS[args.workload]()
        if args.smoke:
            passes = [run_pass(workload, units=workload.smoke_units)]
        elif traced:
            passes = [run_pass(workload, units=workload.trace_units)]
        else:
            passes = [run_pass(workload, seconds=args.seconds, setups=setups)]
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report: dict = {"workload": args.workload, "smoke": args.smoke, "trace": args.trace}
    metrics: dict = {}
    self_check_ok = True
    if traced:
        plain = passes[0]
        result, layer, tracer = traced_pass(workload, plain.units)
        passes.append(result)
        layer.update(imports)
        layer["trace.untraced_s"] = plain.wall
        layer["trace.overhead_s"] = result.wall - plain.wall
        layer["trace.overhead_ratio"] = result.wall / plain.wall
        if args.smoke:
            again, layer_again, _ = traced_pass(workload, plain.units)
            passes.append(again)
            first, second = exact_counts(layer), exact_counts(layer_again)
            differing = sorted(k for k in first if first[k] != second.get(k))
            self_check_ok = not differing
            report["self_check"] = {"counts": len(first), "differing": differing}
        spans_path = RUNS / f"spans-{args.workload}.csv"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        report["unwrapped_layers"] = tracer.missing
        report["per_layer"] = layer
        metrics.update(select(layer, spec["per_layer"]))

    e2e, tail = end_to_end(passes[0], statistics.median(setups) if setups else None)
    if timed_setup:
        metrics = {**select(e2e, spec["end_to_end"]), **metrics}
        report["setup_s_samples"] = setups
    report["end_to_end"] = {k: {"value": v, "unit": metric_units[k]} for k, v in e2e.items()}
    report["op_tail"] = tail
    failures = [dict(f, pass_index=i) for i, p in enumerate(passes) for f in p.failures]
    report["passes"] = [
        {"units": p.units, "ops": len(p.times), "wall_s": p.wall, "failed": len(p.failures)}
        for p in passes
    ]
    report["failures"] = failures[:20]
    report["environment"] = environment(args.seed, workload.sizes)
    print(json.dumps({"report": report}))
    correct = not failures and self_check_ok
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(p.times) for p in passes),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
