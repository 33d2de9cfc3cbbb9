"""Command-line front end.

Subcommands write their tables and reports into an output directory
together with a run manifest (command, resolved parameters, seed, artifact
version, output checksums). Replaying a manifest re-runs the command and
verifies that every output reproduces byte for byte.

Runners hand their tables to `_write_table` as columns; a CSV body is
formatted in one pass, with `_fmt` as the rule for every cell. `convexity`
builds the rows of its whole (c, P_I) grid in c-major order and checks
them with one `finite_difference_check_array` call.

Exit statuses: 0 success, 2 domain or validation error, 3 numerical
non-convergence, 4 acceptance-threshold breach or replay mismatch.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .convexity import check_step, finite_difference_check_array
from .errors import DomainError, ValidationError
from .geometry import TOL, check_theta, measurement_pair, overlap
from .oracle import optimize_povm
from .simulator import (
    ImperfectionModel,
    load_imperfections,
    scan_intermediate,
    scan_unambiguous,
)
from .strategies import (
    boundary_PIB,
    default_pi_grid,
    entangled_success,
    entangled_success_array,
    hull_verify,
    single_optimal_array,
    single_pure_curve_array,
)

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_NONCONVERGED = 3
EXIT_THRESHOLD = 4

HULL_DEVIATION_LIMIT = 1e-6
CONVEX_FLOOR = -1e-9
REL_ERR_LIMIT = 1e-3
# Budgets closer than this to a branch boundary get no finite difference.
FD_BOUNDARY = 1e-7
# Largest number of points a start:stop:step grid may expand to.
MAX_GRID_POINTS = 100_000
# Largest `hull --samples`: the working arrays of a million samples take
# about 200 MB.
MAX_SAMPLES = 1_000_000

CURVE_COLUMNS = (
    "p_inc",
    "ps_entangled",
    "ps_single_optimal",
    "ps_single_pure",
    "pts_entangled",
    "pts_single",
    "advantage",
)
CONVEXITY_COLUMNS = ("c", "p_inc", "d2_analytic", "d2_numeric", "rel_err", "branch")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return f"{value:.12g}"
    return str(value)


def _params_checksum(command: str, parameters: dict, seed: int) -> str:
    canonical = json.dumps(
        {
            "artifact_version": __version__,
            "command": command,
            "parameters": parameters,
            "seed": seed,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _write_bytes(path: Path, data: bytes) -> str:
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _cells(column) -> list:
    """A column's cells as a list of Python values."""
    return column.tolist() if isinstance(column, np.ndarray) else list(column)


def _finite_floats(column) -> bool:
    """Whether every cell of the column is a finite float."""
    if isinstance(column, np.ndarray):
        return column.dtype.kind == "f" and bool(np.isfinite(column).all())
    return all(isinstance(v, float) and math.isfinite(v) for v in column)


def _csv_body(columns) -> str:
    """The CSV lines of the rows, formatted with one `%` operation.

    A column of finite floats goes through `%.12g`, which gives the same
    text as `_fmt`; every other column is run through `_fmt` and placed with
    `%s`, so `_fmt` stays the one rule for a cell.
    """
    specs, cells = [], []
    for column in columns:
        values = _cells(column)
        if _finite_floats(column):
            specs.append("%.12g")
            cells.append(values)
        else:
            specs.append("%s")
            cells.append([_fmt(v) for v in values])
    n_rows = len(cells[0]) if cells else 0
    flat = np.empty((n_rows, len(cells)), dtype=object)
    for k, values in enumerate(cells):
        flat[:, k] = values
    return ("%s\n" % ",".join(specs) * n_rows) % tuple(flat.ravel().tolist())


def _write_table(path: Path, names, columns, checksum: str, fmt: str) -> str:
    """Write a table given as one sequence or 1-D array per column name.

    CSV rows are formatted by `_csv_body` in one pass; JSON rows are the
    columns zipped back together, with NaN written as null.
    """
    if fmt == "csv":
        header = f"# artifact={__version__} manifest={checksum}\n{','.join(names)}\n"
        return _write_bytes(path, (header + _csv_body(columns)).encode("utf-8"))
    values = [_cells(column) for column in columns]
    payload = {
        "artifact_version": __version__,
        "manifest": checksum,
        "columns": list(names),
        "rows": [
            [None if isinstance(v, float) and math.isnan(v) else v for v in row]
            for row in zip(*values)
        ],
    }
    return _write_json(path, payload)


def _write_json(path: Path, payload: dict) -> str:
    data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
    return _write_bytes(path, data)


def _write_manifest(
    out_dir: Path, command: str, parameters: dict, seed: int, outputs: dict
) -> None:
    manifest = {
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "artifact_version": __version__,
        "params_checksum": _params_checksum(command, parameters, seed),
        "outputs": outputs,
    }
    _write_json(out_dir / "manifest.json", manifest)


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    try:
        values = [float(part) for part in parts]
    except ValueError as exc:
        raise DomainError(f"malformed grid specification: {text!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise DomainError(f"grid values must be finite, got {text!r}")
    if len(values) == 1:
        return values
    if len(values) != 3:
        raise DomainError(f"grid must be start:stop:step, got {text!r}")
    start, stop, step = values
    if start == stop or step == 0.0:
        return [start]
    count = (stop - start) / step
    if count < 0.0:
        raise DomainError("grid step never reaches the stop value")
    # n + 1 points for n = count steps; `not <=` also catches an overflow to inf.
    if not count <= MAX_GRID_POINTS - 1 + 1e-9:
        raise DomainError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    n = int(round(count))
    if abs(count - n) > 1e-9:
        n = int(math.floor(count + 1e-9))
    grid = [start + k * step for k in range(n + 1)]
    if abs(grid[-1] - stop) <= 1e-9 * max(1.0, abs(step)):
        grid[-1] = stop
    return grid


def _resolve_theta(value: float, degrees: bool) -> float:
    theta = math.radians(value) if degrees else value
    # Snap parse-level rounding of the interval endpoints (e.g. 0.7854).
    if math.pi / 4.0 < theta <= math.pi / 4.0 + 1e-3:
        return math.pi / 4.0
    if -1e-3 <= theta < 0.0:
        return 0.0
    return float(check_theta(theta))


def _out_dir(args) -> Path:
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _run_curves(parameters: dict, seed: int, out_dir: Path) -> tuple[dict, int]:
    theta = parameters["theta"]
    fmt = parameters["format"]
    pair = measurement_pair(theta)
    c = overlap(pair)
    p_max = 0.5 * (1.0 + c * c)
    grid = parameters["pi_grid"]
    if not grid:
        raise DomainError("budget grid is empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("budget grid must be strictly increasing")
    if grid[0] < -TOL or grid[-1] > p_max + TOL:
        raise DomainError("budget grid outside the achievable range [0, (1+c^2)/2]")

    # NaN marks an empty cell: past the entangled endpoint, or a relative
    # success at P_I = 1.
    p = np.clip(np.array(grid), 0.0, p_max)
    ps_opt = single_optimal_array(theta, p).p_success
    ps_pure = single_pure_curve_array(theta, p).p_success
    has_ent = p <= c + TOL
    p_ent = np.minimum(p, c)
    ps_ent = np.where(has_ent, entangled_success_array(theta, p_ent).p_success, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        pts_ent = np.where(p_ent < 1.0 - TOL, ps_ent / (1.0 - p_ent), np.nan)
        pts_single = np.where(p < 1.0 - TOL, ps_opt / (1.0 - p), np.nan)
    adv = ps_ent - ps_opt
    columns = (p, ps_ent, ps_opt, ps_pure, pts_ent, pts_single, adv)

    checksum = _params_checksum("curves", parameters, seed)
    name = f"curves.{fmt}"
    outputs = {name: _write_table(out_dir / name, CURVE_COLUMNS, columns, checksum, fmt)}
    _write_manifest(out_dir, "curves", parameters, seed, outputs)
    return outputs, EXIT_OK


def _run_hull(parameters: dict, seed: int, out_dir: Path) -> tuple[dict, int]:
    if parameters["samples"] > MAX_SAMPLES:
        raise DomainError(f"hull verification takes at most {MAX_SAMPLES} samples")
    report = hull_verify(parameters["c"], parameters["samples"], seed)
    checksum = _params_checksum("hull", parameters, seed)
    outputs = {}
    for name, table in (
        ("hull_points.csv", report.points), ("hull_vertices.csv", report.vertices)
    ):
        outputs[name] = _write_table(
            out_dir / name, ("p_inc", "p_success"), table.T, checksum, "csv"
        )
    payload = {
        "artifact_version": __version__,
        "manifest": checksum,
        "c": report.c,
        "n_samples": report.n_samples,
        "seed": report.seed,
        "degenerate": report.degenerate,
        "max_deviation": report.max_deviation,
        "tangent_p_inc": report.tangent_p_inc,
        "tangent_error": report.tangent_error,
        "point_a": list(report.point_a),
        "point_t": list(report.point_t) if report.point_t is not None else None,
        "point_u": list(report.point_u),
        "n_vertices": int(len(report.vertices)),
    }
    outputs["hull_report.json"] = _write_json(out_dir / "hull_report.json", payload)
    _write_manifest(out_dir, "hull", parameters, seed, outputs)
    code = EXIT_OK if report.max_deviation <= HULL_DEVIATION_LIMIT else EXIT_THRESHOLD
    return outputs, code


def _convexity_default_budgets(c: float) -> list[float]:
    pib = boundary_PIB(c)
    p_top = 0.5 * (1.0 + c * c)
    convex = np.linspace(1e-3, pib - 1e-3, 30)
    # The concave band (pib, (1+c^2)/2) shrinks to nothing as c -> 0; keep
    # the margins inside it and drop it entirely once it is too thin.
    band = p_top - pib
    margin = min(1e-3, 0.25 * band)
    if band > 4.0 * FD_BOUNDARY:
        concave = np.linspace(pib + margin, p_top - margin, 10)
    else:
        concave = np.empty(0)
    return [float(p) for p in np.concatenate([convex, concave])]


def _run_convexity(parameters: dict, seed: int, out_dir: Path) -> tuple[dict, int]:
    fmt = parameters["format"]
    h = check_step(parameters["h"])
    c_grid = parameters["c_grid"]
    if not all(0.0 < c < 1.0 for c in c_grid):
        raise DomainError("overlap grid must stay strictly inside (0, 1)")
    # The rows of every overlap in c-major order, checked in one array call.
    budgets = [
        np.array(
            parameters["pi_grid"]
            if parameters["pi_grid"] is not None
            else _convexity_default_budgets(c)
        )
        for c in c_grid
    ]
    c = np.repeat(np.array(c_grid, dtype=float), [len(b) for b in budgets])
    p = np.concatenate(budgets) if budgets else np.empty(0)
    pib = boundary_PIB(c)
    p_top = 0.5 * (1.0 + c * c)
    if not np.all((p >= -TOL) & (p <= p_top + TOL)):
        raise DomainError("budget grid outside the achievable range [0, (1+c^2)/2]")
    p = np.clip(p, 0.0, p_top)
    convex = p < pib
    near_edge = (
        (np.abs(p - pib) < FD_BOUNDARY)
        | (p < FD_BOUNDARY)
        | (p > p_top - FD_BOUNDARY)
    )
    margin = np.where(convex, np.minimum(p, pib - p), np.minimum(p - pib, p_top - p))
    fd = ~near_edge
    # NaN marks the empty cells of boundary rows and of singular rows.
    analytic, numeric, rel_err = (np.full(len(p), np.nan) for _ in range(3))
    analytic[fd], numeric[fd], rel_err[fd] = finite_difference_check_array(
        c[fd], p[fd], np.minimum(h, 0.4 * margin[fd])
    )
    branch = np.where(near_edge, "boundary", np.where(convex, "convex", "concave"))
    breach = bool(
        np.any(convex & (analytic < CONVEX_FLOOR)) or np.any(rel_err > REL_ERR_LIMIT)
    )

    checksum = _params_checksum("convexity", parameters, seed)
    name = f"convexity.{fmt}"
    columns = (c, p, analytic, numeric, rel_err, branch)
    outputs = {
        name: _write_table(out_dir / name, CONVEXITY_COLUMNS, columns, checksum, fmt)
    }
    _write_manifest(out_dir, "convexity", parameters, seed, outputs)
    return outputs, EXIT_THRESHOLD if breach else EXIT_OK


def _run_oracle(parameters: dict, seed: int, out_dir: Path) -> tuple[dict, int]:
    theta = parameters["theta"]
    target = parameters["p_inc_target"]
    pair = measurement_pair(theta)
    result = optimize_povm(
        pair,
        target,
        tol=parameters["tol"],
        seed=seed,
        restarts=parameters["restarts"],
    )
    closed = entangled_success(theta, min(max(target, 0.0), overlap(pair)))
    checksum = _params_checksum("oracle", parameters, seed)
    payload = {
        "artifact_version": __version__,
        "manifest": checksum,
        "theta": theta,
        "p_inc_target": target,
        "tol": parameters["tol"],
        "seed": seed,
        "restarts": parameters["restarts"],
        "converged": result.converged,
        "p_success": result.point.p_success,
        "p_error": result.point.p_error,
        "p_inc": result.point.p_inconclusive,
        "p_inc_error": result.p_inc_error,
        "closed_form_p_success": closed.p_success,
        "gap_to_closed_form": closed.p_success - result.point.p_success,
        "upper_bound": result.upper_bound,
        "gap": result.gap,
        "certificate": {"y": result.y.tolist(), "lam": result.lam},
        "blocks": {
            "h_m": result.triple.h_m.tolist(),
            "h_n": result.triple.h_n.tolist(),
            "h_i": result.triple.h_i.tolist(),
        },
        "restart_values": list(result.restart_values),
        "best_restart": result.best_restart,
    }
    outputs = {
        "oracle_report.json": _write_json(out_dir / "oracle_report.json", payload)
    }
    _write_manifest(out_dir, "oracle", parameters, seed, outputs)
    return outputs, EXIT_OK if result.converged else EXIT_NONCONVERGED


def _run_simulate(parameters: dict, seed: int, out_dir: Path) -> tuple[dict, int]:
    fmt = parameters["format"]
    imperfections = ImperfectionModel.from_mapping(parameters["noise"])
    if parameters["mode"] == "intermediate":
        table = scan_intermediate(
            theta_list=parameters["theta_grid"],
            transmittance_list=parameters["t_grid"],
            trials=parameters["trials"],
            seed=seed,
            imperfections=imperfections,
        )
    else:
        table = scan_unambiguous(
            transmittance_list=parameters["t_grid"],
            trials=parameters["trials"],
            seed=seed,
            imperfections=imperfections,
        )
    checksum = _params_checksum("simulate", parameters, seed)
    name = f"simulate.{fmt}"
    columns = [table.column(n) for n in table.columns]
    outputs = {
        name: _write_table(out_dir / name, table.columns, columns, checksum, fmt)
    }
    _write_manifest(out_dir, "simulate", parameters, seed, outputs)
    return outputs, EXIT_OK


_RUNNERS = {
    "curves": _run_curves,
    "hull": _run_hull,
    "convexity": _run_convexity,
    "oracle": _run_oracle,
    "simulate": _run_simulate,
}


def _cmd_curves(args) -> int:
    theta = _resolve_theta(args.theta, args.degrees)
    c = overlap(measurement_pair(theta))
    if args.pi_grid is not None:
        grid = _parse_grid(args.pi_grid)
    else:
        grid = [float(v) for v in default_pi_grid(c)]
    parameters = {
        "theta": theta,
        "pi_grid": [float(v) for v in grid],
        "format": args.format,
    }
    _, code = _run_curves(parameters, args.seed, _out_dir(args))
    return code


def _cmd_hull(args) -> int:
    parameters = {"c": args.c, "samples": args.samples, "format": args.format}
    _, code = _run_hull(parameters, args.seed, _out_dir(args))
    return code


def _cmd_convexity(args) -> int:
    parameters = {
        "c_grid": [float(v) for v in _parse_grid(args.c_grid)],
        "pi_grid": (
            [float(v) for v in _parse_grid(args.pi_grid)]
            if args.pi_grid is not None
            else None
        ),
        "h": args.h,
        "format": args.format,
    }
    _, code = _run_convexity(parameters, args.seed, _out_dir(args))
    return code


def _cmd_oracle(args) -> int:
    parameters = {
        "theta": _resolve_theta(args.theta, args.degrees),
        "p_inc_target": args.pi,
        "tol": args.tol,
        "restarts": args.restarts,
    }
    _, code = _run_oracle(parameters, args.seed, _out_dir(args))
    return code


def _cmd_simulate(args) -> int:
    if args.t_grid is not None:
        t_grid = _parse_grid(args.t_grid)
    elif args.mode == "intermediate":
        t_grid = [1.0 - 0.1 * k for k in range(10)]
    else:
        t_grid = [0.1 * k for k in range(11)]
    theta_grid = (
        [_resolve_theta(v, args.degrees) for v in args.theta]
        if args.theta
        else None
    )
    parameters = {
        "mode": args.mode,
        "theta_grid": theta_grid,
        "t_grid": [float(v) for v in t_grid],
        "trials": args.trials,
        "noise": load_imperfections(args.noise).to_mapping(),
        "format": args.format,
    }
    _, code = _run_simulate(parameters, args.seed, _out_dir(args))
    return code


def _cmd_replay(args) -> int:
    path = Path(args.manifest)
    if not path.is_file():
        raise DomainError(f"manifest not found: {args.manifest}")
    try:
        manifest = json.loads(path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"manifest is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ValidationError("manifest must be a JSON object")
    for key in (
        "command", "artifact_version", "parameters", "seed", "params_checksum", "outputs"
    ):
        if key not in manifest:
            raise ValidationError(f"manifest is missing the {key!r} field")
    if not isinstance(manifest["outputs"], dict):
        raise ValidationError("manifest outputs must map file names to checksums")
    command = manifest["command"]
    runner = _RUNNERS.get(command) if isinstance(command, str) else None
    if runner is None:
        raise ValidationError(f"manifest names an unknown command: {command}")
    if manifest["artifact_version"] != __version__:
        raise ValidationError(
            f"manifest was written by measdiscrim {manifest['artifact_version']}, "
            f"this is measdiscrim {__version__}"
        )
    expected = _params_checksum(command, manifest["parameters"], manifest["seed"])
    if expected != manifest["params_checksum"]:
        raise ValidationError("manifest checksum does not match its parameters")
    out_dir = Path(args.out) if args.out is not None else path.parent / "replay"
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs, _ = runner(manifest["parameters"], manifest["seed"], out_dir)
    stored = manifest["outputs"]
    names = sorted(set(stored) | set(outputs))
    mismatched = [n for n in names if stored.get(n) != outputs.get(n)]
    if mismatched:
        print(f"replay mismatch in: {', '.join(mismatched)}", file=sys.stderr)
        return EXIT_THRESHOLD
    print(f"replay ok: {len(names)} output(s) reproduced byte-identically")
    return EXIT_OK


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take non-negative integers only."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {seed}")
    return seed


def _add_common(sub, seed_help: str | None = None) -> None:
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--seed", type=_seed, default=0, help=seed_help)
    sub.add_argument(
        "--degrees", action="store_true", help="interpret angle arguments as degrees"
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="measdiscrim",
        description="Optimal discrimination of a pair of qubit measurements.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curves", help="tabulate the analytic trade-off curves")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--pi-grid", default=None, help="budget grid start:stop:step")
    _add_common(p)
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("hull", help="verify the single-qubit hull numerically")
    p.add_argument("--c", type=float, required=True, help="measurement overlap")
    p.add_argument(
        "--samples", type=int, default=10000, help=f"protocols to sample, at most {MAX_SAMPLES}"
    )
    _add_common(p)
    p.set_defaults(func=_cmd_hull)

    p = sub.add_parser("convexity", help="second-derivative certification table")
    p.add_argument("--c-grid", default="0.05:0.95:0.05")
    p.add_argument("--pi-grid", default=None)
    p.add_argument("--h", type=float, default=1e-4, help="finite-difference step")
    _add_common(p)
    p.set_defaults(func=_cmd_convexity)

    p = sub.add_parser("oracle", help="numerically re-derive one optimal point")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--pi", type=float, required=True, help="inconclusive-rate target")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument(
        "--restarts",
        type=int,
        default=20,
        help="most fallback ascent starts, used only if the tester read off the "
        "dual certificate fails its check",
    )
    _add_common(p, seed_help="seed of the fallback ascent starts")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("simulate", help="Monte Carlo bench scans")
    p.add_argument("--mode", choices=("intermediate", "unambiguous"), required=True)
    p.add_argument("--theta", type=float, nargs="*", default=None)
    p.add_argument("--t-grid", default=None, help="transmittance grid start:stop:step")
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--noise", default="ideal", help="ideal, a preset name, or a path")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("replay", help="re-run a manifest and verify checksums")
    p.add_argument("manifest", help="path to a run manifest")
    p.add_argument("--out", default=None, help="directory for replayed outputs")
    p.set_defaults(func=_cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
