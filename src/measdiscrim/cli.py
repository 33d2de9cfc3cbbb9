"""Command-line front end.

Subcommands write their tables and reports into an output directory
together with a run manifest (command, resolved parameters, seed, artifact
version, output checksums). Replaying a manifest re-runs the command and
verifies that every output reproduces byte for byte.

`_COMMANDS` maps each computing subcommand to (the parameters its parsed
flags resolve to, its runner). A runner `_run_<cmd>(parameters, seed)`
writes nothing: it returns {file name: (column names, 1-D array columns)
or report dict} and an exit code. `_execute`, the one run path of fresh
runs and `replay`, writes those files under one version/checksum header
and then the manifest. `_csv_body` formats a CSV body as bytes in one numpy
pass per block of rows, with `_fmt` as the cell rule.

Exit statuses: 0 success, 2 domain or validation error, 3 numerical
non-convergence, 4 acceptance-threshold breach or replay mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .convexity import check_step, finite_difference_check_array
from .errors import DomainError, ValidationError
from .geometry import GRID_SNAP, TOL, check_integer, check_theta, measurement_pair, overlap
from .oracle import optimize_povm
from .simulator import (
    DEFAULT_INTERMEDIATE_T_GRID,
    DEFAULT_UNAMBIGUOUS_T_GRID,
    ImperfectionModel,
    load_imperfections,
    scan_intermediate,
    scan_unambiguous,
)
from .strategies import (
    MAX_SAMPLES,
    _p_top,
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
HULL_COLUMNS = ("p_inc", "p_success")


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return f"{value:.12g}"
    return str(value)


def _sha256(data: bytes) -> str:
    """Hex SHA-256 of data. hashlib loads OpenSSL, so it is imported here,
    by the runs that write outputs, not with the package."""
    import hashlib

    return hashlib.sha256(data).hexdigest()


def _params_checksum(command: str, parameters: dict, seed: int) -> str:
    run = {"artifact_version": __version__, "command": command,
           "parameters": parameters, "seed": seed}
    canonical = json.dumps(run, sort_keys=True, separators=(",", ":"))
    return _sha256(canonical.encode("utf-8"))


# Rows of a table formatted per pass of `_csv_body`; bounds its working memory.
CSV_BLOCK_ROWS = 4096


def _digit_words() -> np.ndarray:
    """Each 4-digit group 0000..9999 as the little-endian word of its ASCII
    digits, with its trailing zeros as NUL bytes (1200 -> b"12\\0\\0")."""
    digits = np.indices((10, 10, 10, 10), np.uint8).reshape(4, -1).T
    kept = np.maximum.accumulate(digits[:, ::-1], axis=1)[:, ::-1] > 0
    return np.ascontiguousarray(np.where(kept, digits + ord("0"), 0)).view("<u4").ravel()


# The tables below take literals and few numpy calls: each ufunc loop run at
# import pages in code, which every process importing the CLI keeps resident,
# the tester search's included.
_DIGIT_WORDS = _digit_words()
# OR-ed onto the words of the first two groups, by how many of them a
# nonzero later group follows: NUL bytes inside the 12 digits become "0".
_ZERO_FILLS = np.array([0, 0x30303030, 0x30303030_30303030], "<u8")
# `_CELL_EDGES.searchsorted(x, side="right")` is the cell class of x: 0 for
# x < -1; 1..4 for -1 <= x < -1e-4 by decade of |x|; 5 for -1e-4 <= x < 1e-4;
# 6..9 for 1e-4 <= x < 1 by decade; 10 for x >= 1 and NaN. A negative power
# of ten lands one class up, where its product is out of range.
_CELL_EDGES = np.array([-1.0, -0.1, -0.01, -1e-3, -1e-4, 1e-4, 1e-3, 1e-2, 0.1, 1.0])
# x * scale = |x| * 10**(11 - decade): the 12 significant digits. Classes 0,
# 5 and 10 take a scale that keeps the product finite and out of range.
_CELL_SCALES = np.array([-1e-300, -1e12, -1e13, -1e14, -1e15, 0.0, 1e15, 1e14, 1e13, 1e12, 1e-300])


def _cell_prefixes() -> np.ndarray:
    """Word 0 of a packed cell by class: the sign, "0." and the zeros between
    the point and the first digit. Classes 0, 5 and 10 are never packed."""
    prefix = np.zeros((11, 8), np.uint8)
    prefix[1:5, 0] = ord("-")
    prefix[1:10, 1:3] = np.frombuffer(b"0.", np.uint8)
    zeros = np.array([0, 0, 1, 2, 3, 0, 3, 2, 1, 0, 0])
    prefix[:, 3:6] = np.where(np.arange(3) < zeros[:, None], ord("0"), 0)
    return prefix.view("<u8").ravel()


_CELL_PREFIXES = _cell_prefixes()
# The range of 12-digit integers, widened to the rounding ties around it so
# that a product clamped into it reads as a tie.
_PACK_LO, _PACK_HI = 1e11 - 0.5, 1e12 - 0.5
# A product nearer than 2.5e-4 to a rounding tie goes to `%`: below 2**40 it
# carries at most 2**-14 of rounding error, so every other one rounds as x does.
_TIE_BAND = 0.5 - 2.5e-4
_COMMA, _NEWLINE = np.uint64(ord(",") << 56), np.uint64(ord("\n") << 56)


def _pack_cells(values: np.ndarray, cells: np.ndarray) -> None:
    """Write the `%.12g` text of each of `values` into its row of `cells`.

    A row of `cells` is three or more little-endian words. The text goes in
    bytes 0..22, NUL where it is shorter; bytes 20..22 and any words after
    the third must be zero beforehand, and byte 23 is left alone. A value with
    1e-4 <= |x| < 1 is packed from m = rint(|x| * 10**(11 - decade)), one
    exact power of ten and one rounding: the sign, "0." and leading zeros
    from `_CELL_PREFIXES`, then the three 4-digit groups of m from
    `_DIGIT_WORDS`. The rest (0, ±inf, |x| < 1e-4, |x| >= 1, a negative
    power of ten, a product near a tie and a carry into the next decade) go
    through one `%-23.12g` pass, and NaN becomes an empty cell.
    """
    cls = _CELL_EDGES.searchsorted(values, side="right")
    scaled = np.fmin(np.fmax(values * _CELL_SCALES.take(cls), _PACK_LO), _PACK_HI)
    m = np.rint(scaled)
    slow = (np.abs(scaled - m) > _TIE_BAND).nonzero()[0]
    m = m.astype(np.int64)
    high = m // 10_000
    a = high // 10_000
    b = high - a * 10_000
    c = m - high * 10_000
    cells[:, 0] = _CELL_PREFIXES.take(cls)
    digits = cells.view("<u4")
    # Clamped products reach 10**12, whose group a = 10 000 wraps; `%`
    # overwrites those cells.
    for k, group in enumerate((a, b, c)):
        digits[:, 2 + k] = _DIGIT_WORDS.take(group, mode="wrap")
    cells[:, 1] |= _ZERO_FILLS.take(np.sign(b | c) + np.sign(c))
    if slow.size:
        vals = values[slow].tolist()
        text = (b"%-23.12g" * len(vals) % tuple(vals)).replace(b"nan", b"   ")
        cells.view(np.uint8)[slow, :23] = np.frombuffer(
            text.replace(b" ", b"\0"), np.uint8
        ).reshape(-1, 23)


def _csv_body(columns) -> bytes:
    """The CSV lines of the rows of 1-D array columns, as bytes.

    The rows go in blocks of `CSV_BLOCK_ROWS`. A block is one array of
    fixed-width cells, NUL-padded text followed by its separator, and one
    `bytes.translate` deletes the padding. All float cells of a block are
    packed by one `_pack_cells` call, whose text equals `_fmt`'s; every
    other column is its `_fmt` cells as an `S` array, so `_fmt` stays the
    one rule for a cell.
    """
    out = []
    for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        block = [column[start:start + CSV_BLOCK_ROWS] for column in columns]
        rows, last = len(block[0]), len(block) - 1
        texts = {
            j: [(_fmt(v) + ("\n" if j == last else ",")).encode() for v in column.tolist()]
            for j, column in enumerate(block)
            if column.dtype.kind != "f"
        }
        width = max([3] + [-(-max(map(len, t)) // 8) for t in texts.values()])
        # Column-major cells: word -1 of each ends with its separator.
        cells = np.zeros((len(block), rows, width), "<u8")
        cells[..., -1] = _COMMA
        cells[-1, :, -1] = _NEWLINE
        # A text column packs a placeholder, which its texts then overwrite.
        values = np.concatenate(
            [np.full(rows, 0.5) if j in texts else column for j, column in enumerate(block)]
        )
        _pack_cells(values, cells.reshape(-1, width))
        for j, text in texts.items():
            cells[j] = np.array(text, dtype=f"S{8 * width}").view("<u8").reshape(rows, width)
        out.append(cells.transpose(1, 0, 2).tobytes().translate(None, b"\0"))
    return b"".join(out)


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _output_bytes(name: str, result, checksum: str) -> bytes:
    """The bytes of one output file, headed by the version and the checksum.

    A report dict is written as JSON. A table goes to CSV or JSON by the
    suffix of its file name; its JSON rows are the columns zipped back
    together, with NaN written as null.
    """
    if not isinstance(result, dict):
        names, columns = result
        if name.endswith(".csv"):
            header = f"# artifact={__version__} manifest={checksum}\n{','.join(names)}\n"
            return header.encode("utf-8") + _csv_body(columns)
        values = [column.tolist() for column in columns]
        result = {
            "columns": list(names),
            "rows": [
                [None if isinstance(v, float) and math.isnan(v) else v for v in row]
                for row in zip(*values)
            ],
        }
    return _json_bytes({"artifact_version": __version__, "manifest": checksum, **result})


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
    if not count <= MAX_GRID_POINTS - 1 + GRID_SNAP:
        raise DomainError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    # A count within GRID_SNAP below a whole number rounds up to it.
    n = int(math.floor(count + GRID_SNAP))
    grid = [start + k * step for k in range(n + 1)]
    if abs(grid[-1] - stop) <= GRID_SNAP * max(1.0, abs(step)):
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


def _curves_parameters(args) -> dict:
    theta = _resolve_theta(args.theta, args.degrees)
    if args.pi_grid is not None:
        grid = _parse_grid(args.pi_grid)
    else:
        grid = default_pi_grid(overlap(measurement_pair(theta)))
    return {"theta": theta, "pi_grid": [float(v) for v in grid], "format": args.format}


def _run_curves(parameters: dict, seed: int) -> tuple[dict, int]:
    theta = parameters["theta"]
    pair = measurement_pair(theta)
    c = overlap(pair)
    p_max = _p_top(c)
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
    return {f"curves.{parameters['format']}": (CURVE_COLUMNS, columns)}, EXIT_OK


def _hull_parameters(args) -> dict:
    return {"c": args.c, "samples": args.samples}


def _run_hull(parameters: dict, seed: int) -> tuple[dict, int]:
    report = hull_verify(parameters["c"], parameters["samples"], seed)
    summary = {
        "c": report.c,
        "n_samples": report.n_samples,
        "seed": report.seed,
        "degenerate": report.degenerate,
        "certificate_gap": report.certificate_gap,
        "sample_excess": report.sample_excess,
        "point_a": list(report.point_a),
        "point_t": list(report.point_t) if report.point_t is not None else None,
        "point_u": list(report.point_u),
    }
    results = {
        "hull_points.csv": (HULL_COLUMNS, report.points.T),
        "hull_report.json": summary,
    }
    worst = max(report.certificate_gap, report.sample_excess)
    code = EXIT_OK if worst <= HULL_DEVIATION_LIMIT else EXIT_THRESHOLD
    return results, code


def _convexity_default_budgets(c: float) -> list[float]:
    pib = boundary_PIB(c)
    p_top = _p_top(c)
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


def _convexity_parameters(args) -> dict:
    pi_grid = None if args.pi_grid is None else _parse_grid(args.pi_grid)
    return {"c_grid": _parse_grid(args.c_grid), "pi_grid": pi_grid, "h": args.h,
            "format": args.format}


def _run_convexity(parameters: dict, seed: int) -> tuple[dict, int]:
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
    p_top = _p_top(c)
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
    columns = (c, p, analytic, numeric, rel_err, branch)
    name = f"convexity.{parameters['format']}"
    return {name: (CONVEXITY_COLUMNS, columns)}, EXIT_THRESHOLD if breach else EXIT_OK


def _oracle_parameters(args) -> dict:
    return {
        "theta": _resolve_theta(args.theta, args.degrees),
        "p_inc_target": args.pi,
        "tol": args.tol,
    }


def _run_oracle(parameters: dict, seed: int) -> tuple[dict, int]:
    theta = parameters["theta"]
    target = parameters["p_inc_target"]
    pair = measurement_pair(theta)
    result = optimize_povm(pair, target, tol=parameters["tol"])
    closed = entangled_success(theta, min(max(target, 0.0), overlap(pair)))
    report = {
        "theta": theta,
        "p_inc_target": target,
        "tol": parameters["tol"],
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
    }
    code = EXIT_OK if result.converged else EXIT_NONCONVERGED
    return {"oracle_report.json": report}, code


def _simulate_parameters(args) -> dict:
    if args.t_grid is not None:
        t_grid = _parse_grid(args.t_grid)
    elif args.mode == "intermediate":
        t_grid = DEFAULT_INTERMEDIATE_T_GRID
    else:
        t_grid = DEFAULT_UNAMBIGUOUS_T_GRID
    return {
        "mode": args.mode,
        "theta_grid": [_resolve_theta(v, args.degrees) for v in args.theta or ()] or None,
        "t_grid": [float(v) for v in t_grid],
        "trials": args.trials,
        "noise": load_imperfections(args.noise).to_mapping(),
        "format": args.format,
    }


def _run_simulate(parameters: dict, seed: int) -> tuple[dict, int]:
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
    name = f"simulate.{parameters['format']}"
    return {name: (list(table), list(table.values()))}, EXIT_OK


# Each computing subcommand: (its parameters from the parsed flags, its runner).
_COMMANDS = {
    "curves": (_curves_parameters, _run_curves),
    "hull": (_hull_parameters, _run_hull),
    "convexity": (_convexity_parameters, _run_convexity),
    "oracle": (_oracle_parameters, _run_oracle),
    "simulate": (_simulate_parameters, _run_simulate),
}


def _execute(command: str, parameters: dict, seed: int, out_dir: Path) -> tuple[dict, int]:
    """Run `command` and write its outputs and `manifest.json` into `out_dir`.

    Returns ({file name: SHA-256}, exit code). Nothing is written if the
    runner raises; an output directory that cannot be made or written to is
    a `DomainError`.
    """
    results, code = _COMMANDS[command][1](parameters, seed)
    checksum = _params_checksum(command, parameters, seed)
    files = {name: _output_bytes(name, result, checksum) for name, result in results.items()}
    outputs = {name: _sha256(data) for name, data in files.items()}
    files["manifest.json"] = _json_bytes(
        {
            "command": command,
            "parameters": parameters,
            "seed": seed,
            "artifact_version": __version__,
            "params_checksum": checksum,
            "outputs": outputs,
        }
    )
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, data in files.items():
            (out_dir / name).write_bytes(data)
    except OSError as exc:
        raise DomainError(f"cannot write outputs to {out_dir}: {exc.strerror}") from None
    return outputs, code


def _replay(args) -> int:
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
    command, parameters, seed = manifest["command"], manifest["parameters"], manifest["seed"]
    if not isinstance(command, str) or command not in _COMMANDS:
        raise ValidationError(f"manifest names an unknown command: {command}")
    if manifest["artifact_version"] != __version__:
        raise ValidationError(
            f"manifest was written by measdiscrim {manifest['artifact_version']}, "
            f"this is measdiscrim {__version__}"
        )
    if not isinstance(parameters, dict):
        raise ValidationError("manifest parameters must be a JSON object")
    # The format names an output file, so only the two known suffixes pass.
    if parameters.get("format", "csv") not in ("csv", "json"):
        raise ValidationError(f"manifest format must be csv or json: {parameters['format']!r}")
    if _params_checksum(command, parameters, seed) != manifest["params_checksum"]:
        raise ValidationError("manifest checksum does not match its parameters")
    out_dir = Path(args.out) if args.out is not None else path.parent / "replay"
    try:
        outputs, _ = _execute(command, parameters, seed, out_dir)
    except (DomainError, ValidationError):
        raise
    except (LookupError, AttributeError, TypeError, ValueError) as exc:
        raise ValidationError(
            f"manifest {path} holds {command} parameters that do not run: {exc!r}"
        ) from None
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
    try:
        return check_integer(int(text), "seed")
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_flags(sub, *flags: str) -> None:
    """Add --out and those of --format, --seed and --degrees that `sub` reads."""
    sub.add_argument("--out", default=".", help="output directory")
    if "--format" in flags:
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
    if "--seed" in flags:
        sub.add_argument("--seed", type=_seed, default=0)
    if "--degrees" in flags:
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
    _add_flags(p, "--format", "--degrees")

    p = sub.add_parser("hull", help="certify the single-qubit optimum by its dual")
    p.add_argument("--c", type=float, required=True, help="measurement overlap")
    p.add_argument(
        "--samples", type=int, default=10000, help=f"protocols to sample, at most {MAX_SAMPLES}"
    )
    _add_flags(p, "--seed")

    p = sub.add_parser("convexity", help="second-derivative certification table")
    p.add_argument("--c-grid", default="0.05:0.95:0.05")
    p.add_argument("--pi-grid", default=None)
    p.add_argument("--h", type=float, default=1e-4, help="finite-difference step")
    _add_flags(p, "--format")

    p = sub.add_parser("oracle", help="numerically re-derive one optimal point")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--pi", type=float, required=True, help="inconclusive-rate target")
    p.add_argument("--tol", type=float, default=1e-4)
    _add_flags(p, "--degrees")

    p = sub.add_parser("simulate", help="Monte Carlo bench scans")
    p.add_argument("--mode", choices=("intermediate", "unambiguous"), required=True)
    p.add_argument("--theta", type=float, nargs="*", default=None)
    p.add_argument("--t-grid", default=None, help="transmittance grid start:stop:step")
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--noise", default="ideal", help="ideal, a preset name, or a path")
    _add_flags(p, "--format", "--seed", "--degrees")

    p = sub.add_parser("replay", help="re-run a manifest and verify checksums")
    p.add_argument("manifest", help="path to a run manifest")
    p.add_argument("--out", default=None, help="directory for replayed outputs")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "replay":
            return _replay(args)
        # curves, convexity and oracle draw nothing and record seed 0.
        seed = getattr(args, "seed", 0)
        parameters = _COMMANDS[args.command][0](args)
        return _execute(args.command, parameters, seed, Path(args.out))[1]
    except (DomainError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
