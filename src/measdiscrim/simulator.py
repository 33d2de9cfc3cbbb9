"""Monte Carlo bench model of the entangled discrimination experiment.

Each trial prepares a singlet (degraded to a Werner state under imperfect
visibility), lets the unknown device measure one side, applies the
feed-forward branch correction on the other, pushes it through a
variable-reflectivity beam-splitter filter, and reads the surviving qubit
out interferometrically on two detectors. Counts land in twelve cells
(device label x device outcome x detector) and are thinned by detector
efficiencies. `estimate` inverts the thinning and returns probability
estimates with delta-method error bars.

The simulation is exact-cell: `cell_probabilities` gives, in closed form,
the chance that one trial registers in each cell, and since trials are
independent and identically distributed `run_trials` draws all counts as
one multinomial from a generator keyed by (seed, stream).

The scans check their whole (theta, T) grid once and evaluate all rows in
one array pass: cells, draws (one generator per row, keyed by (seed,
stream) with stream = row index) and estimates work on a leading row
axis. They return {column: 1-D array}. The per-config `cell_probabilities`,
`run_trials` and `estimate` are the one-row case of the same code.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainError, ValidationError
from .geometry import check_integer, check_theta
from .strategies import StrategyPoint

DEFAULT_THETA_GRID = tuple(j * math.pi / 30.0 for j in range(1, 8))
DEFAULT_INTERMEDIATE_T_GRID = tuple(1.0 - 0.1 * k for k in range(10))
DEFAULT_UNAMBIGUOUS_T_GRID = tuple(0.1 * k for k in range(11))
# The largest count a multinomial draw takes (int64).
MAX_TRIALS = 2**63 - 1

_CONFIG_KEYS = {
    "eta_D0": "eta_d0",
    "eta_D1": "eta_d1",
    "eta_DA": "eta_da",
    "eta_DB": "eta_db",
    "eta_DI": "eta_di",
    "phase_noise_sigma_rad": "phase_noise_sigma",
    "singlet_visibility": "singlet_visibility",
    "splitter_imbalance": "splitter_imbalance",
}

SCAN_COLUMNS = (
    "theta",
    "transmittance",
    "p_inc",
    "p_inc_sigma",
    "p_success",
    "p_success_sigma",
    "p_error",
    "p_error_sigma",
    "rel_success",
    "rel_success_sigma",
)


@dataclass(frozen=True)
class ImperfectionModel:
    """Detector efficiencies and setup noise; defaults model a perfect bench."""

    eta_d0: float = 1.0
    eta_d1: float = 1.0
    eta_da: float = 1.0
    eta_db: float = 1.0
    eta_di: float = 1.0
    phase_noise_sigma: float = 0.0
    singlet_visibility: float = 1.0
    splitter_imbalance: float = 0.0

    def __post_init__(self):
        for name in ("eta_d0", "eta_d1", "eta_da", "eta_db", "eta_di"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValidationError(f"{name} must lie in (0, 1]")
        if not (math.isfinite(self.phase_noise_sigma) and self.phase_noise_sigma >= 0.0):
            raise ValidationError("phase_noise_sigma must be finite and non-negative")
        if not 0.0 <= self.singlet_visibility <= 1.0:
            raise ValidationError("singlet_visibility must lie in [0, 1]")
        if not -0.5 <= self.splitter_imbalance <= 0.5:
            raise ValidationError("splitter_imbalance must lie in [-0.5, 0.5]")

    @classmethod
    def ideal(cls) -> "ImperfectionModel":
        return cls()

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ImperfectionModel":
        kwargs = {}
        for key, value in mapping.items():
            if key not in _CONFIG_KEYS:
                raise ValidationError(f"unknown imperfection key: {key}")
            try:
                kwargs[_CONFIG_KEYS[key]] = float(value)
            except (TypeError, ValueError):
                raise ValidationError(
                    f"imperfection key {key} needs a number, got {value!r}"
                ) from None
        return cls(**kwargs)

    def to_mapping(self) -> dict:
        return {key: getattr(self, name) for key, name in _CONFIG_KEYS.items()}

    def cell_efficiencies(self) -> np.ndarray:
        """Chance that a hit of an (outcome, detector) cell registers, (2, 3)."""
        return np.outer([self.eta_d0, self.eta_d1], [self.eta_da, self.eta_db, self.eta_di])


def _parse_config_text(text: str) -> dict:
    """`key = value` lines to {key: value text}; from_mapping converts them."""
    mapping = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"malformed config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        mapping[key] = value
    return mapping


def load_imperfections(source: str) -> ImperfectionModel:
    """Resolve a noise configuration: 'ideal', a packaged preset, or a path."""
    if source == "ideal":
        return ImperfectionModel.ideal()
    if re.fullmatch(r"[a-z][a-z0-9_]*", source):
        from importlib.resources import files

        resource = files("measdiscrim").joinpath("presets", f"{source}.cfg")
        if resource.is_file():
            return ImperfectionModel.from_mapping(
                _parse_config_text(resource.read_text())
            )
        raise DomainError(f"unknown noise preset: {source}")
    path = Path(source)
    if not path.is_file():
        raise DomainError(f"noise configuration not found: {source}")
    return ImperfectionModel.from_mapping(_parse_config_text(path.read_text()))


def _check_bench(theta, transmittance, trials, seed):
    """The one domain check of the bench settings, for one row or a grid.

    Checks every transmittance, then every angle (`check_theta`), then the
    trial count and the seed, so a grid with two faults reports the first
    in that order. Returns the clamped angles and the count and seed as
    Python ints.
    """
    t = np.asarray(transmittance, dtype=float)
    if not np.all((t >= 0.0) & (t <= 1.0)):
        raise DomainError("transmittance must lie in [0, 1]")
    theta = check_theta(theta)
    bounds = f"trials must lie in [1, 2**63 - 1], got {trials}"
    trials = check_integer(trials, "trials", 1, MAX_TRIALS, below=bounds, above=bounds)
    return theta, trials, check_integer(seed, "seed")


@dataclass(frozen=True)
class ExperimentConfig:
    theta: float
    vrc_transmittance: float
    trials: int
    seed: int
    imperfections: ImperfectionModel = field(default_factory=ImperfectionModel.ideal)

    def __post_init__(self):
        theta, trials, seed = _check_bench(
            self.theta, self.vrc_transmittance, self.trials, self.seed
        )
        object.__setattr__(self, "theta", float(theta))
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", seed)


@dataclass(frozen=True)
class CoincidenceCounts:
    """Registered coincidences, indexed (device M/N, outcome, detector A/B/I)."""

    counts: np.ndarray
    trials: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (2, 2, 3):
            raise ValidationError("counts must have shape (2, 2, 3)")
        if counts.min() < 0:
            raise ValidationError("counts must be non-negative")
        if counts.sum() > self.trials:
            raise ValidationError("registered counts exceed trial budget")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def _cells(theta, transmittance, imp: ImperfectionModel) -> np.ndarray:
    """`cell_probabilities` for rows of checked (theta, T), shape (R, 2, 2, 3)."""
    theta = np.asarray(theta, dtype=float).tolist()
    c = np.array([math.cos(x) for x in theta])
    s = np.array([math.sin(x) for x in theta])
    o, z = np.ones_like(c), np.zeros_like(c)
    # Held-qubit amplitudes (a, b) per (device, outcome, branch), with the
    # feed-forward swap already applied on outcome 0.
    a = np.stack([-c, z, o, c, o, z, c, z, o, c, o, z], axis=-1).reshape(-1, 2, 2, 3)
    b = np.stack([s, o, z, s, z, o, s, o, z, -s, z, o], axis=-1).reshape(-1, 2, 2, 3)
    t_filter = np.asarray(transmittance, dtype=float)[:, None, None, None]
    impostor = 0.125 * (1.0 - imp.singlet_visibility)
    weight = np.array([0.25 * imp.singlet_visibility, impostor, impostor])

    p_fail = (1.0 - t_filter) * a * a
    a_pass = np.sqrt(t_filter) * a
    norm = np.sqrt(a_pass * a_pass + b * b)
    norm = np.where(norm > 0.0, norm, 1.0)
    a_out = a_pass / norm
    b_out = b / norm
    split = 0.5 + imp.splitter_imbalance
    cross = 2.0 * math.sqrt(split * (1.0 - split))
    mean_cos = math.exp(-0.5 * imp.phase_noise_sigma**2)
    p_bright = (
        split * a_out * a_out
        + (1.0 - split) * b_out * b_out
        + cross * a_out * b_out * mean_cos
    )
    p_bright = np.clip(p_bright, 0.0, 1.0)
    # Flush float dust so analytically dark ports stay silent.
    p_bright = np.where(p_bright < 1e-24, 0.0, p_bright)
    p_bright = np.where(p_bright > 1.0 - 1e-24, 1.0, p_bright)
    p_pass = 1.0 - p_fail
    branches = np.stack(
        [p_pass * (1.0 - p_bright), p_pass * p_bright, p_fail], axis=-1
    )
    cells = (weight[:, None] * branches).sum(axis=3)
    return cells * imp.cell_efficiencies()


def cell_probabilities(config: ExperimentConfig) -> np.ndarray:
    """Probability that one trial registers in each cell, shape (2, 2, 3).

    Indexed (device, outcome, detector). Sums over three branches per
    (device, outcome): the collapsed singlet and the two impostors |0>, |1>
    that stand in for the white-noise part of a Werner state. Each branch
    gets the feed-forward swap on outcome 0, fails the filter with
    probability (1 - T) a^2 (detector I), and otherwise reaches the dark
    (A) or bright (B) port; the phase average of the interference term is
    E[cos chi] = exp(-sigma^2 / 2). Cells are then thinned by the product
    of the outcome-side and answer-side efficiencies; the rest of the unit
    mass is the chance that a trial registers nowhere.
    """
    return _cells([config.theta], [config.vrc_transmittance], config.imperfections)[0]


def _draw(cells: np.ndarray, trials: int, seed: int, stream: int = 0) -> np.ndarray:
    """Counts for rows of cells, shape (R, 2, 2, 3).

    Row k is one Multinomial(trials; cells, loss) draw from the generator
    keyed by (seed, stream + k).
    """
    flat = cells.reshape(len(cells), 12)
    pvals = np.column_stack([flat, np.maximum(1.0 - flat.sum(axis=1), 0.0)])
    counts = [
        np.random.default_rng((seed, stream + k)).multinomial(trials, p)
        for k, p in enumerate(pvals)
    ]
    return np.array(counts, dtype=np.int64).reshape(-1, 13)[:, :12].reshape(-1, 2, 2, 3)


def run_trials(config: ExperimentConfig, stream: int = 0) -> CoincidenceCounts:
    """Simulate the bench and return coincidence counts.

    Trials are independent and each one registers in one of the twelve
    cells of `cell_probabilities` or nowhere, so the counts are one draw
    of Multinomial(trials; cell probabilities, loss) from the generator
    keyed by (seed, stream). The cost does not depend on `trials`.
    """
    cells = cell_probabilities(config)[None]
    counts = _draw(cells, config.trials, config.seed, stream)[0]
    return CoincidenceCounts(counts=counts, trials=config.trials)


@dataclass(frozen=True)
class EstimateResult:
    """Probability estimates with delta-method standard errors."""

    point: StrategyPoint
    std_errors: tuple[float, float, float]
    registered: int
    conclusive: int
    rel_success: float
    rel_success_sigma: float


# Cells by (device, outcome, detector): the bench answers M on the dark port
# A after outcome 0 and on the bright port B after outcome 1, N the other way
# round, and detector I is inconclusive.
_DEVICE, _OUTCOME, _DETECTOR = np.indices((2, 2, 3))
_SUCCESS = _DETECTOR == _DEVICE ^ _OUTCOME
_ERROR = _DETECTOR == 1 - (_DEVICE ^ _OUTCOME)
_INCONCLUSIVE = _DETECTOR == 2
_ALL = np.ones((2, 2, 3), dtype=bool)


def _ratio(numerator, denominator, counts, weights):
    """Reweighted count ratios of rows and their delta-method standard errors.

    The estimate is f = A/B with A = sum(n_k / w_k) over the numerator
    cells and B the same over the denominator cells. Under multinomial
    counts, Var f ~ sum_k g_k^2 n_k / B^2 with g_k = (1[k in num] -
    f 1[k in den]) / w_k; for unit weights this is f (1 - f) / n_den.
    A row with B = 0 gets NaN for both.
    """
    a = (numerator / weights).reshape(12)
    b = (denominator / weights).reshape(12)
    total = (b * counts).sum(axis=1)
    has = total > 0.0
    total = np.where(has, total, 1.0)
    f = (a * counts).sum(axis=1) / total
    g = a - f[:, None] * b
    sigma = np.sqrt((g * g * counts).sum(axis=1)) / total
    return np.where(has, f, np.nan), np.where(has, sigma, np.nan)


def _estimate_rows(counts: np.ndarray, imp: ImperfectionModel) -> dict:
    """`estimate` for rows of counts (R, 2, 2, 3), as the estimate columns
    of SCAN_COLUMNS; rows with no conclusive event get NaN rel_success."""
    flat = counts.reshape(len(counts), 12)
    if not flat.sum(axis=1).all():
        raise ValidationError("no registered coincidences to estimate from")
    weights = imp.cell_efficiencies()
    columns = {}
    for name, numerator, denominator in (
        ("p_inc", _INCONCLUSIVE, _ALL),
        ("p_success", _SUCCESS, _ALL),
        ("p_error", _ERROR, _ALL),
        ("rel_success", _SUCCESS, ~_INCONCLUSIVE),
    ):
        ratio = _ratio(numerator, denominator, flat, weights)
        columns[name], columns[f"{name}_sigma"] = ratio
    return columns


def estimate(
    counts: CoincidenceCounts, efficiencies: ImperfectionModel | None = None
) -> EstimateResult:
    """Invert efficiency thinning and estimate (P_S, P_E, P_I).

    Each probability is a ratio of efficiency-reweighted counts, and its
    standard error is the delta-method error of that ratio under
    multinomial counts; with unit efficiencies these are the binomial
    errors over the registered coincidences. The conditional success rate
    uses only conclusive events.
    """
    imp = efficiencies if efficiencies is not None else ImperfectionModel.ideal()
    row = {k: float(v[0]) for k, v in _estimate_rows(counts.counts[None], imp).items()}
    registered = counts.total
    return EstimateResult(
        point=StrategyPoint(row["p_success"], row["p_error"], row["p_inc"]),
        std_errors=(row["p_success_sigma"], row["p_error_sigma"], row["p_inc_sigma"]),
        registered=registered,
        conclusive=registered - int(counts.counts[_INCONCLUSIVE].sum()),
        rel_success=row["rel_success"],
        rel_success_sigma=row["rel_success_sigma"],
    )


def _scan(theta, transmittance, trials, seed, imperfections) -> tuple[dict, np.ndarray]:
    """Check the (theta, T) rows once, then draw and estimate them all.

    Returns the SCAN_COLUMNS and the counts; row k uses stream k. The
    theta column keeps the angles as given; the cells use them clamped.
    """
    imp = imperfections if imperfections is not None else ImperfectionModel.ideal()
    theta = np.asarray(theta, dtype=float)
    transmittance = np.asarray(transmittance, dtype=float)
    clamped, trials, seed = _check_bench(theta, transmittance, trials, seed)
    counts = _draw(_cells(clamped, transmittance, imp), trials, seed)
    columns = {"theta": theta, "transmittance": transmittance}
    columns.update(_estimate_rows(counts, imp))
    return columns, counts


def scan_intermediate(
    theta_list=None,
    transmittance_list=None,
    trials: int = 1_000_000,
    seed: int = 0,
    imperfections: ImperfectionModel | None = None,
) -> dict:
    """Sweep filter transmittance across probe angles, theta-major.

    Returns {column: 1-D array} in SCAN_COLUMNS order, one row per cell.
    """
    thetas = DEFAULT_THETA_GRID if theta_list is None else tuple(theta_list)
    t_values = (
        DEFAULT_INTERMEDIATE_T_GRID
        if transmittance_list is None
        else tuple(transmittance_list)
    )
    theta = np.repeat(thetas, len(t_values))
    return _scan(theta, np.tile(t_values, len(thetas)), trials, seed, imperfections)[0]


def scan_unambiguous(
    transmittance_list=None,
    trials: int = 1_000_000,
    seed: int = 0,
    imperfections: ImperfectionModel | None = None,
) -> dict:
    """Sweep the unambiguous working points theta = arctan(sqrt(T)).

    Returns {column: 1-D array}: SCAN_COLUMNS and an extra error_counts
    column with the raw coincidences in the four wrong-answer cells, which
    an ideal bench never fires.
    """
    t_values = (
        DEFAULT_UNAMBIGUOUS_T_GRID
        if transmittance_list is None
        else tuple(transmittance_list)
    )
    # A negative T is rejected by the bench check, not by sqrt.
    theta = [math.atan(math.sqrt(max(t, 0.0))) for t in t_values]
    columns, counts = _scan(theta, t_values, trials, seed, imperfections)
    columns["error_counts"] = counts[:, _ERROR].sum(axis=1).astype(float)
    return columns
