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
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainError, ValidationError
from .geometry import check_integer, check_theta
from .strategies import CurveTable, StrategyPoint

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


@dataclass(frozen=True)
class ExperimentConfig:
    theta: float
    vrc_transmittance: float
    trials: int
    seed: int
    imperfections: ImperfectionModel = field(default_factory=ImperfectionModel.ideal)

    def __post_init__(self):
        if not 0.0 <= self.vrc_transmittance <= 1.0:
            raise DomainError("transmittance must lie in [0, 1]")
        object.__setattr__(self, "theta", float(check_theta(self.theta)))
        bounds = f"trials must lie in [1, 2**63 - 1], got {self.trials}"
        trials = check_integer(
            self.trials, "trials", 1, MAX_TRIALS, below=bounds, above=bounds
        )
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", check_integer(self.seed, "seed"))


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
    imp = config.imperfections
    t_filter = config.vrc_transmittance
    cos_t, sin_t = math.cos(config.theta), math.sin(config.theta)
    # Held-qubit amplitudes (a, b) per (device, outcome, branch), with the
    # feed-forward swap already applied on outcome 0.
    a = np.array(
        [[[-cos_t, 0.0, 1.0], [cos_t, 1.0, 0.0]], [[cos_t, 0.0, 1.0], [cos_t, 1.0, 0.0]]]
    )
    b = np.array(
        [[[sin_t, 1.0, 0.0], [sin_t, 0.0, 1.0]], [[sin_t, 1.0, 0.0], [-sin_t, 0.0, 1.0]]]
    )
    impostor = 0.125 * (1.0 - imp.singlet_visibility)
    weight = np.array([0.25 * imp.singlet_visibility, impostor, impostor])

    p_fail = (1.0 - t_filter) * a * a
    a_pass = math.sqrt(t_filter) * a
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
    cells = (weight[:, None] * branches).sum(axis=2)
    return cells * imp.cell_efficiencies()


def run_trials(config: ExperimentConfig, stream: int = 0) -> CoincidenceCounts:
    """Simulate the bench and return coincidence counts.

    Trials are independent and each one registers in one of the twelve
    cells of `cell_probabilities` or nowhere, so the counts are one draw
    of Multinomial(trials; cell probabilities, loss) from the generator
    keyed by (seed, stream). The cost does not depend on `trials`.
    """
    cells = cell_probabilities(config).ravel()
    pvals = np.append(cells, max(1.0 - cells.sum(), 0.0))
    rng = np.random.default_rng((config.seed, stream))
    counts = rng.multinomial(config.trials, pvals)[:12]
    return CoincidenceCounts(counts=counts.reshape(2, 2, 3), trials=config.trials)


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


def _ratio(numerator, denominator, counts, weights) -> tuple[float, float]:
    """A reweighted count ratio and its delta-method standard error.

    The estimate is f = A/B with A = sum(n_k / w_k) over the numerator
    cells and B the same over the denominator cells. Under multinomial
    counts, Var f ~ sum_k g_k^2 n_k / B^2 with g_k = (1[k in num] -
    f 1[k in den]) / w_k; for unit weights this is f (1 - f) / n_den.
    """
    a = numerator / weights
    b = denominator / weights
    total = float((b * counts).sum())
    f = float((a * counts).sum()) / total
    g = a - f * b
    return f, math.sqrt(float((g * g * counts).sum())) / total


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
    registered = counts.total
    if registered == 0:
        raise ValidationError("no registered coincidences to estimate from")
    imp = efficiencies if efficiencies is not None else ImperfectionModel.ideal()
    weights = imp.cell_efficiencies()
    n = counts.counts
    all_cells = np.ones((2, 2, 3), dtype=bool)
    p_success, s_success = _ratio(_SUCCESS, all_cells, n, weights)
    p_error, s_error = _ratio(_ERROR, all_cells, n, weights)
    p_inc, s_inc = _ratio(_INCONCLUSIVE, all_cells, n, weights)
    point = StrategyPoint(p_success, p_error, p_inc)
    conclusive = registered - int(n[_INCONCLUSIVE].sum())
    if conclusive > 0:
        rel, rel_sigma = _ratio(_SUCCESS, ~_INCONCLUSIVE, n, weights)
    else:
        rel = float("nan")
        rel_sigma = float("nan")
    return EstimateResult(
        point=point,
        std_errors=(s_success, s_error, s_inc),
        registered=registered,
        conclusive=conclusive,
        rel_success=rel,
        rel_success_sigma=rel_sigma,
    )


def _scan_row(
    theta: float,
    transmittance: float,
    trials: int,
    seed: int,
    stream: int,
    imperfections: ImperfectionModel,
) -> tuple:
    config = ExperimentConfig(
        theta=theta,
        vrc_transmittance=transmittance,
        trials=trials,
        seed=seed,
        imperfections=imperfections,
    )
    counts = run_trials(config, stream=stream)
    est = estimate(counts, imperfections)
    row = (
        theta,
        transmittance,
        est.point.p_inconclusive,
        est.std_errors[2],
        est.point.p_success,
        est.std_errors[0],
        est.point.p_error,
        est.std_errors[1],
        est.rel_success,
        est.rel_success_sigma,
    )
    return row, counts


def scan_intermediate(
    theta_list=None,
    transmittance_list=None,
    trials: int = 1_000_000,
    seed: int = 0,
    imperfections: ImperfectionModel | None = None,
) -> CurveTable:
    """Sweep filter transmittance across probe angles; one row per cell."""
    thetas = DEFAULT_THETA_GRID if theta_list is None else tuple(theta_list)
    t_values = (
        DEFAULT_INTERMEDIATE_T_GRID
        if transmittance_list is None
        else tuple(transmittance_list)
    )
    imp = imperfections if imperfections is not None else ImperfectionModel.ideal()
    rows = []
    stream = 0
    for theta in thetas:
        for t_value in t_values:
            row, _ = _scan_row(theta, t_value, trials, seed, stream, imp)
            rows.append(row)
            stream += 1
    return CurveTable(columns=SCAN_COLUMNS, rows=tuple(rows))


def scan_unambiguous(
    transmittance_list=None,
    trials: int = 1_000_000,
    seed: int = 0,
    imperfections: ImperfectionModel | None = None,
) -> CurveTable:
    """Sweep the unambiguous working points theta = arctan(sqrt(T)).

    The extra error_counts column holds raw coincidences in the four
    wrong-answer cells, which an ideal bench never fires.
    """
    t_values = (
        DEFAULT_UNAMBIGUOUS_T_GRID
        if transmittance_list is None
        else tuple(transmittance_list)
    )
    imp = imperfections if imperfections is not None else ImperfectionModel.ideal()
    rows = []
    for stream, t_value in enumerate(t_values):
        # A negative T is rejected by ExperimentConfig, not by sqrt.
        theta = math.atan(math.sqrt(max(t_value, 0.0)))
        row, counts = _scan_row(theta, t_value, trials, seed, stream, imp)
        rows.append(row + (float(counts.counts[_ERROR].sum()),))
    return CurveTable(columns=SCAN_COLUMNS + ("error_counts",), rows=tuple(rows))
