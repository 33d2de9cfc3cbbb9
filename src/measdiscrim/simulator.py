"""Monte Carlo bench model of the entangled discrimination experiment.

Each trial prepares a singlet (degraded to a Werner state under imperfect
visibility), lets the unknown device measure one side, applies the
feed-forward branch correction on the other, pushes it through a
variable-reflectivity beam-splitter filter, and reads the surviving qubit
out interferometrically on two detectors. Counts land in twelve cells
(device label x device outcome x detector) and are thinned by detector
efficiencies. `estimate` inverts the thinning and returns probability
estimates with binomial error bars.

Trials are vectorized in batches over a counter-based generator keyed by
(seed, stream), with a fixed stride of uniform draws per trial, so results
are bit-identical for any batch size.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainError, ValidationError
from .strategies import CurveTable, StrategyPoint

K_DRAWS = 12
X_LABELS = ("M", "N")
DETECTOR_LABELS = ("A", "B", "I")
DEFAULT_THETA_GRID = tuple(j * math.pi / 30.0 for j in range(1, 8))
DEFAULT_INTERMEDIATE_T_GRID = tuple(1.0 - 0.1 * k for k in range(10))
DEFAULT_UNAMBIGUOUS_T_GRID = tuple(0.1 * k for k in range(11))

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
        inverse = {v: k for k, v in _CONFIG_KEYS.items()}
        return {
            inverse[name]: getattr(self, name)
            for name in (
                "eta_d0",
                "eta_d1",
                "eta_da",
                "eta_db",
                "eta_di",
                "phase_noise_sigma",
                "singlet_visibility",
                "splitter_imbalance",
            )
        }


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
        if not 0.0 <= self.theta <= math.pi / 4.0 + 1e-12:
            raise DomainError("theta outside [0, pi/4]")
        if not 0.0 <= self.vrc_transmittance <= 1.0:
            raise DomainError("transmittance must lie in [0, 1]")
        if self.trials < 1:
            raise DomainError("trials must be at least 1")


@dataclass(frozen=True)
class CoincidenceCounts:
    """Registered coincidences, indexed (device, outcome, detector)."""

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

    def cell(self, device: str, outcome: int, detector: str) -> int:
        return int(
            self.counts[
                X_LABELS.index(device), outcome, DETECTOR_LABELS.index(detector)
            ]
        )


def _philox_generator(seed: int, stream: int, trials_done: int) -> np.random.Generator:
    key = np.random.SeedSequence((seed, stream)).generate_state(2, np.uint64)
    bits = np.random.Philox(key=key)
    # One uniform consumes one 64-bit word; Philox counts 4-word blocks.
    bits.advance(trials_done * K_DRAWS // 4)
    return np.random.Generator(bits)


def run_trials(
    config: ExperimentConfig,
    stream: int = 0,
    batch_size: int = 262144,
    feed_forward: bool = True,
) -> CoincidenceCounts:
    """Simulate the bench and return coincidence counts.

    Per trial: pick the device (equal priors) and its outcome; collapse the
    held qubit (or draw a mixed-state impostor when visibility < 1); swap
    its amplitudes on outcome 0 (the feed-forward correction); route it
    through the filter, whose failure fires the inconclusive detector;
    interfere the survivor with phase noise and splitter imbalance; fire
    detector A on the dark port, B on the bright port; thin by the product
    of the outcome-side and answer-side detector efficiencies.
    """
    imp = config.imperfections
    theta = config.theta
    t_filter = config.vrc_transmittance
    sq_t = math.sqrt(t_filter)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    # Held-qubit amplitudes after the device reports (device, outcome).
    a_base = np.array([[sin_t, cos_t], [sin_t, cos_t]])
    b_base = np.array([[-cos_t, sin_t], [cos_t, -sin_t]])
    split = 0.5 + imp.splitter_imbalance
    cross = 2.0 * math.sqrt(split * (1.0 - split))
    eta_outcome = np.array([imp.eta_d0, imp.eta_d1])
    eta_detector = np.array([imp.eta_da, imp.eta_db, imp.eta_di])
    thinning = imp.eta_d0 == imp.eta_d1 == imp.eta_da == imp.eta_db == imp.eta_di == 1.0

    totals = np.zeros(12, dtype=np.int64)
    done = 0
    while done < config.trials:
        n = min(batch_size, config.trials - done)
        u = _philox_generator(config.seed, stream, done).random((n, K_DRAWS))
        device = (u[:, 0] >= 0.5).astype(np.int64)
        outcome = (u[:, 1] >= 0.5).astype(np.int64)
        a = a_base[device, outcome]
        b = b_base[device, outcome]
        if imp.singlet_visibility < 1.0:
            mixed = u[:, 2] >= imp.singlet_visibility
            a_mixed = np.where(u[:, 3] < 0.5, 1.0, 0.0)
            a = np.where(mixed, a_mixed, a)
            b = np.where(mixed, 1.0 - a_mixed, b)
        if feed_forward:
            sw = outcome == 0
            a, b = np.where(sw, b, a), np.where(sw, a, b)
        p_fail = (1.0 - t_filter) * a * a
        fail = u[:, 4] < p_fail
        a_pass = sq_t * a
        norm = np.sqrt(a_pass * a_pass + b * b)
        norm = np.where(norm > 0.0, norm, 1.0)
        a_out = a_pass / norm
        b_out = b / norm
        if imp.phase_noise_sigma > 0.0:
            chi = (
                imp.phase_noise_sigma
                * np.sqrt(-2.0 * np.log1p(-u[:, 5]))
                * np.cos(2.0 * math.pi * u[:, 6])
            )
            cos_chi = np.cos(chi)
        else:
            cos_chi = 1.0
        p_bright = (
            split * a_out * a_out
            + (1.0 - split) * b_out * b_out
            + cross * a_out * b_out * cos_chi
        )
        p_bright = np.clip(p_bright, 0.0, 1.0)
        # Flush float dust so analytically dark ports stay silent.
        p_bright = np.where(p_bright < 1e-24, 0.0, p_bright)
        p_bright = np.where(p_bright > 1.0 - 1e-24, 1.0, p_bright)
        detector = np.where(fail, 2, np.where(u[:, 7] < p_bright, 1, 0))
        cells = device * 6 + outcome * 3 + detector
        if not thinning:
            keep = u[:, 8] < eta_outcome[outcome] * eta_detector[detector]
            cells = cells[keep]
        totals += np.bincount(cells, minlength=12)
        done += n
    return CoincidenceCounts(counts=totals.reshape(2, 2, 3), trials=config.trials)


@dataclass(frozen=True)
class EstimateResult:
    """Probability estimates with binomial standard errors."""

    point: StrategyPoint
    std_errors: tuple[float, float, float]
    registered: int
    conclusive: int
    rel_success: float
    rel_success_sigma: float


def estimate(
    counts: CoincidenceCounts, efficiencies: ImperfectionModel | None = None
) -> EstimateResult:
    """Invert efficiency thinning and estimate (P_S, P_E, P_I).

    Standard errors are binomial over the registered coincidences; the
    conditional success rate uses only conclusive events.
    """
    registered = counts.total
    if registered == 0:
        raise ValidationError("no registered coincidences to estimate from")
    imp = efficiencies if efficiencies is not None else ImperfectionModel.ideal()
    eta_outcome = np.array([imp.eta_d0, imp.eta_d1])
    eta_detector = np.array([imp.eta_da, imp.eta_db, imp.eta_di])
    weights = eta_outcome[:, None] * eta_detector[None, :]
    rescaled = counts.counts / weights[None, :, :]
    total = rescaled.sum()
    p_success = (
        rescaled[0, 0, 0] + rescaled[0, 1, 1] + rescaled[1, 1, 0] + rescaled[1, 0, 1]
    ) / total
    p_inc = rescaled[:, :, 2].sum() / total
    p_error = 1.0 - p_success - p_inc
    point = StrategyPoint(float(p_success), float(p_error), float(p_inc))
    sigmas = tuple(
        math.sqrt(max(p * (1.0 - p), 0.0) / registered)
        for p in (point.p_success, point.p_error, point.p_inconclusive)
    )
    conclusive = registered - int(counts.counts[:, :, 2].sum())
    if conclusive > 0 and p_inc < 1.0:
        rel = float(p_success / (1.0 - p_inc))
        rel_sigma = math.sqrt(max(rel * (1.0 - rel), 0.0) / conclusive)
    else:
        rel = float("nan")
        rel_sigma = float("nan")
    return EstimateResult(
        point=point,
        std_errors=sigmas,
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
    return CurveTable(columns=SCAN_COLUMNS, rows=tuple(rows), monotone_key=None)


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
        theta = math.atan(math.sqrt(t_value))
        row, counts = _scan_row(theta, t_value, trials, seed, stream, imp)
        error_counts = (
            counts.cell("M", 0, "B")
            + counts.cell("M", 1, "A")
            + counts.cell("N", 0, "A")
            + counts.cell("N", 1, "B")
        )
        rows.append(row + (float(error_counts),))
    return CurveTable(
        columns=SCAN_COLUMNS + ("error_counts",), rows=tuple(rows), monotone_key=None
    )
