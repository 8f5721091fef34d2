"""Laser dose response: how a lasing shot moves junction resistance.

The model is a separable composition, calibrated against trim-curve fits:

    shift(P, E, n, D) = plateau(T(P * c(D))) * saturation(E * n)

- T(P) is the steady-state junction temperature under absorbed power P,
  linear in power.
- plateau(T) = m - b * exp(-T / T0) is the saturating dose-response curve;
  with the default tie b = m * exp(ambient / T0) it equals
  m * (1 - exp(-(T - ambient) / T0)) and is exactly zero at ambient.
- c(D) is the thermal-transfer ratio for a beam displaced D um from the
  junction, normalized to 1 at D = 0, so displacement only ever reduces the
  delivered dose.
- saturation(u) = 1 - exp(-u / u0) accumulates total exposure time across
  repetitions; the default recipe (60 s x 1) is fully saturated.

The separately measured response-vs-displacement curve (metal vs substrate
absorption times thermal transfer, peaked just off the electrode edge) lives
in ``displacement_response`` and is used for alignment error budgets, not
composed into ``mean_shift``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, InfeasibleError

if TYPE_CHECKING:
    from .fitkit import FitResult

__all__ = [
    "HeatingParams",
    "DoseResponseParams",
    "DisplacementParams",
    "LasingRecipe",
    "StochasticParams",
    "DoseModel",
    "AnnealRecord",
    "JunctionState",
    "POWER_LIMIT_MW",
    "DEFAULT_RECIPE",
    "junction_temperature",
    "mean_shift_vs_temperature",
    "absorption_fraction",
    "heat_transfer_factor",
    "displacement_response",
    "exposure_factor",
    "mean_shift",
    "realized_shift",
    "apply_anneal",
    "default_dose_model",
    "fit_dose_curve",
    "fit_displacement_curve",
]

POWER_LIMIT_MW = 50.0
_DISPLACEMENT_SCALE = 0.0404207352594069  # puts displacement_response's peak at 1.5e-2
_WAIST = 0.81  # the Gaussian spot's 1/e^2 intensity radius (um)
_SI_REFLECTANCE = 0.374
_AL_REFLECTANCE = 0.92
_ELECTRODE_EXTENT = 4.0  # half-width (um) of the metalized region along the displacement axis


@dataclass(frozen=True)
class HeatingParams:
    """Linear power-to-temperature map: T = slope * P + ambient (degC, mW)."""

    slope: float = 2.47
    ambient: float = 20.0

    def __post_init__(self) -> None:
        if not 0.0 < self.slope < math.inf:
            raise DomainError("heating slope must be positive and finite")
        if not math.isfinite(self.ambient):
            raise DomainError("ambient temperature must be finite")


@dataclass(frozen=True)
class DoseResponseParams:
    """Saturating plateau curve m - b * exp(-T / T0) plus exposure scale u0.

    The default depth_b is tied to plateau_m * exp(ambient / T0), with the
    HeatingParams default ambient, so the curve passes exactly through zero
    at ambient temperature.
    """

    plateau_m: float = 0.018
    char_temperature_t0: float = 28.0
    char_exposure_u0: float = 1.5
    depth_b: float = field(default=0.0)

    def __post_init__(self) -> None:
        scales = (self.plateau_m, self.char_temperature_t0, self.char_exposure_u0)
        if not all(0.0 < v < math.inf for v in scales):
            raise DomainError("dose response scales must be positive and finite")
        if not 0.0 <= self.depth_b < math.inf:
            raise DomainError("depth_b must be non-negative and finite")
        if self.depth_b == 0.0:
            object.__setattr__(self, "depth_b", self.tied_depth(HeatingParams.ambient))

    def tied_depth(self, ambient: float) -> float:
        """The depth_b that puts the curve's zero at ambient (degC)."""
        return self.plateau_m * math.exp(ambient / self.char_temperature_t0)


@dataclass(frozen=True)
class DisplacementParams:
    """Thermal transfer vs beam displacement: A * exp(-D / D0) + B (all > 0)."""

    transfer_amp_a: float = 1.0
    transfer_offset_b: float = 0.002
    decay_d0: float = 9.5

    def __post_init__(self) -> None:
        params = (self.transfer_amp_a, self.transfer_offset_b, self.decay_d0)
        if not all(0.0 < v < math.inf for v in params):
            raise DomainError("transfer parameters must be positive and finite")


@dataclass(frozen=True, slots=True)
class LasingRecipe:
    """One shot command: power (mW), exposure (s), repetitions, displacement (um)."""

    power: float
    exposure: float = 60.0
    repetitions: int = 1
    displacement: float = 0.0

    def __post_init__(self) -> None:
        if not self.power >= 0:
            raise DomainError(f"power must be non-negative, got {self.power!r}")
        if self.power >= POWER_LIMIT_MW:
            raise InfeasibleError(
                f"power {self.power:.4g} mW is at or above the {POWER_LIMIT_MW:.0f} mW "
                "lasing ceiling"
            )
        if not 0.0 < self.exposure < math.inf:
            raise DomainError(f"exposure must be positive and finite, got {self.exposure!r}")
        if not self.repetitions >= 1:
            raise DomainError(f"repetitions must be >= 1, got {self.repetitions!r}")
        if not 0.0 <= self.displacement < math.inf:
            raise DomainError(
                f"displacement must be non-negative and finite, got {self.displacement!r}"
            )


@dataclass(frozen=True)
class StochasticParams:
    """Shot-to-shot scatter: sigma relative to the commanded shift, plus a floor."""

    relative_sigma: float = 0.01
    shift_floor: float = -0.005

    def __post_init__(self) -> None:
        for name in ("relative_sigma", "shift_floor"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.relative_sigma < 0:
            raise DomainError("relative_sigma must be non-negative")


@dataclass(frozen=True, slots=True)
class AnnealRecord:
    recipe: LasingRecipe
    shift: float


@dataclass(frozen=True, slots=True)
class JunctionState:
    """Immutable junction snapshot; anneals return a new state."""

    resistance: float
    history: tuple[AnnealRecord, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 < self.resistance < math.inf:
            raise DomainError("resistance must be positive and finite")


@dataclass(frozen=True)
class DoseModel:
    """Bundle of every dose-related parameter set; the defaults are the calibration."""

    heating: HeatingParams = HeatingParams()
    response: DoseResponseParams = DoseResponseParams()
    displacement: DisplacementParams = DisplacementParams()
    stochastic: StochasticParams = StochasticParams()


DEFAULT_RECIPE = LasingRecipe(power=40.0)


def junction_temperature(power: float, heating: HeatingParams = HeatingParams()) -> float:
    """Steady-state junction temperature (degC) under power mW on target."""
    if not power >= 0:
        raise DomainError(f"power must be non-negative, got {power!r}")
    if power >= POWER_LIMIT_MW:
        raise InfeasibleError(
            f"power {power:.4g} mW is at or above the {POWER_LIMIT_MW:.0f} mW ceiling"
        )
    return heating.slope * power + heating.ambient


def mean_shift_vs_temperature(
    temperature: float, response: DoseResponseParams = DoseResponseParams()
) -> float:
    """Saturated fractional resistance shift at a given anneal temperature."""
    return response.plateau_m - response.depth_b * math.exp(
        -temperature / response.char_temperature_t0
    )


def fit_dose_curve(powers: np.ndarray, shifts: np.ndarray) -> FitResult:
    """Fit ``mean_shift_vs_temperature``'s (m, b, T0) to saturated shifts vs power
    (mW) at the default heating, from m = the top shift, b = 2 m and T0 = 30 degC."""
    from .fitkit import ModelSpec, _check_lengths, fit_curve

    _check_lengths(powers, shifts)
    heating = HeatingParams()

    def model(p: np.ndarray, x: np.ndarray) -> np.ndarray:
        temperature = heating.slope * x + heating.ambient
        return p[0] - p[1] * np.exp(-temperature / p[2])

    spec = ModelSpec(model, ("plateau_m", "depth_b", "char_temperature_t0_c"),
                     ((1e-6, 1.0), (1e-6, 10.0), (1.0, 500.0)))
    top = float(shifts.max())
    return fit_curve(spec, powers, shifts, [top, 2.0 * top, 30.0])


def absorption_fraction(displacement: float) -> float:
    """Absorbed power fraction vs beam displacement (um) from the junction.

    The Gaussian spot straddles the electrode edge: the metalized fraction
    absorbs 1 - the aluminum reflectance, the exposed substrate 1 - the silicon
    one. Rises steeply once the spot walks off the metal at the electrode's extent.
    """
    if not displacement >= 0:
        raise DomainError(f"displacement must be non-negative, got {displacement!r}")
    on_metal = 0.5 * (
        1.0 + math.erf(math.sqrt(2.0) * (_ELECTRODE_EXTENT - displacement) / _WAIST)
    )
    return (1.0 - _AL_REFLECTANCE) * on_metal + (1.0 - _SI_REFLECTANCE) * (
        1.0 - on_metal
    )


def heat_transfer_factor(
    displacement: float, params: DisplacementParams = DisplacementParams()
) -> float:
    """Fraction of deposited heat reaching the junction from distance D (um)."""
    if not displacement >= 0:
        raise DomainError(f"displacement must be non-negative, got {displacement!r}")
    return params.transfer_amp_a * math.exp(-displacement / params.decay_d0) + params.transfer_offset_b


def displacement_response(
    displacement: float,
    params: DisplacementParams = DisplacementParams(),
) -> float:
    """Measured fractional shift vs beam displacement at the reference dose.

    absorption * transfer, scaled so the peak (just off the electrode edge,
    where substrate absorption has jumped but the junction is still close)
    sits at 1.5e-2. Falls below the unannealed drift band past ~30 um.
    """
    return _DISPLACEMENT_SCALE * absorption_fraction(displacement) * heat_transfer_factor(
        displacement, params
    )


def fit_displacement_curve(displacement: np.ndarray, response: np.ndarray) -> FitResult:
    """Fit ``displacement_response`` as scale * absorption * (exp(-D / D0) + B / A)
    vs D (um), from the top response / 0.37, D0 = 10 um and B / A = 0.002."""
    from .fitkit import ModelSpec, _check_lengths, fit_curve

    _check_lengths(displacement, response)
    absorbed = np.array([absorption_fraction(v) for v in displacement.tolist()])

    def model(p: np.ndarray, d: np.ndarray) -> np.ndarray:
        return p[0] * absorbed * (np.exp(-d / p[1]) + p[2])

    spec = ModelSpec(model, ("scale", "decay_d0_um", "transfer_offset_b"),
                     ((1e-9, 10.0), (0.1, 500.0), (1e-9, 1.0)))
    seed = [float(response.max()) / 0.37, 10.0, 0.002]
    return fit_curve(spec, displacement, response, seed)


def exposure_factor(
    exposure: float,
    repetitions: int,
    response: DoseResponseParams = DoseResponseParams(),
) -> float:
    """Saturating dose accumulation over total exposure time, in (0, 1]."""
    if not 0.0 < exposure < math.inf:
        raise DomainError(f"exposure must be positive and finite, got {exposure!r}")
    if not repetitions >= 1:
        raise DomainError(f"repetitions must be >= 1, got {repetitions!r}")
    return 1.0 - math.exp(-(exposure * repetitions) / response.char_exposure_u0)


def mean_shift(
    recipe: LasingRecipe, model: DoseModel = DoseModel(), beam_offset: float = 0.0
) -> float:
    """Expected fractional resistance shift for a recipe (noise-free).

    ``beam_offset`` (um, non-negative) is added to the recipe's displacement,
    e.g. a visit's centering error.
    """
    displacement = recipe.displacement + beam_offset
    params = model.displacement
    # Normalized thermal transfer: the transfer at zero displacement, of
    # either sign, is A + B exactly, since exp(-0.0) is 1.0.
    zero = params.transfer_amp_a + params.transfer_offset_b
    effective_power = recipe.power * (heat_transfer_factor(displacement, params) / zero)
    temperature = junction_temperature(effective_power, model.heating)
    saturated = mean_shift_vs_temperature(temperature, model.response)
    return saturated * exposure_factor(recipe.exposure, recipe.repetitions, model.response)


def realized_shift(mu: float, eps: float, stochastic: StochasticParams) -> float:
    """Shot shift for commanded mean ``mu`` and a standard-normal draw ``eps``:
    scattered relative to ``mu``, floored at ``shift_floor``."""
    return max(mu * (1.0 + stochastic.relative_sigma * eps), stochastic.shift_floor)


def apply_anneal(
    state: JunctionState,
    recipe: LasingRecipe,
    rng: np.random.Generator,
    model: DoseModel = DoseModel(),
) -> JunctionState:
    """Execute one lasing shot: draw the realized shift and update the state.

    Scatter is relative to the commanded shift, R -> R * (1 + mu * (1 +
    relative_sigma * eps)), floored at shift_floor; a zero-dose shot is
    exactly a no-op.
    """
    eps = float(rng.standard_normal())
    shift = realized_shift(mean_shift(recipe, model), eps, model.stochastic)
    return JunctionState(
        resistance=state.resistance * (1.0 + shift),
        history=state.history + (AnnealRecord(recipe=recipe, shift=shift),),
    )


def default_dose_model() -> DoseModel:
    """The calibrated dose model: the ``DoseModel`` field defaults."""
    return DoseModel()
