"""Junction electrostatics: resistance, critical current, qubit frequency.

The tunnel junction is characterized by its normal-state resistance R_N.
Everything else follows from two material numbers, the superconducting gap
and the charging energy:

    I_C  = pi * gap / (2 e R_N)                     (Ambegaokar-Baratoff, T=0)
    h f  = sqrt(h * gap * E_C / (e^2 R_N)) - E_C

with E_C the charging energy and gap expressed in joules, both fixed by the
DEFAULT_MATERIAL calibration. The frequency map is strictly decreasing in
R_N and is invertible in closed form, which is what the planner relies on.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np

    from .fitkit import FitResult

__all__ = [
    "DEFAULT_MATERIAL",
    "DEFAULT_BARRIER",
    "critical_current",
    "qubit_frequency",
    "resistance_for_frequency",
    "max_resistance",
    "linearized_shift",
    "barrier_resistance",
    "BARRIER_FIT_NAMES",
    "fit_barrier",
]


@dataclass(frozen=True)
class _MaterialParams:
    """Aluminum junction material calibration (the one record is DEFAULT_MATERIAL).

    gap_delta_al: superconducting gap in eV.
    charging_energy_over_h: E_C / h in Hz.
    """

    gap_delta_al: float = 170e-6
    charging_energy_over_h: float = 275e6


@dataclass(frozen=True)
class _BarrierModelParams:
    """Exponential thickness model for the oxide barrier (DEFAULT_BARRIER).

    R_N * area = prefactor * exp(thickness / tau_barrier)

    tau_barrier: nm. prefactor: ohm um^2 (geometric-mean calibration of the
    reference junction set at the default tau).
    """

    tau_barrier: float = 0.39
    prefactor: float = 2.33


DEFAULT_MATERIAL = _MaterialParams()
DEFAULT_BARRIER = _BarrierModelParams()
BARRIER_FIT_NAMES = ("prefactor_ohm_um2", "tau_barrier_nm")  # fit_barrier's

# SI defining constants (exact) and the fixed calibration in joules; the
# products keep the left-to-right grouping of the formulas they stand in for.
_H = 6.62607015e-34  # J s
_E = 1.602176634e-19  # C
_GAP_J = DEFAULT_MATERIAL.gap_delta_al * _E
_EC_J = _H * DEFAULT_MATERIAL.charging_energy_over_h
_H_GAP_EC = _H * _GAP_J * _EC_J
_E2 = _E * _E
_R_MAX = _H * _GAP_J / (_E2 * _EC_J)


def max_resistance() -> float:
    """Upper edge of the valid resistance domain, where f_Q crosses zero.

    R_max = h * gap / (e^2 * E_C); about 3.858 Mohm.
    """
    return _R_MAX


def critical_current(r_n: float) -> float:
    """Ambegaokar-Baratoff critical current (A) at zero temperature."""
    if not r_n > 0:
        raise DomainError(f"resistance must be positive, got {r_n!r}")
    return math.pi * _GAP_J / (2.0 * _E * r_n)


def qubit_frequency(r_n: float) -> float:
    """Qubit transition frequency (Hz) for a junction of resistance r_n (ohm).

    Strictly decreasing in r_n. Valid for 0 < r_n < max_resistance();
    outside that window the formula would return a non-positive frequency.
    A resistance so small that e^2 * r_n underflows to zero (below ~9.6e-287
    ohm) is refused too.
    """
    if not r_n > 0:
        raise DomainError(f"resistance must be positive, got {r_n!r}")
    if r_n >= _R_MAX:
        raise DomainError(
            f"resistance {r_n:.6g} ohm is at or beyond the zero-frequency "
            f"bound {_R_MAX:.6g} ohm"
        )
    try:
        return (math.sqrt(_H_GAP_EC / (_E2 * r_n)) - _EC_J) / _H
    except ZeroDivisionError:
        raise DomainError(f"resistance {r_n:.6g} ohm is too small for the frequency map") from None


def resistance_for_frequency(f_q: float) -> float:
    """Exact inverse of qubit_frequency: resistance (ohm) hitting f_q (Hz).

    A frequency whose term (h * f_q + E_C)^2 overflows (above ~2e187 Hz) is
    refused.
    """
    if not 0.0 < f_q < math.inf:
        raise DomainError(f"frequency must be positive, got {f_q!r}")
    try:
        return _H_GAP_EC / (_E2 * (_H * f_q + _EC_J) ** 2)
    except OverflowError:
        raise DomainError(f"frequency {f_q:.6g} Hz is too large for the frequency map") from None


def linearized_shift(resistance_shift: float) -> float:
    """First-order fractional frequency shift for a fractional resistance shift.

    df/f = -(dR/R) / 1.9. The 1.9 folds the square root's factor 2 together
    with the charging-energy correction at the operating point (about 5%).
    Good to ~1e-3 absolute for |dR/R| up to 5%.
    """
    return -resistance_shift / 1.9


def barrier_resistance(thickness: float, area: float) -> float:
    """Normal-state resistance (ohm) of a barrier of given thickness and area.

    thickness in nm, area in um^2. Exponential in thickness: a +0.1 nm step
    multiplies resistance by exp(0.1 / tau_barrier), about +29% at the
    default tau.
    """
    if not thickness >= 0:
        raise DomainError(f"thickness must be non-negative, got {thickness!r}")
    if not area > 0:
        raise DomainError(f"area must be positive, got {area!r}")
    return DEFAULT_BARRIER.prefactor * math.exp(thickness / DEFAULT_BARRIER.tau_barrier) / area


def fit_barrier(thickness: np.ndarray, area: np.ndarray, resistance: np.ndarray) -> FitResult:
    """Fit ``barrier_resistance``'s (prefactor, tau) to junctions' thickness (nm),
    area (um^2) and resistance (ohm), from a log-linear fit of R_N * area; tau
    starts at its 100 nm bound where R_N * area does not grow with thickness.
    A row (counted from 1) whose R_N * area is not a positive float, or
    thicknesses whose squares all underflow, are refused."""
    import numpy as np

    from .fitkit import ModelSpec, fit_curve

    with np.errstate(all="ignore"):
        resistance_area = area * resistance
    for row, (a, r, ra) in enumerate(zip(area.tolist(), resistance.tolist(),
                                         resistance_area.tolist()), 1):
        if not 0.0 < ra < math.inf:
            raise DomainError(f"barrier data row {row}: area_um2 {a:.6g} times resistance_ohm "
                              f"{r:.6g} gives {ra:.6g}, outside the positive float range")

    def model(p: np.ndarray, t: np.ndarray) -> np.ndarray:
        return p[0] * np.exp(t / p[1])

    spec = ModelSpec(model, BARRIER_FIT_NAMES, ((1e-12, np.inf), (1e-3, 100.0)))
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # polyfit's RankWarning: a poor seed is still a start
        if not (thickness * thickness).sum() > 0.0:  # polyfit divides by the column's norm
            raise DomainError("thickness_nm values whose squares underflow to 0 cannot seed the "
                              "log-linear barrier fit")
        slope, intercept = np.polyfit(thickness, np.log(resistance_area), 1)
        prefactor = float(np.exp(intercept))
    tau = 1.0 / float(slope) if slope > 0 else spec.bounds[1][1]
    return fit_curve(spec, thickness, resistance_area, [prefactor, tau])
