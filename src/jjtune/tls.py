"""Two-level-system spectroscopy: maps, Stark calibration, coherence stats.

A near-resonant defect opens a Lorentzian relaxation channel,

    Gamma_1(delta) = 2 * Gamma * g^2 / (Gamma^2 + delta^2) + Gamma_1Q

with g the coupling, Gamma the combined defect linewidth, delta the
qubit-defect detuning, and Gamma_1Q the frequency-independent background.
The qubit is swept through frequency with an off-resonant Stark tone,
shift = sign * (sqrt((A * amp)^2 + Delta^2) - Delta), and the excited-state
population after a fixed wait maps out Gamma_1 versus detuning over time.

``extract_tls`` closes the loop: time-averaged population -> rates ->
Lorentzian fit, with sequential peak subtraction for multiple defects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, FitEvaluationError
from .fitkit import FitResult, ModelSpec, _check_lengths, _distinct_count, fit_curve

__all__ = [
    "StaticDynamics",
    "DriftingDynamics",
    "TelegraphicDynamics",
    "TlsDefect",
    "QubitNoiseModel",
    "StarkCalibration",
    "SpectroMap",
    "CoherenceSummary",
    "TlsExtraction",
    "relaxation_rate",
    "total_rate",
    "excited_population",
    "stark_shift",
    "amplitude_for_shift",
    "fit_stark",
    "simulate_map",
    "time_average",
    "extract_tls",
    "summarize_coherence",
    "significant_change",
]


@dataclass(frozen=True)
class StaticDynamics:
    """Defect frequency fixed for the whole acquisition."""


@dataclass(frozen=True)
class DriftingDynamics:
    """Gaussian random walk of the defect frequency.

    sigma_f: walk step scale (Hz) applied once per step_interval seconds.
    """

    sigma_f: float
    step_interval: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.sigma_f < math.inf and 0.0 < self.step_interval < math.inf):
            raise DomainError("drift parameters must be positive and finite")


@dataclass(frozen=True)
class TelegraphicDynamics:
    """Two-state Markov switching between frequencies f_a and f_b (Hz)."""

    f_a: float
    f_b: float
    switch_rate: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.f_a) and math.isfinite(self.f_b)):
            raise DomainError("telegraphic states must be finite")
        if self.f_a == self.f_b:
            raise DomainError("telegraphic states must differ")
        if not 0.0 <= self.switch_rate < math.inf:
            raise DomainError("switch rate must be non-negative and finite")


Dynamics = StaticDynamics | DriftingDynamics | TelegraphicDynamics


@dataclass(frozen=True)
class TlsDefect:
    """A single two-level defect near the qubit frequency.

    f_offset: defect frequency relative to the unshifted qubit (Hz).
    coupling_g: qubit-defect coupling (Hz).
    gamma_total: combined defect relaxation plus dephasing linewidth (Hz).
    """

    f_offset: float
    coupling_g: float = 76e3
    gamma_total: float = 1e6
    dynamics: Dynamics = StaticDynamics()

    def __post_init__(self) -> None:
        if not math.isfinite(self.f_offset):
            raise DomainError("f_offset must be finite")
        if not 0.0 <= self.coupling_g < math.inf:
            raise DomainError("coupling must be non-negative and finite")
        if not 0.0 < self.gamma_total < math.inf:
            raise DomainError("gamma_total must be positive and finite")


@dataclass(frozen=True)
class QubitNoiseModel:
    """Background relaxation plus a set of defects and readout noise."""

    gamma_1q: float = 1.0 / 46.5e-6
    defects: tuple[TlsDefect, ...] = ()
    readout_noise_sigma: float = 0.02

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma_1q < math.inf:
            raise DomainError("gamma_1q must be positive and finite")
        if not 0.0 <= self.readout_noise_sigma < math.inf:
            raise DomainError("readout noise must be non-negative and finite")


_TONE_DETUNING = 80e6  # Hz, the Stark tone's offset from the qubit


@dataclass(frozen=True)
class StarkCalibration:
    """Amplitude-to-shift conversion for the off-resonant tone.

    conv_a_neg applies to the tone parked below the qubit (negative shifts),
    conv_a_pos above. reliable_range bounds the usable shift magnitude. The
    tone always sits 80 MHz from the qubit.
    """

    conv_a_neg: float = 432e6
    conv_a_pos: float = 416e6
    reliable_range: float = 33e6

    def __post_init__(self) -> None:
        freqs = (self.conv_a_neg, self.conv_a_pos, self.reliable_range)
        if not all(0.0 < v < math.inf for v in freqs):
            raise DomainError("calibration frequencies must be positive and finite")


@dataclass(frozen=True)
class SpectroMap:
    """Population vs (time, frequency offset) at a fixed measurement wait."""

    freq_offsets: np.ndarray
    times: np.ndarray          # hours
    population: np.ndarray     # shape (len(times), len(freq_offsets))

    def __post_init__(self) -> None:
        if self.population.shape != (self.times.size, self.freq_offsets.size):
            raise DomainError("population matrix does not match the grids")


@dataclass(frozen=True)
class CoherenceSummary:
    mean: float
    median: float
    quartile_low: float
    quartile_high: float
    cap_low: float
    cap_high: float
    outliers: tuple[float, ...]


@dataclass(frozen=True)
class TlsExtraction:
    """Result of defect extraction from a time-averaged profile.

    persistent is False when no dip rises above twice its own uncertainty,
    in which case defects is empty.
    """

    defects: tuple[FitResult, ...]

    @property
    def persistent(self) -> bool:
        return bool(self.defects)

    @property
    def best(self) -> FitResult:
        if not self.defects:
            raise DomainError("no persistent defect was extracted")
        return self.defects[0]


def _excess(delta: np.ndarray | float, g: float, gamma: float):
    return 2.0 * gamma * g * g / (gamma * gamma + np.square(delta))


def relaxation_rate(detuning: float, defect: TlsDefect, gamma_1q: float) -> float:
    """Total relaxation rate (1/s) at a given qubit offset from one defect."""
    return float(_excess(detuning - defect.f_offset, defect.coupling_g, defect.gamma_total)) + gamma_1q


def total_rate(detuning: float, model: QubitNoiseModel) -> float:
    """Background plus the summed excess of every defect at this offset."""
    rate = model.gamma_1q
    for defect in model.defects:
        rate += float(_excess(detuning - defect.f_offset, defect.coupling_g, defect.gamma_total))
    return rate


def excited_population(
    wait: float,
    rate: float,
    rng: np.random.Generator | None = None,
    noise_sigma: float = 0.0,
) -> float:
    """Excited-state population after waiting, with optional readout noise."""
    if not wait > 0:
        raise DomainError(f"wait must be positive, got {wait!r}")
    p = math.exp(-rate * wait)
    if rng is not None and noise_sigma > 0.0:
        p += noise_sigma * float(rng.standard_normal())
    return min(max(p, 0.0), 1.0)


def _conversion(cal: StarkCalibration, sign: int) -> float:
    if sign not in (-1, 1):
        raise DomainError(f"sign must be -1 or +1, got {sign!r}")
    return cal.conv_a_neg if sign < 0 else cal.conv_a_pos


def stark_shift(amplitude: float, cal: StarkCalibration = StarkCalibration(), sign: int = -1) -> float:
    """Qubit frequency shift (Hz) for a tone amplitude on the given side.

    Quadratic in amplitude at small drive, linearizing toward A*amp at
    strong drive; zero at zero amplitude.
    """
    if not amplitude >= 0:
        raise DomainError(f"amplitude must be non-negative, got {amplitude!r}")
    a = _conversion(cal, sign)
    return sign * (math.hypot(a * amplitude, _TONE_DETUNING) - _TONE_DETUNING)


def amplitude_for_shift(target: float, cal: StarkCalibration = StarkCalibration(), sign: int | None = None) -> float:
    """Tone amplitude producing the target shift (Hz); exact inverse.

    The sign defaults to the sign of the target. Targets beyond the
    calibrated reliable range are refused.
    """
    if sign is None:
        sign = -1 if target < 0 else 1
    if target == 0:
        return 0.0
    if (target < 0) != (sign < 0):
        raise DomainError("target sign does not match the requested tone side")
    if not abs(target) <= cal.reliable_range:
        raise DomainError(
            f"target {target / 1e6:.3g} MHz is outside the reliable "
            f"+-{cal.reliable_range / 1e6:.3g} MHz range"
        )
    a = _conversion(cal, sign)
    reach = abs(target) + _TONE_DETUNING
    return math.sqrt(reach * reach - _TONE_DETUNING * _TONE_DETUNING) / a


def fit_stark(amplitudes: np.ndarray, shifts: np.ndarray) -> FitResult:
    """Fit the conversion factor A from measured shifts (Hz) at tone amplitudes.

    The shifts are taken with the tone at its fixed 80 MHz detuning.
    """
    _check_lengths(amplitudes, shifts)
    if amplitudes.size < 3:
        raise DomainError("need at least 3 calibration points")
    if not amplitudes.any():  # every model value is 0 then, whatever A is
        raise DomainError("need a nonzero amplitude to fit the conversion factor")
    with np.errstate(all="ignore"):  # only the sign of a mean past the float range is read
        sign = -1.0 if float(np.mean(shifts)) < 0 else 1.0

    def model(p: np.ndarray, x: np.ndarray) -> np.ndarray:
        return sign * (np.hypot(p[0] * x, _TONE_DETUNING) - _TONE_DETUNING)

    spec = ModelSpec(evaluator=model, parameter_names=("conv_a",), bounds=((1e3, np.inf),))
    top = int(np.argmax(np.abs(shifts)))
    reach = abs(float(shifts[top])) + _TONE_DETUNING  # overflows to inf without a numpy warning
    a0 = math.sqrt(max(reach * reach - _TONE_DETUNING * _TONE_DETUNING, 1e6)) / max(amplitudes[top], 1e-9)
    return fit_curve(spec, amplitudes, shifts, [a0])


def _evolve(defect: TlsDefect, offset_now: float, step_s: float, carry: float, rng: np.random.Generator):
    """Advance one defect by one map step; returns (new offset, new carry)."""
    dyn = defect.dynamics
    if isinstance(dyn, StaticDynamics):
        return offset_now, carry
    if isinstance(dyn, DriftingDynamics):
        carry += step_s
        n_steps = int(carry // dyn.step_interval)
        carry -= n_steps * dyn.step_interval
        if n_steps:
            offset_now += dyn.sigma_f * math.sqrt(n_steps) * float(rng.standard_normal())
        return offset_now, carry
    # telegraphic: flip with the Markov switching probability for this step
    p_flip = 1.0 - math.exp(-dyn.switch_rate * step_s)
    if float(rng.random()) < p_flip:
        offset_now = dyn.f_b if offset_now == dyn.f_a else dyn.f_a
    return offset_now, carry


def simulate_map(
    model: QubitNoiseModel,
    freq_offsets: Sequence[float],
    duration: float,
    step: float,
    wait: float,
    rng: np.random.Generator,
    dropout_probability: float = 0.0,
) -> SpectroMap:
    """Synthesize a spectro-temporal relaxation map.

    duration in hours, step and wait in seconds. Each time step first evolves
    every defect per its dynamics, then records the population across the
    offset grid with per-cell readout noise. With dropout_probability > 0 a
    row is occasionally replaced by an acquisition-error stripe (population 1
    at every offset). Seed-deterministic.
    """
    offsets = np.asarray(list(freq_offsets), dtype=float)
    if offsets.size == 0:
        raise DomainError("offset grid must be non-empty")
    if not all(0.0 < v < math.inf for v in (duration, step, wait)):
        raise DomainError("duration, step and wait must be positive and finite")
    if not 0.0 <= dropout_probability < 1.0:
        raise DomainError("dropout probability must be in [0, 1)")
    rows = duration * 3600.0 / step
    try:
        pop = np.empty((max(int(round(rows)), 1), offsets.size))
    except (OverflowError, ValueError, MemoryError):
        raise DomainError(
            f"duration {duration:g} h at step {step:g} s gives {rows:.3g} rows, too many for a map"
        )
    n_rows = pop.shape[0]

    positions = []
    carries = []
    for d in model.defects:
        dyn = d.dynamics
        positions.append(dyn.f_a if isinstance(dyn, TelegraphicDynamics) else d.f_offset)
        carries.append(0.0)

    for k in range(n_rows):
        for i, defect in enumerate(model.defects):
            positions[i], carries[i] = _evolve(defect, positions[i], step, carries[i], rng)
        if dropout_probability > 0.0 and float(rng.random()) < dropout_probability:
            pop[k] = 1.0
            continue
        rate = np.full(offsets.shape, model.gamma_1q)
        for i, defect in enumerate(model.defects):
            rate += _excess(offsets - positions[i], defect.coupling_g, defect.gamma_total)
        row = np.exp(-rate * wait)
        if model.readout_noise_sigma > 0.0:
            row = row + model.readout_noise_sigma * rng.standard_normal(offsets.size)
        pop[k] = np.clip(row, 0.0, 1.0)

    times = np.arange(n_rows) * step / 3600.0
    return SpectroMap(freq_offsets=offsets, times=times, population=pop)


def time_average(spectro: SpectroMap) -> np.ndarray:
    """Per-offset mean population over the acquisition."""
    if spectro.population.size == 0:
        raise DomainError("cannot average an empty map")
    return spectro.population.mean(axis=0)


def _rate_model(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    # p[3] + _excess(x - p[0], p[1], p[2]) with the same operations in the
    # same order, computed in one buffer (the fit engine's hot loop).
    f0, g, gamma, base = p.tolist()
    out = np.subtract(x, f0)
    np.square(out, out=out)
    out += gamma * gamma
    np.divide(2.0 * gamma * g * g, out, out=out)
    out += base
    return out


def _fit_one_defect(offsets: np.ndarray, rates: np.ndarray) -> FitResult:
    i_peak = int(np.argmax(rates))
    # np.median of the NaN-free rates, bit for bit; its NaN check imports numpy.ma.
    ordered = np.sort(rates)
    half = ordered.size // 2
    base = float(ordered[half] if ordered.size % 2 else (ordered[half - 1] + ordered[half]) / 2.0)
    peak_excess = max(float(rates[i_peak] - base), 1.0)
    span = float(offsets.max() - offsets.min())
    spec = ModelSpec(
        evaluator=_rate_model,
        parameter_names=("f_offset", "coupling_g", "gamma_total", "gamma_1q"),
        bounds=(
            (offsets.min() - span, offsets.max() + span),
            (0.0, np.inf),
            (1e3, np.inf),
            (0.0, np.inf),
        ),
    )
    p0 = [float(offsets[i_peak]), math.sqrt(peak_excess * 1e6 / 2.0), 1e6, base]
    return fit_curve(spec, offsets, rates, p0)


def _excess_significant(fit: FitResult) -> bool:
    """Is the fitted peak excess larger than twice its propagated error."""
    _, g, gamma, _ = (float(v) for v in fit.params)
    sg, sgam = float(fit.std_errors[1]), float(fit.std_errors[2])
    peak = 2.0 * g * g / gamma
    if not np.isfinite(sg) or not np.isfinite(sgam):
        return False
    var = peak * peak * ((2.0 * sg / g) ** 2 + (sgam / gamma) ** 2) if g > 0 else np.inf
    return peak > 2.0 * math.sqrt(var)


def extract_tls(
    freq_offsets: Sequence[float],
    profile: Sequence[float],
    wait: float,
    max_defects: int = 1,
) -> TlsExtraction:
    """Recover defect parameters from a time-averaged population profile.

    Converts the profile to rates via -ln(P)/wait and fits Lorentzian peaks
    sequentially, subtracting each before searching for the next. Candidates
    are then polished by cyclic refit sweeps (each defect refit against the
    profile with the others removed) until the parameters stabilize; a pair
    of candidates sitting within half their combined linewidth collapses to
    the stronger one, since overlapping peaks are not separable here. Fits
    whose peak excess stays below twice its propagated uncertainty are
    discarded; none surviving means no persistent defect. Rates beyond the
    float range raise ``FitEvaluationError`` with no fit, before any fit.
    """
    offsets = np.asarray(list(freq_offsets), dtype=float)
    prof = np.asarray(list(profile), dtype=float)
    if offsets.size != prof.size:
        raise DomainError("profile and offset grid sizes differ")
    if _distinct_count(offsets) < 2:  # a peak's position and width need a spread of offsets
        raise DomainError("need at least 2 distinct frequency offsets to extract defects")
    if np.any(prof <= 0):
        raise DomainError("profile must be strictly positive to infer rates")
    if not 0.0 < wait < math.inf:
        raise DomainError("wait must be positive and finite")
    if max_defects < 1:
        raise DomainError(f"max_defects must be at least 1, got {max_defects!r}")
    with np.errstate(over="ignore"):  # a tiny wait or profile overflows the rates
        rates = -np.log(prof) / wait
    if not np.isfinite(rates).all():
        raise FitEvaluationError("the rates -ln(profile)/wait overflow the float range")

    found: list[FitResult] = []
    residual = rates.copy()
    for _ in range(max_defects):
        fit = _fit_one_defect(offsets, residual)
        if not (fit.converged and _excess_significant(fit)):
            break
        found.append(fit)
        residual = residual - _excess(offsets - fit.params[0], fit.params[1], fit.params[2])

    while len(found) > 1:
        for _ in range(6):
            peaks = [_excess(offsets - f.params[0], f.params[1], f.params[2]) for f in found]
            refined = [
                _fit_one_defect(offsets, rates - sum(p for j, p in enumerate(peaks) if j != k))
                for k in range(len(found))
            ]
            moved = max(
                float(np.max(np.abs(r.params - f.params) / (np.abs(f.params) + 1e-300)))
                for r, f in zip(refined, found)
            )
            found = refined
            if moved < 1e-3:
                break
        weaker_twin = None
        for a in range(len(found)):
            for b in range(a + 1, len(found)):
                fa, fb = found[a], found[b]
                if abs(fa.params[0] - fb.params[0]) < 0.5 * (fa.params[2] + fb.params[2]):
                    pa = 2.0 * fa.params[1] ** 2 / fa.params[2]
                    pb = 2.0 * fb.params[1] ** 2 / fb.params[2]
                    weaker_twin = a if pa < pb else b
        if weaker_twin is not None:
            found = [f for i, f in enumerate(found) if i != weaker_twin]
            continue
        survivors = [f for f in found if _excess_significant(f)]
        if len(survivors) == len(found):
            break
        found = survivors

    found.sort(key=lambda f: -(2.0 * f.params[1] ** 2 / f.params[2]))
    return TlsExtraction(defects=tuple(found))


def summarize_coherence(samples: Sequence[float]) -> CoherenceSummary:
    """Robust cohort statistics with outlier caps at median +- 3 sample sigma."""
    x = np.asarray(list(samples), dtype=float)
    if x.size < 4:
        raise DomainError("need at least 4 samples to summarize")
    median = float(np.median(x))
    sigma = float(np.std(x, ddof=1))
    cap_low, cap_high = median - 3.0 * sigma, median + 3.0 * sigma
    outliers = tuple(float(v) for v in x[(x < cap_low) | (x > cap_high)])
    return CoherenceSummary(
        mean=float(np.mean(x)),
        median=median,
        quartile_low=float(np.percentile(x, 25)),
        quartile_high=float(np.percentile(x, 75)),
        cap_low=cap_low,
        cap_high=cap_high,
        outliers=outliers,
    )


def significant_change(before: CoherenceSummary, after: CoherenceSummary) -> bool:
    """True when the after-median falls outside the before cohort's caps."""
    return after.median < before.cap_low or after.median > before.cap_high
