"""Post-anneal resistance aging under atmospheric storage.

Junctions drift upward in resistance after processing; the drift follows a
saturating exponential in storage time,

    dR/R0 (t) = A - B * exp(-t / tau)

with A the final plateau, A - B the shift on day 0 (the annealing day), and
tau the aging constant in days. Annealed and unannealed cohorts age with
similar time constants, so frequency offsets written by trimming are
approximately preserved; ``offset_preservation`` quantifies exactly how well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Literal, Sequence

import numpy as np

from .errors import DomainError
from .fitkit import FitResult, ModelSpec, _distinct_count, fit_curve

__all__ = [
    "AgingParams",
    "AgingSeries",
    "REFERENCE_COHORTS",
    "aging_shift",
    "fit_aging",
    "fit_aging_samples",
    "offset_preservation",
]


_GRID_POINTS = 3001  # samples of offset_preservation's [0, horizon] grid


@dataclass(frozen=True)
class AgingParams:
    """Plateau-exponential aging curve parameters (fractions, days)."""

    final_shift_a: float
    depth_b: float
    tau_days: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.final_shift_a) and math.isfinite(self.depth_b)):
            raise DomainError("final_shift_a and depth_b must be finite")
        if not 0.0 < self.tau_days < math.inf:
            raise DomainError("tau_days must be positive and finite")

    @property
    def initial_shift(self) -> float:
        return self.final_shift_a - self.depth_b


# Reference cohort fits (fraction units): measured 30-day storage series for
# annealed ("L" recipes) and unannealed control junctions on two wafers.
REFERENCE_COHORTS: dict[str, AgingParams] = {
    "wafer1_annealed": AgingParams(final_shift_a=0.21, depth_b=0.12, tau_days=10.40),
    "wafer1_unannealed": AgingParams(final_shift_a=0.16, depth_b=0.13, tau_days=8.72),
    "wafer2_annealed": AgingParams(final_shift_a=0.11, depth_b=0.08, tau_days=41.15),
    "wafer2_unannealed": AgingParams(final_shift_a=0.07, depth_b=0.07, tau_days=27.95),
}


@dataclass(frozen=True)
class AgingSeries:
    """One junction's storage series: (day, resistance_ohm) samples.

    r0_ohm is the pre-anneal reference resistance that fractional shifts are
    measured against; it defaults to the first sample's resistance, which is
    only correct for series whose day-0 shift is zero, so supply it whenever
    known.
    """

    junction_id: str
    samples: tuple[tuple[float, float], ...]
    cohort: Literal["annealed", "unannealed"] = "annealed"
    wafer_label: str = ""
    r0_ohm: float = field(default=0.0)

    def __post_init__(self) -> None:
        days = [d for d, _ in self.samples]
        if any(b < a for a, b in zip(days, days[1:])):
            raise DomainError("sample days must be non-decreasing")
        if any(r <= 0 for _, r in self.samples):
            raise DomainError("resistances must be positive")
        if self.r0_ohm == 0.0 and self.samples:
            object.__setattr__(self, "r0_ohm", self.samples[0][1])
        if self.samples and self.r0_ohm <= 0:
            raise DomainError("reference resistance must be positive")


def _shift_model(p: Sequence[float], t):
    """A - B * exp(-t / tau) for p = (A, B, tau)."""
    return p[0] - p[1] * np.exp(-t / p[2])


def _curve(params: AgingParams) -> tuple[float, float, float]:
    return params.final_shift_a, params.depth_b, params.tau_days


def aging_shift(t: float, params: AgingParams) -> float:
    """Fractional resistance shift after t days of storage."""
    if not t >= 0:
        raise DomainError(f"storage time must be non-negative, got {t!r}")
    return float(_shift_model(_curve(params), t))


_AGING_SPEC = ModelSpec(
    evaluator=_shift_model,
    parameter_names=tuple(f.name for f in fields(AgingParams)),
    bounds=((-np.inf, np.inf), (-np.inf, np.inf), (1e-6, np.inf)),
)


def fit_aging_samples(days: Sequence[float], shifts: Sequence[float]) -> FitResult:
    """Fit (A, B, tau) to fractional-shift samples vs storage day.

    Initialization: A from the last sample, A - B from the first, tau from a
    third of the observed day range. A fit that ends with tau on its lower
    bound is run once more with tau from the first day the shift has moved
    half way from the first sample to the last, and the lower residual norm
    wins. A constant series converges with B ~ 0 and tau unidentifiable,
    which the result flags via std_error > value.
    """
    t = np.asarray(list(days), dtype=float)
    y = np.asarray(list(shifts), dtype=float)
    if _distinct_count(t) < 4:
        raise DomainError("need at least 4 distinct sample days to fit aging")
    order = np.argsort(t, kind="stable")
    t, y = t[order], y[order]
    span = float(t.max() - t.min())
    first, last = float(y[0]), float(y[-1])  # inf - inf is nan here, with no numpy warning
    fit = fit_curve(_AGING_SPEC, t, y, [last, last - first, span / 3.0])
    if fit.params[2] <= _AGING_SPEC.bounds[2][0]:
        # A step at day 0, a local minimum the fit cannot leave once tau
        # starts far above its value: start again from the half-way day.
        half = np.abs(y - first) >= 0.5 * abs(last - first)
        tau = max(float(t[np.argmax(half)] - t[0]), 1e-3)
        refit = fit_curve(_AGING_SPEC, t, y, [last, last - first, tau])
        if refit.residual_norm < fit.residual_norm:
            return refit
    return fit


def fit_aging(*series: AgingSeries) -> FitResult:
    """Fit one aging curve to the pooled samples of one or more series.

    A resistance so far above its reference that the fractional shift
    overflows is refused, naming the series.
    """
    days = [d for s in series for d, _ in s.samples]
    shifts = []
    for s in series:
        for _, r in s.samples:
            shifts.append(r / s.r0_ohm - 1.0)
            if not math.isfinite(shifts[-1]):
                raise DomainError(
                    f"series {s.junction_id!r}: resistance_ohm {r:.6g} over r0_ohm "
                    f"{s.r0_ohm:.6g} gives a shift beyond the float range"
                )
    return fit_aging_samples(days, shifts)


def offset_preservation(
    annealed: AgingParams,
    unannealed: AgingParams,
    horizon: float,
) -> dict[str, float]:
    """How stable the annealed-vs-unannealed shift gap is over storage.

    Evaluates gap(t) = shift_annealed(t) - shift_unannealed(t) on a dense
    grid over [0, horizon] and reports the day-0 gap, the horizon gap, and
    the worst absolute drift away from the day-0 value.
    """
    if not 0.0 < horizon < math.inf:
        raise DomainError(f"horizon must be positive, got {horizon!r}")
    t = np.linspace(0.0, horizon, _GRID_POINTS)
    gap = _shift_model(_curve(annealed), t) - _shift_model(_curve(unannealed), t)
    return {
        "initial_gap": float(gap[0]),
        "final_gap": float(gap[-1]),
        "max_drift": float(np.max(np.abs(gap - gap[0]))),
    }
