"""Closed-loop frequency retuning and collision-free target assignment.

Annealing only ever raises resistance, so tuning is one-directional: plan a
downshift, command a fraction of the remaining resistance gap per shot, and
re-measure. Overshoot is terminal, which drives three conservative choices:

- step_fraction < 1 of the remaining gap per iteration,
- the commanded step aims at a guard point just above the target frequency
  (a guard_fraction of the tolerance band), never at the band center,
- the controller fuses all measurements so far (dead-reckoned by the
  commanded steps, averaged in log space) instead of trusting the latest
  noisy reading when classifying convergence or overshoot.

With the default policy this converges in 2-3 shots at the reference 94 MHz
downshift and produces no overshoots at 1% shot noise and 0.2% measurement
noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .dose import (
    DEFAULT_RECIPE,
    DoseModel,
    JunctionState,
    LasingRecipe,
    apply_anneal,
    exposure_factor,
    mean_shift,
)
from .errors import DomainError, InfeasibleError
from .physics import qubit_frequency, resistance_for_frequency

__all__ = [
    "TunePolicy",
    "TuneIteration",
    "TuneTrace",
    "required_shift",
    "power_for_shift",
    "recipe_for_shift",
    "iterative_tune",
    "allocate_targets",
]

# Commanded single-shot ceiling stays just under the power limit.
_POWER_CEILING_MW = 49.99


@dataclass(frozen=True)
class TunePolicy:
    """Controller knobs for the anneal-measure loop.

    guard_fraction places the aim point at target * (1 + guard * tolerance):
    0 aims at the band center, values toward 1 hug the upper band edge. The
    default 0.6 keeps measurement noise from reading a converged junction as
    an overshoot while still converging in 2-3 shots.
    """

    step_fraction: float = 0.7
    tolerance: float = 0.0025
    max_iterations: int = 8
    measurement_noise_sigma: float = 0.002
    guard_fraction: float = 0.6

    def __post_init__(self) -> None:
        for name in ("step_fraction", "tolerance", "measurement_noise_sigma", "guard_fraction"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if not 0.0 < self.step_fraction <= 1.0:
            raise DomainError("step_fraction must be in (0, 1]")
        if self.tolerance <= 0:
            raise DomainError("tolerance must be positive")
        n = self.max_iterations
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise DomainError(f"max_iterations must be an integer >= 1, got {n!r}")
        if self.measurement_noise_sigma < 0:
            raise DomainError("measurement noise must be non-negative")
        if not 0.0 <= self.guard_fraction < 1.0:
            raise DomainError("guard_fraction must be in [0, 1)")


@dataclass(frozen=True)
class TuneIteration:
    measured_r: float
    inferred_f: float
    recipe: LasingRecipe | None
    sampled_shift: float | None


@dataclass(frozen=True)
class TuneTrace:
    junction_id: str
    target_f: float
    iterations: tuple[TuneIteration, ...]
    outcome: Literal["converged", "overshoot", "exhausted"]
    final_resistance: float


def required_shift(f_now: float, f_target: float) -> float:
    """Fractional resistance increase taking f_now to f_target (exact).

    Annealing cannot lower resistance, so f_target above f_now is refused.
    """
    if f_target > f_now:
        raise InfeasibleError(
            f"target {f_target / 1e9:.6f} GHz is above the current "
            f"{f_now / 1e9:.6f} GHz; annealing only shifts frequency down"
        )
    return resistance_for_frequency(f_target) / resistance_for_frequency(f_now) - 1.0


def power_for_shift(
    target_shift: float,
    model: DoseModel = DoseModel(),
    exposure: float = 60.0,
) -> float:
    """Exact laser power (mW) whose mean shift equals target_shift.

    Inverts the saturating dose curve in closed form, which holds only for a
    curve tied to zero shift at the model's heating ambient (the default
    depth_b tie); any other model is refused. Raises when the shift is
    beyond what a single shot under the power ceiling can do.
    """
    if target_shift < 0:
        raise DomainError("target shift must be non-negative")
    r = model.response
    if r.depth_b != r.tied_depth(model.heating.ambient):
        raise DomainError("power_for_shift needs depth_b tied to the heating ambient")
    if target_shift == 0.0:
        return 0.0
    plateau = r.plateau_m * exposure_factor(exposure, 1, r)
    if target_shift >= plateau:
        raise InfeasibleError(
            f"shift {target_shift:.6g} is at or above the single-shot "
            f"plateau {plateau:.6g}"
        )
    t0 = r.char_temperature_t0
    temperature_rise = -t0 * math.log1p(-target_shift / plateau)
    power = temperature_rise / model.heating.slope
    if power > _POWER_CEILING_MW:
        # Forgive round-trip float noise right at the ceiling.
        if power <= _POWER_CEILING_MW * (1.0 + 1e-9):
            return _POWER_CEILING_MW
        raise InfeasibleError(
            f"shift {target_shift:.6g} needs {power:.3f} mW, above the "
            f"{_POWER_CEILING_MW} mW commanded ceiling"
        )
    return power


def _single_shot_ceiling(model: DoseModel, exposure: float) -> float:
    ceiling_recipe = LasingRecipe(power=_POWER_CEILING_MW, exposure=exposure)
    return mean_shift(ceiling_recipe, model)


def recipe_for_shift(
    target_shift: float,
    model: DoseModel = DoseModel(),
    exposure: float = 60.0,
    max_shots: int = 16,
) -> tuple[LasingRecipe, ...]:
    """Plan shots whose cumulative mean shift composes to target_shift.

    Single shot when one suffices; otherwise default-power shots plus one
    exact trimming shot, composed multiplicatively. Targets needing more
    than max_shots raise with the achievable bound.
    """
    if max_shots < 1:
        raise DomainError(f"max_shots must be at least 1, got {max_shots!r}")
    if not 0.0 < exposure < math.inf:
        raise DomainError(f"exposure must be positive and finite, got {exposure!r}")
    if target_shift < 0:
        raise DomainError("target shift must be non-negative")
    if target_shift == 0.0:
        return ()
    ceiling = _single_shot_ceiling(model, exposure)
    if target_shift <= ceiling:
        power = power_for_shift(target_shift, model, exposure)
        return (LasingRecipe(power=power, exposure=exposure),)

    full = LasingRecipe(power=DEFAULT_RECIPE.power, exposure=exposure)
    per_shot = mean_shift(full, model)
    # Count the shots before building any: a tiny exposure needs billions,
    # and one that shifts nothing can never reach the target.
    n_shots = math.inf
    if per_shot > 0.0:
        n_full = int(math.log1p(target_shift) // math.log1p(per_shot))
        remainder = (1.0 + target_shift) / (1.0 + per_shot) ** n_full - 1.0
        if remainder > max(ceiling, 1e-12):  # composition left more than one shot can trim
            n_full += 1
            remainder = (1.0 + target_shift) / (1.0 + per_shot) ** n_full - 1.0
        n_shots = n_full + (remainder > 1e-12)
    if n_shots > max_shots:
        achievable = (1.0 + per_shot) ** max_shots - 1.0
        raise InfeasibleError(
            f"shift {target_shift:.6g} needs {n_shots} shots (> {max_shots}); "
            f"achievable within budget: {achievable:.6g}"
        )
    shots = (full,) * n_full
    if remainder > 1e-12:
        trim = power_for_shift(remainder, model, exposure)
        shots += (LasingRecipe(power=trim, exposure=exposure),)
    return shots


def iterative_tune(
    junction: JunctionState,
    f_target: float,
    policy: TunePolicy = TunePolicy(),
    model: DoseModel = DoseModel(),
    rng: np.random.Generator | None = None,
    junction_id: str = "",
) -> TuneTrace:
    """Run the measure-plan-anneal loop until the band is hit or budget ends.

    Each iteration measures resistance (multiplicative noise), folds the
    measurement into the fused log-space estimate, classifies against the
    tolerance band, and if still above target commands a shot for
    step_fraction of the remaining resistance gap, capped by the guard aim
    point and the single-shot ceiling.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if not 0.0 < f_target < math.inf:
        raise DomainError(f"target frequency must be positive and finite, got {f_target!r}")

    r_target = resistance_for_frequency(f_target)
    f_aim = f_target * (1.0 + policy.guard_fraction * policy.tolerance)
    r_aim = resistance_for_frequency(f_aim)
    mu_ceiling = _single_shot_ceiling(model, DEFAULT_RECIPE.exposure)

    state = junction
    fused_logs: list[float] = []
    rows: list[TuneIteration] = []
    outcome: str = "exhausted"

    for iteration in range(policy.max_iterations):
        measured = state.resistance * (
            1.0 + policy.measurement_noise_sigma * float(rng.standard_normal())
        )
        fused_logs.append(math.log(measured))
        r_hat = math.exp(sum(fused_logs) / len(fused_logs))
        inferred = qubit_frequency(r_hat)

        if abs(inferred - f_target) <= policy.tolerance * f_target:
            rows.append(TuneIteration(measured, inferred, None, None))
            outcome = "converged"
            break
        if inferred < f_target:
            if iteration == 0:
                # One-directional process: the target is already above us.
                required_shift(inferred, f_target)  # raises InfeasibleError
            rows.append(TuneIteration(measured, inferred, None, None))
            outcome = "overshoot"
            break

        step = min(
            policy.step_fraction * (r_target / r_hat - 1.0),
            r_aim / r_hat - 1.0,
            mu_ceiling,
        )
        if step <= 1e-9:
            # Fused estimate says we are at the aim point but outside the
            # band: hold and let another measurement refine the estimate.
            rows.append(TuneIteration(measured, inferred, None, None))
            continue
        recipe = LasingRecipe(
            power=power_for_shift(step, model, DEFAULT_RECIPE.exposure),
            exposure=DEFAULT_RECIPE.exposure,
        )
        state = apply_anneal(state, recipe, rng, model)
        sampled = state.history[-1].shift
        rows.append(TuneIteration(measured, inferred, recipe, sampled))
        # Dead-reckon earlier measurements forward by the commanded step.
        commanded = math.log1p(step)
        fused_logs = [value + commanded for value in fused_logs]

    return TuneTrace(
        junction_id=junction_id,
        target_f=f_target,
        iterations=tuple(rows),
        outcome=outcome,  # type: ignore[arg-type]
        final_resistance=state.resistance,
    )


def allocate_targets(frequencies: Sequence[float], min_spacing: float) -> list[float]:
    """Assign collision-free target frequencies, downshift only.

    Sweeps from the highest frequency down, lowering each junction by the
    minimal amount that keeps it min_spacing below the previous target. This
    greedy sweep minimizes the total downshift among feasible assignments.
    """
    if min_spacing < 0:
        raise DomainError("min_spacing must be non-negative")
    freqs = [float(f) for f in frequencies]
    if any(f <= 0 for f in freqs):
        raise DomainError("frequencies must be positive")
    order = sorted(range(len(freqs)), key=lambda i: -freqs[i])
    targets = [0.0] * len(freqs)
    cap = math.inf
    chain: list[float] = []
    for index in order:
        t = min(freqs[index], cap)
        if t < freqs[index]:
            chain.append(freqs[index])
        else:
            chain = [freqs[index]]
        if t <= 0:
            listing = ", ".join(f"{f / 1e9:.6f}" for f in chain)
            raise InfeasibleError(
                f"spacing {min_spacing / 1e6:.3g} MHz forces a non-positive "
                f"target; violating chain (GHz): {listing}"
            )
        targets[index] = t
        cap = t - min_spacing
    return targets
