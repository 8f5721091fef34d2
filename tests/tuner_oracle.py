"""Frozen reference copy of the original dose and tuner hot paths.

``mean_shift``, ``apply_anneal``, ``power_for_shift``, ``recipe_for_shift``
and ``iterative_tune`` as they were before the dose-model constants were
computed once per model: every call rebuilds the transfer at zero
displacement, the tie check, the exposure factor and the single-shot
ceiling. The production functions must return bit-identical results and
raise the same errors. Do not edit the code below: it is the oracle.
"""

from __future__ import annotations

import math

import numpy as np

from jjtune.dose import (
    DEFAULT_RECIPE,
    AnnealRecord,
    DoseModel,
    JunctionState,
    LasingRecipe,
    exposure_factor,
    heat_transfer_factor,
    junction_temperature,
    mean_shift_vs_temperature,
    realized_shift,
)
from jjtune.errors import DomainError, InfeasibleError
from jjtune.physics import qubit_frequency, resistance_for_frequency
from jjtune.tuner import TuneIteration, TunePolicy, TuneTrace, required_shift

_POWER_CEILING_MW = 49.99


def _coupling(displacement: float, model: DoseModel) -> float:
    # Normalized thermal transfer; 1 at zero displacement by construction.
    return heat_transfer_factor(displacement, model.displacement) / heat_transfer_factor(
        0.0, model.displacement
    )


def mean_shift(
    recipe: LasingRecipe, model: DoseModel = DoseModel(), beam_offset: float = 0.0
) -> float:
    effective_power = recipe.power * _coupling(recipe.displacement + beam_offset, model)
    temperature = junction_temperature(effective_power, model.heating)
    saturated = mean_shift_vs_temperature(temperature, model.response)
    return saturated * exposure_factor(recipe.exposure, recipe.repetitions, model.response)


def apply_anneal(
    state: JunctionState,
    recipe: LasingRecipe,
    rng: np.random.Generator,
    model: DoseModel = DoseModel(),
) -> JunctionState:
    eps = float(rng.standard_normal())
    shift = realized_shift(mean_shift(recipe, model), eps, model.stochastic)
    return JunctionState(
        resistance=state.resistance * (1.0 + shift),
        history=state.history + (AnnealRecord(recipe=recipe, shift=shift),),
    )


def power_for_shift(
    target_shift: float,
    model: DoseModel = DoseModel(),
    exposure: float = 60.0,
) -> float:
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
