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
from typing import ClassVar, Literal, Sequence

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
from .physics import max_resistance, qubit_frequency, resistance_for_frequency

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
# The most shots one junction's plan may list, whatever its budget: a count
# above it is refused before any shot is built (a 1e-9 s exposure would need
# billions). Each listed shot is about 150 bytes of plan.json.
_MAX_PLAN_SHOTS = 10_000
# Frequencies an infeasible spacing's message lists before it gives the count.
_CHAIN_SHOWN = 5


@dataclass(frozen=True)
class TunePolicy:
    """Controller knobs for the anneal-measure loop.

    guard_fraction places the aim point at target * (1 + guard * tolerance):
    0 aims at the band center, values toward 1 hug the upper band edge. The
    fixed 0.6 keeps measurement noise from reading a converged junction as
    an overshoot while still converging in 2-3 shots.
    """

    step_fraction: float = 0.7
    tolerance: float = 0.0025
    max_iterations: int = 8
    measurement_noise_sigma: float = 0.002
    guard_fraction: ClassVar[float] = 0.6

    def __post_init__(self) -> None:
        for name in ("step_fraction", "tolerance", "measurement_noise_sigma"):
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


@dataclass(frozen=True, slots=True)
class TuneIteration:
    measured_r: float
    inferred_f: float
    recipe: LasingRecipe | None
    sampled_shift: float | None


@dataclass(frozen=True, slots=True)
class TuneTrace:
    junction_id: str
    target_f: float
    iterations: tuple[TuneIteration, ...]
    outcome: Literal["converged", "overshoot", "exhausted"]
    final_resistance: float

    @property
    def n_anneals(self) -> int:
        return sum(it.recipe is not None for it in self.iterations)


def required_shift(f_now: float, f_target: float) -> float:
    """Fractional resistance increase taking f_now to f_target (exact).

    Annealing cannot lower resistance, so f_target above f_now is refused. So
    is an f_now whose resistance the frequency map underflows to zero (from
    ~3.4e173 Hz up).
    """
    if f_target > f_now:
        raise InfeasibleError(
            f"target {f_target / 1e9:.6f} GHz is above the current "
            f"{f_now / 1e9:.6f} GHz; annealing only shifts frequency down"
        )
    try:
        return resistance_for_frequency(f_target) / resistance_for_frequency(f_now) - 1.0
    except ZeroDivisionError:
        raise DomainError(f"frequency {f_now:.6g} Hz is too large for the frequency map") from None


def _shot_limits(model: DoseModel, exposure: float) -> tuple[float, LasingRecipe, float]:
    """The single-shot ceiling, one default-power shot and that shot's mean
    shift at this exposure, kept for the last exposure asked of each model.

    The values are kept in the model's own ``__dict__``, as
    functools.cached_property does, so a model made by dataclasses.replace
    computes its own. The key holds the exposure's type, so an int 60 keeps
    its own recipe; the ceiling refuses zero, NaN and inf, so no key is ever
    stored that equal exposures of other bits would share. Both shots have
    this exposure and no displacement, and 40 mW is below the 49.99 mW
    ceiling, so the shot computes whenever the ceiling does. ``plan`` asks
    for one exposure and ``iterative_tune`` only for 60 s, so one entry holds.
    """
    key = (type(exposure), exposure)
    entry = vars(model).get("_shot_limits")
    if entry is None or entry[0] != key:
        ceiling = mean_shift(LasingRecipe(power=_POWER_CEILING_MW, exposure=exposure), model)
        full = LasingRecipe(power=DEFAULT_RECIPE.power, exposure=exposure)
        entry = vars(model)["_shot_limits"] = (key, (ceiling, full, mean_shift(full, model)))
    return entry[1]


def power_for_shift(
    target_shift: float,
    model: DoseModel = DoseModel(),
    exposure: float = DEFAULT_RECIPE.exposure,
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


def recipe_for_shift(
    target_shift: float,
    model: DoseModel = DoseModel(),
    exposure: float = DEFAULT_RECIPE.exposure,
    max_shots: int = 16,
) -> tuple[LasingRecipe, ...]:
    """Plan shots whose cumulative mean shift composes to target_shift.

    Single shot when one suffices; otherwise default-power shots plus one
    exact trimming shot, composed multiplicatively. Targets needing more
    than max_shots raise with the achievable bound, and so do targets
    needing more than 10,000 shots, whatever the budget.
    """
    if max_shots < 1:
        raise DomainError(f"max_shots must be at least 1, got {max_shots!r}")
    if not 0.0 < exposure < math.inf:
        raise DomainError(f"exposure must be positive and finite, got {exposure!r}")
    if target_shift < 0:
        raise DomainError("target shift must be non-negative")
    if target_shift == 0.0:
        return ()
    ceiling, full, per_shot = _shot_limits(model, exposure)
    if target_shift <= ceiling:
        power = power_for_shift(target_shift, model, exposure)
        return (LasingRecipe(power=power, exposure=exposure),)

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
    if n_shots > _MAX_PLAN_SHOTS:
        raise InfeasibleError(
            f"shift {target_shift:.6g} needs {n_shots} shots, more than the "
            f"{_MAX_PLAN_SHOTS} one plan may list"
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
    try:
        r_aim = resistance_for_frequency(f_aim)
    except DomainError as exc:
        raise DomainError(
            f"tolerance {policy.tolerance:g} puts the aim point out of range: {exc}"
        ) from None
    band = policy.tolerance * f_target
    sigma = policy.measurement_noise_sigma
    exposure = DEFAULT_RECIPE.exposure
    mu_ceiling = _shot_limits(model, exposure)[0]

    state = junction
    fused_logs: list[float] = []
    rows: list[TuneIteration] = []
    outcome: str = "exhausted"

    for iteration in range(policy.max_iterations):
        measured = state.resistance * (1.0 + sigma * float(rng.standard_normal()))
        if measured <= 0.0:
            raise DomainError(
                f"measurement noise sigma {sigma:g} gave a non-positive resistance "
                f"reading of {measured:.6g} ohm"
            )
        fused_logs.append(math.log(measured))
        r_hat = math.exp(sum(fused_logs) / len(fused_logs))
        try:
            inferred = qubit_frequency(r_hat)
        except DomainError:  # r_hat is positive: past the zero-frequency bound, or too small
            if r_hat < max_resistance():
                raise  # too small for the map, which says so
            raise DomainError(
                f"fused resistance estimate {r_hat:.6g} ohm at measurement noise sigma {sigma:g} "
                f"is at or beyond the zero-frequency bound {max_resistance():.6g} ohm"
            ) from None

        recipe = sampled = None
        if abs(inferred - f_target) <= band:
            outcome = "converged"
        elif inferred < f_target:
            if iteration == 0:
                # One-directional process: the target is already above us.
                required_shift(inferred, f_target)  # raises InfeasibleError
            outcome = "overshoot"
        else:
            step = min(
                policy.step_fraction * (r_target / r_hat - 1.0),
                r_aim / r_hat - 1.0,
                mu_ceiling,
            )
            # At or below 1e-9 (a NaN step is not) the fused estimate says we are
            # at the aim point but outside the band: hold and let another
            # measurement refine it.
            if not step <= 1e-9:
                recipe = LasingRecipe(power=power_for_shift(step, model, exposure),
                                      exposure=exposure)
                state = apply_anneal(state, recipe, rng, model)
                sampled = state.history[-1].shift
                # Dead-reckon earlier measurements forward by the commanded step.
                commanded = math.log1p(step)
                fused_logs = [value + commanded for value in fused_logs]
        rows.append(TuneIteration(measured, inferred, recipe, sampled))
        if outcome != "exhausted":
            break

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
            listing = ", ".join(f"{f / 1e9:.6f}" for f in chain[:_CHAIN_SHOWN])
            if len(chain) > _CHAIN_SHOWN:
                listing += f", ... ({len(chain)} in all)"
            raise InfeasibleError(
                f"spacing {min_spacing / 1e6:.3g} MHz forces a non-positive "
                f"target; violating chain (GHz): {listing}"
            )
        targets[index] = t
        cap = t - min_spacing
    return targets
