"""Closed-loop retuning: shift planning, the anneal loop, target allocation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import linprog

import jjtune as jt
from jjtune.dose import DoseModel, StochasticParams
from jjtune.errors import DomainError, InfeasibleError

F0 = jt.qubit_frequency(7781.0)          # 5848756353.876269 Hz

QUIET = dataclasses.replace(
    DoseModel(), stochastic=StochasticParams(relative_sigma=0.0, shift_floor=-0.005)
)


class TestRequiredShift:
    def test_no_move_needed(self):
        assert jt.required_shift(F0, F0) == 0.0

    def test_reference_retune(self):
        shift = jt.required_shift(F0, F0 - 94e6)
        assert shift == pytest.approx(0.0314217338243612, rel=1e-12)
        # first-order slope predicts 1.9 * 94 MHz / f, about 3.05%
        assert abs(shift - 0.0305) <= 1e-3

    def test_one_percent_downshift(self):
        shift = jt.required_shift(F0, 0.99 * F0)
        assert shift == pytest.approx(0.01937904624159037, rel=1e-12)
        assert shift == pytest.approx(1.9 * 0.01, rel=0.03)

    def test_upshift_refused(self):
        with pytest.raises(InfeasibleError):
            jt.required_shift(F0, F0 + 1e6)

    @pytest.mark.parametrize("f_now, f_target", [(1e180, 1e179), (3.5e173, 3.5e173), (1e187, 1e9)])
    def test_current_frequency_whose_resistance_underflows_is_refused(self, f_now, f_target):
        assert jt.resistance_for_frequency(f_now) == 0.0
        with pytest.raises(DomainError, match="too large for the frequency map"):
            jt.required_shift(f_now, f_target)

    @given(st.floats(min_value=1e5, max_value=200e6))
    def test_round_trip_through_frequency(self, df):
        shift = jt.required_shift(F0, F0 - df)
        r_new = 7781.0 * (1.0 + shift)
        assert jt.qubit_frequency(r_new) == pytest.approx(F0 - df, rel=1e-9)


class TestPowerForShift:
    def test_zero_shift_zero_power(self):
        assert jt.power_for_shift(0.0) == 0.0

    @given(st.floats(min_value=1e-6, max_value=0.0177))
    def test_inverts_the_dose_curve(self, target):
        power = jt.power_for_shift(target)
        recipe = jt.LasingRecipe(power=power, exposure=60.0)
        assert jt.mean_shift(recipe) == pytest.approx(target, rel=1e-9)

    def test_plateau_unreachable(self):
        with pytest.raises(InfeasibleError):
            jt.power_for_shift(0.018)
        with pytest.raises(InfeasibleError):
            jt.power_for_shift(0.0179)     # needs power above the ceiling

    def test_negative_shift_refused(self):
        with pytest.raises(DomainError):
            jt.power_for_shift(-0.001)


class TestRecipeForShift:
    def test_zero_shift_no_shots(self):
        assert jt.recipe_for_shift(0.0) == ()

    def test_negative_shift_refused(self):
        with pytest.raises(DomainError, match="non-negative"):
            jt.recipe_for_shift(-0.01)

    def test_single_shot_exact(self):
        shots = jt.recipe_for_shift(0.015)
        assert len(shots) == 1
        assert jt.mean_shift(shots[0]) == pytest.approx(0.015, rel=1e-9)
        assert shots[0].power < 50.0

    def test_multi_shot_composition(self):
        target = 0.05
        shots = jt.recipe_for_shift(target)
        assert len(shots) >= 2
        assert all(s.power < 50.0 for s in shots)
        composed = math.prod(1.0 + jt.mean_shift(s) for s in shots) - 1.0
        assert composed == pytest.approx(target, rel=1e-9)

    def test_budget_exceeded_reports_achievable(self):
        with pytest.raises(InfeasibleError, match="achievable"):
            jt.recipe_for_shift(0.05, max_shots=1)

    @pytest.mark.parametrize("target", [0.0, 0.005, 0.05])
    @pytest.mark.parametrize("kwargs, message", [
        ({"max_shots": 0}, "max_shots"),
        ({"exposure": math.nan}, "exposure"),
        ({"exposure": math.inf}, "exposure"),
    ])
    def test_bad_budget_or_exposure_is_refused(self, target, kwargs, message):
        # Refused up front, also when no shot is needed.
        with pytest.raises(DomainError, match=message):
            jt.recipe_for_shift(target, **kwargs)

    def test_plan_past_the_shot_bound_is_refused_whatever_the_budget(self):
        # Counted, not built: 1.7e9 shots would be a ~13.6 GB tuple.
        with pytest.raises(InfeasibleError, match=r"needs \d{10} shots, more than the 10000 "):
            jt.recipe_for_shift(0.02, exposure=1e-9, max_shots=3_000_000_000)

    def test_large_budget_plans_what_the_default_does(self):
        assert jt.recipe_for_shift(0.05, max_shots=5000) == jt.recipe_for_shift(0.05)

    def test_zero_per_shot_shift_is_infeasible(self):
        # An exposure this short shifts nothing, so no number of shots helps.
        with pytest.raises(InfeasibleError, match=r"achievable within budget: 0$"):
            jt.recipe_for_shift(0.05, exposure=1e-17)

    @given(st.floats(min_value=1e-5, max_value=0.25))
    def test_composition_always_lands_on_target(self, target):
        shots = jt.recipe_for_shift(target)
        composed = math.prod(1.0 + jt.mean_shift(s) for s in shots) - 1.0
        assert composed == pytest.approx(target, rel=1e-8)


class TestIterativeTune:
    def test_policy_validation(self):
        with pytest.raises(DomainError):
            jt.TunePolicy(step_fraction=0.0)
        with pytest.raises(DomainError):
            jt.TunePolicy(step_fraction=1.5)
        with pytest.raises(DomainError):
            jt.TunePolicy(tolerance=0.0)
        with pytest.raises(DomainError):
            jt.TunePolicy(max_iterations=0)
        with pytest.raises(DomainError):
            jt.TunePolicy(measurement_noise_sigma=-0.01)

    @pytest.mark.parametrize("field", ["step_fraction", "tolerance", "measurement_noise_sigma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_policy_rejects_non_finite_fields(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            jt.TunePolicy(**{field: value})

    def test_already_on_target_converges_without_annealing(self):
        policy = jt.TunePolicy(measurement_noise_sigma=0.0)
        trace = jt.iterative_tune(
            jt.JunctionState(resistance=7781.0), F0, policy, QUIET,
            rng=np.random.default_rng(0), junction_id="J0",
        )
        assert trace.outcome == "converged"
        assert trace.junction_id == "J0"
        assert trace.target_f == F0
        assert len(trace.iterations) == 1
        assert trace.iterations[0].recipe is None
        assert trace.final_resistance == 7781.0

    def test_noiseless_loop_contracts_geometrically(self):
        # each shot closes step_fraction of the remaining gap, so the
        # residual resistance gap shrinks by exactly 0.3 per iteration
        policy = jt.TunePolicy(
            step_fraction=0.7, tolerance=1e-9, max_iterations=6,
            measurement_noise_sigma=0.0,
        )
        trace = jt.iterative_tune(
            jt.JunctionState(resistance=7781.0), F0 - 20e6, policy, QUIET,
            rng=np.random.default_rng(0),
        )
        assert trace.outcome == "exhausted"
        assert len(trace.iterations) == 6
        r_target = jt.resistance_for_frequency(F0 - 20e6)
        gaps = [it.measured_r / r_target - 1.0 for it in trace.iterations]
        assert all(g < 0 for g in gaps)           # resistance approaches from below
        for a, b in zip(gaps, gaps[1:]):
            assert b / a == pytest.approx(0.3, abs=1e-9)
        applied = math.prod(
            1.0 + it.sampled_shift for it in trace.iterations if it.sampled_shift is not None
        )
        assert trace.final_resistance == pytest.approx(7781.0 * applied, rel=1e-12)

    def test_default_policy_reference_retune(self):
        trace = jt.iterative_tune(
            jt.JunctionState(resistance=7781.0), F0 - 94e6, rng=np.random.default_rng(42)
        )
        assert trace.outcome == "converged"
        f_final = jt.qubit_frequency(trace.final_resistance)
        assert abs(f_final - (F0 - 94e6)) <= 0.0025 * (F0 - 94e6) * 2.0

    def test_violent_shot_noise_can_overshoot(self):
        wild = dataclasses.replace(
            DoseModel(), stochastic=StochasticParams(relative_sigma=5.0, shift_floor=-0.005)
        )
        trace = jt.iterative_tune(
            jt.JunctionState(resistance=7781.0), F0 - 94e6, model=wild,
            rng=np.random.default_rng(1),
        )
        assert trace.outcome == "overshoot"
        assert trace.iterations[-1].recipe is None

    def test_target_above_current_refused(self):
        policy = jt.TunePolicy(measurement_noise_sigma=0.0)
        with pytest.raises(InfeasibleError):
            jt.iterative_tune(
                jt.JunctionState(resistance=7781.0), F0 * 1.01, policy, QUIET,
                rng=np.random.default_rng(0),
            )

    def test_nonpositive_target_refused(self):
        with pytest.raises(DomainError):
            jt.iterative_tune(jt.JunctionState(resistance=7781.0), 0.0)

    @pytest.mark.parametrize("target", [math.nan, math.inf])
    def test_non_finite_target_refused(self, target):
        with pytest.raises(DomainError, match="finite"):
            jt.iterative_tune(jt.JunctionState(resistance=7781.0), target)

    def test_estimate_too_small_for_the_map_refused(self):
        with pytest.raises(DomainError, match=r"^resistance 1\.00025e-300 ohm is too small "
                                              r"for the frequency map$"):
            jt.iterative_tune(jt.JunctionState(resistance=1e-300), 5e9,
                              rng=np.random.default_rng(0))


class TestAllocateTargets:
    def test_spaced_input_unchanged(self):
        freqs = [5.0e9, 5.2e9, 5.4e9]
        assert jt.allocate_targets(freqs, 50e6) == freqs

    def test_collision_resolved_downward(self):
        targets = jt.allocate_targets([5.50e9, 5.51e9], 50e6)
        assert targets == [5.46e9, 5.51e9]

    def test_order_preserved(self):
        targets = jt.allocate_targets([5.51e9, 5.50e9], 50e6)
        assert targets == [5.51e9, 5.46e9]

    @given(
        st.lists(st.floats(min_value=4.5e9, max_value=5.5e9), min_size=1, max_size=6),
        st.floats(min_value=0.0, max_value=100e6),
    )
    def test_allocation_invariants(self, freqs, spacing):
        targets = jt.allocate_targets(freqs, spacing)
        assert all(t <= f for t, f in zip(targets, freqs))
        ordered = sorted(targets, reverse=True)
        for hi, lo in zip(ordered, ordered[1:]):
            assert hi - lo >= spacing - 1e-3
        assert jt.allocate_targets(targets, spacing) == pytest.approx(targets, rel=1e-15)

    def test_greedy_matches_linear_program(self):
        # the downshift-only assignment maximizing the total retained
        # frequency is a tiny LP; the greedy sweep must match its optimum
        for seed in range(30):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(4, 7))
            freqs = 5.0e9 + 0.3e9 * rng.random(n)
            spacing = float(rng.uniform(10e6, 120e6))
            greedy = jt.allocate_targets(list(freqs), spacing)

            order = np.argsort(-freqs)
            a_ub, b_ub = [], []
            for rank in range(n - 1):
                row = np.zeros(n)
                row[order[rank + 1]] = 1.0
                row[order[rank]] = -1.0
                a_ub.append(row)                   # t_next <= t_prev - spacing
                b_ub.append(-spacing)
            lp = linprog(
                c=-np.ones(n), A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                bounds=[(0.0, float(f)) for f in freqs], method="highs",
            )
            assert lp.success
            assert sum(greedy) == pytest.approx(-lp.fun, rel=1e-12)

    def test_impossible_chain_reported(self):
        with pytest.raises(InfeasibleError, match="violating chain"):
            jt.allocate_targets([1e8, 1.2e8], 2e8)

    def test_long_chain_is_cut_to_its_head_and_count(self):
        # 3000 equal frequencies 2 MHz apart reach zero after 2501 of them.
        with pytest.raises(InfeasibleError) as info:
            jt.allocate_targets([5e9] * 3000, 2e6)
        assert str(info.value).endswith(
            "violating chain (GHz): 5.000000, 5.000000, 5.000000, 5.000000, 5.000000, "
            "... (2501 in all)"
        )

    def test_validation(self):
        with pytest.raises(DomainError):
            jt.allocate_targets([5e9], -1.0)
        with pytest.raises(DomainError):
            jt.allocate_targets([5e9, 0.0], 1e6)


@pytest.mark.parametrize("model", [
    DoseModel(heating=jt.HeatingParams(ambient=25.0)),
    DoseModel(response=jt.DoseResponseParams(depth_b=0.03)),
])
def test_power_for_shift_refuses_a_curve_not_tied_to_its_ambient(model):
    # the closed form would miss: these models land at 0.01131 and 0.01147
    with pytest.raises(DomainError, match="depth_b"):
        jt.power_for_shift(0.01, model)


@pytest.mark.parametrize("model", [
    DoseModel(),
    DoseModel(response=jt.DoseResponseParams(plateau_m=0.02, char_temperature_t0=30.0)),
])
@pytest.mark.parametrize("target", [1e-3, 0.005, 0.01, 0.015, 0.017])
def test_power_for_shift_inverts_tied_curves(model, target):
    power = jt.power_for_shift(target, model)
    assert jt.mean_shift(jt.LasingRecipe(power=power), model) == pytest.approx(target, rel=1e-12)


@pytest.mark.parametrize("value", [2.5, 2.0, True, "3"])
def test_policy_max_iterations_must_be_an_integer(value):
    with pytest.raises(DomainError, match="max_iterations must be an integer"):
        jt.TunePolicy(max_iterations=value)


def test_policy_accepts_numpy_integer_iterations():
    assert jt.TunePolicy(max_iterations=np.int64(3)).max_iterations == 3


def test_controller_holds_while_the_commanded_step_is_negligible():
    # Every commanded step rounds below the hold threshold, so each
    # iteration only measures and the budget runs out without an anneal.
    trace = jt.iterative_tune(
        jt.JunctionState(resistance=7781.0),
        jt.qubit_frequency(7781.0) - 94e6,
        policy=jt.TunePolicy(step_fraction=1e-12, measurement_noise_sigma=0.0),
    )
    assert len(trace.iterations) == 8
    assert all(it.recipe is None and it.sampled_shift is None for it in trace.iterations)
    assert trace.outcome == "exhausted"
    assert trace.final_resistance == 7781.0
