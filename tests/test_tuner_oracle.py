"""The dose and tuner hot paths return what the original per-call code did.

``tuner_oracle`` is a frozen copy of ``mean_shift``, ``apply_anneal``,
``power_for_shift``, ``recipe_for_shift`` and ``iterative_tune`` from before
the dose-model constants were computed once per model. For every drawn model
and input both must return the same bits (compared through ``repr``, which
round-trips every float) or raise the same exception with the same message.
Each example alternates two models, and copies of them made by
``dataclasses.replace``, in one process, so a constant kept from another
model would show.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import tuner_oracle
from jjtune import dose, tuner
from jjtune.dose import DoseModel, JunctionState, LasingRecipe
from jjtune.physics import qubit_frequency
from jjtune.tuner import TunePolicy


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _maybe(record, **fields):
    """``record``, or a ``replace`` of it with the drawn fields."""
    return st.one_of(st.just(record), st.fixed_dictionaries(fields).map(lambda f: replace(record, **f)))


@st.composite
def models(draw):
    base = DoseModel()
    heating = draw(_maybe(base.heating, slope=_floats(0.5, 5.0), ambient=_floats(-50.0, 100.0)))
    response = draw(_maybe(
        base.response, plateau_m=_floats(1e-3, 0.05), char_temperature_t0=_floats(5.0, 80.0),
        char_exposure_u0=_floats(0.1, 100.0),
    ))
    tie = draw(st.sampled_from(["as built", "heating ambient", "untied"]))
    if tie == "heating ambient":
        response = replace(response, depth_b=response.tied_depth(heating.ambient))
    elif tie == "untied":
        response = replace(response, depth_b=response.depth_b * draw(_floats(0.5, 2.0)))
    displacement = draw(st.one_of(
        _maybe(base.displacement, transfer_amp_a=_floats(0.1, 10.0),
               transfer_offset_b=_floats(1e-4, 1.0), decay_d0=_floats(0.5, 50.0)),
        # A + B overflows: the transfer at zero displacement is infinite.
        st.just(replace(base.displacement, transfer_amp_a=1e308, transfer_offset_b=1e308)),
    ))
    stochastic = draw(_maybe(
        base.stochastic, relative_sigma=_floats(0.0, 0.1), shift_floor=_floats(-0.01, 0.0),
    ))
    return replace(base, heating=heating, response=response, displacement=displacement,
                   stochastic=stochastic)


exposures = st.one_of(
    st.sampled_from([60.0, 60, 1.5, float("nan"), float("inf"), 0.0]), _floats(1e-3, 1e3),
)
recipes = st.builds(
    LasingRecipe, power=_floats(0.0, 49.99), exposure=st.one_of(st.just(60.0), _floats(1e-2, 1e3)),
    repetitions=st.integers(1, 4), displacement=st.one_of(st.just(0.0), _floats(0.0, 40.0)),
)


def _outcome(call, *args, **kwargs):
    try:
        with np.errstate(all="ignore"):
            return repr(call(*args, **kwargs))
    except Exception as exc:  # the exception itself is what is compared
        return type(exc), str(exc)


def _same(name, *args, **kwargs):
    assert _outcome(getattr(tuner_oracle, name), *args, **kwargs) == _outcome(
        getattr(dose if name in ("mean_shift", "apply_anneal") else tuner, name), *args, **kwargs
    ), name


def _alternated(a, b):
    """Two models in turn, each also as an equal but distinct copy."""
    return (a, b, a, replace(b), replace(a), b)


@given(models(), models(), recipes, _floats(0.0, 5.0), _floats(-0.01, 0.06), exposures)
def test_mean_shift_and_power_for_shift_match(a, b, recipe, beam_offset, shift, exposure):
    for model in _alternated(a, b):
        _same("mean_shift", recipe, model)
        _same("mean_shift", recipe, model, beam_offset=beam_offset)
        _same("power_for_shift", shift, model, exposure)
        _same("power_for_shift", shift, model)


@given(models(), models(), st.one_of(st.just(0.0), _floats(-0.01, 0.3)), exposures,
       st.integers(0, 1000))
def test_recipe_for_shift_matches(a, b, shift, exposure, max_shots):
    for model in _alternated(a, b):
        _same("recipe_for_shift", shift, model, exposure, max_shots)
        _same("recipe_for_shift", shift, model)


@given(models(), models(), _floats(7000.0, 9000.0), _floats(-20e6, 150e6),
       st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_iterative_tune_and_apply_anneal_match(a, b, resistance, downshift, iterations, seed):
    junction = JunctionState(resistance=resistance)
    target = qubit_frequency(resistance) - downshift
    policy = TunePolicy(max_iterations=iterations)
    recipe = LasingRecipe(power=40.0)
    for model in _alternated(a, b):
        outcomes = [
            _outcome(module.iterative_tune, junction, target, policy, model,
                     np.random.default_rng(seed), "J")
            for module in (tuner_oracle, tuner)
        ]
        assert outcomes[0] == outcomes[1]
        outcomes = [
            _outcome(module.apply_anneal, junction, recipe, np.random.default_rng(seed), model)
            for module in (tuner_oracle, dose)
        ]
        assert outcomes[0] == outcomes[1]


def test_default_model_matches_on_the_reference_cases():
    # The calibrated model and the 94 MHz reference downshift of the paper.
    model = DoseModel()
    for shift in (0.0, 0.005, 0.015, 0.05, 0.2):
        _same("recipe_for_shift", shift, model)
        _same("power_for_shift", min(shift, 0.017), model)
    junction = JunctionState(resistance=7781.0)
    target = qubit_frequency(7781.0) - 94e6
    for seed in range(20):
        assert _outcome(tuner_oracle.iterative_tune, junction, target, TunePolicy(), model,
                        np.random.default_rng(seed)) == _outcome(
            tuner.iterative_tune, junction, target, TunePolicy(), model, np.random.default_rng(seed))



def test_alternating_exposures_match_and_keep_one_entry():
    # Each change of exposure computes the limits afresh, and the model keeps
    # the last exposure's entry only; an int 60 is its own key.
    model = DoseModel()
    for exposure in (60.0, 1.0, 60.0, 2.5, 60, 60.0, 2.5, 1000.0, 60.0):
        for shift in (0.004, 0.05):
            _same("recipe_for_shift", shift, model, exposure, 1000)
            _same("power_for_shift", shift, model, exposure)
        key, _ = vars(model)["_shot_limits"]
        assert key == (type(exposure), exposure)
