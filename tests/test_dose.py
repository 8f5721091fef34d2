"""Dose response model: temperature curve, displacement, exposure, shots."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import jjtune as jt
from jjtune import dose
from jjtune.errors import DomainError, InfeasibleError
from jjtune.fitkit import ModelSpec, fit_curve

MU_DEFAULT = 0.01747175742090387      # 40 mW x 60 s on target
MU_CEILING = 0.0177811700609759       # 49.99 mW single shot
MU_40MW_30UM = 0.002611655298009892   # default recipe displaced 30 um
RESP_AT_0 = 0.003240126138394055
RESP_AT_30 = 0.0011263838319559986


def test_default_recipe_reference_shift():
    assert jt.mean_shift(jt.DEFAULT_RECIPE) == MU_DEFAULT


def test_shift_composes_from_temperature_curve():
    # saturated exposure and zero displacement: exactly the plateau curve
    for power in (10.0, 25.0, 40.0, 49.9):
        recipe = jt.LasingRecipe(power=power)
        assert jt.mean_shift(recipe) == jt.mean_shift_vs_temperature(
            jt.junction_temperature(power)
        )


def test_temperature_map():
    assert jt.junction_temperature(45.0) == pytest.approx(131.15, abs=1e-12)
    assert jt.junction_temperature(0.0) == 20.0
    with pytest.raises(DomainError):
        jt.junction_temperature(-1.0)
    with pytest.raises(InfeasibleError):
        jt.junction_temperature(50.0)


def test_curve_is_zero_at_ambient():
    # depth is tied so the plateau curve passes through zero at ambient
    assert abs(jt.mean_shift_vs_temperature(20.0)) < 1e-17
    assert abs(jt.mean_shift(jt.LasingRecipe(power=0.0))) < 1e-17


def test_single_shot_ceiling_value():
    assert jt.mean_shift(jt.LasingRecipe(power=49.99)) == pytest.approx(
        MU_CEILING, rel=1e-12
    )


def test_exposure_factor():
    assert jt.exposure_factor(60.0, 1) == 1.0          # fully saturated in float64
    assert jt.exposure_factor(30.0, 2) == jt.exposure_factor(60.0, 1)
    assert jt.exposure_factor(1.5, 1) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
    assert jt.exposure_factor(0.1, 1) < jt.exposure_factor(0.2, 1) < 1.0
    with pytest.raises(DomainError):
        jt.exposure_factor(0.0, 1)
    with pytest.raises(DomainError):
        jt.exposure_factor(10.0, 0)


def test_exposure_sweep_recovers_saturation_scale():
    """Fitting ceiling * (1 - exp(-E/u0)) to a shift-vs-exposure sweep gives
    back the model's u0."""
    exposures = np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 15.0, 30.0, 60.0])
    shifts = np.array(
        [jt.mean_shift(jt.LasingRecipe(power=40.0, exposure=float(e))) for e in exposures]
    )
    spec = ModelSpec(
        lambda p, x: p[0] * -np.expm1(-x / p[1]),
        ("ceiling", "u0"),
        bounds=((1e-9, np.inf), (1e-6, np.inf)),
    )
    fit = fit_curve(spec, exposures, shifts, [shifts[-1], 1.0])
    assert fit.converged
    assert fit.params[1] == pytest.approx(1.5, rel=1e-9)
    assert fit.params[0] == pytest.approx(MU_DEFAULT, rel=1e-9)


def test_recipe_validation():
    with pytest.raises(InfeasibleError):
        jt.LasingRecipe(power=50.0)
    with pytest.raises(InfeasibleError):
        jt.LasingRecipe(power=60.0)
    with pytest.raises(DomainError):
        jt.LasingRecipe(power=-1.0)
    with pytest.raises(DomainError):
        jt.LasingRecipe(power=40.0, exposure=0.0)
    with pytest.raises(DomainError):
        jt.LasingRecipe(power=40.0, repetitions=0)
    with pytest.raises(DomainError):
        jt.LasingRecipe(power=40.0, displacement=-0.5)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build", [
    lambda: jt.HeatingParams(slope=NAN),
    lambda: jt.HeatingParams(slope=INF),
    lambda: jt.HeatingParams(ambient=NAN),
    lambda: jt.DoseResponseParams(plateau_m=NAN),
    lambda: jt.DoseResponseParams(char_temperature_t0=INF),
    lambda: jt.DoseResponseParams(char_exposure_u0=NAN),
    lambda: jt.DoseResponseParams(depth_b=NAN),
    lambda: jt.DoseResponseParams(depth_b=-INF),
    lambda: jt.DoseResponseParams(depth_b=-0.01),  # a response that falls as it heats
    lambda: jt.DoseResponseParams(char_temperature_t0=NAN),
    lambda: jt.DoseResponseParams(char_exposure_u0=0.0),
    lambda: jt.DisplacementParams(transfer_offset_b=NAN),
    lambda: jt.DisplacementParams(transfer_offset_b=INF),
    lambda: jt.DisplacementParams(transfer_amp_a=NAN),
    lambda: jt.DisplacementParams(decay_d0=INF),
    lambda: jt.LasingRecipe(power=NAN),
    lambda: jt.LasingRecipe(power=40.0, exposure=NAN),
    lambda: jt.LasingRecipe(power=40.0, exposure=INF),
    lambda: jt.LasingRecipe(power=40.0, displacement=NAN),
    lambda: jt.LasingRecipe(power=40.0, displacement=INF),
    lambda: jt.StochasticParams(relative_sigma=NAN),
    lambda: jt.StochasticParams(relative_sigma=INF),
    lambda: jt.StochasticParams(relative_sigma=-0.01),
    lambda: jt.StochasticParams(shift_floor=NAN),
    lambda: jt.JunctionState(resistance=NAN),
    lambda: jt.JunctionState(resistance=INF),
])
def test_dose_dataclasses_reject_non_finite_fields(build):
    with pytest.raises(DomainError):
        build()


@given(st.floats(min_value=0.0, max_value=49.9))
def test_mean_shift_bounded_by_plateau(power):
    mu = jt.mean_shift(jt.LasingRecipe(power=power))
    assert -1e-17 < mu < 0.018


@given(
    st.floats(min_value=0.0, max_value=49.0),
    st.floats(min_value=0.01, max_value=0.9),
)
def test_mean_shift_monotone_in_power(power, bump):
    lo = jt.mean_shift(jt.LasingRecipe(power=power))
    hi = jt.mean_shift(jt.LasingRecipe(power=power + bump))
    assert hi > lo


@given(
    st.floats(min_value=0.0, max_value=25.0),
    st.floats(min_value=0.1, max_value=5.0),
)
def test_mean_shift_monotone_in_displacement(disp, step):
    near = jt.mean_shift(jt.LasingRecipe(power=40.0, displacement=disp))
    far = jt.mean_shift(jt.LasingRecipe(power=40.0, displacement=disp + step))
    assert far < near


def test_displaced_shift_reference():
    mu = jt.mean_shift(jt.LasingRecipe(power=40.0, displacement=30.0))
    assert mu == pytest.approx(MU_40MW_30UM, rel=1e-12)
    assert mu <= 0.003  # below the storage-drift band: effectively off


def test_absorption_fraction_limits():
    assert jt.absorption_fraction(0.0) == 1.0 - dose._AL_REFLECTANCE
    assert jt.absorption_fraction(30.0) == 1.0 - dose._SI_REFLECTANCE
    # beam centered on the electrode edge: 50/50 metal and substrate
    half = 0.5 * (1.0 - dose._AL_REFLECTANCE) + 0.5 * (1.0 - dose._SI_REFLECTANCE)
    assert jt.absorption_fraction(dose._ELECTRODE_EXTENT) == pytest.approx(half, rel=1e-15)
    with pytest.raises(DomainError):
        jt.absorption_fraction(-0.1)


def test_heat_transfer_factor():
    p = jt.DisplacementParams()
    assert jt.heat_transfer_factor(0.0) == p.transfer_amp_a + p.transfer_offset_b
    assert jt.heat_transfer_factor(p.decay_d0) == pytest.approx(
        math.exp(-1.0) + p.transfer_offset_b, rel=1e-12
    )


def test_displacement_response_profile():
    assert jt.displacement_response(0.0) == pytest.approx(RESP_AT_0, rel=1e-12)
    assert jt.displacement_response(30.0) == pytest.approx(RESP_AT_30, rel=1e-12)
    assert jt.displacement_response(30.0) <= 0.003
    grid = np.arange(0.0, 30.0 + 1e-9, 0.01)
    resp = np.array([jt.displacement_response(float(d)) for d in grid])
    peak = int(np.argmax(resp))
    assert 4.0 <= grid[peak] <= 6.0           # peak just past the electrode edge
    assert resp[peak] == pytest.approx(0.015, abs=1e-6)


def test_displacement_response_kink_at_electrode_edge():
    """Curvature concentrates near the electrode edge (the absorption step)."""
    grid = np.arange(0.0, 30.0 + 1e-9, 0.01)
    resp = np.array([jt.displacement_response(float(d)) for d in grid])
    second = np.diff(resp, 2) / 0.01**2
    centers = grid[1:-1]
    near_edge = np.abs(second[np.abs(centers - 4.0) <= 0.5]).max()
    far_field = np.median(np.abs(second[np.abs(centers - 4.0) > 2.0]))
    assert near_edge >= 5.0 * far_field


def test_apply_anneal_deterministic_when_noise_off():
    model = jt.DoseModel(stochastic=jt.StochasticParams(relative_sigma=0.0))
    state = jt.JunctionState(resistance=7781.0)
    out = jt.apply_anneal(state, jt.DEFAULT_RECIPE, np.random.default_rng(0), model)
    assert out.resistance == 7781.0 * (1.0 + MU_DEFAULT)
    assert len(out.history) == 1
    assert out.history[0].shift == MU_DEFAULT
    assert out.history[0].recipe == jt.DEFAULT_RECIPE


def test_apply_anneal_zero_dose_is_noop():
    state = jt.JunctionState(resistance=7781.0)
    out = jt.apply_anneal(state, jt.LasingRecipe(power=0.0), np.random.default_rng(0))
    assert out.resistance == 7781.0


def test_apply_anneal_shot_noise_statistics():
    rng = np.random.default_rng(20)
    shifts = np.array(
        [
            jt.apply_anneal(jt.JunctionState(resistance=7781.0), jt.DEFAULT_RECIPE, rng)
            .history[-1]
            .shift
            for _ in range(10_000)
        ]
    )
    assert shifts.mean() == pytest.approx(MU_DEFAULT, rel=5e-4)
    assert shifts.std(ddof=1) / shifts.mean() == pytest.approx(0.01, rel=0.05)


def test_shot_noise_floor_binds():
    wild = jt.DoseModel(stochastic=jt.StochasticParams(relative_sigma=500.0))
    rng = np.random.default_rng(3)
    lows = [
        jt.apply_anneal(jt.JunctionState(resistance=7781.0), jt.DEFAULT_RECIPE, rng, wild)
        .history[-1]
        .shift
        for _ in range(200)
    ]
    assert min(lows) >= wild.stochastic.shift_floor
    assert min(lows) == wild.stochastic.shift_floor  # the floor actually engages


def test_depth_b_ties_to_default_ambient():
    response = jt.DoseResponseParams(plateau_m=0.02, char_temperature_t0=30.0)
    assert response.depth_b == 0.02 * math.exp(jt.HeatingParams().ambient / 30.0)


def test_packaged_defaults_match_code_defaults():
    assert jt.default_dose_model() == jt.DoseModel()
