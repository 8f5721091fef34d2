"""Library dataclasses outside dose reject NaN and infinite fields."""

import pytest

import jjtune as jt
from jjtune.errors import DomainError

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build", [
    lambda: jt.TlsDefect(f_offset=NAN),
    lambda: jt.TlsDefect(f_offset=INF),
    lambda: jt.TlsDefect(0.0, coupling_g=NAN),
    lambda: jt.TlsDefect(0.0, coupling_g=INF),
    lambda: jt.TlsDefect(0.0, gamma_total=NAN),
    lambda: jt.TlsDefect(0.0, gamma_total=INF),
    lambda: jt.QubitNoiseModel(gamma_1q=NAN),
    lambda: jt.QubitNoiseModel(gamma_1q=INF),
    lambda: jt.QubitNoiseModel(readout_noise_sigma=NAN),
    lambda: jt.QubitNoiseModel(readout_noise_sigma=INF),
    lambda: jt.DriftingDynamics(NAN, 1.0),
    lambda: jt.DriftingDynamics(INF, 1.0),
    lambda: jt.DriftingDynamics(1e3, NAN),
    lambda: jt.DriftingDynamics(1e3, INF),
    lambda: jt.TelegraphicDynamics(NAN, 1.0, 1.0),
    lambda: jt.TelegraphicDynamics(1.0, -INF, 1.0),
    lambda: jt.TelegraphicDynamics(1.0, 2.0, NAN),
    lambda: jt.TelegraphicDynamics(1.0, 2.0, INF),
    lambda: jt.StarkCalibration(conv_a_neg=NAN),
    lambda: jt.StarkCalibration(conv_a_pos=INF),
    lambda: jt.StarkCalibration(reliable_range=NAN),
    lambda: jt.StarkCalibration(reliable_range=0.0),
    lambda: jt.StageNoise(sigma_center=NAN),
    lambda: jt.StageNoise(sigma_focus=INF),
    lambda: jt.StageNoise(delta_center=NAN),
    lambda: jt.StageNoise(delta_focus=INF),
    lambda: jt.JunctionRecord("a", (0.0, 0.0), 0.1, NAN),
    lambda: jt.JunctionRecord("a", (0.0, 0.0), 0.1, INF),
    lambda: jt.JunctionRecord("a", (0.0, 0.0), NAN, 7000.0),
    lambda: jt.JunctionRecord("a", (0.0, 0.0), INF, 7000.0),
    lambda: jt.JunctionRecord("a", (0.0, 0.0), 0.1, 7000.0, age_days=NAN),
    lambda: jt.JunctionRecord("a", (0.0, 0.0), 0.1, 7000.0, age_days=-INF),
    lambda: jt.AgingParams(NAN, 0.1, 10.0),
    lambda: jt.AgingParams(0.2, INF, 10.0),
    lambda: jt.AgingParams(0.2, 0.1, NAN),
    lambda: jt.AgingParams(0.2, 0.1, INF),
    lambda: jt.AgingParams(NAN, 0.1, NAN),
    lambda: jt.TunePolicy(max_iterations=2.5),
])
def test_dataclasses_reject_non_finite_fields(build):
    with pytest.raises(DomainError):
        build()


AGING = jt.AgingParams(0.2, 0.1, 10.0)


@pytest.mark.parametrize("call", [
    lambda: jt.qubit_frequency(NAN),
    lambda: jt.critical_current(NAN),
    lambda: jt.resistance_for_frequency(NAN),
    lambda: jt.resistance_for_frequency(INF),
    lambda: jt.barrier_resistance(NAN, 0.1),
    lambda: jt.barrier_resistance(1.0, NAN),
    lambda: jt.aging_shift(NAN, AGING),
    lambda: jt.offset_preservation(AGING, AGING, horizon=NAN),
    lambda: jt.offset_preservation(AGING, AGING, horizon=INF),
    lambda: jt.junction_temperature(NAN),
    lambda: jt.absorption_fraction(NAN),
    lambda: jt.heat_transfer_factor(NAN),
    lambda: jt.excited_population(NAN, 1.0),
    lambda: jt.stark_shift(NAN),
    lambda: jt.amplitude_for_shift(NAN),
])
def test_scalar_functions_reject_nan_and_unbounded_arguments(call):
    with pytest.raises(DomainError):
        call()
