"""Defect spectroscopy: rates, Stark conversion, maps, extraction, cohorts."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

import jjtune as jt
from jjtune.errors import DomainError

GAMMA_1Q = 1.0 / 46.5e-6          # 21505.376344086024 1/s
OFFSETS = np.linspace(-15e6, 15e6, 61)
WAIT = 40e-6


def lorentz_excess(delta, g=76e3, gamma=1e6):
    return 2.0 * gamma * g * g / (gamma * gamma + delta * delta)


class TestRelaxationRate:
    def test_peak_rate_on_resonance(self):
        d = jt.TlsDefect(f_offset=0.0)
        assert jt.relaxation_rate(0.0, d, GAMMA_1Q) == pytest.approx(
            GAMMA_1Q + 11552.0, rel=1e-12
        )

    def test_half_maximum_at_one_linewidth(self):
        d = jt.TlsDefect(f_offset=0.0)
        for delta in (-1e6, 1e6):
            excess = jt.relaxation_rate(delta, d, GAMMA_1Q) - GAMMA_1Q
            assert excess == pytest.approx(5776.0, rel=1e-12)

    def test_far_detuned_tail(self):
        d = jt.TlsDefect(f_offset=0.0)
        excess = jt.relaxation_rate(7.81e6, d, GAMMA_1Q) - GAMMA_1Q
        assert excess == pytest.approx(lorentz_excess(7.81e6), rel=1e-9)
        # beyond a few linewidths the 2*Gamma*g^2/delta^2 tail is within 2%
        tail = 2.0 * 1e6 * 76e3**2 / 7.81e6**2
        assert excess == pytest.approx(tail, rel=0.02)

    def test_offset_defect_peaks_at_its_frequency(self):
        d = jt.TlsDefect(f_offset=7.81e6)
        on = jt.relaxation_rate(7.81e6, d, GAMMA_1Q)
        off = jt.relaxation_rate(0.0, d, GAMMA_1Q)
        assert on > off
        assert on == pytest.approx(GAMMA_1Q + 11552.0, rel=1e-12)

    def test_total_rate_background_only(self):
        model = jt.QubitNoiseModel()
        assert jt.total_rate(1.23e6, model) == model.gamma_1q

    def test_total_rate_adds_defects(self):
        d1 = jt.TlsDefect(f_offset=2e6)
        d2 = jt.TlsDefect(f_offset=-4e6, coupling_g=50e3)
        model = jt.QubitNoiseModel(defects=(d1, d2))
        x = 1.1e6
        expected = (
            jt.relaxation_rate(x, d1, 0.0)
            + jt.relaxation_rate(x, d2, 0.0)
            + model.gamma_1q
        )
        assert jt.total_rate(x, model) == pytest.approx(expected, rel=1e-12)

    def test_integrated_excess_matches_lorentzian_area(self):
        # integral of 2*Gamma*g^2 / (Gamma^2 + delta^2) over all detunings
        # is 2*pi*g^2; +-100 linewidths capture all but ~0.6% of it
        d = jt.TlsDefect(f_offset=0.0)
        area, _ = quad(
            lambda x: jt.relaxation_rate(x, d, 0.0), -100e6, 100e6, points=[0.0], limit=200
        )
        assert area == pytest.approx(2.0 * math.pi * 76e3**2, rel=0.01)

    def test_defect_validation(self):
        with pytest.raises(DomainError):
            jt.TlsDefect(f_offset=0.0, coupling_g=-1.0)
        with pytest.raises(DomainError):
            jt.TlsDefect(f_offset=0.0, gamma_total=0.0)

    def test_noise_model_validation(self):
        with pytest.raises(DomainError):
            jt.QubitNoiseModel(gamma_1q=0.0)
        with pytest.raises(DomainError):
            jt.QubitNoiseModel(readout_noise_sigma=-0.01)


class TestExcitedPopulation:
    def test_zero_rate_stays_excited(self):
        assert jt.excited_population(100e-6, 0.0) == 1.0

    def test_one_over_e_point(self):
        wait = 50e-6
        p = jt.excited_population(wait, 1.0 / wait)
        assert p == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_wait_must_be_positive(self):
        with pytest.raises(DomainError):
            jt.excited_population(0.0, 1e4)
        with pytest.raises(DomainError):
            jt.excited_population(-1e-6, 1e4)

    def test_readout_noise_statistics(self):
        rng = np.random.default_rng(77)
        wait, rate = 50e-6, 5000.0
        draws = np.array(
            [jt.excited_population(wait, rate, rng, noise_sigma=0.02) for _ in range(10_000)]
        )
        assert float(np.mean(draws)) == pytest.approx(math.exp(-rate * wait), abs=1e-3)
        assert float(np.std(draws)) == pytest.approx(0.02, rel=0.05)

    def test_population_clipped_to_physical_range(self):
        rng = np.random.default_rng(8)
        draws = np.array(
            [jt.excited_population(50e-6, 5000.0, rng, noise_sigma=5.0) for _ in range(200)]
        )
        assert float(draws.min()) == 0.0
        assert float(draws.max()) == 1.0


class TestStark:
    def test_zero_amplitude_zero_shift(self):
        assert jt.stark_shift(0.0) == 0.0
        assert jt.amplitude_for_shift(0.0) == 0.0

    def test_sign_selects_side(self):
        assert jt.stark_shift(0.05, sign=-1) < 0
        assert jt.stark_shift(0.05, sign=1) > 0

    def test_amplitude_for_edge_of_range(self):
        amp = jt.amplitude_for_shift(-33e6)
        assert amp == pytest.approx(0.1847361453956368, rel=1e-12)
        assert jt.stark_shift(amp, sign=-1) == -33000000.0

    def test_small_drive_is_quadratic(self):
        cal = jt.StarkCalibration()
        shift = jt.stark_shift(0.01, cal, sign=-1)
        quadratic = -((cal.conv_a_neg * 0.01) ** 2) / (2.0 * jt.tls._TONE_DETUNING)
        assert shift == pytest.approx(quadratic, rel=5e-3)

    @given(st.floats(min_value=1e-4, max_value=0.18))
    def test_shift_magnitude_grows_with_amplitude(self, amp):
        cal = jt.StarkCalibration()
        lo = abs(jt.stark_shift(amp, cal, sign=-1))
        hi = abs(jt.stark_shift(amp * 1.1, cal, sign=-1))
        assert hi > lo

    @given(
        st.floats(min_value=-33e6, max_value=33e6).filter(lambda t: abs(t) > 1.0)
    )
    def test_amplitude_round_trip(self, target):
        cal = jt.StarkCalibration()
        sign = -1 if target < 0 else 1
        amp = jt.amplitude_for_shift(target, cal)
        # abs floor: near-zero shifts cancel against the 80 MHz detuning, so
        # the forward map cannot resolve below ~1e-7 Hz in float64
        assert jt.stark_shift(amp, cal, sign) == pytest.approx(
            target, rel=1e-9, abs=1e-6
        )

    def test_shift_beyond_reliable_range_refused(self):
        with pytest.raises(DomainError):
            jt.amplitude_for_shift(-34e6)
        with pytest.raises(DomainError):
            jt.amplitude_for_shift(40e6)

    def test_sign_mismatch_refused(self):
        with pytest.raises(DomainError):
            jt.amplitude_for_shift(-5e6, sign=1)
        with pytest.raises(DomainError):
            jt.amplitude_for_shift(5e6, sign=-1)
        with pytest.raises(DomainError, match="sign must be -1 or \\+1"):
            jt.stark_shift(0.1, sign=0)

    def test_negative_amplitude_refused(self):
        with pytest.raises(DomainError):
            jt.stark_shift(-0.01)

    def test_calibration_validation(self):
        with pytest.raises(DomainError):
            jt.StarkCalibration(conv_a_neg=0.0)

    def test_fit_recovers_clean_conversion(self):
        cal = jt.StarkCalibration()
        amps = np.linspace(0.01, 0.18, 12)
        pts = [(float(a), jt.stark_shift(float(a), cal, -1)) for a in amps]
        fit = jt.fit_stark(pts)
        assert fit.converged
        assert float(fit.params[0]) == pytest.approx(432e6, rel=1e-9)

    def test_fit_positive_side(self):
        cal = jt.StarkCalibration()
        amps = np.linspace(0.01, 0.18, 12)
        pts = [(float(a), jt.stark_shift(float(a), cal, 1)) for a in amps]
        fit = jt.fit_stark(pts)
        assert float(fit.params[0]) == pytest.approx(416e6, rel=1e-12)

    def test_fit_with_percent_level_noise(self):
        cal = jt.StarkCalibration()
        rng = np.random.default_rng(7)
        amps = np.linspace(0.01, 0.18, 12)
        pts = [
            (float(a), jt.stark_shift(float(a), cal, -1) * (1 + 0.01 * float(rng.standard_normal())))
            for a in amps
        ]
        fit = jt.fit_stark(pts)
        assert float(fit.params[0]) == pytest.approx(432328546.2498065, rel=1e-9)
        assert abs(float(fit.params[0]) - 432e6) / 432e6 < 0.01

    def test_fit_needs_three_points(self):
        with pytest.raises(DomainError):
            jt.fit_stark([(0.01, -1e5), (0.02, -4e5)])

    def test_fit_refuses_amplitudes_all_zero(self):
        with pytest.raises(DomainError, match="need a nonzero amplitude"):
            jt.fit_stark([(0.0, -1e5), (0.0, -2e5), (0.0, -3e5)])

    def test_fit_of_equal_nonzero_amplitudes_identifies_the_factor(self):
        cal = jt.StarkCalibration()
        fit = jt.fit_stark([(0.1, jt.stark_shift(0.1, cal, -1))] * 3)
        assert fit.converged
        assert float(fit.params[0]) == pytest.approx(432e6, rel=1e-9)


class TestSpectroMap:
    def test_row_count_and_time_axis(self):
        model = jt.QubitNoiseModel()
        sp = jt.simulate_map(model, OFFSETS, 2.0, 60.0, WAIT, np.random.default_rng(1))
        assert sp.population.shape == (120, 61)
        assert sp.times[0] == 0.0
        assert sp.times[1] == pytest.approx(60.0 / 3600.0, rel=1e-12)

    def test_seed_determinism(self):
        model = jt.QubitNoiseModel(defects=(jt.TlsDefect(f_offset=7.81e6),))
        a = jt.simulate_map(model, OFFSETS, 1.0, 60.0, WAIT, np.random.default_rng(3))
        b = jt.simulate_map(model, OFFSETS, 1.0, 60.0, WAIT, np.random.default_rng(3))
        c = jt.simulate_map(model, OFFSETS, 1.0, 60.0, WAIT, np.random.default_rng(4))
        assert np.array_equal(a.population, b.population)
        assert not np.array_equal(a.population, c.population)

    def test_static_noiseless_rows_identical(self):
        model = jt.QubitNoiseModel(
            defects=(jt.TlsDefect(f_offset=7.81e6),), readout_noise_sigma=0.0
        )
        sp = jt.simulate_map(model, OFFSETS, 1.0, 60.0, WAIT, np.random.default_rng(2))
        assert np.all(sp.population == sp.population[0])
        expected = np.exp(-(model.gamma_1q + lorentz_excess(OFFSETS - 7.81e6)) * WAIT)
        np.testing.assert_allclose(sp.population[0], expected, rtol=1e-12)

    def test_no_defect_noiseless_is_flat(self):
        model = jt.QubitNoiseModel(readout_noise_sigma=0.0)
        sp = jt.simulate_map(model, OFFSETS, 0.5, 60.0, WAIT, np.random.default_rng(2))
        assert np.all(sp.population == math.exp(-model.gamma_1q * WAIT))

    def test_telegraphic_occupancy_split(self):
        tele = jt.TelegraphicDynamics(f_a=-5e6, f_b=5e6, switch_rate=1 / 600.0)
        model = jt.QubitNoiseModel(
            defects=(jt.TlsDefect(f_offset=0.0, dynamics=tele),), readout_noise_sigma=0.0
        )
        sp = jt.simulate_map(model, OFFSETS, 4.0, 60.0, WAIT, np.random.default_rng(5))
        dips = OFFSETS[np.argmin(sp.population, axis=1)]
        frac_a = float(np.mean(np.abs(dips + 5e6) < 1e6))
        frac_b = float(np.mean(np.abs(dips - 5e6) < 1e6))
        assert frac_a + frac_b == 1.0          # dip always at one of the two states
        assert frac_a == pytest.approx(0.3, abs=1e-12)
        assert frac_b == pytest.approx(0.7, abs=1e-12)

    def test_drifting_defect_wanders_outward(self):
        dyn = jt.DriftingDynamics(sigma_f=0.2e6, step_interval=60.0)
        model = jt.QubitNoiseModel(
            defects=(jt.TlsDefect(f_offset=0.0, dynamics=dyn),), readout_noise_sigma=0.0
        )
        sp = jt.simulate_map(model, OFFSETS, 4.0, 60.0, WAIT, np.random.default_rng(6))
        dips = OFFSETS[np.argmin(sp.population, axis=1)]
        n = dips.size
        rms_start = float(np.sqrt(np.mean(dips[: n // 4] ** 2)))
        rms_end = float(np.sqrt(np.mean(dips[3 * n // 4 :] ** 2)))
        assert rms_end > 1.5 * rms_start
        assert rms_start < 2e6 < rms_end

    def test_dropout_rows_are_all_ones(self):
        model = jt.QubitNoiseModel(defects=(jt.TlsDefect(f_offset=7.81e6),))
        sp = jt.simulate_map(
            model, OFFSETS, 2.0, 60.0, WAIT, np.random.default_rng(9), dropout_probability=0.1
        )
        stripes = np.all(sp.population == 1.0, axis=1)
        assert int(stripes.sum()) == 13
        assert sp.population.shape[0] == 120

    def test_map_validation(self):
        model = jt.QubitNoiseModel()
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            jt.simulate_map(model, [], 1.0, 60.0, WAIT, rng)
        with pytest.raises(DomainError):
            jt.simulate_map(model, OFFSETS, 0.0, 60.0, WAIT, rng)
        with pytest.raises(DomainError):
            jt.simulate_map(model, OFFSETS, 1.0, -60.0, WAIT, rng)
        with pytest.raises(DomainError):
            jt.simulate_map(model, OFFSETS, 1.0, 60.0, 0.0, rng)
        with pytest.raises(DomainError):
            jt.simulate_map(model, OFFSETS, 1.0, 60.0, WAIT, rng, dropout_probability=1.0)

    @pytest.mark.parametrize("duration, step, wait", [
        (math.nan, 60.0, WAIT), (math.inf, 60.0, WAIT),
        (1.0, math.nan, WAIT), (1.0, math.inf, WAIT),
        (1.0, 60.0, math.nan), (1.0, 60.0, math.inf),
    ])
    def test_map_rejects_non_finite_times(self, duration, step, wait):
        with pytest.raises(DomainError, match="finite"):
            jt.simulate_map(jt.QubitNoiseModel(), OFFSETS, duration, step, wait,
                            np.random.default_rng(0))

    def test_dynamics_validation(self):
        with pytest.raises(DomainError):
            jt.TelegraphicDynamics(f_a=1e6, f_b=1e6, switch_rate=0.01)
        with pytest.raises(DomainError):
            jt.TelegraphicDynamics(f_a=-1e6, f_b=1e6, switch_rate=-0.01)
        with pytest.raises(DomainError):
            jt.DriftingDynamics(sigma_f=-1.0, step_interval=60.0)
        with pytest.raises(DomainError):
            jt.DriftingDynamics(sigma_f=1.0, step_interval=0.0)

    def test_time_average_single_row(self):
        row = np.array([[0.3, 0.5, 0.7]])
        sp = jt.SpectroMap(
            freq_offsets=np.array([-1e6, 0.0, 1e6]),
            times=np.array([0.0]),
            population=row,
        )
        assert np.array_equal(jt.time_average(sp), row[0])

    def test_time_average_of_an_empty_map_refused(self):
        sp = jt.SpectroMap(
            freq_offsets=np.array([-1e6, 0.0, 1e6]), times=np.empty(0), population=np.empty((0, 3))
        )
        with pytest.raises(DomainError, match="empty map"):
            jt.time_average(sp)

    def test_map_shape_consistency_enforced(self):
        with pytest.raises(DomainError):
            jt.SpectroMap(
                freq_offsets=np.array([0.0, 1.0]),
                times=np.array([0.0]),
                population=np.zeros((2, 2)),
            )


class TestExtraction:
    def test_single_defect_recovery(self):
        model = jt.QubitNoiseModel(defects=(jt.TlsDefect(f_offset=7.81e6),))
        sp = jt.simulate_map(model, OFFSETS, 2.0, 60.0, WAIT, np.random.default_rng(20260814))
        ex = jt.extract_tls(OFFSETS, jt.time_average(sp), WAIT)
        assert ex.persistent
        assert len(ex.defects) == 1
        f_hat, g_hat, gamma_hat, g1q_hat = (float(v) for v in ex.best.params)
        assert abs(f_hat - 7.81e6) < 1e5
        assert abs(g_hat - 76e3) / 76e3 < 0.05
        assert 0.5e6 < gamma_hat < 2e6
        assert abs(g1q_hat - GAMMA_1Q) / GAMMA_1Q < 0.05

    def test_two_defects_separated(self):
        model = jt.QubitNoiseModel(
            defects=(
                jt.TlsDefect(f_offset=7.81e6, coupling_g=76e3),
                jt.TlsDefect(f_offset=-5.2e6, coupling_g=60e3),
            )
        )
        sp = jt.simulate_map(model, OFFSETS, 2.0, 60.0, WAIT, np.random.default_rng(0))
        ex = jt.extract_tls(OFFSETS, jt.time_average(sp), WAIT, max_defects=3)
        # asking for up to 3 must still resolve exactly the 2 real ones
        assert len(ex.defects) == 2
        strong, weak = ex.defects
        assert abs(float(strong.params[0]) - 7.81e6) < 6e4
        assert abs(float(strong.params[1]) - 76e3) / 76e3 < 0.03
        assert abs(float(weak.params[0]) + 5.2e6) < 6e4
        assert abs(float(weak.params[1]) - 60e3) / 60e3 < 0.03
        # ordering is by peak excess, strongest first
        peak = lambda f: 2.0 * float(f.params[1]) ** 2 / float(f.params[2])
        assert peak(strong) > peak(weak)

    def test_flat_profile_not_persistent(self):
        profile = np.full(OFFSETS.size, math.exp(-GAMMA_1Q * WAIT))
        ex = jt.extract_tls(OFFSETS, profile, WAIT)
        assert not ex.persistent
        assert ex.defects == ()
        with pytest.raises(DomainError):
            ex.best

    def test_profile_validation(self):
        with pytest.raises(DomainError):
            jt.extract_tls(OFFSETS, np.ones(5), WAIT)
        with pytest.raises(DomainError):
            jt.extract_tls(OFFSETS, np.zeros(OFFSETS.size), WAIT)
        with pytest.raises(DomainError):
            jt.extract_tls(OFFSETS, np.full(OFFSETS.size, 0.5), 0.0)

    @pytest.mark.parametrize("wait", [math.nan, math.inf])
    def test_non_finite_wait_refused(self, wait):
        with pytest.raises(DomainError, match="finite"):
            jt.extract_tls(OFFSETS, np.full(OFFSETS.size, 0.5), wait)

    def test_persistent_is_read_from_the_defects(self):
        fit = jt.FitResult(np.zeros(4), np.zeros(4), 0.0, 1, "stalled")
        assert jt.TlsExtraction(defects=(fit,)).persistent is True
        assert jt.TlsExtraction(defects=()).persistent is False


class TestCoherence:
    def test_summary_of_small_set(self):
        s = jt.summarize_coherence([1.0, 2.0, 3.0, 4.0])
        assert s.mean == 2.5
        assert s.median == 2.5
        assert s.quartile_low == 1.75
        assert s.quartile_high == 3.25
        assert s.outliers == ()

    def test_outlier_flagged_beyond_caps(self):
        base = list(10.0 + 0.1 * np.sin(np.arange(19)))
        s = jt.summarize_coherence(base + [20.0])
        assert s.outliers == (20.0,)
        assert s.cap_high < 20.0

    def test_requires_four_samples(self):
        with pytest.raises(DomainError):
            jt.summarize_coherence([1.0, 2.0, 3.0])

    def test_doubled_cohort_is_significant(self):
        rng = np.random.default_rng(12)
        before = 46.5 * np.exp(0.1 * rng.standard_normal(24))
        after = 95.0 * np.exp(0.1 * rng.standard_normal(24))
        assert jt.significant_change(
            jt.summarize_coherence(before), jt.summarize_coherence(after)
        )

    def test_five_percent_shift_is_not_significant(self):
        rng = np.random.default_rng(12)
        before = 46.5 * np.exp(0.1 * rng.standard_normal(24))
        sb = jt.summarize_coherence(before)
        assert not jt.significant_change(sb, jt.summarize_coherence(before * 1.05))
        assert not jt.significant_change(sb, sb)


def _survey_map(n_defects, seed):
    """A seeded multi-defect map on the defect survey's design.

    +-20 MHz offsets at 0.1 MHz, a 2 h scan at 60 s steps and a 40 us wait;
    g in 70-100 kHz, Gamma in 0.7-1.2 MHz and centres in +-16 MHz, at least
    6 MHz apart. Returns (offsets, time-averaged profile, sorted centres).
    """
    rng = np.random.default_rng([n_defects, seed])
    spacing, span = 6e6, 32e6
    free = span - (n_defects - 1) * spacing
    centres = -16e6 + np.sort(rng.uniform(0.0, free, n_defects)) + spacing * np.arange(n_defects)
    defects = tuple(
        jt.TlsDefect(f_offset=float(f), coupling_g=float(rng.uniform(70e3, 100e3)),
                     gamma_total=float(rng.uniform(0.7e6, 1.2e6)))
        for f in centres
    )
    offsets = np.arange(-200, 201) * 0.1e6
    sp = jt.simulate_map(jt.QubitNoiseModel(defects=defects), offsets, 2.0, 60.0, WAIT, rng)
    return offsets, jt.time_average(sp), centres


@pytest.mark.parametrize("n_defects", [3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1])
def test_every_survey_defect_recovered_when_the_count_is_known(n_defects, seed):
    offsets, profile, centres = _survey_map(n_defects, seed)
    assert np.all(np.diff(centres) >= 6e6)
    ex = jt.extract_tls(offsets, profile, WAIT, max_defects=n_defects)
    found = np.array([float(d.params[0]) for d in ex.defects])
    for f in centres:
        assert np.min(np.abs(found - f)) <= 0.1e6


@pytest.mark.parametrize("max_defects", [0, -3])
def test_max_defects_below_one_refused(max_defects):
    with pytest.raises(DomainError, match="max_defects"):
        jt.extract_tls(OFFSETS, np.full(OFFSETS.size, 0.5), WAIT, max_defects=max_defects)
