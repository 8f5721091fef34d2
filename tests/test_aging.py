"""Storage aging curves: evaluation, fitting, and offset preservation."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import jjtune as jt
from jjtune.errors import DomainError

W1A = jt.REFERENCE_COHORTS["wafer1_annealed"]
W1U = jt.REFERENCE_COHORTS["wafer1_unannealed"]
W2A = jt.REFERENCE_COHORTS["wafer2_annealed"]
W2U = jt.REFERENCE_COHORTS["wafer2_unannealed"]


def test_reference_cohort_table():
    assert (W1A.final_shift_a, W1A.depth_b, W1A.tau_days) == (0.21, 0.12, 10.40)
    assert (W1U.final_shift_a, W1U.depth_b, W1U.tau_days) == (0.16, 0.13, 8.72)
    assert (W2A.final_shift_a, W2A.depth_b, W2A.tau_days) == (0.11, 0.08, 41.15)
    assert (W2U.final_shift_a, W2U.depth_b, W2U.tau_days) == (0.07, 0.07, 27.95)


def test_curve_endpoints():
    assert jt.aging_shift(0.0, W1A) == pytest.approx(W1A.initial_shift, abs=1e-15)
    assert jt.aging_shift(1e9, W1A) == pytest.approx(W1A.final_shift_a, abs=1e-15)
    # one time constant in: 1/e of the depth still to go
    assert jt.aging_shift(W1A.tau_days, W1A) == pytest.approx(
        0.21 - 0.12 * math.exp(-1.0), rel=1e-12
    )
    with pytest.raises(DomainError):
        jt.aging_shift(-1.0, W1A)


@given(
    st.floats(min_value=-0.3, max_value=0.5),
    st.floats(min_value=1e-3, max_value=0.5),
    st.floats(min_value=0.5, max_value=80.0),
    st.floats(min_value=0.0, max_value=500.0),
    st.floats(min_value=0.0, max_value=500.0),
)
def test_curve_bounded_and_monotone(a, b, tau, t1, t2):
    params = jt.AgingParams(final_shift_a=a, depth_b=b, tau_days=tau)
    lo, hi = sorted((t1, t2))
    y_lo, y_hi = jt.aging_shift(lo, params), jt.aging_shift(hi, params)
    assert a - b - 1e-12 <= y_lo <= a + 1e-12
    assert y_lo <= y_hi + 1e-15


@pytest.mark.parametrize("name", sorted(jt.REFERENCE_COHORTS))
def test_noiseless_fit_recovers_each_cohort(name):
    params = jt.REFERENCE_COHORTS[name]
    days = np.linspace(0.0, 30.0, 12)
    r0 = 7781.0
    samples = tuple(
        (float(d), r0 * (1.0 + jt.aging_shift(float(d), params))) for d in days
    )
    series = jt.AgingSeries(junction_id="j0", samples=samples, r0_ohm=r0)
    fit = jt.fit_aging(series)
    assert fit.converged
    assert fit.params[0] == pytest.approx(params.final_shift_a, rel=1e-6)
    assert fit.params[1] == pytest.approx(params.depth_b, rel=1e-6)
    assert fit.params[2] == pytest.approx(params.tau_days, rel=1e-6)


# Curves whose fit, seeded at a third of the day span, ran tau down to its
# 1e-6 bound: a step at day 0. Drawn with A, B in U(-0.05, 0.05) and tau in
# U(1, 60) d, sampled on the days below.
@pytest.mark.parametrize("a, b, tau", [
    (0.013696168732145436, -0.02302132862361297, 3.4174379122354868),
    (0.04350724237877683, 0.031585355412153224, 1.1615715100387376),
    (-0.02002881094626152, -0.007731277880234158, 2.670860597582315),
    (-0.026063055700704787, 0.03764842308107039, 4.455514053506466),
])
def test_short_tau_is_not_fitted_as_a_step_at_day_zero(a, b, tau):
    params = jt.AgingParams(final_shift_a=a, depth_b=b, tau_days=tau)
    days = [0.0, 1.0, 2.0, 4.0, 7.0, 14.0, 28.0, 56.0, 90.0, 120.0]
    fit = jt.fit_aging_samples(days, [jt.aging_shift(d, params) for d in days])
    assert fit.converged
    assert fit.params == pytest.approx([a, b, tau], rel=1e-6)


@pytest.mark.parametrize("name, span", [("wafer1_annealed", 365.0), ("wafer1_unannealed", 200.0)])
def test_cohort_recovered_from_a_long_span(name, span):
    params = jt.REFERENCE_COHORTS[name]
    samples = tuple((float(d), 7000.0 * (1.0 + jt.aging_shift(float(d), params)))
                    for d in np.linspace(0.0, span, 12))
    fit = jt.fit_aging(jt.AgingSeries(junction_id="j0", samples=samples, r0_ohm=7000.0))
    assert fit.converged
    assert fit.params == pytest.approx(
        [params.final_shift_a, params.depth_b, params.tau_days], rel=1e-6
    )


def test_shift_is_a_python_float():
    assert type(jt.aging_shift(3.0, W1A)) is float


def test_series_reference_defaults_to_first_sample():
    series = jt.AgingSeries(junction_id="x", samples=((0.0, 8000.0), (5.0, 8200.0)))
    assert series.r0_ohm == 8000.0


def test_series_validation():
    with pytest.raises(DomainError):
        jt.AgingSeries(junction_id="x", samples=((5.0, 8000.0), (1.0, 8100.0)))
    with pytest.raises(DomainError):
        jt.AgingSeries(junction_id="x", samples=((0.0, -5.0),))
    with pytest.raises(DomainError):
        jt.fit_aging_samples([0.0, 1.0, 2.0], [0.1, 0.1, 0.1])  # < 4 distinct days


@pytest.mark.parametrize("r0", [-0.5, -7000.0])
def test_series_reference_must_be_positive(r0):
    with pytest.raises(DomainError, match="reference resistance must be positive"):
        jt.AgingSeries(junction_id="x", samples=((0.0, 8000.0), (5.0, 8200.0)), r0_ohm=r0)


def test_flat_series_flags_unidentifiable_tau():
    days = np.arange(0.0, 31.0, 3.0)
    fit = jt.fit_aging_samples(days, np.full(days.size, 0.09))
    assert fit.converged
    assert fit.params[0] == pytest.approx(0.09, abs=1e-12)
    assert abs(fit.params[1]) < 1e-12
    assert math.isinf(fit.std_errors[2])  # tau carries no information


def test_tail_only_sampling_leaves_tau_loose():
    """Sampling after the knee cannot pin the time constant: the error bar is
    comparable to the value."""
    rng = np.random.default_rng(11)
    days = np.arange(15.0, 31.0, 1.0)
    shifts = np.array([jt.aging_shift(float(d), W1A) for d in days])
    shifts = shifts + rng.normal(0.0, 0.002, days.size)
    fit = jt.fit_aging_samples(days, shifts)
    assert fit.converged
    assert fit.std_errors[2] > 0.3 * abs(fit.params[2])


def test_recovery_under_band_noise():
    """Daily sampling with +-1.2% resistance-band noise: the plateau comes
    back inside the band in at least 90 of 100 trials."""
    days = np.arange(0.0, 31.0, 1.0)
    clean = np.array([jt.aging_shift(float(d), W1A) for d in days])
    hits = 0
    for trial in range(100):
        rng = np.random.default_rng(3000 + trial)
        fit = jt.fit_aging_samples(days, clean + rng.uniform(-0.012, 0.012, days.size))
        hits += abs(fit.params[0] - W1A.final_shift_a) <= 0.012
    assert hits >= 90


def test_offset_preservation_wafer1():
    report = jt.offset_preservation(W1A, W1U, 30.0)
    assert report["initial_gap"] == pytest.approx(0.06, abs=1e-12)
    assert report["final_gap"] == pytest.approx(0.04746172652829722, rel=1e-10)
    assert report["max_drift"] == pytest.approx(0.015127036242760017, rel=1e-6)
    assert report["max_drift"] <= 0.02  # written offsets survive storage


def test_offset_preservation_wafer2():
    report = jt.offset_preservation(W2A, W2U, 30.0)
    assert report["initial_gap"] == pytest.approx(0.03, abs=1e-12)
    assert report["final_gap"] == pytest.approx(0.025340664908229837, rel=1e-10)
    assert report["max_drift"] <= 0.02


def test_offset_preservation_edge_cases():
    same = jt.offset_preservation(W1A, W1A, 30.0)
    assert same == {"initial_gap": 0.0, "final_gap": 0.0, "max_drift": 0.0}
    with pytest.raises(DomainError):
        jt.offset_preservation(W1A, W1U, 0.0)


def test_fit_aging_pools_series_against_their_own_reference():
    params = jt.REFERENCE_COHORTS["wafer1_annealed"]

    def series(junction_id, r0, days):
        samples = tuple((d, r0 * (1.0 + jt.aging_shift(d, params))) for d in days)
        return jt.AgingSeries(junction_id=junction_id, samples=samples, r0_ohm=r0)

    a = series("a", 7781.0, [0.0, 4.0, 8.0, 12.0, 16.0])
    b = series("b", 8200.0, [2.0, 6.0, 10.0, 20.0, 30.0])
    fit = jt.fit_aging(a, b)
    pooled = jt.fit_aging_samples(
        [d for s in (a, b) for d, _ in s.samples],
        [r / s.r0_ohm - 1.0 for s in (a, b) for _, r in s.samples],
    )
    assert np.array_equal(fit.params, pooled.params)
    assert fit.params == pytest.approx(
        [params.final_shift_a, params.depth_b, params.tau_days], rel=1e-6
    )
