"""Behavior of the damped least-squares fitter.

The Lorentzian coverage check cross-validates the reported standard errors
against their frequentist meaning on 200 independent noisy datasets.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import jjtune as jt
from jjtune import fitkit
from jjtune.cli import main
from jjtune.errors import DomainError, FitEvaluationError
from jjtune.fitkit import ModelSpec, fit_curve


def _exp_model(p, x):
    return p[0] - p[1] * np.exp(-x / p[2])


OPEN = (-np.inf, np.inf)
EXP_SPEC = ModelSpec(_exp_model, ("a", "b", "tau"), bounds=(OPEN, OPEN, (1e-6, np.inf)))


def test_noiseless_recovery_is_exact():
    x = np.linspace(0.0, 30.0, 12)
    truth = np.array([0.21, 0.12, 10.4])
    y = _exp_model(truth, x)
    fit = fit_curve(EXP_SPEC, x, y, [0.3, 0.3, 5.0])
    assert fit.converged
    assert np.allclose(fit.params, truth, rtol=1e-8)
    assert fit.residual_norm < 1e-10


def test_cost_never_worse_than_start():
    x = np.linspace(0.0, 30.0, 12)
    y = _exp_model(np.array([0.21, 0.12, 10.4]), x)
    p0 = np.array([5.0, -3.0, 80.0])
    start = float(np.sum((y - _exp_model(p0, x)) ** 2))
    fit = fit_curve(EXP_SPEC, x, y, p0)
    assert fit.residual_norm ** 2 <= start


def test_determinism():
    rng = np.random.default_rng(2)
    x = np.linspace(0.0, 30.0, 25)
    y = _exp_model(np.array([0.21, 0.12, 10.4]), x) + rng.normal(0, 0.003, x.size)
    f1 = fit_curve(EXP_SPEC, x, y, [0.3, 0.3, 5.0])
    f2 = fit_curve(EXP_SPEC, x, y, [0.3, 0.3, 5.0])
    assert np.array_equal(f1.params, f2.params)
    assert np.array_equal(f1.std_errors, f2.std_errors)
    assert f1.iterations == f2.iterations


def test_each_iteration_reuses_the_accepted_evaluation():
    # Every step of this noiseless fit is accepted, so the model runs once at
    # the start, then per iteration once per Jacobian column and once for the
    # trial; the trial's values are reused as the next iteration's base point.
    calls = []

    def counting(p, x):
        calls.append(tuple(p.tolist()))
        return _exp_model(p, x)

    x = np.linspace(0.0, 30.0, 12)
    y = _exp_model(np.array([0.21, 0.12, 10.4]), x)
    spec = ModelSpec(counting, ("a", "b", "tau"), (OPEN,) * 3)
    fit = fit_curve(spec, x, y, [0.3, 0.3, 5.0])
    assert fit.converged
    assert len(calls) == 1 + fit.iterations * 4
    assert len(set(calls)) == len(calls)


def test_noisy_fit_is_pinned_bit_for_bit():
    rng = np.random.default_rng(2)
    x = np.linspace(0.0, 30.0, 25)
    y = _exp_model(np.array([0.21, 0.12, 10.4]), x) + rng.normal(0, 0.003, x.size)
    fit = fit_curve(EXP_SPEC, x, y, [0.3, 0.3, 5.0])
    assert [v.hex() for v in fit.params.tolist()] == [
        "0x1.ac0ceff733807p-3", "0x1.ec60d9f8da4a5p-4", "0x1.4209c57b54419p+3",
    ]
    assert [v.hex() for v in fit.std_errors.tolist()] == [
        "0x1.f06e3ce841128p-10", "0x1.06adc54af1eb4p-9", "0x1.fdddd87de7829p-2",
    ]
    assert fit.residual_norm.hex() == "0x1.97b6248c8acf7p-7"
    assert (fit.iterations, fit.converged) == (9, True)


def test_non_finite_model_raises():
    spec = ModelSpec(lambda p, x: np.log(p[0] - x), ("edge",), (OPEN,))
    with np.errstate(invalid="ignore"):
        with pytest.raises(FitEvaluationError):
            fit_curve(spec, np.array([0.0, 1.0, 2.0, 5.0]), np.zeros(4), [3.0])


def _overflowing_fit():
    # Resistance that falls with thickness: the first trial step drives tau
    # onto its lower bound, where exp(t / tau) overflows.
    spec = ModelSpec(lambda p, t: p[0] * np.exp(t / p[1]), ("a", "tau"),
                     bounds=((1e-12, np.inf), (1e-3, 100.0)))
    data = np.array([1.0, 2.0, 3.0, 4.0]), np.array([100.0, 5.0, 2000.0, 10.0])
    return spec, data


def test_non_finite_trial_carries_the_fit_at_the_last_accepted_point():
    spec, data = _overflowing_fit()
    with pytest.raises(FitEvaluationError, match="non-finite values") as info:
        fit_curve(spec, *data, [70.0, 100.0])
    fit = info.value.fit
    assert fit.termination == "non_finite" and not fit.converged
    assert fit.params.tolist() == [70.0, 100.0] and fit.iterations == 1
    assert np.isfinite(fit.std_errors).all() and np.isfinite(fit.residual_norm)


def test_non_finite_start_carries_no_fit():
    spec, data = _overflowing_fit()
    with pytest.raises(FitEvaluationError) as info:
        fit_curve(spec, *data, [70.0, 1e-3])  # no warning either: the fit silences numpy
    assert info.value.fit is None


def test_bounds_clamp_start_and_steps():
    spec = ModelSpec(lambda p, x: p[0] * x, ("slope",), bounds=((0.0, 2.0),))
    x = np.array([1.0, 2.0, 3.0, 4.0])
    fit = fit_curve(spec, x, 5.0 * x, [-7.0])  # optimum 5 sits above the box
    assert fit.params[0] == pytest.approx(2.0)


def test_validation_errors():
    with pytest.raises(DomainError):
        ModelSpec(lambda p, x: x, ("a",), bounds=((1.0, 1.0),))
    with pytest.raises(DomainError):
        ModelSpec(lambda p, x: x, ("a", "b"), bounds=((0.0, 1.0),))
    spec = ModelSpec(lambda p, x: p[0] * x, ("a",), (OPEN,))
    with pytest.raises(DomainError):
        fit_curve(spec, np.array([1.0]), np.array([1.0]), [1.0, 2.0])
    two = ModelSpec(lambda p, x: p[0] * x + p[1], ("a", "b"), (OPEN, OPEN))
    with pytest.raises(DomainError):
        fit_curve(two, np.array([1.0]), np.array([1.0]), [1.0, 2.0])


def test_unidentifiable_direction_reports_inf():
    # only the sum p0 + p1 enters the model; both get infinite errors
    spec = ModelSpec(lambda p, x: (p[0] + p[1]) * x, ("u", "v"), (OPEN, OPEN))
    x = np.linspace(1.0, 4.0, 8)
    fit = fit_curve(spec, x, 3.0 * x, [1.0, 1.0])
    assert np.isinf(fit.std_errors).all()
    assert fit.params[0] + fit.params[1] == pytest.approx(3.0, rel=1e-9)


def test_a_model_that_ignores_its_parameter_stalls_at_the_start():
    # A zero Jacobian: every rung's step is zero, and the curvature carries
    # no information about the parameter.
    spec = ModelSpec(lambda p, x: np.ones_like(x), ("c",), (OPEN,))
    x = np.linspace(0.0, 1.0, 5)
    fit = fit_curve(spec, x, 2.0 * x, [0.5])
    assert fit.params.tolist() == [0.5]
    assert fit.std_errors.tolist() == [np.inf]
    assert (fit.termination, fit.iterations) == ("stalled", 1)


def test_iteration_budget_respected(monkeypatch):
    rng = np.random.default_rng(0)
    x = np.linspace(0.0, 30.0, 40)
    y = _exp_model(np.array([0.21, 0.12, 10.4]), x) + rng.normal(0, 0.01, x.size)
    monkeypatch.setattr(fitkit, "_MAX_ITERATIONS", 3)
    fit = fit_curve(EXP_SPEC, x, y, [0.3, 0.3, 5.0])
    assert fit.iterations <= 3


def _lorentz(p, x):
    f0, g, gamma, base = p
    return 2.0 * gamma * g * g / (gamma * gamma + (x - f0) ** 2) + base


def test_lorentzian_error_bars_have_coverage():
    """3-sigma intervals should cover the truth in >= 95% of noisy repeats."""
    spec = ModelSpec(
        _lorentz,
        ("f0", "g", "gamma", "base"),
        bounds=(OPEN, (1.0, np.inf), (1e3, np.inf), (0.0, np.inf)),
    )
    x = np.arange(-10e6, 10e6 + 1, 0.25e6)
    truth = np.array([1.5e6, 76e3, 1e6, 21505.0])
    clean = _lorentz(truth, x)
    covered = np.zeros(4, dtype=int)
    n_trials = 200
    for trial in range(n_trials):
        rng = np.random.default_rng(40_000 + trial)
        y = clean + rng.normal(0.0, 300.0, x.size)
        fit = fit_curve(spec, x, y, [1e6, 60e3, 2e6, 20000.0])
        assert fit.converged
        covered += np.abs(fit.params - truth) <= 3.0 * fit.std_errors
    assert (covered >= 0.95 * n_trials).all()


def test_no_model_run_at_an_unchanged_point():
    # Once damping climbs without an accepted step, the step falls below
    # float resolution and the trial lands on the current point; the model
    # is not run again there (the full ladder used to evaluate it 8 times).
    calls = []

    def counting(p, x):
        calls.append(p.tobytes())
        return _exp_model(p, x)

    rng = np.random.default_rng(2)
    x = np.linspace(0.0, 30.0, 25)
    y = _exp_model(np.array([0.21, 0.12, 10.4]), x) + rng.normal(0, 0.003, x.size)
    spec = ModelSpec(counting, EXP_SPEC.parameter_names, bounds=EXP_SPEC.bounds)
    fit = fit_curve(spec, x, y, [0.3, 0.3, 5.0])
    assert len(calls) == 54
    assert len(set(calls)) == len(calls)
    assert fit.residual_norm.hex() == "0x1.97b6248c8acf7p-7"
    assert (fit.iterations, fit.converged, fit.termination) == (9, True, "stalled")


def test_termination_reasons(monkeypatch):
    x = np.linspace(0.0, 30.0, 12)
    y = _exp_model(np.array([0.21, 0.12, 10.4]), x)
    assert fit_curve(EXP_SPEC, x, y, [0.3, 0.3, 5.0]).termination == "step_tolerance"
    with monkeypatch.context() as m:
        m.setattr(fitkit, "_MAX_ITERATIONS", 2)
        short = fit_curve(EXP_SPEC, x, y, [0.3, 0.3, 5.0])
    assert (short.termination, short.converged, short.iterations) == ("max_iterations", False, 2)
    # A ladder that starts at the damping ceiling has no rung to try.
    monkeypatch.setattr(fitkit, "_DAMPING_INIT", 1e14)
    capped = fit_curve(EXP_SPEC, x, y, [0.3, 0.3, 5.0])
    assert (capped.termination, capped.converged, capped.iterations) == ("stalled", True, 1)


@pytest.mark.parametrize("p0, got", [([1.0], 1), ([1.0, 2.0, 3.0], 3)])
def test_p0_length_checked_before_clamping_to_bounds(p0, got):
    # with bounds, a one-element p0 used to broadcast to every parameter and
    # a too-long one raised numpy's broadcast ValueError
    spec = ModelSpec(lambda p, x: p[0] * x + p[1], ("a", "b"), bounds=((0.0, 5.0), (0.0, 5.0)))
    x = np.array([1.0, 2.0, 3.0])
    with pytest.raises(DomainError, match=f"expected 2 initial parameters, got {got}"):
        fit_curve(spec, x, 2.0 * x + 1.0, p0)


def test_values_whose_squares_overflow_fit():
    # Every value is finite, but their sum of squares overflows: the
    # finiteness check falls back to testing each value.
    spec = ModelSpec(lambda p, x: p[0] * x, ("scale",), (OPEN,))
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert math.isinf(np.vdot(1e160 * x, 1e160 * x))
    fit = fit_curve(spec, x, 1e160 * x, [1e160 * (1.0 + 1e-9)])
    assert fit.converged
    assert fit.params[0] == pytest.approx(1e160, rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_value_among_overflowing_squares_raises(bad):
    spec = ModelSpec(lambda p, x: np.where(x > 3.5, bad, p[0] * x), ("scale",), (OPEN,))
    x = np.array([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(FitEvaluationError) as info:
        fit_curve(spec, x, 1e160 * x, [1e160])
    assert str(info.value) == "model returned non-finite values at parameters [1e+160]"


@given(st.lists(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1.7e308,
                                 -1.7e308, 1.0, 2.5]), max_size=8))
def test_distinct_count_is_the_size_of_numpy_unique(values):
    array = np.array(values, dtype=float)
    assert fitkit._distinct_count(array) == np.unique(array).size


def test_one_distinct_value_is_refused_with_each_callers_message(tmp_path, capsys):
    # 0.0 and -0.0 are one value, as np.unique counts them.
    with pytest.raises(DomainError) as info:
        jt.extract_tls([0.0, -0.0, 0.0], [0.5, 0.4, 0.5], 40e-6)
    assert str(info.value) == "need at least 2 distinct frequency offsets to extract defects"
    dose = tmp_path / "dose.csv"
    dose.write_text("power_mw,shift_frac\n0,0.01\n-0,0.011\n0.0,0.012\n")
    aging = tmp_path / "aging.csv"
    aging.write_text("junction_id,day,resistance_ohm,cohort,wafer\n"
                     + "".join(f"J1,{day},{r},annealed,W1\n"
                               for day, r in (("0", 7781), ("-0", 7790), ("0.0", 7795))))
    out = str(tmp_path / "fit.json")
    assert main(["--output", out, "fit", "dose", str(dose)]) == 2
    assert capsys.readouterr().err == (f"input error: {dose}: need at least 2 distinct values "
                                       "in column 'power_mw' to fit dose\n")
    assert main(["--output", out, "fit", "aging", str(aging)]) == 2
    assert capsys.readouterr().err == "input error: need at least 4 distinct sample days to fit aging\n"
