"""The fitter returns exactly what the original rung-by-rung loop returned.

``fitkit_oracle`` is a frozen copy of the original ``fit_curve``. For every
drawn fit both must give the same bytes (params, std_errors, residual norm),
the same converged flag and iteration count, or raise the same exception
with the same message. The drawn iteration cap, tolerance and damping
constants go to the oracle as its options and to ``fitkit`` by patching its
module constants for the one example.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fitkit_oracle
from jjtune import fitkit
from jjtune.fitkit import _DAMPING_MAX, ModelSpec, _damped_steps, fit_curve

OPEN = (-np.inf, np.inf)


def _lorentz(p, x):
    f0, g, gamma, base = p
    return 2.0 * gamma * g * g / (gamma * gamma + (x - f0) ** 2) + base


def _exp(p, x):
    return p[0] - p[1] * np.exp(-x / p[2])


def _sum_slope(p, x):
    # Only p0 + p1 enters: the normal matrix is singular.
    return (p[0] + p[1]) * x


def _exp_nan_above(cutoff):
    def model(p, x):
        y = _exp(p, x)
        return y * np.nan if p[2] > cutoff else y
    return model


# name -> (model, x, truth, start, bounds by kind, noise scale)
CASES = {
    "lorentz": (
        _lorentz, np.linspace(-10e6, 10e6, 41), [1.5e6, 76e3, 1e6, 21505.0],
        [1e6, 60e3, 2e6, 20000.0],
        {"open": (OPEN,) * 4,
         "half": (OPEN, (1.0, np.inf), (1e3, np.inf), (0.0, np.inf)),
         "active": ((-2e6, 1.2e6), (1.0, 70e3), (1e3, 3e6), (0.0, 1e5))},
        300.0,
    ),
    "exp": (
        _exp, np.linspace(0.0, 30.0, 25), [0.21, 0.12, 10.4], [0.3, 0.3, 5.0],
        {"open": (OPEN,) * 3,
         "half": (OPEN, OPEN, (1e-6, np.inf)),
         "active": ((-np.inf, 0.2), (0.0, 1.0), (1e-6, 9.0))},
        0.003,
    ),
    "singular": (
        _sum_slope, np.linspace(1.0, 4.0, 8), [1.0, 2.0], [1.0, 1.0],
        {"open": (OPEN,) * 2,
         "half": ((0.0, np.inf), OPEN),
         "active": ((-1.0, 0.5), (0.0, 1.5))},
        0.01,
    ),
}


def _run(fit, *args):
    try:
        with np.errstate(all="ignore"):
            return fit(*args)
    except Exception as exc:  # the exception itself is what is compared
        return exc


def _outcome(r):
    if isinstance(r, Exception):
        return type(r), str(r)
    return (r.params.shape, r.params.tobytes(), r.std_errors.tobytes(),
            r.residual_norm.hex(), r.converged, r.iterations)


@given(
    case=st.sampled_from(sorted(CASES) + ["nan-midway"]),
    bounds=st.sampled_from(["open", "half", "active"]),
    seed=st.integers(0, 2**16),
    noisy=st.booleans(),
    jitter=st.floats(0.5, 2.0),
    max_iterations=st.sampled_from([1, 2, 7, 200]),
    damping_init=st.sampled_from([1e-20, 1e-3, 1.0, 1e13, 1e14, 1e15]),
    damping_up=st.sampled_from([1.5, 10.0, 1e3]),
    damping_down=st.sampled_from([0.5, 10.0]),
    tolerance=st.sampled_from([0.0, 1e-10, 1e-4]),
    cutoff=st.floats(6.0, 12.0),
)
def test_fit_curve_matches_the_original_loop(case, bounds, seed, noisy, jitter, max_iterations,
                                             damping_init, damping_up, damping_down, tolerance,
                                             cutoff):
    if case == "nan-midway":
        # NaN once tau climbs past the cutoff, on its way from 5 to 10.4.
        _, x, truth, start, bound_kinds, noise = CASES["exp"]
        model = _exp_nan_above(cutoff)
    else:
        model, x, truth, start, bound_kinds, noise = CASES[case]
    rng = np.random.default_rng(seed)
    y = _exp(np.array(truth), x) if case == "nan-midway" else model(np.array(truth), x)
    if noisy:
        y = y + noise * rng.standard_normal(x.size)
    names = tuple(f"p{k}" for k in range(len(truth)))
    spec = ModelSpec(model, names, bounds=bound_kinds[bounds])
    p0 = [v * jitter for v in start]
    options = fitkit_oracle.FitOptions(max_iterations=max_iterations, tolerance=tolerance,
                                       damping_init=damping_init, damping_up=damping_up,
                                       damping_down=damping_down)
    with mock.patch.multiple(fitkit, _MAX_ITERATIONS=max_iterations, _TOLERANCE=tolerance,
                             _DAMPING_INIT=damping_init, _DAMPING_UP=damping_up,
                             _DAMPING_DOWN=damping_down):
        result = _run(fit_curve, spec, x, y, p0)
    expected = _run(fitkit_oracle.fit_curve, spec, fitkit_oracle.Dataset(x, y), p0, options)
    assert _outcome(result) == _outcome(expected)
    if isinstance(result, Exception):
        return
    if result.converged:
        assert result.termination in ("step_tolerance", "stalled")
    else:
        assert result.termination == "max_iterations"
        assert result.iterations == max_iterations


def _rung_by_rung(jtj, grad, diag, lam, up):
    steps = []
    while lam < _DAMPING_MAX:
        try:
            steps.append((lam, np.linalg.solve(jtj + lam * np.diag(diag), grad).tobytes()))
        except np.linalg.LinAlgError:
            pass
        lam *= up
    return steps


def _stacked(jtj, grad, diag, lam, up):
    return [(rung, step.tobytes()) for rung, step in _damped_steps(jtj, grad, diag, lam, up)]


@given(
    seed=st.integers(0, 2**16),
    size=st.integers(1, 5),
    lam=st.sampled_from([1e-15, 1e-3, 0.7, 1e13, 1e14]),
    up=st.sampled_from([1.2, 2.0, 10.0]),
)
def test_stacked_ladder_equals_rung_by_rung_solves(seed, size, lam, up):
    rng = np.random.default_rng(seed)
    jac = rng.standard_normal((3 * size, size)) * 10.0 ** rng.uniform(-6, 6, size)
    jtj = jac.T @ jac
    grad = jac.T @ rng.standard_normal(3 * size)
    diag = np.diag(jtj).copy()
    assert _stacked(jtj, grad, diag, lam, up) == _rung_by_rung(jtj, grad, diag, lam, up)


@pytest.mark.parametrize("lam, up", [(1e-20, 10.0), (1e-20, 1.2), (1e-30, 2.0)])
def test_singular_rungs_are_skipped_as_rung_by_rung(lam, up):
    # Identical columns: the smallest rungs round back to a singular matrix.
    jtj = np.full((2, 2), 30.0)
    grad = np.array([4.0, 4.0])
    diag = np.diag(jtj).copy()
    reference = _rung_by_rung(jtj, grad, diag, lam, up)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(jtj + lam * np.diag(diag), grad)
    assert reference and reference[0][0] > lam
    assert _stacked(jtj, grad, diag, lam, up) == reference
