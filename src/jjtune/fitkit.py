"""Damped least-squares curve fitting (Levenberg-Marquardt on normal equations).

Deliberately small and deterministic: forward-difference Jacobians, the
classic multiply/divide damping schedule, box bounds enforced by clamping
after accepted steps, and covariance from the final normal matrix. Running
the same fit twice gives bit-identical results.

Each iteration walks the damping ladder lam, lam*up, ... (below 1e14),
solving one rung at a time, until a trial lowers the cost. A trial that
lands exactly on the current point (the step vanished under clamping or
float resolution) is rejected without running the model.

Every nonlinear fit in the package (dose plateau, aging, Lorentzian defect,
Stark conversion, barrier thickness) goes through ``fit_curve``, which fits
observations y at inputs x, two plain arrays, with one configuration: at
most 200 iterations, a relative step tolerance of 1e-10, damping starting
at 1e-3 and multiplied or divided by 10 per rung, and an eigenvalue cutoff
of 1e-12 for the covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DomainError, FitEvaluationError

__all__ = ["ModelSpec", "FitResult", "fit_curve"]

_EPS_STEP = float(np.sqrt(np.finfo(float).eps))
_DAMPING_MAX = 1e14     # rungs at or above this are not tried
_MAX_ITERATIONS = 200
_TOLERANCE = 1e-10      # relative parameter step for convergence
_DAMPING_INIT = 1e-3
_DAMPING_UP = 10.0
_DAMPING_DOWN = 10.0
_RCOND = 1e-12          # eigenvalue cutoff for the covariance


@dataclass(frozen=True)
class ModelSpec:
    """A parametric model y = evaluator(params, inputs).

    evaluator must be vectorized over inputs and must not mutate its
    arguments. bounds is one (lo, hi) pair per parameter; use -inf/inf for
    open sides.
    """

    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    parameter_names: tuple[str, ...]
    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.bounds) != len(self.parameter_names):
            raise DomainError("one bounds pair required per parameter")
        for lo, hi in self.bounds:
            if not lo < hi:
                raise DomainError(f"empty bounds interval ({lo}, {hi})")


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters, named as in the fit's ``ModelSpec``, and how the fit ended.

    termination is "step_tolerance" (an accepted step moved every parameter
    by less than the tolerance), "stalled" (no rung of the damping ladder
    lowered the cost; reported as converged), "max_iterations" or
    "non_finite" (the model was not finite at a trial point or a Jacobian
    step; the fit stops at the last accepted point and travels on the
    ``FitEvaluationError`` that ``fit_curve`` raises).
    """

    parameter_names: tuple[str, ...]
    params: np.ndarray
    std_errors: np.ndarray
    residual_norm: float
    iterations: int
    termination: str

    @property
    def converged(self) -> bool:
        return self.termination in ("step_tolerance", "stalled")


def _evaluate(model: ModelSpec, p: np.ndarray, x: np.ndarray) -> np.ndarray:
    y = np.asarray(model.evaluator(p, x), dtype=float)
    # A sum of squares is finite only if every value is; finite values whose
    # squares overflow fall through to the full check.
    if not math.isfinite(np.vdot(y, y)) and not np.isfinite(y).all():
        raise FitEvaluationError(
            f"model returned non-finite values at parameters {p.tolist()}"
        )
    return y


def _check_lengths(*columns) -> None:
    """Refuse a fitter's data arrays unless they are all the same length."""
    sizes = [np.size(column) for column in columns]
    if len(set(sizes)) > 1:
        raise DomainError(f"data arrays must be the same length, got lengths {sizes}")


def _distinct_count(values: np.ndarray) -> int:
    """``np.unique(values).size``: NaNs count as one value and -0.0 equals 0.0.
    It sorts and compares, since ``np.unique`` imports ``numpy.ma`` to do it."""
    ordered = np.sort(values, axis=None)
    numbers = ordered[~np.isnan(ordered)]  # NaNs sort last
    return (int(np.count_nonzero(numbers[1:] != numbers[:-1])) + (numbers.size > 0)
            + (numbers.size < ordered.size))


def _jacobian(model: ModelSpec, p: np.ndarray, x: np.ndarray, f0: np.ndarray) -> np.ndarray:
    """Forward differences, step scaled to each parameter's magnitude."""
    jac = np.empty((f0.size, p.size))
    for j, pj0 in enumerate(p.tolist()):
        h = _EPS_STEP * max(abs(pj0), 1.0)
        pj = p.copy()
        pj[j] = pj0 + h
        column = jac[:, j]  # the model's array may be shared: write into the column instead
        np.subtract(_evaluate(model, pj, x), f0, out=column)
        column /= h
    return jac


def _damped_steps(
    jtj: np.ndarray, grad: np.ndarray, diag: np.ndarray, lam: float, up: float
) -> Iterator[tuple[float, np.ndarray]]:
    """Yield (damping, step) for each rung lam, lam*up, ... below _DAMPING_MAX,
    one solve per rung, skipping rungs whose damped matrix is singular."""
    scale = np.diag(diag)
    while lam < _DAMPING_MAX:
        try:
            yield lam, np.linalg.solve(jtj + lam * scale, grad)
        except np.linalg.LinAlgError:
            pass
        lam *= up


def _covariance_std(jtj: np.ndarray, s2: float) -> np.ndarray:
    """Per-parameter standard errors from the normal matrix.

    Directions with (near-)zero curvature carry no information; parameters
    with weight in that null space get std_error = inf rather than the
    silent 0 a pseudoinverse would produce.
    """
    w, v = np.linalg.eigh(jtj)
    wmax = float(w.max()) if w.size else 0.0
    if wmax <= 0.0:
        return np.full(jtj.shape[0], np.inf)
    ok = w > _RCOND * wmax
    std = np.sqrt(s2 * np.sum(v[:, ok] ** 2 / w[ok], axis=1))
    std[np.any(np.abs(v[:, ~ok]) > 1e-8, axis=1)] = np.inf
    return std


def fit_curve(model: ModelSpec, x: np.ndarray, y: np.ndarray, p0: Sequence[float]) -> FitResult:
    """Fit model parameters to observations y at inputs x by damped least squares.

    Starts from p0 (clamped into bounds), accepts only cost-reducing steps,
    and reports convergence when an accepted step moves every parameter by
    less than 1e-10 in relative terms, within at most 200 iterations. The
    damping starts at 1e-3 and is multiplied by 10 per rejected rung and
    divided by 10 after an accepted step; the covariance drops eigenvalues
    below 1e-12 of the largest. The returned residual norm is never worse
    than at the initial point.

    A non-finite model value raises ``FitEvaluationError``; its ``fit`` is
    the fit at the last accepted point (termination "non_finite"), or None
    at the starting point. A sum of squared residuals that overflows at the
    starting point raises ``DomainError``, since no step could lower it.
    Numpy's floating-point warnings are silenced for the whole fit, since the
    fit checks every model value itself.
    """
    with np.errstate(all="ignore"):
        return _fit(model, x, y, p0)


def _fit(model: ModelSpec, x: np.ndarray, y: np.ndarray, p0: Sequence[float]) -> FitResult:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.size
    p = np.asarray(list(p0), dtype=float)
    if p.size != len(model.parameter_names):
        raise DomainError(
            f"expected {len(model.parameter_names)} initial parameters, got {p.size}"
        )
    lo = np.array([b for b, _ in model.bounds], dtype=float)
    hi = np.array([b for _, b in model.bounds], dtype=float)

    def clamp(pv: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(pv, lo), hi)

    p = clamp(p)
    if n < p.size:
        raise DomainError(f"{n} points cannot constrain {p.size} parameters")

    def evaluate(pv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        f = _evaluate(model, pv, x)
        return f, y - f

    # f0 is the model at p, kept from the evaluation that produced r.
    f0, r = evaluate(p)
    cost = float(r @ r)
    if not math.isfinite(cost):
        raise DomainError("the sum of squared residuals overflows at the starting point")
    lam = _DAMPING_INIT
    termination = "max_iterations"
    iterations = 0
    jac = None

    error = None
    try:
        for _ in range(_MAX_ITERATIONS):
            iterations += 1
            jac = _jacobian(model, p, x, f0)
            jtj = jac.T @ jac
            grad = jac.T @ r
            diag = np.diag(jtj).copy()
            diag[diag <= 0.0] = 1.0

            here = p.tobytes()
            for rung, step in _damped_steps(jtj, grad, diag, lam, _DAMPING_UP):
                trial = clamp(p + step)
                if trial.tobytes() == here:
                    continue  # same point, same cost: not an improvement
                f_trial, r_trial = evaluate(trial)
                cost_trial = float(r_trial @ r_trial)
                if cost_trial < cost:
                    rel = float(np.max(np.abs(trial - p) / (np.abs(p) + 1e-300)))
                    p, f0, r, cost = trial, f_trial, r_trial, cost_trial
                    lam = max(rung / _DAMPING_DOWN, 1e-15)
                    break
            else:
                # Damping exhausted: stationary within numerical resolution.
                termination = "stalled"
                break
            if rel < _TOLERANCE:
                termination = "step_tolerance"
                break
    except FitEvaluationError as exc:  # the fit so far travels on the error
        error, termination = exc, "non_finite"

    dof = n - p.size
    s2 = cost / dof if dof > 0 else np.inf
    std = (np.full(p.size, np.inf) if jac is None  # the Jacobian at the start was not finite
           else _covariance_std(jac.T @ jac, s2))
    fit = FitResult(
        parameter_names=model.parameter_names,
        params=p,
        std_errors=std,
        residual_norm=float(np.sqrt(cost)),
        iterations=iterations,
        termination=termination,
    )
    if error is not None:
        error.fit = fit
        raise error
    return fit
