"""Frozen reference copy of the original ``fit_curve`` loop.

The production fitter in ``jjtune.fitkit`` must return bit-identical
results to this straightforward rung-by-rung Levenberg-Marquardt loop, and
raise the same errors. Do not edit the code below: it is the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from jjtune.errors import DomainError, FitEvaluationError
from jjtune.fitkit import ModelSpec

_EPS_STEP = float(np.sqrt(np.finfo(float).eps))


# The original fit configuration and data types, frozen with the loop.
@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray
    observations: np.ndarray
    weights: np.ndarray | None = None


@dataclass(frozen=True)
class FitOptions:
    max_iterations: int = 200
    tolerance: float = 1e-10
    damping_init: float = 1e-3
    damping_up: float = 10.0
    damping_down: float = 10.0
    rcond: float = 1e-12


@dataclass(frozen=True)
class FitResult:
    params: np.ndarray
    std_errors: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int


def _clamp(p: np.ndarray, bounds) -> np.ndarray:
    if bounds is None:
        return p
    lo = np.array([-np.inf if b[0] is None else b[0] for b in bounds])
    hi = np.array([np.inf if b[1] is None else b[1] for b in bounds])
    return np.minimum(np.maximum(p, lo), hi)


def _evaluate(model: ModelSpec, p: np.ndarray, x: np.ndarray) -> np.ndarray:
    y = np.asarray(model.evaluator(p, x), dtype=float)
    if not np.all(np.isfinite(y)):
        raise FitEvaluationError(
            f"model returned non-finite values at parameters {p.tolist()}"
        )
    return y


def _jacobian(model: ModelSpec, p: np.ndarray, x: np.ndarray, f0: np.ndarray) -> np.ndarray:
    """Forward differences, step scaled to each parameter's magnitude."""
    jac = np.empty((f0.size, p.size))
    for j in range(p.size):
        h = _EPS_STEP * max(abs(p[j]), 1.0)
        pj = p.copy()
        pj[j] += h
        jac[:, j] = (_evaluate(model, pj, x) - f0) / h
    return jac


def _covariance_std(jtj: np.ndarray, s2: float, rcond: float) -> np.ndarray:
    """Per-parameter standard errors from the normal matrix.

    Directions with (near-)zero curvature carry no information; parameters
    with weight in that null space get std_error = inf rather than the
    silent 0 a pseudoinverse would produce.
    """
    w, v = np.linalg.eigh(jtj)
    wmax = float(w.max()) if w.size else 0.0
    if wmax <= 0.0:
        return np.full(jtj.shape[0], np.inf)
    ok = w > rcond * wmax
    std = np.empty(jtj.shape[0])
    for j in range(jtj.shape[0]):
        if np.any(np.abs(v[j, ~ok]) > 1e-8):
            std[j] = np.inf
        else:
            std[j] = np.sqrt(s2 * float(np.sum(v[j, ok] ** 2 / w[ok])))
    return std


def fit_curve(
    model: ModelSpec,
    data: Dataset,
    p0: Sequence[float],
    options: FitOptions = FitOptions(),
) -> FitResult:
    """Fit model parameters to data by damped least squares.

    Starts from p0 (clamped into bounds), accepts only cost-reducing steps,
    and reports convergence when an accepted step moves every parameter by
    less than ``options.tolerance`` in relative terms. The returned residual
    norm is never worse than at the initial point.
    """
    x = np.asarray(data.inputs, dtype=float)
    y = np.asarray(data.observations, dtype=float)
    w = None if data.weights is None else np.asarray(data.weights, dtype=float)
    n = y.size
    p = _clamp(np.asarray(list(p0), dtype=float), model.bounds)
    if p.size != len(model.parameter_names):
        raise DomainError(
            f"expected {len(model.parameter_names)} initial parameters, got {p.size}"
        )
    if n < p.size:
        raise DomainError(f"{n} points cannot constrain {p.size} parameters")

    def evaluate(pv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        f = _evaluate(model, pv, x)
        r = y - f
        return f, (r if w is None else w * r)

    # f0 is the model at p, kept from the evaluation that produced r.
    f0, r = evaluate(p)
    cost = float(r @ r)
    lam = options.damping_init
    converged = False
    iterations = 0
    jac = None

    for _ in range(options.max_iterations):
        iterations += 1
        jac = _jacobian(model, p, x, f0)
        if w is not None:
            jac = jac * w[:, None]
        jtj = jac.T @ jac
        grad = jac.T @ r
        diag = np.diag(jtj).copy()
        diag[diag <= 0.0] = 1.0

        accepted = False
        while lam < 1e14:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), grad)
            except np.linalg.LinAlgError:
                lam *= options.damping_up
                continue
            trial = _clamp(p + step, model.bounds)
            moved = trial - p
            f_trial, r_trial = evaluate(trial)
            cost_trial = float(r_trial @ r_trial)
            if cost_trial < cost:
                rel = float(np.max(np.abs(moved) / (np.abs(p) + 1e-300)))
                p, f0, r, cost = trial, f_trial, r_trial, cost_trial
                lam = max(lam / options.damping_down, 1e-15)
                accepted = True
                if rel < options.tolerance:
                    converged = True
                break
            lam *= options.damping_up
        if not accepted:
            # Damping exhausted: stationary within numerical resolution.
            converged = True
            break
        if converged:
            break

    if jac is None:  # max_iterations == 0 guard; report at the initial point
        jac = _jacobian(model, p, x, f0)
        if w is not None:
            jac = jac * w[:, None]

    dof = n - p.size
    s2 = cost / dof if dof > 0 else np.inf
    std = _covariance_std(jac.T @ jac, s2, options.rcond)
    return FitResult(
        params=p,
        std_errors=std,
        residual_norm=float(np.sqrt(cost)),
        converged=converged,
        iterations=iterations,
    )
