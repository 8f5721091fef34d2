"""Command-line surface: simulate-wafer, fit, plan, tune, tls-scan.

Exit codes: 0 success, 2 input/schema error (including a missing --seed on a
stochastic run or an output that cannot be written), 3 infeasible request, 4
fit non-convergence (a partial report is still written). All files are
written atomically; stochastic commands are deterministic for a given --seed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import math
import os
import sys
from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from . import io as jio
from .errors import DomainError, FitError, FitEvaluationError, InfeasibleError, SchemaError

if TYPE_CHECKING:
    from .fitkit import FitResult

__all__ = ["main"]


def _on_call(module: str, name: str):
    """``jjtune.<module>.<name>``, imported at its first call.

    A command so loads only the modules it runs. The handlers look the name
    up in this module when they run, so a wrapper set on it here is used.
    """
    target = None

    def call(*args, **kwargs):
        nonlocal target
        if target is None:
            target = getattr(importlib.import_module(f"{__package__}.{module}"), name)
        return target(*args, **kwargs)

    return call


child_rng = _on_call("streams", "child_rng")
run_batch = _on_call("wafer", "run_batch")
default_dose_model = _on_call("dose", "default_dose_model")
required_shift = _on_call("tuner", "required_shift")
recipe_for_shift = _on_call("tuner", "recipe_for_shift")
iterative_tune = _on_call("tuner", "iterative_tune")
qubit_frequency = _on_call("physics", "qubit_frequency")
max_resistance = _on_call("physics", "max_resistance")
simulate_map = _on_call("tls", "simulate_map")
time_average = _on_call("tls", "time_average")
extract_tls = _on_call("tls", "extract_tls")


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The named flags set on the command line; the rest keep their library defaults."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _require_seed(args: argparse.Namespace) -> int:
    if args.seed is None:
        raise SchemaError("--seed is required for stochastic commands")
    if args.seed < 0:
        raise SchemaError(f"--seed must be non-negative, got {args.seed}")
    return args.seed


# ---------------------------------------------------------- simulate-wafer

def _cmd_simulate_wafer(args: argparse.Namespace) -> int:
    wafer = jio.wafer_from_doc(jio.load_json(args.wafer))
    recipe = jio.recipe_from_doc(jio.load_json(args.recipe))
    seed = _require_seed(args)
    report = run_batch(wafer, recipe, master_seed=seed)
    directory = args.output or "."
    lines: list[str] = []
    jio.atomic_write_text(os.path.join(directory, "report.json"), jio.batch_report_json(report, lines))
    jio.atomic_write_text(os.path.join(directory, "report.csv"), lines)
    print(f"{report.wafer_id}: {len(report.entries)} junctions, {report.n_passed} annealed, "
          f"estimated wall time {report.estimated_wall_time_s:.0f} s")
    return 0


# ---------------------------------------------------------------------- fit

def _fit_or_partial(fitter, *args) -> FitResult:
    """``fitter(*args)``; where the model goes non-finite, the fit at its last
    accepted point, which ``_cmd_fit`` reports as not converged (exit 4)."""
    try:
        return fitter(*args)
    except FitEvaluationError as exc:
        if exc.fit is None:
            raise SchemaError("the model is not finite at the starting point for this data")
        return exc.fit


def _fit_columns(path: str, columns: list[str], kind: str) -> list[np.ndarray]:
    """The fit CSV's columns, one contiguous array each. The first must hold
    at least 2 distinct values (exit 2): one value identifies no curve along it."""
    from .fitkit import _distinct_count

    arrays = [np.array(column) for column in zip(*jio.read_columns_csv(path, columns))]
    if _distinct_count(arrays[0]) < 2:
        raise SchemaError(f"{path}: need at least 2 distinct values in column '{columns[0]}' "
                          f"to fit {kind}")
    return arrays


def _fit_dose(path: str) -> tuple[FitResult, tuple[str, ...]]:
    from .dose import DOSE_FIT_NAMES, fit_dose_curve

    columns = _fit_columns(path, ["power_mw", "shift_frac"], "dose")
    return _fit_or_partial(fit_dose_curve, *columns), DOSE_FIT_NAMES


def _fit_displacement(path: str) -> tuple[FitResult, tuple[str, ...]]:
    from .dose import DISPLACEMENT_FIT_NAMES, fit_displacement_curve

    columns = _fit_columns(path, ["displacement_um", "response_frac"], "displacement")
    return _fit_or_partial(fit_displacement_curve, *columns), DISPLACEMENT_FIT_NAMES


def _fit_barrier(path: str) -> tuple[FitResult, tuple[str, ...]]:
    from .physics import BARRIER_FIT_NAMES, fit_barrier

    columns = _fit_columns(path, ["thickness_nm", "area_um2", "resistance_ohm"], "barrier")
    return _fit_or_partial(fit_barrier, *columns), BARRIER_FIT_NAMES


def _fit_stark_cmd(path: str) -> tuple[FitResult, tuple[str, ...]]:
    from .tls import fit_stark

    rows = jio.read_columns_csv(path, ["amplitude", "shift_mhz"])
    points = [(row[0], row[1] * 1e6) for row in rows]
    fit = _fit_or_partial(fit_stark, points)
    scaled = replace(
        fit,
        params=fit.params / 1e6,
        std_errors=fit.std_errors / 1e6,
        residual_norm=fit.residual_norm / 1e6,
    )
    return scaled, ("conv_a_mhz",)


def _fit_aging_cmd(args: argparse.Namespace) -> tuple[FitResult, tuple[str, ...]]:
    from .aging import _AGING_SPEC, fit_aging

    series = jio.read_aging_csv(args.data)
    if args.wafer:
        series = [s for s in series if s.wafer_label == args.wafer]
    if args.cohort:
        series = [s for s in series if s.cohort == args.cohort]
    if not series:
        raise SchemaError("no series left after --wafer/--cohort filters")
    groups = {(s.wafer_label, s.cohort) for s in series}
    if len(groups) > 1:
        listing = ", ".join(f"{w or '?'}:{c}" for w, c in sorted(groups))
        raise SchemaError(
            f"data mixes cohorts ({listing}); select one with --wafer/--cohort"
        )
    return _fit_or_partial(fit_aging, *series), _AGING_SPEC.parameter_names


_FITS = {"dose": _fit_dose, "displacement": _fit_displacement, "stark": _fit_stark_cmd,
         "barrier": _fit_barrier}  # the fits of one CSV path; aging also reads its filters


def _cmd_fit(args: argparse.Namespace) -> int:
    out_path = args.output or "fit_report.json"
    if args.kind == "tls":
        doc = _extraction_doc(jio.read_map_csv(args.data), args)
        doc["model"] = "tls"
        jio.write_json(out_path, doc)
        print(doc["outcome"])
        return 0

    fit, names = _fit_aging_cmd(args) if args.kind == "aging" else _FITS[args.kind](args.data)
    doc = jio.fit_report_doc(args.kind, names, fit)
    jio.write_json(out_path, doc)
    rendered = ", ".join(f"{k}={v:.6g}" for k, v in doc["params"].items())
    print(f"{args.kind}: {rendered} (converged={fit.converged})")
    return 0 if fit.converged else 4


# --------------------------------------------------------------------- plan

def _qubit_frequencies(junctions) -> list[float]:
    """The qubit frequency of each junction. A junction at either end of the
    frequency map's domain, at or past the zero-frequency bound or too small
    a resistance for the map, has none to plan or tune from and is refused by
    name (exit 2). The wafer format itself accepts it: ``simulate-wafer``
    needs no frequency."""
    freqs = []
    for junction in junctions:
        try:
            freqs.append(qubit_frequency(junction.resistance))
        except DomainError:
            bound = max_resistance()
            where = (f"is at or beyond the zero-frequency bound {bound:.6g} ohm"
                     if junction.resistance >= bound else "is too small for the frequency map")
            raise SchemaError(f"wafer junction {junction.id!r}: resistance_ohm "
                              f"{junction.resistance:.6g} {where}") from None
    return freqs


def _cmd_plan(args: argparse.Namespace) -> int:
    from .tuner import allocate_targets

    wafer = jio.wafer_from_doc(jio.load_json(args.wafer))
    junctions = sorted(wafer.junctions, key=lambda j: j.id)
    targets, spacing = jio.targets_from_doc(
        jio.load_json(args.targets), [j.id for j in junctions]
    )
    freqs = _qubit_frequencies(junctions)
    if targets is None:
        targets = allocate_targets(freqs, spacing)
    budget = _given(args, "exposure", "max_shots")
    entries = []
    for junction, f_now, f_target in zip(junctions, freqs, targets):
        shift = required_shift(f_now, f_target)
        entries.append((junction.id, f_now, f_target, shift, recipe_for_shift(shift, **budget)))
    out_path = args.output or "plan.json"
    jio.atomic_write_text(out_path, jio.plan_json(wafer.wafer_id, entries))
    total = sum(len(entry[4]) for entry in entries)
    print(f"{wafer.wafer_id}: planned {len(entries)} junctions, {total} shots")
    return 0


# --------------------------------------------------------------------- tune

def _cmd_tune(args: argparse.Namespace) -> int:
    from .dose import JunctionState
    from .streams import stream_rngs
    from .tuner import TunePolicy

    wafer = jio.wafer_from_doc(jio.load_json(args.wafer))
    by_id = {j.id: j for j in wafer.junctions}
    ids, targets = jio.plan_from_doc(jio.load_json(args.plan), by_id)
    _qubit_frequencies(by_id[jid] for jid in ids)
    seed = _require_seed(args)
    policy = TunePolicy(
        **_given(args, "step_fraction", "tolerance", "max_iterations", "measurement_noise_sigma")
    )
    model = default_dose_model()
    if args.shot_noise_sigma is not None:
        model = replace(
            model, stochastic=replace(model.stochastic, relative_sigma=args.shot_noise_sigma)
        )
    traces = [
        iterative_tune(
            JunctionState(resistance=by_id[jid].resistance),
            target,
            policy=policy,
            model=model,
            rng=rng,
            junction_id=jid,
        )
        for jid, target, rng in zip(ids, targets, stream_rngs(seed, ids))
    ]
    directory = args.output or "."
    lines: list[str] | None = [] if args.format == "csv" else None
    jio.atomic_write_text(os.path.join(directory, "traces.json"), jio.traces_json(traces, lines))
    summary = jio.traces_summary(traces)
    if lines is not None:
        jio.atomic_write_text(os.path.join(directory, "traces.csv"), lines)
    print(
        f"tuned {summary['n_junctions']}: {summary['n_converged']} converged, "
        f"{summary['n_overshoot']} overshoot, {summary['n_exhausted']} exhausted "
        f"(mean anneals {summary['mean_anneals']:.2f})"
    )
    return 0


# ----------------------------------------------------------------- tls-scan

def _cmd_tls_scan(args: argparse.Namespace) -> int:
    model = jio.noise_model_from_doc(jio.load_json(args.model))
    seed = _require_seed(args)
    if not all(math.isfinite(v) for v in (args.f_min_mhz, args.f_max_mhz, args.f_step_mhz)):
        raise SchemaError("--f-min-mhz, --f-max-mhz and --f-step-mhz must be finite")
    if args.f_max_mhz <= args.f_min_mhz:
        raise SchemaError("--f-max-mhz must exceed --f-min-mhz")
    if args.f_step_mhz <= 0:
        raise SchemaError("--f-step-mhz must be positive")
    try:
        offsets = np.arange(args.f_min_mhz, args.f_max_mhz + args.f_step_mhz / 2, args.f_step_mhz)
    except (ValueError, MemoryError):
        raise SchemaError("the --f-min-mhz to --f-max-mhz grid in --f-step-mhz steps is too large")
    offsets = offsets * 1e6
    wait = args.wait_us * 1e-6
    spectro = simulate_map(
        model,
        offsets,
        duration=args.duration_h,
        step=args.step_s,
        wait=wait,
        rng=child_rng(seed, "tls-scan"),
        **_given(args, "dropout_probability"),
    )
    doc = _extraction_doc(spectro, args)
    directory = args.output or "."
    jio.atomic_write_text(os.path.join(directory, "map.csv"), jio.map_csv(spectro))
    jio.write_json(os.path.join(directory, "defects.json"), doc)
    print(_extraction_summary(doc))
    return 0


def _extraction_doc(spectro, args: argparse.Namespace) -> dict:
    """The defects document of the map's time-averaged profile, at ``--wait-us``."""
    wait = args.wait_us * 1e-6
    try:
        extraction = extract_tls(
            spectro.freq_offsets, time_average(spectro), wait, **_given(args, "max_defects")
        )
    except FitEvaluationError as exc:
        if exc.fit is not None:
            raise
        raise SchemaError(
            f"the defect model is not finite at the starting point for this map "
            f"at --wait-us {args.wait_us:g}"
        )
    return jio.extraction_to_doc(extraction, wait)


def _extraction_summary(doc: dict) -> str:
    if not doc["persistent_defect"]:
        return doc["outcome"]
    parts = [
        f"{defect['f_offset_mhz']:+.2f} MHz (g {defect['coupling_g_khz']:.1f} kHz)"
        for defect in doc["defects"]
    ]
    return "persistent defect at " + ", ".join(parts)


# --------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jjtune",
        description="Digital twin and planning tools for laser trimming of transmon junctions.",
    )
    parser.add_argument("--seed", type=int, default=None, help="master seed for stochastic runs")
    parser.add_argument("--output", default=None, help="output file or directory")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate-wafer", help="run a batch anneal over a wafer")
    sim.add_argument("wafer", help="wafer layout JSON")
    sim.add_argument("recipe", help="lasing recipe JSON")
    sim.set_defaults(handler=_cmd_simulate_wafer)

    fit = commands.add_parser("fit", help="fit a calibration model to a CSV")
    fit.add_argument("kind", choices=["aging", "dose", "displacement", "stark", "tls", "barrier"])
    fit.add_argument("data", help="input CSV (map CSV for kind=tls)")
    fit.add_argument("--wafer", default=None, help="aging: filter by wafer label")
    fit.add_argument("--cohort", default=None, choices=["annealed", "unannealed"])
    fit.add_argument("--wait-us", type=float, default=40.0, help="tls: measurement wait")
    fit.add_argument("--max-defects", type=int, default=argparse.SUPPRESS, help="tls: defects to extract")
    fit.set_defaults(handler=_cmd_fit)

    plan = commands.add_parser("plan", help="compute shifts and shot plans for targets")
    plan.add_argument("wafer", help="wafer layout JSON")
    plan.add_argument("targets", help="targets JSON (targets_ghz or min_spacing_mhz)")
    plan.add_argument("--exposure-s", dest="exposure", type=float, default=argparse.SUPPRESS)
    plan.add_argument("--max-shots", type=int, default=argparse.SUPPRESS)
    plan.set_defaults(handler=_cmd_plan)

    tune = commands.add_parser("tune", help="closed-loop tune junctions against a plan")
    tune.add_argument("wafer", help="wafer layout JSON")
    tune.add_argument("plan", help="plan JSON from the plan command")
    tune.add_argument("--step-fraction", type=float, default=argparse.SUPPRESS)
    tune.add_argument("--tolerance", type=float, default=argparse.SUPPRESS)
    tune.add_argument("--max-iterations", type=int, default=argparse.SUPPRESS)
    tune.add_argument("--measurement-noise-sigma", type=float, default=argparse.SUPPRESS)
    tune.add_argument("--shot-noise-sigma", type=float, default=None,
                      help="override the dose model's relative shot noise")
    tune.set_defaults(handler=_cmd_tune)

    scan = commands.add_parser("tls-scan", help="simulate a defect map and extract defects")
    scan.add_argument("model", help="noise model JSON")
    scan.add_argument("--f-min-mhz", type=float, default=-10.0)
    scan.add_argument("--f-max-mhz", type=float, default=10.0)
    scan.add_argument("--f-step-mhz", type=float, default=0.25)
    scan.add_argument("--duration-h", type=float, default=2.0)
    scan.add_argument("--step-s", type=float, default=60.0)
    scan.add_argument("--wait-us", type=float, default=40.0)
    scan.add_argument("--max-defects", type=int, default=argparse.SUPPRESS)
    scan.add_argument("--dropout-probability", type=float, default=argparse.SUPPRESS)
    scan.set_defaults(handler=_cmd_tls_scan)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # No command builds reference cycles, so a cyclic collection would only
    # re-walk what refcounting frees. The caller's setting comes back on any exit.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.handler(args)
    except (SchemaError, DomainError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 4
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
