"""File formats: schema-validated JSON/CSV ingestion and atomic export.

Every document is validated field by field before any work starts, and every
output file is written atomically (temp file, then rename) with sorted keys
and fixed units in the key names, so repeated runs with the same seed are
byte-identical. SCHEMAS.md documents each format.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
import os
import tempfile
from typing import Any, Sequence

import numpy as np

from .aging import AgingSeries
from .dose import LasingRecipe
from .errors import DomainError, SchemaError
from .tls import (
    DriftingDynamics,
    QubitNoiseModel,
    SpectroMap,
    StaticDynamics,
    TelegraphicDynamics,
    TlsDefect,
    TlsExtraction,
)
from .tuner import TuneTrace
from .wafer import BatchReport, JunctionRecord, WaferLayout

__all__ = [
    "atomic_write_text",
    "write_json",
    "load_json",
    "wafer_from_doc",
    "wafer_to_doc",
    "recipe_from_doc",
    "recipe_to_doc",
    "batch_report_to_doc",
    "batch_report_csv",
    "read_aging_csv",
    "read_columns_csv",
    "fit_report_doc",
    "noise_model_from_doc",
    "map_csv",
    "read_map_csv",
    "extraction_to_doc",
    "plan_to_doc",
    "traces_to_doc",
    "traces_csv",
]


# ---------------------------------------------------------------- writing

def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a same-directory temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, doc: dict) -> None:
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise SchemaError(f"{path}: file not found")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})")


# ------------------------------------------------------------- validation

_REQUIRED = object()


def _need(doc: dict, key: str, kind, path: str, default=_REQUIRED):
    """Field ``key`` of ``doc`` checked as ``kind``; numbers must be finite.

    A missing field is an error unless a ``default`` is given.
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected an object")
    if key not in doc:
        if default is _REQUIRED:
            raise SchemaError(f"{path}.{key}: missing required field")
        return default
    value = doc[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"{path}.{key}: expected a number, got {value!r}")
        if not math.isfinite(value):
            raise SchemaError(f"{path}.{key}: expected a finite number, got {value!r}")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"{path}.{key}: expected an integer, got {value!r}")
        return value
    if not isinstance(value, kind):
        raise SchemaError(f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _positive(value: float, label: str) -> float:
    if value <= 0:
        raise SchemaError(f"{label}: must be positive, got {value!r}")
    return value


# ----------------------------------------------------------------- wafer

def wafer_from_doc(doc: dict) -> WaferLayout:
    wafer_id = _need(doc, "wafer_id", str, "wafer")
    rows = _need(doc, "rows", int, "wafer")
    cols = _need(doc, "cols", int, "wafer")
    pitch = _positive(_need(doc, "pitch_um", float, "wafer"), "wafer.pitch_um")
    raw_junctions = _need(doc, "junctions", list, "wafer")
    junctions = []
    for index, raw in enumerate(raw_junctions):
        path = f"wafer.junctions[{index}]"
        jid = _need(raw, "id", str, path)
        row = _need(raw, "row", int, path)
        col = _need(raw, "col", int, path)
        if not 0 <= row < rows or not 0 <= col < cols:
            raise SchemaError(f"{path}: site ({row}, {col}) is off the {rows}x{cols} grid")
        area = _positive(_need(raw, "area_um2", float, path), f"{path}.area_um2")
        resistance = _positive(
            _need(raw, "resistance_ohm", float, path), f"{path}.resistance_ohm"
        )
        age = _need(raw, "age_days", float, path, default=0.0)
        junctions.append(
            JunctionRecord(
                id=jid,
                design_xy=(col * pitch, row * pitch),
                area=area,
                resistance=resistance,
                age_days=age,
            )
        )
    try:
        return WaferLayout(
            wafer_id=wafer_id, rows=rows, cols=cols, pitch=pitch, junctions=tuple(junctions)
        )
    except DomainError as exc:
        raise SchemaError(f"wafer: {exc}")


def wafer_to_doc(wafer: WaferLayout) -> dict:
    junctions = []
    for j in wafer.junctions:
        col = int(round(j.design_xy[0] / wafer.pitch))
        row = int(round(j.design_xy[1] / wafer.pitch))
        junctions.append(
            {
                "id": j.id,
                "row": row,
                "col": col,
                "area_um2": j.area,
                "resistance_ohm": j.resistance,
                "age_days": j.age_days,
            }
        )
    return {
        "wafer_id": wafer.wafer_id,
        "rows": wafer.rows,
        "cols": wafer.cols,
        "pitch_um": wafer.pitch,
        "junctions": junctions,
    }


# ---------------------------------------------------------------- recipe

def recipe_from_doc(doc: dict) -> LasingRecipe:
    power = _need(doc, "power_mw", float, "recipe")
    exposure = _need(doc, "exposure_s", float, "recipe")
    repetitions = _need(doc, "repetitions", int, "recipe", default=1)
    displacement = _need(doc, "displacement_um", float, "recipe", default=0.0)
    try:
        return LasingRecipe(
            power=power, exposure=exposure, repetitions=repetitions, displacement=displacement
        )
    except DomainError as exc:  # malformed values are schema errors; power cap stays infeasible
        raise SchemaError(f"recipe: {exc}")


def recipe_to_doc(recipe: LasingRecipe) -> dict:
    return {
        "power_mw": recipe.power,
        "exposure_s": recipe.exposure,
        "repetitions": recipe.repetitions,
        "displacement_um": recipe.displacement,
    }


# ----------------------------------------------------------- batch report

def batch_report_to_doc(report: BatchReport) -> dict:
    entries = [
        {
            "id": row.id,
            "r_before_ohm": row.r_before,
            "r_after_ohm": row.r_after,
            "qc_status": row.qc_status,
            "shift_frac": row.shift_frac,
        }
        for row in report.entries
    ]
    n_passed = sum(1 for row in report.entries if row.qc_status == "passed")
    return {
        "wafer_id": report.wafer_id,
        "master_seed": report.master_seed,
        "estimated_wall_time_s": report.estimated_wall_time_s,
        "n_junctions": len(report.entries),
        "n_passed": n_passed,
        "n_excluded": len(report.entries) - n_passed,
        "junctions": entries,
    }


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buffer = _io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def batch_report_csv(report: BatchReport) -> str:
    rows = [
        [row.id, repr(row.r_before), repr(row.r_after), row.qc_status, repr(row.shift_frac)]
        for row in report.entries
    ]
    return _csv_text(["id", "r_before_ohm", "r_after_ohm", "qc_status", "shift_frac"], rows)


# ------------------------------------------------------------- fit inputs

def _read_csv_rows(path: str, required: Sequence[str]) -> list[dict]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle)
            fields = reader.fieldnames or []
            for column in required:
                if column not in fields:
                    raise SchemaError(f"{path}: missing required column '{column}'")
            return list(reader)
    except FileNotFoundError:
        raise SchemaError(f"{path}: file not found")


def _cell_float(row: dict, column: str, path: str, line: int) -> float:
    raw = row.get(column)
    if raw is None or raw == "":
        raise SchemaError(f"{path}:{line}: empty value in column '{column}'")
    try:
        return float(raw)
    except ValueError:
        raise SchemaError(f"{path}:{line}: column '{column}' is not a number: {raw!r}")


def read_aging_csv(path: str) -> list[AgingSeries]:
    """Group an aging CSV into per-(wafer, cohort, junction) series.

    Columns: junction_id, day, resistance_ohm, cohort, wafer, optional
    r0_ohm (reference resistance; defaults to the series' first sample).
    """
    rows = _read_csv_rows(path, ["junction_id", "day", "resistance_ohm", "cohort", "wafer"])
    groups: dict[tuple[str, str, str], list] = {}
    r0s: dict[tuple[str, str, str], float] = {}
    for line, row in enumerate(rows, start=2):
        cohort = (row.get("cohort") or "").strip()
        if cohort not in ("annealed", "unannealed"):
            raise SchemaError(
                f"{path}:{line}: cohort must be 'annealed' or 'unannealed', got {cohort!r}"
            )
        key = (row.get("wafer") or "", cohort, row.get("junction_id") or "")
        day = _cell_float(row, "day", path, line)
        resistance = _cell_float(row, "resistance_ohm", path, line)
        groups.setdefault(key, []).append((day, resistance))
        if row.get("r0_ohm"):
            r0s[key] = _cell_float(row, "r0_ohm", path, line)
    series = []
    for (wafer_label, cohort, junction_id), samples in sorted(groups.items()):
        samples.sort(key=lambda pair: pair[0])
        try:
            series.append(
                AgingSeries(
                    junction_id=junction_id,
                    samples=tuple(samples),
                    cohort=cohort,  # type: ignore[arg-type]
                    wafer_label=wafer_label,
                    r0_ohm=r0s.get((wafer_label, cohort, junction_id), 0.0),
                )
            )
        except DomainError as exc:
            raise SchemaError(f"{path}: series {junction_id!r}: {exc}")
    if not series:
        raise SchemaError(f"{path}: no data rows")
    return series


def read_columns_csv(path: str, columns: Sequence[str]) -> list[tuple[float, ...]]:
    """Read numeric columns from a CSV, in order, with line diagnostics."""
    rows = _read_csv_rows(path, columns)
    out = []
    for line, row in enumerate(rows, start=2):
        out.append(tuple(_cell_float(row, column, path, line) for column in columns))
    if not out:
        raise SchemaError(f"{path}: no data rows")
    return out


def fit_report_doc(
    model_name: str,
    parameter_names: Sequence[str],
    params: Sequence[float],
    std_errors: Sequence[float],
    residual_norm: float,
    converged: bool,
    iterations: int,
) -> dict:
    return {
        "model": model_name,
        "params": {name: float(v) for name, v in zip(parameter_names, params)},
        "std_errors": {name: float(v) for name, v in zip(parameter_names, std_errors)},
        "residual_norm": float(residual_norm),
        "converged": bool(converged),
        "iterations": int(iterations),
    }


# ------------------------------------------------------------ TLS formats

def _dynamics_from_doc(doc: dict, path: str):
    kind = _need(doc, "kind", str, path)
    if kind == "static":
        return StaticDynamics()
    if kind == "drifting":
        return DriftingDynamics(
            sigma_f=_need(doc, "sigma_f_mhz", float, path) * 1e6,
            step_interval=_need(doc, "step_interval_s", float, path),
        )
    if kind == "telegraphic":
        return TelegraphicDynamics(
            f_a=_need(doc, "f_a_mhz", float, path) * 1e6,
            f_b=_need(doc, "f_b_mhz", float, path) * 1e6,
            switch_rate=_need(doc, "switch_rate_per_s", float, path),
        )
    raise SchemaError(f"{path}.kind: unknown dynamics {kind!r}")


def noise_model_from_doc(doc: dict) -> QubitNoiseModel:
    gamma_1q = _positive(_need(doc, "gamma_1q_per_s", float, "model"), "model.gamma_1q_per_s")
    readout = _need(doc, "readout_noise_sigma", float, "model")
    defects = []
    for index, raw in enumerate(doc.get("defects", [])):
        path = f"model.defects[{index}]"
        dynamics = (
            _dynamics_from_doc(raw["dynamics"], f"{path}.dynamics")
            if "dynamics" in raw
            else StaticDynamics()
        )
        try:
            defects.append(
                TlsDefect(
                    f_offset=_need(raw, "f_offset_mhz", float, path) * 1e6,
                    coupling_g=_need(raw, "coupling_g_khz", float, path) * 1e3,
                    gamma_total=_need(raw, "gamma_total_mhz", float, path) * 1e6,
                    dynamics=dynamics,
                )
            )
        except DomainError as exc:
            raise SchemaError(f"{path}: {exc}")
    try:
        return QubitNoiseModel(
            gamma_1q=gamma_1q, defects=tuple(defects), readout_noise_sigma=readout
        )
    except DomainError as exc:
        raise SchemaError(f"model: {exc}")


def map_csv(spectro: SpectroMap) -> str:
    """Matrix CSV: offsets (MHz) across the header, times (hours) down."""
    header = ["time_h"] + [repr(float(v) / 1e6) for v in spectro.freq_offsets]
    rows = [
        [repr(float(t))] + [repr(float(p)) for p in row]
        for t, row in zip(spectro.times, spectro.population)
    ]
    return _csv_text(header, rows)


def read_map_csv(path: str) -> SpectroMap:
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
    except FileNotFoundError:
        raise SchemaError(f"{path}: file not found")
    if not rows or rows[0][:1] != ["time_h"]:
        raise SchemaError(f"{path}: expected a map CSV with a 'time_h' header column")
    try:
        offsets = np.array([float(v) for v in rows[0][1:]]) * 1e6
        times = np.array([float(row[0]) for row in rows[1:]])
        population = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    except (ValueError, IndexError) as exc:
        raise SchemaError(f"{path}: malformed map matrix ({exc})")
    try:
        return SpectroMap(
            freq_offsets=offsets, times=times, population=population, wait_time=1.0
        )
    except DomainError as exc:
        raise SchemaError(f"{path}: {exc}")


def extraction_to_doc(extraction: TlsExtraction, wait: float) -> dict:
    defects = []
    for fit in extraction.defects:
        f0, g, gamma, g1q = (float(v) for v in fit.params)
        errs = [float(v) for v in fit.std_errors]
        defects.append(
            {
                "f_offset_mhz": f0 / 1e6,
                "coupling_g_khz": g / 1e3,
                "gamma_total_mhz": gamma / 1e6,
                "gamma_1q_per_s": g1q,
                "std_errors": {
                    "f_offset_mhz": errs[0] / 1e6,
                    "coupling_g_khz": errs[1] / 1e3,
                    "gamma_total_mhz": errs[2] / 1e6,
                    "gamma_1q_per_s": errs[3],
                },
                "residual_norm": fit.residual_norm,
            }
        )
    return {
        "wait_s": wait,
        "persistent_defect": extraction.persistent,
        "outcome": "persistent defect" if extraction.persistent else "no persistent defect",
        "defects": defects,
    }


# ------------------------------------------------------------ plan/traces

def plan_to_doc(wafer_id: str, entries: Sequence[dict]) -> dict:
    return {"wafer_id": wafer_id, "junctions": list(entries)}


def traces_to_doc(traces: Sequence[TuneTrace]) -> dict:
    outcomes = {"converged": 0, "overshoot": 0, "exhausted": 0}
    total_anneals = 0
    rendered = []
    for trace in traces:
        outcomes[trace.outcome] += 1
        anneals = sum(1 for it in trace.iterations if it.recipe is not None)
        total_anneals += anneals
        rendered.append(
            {
                "junction_id": trace.junction_id,
                "f_target_ghz": trace.target_f / 1e9,
                "outcome": trace.outcome,
                "final_resistance_ohm": trace.final_resistance,
                "n_anneals": anneals,
                "iterations": [
                    {
                        "measured_r_ohm": it.measured_r,
                        "inferred_f_ghz": it.inferred_f / 1e9,
                        "power_mw": None if it.recipe is None else it.recipe.power,
                        "exposure_s": None if it.recipe is None else it.recipe.exposure,
                        "sampled_shift": it.sampled_shift,
                    }
                    for it in trace.iterations
                ],
            }
        )
    n = max(len(traces), 1)
    summary = {
        "n_junctions": len(traces),
        "n_converged": outcomes["converged"],
        "n_overshoot": outcomes["overshoot"],
        "n_exhausted": outcomes["exhausted"],
        "convergence_fraction": outcomes["converged"] / n,
        "mean_anneals": total_anneals / n,
    }
    return {"summary": summary, "traces": rendered}


def traces_csv(traces: Sequence[TuneTrace]) -> str:
    rows = []
    for trace in traces:
        for k, it in enumerate(trace.iterations):
            rows.append(
                [
                    trace.junction_id,
                    k,
                    repr(it.measured_r),
                    repr(it.inferred_f / 1e9),
                    "" if it.recipe is None else repr(it.recipe.power),
                    "" if it.sampled_shift is None else repr(it.sampled_shift),
                    trace.outcome,
                ]
            )
    return _csv_text(
        ["junction_id", "iteration", "measured_r_ohm", "inferred_f_ghz", "power_mw",
         "sampled_shift", "outcome"],
        rows,
    )
