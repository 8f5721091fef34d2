"""File formats: schema-validated JSON/CSV ingestion and atomic export.

Every document is validated field by field before any work starts, and every
output file is written atomically (temp file, then rename) with sorted keys
and fixed units in the key names, so repeated runs with the same seed are
byte-identical. SCHEMAS.md documents each format.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import os
import re
import sys
import tempfile
from typing import TYPE_CHECKING, Any, Callable, Container, Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError, SchemaError

if TYPE_CHECKING:  # annotations only: each reader imports the types it builds when it runs
    from .aging import AgingSeries
    from .dose import LasingRecipe
    from .fitkit import FitResult
    from .tls import QubitNoiseModel, SpectroMap, TlsExtraction
    from .tuner import TuneTrace
    from .wafer import BatchReport, WaferLayout

__all__ = [
    "atomic_write_text",
    "json_text",
    "write_json",
    "load_json",
    "wafer_from_doc",
    "wafer_to_doc",
    "recipe_from_doc",
    "recipe_to_doc",
    "targets_from_doc",
    "plan_from_doc",
    "batch_report_to_doc",
    "batch_report_json",
    "batch_report_csv",
    "read_aging_csv",
    "read_columns_csv",
    "fit_report_doc",
    "noise_model_from_doc",
    "map_csv",
    "read_map_csv",
    "extraction_to_doc",
    "plan_to_doc",
    "plan_json",
    "traces_to_doc",
    "traces_summary",
    "traces_json",
    "traces_csv",
]


# ---------------------------------------------------------------- writing

def atomic_write_text(path: str, text: str | Iterable[str]) -> None:
    """Write text, or the pieces of text an iterable yields, to path via a
    same-directory temp file and rename.

    Pieces go through the file's ``_BLOCK``-byte buffer, so text that is
    generated as it is written is never held whole. Creates missing
    parent directories. A path that cannot be written raises SchemaError
    naming it; that, or an exception raised while the pieces are made,
    leaves the target as it was and no temp file behind.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "w", buffering=_BLOCK, encoding="utf-8", newline="") as handle:
            handle.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except OSError as exc:
        raise SchemaError(f"{path}: cannot write ({exc.strerror})")
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


_BLOCK = 1 << 17  # bytes of the written file's buffer: its size per file write


_INDENT = "  "
# With an indent, json encodes in Python, for iterencode as for json.dumps,
# so its text is exactly json.dumps(doc, indent=2, sort_keys=True).
_ENCODER = json.JSONEncoder(indent=_INDENT, sort_keys=True)


def _json_pieces(doc: Any) -> Iterator[str]:
    """``json_text(doc)`` in pieces, made as they are asked for."""
    return itertools.chain(_ENCODER.iterencode(doc), "\n")


def json_text(doc: Any) -> str:
    """Exactly ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``."""
    return _ENCODER.encode(doc) + "\n"


def write_json(path: str, doc: Any) -> None:
    """``json_text(doc)`` written to path atomically, through the file's buffer as it is encoded."""
    atomic_write_text(path, _json_pieces(doc))


# The record renderers (batch_report_json, plan_json, traces_json) spell out
# each record of a document's list with one f-string, its keys in sorted
# order, its strings through encode_basestring_ascii and its other values
# through their str, as json's encoder writes them. A float's str is its repr
# (a numpy float's too) and an int's str is json's text, so _WORDS(text, text)
# is json's text of the number, bool or None whose str is text. The report
# and traces renderers also write each record's CSV lines from the same texts.

_text = json.encoder.encode_basestring_ascii
_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity",
          "True": "true", "False": "false", "None": "null"}.get
_ROWS = 64  # record texts joined into one written piece


def _number(value: Any) -> str:
    """json's text of a number, bool or None."""
    text = str(value)
    return _WORDS(text, text)


def _json_list(shell: dict, key: str, items: Iterator[str]) -> Iterator[str]:
    """``json_text(shell)`` in pieces, with the list whose item texts ``items``
    yields, one level in, in place of ``shell[key]``, a null."""
    head, _, tail = json_text(shell).partition(f'\n{_INDENT}"{key}": null')
    chunks = iter(lambda: list(itertools.islice(items, _ROWS)), [])
    first = next(chunks, None)
    if first is None:
        yield f'{head}\n{_INDENT}"{key}": []{tail}'
        return
    separator = ",\n" + _INDENT * 2
    yield f'{head}\n{_INDENT}"{key}": [\n{_INDENT * 2}' + separator.join(first)
    for chunk in chunks:
        yield separator + separator.join(chunk)
    yield f"\n{_INDENT}]{tail}"


def _nested(texts: Iterable[str]) -> str:
    """The text of a list inside a ``_json_list`` item, from its items' texts,
    none of them empty."""
    body = ",\n        ".join(texts)
    return f"[\n        {body}\n      ]" if body else "[]"


def _csv_text(render: Callable, records) -> str:
    """The CSV lines ``render(records, lines)`` collects, joined; its JSON pieces are dropped."""
    lines: list[str] = []
    for _ in render(records, lines):
        pass
    return "".join(lines)


@contextlib.contextmanager
def _reading(path: str):
    """Turn a missing, unreadable or non-UTF-8 input into a SchemaError naming path."""
    try:
        yield
    except FileNotFoundError:
        raise SchemaError(f"{path}: file not found")
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read ({exc.strerror})")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text (byte {exc.start})")


@contextlib.contextmanager
def _schema_errors(prefix: str):
    """Turn a DomainError raised while building a record into a SchemaError under prefix."""
    try:
        yield
    except DomainError as exc:
        raise SchemaError(f"{prefix}: {exc}")


def load_json(path: str) -> Any:
    with _reading(path), open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        return json.loads(text)
    except ValueError as exc:  # bad syntax, or an integer beyond Python's digit limit
        raise SchemaError(f"{path}: invalid JSON ({exc})")


# ------------------------------------------------------------- validation

_REQUIRED = object()
_NUMBERS = {float: ((int, float), "a number"), int: (int, "an integer")}
_FLOAT_MAX = sys.float_info.max


def _need(doc: dict, key: str, kind, path: str, default=_REQUIRED):
    """Field ``key`` of ``doc`` checked as ``kind``.

    A missing field is an error unless a ``default`` is given. Numbers, the
    integers too, must lie within the finite float range.
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected an object")
    if key not in doc:
        if default is _REQUIRED:
            raise SchemaError(f"{path}.{key}: missing required field")
        return default
    value = doc[key]
    if kind in _NUMBERS:
        types, name = _NUMBERS[kind]
        if isinstance(value, bool) or not isinstance(value, types):
            raise SchemaError(f"{path}.{key}: expected {name}, got {_shown(value)}")
        if not -_FLOAT_MAX <= value <= _FLOAT_MAX:  # NaN, infinity or a too large integer
            raise SchemaError(f"{path}.{key}: expected a finite number, got {_shown(value)}")
        return float(value) if kind is float else value
    if not isinstance(value, kind):
        raise SchemaError(f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _shown(value: Any) -> str:
    """``repr(value)``, cut to 40 characters so a huge value keeps its message short."""
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _positive(value: float, label: str) -> float:
    if value <= 0:
        raise SchemaError(f"{label}: must be positive, got {_shown(value)}")
    return value


# ----------------------------------------------------------------- wafer

def _junction_fields(raw: dict, path: str, rows: int, cols: int) -> tuple:
    """(id, row, col, area, resistance, age) of one junction, field by field."""
    jid = _need(raw, "id", str, path)
    row = _need(raw, "row", int, path)
    col = _need(raw, "col", int, path)
    if not 0 <= row < rows or not 0 <= col < cols:
        raise SchemaError(f"{path}: site ({row}, {col}) is off the {rows}x{cols} grid")
    area = _positive(_need(raw, "area_um2", float, path), f"{path}.area_um2")
    resistance = _positive(_need(raw, "resistance_ohm", float, path), f"{path}.resistance_ohm")
    age = _need(raw, "age_days", float, path, default=0.0)
    return jid, row, col, area, resistance, age


def wafer_from_doc(doc: dict) -> WaferLayout:
    from .wafer import JunctionRecord, WaferLayout

    wafer_id = _need(doc, "wafer_id", str, "wafer")
    rows = _need(doc, "rows", int, "wafer")
    cols = _need(doc, "cols", int, "wafer")
    pitch = _positive(_need(doc, "pitch_um", float, "wafer"), "wafer.pitch_um")
    raw_junctions = _need(doc, "junctions", list, "wafer")
    inf = math.inf
    junctions = []
    sites = set()
    for index, raw in enumerate(raw_junctions):
        # One inline check accepts a well-formed junction; any other goes
        # through _junction_fields, the one source of error messages.
        get = raw.get if type(raw) is dict else {}.get
        jid, row, col = get("id"), get("row"), get("col")
        area, resistance, age = get("area_um2"), get("resistance_ohm"), get("age_days", 0.0)
        if not (
            type(jid) is str and type(row) is int and type(col) is int
            and 0 <= row < rows and 0 <= col < cols
            and type(area) is float and 0.0 < area < inf
            and type(resistance) is float and 0.0 < resistance < inf
            and type(age) is float and -inf < age < inf
        ):
            jid, row, col, area, resistance, age = _junction_fields(
                raw, f"wafer.junctions[{index}]", rows, cols
            )
        sites.add(row * cols + col)
        if len(sites) <= index:
            raise SchemaError(
                f"wafer.junctions[{index}]: site ({row}, {col}) already holds a junction"
            )
        junctions.append(JunctionRecord(jid, (col * pitch, row * pitch), area, resistance, age))
    with _schema_errors("wafer"):
        return WaferLayout(
            wafer_id=wafer_id, rows=rows, cols=cols, pitch=pitch, junctions=tuple(junctions)
        )


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
    from .dose import LasingRecipe

    power = _need(doc, "power_mw", float, "recipe")
    exposure = _need(doc, "exposure_s", float, "recipe")
    repetitions = _need(doc, "repetitions", int, "recipe", default=1)
    displacement = _need(doc, "displacement_um", float, "recipe", default=0.0)
    with _schema_errors("recipe"):  # malformed values; the power cap stays infeasible
        return LasingRecipe(
            power=power, exposure=exposure, repetitions=repetitions, displacement=displacement
        )


def recipe_to_doc(recipe: LasingRecipe) -> dict:
    return {
        "power_mw": recipe.power,
        "exposure_s": recipe.exposure,
        "repetitions": recipe.repetitions,
        "displacement_um": recipe.displacement,
    }


# ----------------------------------------------------------- batch report

_REPORT_KEYS = ("id", "r_before_ohm", "r_after_ohm", "qc_status", "shift_frac")


def _report_doc(report: BatchReport, junctions: list | None) -> dict:
    """The report's document, with ``junctions`` as its list of rows."""
    n_passed = report.n_passed
    return {
        "wafer_id": report.wafer_id,
        "master_seed": report.master_seed,
        "estimated_wall_time_s": report.estimated_wall_time_s,
        "n_junctions": len(report.entries),
        "n_passed": n_passed,
        "n_excluded": len(report.entries) - n_passed,
        "junctions": junctions,
    }


def batch_report_to_doc(report: BatchReport) -> dict:
    return _report_doc(report, [
        {"id": jid, "r_before_ohm": r_before, "r_after_ohm": r_after,
         "qc_status": status, "shift_frac": shift}
        for jid, r_before, r_after, status, shift in report.entries
    ])


def batch_report_json(report: BatchReport, csv_lines: list[str] | None = None) -> Iterator[str]:
    """``json_text(batch_report_to_doc(report))`` in pieces, from the rows; with
    ``csv_lines`` a list, the lines of ``batch_report_csv(report)`` are appended
    to it as the pieces are made, each value formatted once for both.

    Ids and statuses must be ``str`` and numbers ``float`` or ``int``, as in
    ``BatchRow``: each number is written as its unchecked ``str``, so a value
    of another type may not match ``batch_report_to_doc``."""
    def item(row) -> str:
        jid, before, after, status, shift = row
        before, after, shift = str(before), str(after), str(shift)
        if csv_lines is not None:
            csv_lines.append(f"{_csv_field(jid)},{before},{after},{_csv_field(status)},{shift}\n")
        return (
            f'{{\n      "id": {_text(jid)},\n      "qc_status": {_text(status)},\n'
            f'      "r_after_ohm": {_WORDS(after, after)},\n'
            f'      "r_before_ohm": {_WORDS(before, before)},\n'
            f'      "shift_frac": {_WORDS(shift, shift)}\n    }}'
        )

    if csv_lines is not None:
        csv_lines.append(",".join(_REPORT_KEYS) + "\n")
    yield from _json_list(_report_doc(report, None), "junctions", map(item, report.entries))


_QUOTED = re.compile('[,"\r\n]').search  # finds what a CSV field must quote


def _csv_field(text: str) -> str:
    """text as one CSV field: quoted, its quotes doubled, when _QUOTED finds
    a character in it; else as it is."""
    return '"' + text.replace('"', '""') + '"' if _QUOTED(text) else text


def batch_report_csv(report: BatchReport) -> str:
    """The report as CSV, a line per row."""
    return _csv_text(batch_report_json, report)


# ------------------------------------------------------------- fit inputs

_POSITIVE_COLUMNS = ("area_um2", "resistance_ohm", "r0_ohm")  # fit-input columns refused unless positive


def _read_csv_rows(path: str, required: Sequence[str]) -> list[tuple[int, dict]]:
    """(line, row) pairs; line is the row's line in the file, blank lines counted."""
    with _reading(path), open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        fields = reader.fieldnames or []
        for column in required:
            if column not in fields:
                raise SchemaError(f"{path}: missing required column '{column}'")
        return [(reader.line_num, row) for row in reader]


def _cell_float(row: dict, column: str, path: str, line: int) -> float:
    raw = row.get(column)
    if raw is None or raw == "":
        raise SchemaError(f"{path}:{line}: empty value in column '{column}'")
    try:
        value = float(raw)
    except ValueError:
        raise SchemaError(f"{path}:{line}: column '{column}' is not a number: {raw!r}")
    if not math.isfinite(value):
        raise SchemaError(f"{path}:{line}: column '{column}' is not a finite number: {raw!r}")
    return value


def _positive_cell(column: str, value: float, path: str, line: int) -> float:
    if column in _POSITIVE_COLUMNS and value <= 0.0:
        raise SchemaError(f"{path}:{line}: column '{column}' must be positive, got {value}")
    return value


def read_aging_csv(path: str) -> list[AgingSeries]:
    """Group an aging CSV into per-(wafer, cohort, junction) series.

    Columns: junction_id, day, resistance_ohm, cohort, wafer, optional
    r0_ohm (reference resistance; defaults to the series' first sample).
    """
    from .aging import AgingSeries

    rows = _read_csv_rows(path, ["junction_id", "day", "resistance_ohm", "cohort", "wafer"])
    groups: dict[tuple[str, str, str], list] = {}
    r0s: dict[tuple[str, str, str], float] = {}
    for line, row in rows:
        cohort = (row.get("cohort") or "").strip()
        if cohort not in ("annealed", "unannealed"):
            raise SchemaError(
                f"{path}:{line}: cohort must be 'annealed' or 'unannealed', got {cohort!r}"
            )
        key = (row.get("wafer") or "", cohort, row.get("junction_id") or "")
        day = _cell_float(row, "day", path, line)
        resistance = _cell_float(row, "resistance_ohm", path, line)
        groups.setdefault(key, []).append((day, _positive_cell("resistance_ohm", resistance, path, line)))
        if row.get("r0_ohm"):  # an empty cell takes the first sample
            r0s[key] = _positive_cell("r0_ohm", _cell_float(row, "r0_ohm", path, line), path, line)
    series = []
    for (wafer_label, cohort, junction_id), samples in sorted(groups.items()):
        samples.sort(key=lambda pair: pair[0])
        with _schema_errors(f"{path}: series {junction_id!r}"):
            series.append(
                AgingSeries(
                    junction_id=junction_id,
                    samples=tuple(samples),
                    cohort=cohort,  # type: ignore[arg-type]
                    wafer_label=wafer_label,
                    r0_ohm=r0s.get((wafer_label, cohort, junction_id), 0.0),
                )
            )
    if not series:
        raise SchemaError(f"{path}: no data rows")
    return series


def read_columns_csv(path: str, columns: Sequence[str]) -> list[tuple[float, ...]]:
    """Read numeric columns from a CSV, in order, with line diagnostics."""
    rows = [(line, tuple(_cell_float(row, column, path, line) for column in columns))
            for line, row in _read_csv_rows(path, columns)]
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    for line, values in rows:  # after every cell parsed, so a malformed cell is named first
        for column, value in zip(columns, values):
            _positive_cell(column, value, path, line)
    return [values for _, values in rows]


def fit_report_doc(model_name: str, parameter_names: Sequence[str], fit: FitResult) -> dict:
    return {
        "model": model_name,
        "params": {name: float(v) for name, v in zip(parameter_names, fit.params)},
        "std_errors": {name: float(v) for name, v in zip(parameter_names, fit.std_errors)},
        "residual_norm": float(fit.residual_norm),
        "converged": fit.converged,
        "iterations": int(fit.iterations),
    }


# ------------------------------------------------------------ TLS formats

def _dynamics_from_doc(doc: dict, path: str):
    from .tls import DriftingDynamics, StaticDynamics, TelegraphicDynamics

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
    from .tls import QubitNoiseModel, TlsDefect

    gamma_1q = _positive(_need(doc, "gamma_1q_per_s", float, "model"), "model.gamma_1q_per_s")
    readout = _need(doc, "readout_noise_sigma", float, "model")
    defects = []
    for index, raw in enumerate(_need(doc, "defects", list, "model", default=[])):
        path = f"model.defects[{index}]"
        raw_dynamics = _need(raw, "dynamics", dict, path, default={"kind": "static"})
        with _schema_errors(path):
            defects.append(
                TlsDefect(
                    f_offset=_need(raw, "f_offset_mhz", float, path) * 1e6,
                    coupling_g=_need(raw, "coupling_g_khz", float, path) * 1e3,
                    gamma_total=_need(raw, "gamma_total_mhz", float, path) * 1e6,
                    dynamics=_dynamics_from_doc(raw_dynamics, f"{path}.dynamics"),
                )
            )
    with _schema_errors("model"):
        return QubitNoiseModel(
            gamma_1q=gamma_1q, defects=tuple(defects), readout_noise_sigma=readout
        )


def map_csv(spectro: SpectroMap) -> str:
    """Matrix CSV: offsets (MHz) across the header, times (hours) down, a
    line per row. No field of a map needs quoting."""
    lines = [",".join(["time_h", *(repr(v / 1e6) for v in spectro.freq_offsets.tolist())]) + "\n"]
    lines += (",".join(map(repr, [t, *row.tolist()])) + "\n"
              for t, row in zip(spectro.times.tolist(), spectro.population))
    return "".join(lines)


def _numeric_map(handle) -> tuple | None:
    """``(offsets, matrix)`` of a plainly well-formed map, its body parsed by
    one ``np.loadtxt`` call, or None for any other input.

    ``matrix`` holds the times in column 0. On None the caller reads the
    file again with the csv reader, which gives every message.
    """
    header = handle.readline().rstrip("\r\n").split(",")
    first = handle.readline()
    if header[0] != "time_h" or not first:  # no body: loadtxt would warn
        return None

    def lines():
        for line in itertools.chain([first], handle):
            if line.isspace():  # loadtxt skips blank lines; the csv reader refuses them
                raise ValueError("blank line")
            yield line

    try:
        with np.errstate(over="ignore"):  # the csv reader refuses an overflow
            offsets = np.array([float(v) for v in header[1:]]) * 1e6
        matrix = np.loadtxt(lines(), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    rectangular = matrix.shape[1] == offsets.size + 1
    if not (rectangular and np.isfinite(offsets).all() and np.isfinite(matrix).all()):
        return None
    return offsets, matrix


def read_map_csv(path: str) -> SpectroMap:
    from .tls import SpectroMap

    with _reading(path), open(path, "r", encoding="utf-8", newline="") as handle:
        parsed = _numeric_map(handle)
        if parsed is None:
            handle.seek(0)
            rows = list(csv.reader(handle))
    if parsed is not None:
        offsets, matrix = parsed
        times, population = matrix[:, 0].copy(), matrix[:, 1:].copy()
    else:
        offsets, times, population = _map_from_rows(rows, path)
    with _schema_errors(path):
        return SpectroMap(freq_offsets=offsets, times=times, population=population)


def _map_from_rows(rows: list[list[str]], path: str) -> tuple:
    """``(offsets, times, population)`` of csv rows, with a message for each fault."""
    if not rows or rows[0][:1] != ["time_h"]:
        raise SchemaError(f"{path}: expected a map CSV with a 'time_h' header column")
    try:
        with np.errstate(over="ignore"):  # an overflow in Hz is refused below
            offsets = np.array([float(v) for v in rows[0][1:]]) * 1e6
        times = np.array([float(row[0]) for row in rows[1:]])
        population = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    except (ValueError, IndexError) as exc:
        raise SchemaError(f"{path}: malformed map matrix ({exc})")
    if not (np.isfinite(offsets).all() and np.isfinite(times).all()
            and np.isfinite(population).all()):
        line = next(  # else an offset is finite in MHz but overflows in Hz: line 1
            (n for n, row in enumerate(rows, start=1)
             if not all(math.isfinite(float(v)) for v in (row[1:] if n == 1 else row))),
            1,
        )
        raise SchemaError(f"{path}:{line}: map matrix holds a non-finite value")
    return offsets, times, population


# Each defect parameter's key, and its unit in SI (Hz, or 1/s for gamma_1q).
_DEFECT_UNITS = (("f_offset_mhz", 1e6), ("coupling_g_khz", 1e3), ("gamma_total_mhz", 1e6),
                 ("gamma_1q_per_s", 1.0))


def extraction_to_doc(extraction: TlsExtraction, wait: float) -> dict:
    def units(values) -> dict:
        pairs = zip(_DEFECT_UNITS, values, strict=True)
        return {key: float(v) / scale for (key, scale), v in pairs}

    defects = [{**units(fit.params), "std_errors": units(fit.std_errors),
                "residual_norm": fit.residual_norm} for fit in extraction.defects]
    return {
        "wait_s": wait,
        "persistent_defect": extraction.persistent,
        "outcome": "persistent defect" if extraction.persistent else "no persistent defect",
        "defects": defects,
    }


# ------------------------------------------------------- targets/plan/traces

def targets_from_doc(
    doc: dict, junction_ids: Sequence[str]
) -> tuple[list[float] | None, float | None]:
    """``(targets, spacing)`` of a targets document; exactly one is None.

    ``targets`` holds each junction's target frequency in Hz, in the order of
    ``junction_ids``; ``spacing`` is the minimum spacing in Hz.
    """
    mapping = _need(doc, "targets_ghz", dict, "targets", default=None)
    spacing = _need(doc, "min_spacing_mhz", float, "targets", default=None)
    if (mapping is None) == (spacing is None):
        raise SchemaError("targets: need exactly one of targets_ghz or min_spacing_mhz")
    if mapping is not None:
        targets = [_need(mapping, jid, float, "targets.targets_ghz") * 1e9 for jid in junction_ids]
        return targets, None
    if spacing < 0:
        raise SchemaError(f"targets.min_spacing_mhz: must be non-negative, got {spacing!r}")
    return None, spacing * 1e6


def plan_from_doc(doc: dict, junction_ids: Container[str]) -> tuple[list[str], list[float]]:
    """Ids and target frequencies (Hz) of a plan's junctions, in document order.

    Every id must be one of ``junction_ids``, listed once.
    """
    try:
        raw_entries = _need(doc, "junctions", list, "plan")
    except SchemaError:
        raise SchemaError("plan.junctions: missing or not a list") from None
    ids, targets, seen = [], [], set()
    for index, entry in enumerate(raw_entries):
        path = f"plan.junctions[{index}]"
        jid = _need(entry, "id", str, path)
        if jid not in junction_ids:
            raise SchemaError(f"{path}.id: junction {jid!r} is not on the wafer")
        if jid in seen:
            raise SchemaError(f"{path}.id: junction {jid!r} is listed twice")
        seen.add(jid)
        ids.append(jid)
        targets.append(_need(entry, "f_target_ghz", float, path) * 1e9)
    return ids, targets


def plan_to_doc(wafer_id: str, entries: Sequence[tuple]) -> dict:
    """The plan's document from entries ``(id, f_now, f_target, shift, shots)``,
    frequencies in Hz; it holds them in GHz, and each shot as ``recipe_to_doc`` writes it."""
    return {"wafer_id": wafer_id, "junctions": [
        {"id": jid, "f_now_ghz": now / 1e9, "f_target_ghz": target / 1e9,
         "required_shift_frac": shift, "shots": list(map(recipe_to_doc, recipes))}
        for jid, now, target, shift, recipes in entries]}


def plan_json(wafer_id: str, entries: Sequence[tuple]) -> Iterator[str]:
    """``json_text(plan_to_doc(wafer_id, entries))`` in pieces, from the entries.

    Ids must be ``str`` and numbers ``float`` or ``int``, as in ``LasingRecipe``:
    each number is written as its unchecked ``str``, so a value of another
    type may not match ``plan_to_doc``."""
    def shot_text(shot) -> str:
        return (
            f'{{\n          "displacement_um": {_number(shot.displacement)},\n'
            f'          "exposure_s": {_number(shot.exposure)},\n'
            f'          "power_mw": {_number(shot.power)},\n'
            f'          "repetitions": {_number(shot.repetitions)}\n        }}'
        )

    items = (
        f'{{\n      "f_now_ghz": {_number(now / 1e9)},\n      "f_target_ghz": {_number(target / 1e9)},\n'
        f'      "id": {_text(jid)},\n      "required_shift_frac": {_number(shift)},\n'
        f'      "shots": {_nested(map(shot_text, shots))}\n    }}'
        for jid, now, target, shift, shots in entries
    )
    yield from _json_list({"wafer_id": wafer_id, "junctions": None}, "junctions", items)


def traces_to_doc(traces: Sequence[TuneTrace]) -> dict:
    rendered = [
        {
            "junction_id": trace.junction_id,
            "f_target_ghz": trace.target_f / 1e9,
            "outcome": trace.outcome,
            "final_resistance_ohm": trace.final_resistance,
            "n_anneals": trace.n_anneals,
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
        for trace in traces
    ]
    return {"summary": traces_summary(traces), "traces": rendered}


def traces_summary(traces: Sequence[TuneTrace]) -> dict:
    """The ``summary`` object of ``traces_to_doc(traces)``."""
    outcomes = {"converged": 0, "overshoot": 0, "exhausted": 0}
    for trace in traces:
        outcomes[trace.outcome] += 1
    anneals = sum(trace.n_anneals for trace in traces)
    n = max(len(traces), 1)
    return {
        "n_junctions": len(traces),
        "n_converged": outcomes["converged"],
        "n_overshoot": outcomes["overshoot"],
        "n_exhausted": outcomes["exhausted"],
        "convergence_fraction": outcomes["converged"] / n,
        "mean_anneals": anneals / n,
    }


def traces_json(traces: Sequence[TuneTrace], csv_lines: list[str] | None = None) -> Iterator[str]:
    """``json_text(traces_to_doc(traces))`` in pieces, from the traces; with
    ``csv_lines`` a list, the lines of ``traces_csv(traces)`` are appended to
    it as the pieces are made, each value formatted once for both.

    Ids and outcomes must be ``str`` and numbers ``float`` or ``int`` (or
    ``None`` where ``TuneIteration`` allows it): each number is written as its
    unchecked ``str``, so a value of another type may not match ``traces_to_doc``."""
    def item(trace) -> str:
        if csv_lines is not None:
            jid, outcome = _csv_field(trace.junction_id), _csv_field(trace.outcome)
        texts = []
        for k, it in enumerate(trace.iterations):
            recipe, shift = it.recipe, it.sampled_shift
            measured, inferred = str(it.measured_r), str(it.inferred_f / 1e9)
            power, exposure = ("", "null") if recipe is None else (
                str(recipe.power), _number(recipe.exposure))
            shift = "" if shift is None else str(shift)
            if csv_lines is not None:
                csv_lines.append(f"{jid},{k},{measured},{inferred},{power},{shift},{outcome}\n")
            texts.append(
                f'{{\n          "exposure_s": {exposure},\n'
                f'          "inferred_f_ghz": {_WORDS(inferred, inferred)},\n'
                f'          "measured_r_ohm": {_WORDS(measured, measured)},\n'
                f'          "power_mw": {_WORDS(power, power) or "null"},\n'
                f'          "sampled_shift": {_WORDS(shift, shift) or "null"}\n        }}'
            )
        return (
            f'{{\n      "f_target_ghz": {_number(trace.target_f / 1e9)},\n'
            f'      "final_resistance_ohm": {_number(trace.final_resistance)},\n'
            f'      "iterations": {_nested(texts)},\n      "junction_id": {_text(trace.junction_id)},\n'
            f'      "n_anneals": {trace.n_anneals},\n      "outcome": {_text(trace.outcome)}\n    }}'
        )

    if csv_lines is not None:
        csv_lines.append(
            "junction_id,iteration,measured_r_ohm,inferred_f_ghz,power_mw,sampled_shift,outcome\n")
    shell = {"summary": traces_summary(traces), "traces": None}
    yield from _json_list(shell, "traces", map(item, traces))


def traces_csv(traces: Sequence[TuneTrace]) -> str:
    """The iterations as CSV, a line each."""
    return _csv_text(traces_json, traces)
