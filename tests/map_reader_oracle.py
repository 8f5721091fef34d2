"""Frozen reference copy of the original csv ``read_map_csv``.

The production reader in ``jjtune.io`` parses a well-formed map with numpy
and falls back to csv for anything else. For every input it must return
bit-identical arrays to this cell-by-cell reader, or raise the same
SchemaError. Do not edit the code below: it is the oracle.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from jjtune.errors import DomainError, SchemaError
from jjtune.io import _reading
from jjtune.tls import SpectroMap


def read_map_csv(path: str) -> SpectroMap:
    with _reading(path), open(path, "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0][:1] != ["time_h"]:
        raise SchemaError(f"{path}: expected a map CSV with a 'time_h' header column")
    try:
        offsets = np.array([float(v) for v in rows[0][1:]]) * 1e6
        times = np.array([float(row[0]) for row in rows[1:]])
        population = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    except (ValueError, IndexError) as exc:
        raise SchemaError(f"{path}: malformed map matrix ({exc})")
    if not (np.isfinite(offsets).all() and np.isfinite(times).all()
            and np.isfinite(population).all()):
        line = next(
            n for n, row in enumerate(rows, start=1)
            if not all(math.isfinite(float(v)) for v in (row[1:] if n == 1 else row))
        )
        raise SchemaError(f"{path}:{line}: map matrix holds a non-finite value")
    try:
        return SpectroMap(freq_offsets=offsets, times=times, population=population)
    except DomainError as exc:
        raise SchemaError(f"{path}: {exc}")
