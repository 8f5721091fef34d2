"""The map reader returns exactly what the original csv reader returned.

``map_reader_oracle`` is a frozen copy of the original cell-by-cell
``read_map_csv``. A drawn map is written with ``repr``, ``%.17g`` or ``%e``
floats, one byte mutation is applied to it, and both readers must give the
same array bytes and shapes, or raise a SchemaError with the same message.
"""

import os
import tempfile
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

import jjtune.io as jio
import map_reader_oracle
from jjtune.cli import main
from jjtune.errors import SchemaError

FORMATS = (repr, "{:.17g}".format, "{:e}".format)
# Offsets stay within +-1e300 MHz: beyond ~1.8e302 they overflow in Hz, where
# the oracle raised StopIteration (pinned below as an input error instead).
OFFSETS = st.floats(min_value=-1e300, max_value=1e300)
CELLS = st.floats(allow_nan=False, allow_infinity=False)
REPLACEMENTS = ("1_0", "١", "", "nan", "inf", "#", "#0.5")
MUTATIONS = ("none", "blank", "trailing", "crlf", "quoted", "padded", "ragged", *REPLACEMENTS)


@st.composite
def map_texts(draw):
    fmt = draw(st.sampled_from(FORMATS))
    n_cols = draw(st.integers(1, 5))
    n_rows = draw(st.integers(1, 4))
    header = ["time_h"] + [fmt(v) for v in draw(st.lists(OFFSETS, min_size=n_cols, max_size=n_cols))]
    lines = [header] + [
        [fmt(v) for v in draw(st.lists(CELLS, min_size=n_cols + 1, max_size=n_cols + 1))]
        for _ in range(n_rows)
    ]
    mutation = draw(st.sampled_from(MUTATIONS))
    row = draw(st.integers(0, n_rows))
    col = draw(st.integers(1 if row == 0 else 0, n_cols))
    cell = lines[row][col]
    if mutation == "quoted":
        lines[row][col] = f'"{cell}"'
    elif mutation == "padded":
        lines[row][col] = f"  {cell} "
    elif mutation == "ragged":
        body = lines[max(row, 1)]
        body[:] = body[:-1] if draw(st.booleans()) else body + ["0.5"]
    elif mutation in REPLACEMENTS:
        lines[row][col] = mutation
    text = [",".join(cells) for cells in lines]
    if mutation == "blank":
        text.insert(draw(st.integers(1, n_rows)), "")
    newline = "\r\n" if mutation == "crlf" else "\n"
    trailing = newline * draw(st.integers(1, 3)) if mutation == "trailing" else newline
    return newline.join(text) + trailing


def _outcome(reader, path):
    try:
        spectro = reader(path)
    except SchemaError as exc:
        return str(exc)
    arrays = (spectro.freq_offsets, spectro.times, spectro.population)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def _write(directory, text):
    path = os.path.join(directory, "map.csv")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    return path


@given(map_texts())
def test_reader_matches_the_csv_oracle(text):
    with tempfile.TemporaryDirectory() as directory:
        path = _write(directory, text)
        assert _outcome(jio.read_map_csv, path) == _outcome(map_reader_oracle.read_map_csv, path)


PLAIN = "time_h,-1.0,1.0\n0.0,0.5,0.25\n0.5,0.75,1e-3\n"
EDGES = (
    "",
    "time_h,-1.0,1.0\n",
    "time_h,-1.0,1.0\n\n0.0,0.5,0.25\n",
    "time_h,-1.0,1.0\n0.0,0.5,0.25\n\n0.5,0.75,1e-3\n",
    "time_h,-1.0,1.0\n0.0,0.5,0.25\n  \n0.5,0.75,1e-3\n",
    PLAIN + "\n",
    PLAIN.replace("\n", "\r"),
    'time_h,-1.0,1.0\n0.0,"0.5",0.25\n',
    "time_h,-1.0,1.0\n0.0,0.5,nan\n",
    "time_h,-1.0,1.0\n0.0,0.5\n",
    "\ufefftime_h,-1.0,1.0\n0.0,0.5,0.25\n",
)


@pytest.mark.parametrize("text", EDGES)
def test_edge_cases_match_the_csv_oracle(tmp_path, text):
    path = _write(str(tmp_path), text)
    assert _outcome(jio.read_map_csv, path) == _outcome(map_reader_oracle.read_map_csv, path)


def _parses_in_numpy(directory, text):
    with open(_write(directory, text), encoding="utf-8", newline="") as handle:
        return jio._numeric_map(handle) is not None


def test_only_a_plain_map_takes_the_numpy_path(tmp_path):
    assert _parses_in_numpy(tmp_path, PLAIN)
    assert _parses_in_numpy(tmp_path, PLAIN.replace("\n", "\r\n"))
    for text in EDGES[:6] + EDGES[7:]:
        assert not _parses_in_numpy(tmp_path, text), text


def test_offset_overflowing_in_hz_is_input_error(tmp_path, capsys):
    path = _write(str(tmp_path), "time_h,1e303,2\n0,0.5,0.5\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--output", str(tmp_path / "fit.json"), "fit", "tls", path]) == 2
    assert [str(w.message) for w in caught] == []
    assert f"{path}:1: map matrix holds a non-finite value" in capsys.readouterr().err
