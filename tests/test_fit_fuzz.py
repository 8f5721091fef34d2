"""Every ``fit`` CSV of drawn cells ends by the CLI contract.

A dose, displacement, barrier, Stark or aging CSV of 0-6 rows, with cells
drawn from a pool of signed zeros, subnormals, values near the float range's
ends and ordinary values, must exit 0, 2, 3 or 4 with at most one line on
stderr and no warning. A report written for exit 0 or 4 holds no NaN, and
an infinity only among the standard errors. So must a ``fit tls`` map CSV
of 0-6 offsets and 1-3 rows drawn from like pools, at a drawn ``--wait-us``.
"""

import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from jjtune.cli import main

EXTREMES = [0.0, 5e-324, 1e-300, 1e300, 1.7e308]
ORDINARY = [0.5, 1.0, 2.0, 2.4, 10.0, 40.0, 100.0, 7781.0, 0.018]
POOL = EXTREMES + ORDINARY + [-v for v in EXTREMES + ORDINARY]

# Each kind's header and the numeric columns a row's drawn cells fill, in order.
HEADERS = {
    "dose": "power_mw,shift_frac",
    "displacement": "displacement_um,response_frac",
    "barrier": "thickness_nm,area_um2,resistance_ohm",
    "stark": "amplitude,shift_mhz",
    "aging": "junction_id,cohort,wafer,day,resistance_ohm,r0_ohm",
}
PREFIXES = {2: "input error: ", 3: "infeasible: ", 4: "fit error: "}


def _csv(kind: str, rows: list) -> str:
    width = HEADERS[kind].count(",") + 1
    lines = [HEADERS[kind]]
    for k, cells in enumerate(rows):
        fields = [f"J{k % 2}", "annealed", "W1"] if kind == "aging" else []
        fields += [repr(v) for v in cells][: width - len(fields)]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def _finite_or_std_inf(doc, std: bool = False) -> bool:
    """No NaN anywhere, and an infinity only among ``std_errors``."""
    if isinstance(doc, dict):
        return all(_finite_or_std_inf(v, std or k == "std_errors") for k, v in doc.items())
    if isinstance(doc, list):
        return all(_finite_or_std_inf(v, std) for v in doc)
    return not isinstance(doc, float) or math.isfinite(doc) or (std and not math.isnan(doc))


def _ends_by_the_contract(argv: list, out: Path) -> None:
    """``main(argv)`` exits 0, 2, 3 or 4 with at most one prefixed stderr line
    and no warning; a report written for exit 0 or 4 is finite but for
    infinite standard errors."""
    err = StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(StringIO()), \
            redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    report = out.read_text() if out.exists() else None
    assert code in (0, 2, 3, 4), code
    assert [str(w.message) for w in caught] == []
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1, lines
    assert all(line.startswith(PREFIXES.get(code, "\0")) for line in lines), (code, lines)
    if code in (0, 4):
        assert report is not None
        assert "NaN" not in report
        assert _finite_or_std_inf(json.loads(report)), report


@settings(max_examples=300)
@given(st.sampled_from(sorted(HEADERS)),
       st.lists(st.lists(st.sampled_from(POOL), min_size=3, max_size=3), max_size=6))
@example("barrier", [[1e-300, 0.1, 100.0], [2e-300, 0.1, 200.0], [3e-300, 0.1, 300.0]])
@example("barrier", [[1.0, 0.1, 100.0], [2.0, 1e300, 1e300], [3.0, 0.1, 300.0]])
@example("barrier", [[1.0, 0.1, 100.0], [1.0000000000000002, 0.1, 200.0], [1.0, 0.1, 300.0]])
@example("stark", [[0.0, 1.7e308, 0.0], [0.0, -1.7e308, 0.0], [5e-324, 0.0, 0.0]])
def test_fit_csv_ends_by_the_contract(kind, rows):
    with tempfile.TemporaryDirectory() as name:
        data, out = Path(name) / "data.csv", Path(name) / "fit.json"
        data.write_text(_csv(kind, rows))
        _ends_by_the_contract(["--output", str(out), "fit", kind, str(data)], out)


OFFSETS_MHZ = [0.0, 5e-324, 1e-300, 1.0, 2.0, 10.0, 1e300, 1.7e308]
OFFSET_POOL = OFFSETS_MHZ + [-v for v in OFFSETS_MHZ]
POPULATIONS = [0.0, 5e-324, 1e-300, 0.4, 0.5, 0.9, 1.0, 1.5, -0.5]


@st.composite
def _maps(draw):
    """(offsets, rows): 0-6 offsets and 1-3 rows of as many populations."""
    offsets = draw(st.lists(st.sampled_from(OFFSET_POOL), max_size=6))
    row = st.lists(st.sampled_from(POPULATIONS), min_size=len(offsets), max_size=len(offsets))
    return offsets, draw(st.lists(row, min_size=1, max_size=3))


@settings(max_examples=300)
@given(_maps(), st.sampled_from([40.0, 1e-3, 1e-300, 1e300]), st.sampled_from([1, 3]))
@example(([-1.7e308, 1.0], [[0.5, 0.5]]), 40.0, 1)
@example(([0.0, 1.0, 2.0], [[1e-300, 1e-300, 1e-300]]), 1e-300, 1)
@example(([1.0, 2.0], [[5e-324, 5e-324]]), 1e-300, 1)
def test_fit_tls_map_ends_by_the_contract(grid, wait_us, max_defects):
    offsets, rows = grid
    lines = [",".join(["time_h", *map(repr, offsets)])]
    lines += [",".join(map(repr, [float(k), *cells])) for k, cells in enumerate(rows)]
    with tempfile.TemporaryDirectory() as name:
        data, out = Path(name) / "map.csv", Path(name) / "defects.json"
        data.write_text("\n".join(lines) + "\n")
        _ends_by_the_contract(["--output", str(out), "fit", "tls", str(data), "--wait-us",
                               repr(wait_us), "--max-defects", str(max_defects)], out)
