"""Every ``fit`` CSV of drawn cells ends by the CLI contract.

A dose, displacement, barrier, Stark or aging CSV of 0-6 rows, with cells
drawn from a pool of signed zeros, subnormals, values near the float range's
ends and ordinary values, must exit 0, 2, 3 or 4 with at most one line on
stderr and no warning. A report written for exit 0 or 4 holds no NaN, and
an infinity only among the standard errors.
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


def _finite_or_std_inf(doc: dict) -> bool:
    """No NaN anywhere, and an infinity only among ``std_errors``."""
    for key, value in doc.items():
        values = value.values() if isinstance(value, dict) else [value]
        for v in values:
            if isinstance(v, float) and not (math.isfinite(v) or (key == "std_errors"
                                                                  and not math.isnan(v))):
                return False
    return True


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
        err = StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stdout(StringIO()), \
                redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["--output", str(out), "fit", kind, str(data)])
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
