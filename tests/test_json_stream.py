"""The streamed JSON writer: ``json.dumps`` bytes, written a block at a time.

``write_json`` encodes a document while it writes it, so no output is ever
held whole. These cases cover what the hypothesis strategies in
``test_io.py`` never draw: long lists of flat dicts, alone and nested, the
memory the writer holds, and errors met after blocks were written.
"""

import json
import random
import tracemalloc

import pytest

import jjtune.io as jio
from jjtune.dose import LasingRecipe
from jjtune.tuner import TuneIteration, TuneTrace
from jjtune.wafer import BatchReport, BatchRow


def _records(n: int, seed: int = 0) -> list[dict]:
    """``n`` flat dicts in the shape of ``report.json``'s junctions, with
    strings that look like the writer's own dict boundaries."""
    rng = random.Random(seed)
    return [
        {
            "id": f"W-J{k:05d}",
            "r_before_ohm": rng.uniform(5e3, 9e3),
            "r_after_ohm": rng.uniform(5e3, 9e3),
            "qc_status": rng.choice(["passed", "excluded", "},\n    {", "é"]),
            "shift_frac": None if k % 7 == 0 else rng.random(),
            "n": k,
            "ok": k % 2 == 0,
            "empty": [] if k % 5 == 0 else {},
        }
        for k in range(n)
    ]


LONG = 3 * 256 + 7


@pytest.mark.parametrize("make", [
    lambda: _records(LONG),
    lambda: {"junctions": _records(LONG), "wafer_id": "W"},
    lambda: {"a": {"b": _records(LONG), "c": [_records(5, 1), _records(LONG, 2), _records(1, 3)]}},
    lambda: [_records(256), _records(256 + 1, 1), _records(2, 2)],
    lambda: {"traces": [{"iterations": _records(LONG, k), "k": k} for k in range(3)]},
], ids=["root", "nested", "deeper", "batch-edges", "in-records"])
def test_long_flat_dict_lists_equal_indented_json_dumps(tmp_path, make):
    doc = make()
    expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    path = tmp_path / "doc.json"
    jio.write_json(str(path), doc)
    assert path.read_bytes() == expected.encode("utf-8")
    assert jio.json_text(doc) == expected


def test_write_json_holds_less_than_half_its_text(tmp_path):
    doc = {"junctions": _records(9000), "wafer_id": "W"}
    size = len(jio.json_text(doc))
    assert size > 2_000_000
    tracemalloc.start()
    try:
        jio.write_json(str(tmp_path / "doc.json"), doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size / 2


def _report(n: int) -> BatchReport:
    rows = tuple(BatchRow(f"W-J{k:05d}", 7781.0 + k / 3, 7800.0 + k / 7, "passed", k / 3e5)
                 for k in range(n))
    return BatchReport("W", rows, 0)


_SHOTS = (LasingRecipe(power=31.5), LasingRecipe(power=12.25))


def _plan_entries(n: int) -> list[tuple]:
    return [(f"W-J{k:05d}", 5.1e9 + k, 5.0e9 + k / 3, k / 7e4, _SHOTS[:k % 3]) for k in range(n)]


def _traces(n: int) -> list[TuneTrace]:
    def iterations(k):
        return (TuneIteration(7781.0 + k, 5.1e9 + k / 3, _SHOTS[0], 0.01 + k / 1e7),
                TuneIteration(7881.0 + k, 5.05e9 + k / 3, _SHOTS[1], 0.002 + k / 1e7),
                TuneIteration(7901.0 + k, 5.0e9 + k / 3, None, None))

    return [TuneTrace(f"W-J{k:05d}", 5.0e9 + k / 9, iterations(k), "converged", 7901.0 + k / 11)
            for k in range(n)]


@pytest.mark.parametrize("render", [
    lambda: jio.batch_report_json(_report(12000)),
    lambda: jio.plan_json("W", _plan_entries(6000)),
    lambda: jio.traces_json(_traces(2500)),
], ids=["report", "plan", "traces"])
def test_record_writers_hold_less_than_half_their_text(tmp_path, render):
    size = len("".join(render()))
    assert size > 1_800_000
    pieces = render()  # the records are made before tracing starts
    tracemalloc.start()
    try:
        jio.atomic_write_text(str(tmp_path / "doc.json"), pieces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size / 2


def test_one_pass_report_writer_holds_less_than_the_joined_csv(tmp_path):
    # Joining the CSV text whole peaks at 2.9 times its size; the one-pass
    # writer holds the report's CSV lines as a list while it streams the JSON.
    report = _report(12000)
    size = len(jio.batch_report_csv(report))
    tracemalloc.start()
    try:
        lines: list[str] = []
        jio.atomic_write_text(str(tmp_path / "report.json"), jio.batch_report_json(report, lines))
        jio.atomic_write_text(str(tmp_path / "report.csv"), lines)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "report.csv").read_text() == jio.batch_report_csv(report)
    assert peak < 2.5 * size


def _late_cycle() -> dict:
    records = _records(3000)
    records[-1]["loop"] = records
    return {"junctions": records}


def _late_object() -> dict:
    records = _records(3000)
    records[-1]["bad"] = object()
    return {"junctions": records}


@pytest.mark.parametrize("make, error, match", [
    (_late_cycle, ValueError, "Circular reference"),
    (_late_object, TypeError, "not JSON serializable"),
])
def test_error_met_mid_stream_leaves_the_target_alone(tmp_path, make, error, match):
    doc = make()
    # Several blocks go to the temp file before the writer meets the bad value.
    assert len(json.dumps(doc["junctions"][:-1], indent=2)) > 2 * jio._BLOCK
    with pytest.raises(error, match=match):
        json.dumps(doc, indent=2, sort_keys=True)
    path = tmp_path / "out.json"
    path.write_text("old\n")
    with pytest.raises(error, match=match):
        jio.write_json(str(path), doc)
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
