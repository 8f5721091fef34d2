"""Invariants of the twin over drawn inputs, driven through the CLI.

Every junction's random stream is keyed by its id, so its result must not
depend on which other junctions a run lists, or in what order. A plan's
shots compose to the shift it asks for, and a noise-free tune never
overshoots its target. ``plan`` and ``tune`` end with an exit code of the
contract, never an exception, across the whole float range of their inputs.
``fit dose`` and ``fit displacement`` recover the curve the twin's own dose
formulas draw.
``fit barrier``, ``fit stark`` and ``fit aging`` recover the parameters of the
twin's barrier, Stark and aging formulas from noise-free data.
"""

import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import jjtune as jt
import jjtune.io as jio
from jjtune import dose
from jjtune.cli import main


def _tune(directory: Path, wafer: str, plan_doc: dict) -> dict:
    """Each junction's trace from ``tune`` on ``plan_doc``, by junction id."""
    plan = directory / "plan.json"
    jio.write_json(str(plan), plan_doc)
    out = directory / "out"
    with redirect_stdout(StringIO()):
        assert main(["--seed", "7", "--output", str(out), "tune", wafer, str(plan)]) == 0
    traces = json.loads((out / "traces.json").read_text())["traces"]
    return {trace["junction_id"]: trace for trace in traces}


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """A 30-junction wafer planned 20-150 MHz down, its plan and its full tune."""
    directory = tmp_path_factory.mktemp("campaign")
    wafer = jt.synthesize_wafer("W", 5, 6, 50.0, 7781.0, 0.01, seed=3)
    wpath = str(directory / "wafer.json")
    jio.write_json(wpath, jio.wafer_to_doc(wafer))
    ids = sorted(j.id for j in wafer.junctions)
    by_id = {j.id: j for j in wafer.junctions}
    targets = {
        jid: (jt.qubit_frequency(by_id[jid].resistance) - (20e6 + 130e6 * k / (len(ids) - 1))) / 1e9
        for k, jid in enumerate(ids)
    }
    tpath = directory / "targets.json"
    jio.write_json(str(tpath), {"targets_ghz": targets})
    ppath = directory / "plan.json"
    with redirect_stdout(StringIO()):
        assert main(["--output", str(ppath), "plan", wpath, str(tpath)]) == 0
    plan_doc = json.loads(ppath.read_text())
    full = _tune(directory / "full", wpath, plan_doc)
    assert all(trace["n_anneals"] > 0 for trace in full.values())
    return wpath, plan_doc, full


@given(st.data())
def test_tune_trace_does_not_depend_on_plan_order_or_subset(campaign, data):
    wpath, plan_doc, full = campaign
    entries = data.draw(st.permutations(plan_doc["junctions"]))
    entries = entries[: data.draw(st.integers(1, len(entries)))]
    with tempfile.TemporaryDirectory() as directory:
        traces = _tune(Path(directory), wpath, {**plan_doc, "junctions": entries})
    assert list(traces) == [entry["id"] for entry in entries]
    for jid, trace in traces.items():
        assert trace == full[jid], jid


def _simulate(directory: Path, wafer_doc: dict, recipe: str) -> dict:
    """Each junction's row from ``simulate-wafer`` on ``wafer_doc``, by id:
    the report.json entry and the report.csv line."""
    wafer = directory / "wafer.json"
    jio.write_json(str(wafer), wafer_doc)
    out = directory / "out"
    with redirect_stdout(StringIO()):
        assert main(["--seed", "11", "--output", str(out), "simulate-wafer", str(wafer), recipe]) == 0
    entries = json.loads((out / "report.json").read_text())["junctions"]
    lines = (out / "report.csv").read_text().splitlines()[1:]
    assert [line.split(",")[0] for line in lines] == [entry["id"] for entry in entries]
    return {entry["id"]: (entry, line) for entry, line in zip(entries, lines)}


@pytest.fixture(scope="module")
def batch(tmp_path_factory):
    """A 6x7 wafer, its recipe file and its full simulate-wafer rows."""
    directory = tmp_path_factory.mktemp("batch")
    wafer_doc = jio.wafer_to_doc(jt.synthesize_wafer("W", 6, 7, 50.0, 7781.0, 0.01, seed=5))
    recipe = directory / "recipe.json"
    jio.write_json(str(recipe), jio.recipe_to_doc(jt.DEFAULT_RECIPE))
    full = _simulate(directory / "full", wafer_doc, str(recipe))
    assert {entry["qc_status"] for entry, _ in full.values()} == {"passed", "excluded"}
    return wafer_doc, str(recipe), full


@given(st.data())
def test_simulate_wafer_row_does_not_depend_on_the_other_junctions(batch, data):
    wafer_doc, recipe, full = batch
    junctions = data.draw(st.permutations(wafer_doc["junctions"]))
    junctions = junctions[: data.draw(st.integers(1, len(junctions)))]
    with tempfile.TemporaryDirectory() as directory:
        rows = _simulate(Path(directory), {**wafer_doc, "junctions": junctions}, recipe)
    assert sorted(rows) == sorted(junction["id"] for junction in junctions)
    for jid, row in rows.items():
        assert row == full[jid], jid


# Up to six junctions 6-9 kohm (6.7-5.4 GHz), each with a target 0-300 MHz
# below its frequency: every such plan fits the default 16-shot budget.
_junction_targets = st.lists(
    st.tuples(st.floats(6000.0, 9000.0), st.floats(0.0, 300e6)), min_size=1, max_size=6
)


def _drawn_wafer(directory: Path, draws: list) -> tuple[str, dict]:
    """The wafer file of ``draws`` (resistance, downshift) and each id's target in GHz."""
    junctions = tuple(
        jt.JunctionRecord(id=f"W-J{k}", design_xy=(50.0 * k, 0.0), area=0.1, resistance=r)
        for k, (r, _) in enumerate(draws)
    )
    wafer = jt.WaferLayout(wafer_id="W", rows=1, cols=len(draws), pitch=50.0,
                           junctions=junctions)
    wpath = str(directory / "wafer.json")
    jio.write_json(wpath, jio.wafer_to_doc(wafer))
    targets = {
        j.id: (jt.qubit_frequency(j.resistance) - down) / 1e9
        for j, (_, down) in zip(junctions, draws)
    }
    return wpath, targets


@given(_junction_targets)
def test_plan_shots_compose_to_the_required_shift(draws):
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        wpath, targets = _drawn_wafer(directory, draws)
        tpath = directory / "targets.json"
        jio.write_json(str(tpath), {"targets_ghz": targets})
        ppath = directory / "plan.json"
        with redirect_stdout(StringIO()):
            assert main(["--output", str(ppath), "plan", wpath, str(tpath)]) == 0
        entries = json.loads(ppath.read_text())["junctions"]
    assert len(entries) == len(draws)
    for entry in entries:
        recipes = [jio.recipe_from_doc(shot) for shot in entry["shots"]]
        composed = math.prod(1.0 + jt.mean_shift(recipe) for recipe in recipes) - 1.0
        assert abs(composed - entry["required_shift_frac"]) <= 1e-12, entry["id"]


@given(_junction_targets)
def test_noise_free_tune_never_overshoots(draws):
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        wpath, targets = _drawn_wafer(directory, draws)
        plan = directory / "plan.json"
        jio.write_json(str(plan), {"junctions": [
            {"id": jid, "f_target_ghz": target} for jid, target in targets.items()
        ]})
        out = directory / "out"
        with redirect_stdout(StringIO()):
            assert main(["--seed", "0", "--output", str(out), "tune", wpath, str(plan),
                         "--measurement-noise-sigma", "0", "--shot-noise-sigma", "0"]) == 0
        traces = json.loads((out / "traces.json").read_text())["traces"]
    assert len(traces) == len(draws)
    for trace in traces:
        assert trace["outcome"] != "overshoot", trace["junction_id"]


def _decades(low: int, high: int):
    """Floats 10**e for e drawn from [low, high]: every scale alike."""
    return st.floats(low, high).map(lambda exponent: 10.0 ** exponent)


# Resistances from below the frequency map's domain (e^2 * R underflows under
# ~9.6e-287 ohm) to past its zero-frequency bound (3.86e6 ohm); targets from
# 1e-300 GHz to past the map's top (~2e178 GHz) and the float range.
@given(st.lists(st.tuples(_decades(-300, 7), _decades(-300, 300)), min_size=1, max_size=3),
       _decades(-300, 300))
def test_plan_and_tune_exit_by_the_contract_across_the_float_range(draws, tolerance):
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        junctions = tuple(
            jt.JunctionRecord(id=f"W-J{k}", design_xy=(50.0 * k, 0.0), area=0.1, resistance=r)
            for k, (r, _) in enumerate(draws)
        )
        wafer = str(directory / "wafer.json")
        jio.write_json(wafer, jio.wafer_to_doc(jt.WaferLayout(
            wafer_id="W", rows=1, cols=len(draws), pitch=50.0, junctions=junctions)))
        targets = {j.id: target for j, (_, target) in zip(junctions, draws)}
        tpath, ppath = directory / "targets.json", directory / "plan.json"
        jio.write_json(str(tpath), {"targets_ghz": targets})
        jio.write_json(str(ppath), {"junctions": [
            {"id": jid, "f_target_ghz": target} for jid, target in targets.items()
        ]})
        err = StringIO()
        with redirect_stdout(StringIO()), redirect_stderr(err):
            codes = [
                main(["--output", str(directory / "planned.json"), "plan", wafer, str(tpath)]),
                main(["--seed", "0", "--output", str(directory / "out"), "tune", wafer,
                      str(ppath), "--tolerance", repr(tolerance)]),
            ]
    assert set(codes) <= {0, 2, 3}, codes
    lines = err.getvalue().splitlines()
    assert len(lines) == sum(code != 0 for code in codes), lines
    assert all(line.startswith(("input error: ", "infeasible: ")) for line in lines), lines


def _fit(kind: str, header: str, points) -> dict:
    """``fit kind``'s report on a CSV of the (x, y) points as float reprs; it must exit 0."""
    with tempfile.TemporaryDirectory() as name:
        data, out = Path(name) / "data.csv", Path(name) / "fit.json"
        data.write_text(header + "\n" + "".join(f"{x!r},{y!r}\n" for x, y in points))
        with redirect_stdout(StringIO()):
            assert main(["--output", str(out), "fit", kind, str(data)]) == 0
        return json.loads(out.read_text())


# `fit dose` fits the numpy copy of the dose curve in dose.fit_dose_curve; noise-free
# data drawn with dose's scalar formulas must give back the parameters that drew it.
@given(st.floats(0.005, 0.05), st.floats(10.0, 80.0))
def test_fit_dose_recovers_the_saturation_curve(plateau, t0):
    response = dose.DoseResponseParams(plateau_m=plateau, char_temperature_t0=t0)
    powers = [2.0 + 47.5 * k / 11 for k in range(12)]  # below the 50 mW ceiling
    doc = _fit("dose", "power_mw,shift_frac", [
        (p, dose.mean_shift_vs_temperature(dose.junction_temperature(p), response))
        for p in powers])
    assert doc["params"] == pytest.approx({
        "plateau_m": plateau, "depth_b": response.depth_b, "char_temperature_t0_c": t0,
    }, rel=1e-6)


@given(st.floats(0.5, 2.0), st.floats(5e-4, 1e-2), st.floats(2.0, 40.0))
def test_fit_displacement_recovers_the_transfer_curve(amplitude, offset, d0):
    params = dose.DisplacementParams(transfer_amp_a=amplitude, transfer_offset_b=offset,
                                     decay_d0=d0)
    displacements = [2.0 * k for k in range(16)]  # 0 to 30 um
    doc = _fit("displacement", "displacement_um,response_frac", [
        (d, dose.displacement_response(d, params=params)) for d in displacements])
    # The fit's scale is the response's scale times A; its offset is B / A.
    scale = dose.displacement_response(0.0) / (
        dose.absorption_fraction(0.0) * dose.heat_transfer_factor(0.0))
    assert doc["params"] == pytest.approx({
        "scale": scale * amplitude, "decay_d0_um": d0, "transfer_offset_b": offset / amplitude,
    }, rel=1e-6)


def _fit_rows(kind: str, header: str, rows) -> dict:
    """``fit kind``'s report on a CSV of the rows, floats as reprs; it must exit 0."""
    with tempfile.TemporaryDirectory() as name:
        data, out = Path(name) / "data.csv", Path(name) / "fit.json"
        data.write_text(header + "\n" + "".join(
            ",".join(v if isinstance(v, str) else repr(v) for v in row) + "\n" for row in rows))
        with redirect_stdout(StringIO()):
            assert main(["--output", str(out), "fit", kind, str(data)]) == 0
        return json.loads(out.read_text())


@given(st.lists(st.floats(1.0, 2.0), min_size=8, max_size=8, unique=True),
       st.lists(st.floats(0.05, 0.5), min_size=8, max_size=8))
def test_fit_barrier_recovers_the_barrier_model(thicknesses, areas):
    doc = _fit_rows("barrier", "thickness_nm,area_um2,resistance_ohm", [
        (t, a, jt.barrier_resistance(t, a)) for t, a in zip(thicknesses, areas)])
    assert doc["params"] == pytest.approx({
        "prefactor_ohm_um2": jt.DEFAULT_BARRIER.prefactor,
        "tau_barrier_nm": jt.DEFAULT_BARRIER.tau_barrier,
    }, rel=1e-6)


@given(st.floats(50e6, 900e6), st.sampled_from([-1, 1]))
def test_fit_stark_recovers_the_conversion_on_either_tone_side(conversion, sign):
    cal = jt.StarkCalibration(conv_a_neg=conversion, conv_a_pos=conversion)
    amplitudes = [0.0125 * k for k in range(1, 9)]
    doc = _fit_rows("stark", "amplitude,shift_mhz", [
        (amp, jt.stark_shift(amp, cal, sign) / 1e6) for amp in amplitudes])
    assert doc["params"]["conv_a_mhz"] == pytest.approx(conversion / 1e6, rel=1e-6)


# Where B is too small for the sampled days to show tau (at B = 0 they show
# none), the fit reports tau as unidentifiable, with a standard error above
# its value, as fit_aging_samples documents; A and B still hold to 1e-9.
@given(st.floats(-0.05, 0.05), st.floats(-0.05, 0.05), st.floats(1.0, 60.0))
def test_fit_aging_recovers_the_storage_curve(final, depth, tau):
    params = jt.AgingParams(final_shift_a=final, depth_b=depth, tau_days=tau)
    days = [8.0 * k for k in range(16)]  # 0 to 120 d
    doc = _fit_rows("aging", "junction_id,day,resistance_ohm,cohort,wafer,r0_ohm", [
        ("J1", d, 7781.0 * (1.0 + jt.aging_shift(d, params)), "annealed", "W1", 7781.0)
        for d in days])
    fitted = doc["params"]
    assert [fitted["final_shift_a"], fitted["depth_b"]] == pytest.approx([final, depth],
                                                                         rel=1e-6, abs=1e-9)
    if doc["std_errors"]["tau_days"] <= fitted["tau_days"]:
        assert fitted["tau_days"] == pytest.approx(tau, rel=1e-6)
