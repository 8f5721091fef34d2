"""Each path imports only the jjtune modules it runs.

Every check runs in a fresh interpreter and reads ``sys.modules`` after the
import or the command.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jjtune as jt
import jjtune.io as jio

ROOT = Path(__file__).resolve().parents[1]
REPORT = "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('jjtune'))))"


def _last_line(code, cwd):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded(code, cwd):
    return {name.removeprefix("jjtune.") for name in _last_line(code + REPORT, cwd)}


def _main(*argv):
    return f"from jjtune.cli import main\nassert main({list(argv)!r}) == 0"


def test_package_import_loads_no_submodule(tmp_path):
    assert _loaded("import jjtune", tmp_path) == {"jjtune"}


@pytest.mark.parametrize(
    "code",
    [
        "before = set(dir())\nfrom jjtune import *\nprint(json.dumps(sorted(set(dir()) - before - {'before'})))",
        "import jjtune\nprint(json.dumps(sorted(jjtune.__all__)))",
        "import jjtune\nassert hasattr(jjtune, '__all__')\nprint(json.dumps(sorted(getattr(jjtune, '__all__', None))))",
    ],
    ids=["star-import", "attribute", "hasattr-getattr"],
)
def test_all_is_the_union_before_any_other_lookup(code, tmp_path):
    assert _last_line("import json\n" + code, tmp_path) == sorted(jt.__all__)


def test_cli_import_loads_only_errors_and_io(tmp_path):
    assert _loaded("import jjtune.cli", tmp_path) == {"jjtune", "cli", "errors", "io"}


def test_fit_tls_loads_no_wafer_or_tuning_module(tmp_path):
    model = jt.QubitNoiseModel(
        gamma_1q=2e4, defects=(jt.TlsDefect(f_offset=1e6, coupling_g=8e4, gamma_total=1e6),),
        readout_noise_sigma=0.01,
    )
    offsets = np.arange(-5e6, 5e6, 2.5e5)
    spectro = jt.simulate_map(model, offsets, duration=0.5, step=60.0, wait=40e-6,
                              rng=jt.child_rng(1, "map"))
    jio.atomic_write_text(str(tmp_path / "map.csv"), jio.map_csv(spectro))
    loaded = _loaded(_main("--output", "fit.json", "fit", "tls", "map.csv"), tmp_path)
    assert {"tls", "fitkit"} <= loaded
    assert loaded.isdisjoint({"wafer", "dose", "tuner", "aging", "physics", "streams"})


def test_simulate_wafer_loads_no_fit_module(tmp_path):
    wafer = jt.synthesize_wafer("W1", 2, 2, 50.0, 7781.0, 0.01, seed=3)
    jio.write_json(str(tmp_path / "wafer.json"), jio.wafer_to_doc(wafer))
    jio.write_json(str(tmp_path / "recipe.json"), jio.recipe_to_doc(jt.DEFAULT_RECIPE))
    argv = ("--seed", "1", "--output", "out", "simulate-wafer", "wafer.json", "recipe.json")
    loaded = _loaded(_main(*argv), tmp_path)
    assert "wafer" in loaded
    assert loaded.isdisjoint({"tls", "fitkit", "aging", "tuner"})


def test_fit_dose_loads_the_dose_model_and_the_fit_engine_only(tmp_path):
    rows = "".join(f"{p!r},{jt.mean_shift(jt.LasingRecipe(power=p))!r}\n"
                   for p in (5.0, 10.0, 20.0, 30.0, 40.0, 45.0))
    (tmp_path / "dose.csv").write_text("power_mw,shift_frac\n" + rows)
    loaded = _loaded(_main("--output", "fit.json", "fit", "dose", "dose.csv"), tmp_path)
    assert {"dose", "fitkit"} <= loaded
    assert loaded.isdisjoint({"physics", "tls", "wafer", "tuner", "streams"})


def test_fit_barrier_loads_the_barrier_model_and_the_fit_engine_only(tmp_path):
    rows = "".join(f"{t!r},0.1,{jt.barrier_resistance(t, 0.1)!r}\n" for t in (2.3, 2.4, 2.5, 2.6))
    (tmp_path / "barrier.csv").write_text("thickness_nm,area_um2,resistance_ohm\n" + rows)
    loaded = _loaded(_main("--output", "fit.json", "fit", "barrier", "barrier.csv"), tmp_path)
    assert {"physics", "fitkit"} <= loaded
    assert loaded.isdisjoint({"dose", "tls"})


def test_plan_loads_no_fit_engine(tmp_path):
    wafer = jt.synthesize_wafer("W1", 2, 2, 50.0, 7781.0, 0.01, seed=3)
    jio.write_json(str(tmp_path / "wafer.json"), jio.wafer_to_doc(wafer))
    jio.write_json(str(tmp_path / "targets.json"), {"min_spacing_mhz": 50.0})
    loaded = _loaded(_main("--output", "plan.json", "plan", "wafer.json", "targets.json"), tmp_path)
    assert {"physics", "tuner", "dose"} <= loaded
    assert "fitkit" not in loaded


def _modules(code, cwd):
    """Every module in ``sys.modules`` after ``code``, jjtune's or not."""
    return set(_last_line(code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))", cwd))


def _tls_data():
    model = jt.QubitNoiseModel(
        gamma_1q=2e4, defects=(jt.TlsDefect(f_offset=1e6, coupling_g=8e4, gamma_total=1e6),),
        readout_noise_sigma=0.01,
    )
    spectro = jt.simulate_map(model, np.arange(-5e6, 5e6, 2.5e5), duration=0.5, step=60.0,
                              wait=40e-6, rng=jt.child_rng(1, "map"))
    return jio.map_csv(spectro)


def _dose_data():
    return "power_mw,shift_frac\n" + "".join(
        f"{p!r},{jt.mean_shift(jt.LasingRecipe(power=p))!r}\n" for p in (5.0, 10.0, 20.0, 30.0, 45.0))


def _aging_data():
    params = jt.REFERENCE_COHORTS["wafer1_annealed"]
    return "junction_id,day,resistance_ohm,cohort,wafer\n" + "".join(
        f"J1,{day!r},{7781.0 * (1.0 + jt.aging_shift(day, params))!r},annealed,W1\n"
        for day in (0.0, 5.0, 10.0, 20.0, 30.0))


@pytest.mark.parametrize("kind, data", [("tls", _tls_data), ("dose", _dose_data),
                                        ("aging", _aging_data)], ids=["tls", "dose", "aging"])
def test_fit_loads_no_masked_arrays(tmp_path, kind, data):
    (tmp_path / "data.csv").write_text(data())
    loaded = _modules(_main("--output", "fit.json", "fit", kind, "data.csv"), tmp_path)
    assert "jjtune.fitkit" in loaded
    assert "numpy.ma" not in loaded


def test_plan_loads_no_hashlib(tmp_path):
    wafer = jt.synthesize_wafer("W1", 2, 2, 50.0, 7781.0, 0.01, seed=3)
    jio.write_json(str(tmp_path / "wafer.json"), jio.wafer_to_doc(wafer))
    jio.write_json(str(tmp_path / "targets.json"), {"min_spacing_mhz": 50.0})
    loaded = _modules(_main("--output", "plan.json", "plan", "wafer.json", "targets.json"), tmp_path)
    assert "jjtune.wafer" in loaded
    assert "hashlib" not in loaded and "jjtune.streams" not in loaded
