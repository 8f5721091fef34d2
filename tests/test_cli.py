"""End-to-end CLI behavior: files in, files out, stable exit codes."""

import csv
import errno
import gc
import json
import math
import os
import pickle
import signal

import numpy as np
import pytest

import jjtune as jt
import jjtune.cli as jcli
import jjtune.io as jio
from jjtune.cli import main
from jjtune.errors import DomainError, InfeasibleError
from jjtune.streams import CHUNK

W1A = jt.REFERENCE_COHORTS["wafer1_annealed"]


def write_wafer(tmp_path, wafer, name="wafer.json"):
    path = tmp_path / name
    jio.write_json(str(path), jio.wafer_to_doc(wafer))
    return str(path)


def write_recipe(tmp_path, recipe=jt.DEFAULT_RECIPE, name="recipe.json"):
    path = tmp_path / name
    jio.write_json(str(path), jio.recipe_to_doc(recipe))
    return str(path)


def report_doc(path):
    with open(path) as fh:
        return json.load(fh)


class TestSimulateWafer:
    def test_happy_path_writes_report(self, tmp_path, capsys):
        wafer = jt.synthesize_wafer("W1", 3, 4, 50.0, 7781.0, 0.01, seed=3)
        out = tmp_path / "out"
        code = main([
            "--seed", "5", "--output", str(out),
            "simulate-wafer", write_wafer(tmp_path, wafer), write_recipe(tmp_path),
        ])
        assert code == 0
        doc = report_doc(out / "report.json")
        assert doc["wafer_id"] == "W1"
        assert doc["n_junctions"] == 12
        assert (out / "report.csv").exists()
        line = capsys.readouterr().out
        assert "W1: 12 junctions" in line

    def test_same_seed_is_byte_identical(self, tmp_path):
        wafer = jt.synthesize_wafer("W1", 3, 4, 50.0, 7781.0, 0.01, seed=3)
        wpath, rpath = write_wafer(tmp_path, wafer), write_recipe(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["--seed", "5", "--output", str(a), "simulate-wafer", wpath, rpath]) == 0
        assert main(["--seed", "5", "--output", str(b), "simulate-wafer", wpath, rpath]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()

    def test_missing_seed_is_input_error(self, tmp_path, capsys):
        wafer = jt.synthesize_wafer("W1", 2, 2, 50.0, 7781.0, 0.01, seed=3)
        code = main([
            "simulate-wafer", write_wafer(tmp_path, wafer), write_recipe(tmp_path),
        ])
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    def test_negative_seed_is_input_error(self, tmp_path, capsys):
        wafer = jt.synthesize_wafer("W1", 2, 2, 50.0, 7781.0, 0.01, seed=3)
        out = tmp_path / "out"
        code = main([
            "--seed", "-1", "--output", str(out),
            "simulate-wafer", write_wafer(tmp_path, wafer), write_recipe(tmp_path),
        ])
        assert code == 2
        assert "--seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_resistance_is_input_error(self, tmp_path, capsys):
        wafer = jt.synthesize_wafer("W1", 2, 2, 50.0, 7781.0, 0.01, seed=3)
        doc = jio.wafer_to_doc(wafer)
        doc["junctions"][1]["resistance_ohm"] = float("nan")
        path = tmp_path / "wafer.json"
        jio.write_json(str(path), doc)
        out = tmp_path / "out"
        code = main([
            "--seed", "1", "--output", str(out), "simulate-wafer", str(path),
            write_recipe(tmp_path),
        ])
        assert code == 2
        assert "junctions[1].resistance_ohm" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_repetitions_is_input_error(self, tmp_path, capsys):
        wafer = jt.synthesize_wafer("W1", 2, 2, 50.0, 7781.0, 0.01, seed=3)
        wpath = write_wafer(tmp_path, wafer)
        for value in ("x", 2.7, 10**400):
            path = tmp_path / "recipe.json"
            jio.write_json(str(path), {"power_mw": 40.0, "exposure_s": 60.0, "repetitions": value})
            assert main(["--seed", "1", "simulate-wafer", wpath, str(path)]) == 2
            assert "recipe.repetitions" in capsys.readouterr().err

    @pytest.mark.parametrize("size, site", [("cols", "col"), ("rows", "row")])
    def test_grid_beyond_float_range_is_input_error(self, tmp_path, capsys, size, site):
        doc = jio.wafer_to_doc(jt.synthesize_wafer("W1", 1, 1, 50.0, 7781.0, 0.01, seed=3))
        doc[size] = 10**400
        doc["junctions"][0][site] = 10**400 - 1
        path = tmp_path / "wafer.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = main(["--seed", "1", "--output", str(out),
                     "simulate-wafer", str(path), write_recipe(tmp_path)])
        assert code == 2
        assert f"wafer.{size}: expected a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_wafer_doc_names_the_field(self, tmp_path, capsys):
        doc = {
            "wafer_id": "W", "rows": 1, "cols": 1, "pitch_um": 50.0,
            "junctions": [{"id": "J0", "row": 0, "col": 0, "area_um2": 0.1}],
        }
        path = tmp_path / "wafer.json"
        jio.write_json(str(path), doc)
        code = main(["--seed", "1", "simulate-wafer", str(path), write_recipe(tmp_path)])
        assert code == 2
        assert "resistance_ohm" in capsys.readouterr().err

    def test_two_junctions_on_one_site_is_input_error(self, tmp_path, capsys):
        wafer = jt.synthesize_wafer("W1", 2, 2, 50.0, 7781.0, 0.01, seed=3)
        doc = jio.wafer_to_doc(wafer)
        doc["junctions"][3].update(row=0, col=1)
        wpath = tmp_path / "wafer.json"
        jio.write_json(str(wpath), doc)
        out = tmp_path / "out"
        code = main(["--seed", "5", "--output", str(out),
                     "simulate-wafer", str(wpath), write_recipe(tmp_path)])
        assert code == 2
        assert "junctions[3]: site (0, 1) already holds a junction" in capsys.readouterr().err
        assert not out.exists()

    def test_over_ceiling_recipe_is_infeasible(self, tmp_path, capsys):
        wafer = jt.synthesize_wafer("W1", 2, 2, 50.0, 7781.0, 0.01, seed=3)
        path = tmp_path / "recipe.json"
        jio.write_json(str(path), {"power_mw": 60.0, "exposure_s": 60.0})
        code = main(["--seed", "1", "simulate-wafer", write_wafer(tmp_path, wafer), str(path)])
        assert code == 3
        assert "infeasible" in capsys.readouterr().err

    def test_resistance_annealed_past_the_float_range_is_named(self, tmp_path, capsys):
        junctions = (
            jt.JunctionRecord(id="W-J0", design_xy=(0.0, 0.0), area=0.1, resistance=7781.0),
            jt.JunctionRecord(id="W-J1", design_xy=(50.0, 0.0), area=0.1, resistance=1.79e308),
        )
        wafer = jt.WaferLayout(wafer_id="W", rows=1, cols=2, pitch=50.0, junctions=junctions)
        out = tmp_path / "out"
        code = main(["--seed", "0", "--output", str(out), "simulate-wafer",
                     write_wafer(tmp_path, wafer), write_recipe(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            "input error: wafer junction 'W-J1': resistance_ohm 1.79e+308 anneals past the "
            "largest float\n"
        )
        assert not out.exists()

    def test_id_with_a_bare_carriage_return_reads_back_from_the_csv(self, tmp_path, capsys):
        junctions = (
            jt.JunctionRecord(id="J\r1", design_xy=(0.0, 0.0), area=0.1, resistance=7781.0),
            jt.JunctionRecord(id="J2", design_xy=(50.0, 0.0), area=0.1, resistance=7821.0),
        )
        wafer = jt.WaferLayout(wafer_id="W", rows=1, cols=2, pitch=50.0, junctions=junctions)
        out = tmp_path / "out"
        assert main(["--seed", "0", "--output", str(out), "simulate-wafer",
                     write_wafer(tmp_path, wafer), write_recipe(tmp_path)]) == 0
        with open(out / "report.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["id", "r_before_ohm", "r_after_ohm", "qc_status", "shift_frac"]
        assert [row[0] for row in rows[1:]] == ["J\r1", "J2"]
        assert all(len(row) == 5 for row in rows)


class TestFit:
    def test_dose_noiseless(self, tmp_path, capsys):
        data = tmp_path / "dose.csv"
        lines = ["power_mw,shift_frac"]
        for p in np.linspace(5, 49, 23):
            mu = jt.mean_shift(jt.LasingRecipe(power=float(p), exposure=60.0))
            lines.append(f"{float(p)!r},{mu!r}")
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fit.json"
        assert main(["--output", str(out), "fit", "dose", str(data)]) == 0
        doc = report_doc(out)
        assert doc["model"] == "dose"
        assert doc["converged"] is True
        assert doc["params"]["plateau_m"] == pytest.approx(0.018, rel=1e-6)
        assert doc["params"]["char_temperature_t0_c"] == pytest.approx(28.0, rel=1e-6)
        assert capsys.readouterr().out.startswith("dose: ")

    def test_barrier_reference_devices(self, tmp_path):
        data = tmp_path / "barrier.csv"
        data.write_text(
            "thickness_nm,area_um2,resistance_ohm\n"
            "2.43,0.0997,7781\n"
            "2.32,0.1679,5249\n"
            "2.44,0.1125,5979\n"
            "2.44,0.1967,13735\n"
            "2.64,0.1835,13867\n"
        )
        out = tmp_path / "fit.json"
        assert main(["--output", str(out), "fit", "barrier", str(data)]) == 0
        doc = report_doc(out)
        assert doc["params"]["prefactor_ohm_um2"] == pytest.approx(0.643911646125145, rel=1e-9)
        assert doc["params"]["tau_barrier_nm"] == pytest.approx(0.31835334206734994, rel=1e-9)
        assert doc["std_errors"]["tau_barrier_nm"] == pytest.approx(0.22927602020780996, rel=1e-6)
        assert doc["converged"] is True

    def test_displacement_noiseless(self, tmp_path):
        data = tmp_path / "disp.csv"
        lines = ["displacement_um,response_frac"]
        for d in np.linspace(0.0, 30.0, 31):
            lines.append(f"{float(d)!r},{jt.displacement_response(float(d))!r}")
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fit.json"
        assert main(["--output", str(out), "fit", "displacement", str(data)]) == 0
        doc = report_doc(out)
        assert doc["params"]["decay_d0_um"] == pytest.approx(9.5, rel=1e-9)
        assert doc["params"]["scale"] == pytest.approx(0.0404207352594069, rel=1e-9)
        assert doc["params"]["transfer_offset_b"] == pytest.approx(0.002, rel=1e-6)

    def test_stark_noiseless(self, tmp_path):
        data = tmp_path / "stark.csv"
        cal = jt.StarkCalibration()
        lines = ["amplitude,shift_mhz"]
        for a in np.linspace(0.01, 0.18, 12):
            lines.append(f"{float(a)!r},{jt.stark_shift(float(a), cal, -1) / 1e6!r}")
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fit.json"
        assert main(["--output", str(out), "fit", "stark", str(data)]) == 0
        doc = report_doc(out)
        assert doc["params"]["conv_a_mhz"] == pytest.approx(432.0, rel=1e-9)

    def _aging_csv(self, tmp_path, cohorts=("annealed",)):
        lines = ["junction_id,day,resistance_ohm,cohort,wafer,r0_ohm"]
        days = np.linspace(0.0, 30.0, 12)
        for cohort in cohorts:
            params = jt.REFERENCE_COHORTS[f"wafer1_{cohort}"]
            for d in days:
                r = 7781.0 * (1.0 + jt.aging_shift(float(d), params))
                lines.append(f"JA-{cohort},{float(d)!r},{float(r)!r},{cohort},W1,7781.0")
        path = tmp_path / "aging.csv"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_aging_noiseless(self, tmp_path):
        out = tmp_path / "fit.json"
        assert main(["--output", str(out), "fit", "aging", self._aging_csv(tmp_path)]) == 0
        doc = report_doc(out)
        assert doc["params"]["final_shift_a"] == pytest.approx(W1A.final_shift_a, rel=1e-6)
        assert doc["params"]["depth_b"] == pytest.approx(W1A.depth_b, rel=1e-6)
        assert doc["params"]["tau_days"] == pytest.approx(W1A.tau_days, rel=1e-6)

    def test_aging_over_a_year_recovers_tau(self, tmp_path):
        # Seeded at a third of the 365-day span, the fit runs tau down to its
        # 1e-6 bound unless it is refitted from the data.
        lines = ["junction_id,day,resistance_ohm,cohort,wafer,r0_ohm"]
        for d in np.linspace(0.0, 365.0, 12).tolist():
            r = 7000.0 * (1.0 + float(jt.aging_shift(d, W1A)))
            lines.append(f"JA,{d!r},{r!r},annealed,W1,7000.0")
        data = tmp_path / "aging.csv"
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fit.json"
        assert main(["--output", str(out), "fit", "aging", str(data)]) == 0
        doc = report_doc(out)
        assert doc["converged"] is True
        assert doc["params"]["tau_days"] == pytest.approx(10.4, rel=1e-6)
        assert doc["params"]["final_shift_a"] == pytest.approx(0.21, rel=1e-6)
        assert doc["params"]["depth_b"] == pytest.approx(0.12, rel=1e-6)

    def test_aging_mixed_cohorts_need_a_filter(self, tmp_path, capsys):
        data = self._aging_csv(tmp_path, cohorts=("annealed", "unannealed"))
        assert main(["--output", str(tmp_path / "f.json"), "fit", "aging", data]) == 2
        assert "mixes cohorts" in capsys.readouterr().err
        out = tmp_path / "fit.json"
        assert main(["--output", str(out), "fit", "aging", data, "--cohort", "annealed"]) == 0
        assert report_doc(out)["params"]["tau_days"] == pytest.approx(W1A.tau_days, rel=1e-6)

    def test_aging_empty_wafer_cell_is_selected_by_an_empty_filter(self, tmp_path, capsys):
        lines = ["junction_id,day,resistance_ohm,cohort,wafer,r0_ohm"]
        for wafer in ("", "W1"):  # the same series under an empty wafer cell and under W1
            for d in np.linspace(0.0, 30.0, 12).tolist():
                r = 7781.0 * (1.0 + jt.aging_shift(d, W1A))
                lines.append(f"JA,{d!r},{r!r},annealed,{wafer},7781.0")
        data = tmp_path / "aging.csv"
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fit.json"
        assert main(["--output", str(out), "fit", "aging", str(data)]) == 2
        assert "mixes cohorts (?:annealed, W1:annealed)" in capsys.readouterr().err
        assert main(["--output", str(out), "fit", "aging", str(data), "--wafer="]) == 0
        assert report_doc(out)["params"]["tau_days"] == pytest.approx(W1A.tau_days, rel=1e-6)

    def test_tls_from_map_csv(self, tmp_path, capsys):
        model = jt.QubitNoiseModel(defects=(jt.TlsDefect(f_offset=7.81e6),))
        sp = jt.simulate_map(
            model, np.linspace(-15e6, 15e6, 61), 2.0, 60.0, 40e-6,
            np.random.default_rng(20260814),
        )
        data = tmp_path / "map.csv"
        data.write_text(jio.map_csv(sp))
        out = tmp_path / "defects.json"
        assert main(["--output", str(out), "fit", "tls", str(data)]) == 0
        doc = report_doc(out)
        assert doc["model"] == "tls"
        assert doc["outcome"] == "persistent defect"
        assert doc["defects"][0]["f_offset_mhz"] == pytest.approx(7.81, abs=0.1)
        assert "persistent defect" in capsys.readouterr().out

    @pytest.mark.parametrize("kind, text, message", [
        ("dose", "power_mw,shift_frac\n10,0.01\n20,nan\n30,0.03\n40,0.04\n",
         ":3: column 'shift_frac' is not a finite number"),
        ("aging", "junction_id,day,resistance_ohm,cohort,wafer\n"
                  "J1,0,7800,annealed,W1\nJ1,10,inf,annealed,W1\n",
         ":3: column 'resistance_ohm' is not a finite number"),
        ("tls", "time_h,-1.0,0.0,1.0\n0.0,0.5,0.5,0.5\n1.0,0.5,nan,0.5\n",
         ":3: map matrix holds a non-finite value"),
    ])
    def test_non_finite_cell_is_input_error(self, tmp_path, capsys, kind, text, message):
        data = tmp_path / "data.csv"
        data.write_text(text)
        out = tmp_path / "fit.json"
        assert main(["--output", str(out), "fit", kind, str(data)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind, text, flags, message", [
        ("displacement", "displacement_um,response_frac\n0,0.01\n-1,0.02\n2,0.01\n3,0.005\n",
         [], "displacement must be non-negative"),
        ("aging", "junction_id,day,resistance_ohm,cohort,wafer,r0_ohm\n"
                  "J1,0,7800,annealed,W1,-5\nJ1,10,7810,annealed,W1,-5\n",
         [], "data.csv:2: column 'r0_ohm' must be positive, got -5.0"),
        ("tls", "time_h,-1.0,0.0,1.0\n0.0,0.5,0.4,0.5\n1.0,0.5,0.4,0.5\n",
         ["--wait-us", "nan"], "wait must be positive and finite"),
        ("tls", "time_h,-1.0,0.0,1.0\n0.0,0.5,0.4,0.5\n1.0,0.5,0.4,0.5\n",
         ["--wait-us", "inf"], "wait must be positive and finite"),
    ])
    def test_out_of_domain_value_is_input_error(self, tmp_path, capsys, kind, text, flags,
                                                message):
        data = tmp_path / "data.csv"
        data.write_text(text)
        out = tmp_path / "fit.json"
        assert main(["--output", str(out), "fit", kind, str(data), *flags]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("r0", ["0", "-0.0", "-7000"])
    def test_aging_non_positive_reference_is_refused_at_its_line(self, tmp_path, capsys, r0):
        # A zero cell must not fall back to the first sample, as an empty one does.
        data = tmp_path / "aging.csv"
        data.write_text("junction_id,day,resistance_ohm,cohort,wafer,r0_ohm\n"
                        "J1,0,7800,annealed,W1,\n"
                        f"J1,10,7810,annealed,W1,{r0}\n"
                        "J1,20,7815,annealed,W1,\n")
        out = tmp_path / "fit.json"
        assert main(["--output", str(out), "fit", "aging", str(data)]) == 2
        err = capsys.readouterr().err
        assert f"aging.csv:3: column 'r0_ohm' must be positive, got {float(r0)}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("resistance", ["0", "-0.0", "-7810"])
    def test_aging_non_positive_resistance_is_refused_at_its_line(self, tmp_path, capsys,
                                                                 resistance):
        data = tmp_path / "aging.csv"
        data.write_text("junction_id,day,resistance_ohm,cohort,wafer\n"
                        "J1,0,7800,annealed,W1\n"
                        f"J1,10,{resistance},annealed,W1\n"
                        "J1,20,7815,annealed,W1\n")
        out = tmp_path / "fit.json"
        assert main(["--output", str(out), "fit", "aging", str(data)]) == 2
        err = capsys.readouterr().err
        assert (f"aging.csv:3: column 'resistance_ohm' must be positive, got {float(resistance)}"
                in err)
        assert not out.exists()

    def test_unknown_kind_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["fit", "sideways", str(tmp_path / "x.csv")])
        assert err.value.code == 2

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


class TestPlan:
    def _spread_wafer(self, tmp_path):
        # two junctions far enough apart that no spacing work is needed
        junctions = (
            jt.JunctionRecord(id="W-J0", design_xy=(0.0, 0.0), area=0.1, resistance=7781.0),
            jt.JunctionRecord(id="W-J1", design_xy=(50.0, 0.0), area=0.1, resistance=8200.0),
        )
        wafer = jt.WaferLayout(wafer_id="W", rows=1, cols=2, pitch=50.0, junctions=junctions)
        return write_wafer(tmp_path, wafer), wafer

    def test_spacing_satisfied_means_no_shots(self, tmp_path):
        wpath, wafer = self._spread_wafer(tmp_path)
        tpath = tmp_path / "targets.json"
        jio.write_json(str(tpath), {"min_spacing_mhz": 50.0})
        out = tmp_path / "plan.json"
        assert main(["--output", str(out), "plan", wpath, str(tpath)]) == 0
        doc = report_doc(out)
        assert doc["wafer_id"] == "W"
        assert len(doc["junctions"]) == 2
        for entry in doc["junctions"]:
            assert entry["required_shift_frac"] == 0.0
            assert entry["shots"] == []
            assert entry["f_target_ghz"] == entry["f_now_ghz"]

    def test_junction_past_the_zero_frequency_bound_is_named(self, tmp_path, capsys):
        junctions = (
            jt.JunctionRecord(id="W-J0", design_xy=(0.0, 0.0), area=0.1, resistance=7781.0),
            jt.JunctionRecord(id="W-J1", design_xy=(50.0, 0.0), area=0.1, resistance=5e6),
        )
        wafer = jt.WaferLayout(wafer_id="W", rows=1, cols=2, pitch=50.0, junctions=junctions)
        wpath = write_wafer(tmp_path, wafer)
        tpath = tmp_path / "targets.json"
        jio.write_json(str(tpath), {"min_spacing_mhz": 50.0})
        out = tmp_path / "plan.json"
        assert main(["--output", str(out), "plan", wpath, str(tpath)]) == 2
        assert capsys.readouterr().err == (
            "input error: wafer junction 'W-J1': resistance_ohm 5e+06 is at or beyond "
            "the zero-frequency bound 3.85839e+06 ohm\n"
        )
        assert not out.exists()
        # The wafer itself is valid: simulating its anneal needs no frequency.
        assert main(["--seed", "0", "--output", str(tmp_path / "sim"), "simulate-wafer", wpath,
                     write_recipe(tmp_path)]) == 0

    def test_explicit_target_94mhz(self, tmp_path):
        wpath, wafer = self._spread_wafer(tmp_path)
        f0 = jt.qubit_frequency(7781.0)
        f1 = jt.qubit_frequency(8200.0)
        tpath = tmp_path / "targets.json"
        jio.write_json(str(tpath), {"targets_ghz": {
            "W-J0": (f0 - 94e6) / 1e9, "W-J1": f1 / 1e9,
        }})
        out = tmp_path / "plan.json"
        assert main(["--output", str(out), "plan", wpath, str(tpath)]) == 0
        entries = {e["id"]: e for e in report_doc(out)["junctions"]}
        assert entries["W-J0"]["required_shift_frac"] == pytest.approx(
            0.0314217338243612, rel=1e-9
        )
        assert len(entries["W-J0"]["shots"]) >= 2      # beyond the single-shot plateau
        assert all(s["power_mw"] < 50.0 for s in entries["W-J0"]["shots"])
        assert entries["W-J1"]["shots"] == []

    def test_upshift_target_is_infeasible(self, tmp_path, capsys):
        wpath, _ = self._spread_wafer(tmp_path)
        f0 = jt.qubit_frequency(7781.0)
        f1 = jt.qubit_frequency(8200.0)
        tpath = tmp_path / "targets.json"
        jio.write_json(str(tpath), {"targets_ghz": {
            "W-J0": (f0 + 50e6) / 1e9, "W-J1": f1 / 1e9,
        }})
        assert main(["--output", str(tmp_path / "p.json"), "plan", wpath, str(tpath)]) == 3
        assert "shifts frequency down" in capsys.readouterr().err

    def test_incomplete_target_mapping(self, tmp_path, capsys):
        wpath, _ = self._spread_wafer(tmp_path)
        tpath = tmp_path / "targets.json"
        jio.write_json(str(tpath), {"targets_ghz": {"W-J0": 5.7}})
        assert main(["--output", str(tmp_path / "p.json"), "plan", wpath, str(tpath)]) == 2
        assert "W-J1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400])
    def test_non_finite_target_is_input_error(self, tmp_path, capsys, value):
        wpath, wafer = self._spread_wafer(tmp_path)
        tpath = tmp_path / "targets.json"
        tpath.write_text(json.dumps({"targets_ghz": {"W-J0": 5.0, "W-J1": value}}))
        out = tmp_path / "p.json"
        assert main(["--output", str(out), "plan", wpath, str(tpath)]) == 2
        assert "targets.targets_ghz.W-J1: expected a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--exposure-s", "nan"], "exposure must be positive and finite"),
        (["--exposure-s", "inf"], "exposure must be positive and finite"),
        (["--max-shots", "0"], "max_shots must be at least 1"),
    ])
    def test_bad_shot_flag_is_input_error(self, tmp_path, capsys, flags, message):
        wpath, _ = self._spread_wafer(tmp_path)
        tpath = tmp_path / "targets.json"
        jio.write_json(str(tpath), {"targets_ghz": {
            "W-J0": (jt.qubit_frequency(7781.0) - 20e6) / 1e9,
            "W-J1": jt.qubit_frequency(8200.0) / 1e9,
        }})
        out = tmp_path / "p.json"
        assert main(["--output", str(out), "plan", wpath, str(tpath), *flags]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("exposure, achievable", [("1e-17", "0"), ("1e-9", "1.86365e-10")])
    def test_tiny_exposure_is_infeasible(self, tmp_path, capsys, exposure, achievable):
        # The shot count is checked before any shot is built: at 1e-9 s the
        # plan would need 1.7e9 default-power shots, and a zero per-shot
        # shift used to divide by zero.
        wpath, _ = self._spread_wafer(tmp_path)
        tpath = tmp_path / "targets.json"
        jio.write_json(str(tpath), {"targets_ghz": {
            "W-J0": (jt.qubit_frequency(7781.0) - 60e6) / 1e9,
            "W-J1": jt.qubit_frequency(8200.0) / 1e9,
        }})
        out = tmp_path / "p.json"
        argv = ["--output", str(out), "plan", wpath, str(tpath), "--exposure-s", exposure]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("infeasible: shift 0.0198876 needs ")
        assert err.endswith(f"shots (> 16); achievable within budget: {achievable}\n")
        assert not out.exists()

    @pytest.mark.parametrize("exposure, max_shots, count", [
        ("1.6906e-4", "10001", "10001"),
        # The plan would list 1.7e9 shots, a tuple of ~13.6 GB.
        ("1e-9", "2000000000", "1690652305"),
    ])
    def test_plan_past_the_shot_bound_is_infeasible(self, tmp_path, capsys, exposure,
                                                    max_shots, count):
        wpath, _ = self._spread_wafer(tmp_path)
        tpath = tmp_path / "targets.json"
        jio.write_json(str(tpath), {"targets_ghz": {
            "W-J0": (jt.qubit_frequency(7781.0) - 60e6) / 1e9,
            "W-J1": jt.qubit_frequency(8200.0) / 1e9,
        }})
        out = tmp_path / "p.json"
        argv = ["--output", str(out), "plan", wpath, str(tpath),
                "--exposure-s", exposure, "--max-shots", max_shots]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"infeasible: shift 0.0198876 needs {count} shots, more than the 10000 "
            "one plan may list\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("exposure, max_shots, count", [
        ("1.6908e-4", "10001", 10000),
        ("60", "5000", 2),
    ])
    def test_plan_within_the_shot_bound_is_built(self, tmp_path, capsys, exposure,
                                                 max_shots, count):
        wpath, _ = self._spread_wafer(tmp_path)
        tpath = tmp_path / "targets.json"
        jio.write_json(str(tpath), {"targets_ghz": {
            "W-J0": (jt.qubit_frequency(7781.0) - 60e6) / 1e9,
            "W-J1": jt.qubit_frequency(8200.0) / 1e9,
        }})
        out = tmp_path / "p.json"
        argv = ["--output", str(out), "plan", wpath, str(tpath),
                "--exposure-s", exposure, "--max-shots", max_shots]
        assert main(argv) == 0
        shots = {e["id"]: e["shots"] for e in jio.load_json(str(out))["junctions"]}
        assert (len(shots["W-J0"]), shots["W-J1"]) == (count, [])

    def test_non_finite_spacing_is_input_error(self, tmp_path, capsys):
        wpath, _ = self._spread_wafer(tmp_path)
        tpath = tmp_path / "targets.json"
        tpath.write_text(json.dumps({"min_spacing_mhz": float("nan")}))
        assert main(["--output", str(tmp_path / "p.json"), "plan", wpath, str(tpath)]) == 2
        assert "min_spacing_mhz: expected a finite" in capsys.readouterr().err

    def test_targets_without_either_key(self, tmp_path, capsys):
        wpath, _ = self._spread_wafer(tmp_path)
        tpath = tmp_path / "targets.json"
        jio.write_json(str(tpath), {"spacing": 1.0})
        assert main(["--output", str(tmp_path / "p.json"), "plan", wpath, str(tpath)]) == 2
        assert "targets_ghz or min_spacing_mhz" in capsys.readouterr().err

    @pytest.mark.parametrize("targets, message", [
        (5, "targets: expected an object"),
        ("targets_ghz", "targets: expected an object"),
        (["targets_ghz"], "targets: expected an object"),
        ({"min_spacing_mhz": 50.0, "targets_ghz": {"W-J0": 5.83, "W-J1": 5.69}},
         "targets: need exactly one of targets_ghz or min_spacing_mhz"),
    ])
    def test_targets_shape_is_input_error(self, tmp_path, capsys, targets, message):
        wpath, _ = self._spread_wafer(tmp_path)
        tpath = tmp_path / "targets.json"
        tpath.write_text(json.dumps(targets))
        out = tmp_path / "p.json"
        assert main(["--output", str(out), "plan", wpath, str(tpath)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestTune:
    def _setup(self, tmp_path):
        junctions = (
            jt.JunctionRecord(id="W-J0", design_xy=(0.0, 0.0), area=0.1, resistance=7781.0),
        )
        wafer = jt.WaferLayout(wafer_id="W", rows=1, cols=1, pitch=50.0, junctions=junctions)
        wpath = write_wafer(tmp_path, wafer)
        f0 = jt.qubit_frequency(7781.0)
        plan = {"junctions": [{"id": "W-J0", "f_target_ghz": (f0 - 94e6) / 1e9}]}
        ppath = tmp_path / "plan.json"
        jio.write_json(str(ppath), plan)
        return wpath, str(ppath)

    def test_tune_writes_traces(self, tmp_path, capsys):
        wpath, ppath = self._setup(tmp_path)
        out = tmp_path / "out"
        code = main(["--seed", "3", "--output", str(out), "tune", wpath, ppath])
        assert code == 0
        doc = report_doc(out / "traces.json")
        assert doc["summary"]["n_junctions"] == 1
        assert doc["summary"]["n_converged"] == 1
        assert doc["traces"][0]["junction_id"] == "W-J0"
        assert "tuned 1: 1 converged" in capsys.readouterr().out

    def test_zero_noise_makes_seed_irrelevant(self, tmp_path):
        wpath, ppath = self._setup(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        flags = [
            "tune", wpath, ppath,
            "--measurement-noise-sigma", "0", "--shot-noise-sigma", "0",
        ]
        assert main(["--seed", "1", "--output", str(a)] + flags) == 0
        assert main(["--seed", "2", "--output", str(b)] + flags) == 0
        assert (a / "traces.json").read_bytes() == (b / "traces.json").read_bytes()

    def test_csv_format_adds_csv_trace(self, tmp_path):
        wpath, ppath = self._setup(tmp_path)
        out = tmp_path / "out"
        assert main([
            "--seed", "3", "--output", str(out), "--format", "csv", "tune", wpath, ppath,
        ]) == 0
        text = (out / "traces.csv").read_text()
        assert text.splitlines()[0].startswith("junction_id,iteration,")

    def test_negative_seed_is_input_error(self, tmp_path, capsys):
        wpath, ppath = self._setup(tmp_path)
        out = tmp_path / "out"
        assert main(["--seed", "-3", "--output", str(out), "tune", wpath, ppath]) == 2
        assert "--seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("plan, message", [
        ({"junctions": ["W-J0"]}, "plan.junctions[0]: expected an object"),
        ([], "plan.junctions: missing or not a list"),
        ({"junctions": [{"id": [1], "f_target_ghz": 5.0}]}, "plan.junctions[0].id: expected str"),
        ({"junctions": [{"id": {}, "f_target_ghz": 5.0}]}, "plan.junctions[0].id: expected str"),
    ])
    def test_plan_shape_is_input_error(self, tmp_path, capsys, plan, message):
        wpath, _ = self._setup(tmp_path)
        ppath = tmp_path / "bad_plan.json"
        ppath.write_text(json.dumps(plan))
        assert main(["--seed", "3", "tune", wpath, str(ppath)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("-inf")])
    def test_non_finite_plan_target_is_input_error(self, tmp_path, capsys, value):
        wpath, _ = self._setup(tmp_path)
        ppath = tmp_path / "bad_plan.json"
        ppath.write_text(json.dumps({"junctions": [{"id": "W-J0", "f_target_ghz": value}]}))
        out = tmp_path / "out"
        assert main(["--seed", "3", "--output", str(out), "tune", wpath, str(ppath)]) == 2
        assert "plan.junctions[0].f_target_ghz: expected a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [
        "--tolerance", "--step-fraction", "--measurement-noise-sigma", "--shot-noise-sigma",
    ])
    def test_non_finite_policy_is_input_error(self, tmp_path, capsys, flag):
        wpath, ppath = self._setup(tmp_path)
        out = tmp_path / "out"
        assert main(["--seed", "3", "--output", str(out), "tune", wpath, ppath, flag, "nan"]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_resistance_reading_is_input_error(self, tmp_path, capsys):
        # At sigma 10 the first reading R * (1 + sigma * eps) is negative for seed 3.
        wpath, ppath = self._setup(tmp_path)
        out = tmp_path / "out"
        assert main(["--seed", "3", "--output", str(out), "tune", wpath, ppath,
                     "--measurement-noise-sigma", "10"]) == 2
        assert capsys.readouterr().err.startswith(
            "input error: measurement noise sigma 10 gave a non-positive resistance reading of -"
        )
        assert not out.exists()

    def test_noisy_estimate_past_zero_frequency_bound_names_the_noise(self, tmp_path, capsys):
        # At sigma 1000 the fused estimate of seed 8 lies past the zero-frequency bound.
        wpath, ppath = self._setup(tmp_path)
        out = tmp_path / "out"
        assert main(["--seed", "8", "--output", str(out), "tune", wpath, ppath,
                     "--measurement-noise-sigma", "1000"]) == 2
        assert capsys.readouterr().err == (
            "input error: fused resistance estimate 6.21889e+06 ohm at measurement noise "
            "sigma 1000 is at or beyond the zero-frequency bound 3.85839e+06 ohm\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("noise", [[], ["--measurement-noise-sigma", "0"]])
    def test_junction_past_the_zero_frequency_bound_is_named(self, tmp_path, capsys, noise):
        junctions = (
            jt.JunctionRecord(id="W-J0", design_xy=(0.0, 0.0), area=0.1, resistance=7781.0),
            jt.JunctionRecord(id="W-J1", design_xy=(50.0, 0.0), area=0.1, resistance=5e6),
        )
        wafer = jt.WaferLayout(wafer_id="W", rows=1, cols=2, pitch=50.0, junctions=junctions)
        wpath = write_wafer(tmp_path, wafer)
        ppath = tmp_path / "plan.json"
        jio.write_json(str(ppath), {"junctions": [{"id": "W-J0", "f_target_ghz": 5.0},
                                                  {"id": "W-J1", "f_target_ghz": 5.0}]})
        out = tmp_path / "out"
        assert main(["--seed", "3", "--output", str(out), "tune", wpath, str(ppath), *noise]) == 2
        assert capsys.readouterr().err == (
            "input error: wafer junction 'W-J1': resistance_ohm 5e+06 is at or beyond "
            "the zero-frequency bound 3.85839e+06 ohm\n"
        )
        assert not out.exists()

    def test_plan_with_unknown_junction(self, tmp_path, capsys):
        wpath, _ = self._setup(tmp_path)
        plan = {"junctions": [{"id": "W-J9", "f_target_ghz": 5.0}]}
        ppath = tmp_path / "bad_plan.json"
        jio.write_json(str(ppath), plan)
        assert main(["--seed", "3", "tune", wpath, str(ppath)]) == 2
        assert "not on the wafer" in capsys.readouterr().err

    def test_plan_listing_a_junction_twice(self, tmp_path, capsys):
        wpath, ppath = self._setup(tmp_path)
        entry = report_doc(ppath)["junctions"][0]
        jio.write_json(ppath, {"junctions": [entry, entry]})
        out = tmp_path / "out"
        assert main(["--seed", "3", "--output", str(out), "tune", wpath, ppath]) == 2
        assert capsys.readouterr().err == (
            "input error: plan.junctions[1].id: junction 'W-J0' is listed twice\n"
        )
        assert not out.exists()


class TestTlsScan:
    def _model_doc(self, tmp_path, defects):
        doc = {"gamma_1q_per_s": 21505.376344086024, "readout_noise_sigma": 0.02,
               "defects": defects}
        path = tmp_path / "model.json"
        jio.write_json(str(path), doc)
        return str(path)

    def test_defect_scan(self, tmp_path, capsys):
        mpath = self._model_doc(tmp_path, [
            {"f_offset_mhz": 7.81, "coupling_g_khz": 76.0, "gamma_total_mhz": 1.0}
        ])
        out = tmp_path / "scan"
        code = main([
            "--seed", "11", "--output", str(out), "tls-scan", mpath,
            "--f-min-mhz", "-15", "--f-max-mhz", "15", "--f-step-mhz", "0.5",
        ])
        assert code == 0
        assert (out / "map.csv").exists()
        doc = report_doc(out / "defects.json")
        assert doc["outcome"] == "persistent defect"
        assert doc["defects"][0]["f_offset_mhz"] == pytest.approx(7.81, abs=0.2)
        assert "persistent defect at +7.8" in capsys.readouterr().out

    def test_clean_qubit_scan(self, tmp_path, capsys):
        mpath = self._model_doc(tmp_path, [])
        out = tmp_path / "scan"
        assert main(["--seed", "11", "--output", str(out), "tls-scan", mpath]) == 0
        assert report_doc(out / "defects.json")["outcome"] == "no persistent defect"
        assert "no persistent defect" in capsys.readouterr().out

    def test_bad_grid_rejected(self, tmp_path, capsys):
        mpath = self._model_doc(tmp_path, [])
        code = main([
            "--seed", "11", "tls-scan", mpath, "--f-min-mhz", "5", "--f-max-mhz", "-5",
        ])
        assert code == 2
        assert "f-max-mhz" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--f-min-mhz", "nan"), ("--f-max-mhz", "nan"), ("--f-max-mhz", "inf"),
        ("--f-step-mhz", "nan"), ("--duration-h", "nan"), ("--duration-h", "inf"),
        ("--step-s", "nan"), ("--wait-us", "nan"), ("--wait-us", "inf"),
    ])
    def test_non_finite_flag_is_input_error(self, tmp_path, capsys, flag, value):
        mpath = self._model_doc(tmp_path, [])
        out = tmp_path / "scan"
        assert main(["--seed", "11", "--output", str(out), "tls-scan", mpath, flag, value]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    # Only values that numpy refuses before allocating anything: a grid of
    # a few gigabytes might be allocated and filled instead of refused.
    @pytest.mark.parametrize("flag, value, message", [
        ("--duration-h", "1e300", "duration 1e+300 h"),
        ("--step-s", "1e-300", "step 1e-300 s"),
        ("--f-step-mhz", "1e-300", "--f-step-mhz steps is too large"),
    ])
    def test_grid_too_large_is_input_error(self, tmp_path, capsys, flag, value, message):
        mpath = self._model_doc(tmp_path, [])
        out = tmp_path / "scan"
        assert main(["--seed", "11", "--output", str(out), "tls-scan", mpath, flag, value]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("defects, message", [
        (None, "model.defects: expected list"),
        (5, "model.defects: expected list"),
        ([5], "model.defects[0]: expected an object"),
    ])
    def test_defects_shape_is_input_error(self, tmp_path, capsys, defects, message):
        mpath = self._model_doc(tmp_path, defects)
        out = tmp_path / "scan"
        assert main(["--seed", "11", "--output", str(out), "tls-scan", mpath]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_fit_tls_max_defects_below_one_is_input_error(tmp_path, capsys, value):
    data = tmp_path / "map.csv"
    data.write_text("time_h,-1.0,0.0,1.0\n0.0,0.5,0.4,0.5\n1.0,0.5,0.4,0.5\n")
    out = tmp_path / "defects.json"
    assert main(["--output", str(out), "fit", "tls", str(data), "--max-defects", value]) == 2
    assert "max_defects must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_tls_scan_max_defects_below_one_is_input_error(tmp_path, capsys, value):
    mpath = tmp_path / "model.json"
    jio.write_json(str(mpath), {"gamma_1q_per_s": 21505.376344086024,
                                "readout_noise_sigma": 0.02, "defects": []})
    out = tmp_path / "scan"
    assert main(["--seed", "11", "--output", str(out), "tls-scan", str(mpath),
                 "--duration-h", "0.1", "--max-defects", value]) == 2
    assert "max_defects must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("defect", [
    {"f_offset_mhz": 1e305},
    {"coupling_g_khz": 1e306},
    {"dynamics": {"kind": "drifting", "sigma_f_mhz": 1e305, "step_interval_s": 60.0}},
    {"dynamics": {"kind": "telegraphic", "f_a_mhz": -1e305, "f_b_mhz": 5.0,
                  "switch_rate_per_s": 0.001}},
])
def test_tls_scan_model_value_overflowing_to_infinity_is_input_error(tmp_path, capsys, defect):
    # finite in the document, infinite once scaled to Hz
    raw = {"f_offset_mhz": 1.0, "coupling_g_khz": 76.0, "gamma_total_mhz": 1.0, **defect}
    mpath = tmp_path / "model.json"
    jio.write_json(str(mpath), {"gamma_1q_per_s": 21505.376344086024,
                                "readout_noise_sigma": 0.02, "defects": [raw]})
    out = tmp_path / "scan"
    assert main(["--seed", "11", "--output", str(out), "tls-scan", str(mpath),
                 "--duration-h", "0.1"]) == 2
    err = capsys.readouterr().err
    assert "model.defects[0]" in err and "finite" in err
    assert not out.exists()


NOT_UTF8 = b"\xff\xfe"


def _simulate_argv(tmp_path, wafer=None, output=None):
    if wafer is None:
        wafer = write_wafer(tmp_path, jt.synthesize_wafer("W1", 2, 2, 50.0, 7781.0, 0.01, seed=3))
    return ["--seed", "5", "--output", str(output or tmp_path / "out"),
            "simulate-wafer", str(wafer), write_recipe(tmp_path)]


def _bytes_file(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return path


def _directory(tmp_path, name):
    path = tmp_path / name
    path.mkdir()
    return path


def _taken(tmp_path):
    path = tmp_path / "taken"
    path.write_text("already here\n")
    return path


def _plan_into_directory(tmp_path):
    wpath = write_wafer(tmp_path, jt.synthesize_wafer("W1", 2, 2, 50.0, 7781.0, 0.01, seed=3))
    tpath = tmp_path / "targets.json"
    jio.write_json(str(tpath), {"min_spacing_mhz": 0.0})
    out = _directory(tmp_path, "plan_dir")
    return ["--output", str(out), "plan", wpath, str(tpath)], out, "cannot write"


# Each case builds (argv, path the message must name, message) inside tmp_path.
IO_FAILURES = {
    "wafer JSON not UTF-8": lambda tmp: (
        _simulate_argv(tmp, wafer=_bytes_file(tmp, "w.json", b'{"wafer_id": "' + NOT_UTF8)),
        tmp / "w.json", "not UTF-8 text"),
    "fit CSV not UTF-8": lambda tmp: (
        ["--output", str(tmp / "fit.json"), "fit", "dose",
         str(_bytes_file(tmp, "d.csv", b"power_mw,shift_frac\n10," + NOT_UTF8 + b"\n"))],
        tmp / "d.csv", "not UTF-8 text"),
    "map CSV not UTF-8": lambda tmp: (
        ["--output", str(tmp / "fit.json"), "fit", "tls",
         str(_bytes_file(tmp, "m.csv", b"time_h,-1.0\n0.0," + NOT_UTF8 + b"\n"))],
        tmp / "m.csv", "not UTF-8 text"),
    "wafer JSON integer beyond the digit limit": lambda tmp: (
        _simulate_argv(tmp, wafer=_bytes_file(tmp, "w.json", b'{"rows": 1' + b"0" * 5000 + b"}")),
        tmp / "w.json", "invalid JSON"),
    "wafer is a directory": lambda tmp: (
        _simulate_argv(tmp, wafer=_directory(tmp, "wdir")), tmp / "wdir", "cannot read"),
    "map is a directory": lambda tmp: (
        ["--output", str(tmp / "fit.json"), "fit", "tls", str(_directory(tmp, "mdir"))],
        tmp / "mdir", "cannot read"),
    "model is a directory": lambda tmp: (
        ["--seed", "11", "--output", str(tmp / "scan"), "tls-scan", str(_directory(tmp, "mdl"))],
        tmp / "mdl", "cannot read"),
    "output names a file": lambda tmp: (
        _simulate_argv(tmp, output=_taken(tmp)), tmp / "taken" / "report.json", "cannot write"),
    "output below a file": lambda tmp: (
        _simulate_argv(tmp, output=_taken(tmp) / "sub"),
        tmp / "taken" / "sub" / "report.json", "cannot write"),
    "plan output is a directory": _plan_into_directory,
}


@pytest.mark.parametrize("case", sorted(IO_FAILURES))
def test_unreadable_input_or_unwritable_output_is_input_error(tmp_path, capsys, case):
    argv, path, message = IO_FAILURES[case](tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{path}: {message}" in err
    assert list(tmp_path.rglob(".tmp-*")) == []


def _model_argv(tmp_path, readout, *flags):
    path = tmp_path / "model.json"
    jio.write_json(str(path), {"gamma_1q_per_s": 21505.376344086024,
                               "readout_noise_sigma": readout, "defects": []})
    return ["--seed", "11", "--output", str(tmp_path / "out"), "tls-scan", str(path), *flags]


def _fit_argv(tmp_path, kind, text, *flags):
    data = tmp_path / "data.csv"
    data.write_text(text)
    return ["--output", str(tmp_path / "out"), "fit", kind, str(data), *flags]


def _one_junction_wafer(tmp_path, resistance):
    junctions = (jt.JunctionRecord(id="W-J0", design_xy=(0.0, 0.0), area=0.1,
                                   resistance=resistance),)
    return write_wafer(tmp_path, jt.WaferLayout(wafer_id="W", rows=1, cols=1, pitch=50.0,
                                                junctions=junctions))


def _plan_one_junction_argv(tmp_path, resistance):
    targets = tmp_path / "targets.json"
    jio.write_json(str(targets), {"min_spacing_mhz": 50.0})
    return ["--output", str(tmp_path / "out"), "plan", _one_junction_wafer(tmp_path, resistance),
            str(targets)]


def _tune_one_junction_argv(tmp_path, resistance, target_ghz, *flags):
    plan = tmp_path / "plan.json"
    jio.write_json(str(plan), {"junctions": [{"id": "W-J0", "f_target_ghz": target_ghz}]})
    return ["--seed", "3", "--output", str(tmp_path / "out"), "tune",
            _one_junction_wafer(tmp_path, resistance), str(plan), *flags]


# Each case is (argv builder, the message); "{data}" stands for the input CSV's path.
INPUT_FAILURES = {
    "negative readout noise": (
        lambda tmp: _model_argv(tmp, -1),
        "model: readout noise must be non-negative and finite"),
    "zero frequency step": (
        lambda tmp: _model_argv(tmp, 0.02, "--f-step-mhz", "0"),
        "--f-step-mhz must be positive"),
    "empty dose cell": (
        lambda tmp: _fit_argv(tmp, "dose", "power_mw,shift_frac\n10,0.01\n20,\n"),
        "{data}:3: empty value in column 'shift_frac'"),
    "dose header only": (
        lambda tmp: _fit_argv(tmp, "dose", "power_mw,shift_frac\n"),
        "{data}: no data rows"),
    "wafer filter matches no series": (
        lambda tmp: _fit_argv(tmp, "aging", "junction_id,day,resistance_ohm,cohort,wafer\n"
                                            "J1,0,7800,annealed,W1\nJ1,10,7810,annealed,W1\n",
                              "--wafer", "W9"),
        "no series left after --wafer/--cohort filters"),
    "negative barrier resistance": (
        lambda tmp: _fit_argv(tmp, "barrier", "thickness_nm,area_um2,resistance_ohm\n"
                                              "1.0,0.1,20000\n1.5,0.1,-45000\n2.0,0.1,100000\n"
                                              "2.5,0.1,220000\n"),
        "{data}:3: column 'resistance_ohm' must be positive, got -45000.0"),
    "zero barrier area": (
        lambda tmp: _fit_argv(tmp, "barrier", "thickness_nm,area_um2,resistance_ohm\n"
                                              "1.0,0.1,20000\n1.5,0.1,45000\n2.0,0,100000\n"),
        "{data}:4: column 'area_um2' must be positive, got 0.0"),
    # The log-linear seed needs a slope: refused before numpy's RankWarning.
    "one barrier row": (
        lambda tmp: _fit_argv(tmp, "barrier", "thickness_nm,area_um2,resistance_ohm\n"
                                              "1.5,0.1,20000\n"),
        "{data}: need at least 2 distinct values in column 'thickness_nm' to fit barrier"),
    "constant barrier thickness": (
        lambda tmp: _fit_argv(tmp, "barrier", "thickness_nm,area_um2,resistance_ohm\n"
                                              "1.5,0.1,20000\n1.5,0.1,45000\n1.5,0.1,100000\n"),
        "{data}: need at least 2 distinct values in column 'thickness_nm' to fit barrier"),
    # One x value leaves every parameter unidentified: refused like barrier's.
    "constant dose power": (
        lambda tmp: _fit_argv(tmp, "dose", "power_mw,shift_frac\n20,0.01\n20,0.011\n20,0.012\n"),
        "{data}: need at least 2 distinct values in column 'power_mw' to fit dose"),
    "constant displacement": (
        lambda tmp: _fit_argv(tmp, "displacement", "displacement_um,response_frac\n"
                                                   "5,0.01\n5,0.011\n5,0.012\n"),
        "{data}: need at least 2 distinct values in column 'displacement_um' to fit displacement"),
    # The model is finite but r @ r overflows, so no trial could lower the cost.
    "dose shifts near 1e200": (
        lambda tmp: _fit_argv(tmp, "dose", "power_mw,shift_frac\n"
                                           "10,1e200\n20,2e200\n30,3e200\n40,4e200\n"),
        "the sum of squared residuals overflows at the starting point"),
    "displacement responses near 1e200": (
        lambda tmp: _fit_argv(tmp, "displacement", "displacement_um,response_frac\n"
                                                   "0,1e200\n5,1.2e200\n10,8e199\n20,5e199\n"),
        "the sum of squared residuals overflows at the starting point"),
    # Seeds that overflow are computed without a numpy warning before the message.
    "stark shifts of 1e300": (
        lambda tmp: _fit_argv(tmp, "stark", "amplitude,shift_mhz\n0.1,1e300\n0.2,1e300\n"
                                            "0.3,1e300\n"),
        "the model is not finite at the starting point for this data"),
    "aging shifts past the float range": (
        lambda tmp: _fit_argv(tmp, "aging", "junction_id,day,resistance_ohm,r0_ohm,cohort,wafer\n"
                                            + "".join(f"J1,{day},1e300,1e-10,annealed,W1\n"
                                                      for day in (0, 10, 20, 30))),
        "series 'J1': resistance_ohm 1e+300 over r0_ohm 1e-10 gives a shift beyond the "
        "float range"),
    # Every amplitude 0 makes the model 0 whatever the conversion factor.
    "stark amplitudes all zero": (
        lambda tmp: _fit_argv(tmp, "stark", "amplitude,shift_mhz\n0,1\n0,2\n0,3\n"),
        "need a nonzero amplitude to fit the conversion factor"),
    # One offset gives the defect fit's position bounds zero width.
    "tls fit on one offset": (
        lambda tmp: _fit_argv(tmp, "tls", "time_h,0.5\n0.0,0.5\n1.0,0.5\n"),
        "need at least 2 distinct frequency offsets to extract defects"),
    "tls fit on one offset repeated": (
        lambda tmp: _fit_argv(tmp, "tls", "time_h,0.5,0.5\n0.0,0.5,0.4\n1.0,0.5,0.4\n"),
        "need at least 2 distinct frequency offsets to extract defects"),
    "tls scan on one offset": (
        lambda tmp: _model_argv(tmp, 0.02, "--f-min-mhz", "0", "--f-max-mhz", "0.1",
                                "--f-step-mhz", "1"),
        "need at least 2 distinct frequency offsets to extract defects"),
    # e^2 * R underflows to zero below ~9.6e-287 ohm; (h f + E_C)^2 overflows
    # above ~2e187 Hz.
    "plan junction too small for the frequency map": (
        lambda tmp: _plan_one_junction_argv(tmp, 1e-300),
        "wafer junction 'W-J0': resistance_ohm 1e-300 is too small for the frequency map"),
    "tune junction too small for the frequency map": (
        lambda tmp: _tune_one_junction_argv(tmp, 1e-300, 5.0),
        "wafer junction 'W-J0': resistance_ohm 1e-300 is too small for the frequency map"),
    "tune target past the frequency map": (
        lambda tmp: _tune_one_junction_argv(tmp, 7781.0, 1e190),
        "frequency 1e+199 Hz is too large for the frequency map"),
    "tune tolerance putting the aim point past the frequency map": (
        lambda tmp: _tune_one_junction_argv(tmp, 7781.0, 5.0, "--tolerance", "1e200"),
        "tolerance 1e+200 puts the aim point out of range: "
        "frequency 3e+209 Hz is too large for the frequency map"),
    "tune tolerance putting the aim point at infinity": (
        lambda tmp: _tune_one_junction_argv(tmp, 7781.0, 5.0, "--tolerance", "1e300"),
        "tolerance 1e+300 puts the aim point out of range: frequency must be positive, got inf"),
    # A blank line counts: the message names the cell's line in the file.
    "empty dose cell after a blank line": (
        lambda tmp: _fit_argv(tmp, "dose", "power_mw,shift_frac\n10,0.01\n\n20,\n"),
        "{data}:4: empty value in column 'shift_frac'"),
    "negative barrier resistance after a blank line": (
        lambda tmp: _fit_argv(tmp, "barrier", "thickness_nm,area_um2,resistance_ohm\n"
                                              "1.0,0.1,20000\n\n1.5,0.1,-45000\n"
                                              "2.0,0.1,100000\n2.5,0.1,220000\n"),
        "{data}:4: column 'resistance_ohm' must be positive, got -45000.0"),
    "aging cohort after a blank line": (
        lambda tmp: _fit_argv(tmp, "aging", "junction_id,day,resistance_ohm,cohort,wafer\n"
                                            "J1,0,7800,annealed,W1\n\nJ1,10,7810,aged,W1\n"),
        "{data}:4: cohort must be 'annealed' or 'unannealed', got 'aged'"),
    # Rates -ln(P) / wait near 1e304 overflow the defect fit's starting coupling.
    "tls fit at a vanishing wait": (
        lambda tmp: _fit_argv(tmp, "tls", "time_h,-2.0,-1.0,0.0,1.0,2.0\n"
                                          "0.0,0.5,0.5,0.4,0.5,0.5\n1.0,0.5,0.5,0.4,0.5,0.5\n",
                              "--wait-us", "1e-300"),
        "the defect model is not finite at the starting point for this map at --wait-us 1e-300"),
    "tls scan at a vanishing wait": (
        lambda tmp: _model_argv(tmp, 0.02, "--duration-h", "0.1", "--wait-us", "1e-300"),
        "the defect model is not finite at the starting point for this map at --wait-us 1e-300"),
}


@pytest.mark.parametrize("case", sorted(INPUT_FAILURES))
def test_invalid_input_exits_2_with_its_message(tmp_path, capsys, case):
    build, message = INPUT_FAILURES[case]
    assert main(build(tmp_path)) == 2
    expected = message.format(data=tmp_path / "data.csv")
    assert capsys.readouterr().err == f"input error: {expected}\n"
    assert not (tmp_path / "out").exists()


def test_fit_that_does_not_converge_exits_4_with_its_report(tmp_path, capsys):
    # Scattered shifts that no plateau curve follows: the fit runs out of
    # iterations with the decay constant on its bound.
    argv = _fit_argv(tmp_path, "dose", "power_mw,shift_frac\n1,0.01\n2,-0.04\n13,0.006\n"
                                       "27,-0.015\n30,-0.005\n36,0.0\n40,0.004\n45,0.03\n")
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.endswith("(converged=False)\n")
    doc = report_doc(tmp_path / "out")
    assert doc["model"] == "dose"
    assert doc["converged"] is False
    assert doc["iterations"] == 200
    names = ["char_temperature_t0_c", "depth_b", "plateau_m"]
    assert sorted(doc["params"]) == sorted(doc["std_errors"]) == names
    assert all(math.isfinite(v) for v in doc["params"].values())
    assert all(v == math.inf for v in doc["std_errors"].values())
    assert math.isfinite(doc["residual_norm"])


def test_fit_whose_model_goes_non_finite_exits_4_with_its_report(tmp_path, capsys):
    # Resistance falls with thickness: the fit starts with tau on its upper
    # bound, and its first trial step overflows exp(t / tau).
    argv = _fit_argv(tmp_path, "barrier", "thickness_nm,area_um2,resistance_ohm\n"
                                          "1,1,100\n2,1,5\n3,1,2000\n4,1,10\n")
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.endswith("(converged=False)\n")
    text = (tmp_path / "out").read_text()
    assert "NaN" not in text
    doc = json.loads(text)
    assert doc["model"] == "barrier"
    assert doc["converged"] is False
    assert all(math.isfinite(v) for v in doc["params"].values())
    assert math.isfinite(doc["residual_norm"])


def test_fit_whose_model_is_not_finite_at_the_start_exits_2(tmp_path, capsys):
    # The log-linear seed puts tau below its bound, where exp(t / tau) overflows.
    argv = _fit_argv(tmp_path, "barrier", "thickness_nm,area_um2,resistance_ohm\n"
                                          "1,1,1\n1.001,1,1e100\n1.002,1,1e200\n")
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "input error: the model is not finite at the starting point for this data\n"
    )
    assert not (tmp_path / "out").exists()


def _plan_argv(tmp_path):
    wafer = jt.synthesize_wafer("WD", 2, 3, 50.0, 7781.0, 0.01, seed=2)
    tpath = tmp_path / "targets.json"
    jio.write_json(str(tpath), {"min_spacing_mhz": 30.0})
    return ["plan", write_wafer(tmp_path, wafer), str(tpath)]


def _tune_argv(tmp_path):
    plan = tmp_path / "plan.json"
    assert main(["--output", str(plan), *_plan_argv(tmp_path)]) == 0
    return ["--seed", "5", "tune", str(tmp_path / "wafer.json"), str(plan)]


def _tls_model(tmp_path):
    path = tmp_path / "model.json"
    jio.write_json(str(path), {"gamma_1q_per_s": 21505.376344086024, "readout_noise_sigma": 0.02,
                               "defects": [{"f_offset_mhz": 3.0, "coupling_g_khz": 76.0,
                                            "gamma_total_mhz": 1.0}]})
    return str(path)


def _tls_scan_argv(tmp_path):
    return ["--seed", "7", "tls-scan", _tls_model(tmp_path), "--duration-h", "0.2",
            "--f-step-mhz", "0.5"]


def _fit_tls_argv(tmp_path):
    assert main(["--output", str(tmp_path / "scan"), *_tls_scan_argv(tmp_path)]) == 0
    return ["fit", "tls", str(tmp_path / "scan" / "map.csv")]


# The library defaults of each command's flags, spelled out on the command line.
SPELLED_DEFAULTS = {
    "plan": (_plan_argv, ["--exposure-s", "60", "--max-shots", "16"]),
    "tune": (_tune_argv, ["--step-fraction", "0.7", "--tolerance", "0.0025",
                          "--max-iterations", "8", "--measurement-noise-sigma", "0.002",
                          "--shot-noise-sigma", "0.01"]),
    "tls-scan": (_tls_scan_argv, ["--max-defects", "1", "--dropout-probability", "0"]),
    "fit tls": (_fit_tls_argv, ["--max-defects", "1"]),
}


@pytest.mark.parametrize("command", sorted(SPELLED_DEFAULTS))
def test_flags_left_out_take_the_library_defaults(tmp_path, capsys, command):
    build, flags = SPELLED_DEFAULTS[command]
    argv = build(tmp_path)
    capsys.readouterr()
    runs = []
    for name, extra in (("bare", []), ("spelled", flags)):
        out = tmp_path / name
        out.mkdir()
        assert main(["--output", str(out / "result"), *argv, *extra]) == 0
        files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        runs.append((files, capsys.readouterr().out))
    assert runs[0][0]
    assert runs[0] == runs[1]


def test_ids_csv_quotes_and_json_escapes_survive_every_command(tmp_path, capsys, monkeypatch):
    # The commands write these files from their records, never through the
    # *_to_doc builders, and quote each CSV field that needs it.
    def built(*args):
        raise AssertionError("a command built a document's row dicts")

    for name in ("batch_report_to_doc", "plan_to_doc", "traces_to_doc"):
        monkeypatch.setattr(jio, name, built)
    ids = ['J0,"é"', 'J1 "ü",', "J2,Ä", 'J3\n"ø"', "plain-J4"]
    junctions = tuple(
        jt.JunctionRecord(id=jid, design_xy=(50.0 * k, 0.0), area=0.1, resistance=7781.0 + 40 * k)
        for k, jid in enumerate(ids)
    )
    wafer = jt.WaferLayout(wafer_id='W,"ß"', rows=1, cols=len(ids), pitch=50.0,
                           junctions=junctions)
    wpath = write_wafer(tmp_path, wafer)
    tpath = tmp_path / "targets.json"
    jio.write_json(str(tpath), {"targets_ghz": {
        j.id: (jt.qubit_frequency(j.resistance) - 60e6) / 1e9 for j in junctions}})
    out = tmp_path / "out"
    plan = out / "plan.json"
    assert main(["--seed", "0", "--output", str(out), "simulate-wafer", wpath,
                 write_recipe(tmp_path)]) == 0
    assert main(["--output", str(plan), "plan", wpath, str(tpath)]) == 0
    assert main(["--seed", "3", "--output", str(out), "--format", "csv", "tune", wpath,
                 str(plan)]) == 0
    capsys.readouterr()
    for name in ("report.json", "plan.json", "traces.json"):
        text = (out / name).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert [entry["id"] for entry in report_doc(plan)["junctions"]] == sorted(ids)
    for name, per_id in (("report.csv", 1), ("traces.csv", None)):
        with open(out / name, encoding="utf-8", newline="") as handle:
            column = [row[0] for row in csv.reader(handle)][1:]
        assert sorted(set(column)) == sorted(ids)
        assert column == sorted(column)  # rows stay in id order, each id's rows together
        if per_id:
            assert len(column) == len(ids)


def _generic_json(path) -> str:
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    return text


def test_report_past_the_plain_float_range_is_written_by_the_json_encoder(tmp_path, capsys):
    # Two finite 1e308 ohm resistances sum past the float range; the report
    # renderer still writes each value as json's encoder does.
    junctions = tuple(
        jt.JunctionRecord(id=f"W-J{k}", design_xy=(50.0 * k, 0.0), area=0.1, resistance=1e308)
        for k in range(2)
    )
    wafer = jt.WaferLayout(wafer_id="W", rows=1, cols=2, pitch=50.0, junctions=junctions)
    out = tmp_path / "out"
    assert main(["--seed", "0", "--output", str(out), "simulate-wafer",
                 write_wafer(tmp_path, wafer), write_recipe(tmp_path)]) == 0
    capsys.readouterr()
    doc = json.loads(_generic_json(out / "report.json"))
    with open(out / "report.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["id", "r_before_ohm", "r_after_ohm", "qc_status", "shift_frac"]
    assert rows[1:] == [[row["id"], repr(row["r_before_ohm"]), repr(row["r_after_ohm"]),
                         row["qc_status"], repr(row["shift_frac"])] for row in doc["junctions"]]


def test_plan_past_the_plain_float_range_is_written_by_the_json_encoder(tmp_path, capsys):
    # A 1e308 s exposure on each of six shots sums past the float range.
    wafer = jt.synthesize_wafer("W3", 1, 3, 50.0, 7781.0, 0.01, seed=2)
    tpath = tmp_path / "targets.json"
    jio.write_json(str(tpath), {"targets_ghz": {
        j.id: (jt.qubit_frequency(j.resistance) - 60e6) / 1e9 for j in wafer.junctions}})
    out = tmp_path / "plan.json"
    assert main(["--output", str(out), "plan", write_wafer(tmp_path, wafer), str(tpath),
                 "--exposure-s", "1e308"]) == 0
    capsys.readouterr()
    doc = json.loads(_generic_json(out))
    assert len(doc["junctions"]) == 3
    assert {shot["exposure_s"] for entry in doc["junctions"] for shot in entry["shots"]} == {1e308}


def _dose_argv(tmp_path, rows):
    return _fit_argv(tmp_path, "dose", "power_mw,shift_frac\n" + "".join(f"{p},{s}\n" for p, s in rows))


def _over_ceiling_argv(tmp_path):
    recipe = tmp_path / "recipe.json"
    jio.write_json(str(recipe), {"power_mw": 60.0, "exposure_s": 60.0})
    wafer = jt.synthesize_wafer("W1", 2, 2, 50.0, 7781.0, 0.01, seed=3)
    return ["--seed", "1", "simulate-wafer", write_wafer(tmp_path, wafer), str(recipe)]


COLLECTOR_EXITS = {
    0: lambda tmp: _dose_argv(tmp, [(p, jt.mean_shift(jt.LasingRecipe(power=p)))
                                    for p in (5.0, 10.0, 20.0, 30.0, 40.0, 45.0)]),
    2: lambda tmp: _dose_argv(tmp, [(20, 0.01), (20, 0.011), (20, 0.012)]),
    3: _over_ceiling_argv,
    4: lambda tmp: _dose_argv(tmp, [(1, 0.01), (2, -0.04), (13, 0.006), (27, -0.015),
                                    (30, -0.005), (36, 0.0), (40, 0.004), (45, 0.03)]),
}


@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("code", sorted(COLLECTOR_EXITS))
def test_main_restores_the_callers_collector_setting(tmp_path, capsys, code, collecting):
    argv = COLLECTOR_EXITS[code](tmp_path)
    before = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert main(argv) == code
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if before else gc.disable)()


def test_a_command_runs_with_the_collector_off(tmp_path, monkeypatch, capsys):
    import jjtune.cli as cli

    seen = []
    run_batch = cli.run_batch

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return run_batch(*args, **kwargs)

    monkeypatch.setattr(cli, "run_batch", spy)
    wafer = jt.synthesize_wafer("W1", 2, 2, 50.0, 7781.0, 0.01, seed=3)
    before = gc.isenabled()
    assert main(["--seed", "1", "--output", str(tmp_path / "out"), "simulate-wafer",
                 write_wafer(tmp_path, wafer), write_recipe(tmp_path)]) == 0
    assert seen == [False] and gc.isenabled() is before


# ----------------------------------------------------- tune in worker processes

@pytest.fixture(scope="module")
def three_chunk_plan(tmp_path_factory):
    """A wafer of more than two stream chunks, with its plan in wafer order
    and reversed: targets 20-150 MHz down."""
    directory = tmp_path_factory.mktemp("three-chunk-plan")
    wafer = jt.synthesize_wafer("WP", 46, 46, 50.0, 7781.0, 0.01, seed=8)
    assert 2 * CHUNK < len(wafer.junctions) <= 3 * CHUNK
    wpath = write_wafer(directory, wafer)
    entries = [
        {"id": j.id, "f_target_ghz": (jt.qubit_frequency(j.resistance) - (20e6 + 130e6 * (k % 7) / 6)) / 1e9}
        for k, j in enumerate(wafer.junctions)
    ]
    plans = {}
    for order in (1, -1):
        plans[order] = str(directory / f"plan{order}.json")
        jio.write_json(plans[order], {"junctions": entries[::order]})
    return wpath, plans, [entry["id"] for entry in entries]


def _cpus(monkeypatch, count):
    monkeypatch.setattr("jjtune.streams._available_cpus", lambda: count)


def _tuned(tmp_path, wpath, ppath, name):
    """``tune --format csv`` into a fresh directory: its exit code and its two files' bytes."""
    out = tmp_path / name
    code = main(["--seed", "5", "--output", str(out), "--format", "csv", "tune", wpath, ppath])
    return code, (out / "traces.json").read_bytes(), (out / "traces.csv").read_bytes()


def _slices_tuned_here(monkeypatch, in_a_worker):
    """The job lists ``_tune_slice`` runs on in this process; a forked worker
    calls ``in_a_worker()`` before its slice."""
    parent = os.getpid()
    tune_slice = jcli._tune_slice
    here = []

    def counted(jobs, *args):
        if os.getpid() == parent:
            here.append(jobs)
        else:
            in_a_worker()
        return tune_slice(jobs, *args)

    monkeypatch.setattr(jcli, "_tune_slice", counted)
    return here


class TestTuneWorkers:
    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("order", [1, -1], ids=["plan-order", "reversed"])
    def test_trace_bytes_do_not_depend_on_the_process_count(
        self, monkeypatch, tmp_path, capsys, three_chunk_plan, order
    ):
        wpath, plans, _ = three_chunk_plan
        forks = []
        fork = os.fork

        def counted_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        outputs = {}
        for cpus in (1, 2, 3, 8):
            _cpus(monkeypatch, cpus)
            forks.clear()
            outputs[cpus] = _tuned(tmp_path, wpath, plans[order], f"cpus{cpus}")
            assert len(forks) == min(cpus, 3) - 1
        assert outputs[1] == outputs[2] == outputs[3] == outputs[8]
        assert outputs[1][0] == 0
        assert len(capsys.readouterr().out.splitlines()) == 4

    # Two junctions fail, at plan positions in different slices of 3; the
    # error is the first one's in plan order, as in a single process.
    # Two junctions fail, at plan positions in different slices of 3; the
    # error is the first one's in plan order, as in a single process.
    @pytest.mark.parametrize("error, code, prefix", [(DomainError, 2, "input error"),
                                                    (InfeasibleError, 3, "infeasible")])
    @pytest.mark.parametrize("positions", [(5, 2100), (1000, 2100)],
                             ids=["first-slice", "worker-slices"])
    def test_an_error_is_the_serial_runs_and_writes_nothing(
        self, monkeypatch, tmp_path, capsys, three_chunk_plan, error, code, prefix, positions
    ):
        wpath, plans, ids = three_chunk_plan
        refused = {ids[k] for k in positions}
        iterative_tune = jcli.iterative_tune

        def refusing(state, target, **kwargs):
            if kwargs["junction_id"] in refused:
                raise error(f"junction {kwargs['junction_id']} refused")
            return iterative_tune(state, target, **kwargs)

        monkeypatch.setattr(jcli, "iterative_tune", refusing)
        for cpus in (1, 3):
            _cpus(monkeypatch, cpus)
            here = _slices_tuned_here(monkeypatch, lambda: None)
            out = tmp_path / f"cpus{cpus}"
            assert main(["--seed", "5", "--output", str(out), "--format", "csv",
                         "tune", wpath, plans[1]]) == code
            assert capsys.readouterr().err == f"{prefix}: junction {ids[positions[0]]} refused\n"
            assert not out.exists()
            assert len(here) == 1  # a worker's error came through its pipe

    @pytest.mark.parametrize(
        "failure", ["exits-without-result", "half-a-pickle", "killed", "fork-fails", "no-fork"]
    )
    def test_a_slice_without_a_worker_result_is_tuned_here(
        self, monkeypatch, tmp_path, capsys, three_chunk_plan, failure
    ):
        wpath, plans, _ = three_chunk_plan
        _cpus(monkeypatch, 1)
        serial = _tuned(tmp_path, wpath, plans[1], "serial")

        def in_a_worker():
            if failure == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            if failure == "exits-without-result":
                os._exit(0)

        def half_dump(obj, file, protocol):
            data = pickle.dumps(obj, protocol)
            file.write(data[: len(data) // 2])

        def failed_fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        if failure == "half-a-pickle":
            monkeypatch.setattr(pickle, "dump", half_dump)
        elif failure == "fork-fails":
            monkeypatch.setattr(os, "fork", failed_fork)
        elif failure == "no-fork":
            monkeypatch.delattr(os, "fork")
        _cpus(monkeypatch, 3)
        here = _slices_tuned_here(monkeypatch, in_a_worker)
        assert _tuned(tmp_path, wpath, plans[1], "lost") == serial
        assert [len(jobs) for jobs in here] == ([2116] if failure == "no-fork" else [705, 705, 706])

    def test_a_plan_of_one_chunk_forks_nothing(self, monkeypatch, tmp_path, capsys, three_chunk_plan):
        wpath, plans, _ = three_chunk_plan
        with open(plans[1]) as fh:
            plan = json.load(fh)
        ppath = tmp_path / "plan.json"
        jio.write_json(str(ppath), {"junctions": plan["junctions"][:CHUNK]})

        def no_fork():
            raise AssertionError("a plan of one chunk forked a worker")

        monkeypatch.setattr(os, "fork", no_fork)
        _cpus(monkeypatch, 8)
        assert _tuned(tmp_path, wpath, str(ppath), "out")[0] == 0
        assert f"tuned {CHUNK}: " in capsys.readouterr().out

    def test_an_empty_plan_writes_the_traces_of_no_junction(self, tmp_path, capsys, three_chunk_plan):
        wpath = three_chunk_plan[0]
        ppath = tmp_path / "plan.json"
        jio.write_json(str(ppath), {"junctions": []})
        code, traces_json, traces_csv = _tuned(tmp_path, wpath, str(ppath), "out")
        assert code == 0
        assert traces_json.decode() == "".join(jio.traces_json([]))
        assert traces_csv.decode() == jio.traces_csv([])
