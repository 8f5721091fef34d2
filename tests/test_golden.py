"""Golden digests: the exact bytes of small simulate-wafer, plan, tune and fit runs.

The digests pin every byte the CLI writes for these inputs: number
formatting, key order, indentation and CSV quoting as well as every random
draw. Inputs are written with the standard library, so they do not depend on
the writer under test. A change that alters any output byte must update
these digests on purpose.
"""

import hashlib
import json
import math

import numpy as np

import jjtune as jt
import jjtune.io as jio
from jjtune.cli import main
from jjtune.physics import qubit_frequency

GOLDEN = {
    "report.json": "b50bae8e05dece88782a31aba719980db9c2239b68e96652f2e495d49afac1bc",
    "report.csv": "937a3cd77047dff1031343ff459113387fb911f33dc4b722ea0a5e77b6976569",
    "plan.json": "4a223efe24e4bbf5d1968bd4132589b87e49832ff7dc8a5f6179fa7b8e2516de",
    "traces.json": "a9927bcd560cdcf878f5fe2ab25b74915491feaae4b0733c26f4a39773a92ae8",
    "traces.csv": "7f0084bf1aad17fe955d6ec35da77e24da0ce4d4a17e5d0671438e2f6d3ee47d",
}


def _dump(path, doc):
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_cli_outputs_match_golden_digests(tmp_path):
    wafer = jt.synthesize_wafer("WG", 5, 6, 50.0, 7781.0, 0.03, seed=17)
    rng = np.random.default_rng(2)
    # Offsets from 0 (no shot) to 400 MHz (multi-shot plans).
    targets = {
        j.id: (qubit_frequency(j.resistance) - float(rng.uniform(20e6, 400e6)) * (k > 0)) / 1e9
        for k, j in enumerate(wafer.junctions)
    }
    wafer_path = _dump(tmp_path / "wafer.json", jio.wafer_to_doc(wafer))
    recipe_path = _dump(tmp_path / "recipe.json", jio.recipe_to_doc(jt.DEFAULT_RECIPE))
    targets_path = _dump(tmp_path / "targets.json", {"targets_ghz": targets})
    out = tmp_path / "out"
    plan_path = str(out / "plan.json")

    assert main(["--seed", "5", "--output", str(out), "simulate-wafer", wafer_path, recipe_path]) == 0
    assert main(["--output", plan_path, "plan", wafer_path, targets_path]) == 0
    assert main(["--seed", "9", "--output", str(out), "--format", "csv",
                 "tune", wafer_path, plan_path]) == 0

    assert {name: _digest(out / name) for name in GOLDEN} == GOLDEN


def _write_rows(path, header, rows):
    path.write_text(
        "\n".join([",".join(header)] + [",".join(repr(float(v)) for v in row) for row in rows])
        + "\n",
        encoding="utf-8",
    )
    return str(path)


def test_short_exposure_plan_matches_golden_digest(tmp_path):
    # At 1 s the exposure factor is ~0.49, so every shot's power depends on it.
    wafer = jt.synthesize_wafer("WS", 3, 4, 50.0, 7781.0, 0.03, seed=23)
    rng = np.random.default_rng(4)
    targets = {
        j.id: (qubit_frequency(j.resistance) - float(rng.uniform(5e6, 150e6)) * (k > 0)) / 1e9
        for k, j in enumerate(wafer.junctions)
    }
    wafer_path = _dump(tmp_path / "wafer.json", jio.wafer_to_doc(wafer))
    targets_path = _dump(tmp_path / "targets.json", {"targets_ghz": targets})
    out = tmp_path / "plan.json"
    assert main(["--output", str(out), "plan", wafer_path, targets_path,
                 "--exposure-s", "1.0"]) == 0
    assert _digest(out) == "6a0eb68f118f366c6ed4485adbb4d5640870b87a51b1f728bcbcb11cd5a49f53"


def test_dose_and_displacement_fits_match_golden_digests(tmp_path):
    rng = np.random.default_rng(31)
    powers = np.linspace(4.0, 46.0, 15)
    shifts = 0.018 * (1.0 - np.exp(-2.47 * powers / 28.0))
    shifts = shifts * (1.0 + 0.03 * rng.standard_normal(powers.size))
    dose_csv = _write_rows(tmp_path / "dose.csv", ["power_mw", "shift_frac"],
                           zip(powers, shifts))

    displacement = np.linspace(0.0, 36.0, 19)
    on_metal = np.array([0.5 * (1.0 + math.erf(math.sqrt(2.0) * (4.0 - d) / 0.81))
                         for d in displacement])
    absorbed = 0.08 * on_metal + 0.626 * (1.0 - on_metal)
    response = 0.0404 * absorbed * (np.exp(-displacement / 9.5) + 0.002)
    response = response * (1.0 + 0.03 * rng.standard_normal(displacement.size))
    displacement_csv = _write_rows(tmp_path / "displacement.csv",
                                   ["displacement_um", "response_frac"],
                                   zip(displacement, response))

    digests = {}
    for kind, data in (("dose", dose_csv), ("displacement", displacement_csv)):
        out = tmp_path / f"{kind}.json"
        assert main(["--output", str(out), "fit", kind, data]) == 0
        digests[kind] = _digest(out)
    assert digests == {
        "dose": "2ce8670cb5e3e48fb64a3a24b89cb46587e24ddc71c2ada19a056bcfedc85587",
        "displacement": "bc50b7c9c380e877b61e50ba612a8a8a18dd872ffd8bd1e95a571b30caeef548",
    }


def test_multi_defect_tls_fit_matches_golden_digest(tmp_path):
    rng = np.random.default_rng(43)
    offsets_mhz = np.linspace(-12.0, 12.0, 49)
    wait = 40e-6
    rate = np.full(offsets_mhz.size, 21505.376344086024)
    for center_mhz, g, gamma in ((-4.5, 76e3, 1e6), (6.0, 60e3, 0.8e6)):
        delta = (offsets_mhz - center_mhz) * 1e6
        rate = rate + 2.0 * gamma * g * g / (gamma * gamma + delta * delta)
    rows = []
    for k in range(12):
        noisy = np.exp(-rate * wait) + 0.02 * rng.standard_normal(offsets_mhz.size)
        rows.append([k / 6.0, *np.clip(noisy, 1e-3, 1.0)])
    map_csv = _write_rows(tmp_path / "map.csv", ["time_h", *map(repr, offsets_mhz.tolist())],
                          rows)
    out = tmp_path / "defects.json"
    assert main(["--output", str(out), "fit", "tls", map_csv, "--max-defects", "3"]) == 0
    assert _digest(out) == "476babe51243975676d7d67b84801cb9796f6351870dd7e89c7dbb4dcedc6bc3"


def test_five_defect_tls_fit_matches_golden_digest(tmp_path):
    # One more defect asked for than the map holds, as in a defect survey.
    rng = np.random.default_rng(47)
    offsets_mhz = np.linspace(-20.0, 20.0, 161)
    wait = 40e-6
    rate = np.full(offsets_mhz.size, 21505.376344086024)
    for center_mhz, g, gamma in ((-13.0, 80e3, 1e6), (-6.5, 95e3, 0.9e6), (0.5, 90e3, 1.1e6),
                                 (7.0, 85e3, 0.8e6), (14.0, 75e3, 1e6)):
        delta = (offsets_mhz - center_mhz) * 1e6
        rate = rate + 2.0 * gamma * g * g / (gamma * gamma + delta * delta)
    rows = []
    for k in range(30):
        noisy = np.exp(-rate * wait) + 0.02 * rng.standard_normal(offsets_mhz.size)
        rows.append([k / 15.0, *np.clip(noisy, 1e-3, 1.0)])
    map_csv = _write_rows(tmp_path / "map.csv", ["time_h", *map(repr, offsets_mhz.tolist())],
                          rows)
    out = tmp_path / "defects.json"
    assert main(["--output", str(out), "fit", "tls", map_csv, "--max-defects", "6"]) == 0
    assert len(json.loads(out.read_text(encoding="utf-8"))["defects"]) == 5
    assert _digest(out) == "6ef174d5afa50bdad787482ce6c29893ebf9534f38c447aad1fb2e20e2af064d"



def test_tls_scan_matches_golden_digests(tmp_path):
    model = {"gamma_1q_per_s": 21505.376344086024, "readout_noise_sigma": 0.02, "defects": [
        {"f_offset_mhz": -2.5, "coupling_g_khz": 80.0, "gamma_total_mhz": 1.0},
        {"f_offset_mhz": 3.25, "coupling_g_khz": 60.0, "gamma_total_mhz": 0.8,
         "dynamics": {"kind": "telegraphic", "f_a_mhz": 3.0, "f_b_mhz": 3.5,
                      "switch_rate_per_s": 1e-3}},
    ]}
    model_path = _dump(tmp_path / "model.json", model)
    out = tmp_path / "out"
    assert main(["--seed", "13", "--output", str(out), "tls-scan", model_path,
                 "--f-min-mhz", "-6", "--f-max-mhz", "6", "--f-step-mhz", "0.25",
                 "--duration-h", "1", "--step-s", "120", "--max-defects", "3"]) == 0
    assert {name: _digest(out / name) for name in ("map.csv", "defects.json")} == {
        "map.csv": "3e6dccb01aaa340080f389ac35eb8eb179e894e635d917a95642b687c303dbb8",
        "defects.json": "849b7d7e2446c6fc71072b680fde885abea53df561feba8b5ec85fb0784cd024",
    }
