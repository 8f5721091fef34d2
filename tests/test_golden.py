"""Golden digests: the exact bytes of small simulate-wafer, plan and tune runs.

The digests pin every byte the CLI writes for these inputs: number
formatting, key order, indentation and CSV quoting as well as every random
draw. Inputs are written with the standard library, so they do not depend on
the writer under test. A change that alters any output byte must update
these digests on purpose.
"""

import hashlib
import json

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
