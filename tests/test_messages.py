"""An input error names the field and echoes only a short prefix of its value."""

import pytest

import jjtune as jt
import jjtune.io as jio
from jjtune.cli import main


def _wafer(tmp_path):
    path = tmp_path / "wafer.json"
    jio.write_json(str(path), jio.wafer_to_doc(jt.synthesize_wafer("W1", 1, 2, 50.0, 7781.0, 0.01, seed=3)))
    return str(path)


def test_huge_recipe_integer_gives_a_short_message(tmp_path, capsys):
    recipe = tmp_path / "recipe.json"
    jio.write_json(str(recipe), {"power_mw": 40.0, "exposure_s": 60.0, "repetitions": 10**400})
    assert main(["--seed", "1", "simulate-wafer", _wafer(tmp_path), str(recipe)]) == 2
    err = capsys.readouterr().err
    assert "recipe.repetitions" in err
    assert len(err) < 200


@pytest.mark.parametrize("value", [10**4000, "x" * 5000, [0] * 5000], ids=["int", "str", "list"])
def test_huge_target_value_gives_a_short_message(tmp_path, capsys, value):
    wafer = _wafer(tmp_path)
    ids = [j["id"] for j in jio.load_json(wafer)["junctions"]]
    targets = tmp_path / "targets.json"
    jio.write_json(str(targets), {"targets_ghz": {jid: value for jid in ids}})
    assert main(["--output", str(tmp_path / "plan.json"), "plan", wafer, str(targets)]) == 2
    err = capsys.readouterr().err
    assert f"targets.targets_ghz.{ids[0]}" in err
    assert len(err) < 200
