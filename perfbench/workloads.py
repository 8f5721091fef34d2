"""The four benchmark workloads: seeded inputs, CLI commands, output checks.

Each workload turns a workload seed into input files with numpy and the
library's own generators (``synthesize_wafer``, ``simulate_map``,
``jjtune.io.*_to_doc``) before any timing starts. The program then sees only
those files, through the same ``jjtune`` command lines a user would type.
Paths in the commands are relative to the workload's work directory.

The checks read the outputs of one pass. What they test is what the physics
guarantees for these inputs; a miss is a wrong answer, not noise.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import jjtune.io as jio
from jjtune.physics import qubit_frequency
from jjtune.streams import child_rng
from jjtune.tls import QubitNoiseModel, TlsDefect, simulate_map
from jjtune.wafer import StageNoise, synthesize_wafer

# Gate of run_batch, and how many binomial sigmas the QC pass fraction may
# stray from its analytic value before the batch counts as wrong.
QC_THRESHOLD = 0.97
QC_BAND_SIGMAS = 5.0
# A seeded survey defect counts as recovered when a reported defect sits this
# close to it. The fitted centres land within ~0.02 MHz at these couplings.
RECOVERY_TOLERANCE_MHZ = 0.1


@dataclass(frozen=True)
class Command:
    """One ``jjtune`` call: the argv after the program name, and its files."""

    label: str
    args: tuple[str, ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]


@dataclass
class Setup:
    """What ``generate`` made: the commands of one pass and the ground truth."""

    commands: tuple[Command, ...]
    units: int
    truth: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    generate: Callable[[int, str], Setup]
    # (work dir, setup) -> (problems per command index, facts for the layer metrics)
    check: Callable[[str, Setup], tuple[dict[int, list[str]], dict[str, float]]]


def subseed(seed: int, purpose: int) -> int:
    """Independent seed for one generator, so no two share a random stream."""
    return int(np.random.default_rng([purpose, seed]).integers(2**62))


def _write_json(work: str, name: str, doc: dict) -> str:
    jio.write_json(os.path.join(work, name), doc)
    return name


def _load(work: str, name: str) -> dict:
    with open(os.path.join(work, name), encoding="utf-8") as handle:
        return json.load(handle)


# ------------------------------------------------------------ wafer-anneal

def _gen_wafer_anneal(seed: int, work: str) -> Setup:
    wafer = synthesize_wafer("WA", 142, 142, 50.0, 7781.0, 0.01, seed=subseed(seed, 1))
    wafer_file = _write_json(work, "in/wafer.json", jio.wafer_to_doc(wafer))
    recipe_file = _write_json(work, "in/recipe.json", {"power_mw": 40.0, "exposure_s": 60.0})
    command = Command(
        "simulate_wafer",
        ("--seed", str(subseed(seed, 2)), "--output", "out",
         "simulate-wafer", wafer_file, recipe_file),
        (wafer_file, recipe_file),
        ("out/report.json", "out/report.csv"),
    )
    return Setup((command,), len(wafer.junctions), {"junctions": len(wafer.junctions)})


def qc_pass_band(n: int, noise: StageNoise = StageNoise()) -> tuple[float, float]:
    """Interval the QC pass fraction of n junctions must fall in.

    With equal sigma/delta ratios s on both axes the score exponent is
    s^2 times a chi-square with two degrees of freedom, so
    P(pass) = 1 - exp(-(-ln threshold) / (2 s^2)), about 98.5% by default.
    """
    s = noise.sigma_center / noise.delta_center
    if not math.isclose(s, noise.sigma_focus / noise.delta_focus):
        raise ValueError("the analytic pass rate needs equal sigma/delta ratios")
    p = 1.0 - math.exp(math.log(QC_THRESHOLD) / (2.0 * s * s))
    half = QC_BAND_SIGMAS * math.sqrt(p * (1.0 - p) / n)
    return p - half, p + half


def _check_wafer_anneal(work: str, setup: Setup):
    report = _load(work, "out/report.json")
    n = setup.truth["junctions"]
    frac = report["n_passed"] / report["n_junctions"]
    lo, hi = qc_pass_band(n)
    problems = []
    if report["n_junctions"] != n:
        problems.append(f"report lists {report['n_junctions']} of {n} junctions")
    if not lo <= frac <= hi:
        problems.append(f"QC pass fraction {frac:.5f} outside [{lo:.5f}, {hi:.5f}]")
    return {0: problems}, {}


# ----------------------------------------------------------- tune-campaign

def _gen_tune_campaign(seed: int, work: str) -> Setup:
    wafer = synthesize_wafer("WT", 71, 71, 50.0, 7781.0, 0.03, seed=subseed(seed, 3))
    rng = np.random.default_rng(subseed(seed, 4))
    targets = {
        j.id: (qubit_frequency(j.resistance) - float(rng.uniform(20e6, 150e6))) / 1e9
        for j in wafer.junctions
    }
    wafer_file = _write_json(work, "in/wafer.json", jio.wafer_to_doc(wafer))
    targets_file = _write_json(work, "in/targets.json", {"targets_ghz": targets})
    plan = Command(
        "plan",
        ("--output", "out/plan.json", "plan", wafer_file, targets_file),
        (wafer_file, targets_file),
        ("out/plan.json",),
    )
    tune = Command(
        "tune",
        ("--seed", str(subseed(seed, 5)), "--output", "out", "--format", "csv",
         "tune", wafer_file, "out/plan.json"),
        (wafer_file, "out/plan.json"),
        ("out/traces.json", "out/traces.csv"),
    )
    return Setup((plan, tune), len(wafer.junctions), {"junctions": len(wafer.junctions)})


def _check_tune_campaign(work: str, setup: Setup):
    n = setup.truth["junctions"]
    plan = _load(work, "out/plan.json")
    summary = _load(work, "out/traces.json")["summary"]
    plan_problems = []
    if len(plan["junctions"]) != n:
        plan_problems.append(f"plan lists {len(plan['junctions'])} of {n} junctions")
    tune_problems = []
    if summary["n_junctions"] != n:
        tune_problems.append(f"tuned {summary['n_junctions']} of {n} junctions")
    if summary["n_overshoot"] != 0:
        tune_problems.append(f"{summary['n_overshoot']} junctions overshot")
    if summary["n_converged"] != summary["n_junctions"]:
        tune_problems.append(f"only {summary['n_converged']} of {n} converged")
    return {0: plan_problems, 1: tune_problems}, {}


# ------------------------------------------------------------ tls-longscan

LONGSCAN_HOURS, LONGSCAN_STEP_S, LONGSCAN_OFFSETS = 48, 10, 81


def _gen_tls_longscan(seed: int, work: str) -> Setup:
    rng = np.random.default_rng(subseed(seed, 6))
    f_a = float(rng.uniform(1.0, 4.0))
    model = {
        "gamma_1q_per_s": 21505.376,
        "readout_noise_sigma": 0.02,
        "defects": [
            {
                "f_offset_mhz": float(rng.uniform(-7.0, -3.0)),
                "coupling_g_khz": float(rng.uniform(60.0, 90.0)),
                "gamma_total_mhz": 1.0,
                "dynamics": {"kind": "drifting",
                             "sigma_f_mhz": float(rng.uniform(0.005, 0.015)),
                             "step_interval_s": 60.0},
            },
            {
                "f_offset_mhz": f_a,
                "coupling_g_khz": float(rng.uniform(60.0, 90.0)),
                "gamma_total_mhz": 1.0,
                "dynamics": {"kind": "telegraphic", "f_a_mhz": f_a,
                             "f_b_mhz": f_a + float(rng.uniform(2.0, 4.0)),
                             "switch_rate_per_s": 1.0 / float(rng.uniform(600.0, 1800.0))},
            },
        ],
    }
    model_file = _write_json(work, "in/model.json", model)
    command = Command(
        "tls_scan",
        ("--seed", str(subseed(seed, 7)), "--output", "out", "tls-scan", model_file,
         "--duration-h", str(LONGSCAN_HOURS), "--step-s", str(LONGSCAN_STEP_S),
         "--dropout-probability", "0.001", "--max-defects", "3"),
        (model_file,),
        ("out/map.csv", "out/defects.json"),
    )
    rows = LONGSCAN_HOURS * 3600 // LONGSCAN_STEP_S
    return Setup((command,), rows * LONGSCAN_OFFSETS, {"map_rows": rows})


def _check_tls_longscan(work: str, setup: Setup):
    with open(os.path.join(work, "out/map.csv"), "rb") as handle:
        header = handle.readline()
        rows = sum(1 for _ in handle)
    problems = []
    if rows != setup.truth["map_rows"]:
        problems.append(f"map has {rows} rows, expected {setup.truth['map_rows']}")
    if header.count(b",") != LONGSCAN_OFFSETS:
        problems.append(f"map header has {header.count(b',')} offsets, expected {LONGSCAN_OFFSETS}")
    return {0: problems}, {}


# ----------------------------------------------------------- defect-survey

SURVEY_MAPS = 8
SURVEY_DEFECTS = 5
SURVEY_SPACING_MHZ = 6.0


def _survey_positions(rng: np.random.Generator) -> list[float]:
    """Defect centres in +-16 MHz, at least SURVEY_SPACING_MHZ apart."""
    while True:
        picks = np.sort(rng.uniform(-16.0, 16.0, SURVEY_DEFECTS))
        if np.all(np.diff(picks) >= SURVEY_SPACING_MHZ):
            return [float(v) for v in picks]


def _gen_defect_survey(seed: int, work: str) -> Setup:
    rng = np.random.default_rng(subseed(seed, 8))
    map_seed = subseed(seed, 9)
    commands = []
    seeded = []
    for k in range(SURVEY_MAPS):
        # The grid follows the map index, so only positions, couplings and
        # noise depend on the seed. --max-defects 6 is one more than a map
        # holds, so each extraction also looks for a defect that is not there.
        step_mhz = 0.05 if k % 2 == 0 else 0.1
        offsets = np.arange(-20.0, 20.0 + step_mhz / 2, step_mhz) * 1e6
        positions = _survey_positions(rng)
        defects = tuple(
            TlsDefect(f_offset=f * 1e6, coupling_g=float(rng.uniform(70e3, 100e3)),
                      gamma_total=float(rng.uniform(0.7e6, 1.2e6)))
            for f in positions
        )
        spectro = simulate_map(
            QubitNoiseModel(defects=defects), offsets, duration=2.0, step=60.0,
            wait=40e-6, rng=child_rng(map_seed, f"survey-{k}"),
        )
        map_file = f"in/map{k}.csv"
        jio.atomic_write_text(os.path.join(work, map_file), jio.map_csv(spectro))
        commands.append(Command(
            "fit_tls",
            ("--output", f"out/fit{k}.json", "fit", "tls", map_file, "--max-defects", "6"),
            (map_file,),
            (f"out/fit{k}.json",),
        ))
        seeded.append(positions)
    return Setup(tuple(commands), SURVEY_MAPS, {"seeded_mhz": seeded})


def _check_defect_survey(work: str, setup: Setup):
    problems: dict[int, list[str]] = {}
    recovered = total = 0
    for k, seeded in enumerate(setup.truth["seeded_mhz"]):
        found = [d["f_offset_mhz"] for d in _load(work, f"out/fit{k}.json")["defects"]]
        missed = [f for f in seeded
                  if not any(abs(f - g) <= RECOVERY_TOLERANCE_MHZ for g in found)]
        recovered += len(seeded) - len(missed)
        total += len(seeded)
        problems[k] = [f"seeded defect at {f:+.3f} MHz not recovered" for f in missed]
    return problems, {"defects_recovered_frac": recovered / total}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("wafer-anneal", "junctions", _gen_wafer_anneal, _check_wafer_anneal),
        Workload("tune-campaign", "junctions", _gen_tune_campaign, _check_tune_campaign),
        Workload("tls-longscan", "map cells", _gen_tls_longscan, _check_tls_longscan),
        Workload("defect-survey", "maps", _gen_defect_survey, _check_defect_survey),
    )
}
