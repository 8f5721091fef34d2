"""Every input document with one value replaced ends in exit 0, 2, 3 or 4.

A valid wafer, recipe, targets, plan or noise-model document has the value
at one path (the whole document included) replaced by a value from a fixed
pool of wrong types, out-of-range numbers and non-finite text, and the
command that reads it must not raise.
"""

import copy
import json
import os
import tempfile

from hypothesis import given, strategies as st

import jjtune as jt
import jjtune.io as jio
from jjtune.cli import main

# json.dumps writes NaN as the raw text NaN, and 10**400 as its digits.
POOL = [None, True, "x", 5, -1, 10**400, 1e308, [], {}, [5], float("nan")]

WAFER = jio.wafer_to_doc(jt.synthesize_wafer("W", 1, 2, 50.0, 7781.0, 0.01, seed=3))
IDS = [j["id"] for j in WAFER["junctions"]]
F_NOW = [jt.qubit_frequency(j["resistance_ohm"]) / 1e9 for j in WAFER["junctions"]]
DOCS = {
    "wafer": WAFER,
    "recipe": jio.recipe_to_doc(jt.DEFAULT_RECIPE),
    "targets": {"targets_ghz": {IDS[0]: F_NOW[0] - 0.02, IDS[1]: F_NOW[1]}},
    "spacing": {"min_spacing_mhz": 50.0},
    "plan": {"junctions": [{"id": jid, "f_target_ghz": f - 0.02} for jid, f in zip(IDS, F_NOW)]},
    "model": {
        "gamma_1q_per_s": 21505.376344086024,
        "readout_noise_sigma": 0.02,
        "defects": [
            {"f_offset_mhz": -2.0, "coupling_g_khz": 76.0, "gamma_total_mhz": 1.0,
             "dynamics": {"kind": "drifting", "sigma_f_mhz": 0.2, "step_interval_s": 60.0}},
            {"f_offset_mhz": 2.0, "coupling_g_khz": 80.0, "gamma_total_mhz": 1.0,
             "dynamics": {"kind": "telegraphic", "f_a_mhz": 1.0, "f_b_mhz": 3.0,
                          "switch_rate_per_s": 0.001}},
        ],
    },
}
# (command, the documents it reads in argv order, its trailing flags)
RUNS = [
    ("simulate-wafer", ("wafer", "recipe"), []),
    ("plan", ("wafer", "targets"), []),
    ("plan", ("wafer", "spacing"), []),
    ("tune", ("wafer", "plan"), []),
    ("tls-scan", ("model",), ["--duration-h", "0.1", "--f-min-mhz", "-5", "--f-max-mhz", "5",
                              "--f-step-mhz", "0.5"]),
]
# (run, the document whose value is replaced)
CASES = [(run, name) for run in RUNS for name in run[1]]


def _paths(value, prefix=()):
    """Every path into a JSON value, the empty path (the value itself) first."""
    yield prefix
    if isinstance(value, dict):
        items = sorted(value.items())
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, item in items:
        yield from _paths(item, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@given(st.data())
def test_one_replaced_value_never_raises(data):
    (command, names, flags), name = data.draw(st.sampled_from(CASES), label="case")
    path = data.draw(st.sampled_from(list(_paths(DOCS[name]))), label="path")
    value = data.draw(st.sampled_from(POOL), label="value")
    with tempfile.TemporaryDirectory() as tmp:
        files = []
        for doc_name in names:
            doc = _replaced(DOCS[doc_name], path, value) if doc_name == name else DOCS[doc_name]
            files.append(os.path.join(tmp, f"{doc_name}.json"))
            with open(files[-1], "w") as handle:
                handle.write(json.dumps(doc))
        argv = ["--seed", "1", "--output", os.path.join(tmp, "out"), command, *files, *flags]
        assert main(argv) in (0, 2, 3, 4)
