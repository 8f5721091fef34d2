"""What the traced pass wraps, and the per-layer metrics computed from its spans.

The traced pass (``run.py``) runs ``jjtune.cli.main`` in this process on the
same argv and files as the CLI pass, so it executes the handlers' own calls
in their own order. Before it runs, ``install`` wraps the module-level names
those handlers, and the functions they call, look up at call time. An
attribute a later version of the package no longer has is skipped and
listed, and the metrics that depend on it read 0.
"""

from __future__ import annotations

import importlib
import math
from collections import defaultdict
from typing import Any, Sequence

from spans import END, NAME, NOTE, PARENT, START, Tracer, children_of, layer, layer_self_time, self_by_layer

LAYERS = ("cli", "io", "streams", "wafer", "dose", "tuner", "physics", "tls", "fitkit")

LOAD_SPANS = ("io.load_json", "io.wafer_from_doc", "io.recipe_from_doc",
              "io.noise_model_from_doc", "io.read_map_csv")
JSON_DOC_SPANS = ("io.batch_report_to_doc", "io.plan_to_doc", "io.traces_to_doc",
                  "io.extraction_to_doc", "io.recipe_to_doc")
CSV_SPANS = ("io.batch_report_csv", "io.traces_csv", "io.map_csv")


# (module, attribute, span name, note on the result)
WRAPS: tuple[tuple[str, str, str, Any], ...] = (
    ("jjtune.io", "load_json", "io.load_json", None),
    ("jjtune.io", "wafer_from_doc", "io.wafer_from_doc", lambda w: len(w.junctions)),
    ("jjtune.io", "recipe_from_doc", "io.recipe_from_doc", None),
    ("jjtune.io", "noise_model_from_doc", "io.noise_model_from_doc", None),
    ("jjtune.io", "read_map_csv", "io.read_map_csv", None),
    *(("jjtune.io", name[3:], name, None) for name in JSON_DOC_SPANS + CSV_SPANS),
    ("jjtune.io", "write_json", "io.write_json", None),
    ("jjtune.io", "atomic_write_text", "io.atomic_write_text", None),
    ("jjtune.cli", "child_rng", "streams.child_rng", None),
    ("jjtune.wafer", "child_rng", "streams.child_rng", None),
    ("jjtune.cli", "run_batch", "wafer.run_batch",
     lambda r: (sum(row.qc_status == "passed" for row in r.entries), len(r.entries))),
    ("jjtune.wafer", "apply_anneal", "dose.apply_anneal", None),
    ("jjtune.tuner", "apply_anneal", "dose.apply_anneal", None),
    ("jjtune.tuner", "mean_shift", "dose.mean_shift", None),
    ("jjtune.cli", "default_dose_model", "dose.default_dose_model", None),
    ("jjtune.cli", "required_shift", "tuner.required_shift", None),
    ("jjtune.cli", "recipe_for_shift", "tuner.recipe_for_shift", None),
    ("jjtune.cli", "iterative_tune", "tuner.iterative_tune", lambda t: t.outcome == "converged"),
    ("jjtune.tuner", "power_for_shift", "tuner.power_for_shift", None),
    ("jjtune.cli", "qubit_frequency", "physics.qubit_frequency", None),
    ("jjtune.tuner", "qubit_frequency", "physics.qubit_frequency", None),
    ("jjtune.tuner", "resistance_for_frequency", "physics.resistance_for_frequency", None),
    ("jjtune.cli", "simulate_map", "tls.simulate_map", lambda m: m.population.shape[0]),
    ("jjtune.cli", "time_average", "tls.time_average", None),
    ("jjtune.cli", "extract_tls", "tls.extract_tls", lambda e: len(e.defects)),
    ("jjtune.tls", "fit_curve", "fitkit.fit_curve", lambda f: f.iterations),
)


def install(tracer: Tracer) -> list[str]:
    """Wrap every attribute in WRAPS that exists; return the ones missing."""
    missing = []
    for module_name, attr, name, note in WRAPS:
        module = importlib.import_module(module_name)
        if hasattr(module, attr):
            tracer.wrap(module, attr, name, note)
        else:
            missing.append(f"{module_name}.{attr}")
    return missing


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)]


def layer_metrics(spans: Sequence[list], facts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``spans`` hold one root span (the pass) with one ``cli.<command>`` child
    per command. ``facts`` carries what the output checks read from the
    files: ``defects_recovered_frac``.
    """
    kids = children_of(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for index, record in enumerate(spans):
        by_name[record[NAME]].append(index)

    def dur(i: int) -> float:
        return spans[i][END] - spans[i][START]

    def total(*names: str) -> float:
        return sum(dur(i) for n in names for i in by_name[n])

    def count(*names: str) -> int:
        return sum(len(by_name[n]) for n in names)

    def notes(name: str) -> list:
        return [spans[i][NOTE] for i in by_name[name]]

    m: dict[str, float] = {}
    selfs = self_by_layer(spans)
    for name in LAYERS:
        m[f"{name}.self_s"] = selfs.get(name, 0.0)
    root = next(i for i, record in enumerate(spans) if record[PARENT] < 0)
    m["trace.pass_s"] = dur(root)
    m["trace.unattributed_s"] = selfs.get(layer(spans[root][NAME]), 0.0)

    # io: a write_json span covers json.dumps plus its atomic_write_text child.
    m["io.load_s"] = total(*LOAD_SPANS)
    m["io.load_us_per_junction"] = 1e6 * _ratio(m["io.load_s"], sum(notes("io.wafer_from_doc")))
    m["io.encode_json_s"] = total(*JSON_DOC_SPANS) + sum(
        dur(i) - _child_time(spans, kids, i, "io.atomic_write_text")
        for i in by_name["io.write_json"]
    )
    m["io.encode_csv_s"] = total(*CSV_SPANS)
    m["io.write_s"] = total("io.atomic_write_text")

    rng_s = total("streams.child_rng")
    m["streams.calls"] = count("streams.child_rng")
    m["streams.child_rng_s"] = rng_s
    m["streams.child_rng_us"] = 1e6 * _ratio(rng_s, m["streams.calls"])
    m["streams.share"] = _ratio(rng_s, _stream_loop_time(spans, kids, by_name["streams.child_rng"]))

    batch_junctions = sum(n for _, n in notes("wafer.run_batch"))
    m["wafer.run_batch_s"] = total("wafer.run_batch")
    m["wafer.run_batch_self_s"] = sum(layer_self_time(spans, i, kids) for i in by_name["wafer.run_batch"])
    m["wafer.us_per_junction"] = 1e6 * _ratio(m["wafer.run_batch_s"], batch_junctions)
    m["wafer.qc_pass_frac"] = _ratio(sum(p for p, _ in notes("wafer.run_batch")), batch_junctions)

    m["dose.apply_anneal.calls"] = count("dose.apply_anneal")
    m["dose.apply_anneal_us"] = 1e6 * _ratio(total("dose.apply_anneal"), m["dose.apply_anneal.calls"])

    tunes = by_name["tuner.iterative_tune"]
    tune_us = [1e6 * dur(i) for i in tunes]
    m["tuner.plan_s"] = sum(
        dur(c) for p in by_name["cli.plan"] for c in kids[p] if layer(spans[c][NAME]) == "tuner"
    )
    m["tuner.iterative_tune_us.p50"] = _percentile(tune_us, 50)
    m["tuner.iterative_tune_us.p99"] = _percentile(tune_us, 99)
    m["tuner.iterative_tune_self_s"] = sum(layer_self_time(spans, i, kids) for i in tunes)
    tune_anneals = sum(1 for i in tunes for c in kids[i] if spans[c][NAME] == "dose.apply_anneal")
    m["tuner.anneals_per_junction"] = _ratio(tune_anneals, len(tunes))
    m["tuner.converged_frac"] = _ratio(sum(notes("tuner.iterative_tune")), len(tunes))

    physics = [n for n in by_name if layer(n) == "physics"]
    m["physics.calls"] = count(*physics)
    m["physics.us_per_call"] = 1e6 * _ratio(total(*physics), m["physics.calls"])

    m["tls.simulate_map_s"] = total("tls.simulate_map")
    m["tls.simulate_map_us_per_row"] = 1e6 * _ratio(m["tls.simulate_map_s"], sum(notes("tls.simulate_map")))
    m["tls.extract_tls_self_s"] = sum(layer_self_time(spans, i, kids) for i in by_name["tls.extract_tls"])
    m["tls.defects_recovered_frac"] = facts.get("defects_recovered_frac", 0.0)

    m["fitkit.calls"] = count("fitkit.fit_curve")
    m["fitkit.iterations"] = sum(notes("fitkit.fit_curve"))
    m["fitkit.fit_curve_s"] = total("fitkit.fit_curve")
    m["fitkit.kept_frac"] = _ratio(sum(notes("tls.extract_tls")), m["fitkit.calls"])
    return m


def _child_time(spans: Sequence[list], kids: Sequence[Sequence[int]], index: int, name: str) -> float:
    return sum(spans[c][END] - spans[c][START] for c in kids[index] if spans[c][NAME] == name)


def _stream_loop_time(spans: Sequence[list], kids: Sequence[Sequence[int]], rng_spans: Sequence[int]) -> float:
    """Time of the loops that derive streams: for each caller of child_rng,
    from its first child_rng call to the end of its last non-io call.

    For ``run_batch`` that is the per-junction loop; for the ``tune``
    handler it is the loop over plan entries, without loading and writing.
    """
    loop = 0.0
    for parent in sorted({spans[i][PARENT] for i in rng_spans}):
        first = min(spans[i][START] for i in rng_spans if spans[i][PARENT] == parent)
        last = max(
            (spans[c][END] for c in kids[parent]
             if spans[c][START] >= first and layer(spans[c][NAME]) != "io"),
            default=first,
        )
        loop += last - first
    return loop
