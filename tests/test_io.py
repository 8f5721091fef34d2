"""Document schemas: JSON/CSV round trips, validation diagnostics, atomicity."""

import csv
import dataclasses
import io
import json
import math
import types

import numpy as np
import pytest
from hypothesis import given, strategies as st

import jjtune as jt
import jjtune.io as jio
from jjtune.cli import main
from jjtune.dose import DoseModel, LasingRecipe, StochasticParams
from jjtune.errors import InfeasibleError, SchemaError
from jjtune.fitkit import FitResult
from jjtune.tuner import TuneIteration, TuneTrace
from jjtune.wafer import BatchReport, BatchRow


KEYS = st.text(max_size=6) | st.sampled_from(["}", "{", "},\n  {", "},\n    {", "\n", "é", "ключ", ""])
SCALARS = (
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])
)
FLAT = SCALARS | st.just([]) | st.just({}) | st.just(())
FLAT_DICTS = st.lists(st.dictionaries(KEYS, FLAT, min_size=1, max_size=5), min_size=1, max_size=4)
JSON_DOCS = st.recursive(
    FLAT,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(KEYS, inner, max_size=5)
        | FLAT_DICTS
        | FLAT_DICTS.map(tuple)
    ),
    max_leaves=40,
)

# Record lists, the shape of plan.json's junctions and traces.json's traces:
# records on one key set whose nested values are lists of non-empty flat dicts.
# Mixed in: records on another key set, empty records, and values that break
# the shape (empty inner dicts, inner lists that hold flat and nested values).
INNER_LISTS = st.lists(st.dictionaries(KEYS, FLAT, min_size=1, max_size=4), max_size=3)
# One third each: "|" would flatten FLAT's many branches and draw few lists.
RECORD_VALUES = st.sampled_from([FLAT, INNER_LISTS, INNER_LISTS.map(tuple)]).flatmap(lambda s: s)
BREAKING_VALUES = (
    st.lists(st.dictionaries(KEYS, FLAT, max_size=2), min_size=1, max_size=3)
    | st.lists(FLAT | FLAT_DICTS | INNER_LISTS, min_size=1, max_size=3)
)


@st.composite
def _records(draw):
    keys = draw(st.lists(KEYS, min_size=1, max_size=4, unique=True))
    records = draw(st.lists(st.fixed_dictionaries({key: RECORD_VALUES for key in keys}),
                            min_size=1, max_size=70))
    mix = draw(st.sampled_from(["none", "none", "other key set", "breaking value"]))
    if mix == "other key set":
        other = draw(st.dictionaries(KEYS, RECORD_VALUES, max_size=3))  # may be empty
        records.insert(draw(st.integers(0, len(records))), other)
    elif mix == "breaking value":
        record = records[draw(st.integers(0, len(records) - 1))]
        record[draw(st.sampled_from(keys))] = draw(BREAKING_VALUES)
    return records


RECORDS = _records()


class TestJsonFiles:
    def test_atomic_text_and_json_round_trip(self, tmp_path):
        path = str(tmp_path / "doc.json")
        jio.write_json(path, {"b": 2, "a": [1.5, None, "x"]})
        assert jio.load_json(path) == {"a": [1.5, None, "x"], "b": 2}

    def test_write_json_bytes_are_deterministic(self, tmp_path):
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        jio.write_json(p1, {"z": 1, "a": 2})
        jio.write_json(p2, {"a": 2, "z": 1})     # different insertion order
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        jio.atomic_write_text(str(tmp_path / "out.txt"), "payload")
        assert (tmp_path / "out.txt").read_text() == "payload"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_missing_file_is_schema_error(self, tmp_path):
        with pytest.raises(SchemaError, match="file not found"):
            jio.load_json(str(tmp_path / "absent.json"))

    def test_bad_json_is_schema_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError, match="invalid JSON"):
            jio.load_json(str(path))

    @given(doc=JSON_DOCS)
    def test_write_json_bytes_equal_indented_json_dumps(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("json") / "doc.json"
        jio.write_json(str(path), doc)
        expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")

    @given(records=RECORDS)
    def test_record_lists_equal_indented_json_dumps(self, records):
        for doc in (records, {"records": records}):
            assert jio.json_text(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_writer_keeps_dict_boundaries_inside_strings(self):
        doc = {"a},\n    {": [{"}": "},\n    {", "x": []}, {"{": {}}], "z": [[{}], ()]}
        assert jio.json_text(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("doc", [
        [7, "s", None, {}, [], (), {"a": 1}, [{"b": 2.5}], {"c": {"d": [1]}}] * 8,
        [[{"a": i}] for i in range(64)] + [[{"a": [1]}]],
        (lambda x: {"x": x, "y": [x, [x]]})([1, {"a": [2]}]),
        ({"a": 1}, {"b": None}),
        1.5,
    ])
    def test_mixed_and_shared_shapes_equal_indented_json_dumps(self, doc):
        assert jio.json_text(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("make", [
        lambda: (lambda d: d.setdefault("self", d))({"a": 1}),
        lambda: (lambda l: l.append([l]) or l)([1]),
        lambda: (lambda d: d["k"].append({"b": d}) or d)({"k": [{"a": 1}]}),
        lambda: (lambda l: l.append({"loop": l}) or l)([{"i": [i]} for i in range(2000)]),
    ])
    def test_circular_input_raises_value_error(self, make):
        doc = make()
        with pytest.raises(ValueError, match="Circular reference"):
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(ValueError, match="Circular reference"):
            jio.json_text(doc)

    @pytest.mark.parametrize("doc", [
        {"a": {1, 2}},
        {"a": [{"b": object()}], "c": [1]},
        [{"x": 1}, {"x": np.int64(3)}],
        {"nested": {"deep": [1, 2j]}},
        {(1, 2): "tuple key"},
        {"mixed": [1], 2: "unsortable keys"},
    ])
    def test_unserializable_input_raises_type_error(self, doc):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            jio.json_text(doc)


GOOD_JUNCTION = {"id": "W-J0", "row": 1, "col": 0, "area_um2": 0.1,
                 "resistance_ohm": 7800.0, "age_days": 2.5}
JUNCTION_FIELDS = list(GOOD_JUNCTION)
FIELD_VALUES = [
    0, 1, 2, -1, 3, 0.0, -0.0, 1.0, 0.1, -0.5, 1e-300, 1e308,
    math.nan, math.inf, -math.inf, True, False, None, "", "x", [], 10**400,
]


class TestWaferDocs:
    def test_round_trip(self):
        wafer = jt.synthesize_wafer("W7", 3, 4, 50.0, 7781.0, 0.01, seed=9)
        back = jio.wafer_from_doc(jio.wafer_to_doc(wafer))
        assert back.wafer_id == wafer.wafer_id
        assert back.rows == wafer.rows and back.cols == wafer.cols
        assert [j.id for j in back.junctions] == [j.id for j in wafer.junctions]
        assert [j.resistance for j in back.junctions] == [j.resistance for j in wafer.junctions]
        assert [j.design_xy for j in back.junctions] == [j.design_xy for j in wafer.junctions]

    def _doc(self):
        return {
            "wafer_id": "W", "rows": 2, "cols": 2, "pitch_um": 50.0,
            "junctions": [
                {"id": "W-J0", "row": 0, "col": 0, "area_um2": 0.1, "resistance_ohm": 7800.0},
            ],
        }

    def test_off_grid_site_rejected(self):
        doc = self._doc()
        doc["junctions"][0]["row"] = 5
        with pytest.raises(SchemaError, match=r"junctions\[0\].*off the 2x2 grid"):
            jio.wafer_from_doc(doc)

    def test_missing_field_names_the_path(self):
        doc = self._doc()
        del doc["junctions"][0]["resistance_ohm"]
        with pytest.raises(SchemaError, match=r"junctions\[0\]\.resistance_ohm"):
            jio.wafer_from_doc(doc)

    def test_wrong_type_rejected(self):
        doc = self._doc()
        doc["rows"] = "two"
        with pytest.raises(SchemaError, match="rows"):
            jio.wafer_from_doc(doc)

    def test_nonpositive_resistance_rejected(self):
        doc = self._doc()
        doc["junctions"][0]["resistance_ohm"] = 0.0
        with pytest.raises(SchemaError, match="must be positive"):
            jio.wafer_from_doc(doc)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["resistance_ohm", "area_um2", "age_days"])
    def test_non_finite_number_rejected(self, field, value):
        doc = self._doc()
        doc["junctions"][0][field] = value
        with pytest.raises(SchemaError, match=rf"junctions\[0\]\.{field}: expected a finite"):
            jio.wafer_from_doc(doc)

    def test_non_finite_pitch_rejected(self):
        doc = self._doc()
        doc["pitch_um"] = math.inf
        with pytest.raises(SchemaError, match="wafer.pitch_um"):
            jio.wafer_from_doc(doc)

    def test_duplicate_ids_rejected(self):
        doc = self._doc()
        doc["junctions"].append(dict(doc["junctions"][0], row=1))
        with pytest.raises(SchemaError, match="unique"):
            jio.wafer_from_doc(doc)

    def test_duplicate_site_rejected(self):
        doc = self._doc()
        doc["junctions"].append(dict(doc["junctions"][0], id="W-J1"))
        with pytest.raises(SchemaError, match=r"junctions\[1\]: site \(0, 0\) already holds"):
            jio.wafer_from_doc(doc)

    def test_integral_numbers_load_as_floats(self):
        doc = self._doc()
        doc["junctions"][0].update(area_um2=1, resistance_ohm=7800, age_days=3)
        record = jio.wafer_from_doc(doc).junctions[0]
        assert (record.area, record.resistance, record.age_days) == (1.0, 7800.0, 3.0)
        assert all(type(v) is float for v in (record.area, record.resistance, record.age_days))

    def _assert_inline_check_agrees(self, raw):
        """wafer_from_doc equals the layout built through _junction_fields alone."""
        doc = dict(self._doc(), junctions=[raw])
        try:
            expected = jio._junction_fields(raw, "wafer.junctions[0]", 2, 2)
        except SchemaError as exc:
            with pytest.raises(SchemaError) as caught:
                jio.wafer_from_doc(doc)
            assert str(caught.value) == str(exc)
            return
        jid, row, col, area, resistance, age = expected
        reference = jt.WaferLayout(
            wafer_id="W", rows=2, cols=2, pitch=50.0,
            junctions=(jt.JunctionRecord(jid, (col * 50.0, row * 50.0), area, resistance, age),),
        )
        layout = jio.wafer_from_doc(doc)
        assert layout == reference
        got, want = layout.junctions[0], reference.junctions[0]
        assert [type(v) for v in dataclasses.astuple(got)] == [
            type(v) for v in dataclasses.astuple(want)
        ]

    @pytest.mark.parametrize("value", FIELD_VALUES)
    @pytest.mark.parametrize("field", JUNCTION_FIELDS)
    def test_inline_check_agrees_on_each_field_value(self, field, value):
        self._assert_inline_check_agrees(dict(GOOD_JUNCTION, **{field: value}))

    @pytest.mark.parametrize("raw", [
        *({k: v for k, v in GOOD_JUNCTION.items() if k != field} for field in JUNCTION_FIELDS),
        [GOOD_JUNCTION], None, "W-J0", 3,
    ])
    def test_inline_check_agrees_on_missing_fields_and_non_objects(self, raw):
        self._assert_inline_check_agrees(raw)

    @given(changes=st.dictionaries(
        st.sampled_from(JUNCTION_FIELDS), st.sampled_from(FIELD_VALUES), min_size=2, max_size=4,
    ))
    def test_inline_check_agrees_on_combined_changes(self, changes):
        self._assert_inline_check_agrees(dict(GOOD_JUNCTION, **changes))

    def test_inline_check_agrees_on_a_synthesized_wafer(self):
        wafer = jt.synthesize_wafer("W7", 9, 11, 50.0, 7781.0, 0.03, seed=4)
        doc = json.loads(json.dumps(jio.wafer_to_doc(wafer)))
        records = []
        for index, raw in enumerate(doc["junctions"]):
            jid, row, col, area, resistance, age = jio._junction_fields(
                raw, f"wafer.junctions[{index}]", 9, 11
            )
            records.append(jt.JunctionRecord(jid, (col * 50.0, row * 50.0), area, resistance, age))
        assert jio.wafer_from_doc(doc).junctions == tuple(records)


class TestRecipeDocs:
    def test_round_trip(self):
        recipe = jt.LasingRecipe(power=35.0, exposure=45.0, repetitions=2, displacement=3.5)
        assert jio.recipe_from_doc(jio.recipe_to_doc(recipe)) == recipe

    def test_defaults_for_optional_fields(self):
        recipe = jio.recipe_from_doc({"power_mw": 40.0, "exposure_s": 60.0})
        assert recipe.repetitions == 1
        assert recipe.displacement == 0.0

    def test_power_ceiling_stays_infeasible(self):
        # a well-formed request beyond the hardware limit is not a schema bug
        with pytest.raises(InfeasibleError):
            jio.recipe_from_doc({"power_mw": 60.0, "exposure_s": 60.0})

    def test_malformed_recipe_is_schema_error(self):
        with pytest.raises(SchemaError):
            jio.recipe_from_doc({"power_mw": -5.0, "exposure_s": 60.0})
        with pytest.raises(SchemaError, match="exposure_s"):
            jio.recipe_from_doc({"power_mw": 40.0})


    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["power_mw", "exposure_s", "displacement_um"])
    def test_non_finite_number_rejected(self, field, value):
        doc = {"power_mw": 40.0, "exposure_s": 60.0, field: value}
        with pytest.raises(SchemaError, match=rf"recipe\.{field}: expected a finite"):
            jio.recipe_from_doc(doc)

    @pytest.mark.parametrize("value", ["x", 2.7, 2.0, True, None])
    def test_repetitions_must_be_an_integer(self, value):
        doc = {"power_mw": 40.0, "exposure_s": 60.0, "repetitions": value}
        with pytest.raises(SchemaError, match="recipe.repetitions: expected an integer"):
            jio.recipe_from_doc(doc)

    def test_repetitions_below_one_rejected(self):
        with pytest.raises(SchemaError, match="repetitions"):
            jio.recipe_from_doc({"power_mw": 40.0, "exposure_s": 60.0, "repetitions": 0})


class TestAgingCsv:
    HEADER = "junction_id,day,resistance_ohm,cohort,wafer,r0_ohm\n"

    def test_grouping_and_ordering(self, tmp_path):
        path = tmp_path / "aging.csv"
        path.write_text(
            self.HEADER
            + "J2,10,8100,annealed,W1,\n"
            + "J1,0,7800,annealed,W1,7800\n"
            + "J1,10,7900,annealed,W1,7800\n"
            + "J2,0,8000,annealed,W1,\n"
            + "J3,0,8050,unannealed,W2,\n"
            + "J3,5,8060,unannealed,W2,\n"
        )
        series = jio.read_aging_csv(str(path))
        assert [(s.wafer_label, s.cohort, s.junction_id) for s in series] == [
            ("W1", "annealed", "J1"), ("W1", "annealed", "J2"), ("W2", "unannealed", "J3")
        ]
        assert series[0].samples == ((0.0, 7800.0), (10.0, 7900.0))
        assert series[0].r0_ohm == 7800.0
        assert series[1].samples == ((0.0, 8000.0), (10.0, 8100.0))
        assert series[1].r0_ohm == 8000.0     # defaulted to the first sample

    def test_unknown_cohort_rejected_with_line(self, tmp_path):
        path = tmp_path / "aging.csv"
        path.write_text(self.HEADER + "J1,0,7800,fresh,W1,\n")
        with pytest.raises(SchemaError, match=r":2: cohort"):
            jio.read_aging_csv(str(path))

    def test_bad_number_rejected_with_line(self, tmp_path):
        path = tmp_path / "aging.csv"
        path.write_text(self.HEADER + "J1,0,7800,annealed,W1,\nJ1,ten,7900,annealed,W1,\n")
        with pytest.raises(SchemaError, match=r":3:.*'day'"):
            jio.read_aging_csv(str(path))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_number_rejected_with_line(self, tmp_path, cell):
        path = tmp_path / "aging.csv"
        path.write_text(self.HEADER + f"J1,0,7800,annealed,W1,\nJ1,1,{cell},annealed,W1,\n")
        with pytest.raises(SchemaError, match=r":3: column 'resistance_ohm' is not a finite"):
            jio.read_aging_csv(str(path))

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "aging.csv"
        path.write_text("junction_id,day,resistance_ohm,cohort\nJ1,0,7800,annealed\n")
        with pytest.raises(SchemaError, match="missing required column 'wafer'"):
            jio.read_aging_csv(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "aging.csv"
        path.write_text(self.HEADER)
        with pytest.raises(SchemaError, match="no data rows"):
            jio.read_aging_csv(str(path))


class TestColumnsCsv:
    def test_reads_columns_in_requested_order(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("power_mw,shift_frac,extra\n10,0.001,x\n25,0.008,y\n")
        rows = jio.read_columns_csv(str(path), ["shift_frac", "power_mw"])
        assert rows == [(0.001, 10.0), (0.008, 25.0)]

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("power_mw\n10\n")
        with pytest.raises(SchemaError, match="missing required column 'shift_frac'"):
            jio.read_columns_csv(str(path), ["power_mw", "shift_frac"])

    def test_bad_cell_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("power_mw\n10\nbroken\n")
        with pytest.raises(SchemaError, match=r":3:"):
            jio.read_columns_csv(str(path), ["power_mw"])

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf"])
    def test_non_finite_cell_reports_line(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"power_mw\n10\n{cell}\n")
        with pytest.raises(SchemaError, match=r":3: column 'power_mw' is not a finite number"):
            jio.read_columns_csv(str(path), ["power_mw"])

    def test_line_counts_blank_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("power_mw,shift_frac\n10,0.01\n\n20,\n")
        with pytest.raises(SchemaError, match=r"d.csv:4: empty value in column 'shift_frac'"):
            jio.read_columns_csv(str(path), ["power_mw", "shift_frac"])

    @pytest.mark.parametrize("column", ["area_um2", "resistance_ohm"])
    def test_size_column_must_be_positive(self, tmp_path, column):
        path = tmp_path / "d.csv"
        path.write_text(f"thickness_nm,{column}\n1.0,0.1\n\n-1.0,-2.5\n")
        with pytest.raises(SchemaError, match=rf"d.csv:4: column '{column}' must be positive, "
                                              r"got -2.5$"):
            jio.read_columns_csv(str(path), ["thickness_nm", column])

    def test_other_columns_may_be_zero_or_negative(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("thickness_nm,shift_frac\n0,-0.01\n-1,0\n")
        rows = jio.read_columns_csv(str(path), ["thickness_nm", "shift_frac"])
        assert rows == [(0.0, -0.01), (-1.0, 0.0)]

    def test_every_cell_parses_before_positivity_is_checked(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("area_um2\n-1\nbroken\n")
        with pytest.raises(SchemaError, match=r"d.csv:3: column 'area_um2' is not a number"):
            jio.read_columns_csv(str(path), ["area_um2"])


MAP_VALUES = st.floats() | st.sampled_from([-0.0, 5e-324, 1e-310, 1e16, 1.0])


@st.composite
def _maps(draw):
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    values = [np.array(draw(st.lists(MAP_VALUES, min_size=n, max_size=n)), dtype=float)
              for n in (cols, rows, rows * cols)]
    return jt.SpectroMap(values[0], values[1], values[2].reshape(rows, cols))


class TestMapCsv:
    @given(_maps())
    def test_text_equals_csv_writer(self, sp):
        header = ["time_h", *(float(v) / 1e6 for v in sp.freq_offsets)]
        rows = ([t, *row] for t, row in zip(sp.times.tolist(), sp.population.tolist()))
        assert jio.map_csv(sp) == _csv_writer_text(header, rows)

    def test_round_trip(self, tmp_path):
        model = jt.QubitNoiseModel(defects=(jt.TlsDefect(f_offset=3e6),))
        sp = jt.simulate_map(
            model, np.linspace(-10e6, 10e6, 21), 0.25, 60.0, 40e-6, np.random.default_rng(5)
        )
        path = str(tmp_path / "map.csv")
        jio.atomic_write_text(path, jio.map_csv(sp))
        back = jio.read_map_csv(path)
        np.testing.assert_allclose(back.freq_offsets, sp.freq_offsets, rtol=1e-12)
        assert np.array_equal(back.times, sp.times)
        assert np.array_equal(back.population, sp.population)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("frequency,0.0\n0.0,0.5\n")
        with pytest.raises(SchemaError, match="time_h"):
            jio.read_map_csv(str(path))

    def test_non_numeric_matrix_rejected(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("time_h,-1.0,1.0\n0.0,0.5,oops\n")
        with pytest.raises(SchemaError, match="malformed map matrix"):
            jio.read_map_csv(str(path))

    @pytest.mark.parametrize("text, line", [
        ("time_h,-1.0,1.0\n0.0,0.5,0.5\n1.0,nan,0.5\n", 3),
        ("time_h,-1.0,1.0\ninf,0.5,0.5\n", 2),
        ("time_h,-1.0,NaN\n0.0,0.5,0.5\n", 1),
    ])
    def test_non_finite_cell_rejected_with_line(self, tmp_path, text, line):
        path = tmp_path / "map.csv"
        path.write_text(text)
        with pytest.raises(SchemaError, match=rf"map.csv:{line}: map matrix holds a non-finite"):
            jio.read_map_csv(str(path))


class TestNoiseModelDocs:
    def test_static_defect(self):
        model = jio.noise_model_from_doc({
            "gamma_1q_per_s": 21505.4,
            "readout_noise_sigma": 0.02,
            "defects": [
                {"f_offset_mhz": 7.81, "coupling_g_khz": 76.0, "gamma_total_mhz": 1.0}
            ],
        })
        assert model.defects[0].f_offset == pytest.approx(7.81e6, rel=1e-12)
        assert model.defects[0].coupling_g == pytest.approx(76e3, rel=1e-12)
        assert isinstance(model.defects[0].dynamics, jt.StaticDynamics)

    def test_drifting_and_telegraphic_defects(self):
        model = jio.noise_model_from_doc({
            "gamma_1q_per_s": 21505.4,
            "readout_noise_sigma": 0.0,
            "defects": [
                {
                    "f_offset_mhz": 0.0, "coupling_g_khz": 76.0, "gamma_total_mhz": 1.0,
                    "dynamics": {"kind": "drifting", "sigma_f_mhz": 0.2, "step_interval_s": 60.0},
                },
                {
                    "f_offset_mhz": -5.0, "coupling_g_khz": 60.0, "gamma_total_mhz": 1.0,
                    "dynamics": {
                        "kind": "telegraphic", "f_a_mhz": -5.0, "f_b_mhz": 5.0,
                        "switch_rate_per_s": 0.0016,
                    },
                },
            ],
        })
        drift = model.defects[0].dynamics
        tele = model.defects[1].dynamics
        assert isinstance(drift, jt.DriftingDynamics)
        assert drift.sigma_f == pytest.approx(0.2e6, rel=1e-12)
        assert isinstance(tele, jt.TelegraphicDynamics)
        assert tele.f_b == pytest.approx(5e6, rel=1e-12)

    def test_unknown_dynamics_kind(self):
        with pytest.raises(SchemaError, match="unknown dynamics"):
            jio.noise_model_from_doc({
                "gamma_1q_per_s": 21505.4, "readout_noise_sigma": 0.0,
                "defects": [{
                    "f_offset_mhz": 0.0, "coupling_g_khz": 76.0, "gamma_total_mhz": 1.0,
                    "dynamics": {"kind": "wobbling"},
                }],
            })

    def test_invalid_defect_is_schema_error(self):
        with pytest.raises(SchemaError, match=r"defects\[0\]"):
            jio.noise_model_from_doc({
                "gamma_1q_per_s": 21505.4, "readout_noise_sigma": 0.0,
                "defects": [{"f_offset_mhz": 0.0, "coupling_g_khz": -1.0, "gamma_total_mhz": 1.0}],
            })

    def test_missing_background_rate(self):
        with pytest.raises(SchemaError, match="gamma_1q_per_s"):
            jio.noise_model_from_doc({"readout_noise_sigma": 0.0})


class TestDerivedDocs:
    @pytest.mark.parametrize("termination, converged", [
        ("step_tolerance", True), ("stalled", True), ("max_iterations", False), ("non_finite", False),
    ])
    def test_fit_report_structure(self, termination, converged):
        fit = FitResult(("m", "t0"), np.array([0.018, 28.0]), np.array([1e-4, 0.5]), 0.01, 7,
                        termination)
        doc = jio.fit_report_doc("dose", fit)
        assert doc == {
            "model": "dose",
            "params": {"m": 0.018, "t0": 28.0},
            "std_errors": {"m": 1e-4, "t0": 0.5},
            "residual_norm": 0.01,
            "converged": converged,
            "iterations": 7,
        }

    def test_extraction_outcomes(self):
        offsets = np.linspace(-15e6, 15e6, 61)
        flat = np.full(61, math.exp(-21505.376344086024 * 40e-6))
        none_doc = jio.extraction_to_doc(jt.extract_tls(offsets, flat, 40e-6), 40e-6)
        assert none_doc["outcome"] == "no persistent defect"
        assert none_doc["persistent_defect"] is False
        assert none_doc["defects"] == []

        model = jt.QubitNoiseModel(defects=(jt.TlsDefect(f_offset=7.81e6),))
        sp = jt.simulate_map(model, offsets, 1.0, 60.0, 40e-6, np.random.default_rng(20260814))
        ex = jt.extract_tls(offsets, jt.time_average(sp), 40e-6)
        doc = jio.extraction_to_doc(ex, 40e-6)
        assert doc["outcome"] == "persistent defect"
        assert doc["wait_s"] == 40e-6
        assert doc["defects"][0]["f_offset_mhz"] == pytest.approx(7.81, abs=0.2)
        assert set(doc["defects"][0]["std_errors"]) == {
            "f_offset_mhz", "coupling_g_khz", "gamma_total_mhz", "gamma_1q_per_s"
        }

    def _traces(self):
        quiet = dataclasses.replace(
            DoseModel(), stochastic=StochasticParams(relative_sigma=0.0, shift_floor=-0.005)
        )
        policy = jt.TunePolicy(measurement_noise_sigma=0.0)
        f0 = jt.qubit_frequency(7781.0)
        hit = jt.iterative_tune(
            jt.JunctionState(resistance=7781.0), f0, policy, quiet,
            rng=np.random.default_rng(0), junction_id="J0",
        )
        moved = jt.iterative_tune(
            jt.JunctionState(resistance=7781.0), f0 - 94e6, policy, quiet,
            rng=np.random.default_rng(0), junction_id="J1",
        )
        return hit, moved

    def test_traces_doc_summary(self):
        hit, moved = self._traces()
        doc = jio.traces_to_doc([hit, moved])
        s = doc["summary"]
        assert s["n_junctions"] == 2
        assert s["n_converged"] == 2
        assert s["n_overshoot"] == 0 and s["n_exhausted"] == 0
        assert s["convergence_fraction"] == 1.0
        first = doc["traces"][0]
        assert first["junction_id"] == "J0"
        assert first["n_anneals"] == 0
        assert first["iterations"][0]["power_mw"] is None
        assert doc["traces"][1]["n_anneals"] >= 1
        assert doc["traces"][1]["iterations"][0]["power_mw"] is not None

    def test_traces_csv_layout(self):
        hit, moved = self._traces()
        text = jio.traces_csv([hit, moved])
        lines = text.splitlines()
        assert lines[0] == (
            "junction_id,iteration,measured_r_ohm,inferred_f_ghz,power_mw,sampled_shift,outcome"
        )
        assert len(lines) == 1 + len(hit.iterations) + len(moved.iterations)
        assert lines[1].startswith("J0,0,")
        assert lines[1].endswith("converged")

    def test_batch_report_docs(self):
        wafer = jt.synthesize_wafer("WB", 3, 3, 50.0, 7800.0, 0.01, seed=2)
        report = jt.run_batch(wafer, jt.DEFAULT_RECIPE, master_seed=4)
        doc = jio.batch_report_to_doc(report)
        assert doc["wafer_id"] == "WB"
        assert doc["n_junctions"] == 9
        assert doc["n_passed"] + doc["n_excluded"] == 9
        assert len(doc["junctions"]) == 9
        text = jio.batch_report_csv(report)
        lines = text.splitlines()
        assert lines[0] == "id,r_before_ohm,r_after_ohm,qc_status,shift_frac"
        assert len(lines) == 10
        # resistances survive the repr round trip bit-exactly
        first = lines[1].split(",")
        assert float(first[1]) == report.entries[0].r_before

    def test_batch_report_csv_columns_follow_the_row_fields(self):
        wafer = jt.synthesize_wafer("WB", 3, 3, 50.0, 7800.0, 0.01, seed=2)
        report = jt.run_batch(wafer, jt.DEFAULT_RECIPE, master_seed=4)
        lines = jio.batch_report_csv(report).splitlines()
        assert jt.BatchRow._fields == ("id", "r_before", "r_after", "qc_status", "shift_frac")
        for line, row in zip(lines[1:], report.entries):
            assert line == ",".join([row.id, repr(row.r_before), repr(row.r_after),
                                     row.qc_status, repr(row.shift_frac)])

    def test_traces_csv_leaves_missing_values_empty(self):
        hit, moved = self._traces()
        lines = jio.traces_csv([hit, moved]).splitlines()
        held = lines[1].split(",")
        assert held[4] == "" and held[5] == ""
        it = moved.iterations[0]
        assert lines[2].split(",")[2:6] == [
            repr(it.measured_r), repr(it.inferred_f / 1e9), repr(it.recipe.power),
            repr(it.sampled_shift),
        ]

    def test_plan_doc(self):
        doc = jio.plan_to_doc("W1", [("J0", 5.2e9, 5.1e9, 0.0125, [LasingRecipe(power=20.0)])])
        assert doc == {"wafer_id": "W1", "junctions": [{
            "id": "J0", "f_now_ghz": 5.2, "f_target_ghz": 5.1, "required_shift_frac": 0.0125,
            "shots": [{"power_mw": 20.0, "exposure_s": 60.0, "repetitions": 1,
                       "displacement_um": 0.0}]}]}


def test_plan_and_traces_files_equal_indented_json_dumps(tmp_path, capsys):
    # Real repr floats and null powers, at a size past one chunk of records.
    wafer = jt.synthesize_wafer("WR", 9, 9, 50.0, 7781.0, 0.01, seed=11)
    wafer_path, targets_path = str(tmp_path / "wafer.json"), str(tmp_path / "targets.json")
    jio.write_json(wafer_path, jio.wafer_to_doc(wafer))
    rng = np.random.default_rng(12)
    targets = {j.id: (jt.qubit_frequency(j.resistance) - rng.uniform(20e6, 150e6)) / 1e9
               for j in wafer.junctions}
    jio.write_json(targets_path, {"targets_ghz": targets})
    plan_path = str(tmp_path / "plan.json")
    assert main(["--output", plan_path, "plan", wafer_path, targets_path]) == 0
    assert main(["--seed", "3", "--format", "csv", "--output", str(tmp_path / "tuned"),
                 "tune", wafer_path, plan_path]) == 0
    capsys.readouterr()
    docs = {}
    for path in (tmp_path / "plan.json", tmp_path / "tuned" / "traces.json"):
        text = path.read_text()
        docs[path.name] = json.loads(text)
        assert text == json.dumps(docs[path.name], indent=2, sort_keys=True) + "\n"
    junctions, traces = docs["plan.json"]["junctions"], docs["traces.json"]["traces"]
    assert len(junctions) == len(traces) == 81
    assert any(it["power_mw"] is None for trace in traces for it in trace["iterations"])


# ---------------------------------------------- record renderers against the builders

# Strings csv.writer quotes or json escapes, and a wafer id holding the text the
# renderers look for in their document shell.
RECORD_IDS = st.text(max_size=6) | st.sampled_from(
    [",", '"', "\n", "\r", "\\", "é", "ключ", "", 'a,"b"\r\n', '\n  "junctions": null'])
RECORD_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.5e-310, 1e16, -3.5e17, 1.7976931348623157e308])
# One value in 20 is a non-finite float, whose json spelling the renderers look
# up, an integer or a numpy float, whose str is json's text. The rest are finite floats.
ODD_NUMBERS = (st.sampled_from([math.inf, -math.inf, math.nan]) | st.integers(-10**6, 10**6)
               | RECORD_FLOATS.map(np.float64))
RECORD_NUMBERS = st.sampled_from([RECORD_FLOATS] * 19 + [ODD_NUMBERS]).flatmap(lambda s: s)
RECIPES = st.builds(
    LasingRecipe,
    power=st.floats(0.0, 49.9) | st.sampled_from([5e-324, 12]),
    exposure=st.floats(5e-324, 1e300) | st.sampled_from([60.0, 1e16]),
    repetitions=st.integers(1, 10**6),
    displacement=st.floats(0.0, 1e300) | st.sampled_from([-0.0, 5e-324]),
)
REPORTS = st.builds(
    BatchReport,
    wafer_id=RECORD_IDS,
    entries=st.lists(st.builds(BatchRow, RECORD_IDS, RECORD_NUMBERS, RECORD_NUMBERS,
                               RECORD_IDS | st.sampled_from(["passed", "excluded"]),
                               RECORD_NUMBERS), max_size=6).map(tuple),
    master_seed=st.integers(0, 2**64),
)
PLAN_ENTRIES = st.lists(st.tuples(RECORD_IDS, RECORD_NUMBERS, RECORD_NUMBERS, RECORD_NUMBERS,
                                  st.lists(RECIPES, max_size=3)), max_size=6)
ITERATIONS = st.builds(TuneIteration, RECORD_NUMBERS, RECORD_NUMBERS,
                       st.none() | RECIPES, st.none() | RECORD_NUMBERS)
TRACES = st.lists(st.builds(
    TuneTrace, RECORD_IDS, RECORD_NUMBERS, st.lists(ITERATIONS, max_size=4).map(tuple),
    st.sampled_from(["converged", "overshoot", "exhausted"]), RECORD_NUMBERS,
), max_size=6)


def _csv_writer_text(header, rows):
    # A "\r\n" terminator makes csv.writer quote a bare "\r" as well; each
    # line then ends in "\n".
    lines = []
    for row in (header, *rows):
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\r\n").writerow(row)
        lines.append(buffer.getvalue().removesuffix("\r\n") + "\n")
    return "".join(lines)


def _plan_docs(entries):
    return [{"id": jid, "f_now_ghz": f_now / 1e9, "f_target_ghz": f_target / 1e9,
             "required_shift_frac": shift, "shots": [jio.recipe_to_doc(shot) for shot in shots]}
            for jid, f_now, f_target, shift, shots in entries]


class TestRecordRenderers:
    @given(REPORTS)
    def test_report_texts_equal_the_builders(self, report):
        assert "".join(jio.batch_report_json(report)) == jio.json_text(
            jio.batch_report_to_doc(report))
        assert jio.batch_report_csv(report) == _csv_writer_text(
            ["id", "r_before_ohm", "r_after_ohm", "qc_status", "shift_frac"], report.entries)

    @given(REPORTS)
    def test_one_pass_report_texts_equal_the_two_renderers(self, report):
        lines: list[str] = []
        text = "".join(jio.batch_report_json(report, lines))
        assert text == jio.json_text(jio.batch_report_to_doc(report))
        assert "".join(lines) == jio.batch_report_csv(report)

    @given(TRACES)
    def test_one_pass_traces_texts_equal_the_two_renderers(self, traces):
        lines: list[str] = []
        text = "".join(jio.traces_json(traces, lines))
        assert text == jio.json_text(jio.traces_to_doc(traces))
        assert "".join(lines) == jio.traces_csv(traces)

    @given(RECORD_IDS, PLAN_ENTRIES)
    def test_plan_text_equals_the_builder(self, wafer_id, entries):
        text = jio.json_text(jio.plan_to_doc(wafer_id, entries))
        assert "".join(jio.plan_json(wafer_id, entries)) == text
        # Texts, not dicts: a NaN record makes dict equality false.
        assert text == jio.json_text({"wafer_id": wafer_id, "junctions": _plan_docs(entries)})

    @given(TRACES)
    def test_traces_texts_equal_the_builders(self, traces):
        doc = jio.traces_to_doc(traces)
        assert "".join(jio.traces_json(traces)) == jio.json_text(doc)
        assert jio.traces_summary(traces) == doc["summary"]
        rows = ((trace.junction_id, k, it.measured_r, it.inferred_f / 1e9,
                 None if it.recipe is None else it.recipe.power, it.sampled_shift, trace.outcome)
                for trace in traces for k, it in enumerate(trace.iterations))
        assert jio.traces_csv(traces) == _csv_writer_text(
            ["junction_id", "iteration", "measured_r_ohm", "inferred_f_ghz", "power_mw",
             "sampled_shift", "outcome"], rows)


# The values whose str json spells otherwise (bools, None, NaN, the infinities),
# beside an int, a numpy float and two finite floats whose sum overflows.
SPELLED = [True, False, None, math.nan, math.inf, -math.inf, 7, np.float64(0.1), 1e308, 1e308]


def test_renderers_write_each_value_as_json_does():
    # Each number slot holds each value in turn; a slot divided by 1e9 skips None.
    # The shots are unvalidated stand-ins with LasingRecipe's fields.
    turns = [SPELLED[k:] + SPELLED[:k] for k in range(len(SPELLED))]
    scaled = [[v for v in turn if v is not None] for turn in turns]
    shots = [types.SimpleNamespace(power=t[0], exposure=t[1], repetitions=t[2], displacement=t[3])
             for t in turns]
    report = BatchReport("W", tuple(BatchRow(f"J{k}", t[0], t[1], "passed", t[2])
                                    for k, t in enumerate(turns)), 0)
    entries = [(f"J{k}", s[0], s[1], t[0], shots[k:k + 2])
               for k, (t, s) in enumerate(zip(turns, scaled))]
    traces = [TuneTrace(f"J{k}", s[0], (TuneIteration(t[1], s[1], shots[k], t[2]),
                                        TuneIteration(t[3], s[2], None, None)), "converged", t[4])
              for k, (t, s) in enumerate(zip(turns, scaled))]
    lines: list[str] = []
    text = "".join(jio.batch_report_json(report, lines))
    assert text == jio.json_text(jio.batch_report_to_doc(report))
    assert "".join(lines) == jio.batch_report_csv(report)
    text = "".join(jio.plan_json("W", entries))
    assert text == jio.json_text(jio.plan_to_doc("W", entries))
    lines = []
    text = "".join(jio.traces_json(traces, lines))
    assert text == jio.json_text(jio.traces_to_doc(traces))
    assert "".join(lines) == jio.traces_csv(traces)
    for word in ("true", "false", "null", "NaN", "-Infinity", "1e+308"):
        assert word in text, word
