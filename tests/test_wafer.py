"""Wafer registration, alignment QC, and order-independent batch anneals."""

import dataclasses
import json
import math
from collections import Counter

import numpy as np
import pytest

import jjtune as jt
import jjtune.io as jio
from jjtune.dose import DoseModel, StochasticParams
from jjtune.errors import DomainError
from jjtune.streams import CHUNK, child_rng

MU_DEFAULT = 0.01747175742090387   # deterministic shift of the default recipe


def rotation_scale(theta_deg=7.0, scale=1.001):
    t = math.radians(theta_deg)
    return scale * np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


class TestAffine:
    def test_exact_recovery(self):
        lin = rotation_scale()
        off = np.array([120.0, -45.0])
        design = np.array(
            [[x, y] for x in (0.0, 100.0, 200.0, 350.0) for y in (0.0, 150.0, 300.0)]
        )[:10]
        stage = design @ lin.T + off
        t = jt.estimate_affine(design, stage)
        np.testing.assert_allclose(t.linear, lin, atol=1e-9)
        np.testing.assert_allclose(t.offset, off, atol=1e-9)
        pred = np.array([jt.apply_affine(t, p) for p in design])
        assert float(np.max(np.abs(pred - stage))) <= 1e-9

    def test_apply_matches_manual_arithmetic(self):
        t = jt.AffineTransform(linear=np.array([[2.0, 0.5], [-0.5, 1.5]]), offset=np.array([3.0, -1.0]))
        p = np.array([4.0, 6.0])
        np.testing.assert_allclose(jt.apply_affine(t, p), t.linear @ p + t.offset, rtol=1e-15)

    def test_minimum_three_points(self):
        with pytest.raises(DomainError):
            jt.estimate_affine([[0, 0], [1, 0]], [[0, 0], [1, 0]])

    def test_collinear_points_rejected(self):
        design = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]
        with pytest.raises(DomainError):
            jt.estimate_affine(design, design)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            jt.estimate_affine([[0, 0], [1, 0], [0, 1]], [[0, 0], [1, 0]])

    def test_singular_transform_rejected(self):
        with pytest.raises(DomainError):
            jt.AffineTransform(linear=np.zeros((2, 2)), offset=np.zeros(2))

    def test_non_planar_transform_rejected(self):
        with pytest.raises(DomainError, match="2x2"):
            jt.AffineTransform(linear=np.eye(3), offset=np.zeros(2))

    def test_noisy_registration_residual_band(self):
        # 0.5 um stage noise on 10 fiducials leaves a sub-micron residual;
        # mean per-coordinate RMS over many seeds sits near 0.4 um
        wafer = jt.synthesize_wafer("WREG", 8, 8, 1000.0, 7800.0, 0.01, seed=1)
        fids = jt.default_fiducials(wafer)
        design = np.array([f.design_xy for f in fids])
        true_stage = design @ rotation_scale().T + np.array([120.0, -45.0])
        rms = []
        for seed in range(30):
            rng = np.random.default_rng(seed)
            observed = true_stage + 0.5 * rng.standard_normal(true_stage.shape)
            t = jt.estimate_affine(design, observed)
            pred = design @ t.linear.T + t.offset
            rms.append(float(np.sqrt(np.mean((pred - observed) ** 2))))
        assert 0.25 < float(np.mean(rms)) < 0.7


class TestAlignment:
    def test_perfect_visit_scores_one(self):
        assert jt.alignment_score(0.0, 0.0, jt.StageNoise()) == 1.0

    def test_characteristic_lengths(self):
        noise = jt.StageNoise()
        assert jt.alignment_score(noise.delta_center, 0.0, noise) == pytest.approx(
            math.exp(-1.0), rel=1e-12
        )
        assert jt.alignment_score(0.0, noise.delta_focus, noise) == pytest.approx(
            math.exp(-1.0), rel=1e-12
        )

    def test_score_decreases_with_error(self):
        noise = jt.StageNoise()
        scores = [jt.alignment_score(c, 0.05, noise) for c in (0.0, 0.02, 0.1, 0.5)]
        assert scores == sorted(scores, reverse=True)

    def test_gate_boundary_inclusive(self):
        passing = jt.AlignmentResult(centering_offset=0.0, focus_error=0.0, qc_score=0.97)
        failing = jt.AlignmentResult(centering_offset=0.0, focus_error=0.0, qc_score=0.969)
        assert jt.qc_gate(passing) == "passed"
        assert jt.qc_gate(failing) == "excluded"

    def test_default_noise_pass_rate(self):
        # sigma/delta = 0.06 both axes puts the 0.97 gate near 98.5% yield
        noise = jt.StageNoise()
        passed = sum(
            jt.qc_gate(jt.simulate_alignment(noise, child_rng(7, f"S{i}"))) == "passed"
            for i in range(3000)
        )
        assert passed / 3000 == pytest.approx(0.985, abs=0.01)

    def test_noise_validation(self):
        with pytest.raises(DomainError):
            jt.StageNoise(sigma_center=-0.1)
        with pytest.raises(DomainError):
            jt.StageNoise(delta_focus=0.0)


class TestLayout:
    def test_synthesize_is_deterministic(self):
        a = jt.synthesize_wafer("W1", 4, 5, 50.0, 7781.0, 0.01, seed=3)
        b = jt.synthesize_wafer("W1", 4, 5, 50.0, 7781.0, 0.01, seed=3)
        c = jt.synthesize_wafer("W1", 4, 5, 50.0, 7781.0, 0.01, seed=4)
        assert [j.resistance for j in a.junctions] == [j.resistance for j in b.junctions]
        assert [j.resistance for j in a.junctions] != [j.resistance for j in c.junctions]

    def test_grid_ids_and_positions(self):
        w = jt.synthesize_wafer("W1", 3, 4, 25.0, 8000.0, 0.0, seed=0)
        assert len(w.junctions) == 12
        assert len({j.id for j in w.junctions}) == 12
        assert w.junctions[0].id == "W1-J00"
        assert w.junctions[11].id == "W1-J11"
        assert w.junctions[0].design_xy == (0.0, 0.0)
        assert w.junctions[5].design_xy == (25.0, 25.0)      # row 1, col 1
        assert w.junctions[11].design_xy == (75.0, 50.0)     # row 2, col 3
        # zero sigma keeps the nominal resistance
        assert all(j.resistance == 8000.0 for j in w.junctions)

    def test_duplicate_ids_rejected(self):
        j = jt.JunctionRecord(id="a", design_xy=(0.0, 0.0), area=0.1, resistance=8000.0)
        with pytest.raises(DomainError):
            jt.WaferLayout(wafer_id="W", rows=2, cols=2, pitch=50.0, junctions=(j, j))

    def test_overfull_grid_rejected(self):
        js = tuple(
            jt.JunctionRecord(id=f"a{i}", design_xy=(float(i), 0.0), area=0.1, resistance=8000.0)
            for i in range(5)
        )
        with pytest.raises(DomainError):
            jt.WaferLayout(wafer_id="W", rows=2, cols=2, pitch=50.0, junctions=js)

    def test_junction_validation(self):
        with pytest.raises(DomainError):
            jt.JunctionRecord(id="a", design_xy=(0.0, 0.0), area=0.1, resistance=0.0)
        with pytest.raises(DomainError):
            jt.JunctionRecord(id="a", design_xy=(0.0, 0.0), area=-0.1, resistance=8000.0)

    def test_default_fiducials_cover_corners(self):
        w = jt.synthesize_wafer("W1", 8, 8, 50.0, 7800.0, 0.01, seed=1)
        fids = jt.default_fiducials(w)
        assert len(fids) == 10
        assert len({f.id for f in fids}) == 10
        xys = {f.design_xy for f in fids}
        for corner in ((0.0, 0.0), (350.0, 0.0), (0.0, 350.0), (350.0, 350.0)):
            assert corner in xys

    def test_empty_grid_and_empty_wafer_rejected(self):
        with pytest.raises(DomainError, match="at least one site"):
            jt.synthesize_wafer("W1", 0, 4, 50.0, 7800.0, 0.01, seed=1)
        empty = jt.WaferLayout(wafer_id="W", rows=2, cols=2, pitch=50.0, junctions=())
        with pytest.raises(DomainError, match="no junctions"):
            jt.default_fiducials(empty)


class TestBatch:
    def test_quiet_batch_applies_exact_mean_shift(self):
        quiet = dataclasses.replace(
            DoseModel(), stochastic=StochasticParams(relative_sigma=0.0, shift_floor=-0.005)
        )
        calm = jt.StageNoise(sigma_center=0.0, sigma_focus=0.0)
        w = jt.synthesize_wafer("WZ", 3, 4, 50.0, 7781.0, 0.01, seed=2)
        report = jt.run_batch(w, jt.DEFAULT_RECIPE, master_seed=5, stage_noise=calm, model=quiet)
        assert all(e.qc_status == "passed" for e in report.entries)
        assert all(e.shift_frac == MU_DEFAULT for e in report.entries)
        assert all(e.r_after == e.r_before * (1 + MU_DEFAULT) for e in report.entries)

    def test_wall_time_estimate(self):
        w = jt.synthesize_wafer("WZ", 3, 4, 50.0, 7781.0, 0.01, seed=2)
        report = jt.run_batch(w, jt.DEFAULT_RECIPE, master_seed=5)
        assert report.estimated_wall_time_s == jt.SECONDS_PER_JUNCTION * 12

    def test_wall_time_estimate_is_read_from_the_entries(self):
        assert [f.name for f in dataclasses.fields(jt.BatchReport)] == [
            "wafer_id", "entries", "master_seed",
        ]
        w = jt.synthesize_wafer("WZ", 2, 2, 50.0, 7781.0, 0.01, seed=2)
        report = jt.run_batch(w, jt.DEFAULT_RECIPE, master_seed=5)
        assert dataclasses.replace(report, entries=report.entries[:1]).estimated_wall_time_s == (
            jt.SECONDS_PER_JUNCTION
        )

    def test_sloppy_stage_excludes_but_keeps_resistance(self):
        w = jt.synthesize_wafer("WX", 8, 8, 50.0, 7800.0, 0.01, seed=4)
        harsh = jt.StageNoise(sigma_center=1.0, sigma_focus=0.12)
        report = jt.run_batch(w, jt.DEFAULT_RECIPE, master_seed=11, stage_noise=harsh)
        counts = Counter(e.qc_status for e in report.entries)
        assert counts == {"excluded": 56, "passed": 8}
        for e in report.entries:
            if e.qc_status == "excluded":
                assert e.r_after == e.r_before
                assert e.shift_frac == 0.0
            else:
                assert e.r_after > e.r_before

    def test_processing_order_does_not_matter(self):
        w = jt.synthesize_wafer("WX", 8, 8, 50.0, 7800.0, 0.01, seed=4)
        permuted = jt.WaferLayout(
            wafer_id=w.wafer_id, rows=w.rows, cols=w.cols, pitch=w.pitch,
            junctions=tuple(reversed(w.junctions)),
        )
        harsh = jt.StageNoise(sigma_center=1.0, sigma_focus=0.12)
        a = jt.run_batch(w, jt.DEFAULT_RECIPE, master_seed=11, stage_noise=harsh)
        b = jt.run_batch(permuted, jt.DEFAULT_RECIPE, master_seed=11, stage_noise=harsh)
        assert a.entries == b.entries

    def test_report_sorted_by_id(self):
        w = jt.synthesize_wafer("WS", 2, 3, 50.0, 7800.0, 0.01, seed=6)
        shuffled = jt.WaferLayout(
            wafer_id=w.wafer_id, rows=w.rows, cols=w.cols, pitch=w.pitch,
            junctions=w.junctions[::-1],
        )
        report = jt.run_batch(shuffled, jt.DEFAULT_RECIPE, master_seed=1)
        ids = [e.id for e in report.entries]
        assert ids == sorted(ids)


    def test_chunk_boundaries_change_no_byte(self):
        w = jt.synthesize_wafer("WC", 33, 33, 50.0, 7800.0, 0.01, seed=8)
        assert len(w.junctions) > CHUNK
        reversed_wafer = dataclasses.replace(w, junctions=w.junctions[::-1])
        harsh = jt.StageNoise(sigma_center=0.3, sigma_focus=0.12)
        a = jt.run_batch(w, jt.DEFAULT_RECIPE, master_seed=21, stage_noise=harsh)
        b = jt.run_batch(reversed_wafer, jt.DEFAULT_RECIPE, master_seed=21, stage_noise=harsh)
        assert jio.batch_report_csv(a) == jio.batch_report_csv(b)
        assert json.dumps(jio.batch_report_to_doc(a)) == json.dumps(jio.batch_report_to_doc(b))

    def test_matches_one_visit_and_one_shot_per_junction(self):
        # The batch loop equals visiting and annealing each junction on its own.
        w = jt.synthesize_wafer("WR", 6, 7, 50.0, 7800.0, 0.01, seed=3)
        harsh = jt.StageNoise(sigma_center=0.3, sigma_focus=0.12)
        recipe = jt.LasingRecipe(power=30.0, exposure=2.0, displacement=1.5)
        report = jt.run_batch(w, recipe, master_seed=13, stage_noise=harsh)
        by_id = {e.id: e for e in report.entries}
        assert Counter(e.qc_status for e in report.entries)["excluded"] > 0
        for junction in w.junctions:
            rng = child_rng(13, junction.id)
            visit = jt.simulate_alignment(harsh, rng)
            row = by_id[junction.id]
            assert row.qc_status == jt.qc_gate(visit)
            if row.qc_status == "passed":
                shot = dataclasses.replace(
                    recipe, displacement=recipe.displacement + visit.centering_offset
                )
                state = jt.apply_anneal(jt.JunctionState(junction.resistance), shot, rng)
                assert (row.r_after, row.shift_frac) == (
                    state.resistance, state.history[-1].shift
                )
            else:
                assert (row.r_after, row.shift_frac) == (junction.resistance, 0.0)


class TestChildStreams:
    def test_same_key_same_stream(self):
        a = child_rng(9, "J0001").standard_normal(4)
        b = child_rng(9, "J0001").standard_normal(4)
        assert np.array_equal(a, b)

    def test_distinct_ids_decorrelated(self):
        a = child_rng(9, "J0001").standard_normal(4)
        b = child_rng(9, "J0002").standard_normal(4)
        c = child_rng(10, "J0001").standard_normal(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
