"""Release gate: thirteen end-to-end checks, one per headline capability.

Every check is either an analytically frozen anchor or a fully seeded
stochastic instance; the tolerances are part of the contract. conftest
prints a PASS/FAIL line per check at the end of the run.
"""

import dataclasses

import numpy as np
import pytest

import jjtune as jt
import jjtune.io as jio
from jjtune.cli import _fit_barrier, _fit_dose
from jjtune.streams import child_rng

BARRIER_CSV = (
    "thickness_nm,area_um2,resistance_ohm\n"
    "2.43,0.0997,7781\n"
    "2.32,0.1679,5249\n"
    "2.44,0.1125,5979\n"
    "2.44,0.1967,13735\n"
    "2.64,0.1835,13867\n"
)


def test_c01_frequency_sensitivity():
    """01 frequency sensitivity: slope -1/1.9 and 5% linearization error

    Central difference of ln f vs ln R at 5.225 GHz, where the charging
    energy is 1/19 of hf, plus the exact-vs-linear 5% resistance step.
    """
    r = jt.resistance_for_frequency(5.225e9)
    h = 1e-6
    slope = (jt.qubit_frequency(r * (1 + h)) - jt.qubit_frequency(r * (1 - h))) / (
        2 * h * jt.qubit_frequency(r)
    )
    assert slope == pytest.approx(-1.0 / 1.9, rel=1e-3)

    f0 = jt.qubit_frequency(7781.0)
    exact = jt.qubit_frequency(7781.0 * 1.05) / f0 - 1.0
    assert exact == pytest.approx(-0.025233070499092514, rel=1e-12)
    for step in (0.05, -0.05):
        exact = jt.qubit_frequency(7781.0 * (1 + step)) / f0 - 1.0
        assert abs(exact - jt.linearized_shift(step)) <= 0.003


def test_c02_frequency_inversion():
    """02 frequency-resistance inversion round trip across the working band"""
    assert jt.resistance_for_frequency(5.7e9) == pytest.approx(
        8173.261651050668, rel=1e-12
    )
    for r in np.geomspace(2e3, 5e4, 41):
        f = jt.qubit_frequency(float(r))
        assert jt.resistance_for_frequency(f) == pytest.approx(float(r), rel=1e-9)


def test_c03_critical_current():
    """03 critical current at 7629 ohm within 0.1 nA of 35 nA"""
    ic = jt.critical_current(7629.0)
    assert ic == pytest.approx(3.5002670802874876e-08, rel=1e-12)
    assert abs(ic - 35.0e-9) < 0.1e-9


def test_c04_dose_fit(tmp_path):
    """04 dose fit recovers plateau 0.018 within 0.002 from a noisy sweep

    Three power levels x 20 junctions, 1% relative shift noise, one seed.
    """
    rng = np.random.default_rng(20260814)
    powers = np.repeat([10.0, 25.0, 40.0], 20)
    mu = np.array([
        jt.mean_shift(jt.LasingRecipe(power=float(p), exposure=60.0)) for p in powers
    ])
    shifts = mu * (1.0 + 0.01 * rng.standard_normal(powers.size))
    path = tmp_path / "dose.csv"
    rows = [f"{float(p)!r},{float(s)!r}" for p, s in zip(powers, shifts)]
    path.write_text("power_mw,shift_frac\n" + "\n".join(rows) + "\n")
    fit = _fit_dose(str(path))
    m_hat = float(fit.params[fit.parameter_names.index("plateau_m")])
    assert fit.converged
    assert abs(m_hat - 0.018) <= 0.002
    assert m_hat == pytest.approx(0.01792432356432208, rel=1e-9)


def test_c05_displacement_profile():
    """05 displacement response: peak in [4,6] um, edge kink, 30 um locality"""
    grid = np.arange(0.0, 30.0 + 1e-9, 0.01)
    response = np.array([jt.displacement_response(float(d)) for d in grid])
    peak = int(np.argmax(response))
    assert 4.0 <= grid[peak] <= 6.0
    assert response[peak] == pytest.approx(0.015, abs=1e-4)
    curvature = np.abs(np.diff(response, 2))
    inner = grid[1:-1]
    near_edge = curvature[(inner > 3.5) & (inner < 4.5)].max()
    far_field = float(np.median(curvature[inner > 10.0]))
    assert near_edge >= 5.0 * far_field
    assert response[-1] <= 0.003


def test_c06_aging_cohorts():
    """06 aging fits recover all four reference cohorts; offset preserved

    Noiseless 30-day series refit to 1e-6 relative; the annealed vs
    unannealed gap on wafer 1 stays within 2 points of its day-0 value.
    """
    days = np.linspace(0.0, 30.0, 16)
    for params in jt.REFERENCE_COHORTS.values():
        shifts = [jt.aging_shift(float(t), params) for t in days]
        fit = jt.fit_aging_samples(list(days), shifts)
        truth = (params.final_shift_a, params.depth_b, params.tau_days)
        assert fit.converged
        for got, want in zip(fit.params, truth):
            assert float(got) == pytest.approx(want, rel=1e-6)
    gaps = jt.offset_preservation(
        jt.REFERENCE_COHORTS["wafer1_annealed"],
        jt.REFERENCE_COHORTS["wafer1_unannealed"],
        horizon=30.0,
    )
    assert gaps["initial_gap"] == pytest.approx(0.06, rel=1e-12)
    assert abs(gaps["final_gap"] - gaps["initial_gap"]) <= 0.02
    assert gaps["max_drift"] <= 0.02


def test_c07_defect_mapping():
    """07 seeded defect map round trip: offset within 0.1 MHz, g within 5%"""
    offsets = np.arange(-10e6, 10e6 + 0.125e6, 0.25e6)
    model = jt.QubitNoiseModel(defects=(jt.TlsDefect(f_offset=7.81e6),))
    spectro = jt.simulate_map(
        model, offsets, 2.0, 60.0, 40e-6, np.random.default_rng(20260814)
    )
    extraction = jt.extract_tls(offsets, jt.time_average(spectro), 40e-6)
    assert extraction.persistent
    f_hat, g_hat = extraction.best.params[0], extraction.best.params[1]
    assert abs(f_hat - 7.81e6) <= 0.1e6
    assert abs(g_hat - 76e3) / 76e3 <= 0.05


def test_c08_stark_calibration():
    """08 Stark conversion fit within 0.1%; -33 MHz amplitude within 1e-3"""
    cal = jt.StarkCalibration()
    amplitudes = np.linspace(0.01, 0.18, 12)
    shifts = np.array([jt.stark_shift(float(a), cal, -1) for a in amplitudes])
    fit = jt.fit_stark(amplitudes, shifts)
    assert abs(float(fit.params[0]) - 432e6) / 432e6 <= 1e-3
    amplitude = jt.amplitude_for_shift(-33e6)
    assert abs(amplitude - 0.1847361453956368) <= 1e-3
    assert amplitude == pytest.approx(0.1847361453956368, rel=1e-12)


def test_c09_closed_loop_tuning():
    """09 closed-loop MC: 1000/1000 converge, <=5 anneals, zero overshoot

    Every junction gets its own child stream; the same stream then drives
    the measurement and shot noise inside the controller.
    """
    outcomes: dict[str, int] = {}
    anneal_counts = []
    for i in range(1000):
        rng = child_rng(20260814, f"J{i:04d}")
        r0 = 7781.0 * float(np.exp(0.01 * rng.standard_normal()))
        target = jt.qubit_frequency(r0) - 94e6
        trace = jt.iterative_tune(jt.JunctionState(resistance=r0), target, rng=rng)
        outcomes[trace.outcome] = outcomes.get(trace.outcome, 0) + 1
        anneal_counts.append(
            sum(1 for it in trace.iterations if it.recipe is not None)
        )
    assert outcomes == {"converged": 1000}
    assert sum(1 for n in anneal_counts if n <= 5) >= 950
    assert max(anneal_counts) <= 5


def test_c10_batch_throughput():
    """10 3000-site batch: reproducible, permutation-invariant, on-budget

    50x60 wafer, one master seed: frozen yield and mean shift, wall time
    at 20 s/junction, and a junction-order permutation changes nothing.
    """
    wafer = jt.synthesize_wafer("W1", 50, 60, 50.0, 7781.0, 0.01, seed=5)
    report = jt.run_batch(wafer, jt.DEFAULT_RECIPE, master_seed=99)
    assert report.estimated_wall_time_s == 60000.0
    passed = [e for e in report.entries if e.qc_status == "passed"]
    assert len(passed) == 2957
    shifts = np.array([e.shift_frac for e in passed])
    assert float(shifts.mean()) == pytest.approx(0.017465113392076848, rel=1e-12)
    stderr = float(shifts.std(ddof=1)) / np.sqrt(len(passed))
    assert abs(float(shifts.mean()) - jt.mean_shift(jt.DEFAULT_RECIPE)) <= 3 * stderr
    shuffled = dataclasses.replace(wafer, junctions=tuple(reversed(wafer.junctions)))
    report2 = jt.run_batch(shuffled, jt.DEFAULT_RECIPE, master_seed=99)
    assert jio.batch_report_to_doc(report2) == jio.batch_report_to_doc(report)


def test_c11_fiducial_registration():
    """11 affine registration: exact on clean marks, 0.3-0.7 um noisy RMS

    Ten fiducials under a 7 degree / 1.001 scale / offset stage map; with
    0.5 um mark noise the residual RMS averaged over 100 seeds sits in
    the expected band for six fitted degrees of freedom.
    """
    wafer = jt.synthesize_wafer("WREG", 8, 8, 1000.0, 7800.0, 0.01, seed=1)
    design = np.array([rec.design_xy for rec in jt.default_fiducials(wafer)])
    theta = np.radians(7.0)
    stage = 1.001 * np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    truth = design @ stage.T + np.array([120.0, -45.0])

    transform = jt.estimate_affine(design, truth)
    predicted = np.array([jt.apply_affine(transform, p) for p in design])
    assert np.max(np.abs(predicted - truth)) <= 1e-9

    rms = []
    for seed in range(100):
        noise = 0.5 * np.random.default_rng(seed).standard_normal(truth.shape)
        observed = truth + noise
        fit = jt.estimate_affine(design, observed)
        predicted = np.array([jt.apply_affine(fit, p) for p in design])
        rms.append(float(np.sqrt(np.mean((predicted - observed) ** 2))))
    assert 0.3 <= float(np.mean(rms)) <= 0.7


def test_c12_coherence_gate():
    """12 coherence gate: doubled T1 flagged, 5% shift not flagged"""
    rng = np.random.default_rng(12)
    before = 46.5 * np.exp(0.1 * rng.standard_normal(24))
    after = 95.0 * np.exp(0.1 * rng.standard_normal(24))
    summary = jt.summarize_coherence(before)
    assert jt.significant_change(summary, jt.summarize_coherence(after))
    assert not jt.significant_change(summary, jt.summarize_coherence(before * 1.05))


def test_c13_barrier_thickness(tmp_path):
    """13 barrier fit tau in [0.16,0.62]; +1 A step multiplies R by ~1.29"""
    path = tmp_path / "barrier.csv"
    path.write_text(BARRIER_CSV)
    fit = _fit_barrier(str(path))
    tau = float(fit.params[fit.parameter_names.index("tau_barrier_nm")])
    assert fit.converged
    assert tau == pytest.approx(0.31835334206734994, rel=1e-9)
    assert 0.16 <= tau <= 0.62
    ratio = jt.barrier_resistance(2.5, 0.1) / jt.barrier_resistance(2.4, 0.1)
    assert ratio == pytest.approx(np.exp(0.1 / 0.39), rel=1e-12)
    assert 1.29 <= ratio <= 1.30
