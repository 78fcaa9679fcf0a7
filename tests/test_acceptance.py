"""Acceptance criteria, one test each, at their stated tolerances.

The terminal summary (conftest) prints one PASS/FAIL line per criterion.
Reproduction-mode checks use the rounded ("paper") constant preset and
the quoted per-valley inputs; field checks run on the calibrated 45 keV
setup.
"""

import json

import numpy as np
import pytest

from bohm_radiance import radiance as rad
from bohm_radiance import trajectories as tr
from bohm_radiance import wavefield as wf
from bohm_radiance.config import load_config
from bohm_radiance.presets import (
    PAPER_VALLEY_INPUTS,
    VALLEY_ENTRY_SPEED_CM_S,
    cmbr_flux,
    current_scaled_power,
    jonsson_rate,
)
from bohm_radiance.runner import run

import reference_kernel as ref

# Valley-2 wall width consistent with tau_2 (one-sided traversal).
VALLEY2_WALL_WIDTH_CM = 1.0e-4 / 7.0

# The published current-scaled power for valley 4, ten times below what
# linear current scaling gives (ROW4_SCALING_NOTE flags the row).
REFERENCE_ROW4_POWER_JONSSON_W = 1.25e-20

TABLE1_PRINTED = {
    # valley: (omega_c Hz, lambda_c cm, I0 eV/Hz, P_T W, P_J W)
    1: (3.57e10, 0.84, 1.63e-27, 3.25e-25, 1.82e-17),
    2: (1.43e10, 2.1, 1.03e-27, 3.27e-26, 1.83e-18),
    3: (9.8e9, 3.06, 2.0e-28, 3.02e-27, 1.70e-19),
    4: (9.17e9, 3.27, 1.69e-28, 2.23e-27, None),
}


def test_table1_reproduction(paper):
    j_rate = jonsson_rate(paper)
    for vi in PAPER_VALLEY_INPUTS:
        step = rad.spectrum_step(paper, vi)
        omega, lam, i0, p_t, p_j = TABLE1_PRINTED[vi.index]
        assert step.omega_c_hz == pytest.approx(omega, rel=0.03, abs=0.0)
        assert step.lambda_c_cm == pytest.approx(lam, rel=0.03, abs=0.0)
        assert step.i0_ev_per_hz == pytest.approx(i0, rel=0.03, abs=0.0)
        assert step.power_w == pytest.approx(p_t, rel=0.03, abs=0.0)
        scaled = current_scaled_power(step.power_w, j_rate)
        if vi.index < 4:
            assert scaled == pytest.approx(p_j, rel=0.03, abs=0.0)
        else:
            # scaling-consistent value, ten times the printed one
            assert scaled == pytest.approx(1.25e-19, rel=0.03, abs=0.0)
            assert scaled / REFERENCE_ROW4_POWER_JONSSON_W == pytest.approx(
                10.0, rel=0.05, abs=0.0)


def test_headline_numbers(paper):
    p2 = rad.emission_power_from_gradq(paper, 3.06)
    assert p2 == pytest.approx(3.27e-26, rel=0.01, abs=0.0)

    a2 = paper.acceleration_from_gradient(3.06)
    tau2 = rad.collision_time(VALLEY_ENTRY_SPEED_CM_S, a2,
                              VALLEY2_WALL_WIDTH_CM)
    assert tau2 == pytest.approx(7.01e-11, rel=0.01, abs=0.0)

    _, nu2 = rad.photon_energy_frequency(paper, p2, tau2)
    assert nu2 == pytest.approx(3.45e-3, rel=0.02, abs=0.0)

    p1 = rad.emission_power_from_gradq(paper, 9.66)
    _, nu1 = rad.photon_energy_frequency(paper, p1, 2.8e-11)
    assert nu1 == pytest.approx(1.37e-2, rel=0.03, abs=0.0)

    p3 = rad.emission_power_from_gradq(paper, 0.93)
    _, nu3 = rad.photon_energy_frequency(paper, p3, 1.02e-10)
    assert nu3 == pytest.approx(4.66e-4, rel=0.03, abs=0.0)

    p4 = rad.emission_power_from_gradq(paper, 0.8)
    _, nu4 = rad.photon_energy_frequency(paper, p4, 1.09e-10)
    assert 3.6e-4 * 0.97 <= nu4 <= 3.7e-4 * 1.03


def test_copenhagen_baseline(tmp_path):
    assert rad.copenhagen_emission_power() == 0.0
    cfg = load_config(None, {"output_dir": str(tmp_path / "cmp")})
    run("compare", cfg)
    lines = (cfg.output_dir / "compare.csv").read_text().splitlines()
    assert lines[0].split(",")[1] == "copenhagen_power_w"
    assert all(line.split(",")[1] == "0.0" for line in lines[1:])
    doc = json.loads((cfg.output_dir / "compare.json").read_text())
    assert all(row["copenhagen_power_w"] == 0.0 for row in doc["rows"])


def test_statistical_reconciliation(exp, paper):
    t = exp.section_time_s(exp.cross_section_x_cm)
    mean_power = rad.ensemble_mean_power(exp, paper, t)
    p_valley1 = rad.emission_power_from_gradq(paper, 9.66)
    assert abs(mean_power) < 1e-6 * p_valley1


def test_overlap(modern):
    res = rad.gaussian_overlap(modern, rad.OverlapInput(
        delta_p_over_m_cm_s=476554.0, d_cm=2.818e-13))
    assert abs(res.probability - 1.0) < 1e-10
    assert res.exponent_magnitude == pytest.approx(3.359e-15, rel=0.01,
                                                   abs=0.0)


def test_detectability(paper, tmp_path):
    assert cmbr_flux() == pytest.approx(3.15e-6, rel=0.005, abs=0.0)
    cfg = load_config(None, {"output_dir": str(tmp_path / "det")})
    run("detectability", cfg)
    doc = json.loads((cfg.output_dir / "detectability.json").read_text())
    assert doc["beam_flux_w_m2"] == pytest.approx(3.7e-6, rel=0.02, abs=0.0)
    assert doc["reference_beam_flux_w_m2"] == 1.85e-6
    assert doc["notes"]  # the factor-2 discrepancy is flagged


def test_field_correctness(exp, paper, masked_samples):
    # gradient: analytic vs Richardson-extrapolated finite differences on
    # 1e4 amplitude-masked samples
    y, t = masked_samples
    g_an = wf.grad_quantum_potential(exp, paper, y, t)
    h = 2.0e-3 * ref.field_scale(exp, paper, t)

    def fd4(step):
        return (8.0 * (wf.quantum_potential(exp, paper, y + step, t)
                       - wf.quantum_potential(exp, paper, y - step, t))
                - (wf.quantum_potential(exp, paper, y + 2 * step, t)
                   - wf.quantum_potential(exp, paper, y - 2 * step, t))) \
            / (12.0 * step)

    coarse, fine = fd4(h), fd4(h / 4.0)
    g_fd = fine + (fine - coarse) / 255.0
    rel = np.abs(g_fd - g_an) / np.abs(g_an)
    assert np.max(rel) < 1e-6

    # mirror symmetry of psi, Q, and the phase gradient on the axis
    ys = np.linspace(1e-6, 7e-4, 3000)
    np.testing.assert_allclose(wf.psi(exp, paper, ys, t),
                               wf.psi(exp, paper, -ys, t), rtol=1e-10)
    np.testing.assert_allclose(wf.quantum_potential(exp, paper, ys, t),
                               wf.quantum_potential(exp, paper, -ys, t),
                               rtol=1e-10)
    assert wf.velocity_field(exp, paper, 0.0, t) == 0.0

    # no axis crossing across 1e3 sampled launches
    y0 = tr.sample_initial_positions(exp, paper, 1000, seed=17)
    paths = tr.transport(exp, paper, y0, exp.time_of_flight_s,
                         t_eval=np.linspace(0, exp.time_of_flight_s, 256))
    assert np.all(np.sign(paths) == np.sign(y0)[:, None])

    # beable acceleration equals the time derivative of the velocity
    traj = tr.integrate_trajectory(exp, paper, 4.9e-5,
                                   exp.time_of_flight_s, n_samples=262144)
    amax = np.nanmax(np.abs(traj.ay_field))
    mask = np.abs(traj.ay_field) > 1e-2 * amax
    rel = np.abs(traj.ay_numeric[mask] - traj.ay_field[mask]) \
        / np.abs(traj.ay_field[mask])
    assert np.max(rel) < 1e-4
    assert np.max(np.abs(traj.ay_numeric - traj.ay_field)) / amax < 1e-4

    # equivariance at n = 1e4
    res = tr.run_ensemble(exp, paper, 10000, seed=123,
                          t_end=exp.time_of_flight_s)
    assert res.valid
    assert res.ks_statistic < 0.05


def test_simulation_mode_sanity(exp, paper, scan18):
    # field-derived wall gradients and per-valley energies against the
    # reproduction inputs, to one order of magnitude
    sim_inputs = rad.simulation_valley_inputs(exp, paper, scan18)
    assert [vi.index for vi in sim_inputs] == [1, 2, 3, 4]
    for sim, repro in zip(sim_inputs, PAPER_VALLEY_INPUTS):
        ratio = repro.grad_q_ev_per_cm / sim.grad_q_ev_per_cm
        assert 0.1 < ratio < 10.0, (
            f"valley {repro.index}: gradient ratio {ratio:.2f}")
        e_sim = rad.spectrum_step(paper, sim)
        e_rep = rad.spectrum_step(paper, repro)
        energy_ratio = (e_rep.power_w * e_rep.tau_s) \
            / (e_sim.power_w * e_sim.tau_s)
        assert 0.1 < energy_ratio < 10.0, (
            f"valley {repro.index}: energy ratio {energy_ratio:.2f}")
