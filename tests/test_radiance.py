import math

import numpy as np
import pytest
from scipy.integrate import quad, trapezoid

from bohm_radiance.errors import ConfigError, NumericalError
from bohm_radiance import radiance as rad
from bohm_radiance import trajectories as tr
from bohm_radiance import wavefield as wf
from bohm_radiance.presets import PAPER_VALLEY_INPUTS


# ---------------------------------------------------------------------------
# the two baseline predictions

def test_copenhagen_power_is_exactly_zero():
    assert rad.copenhagen_emission_power() == 0.0


def test_copenhagen_differs_from_every_valley(paper):
    for vi in PAPER_VALLEY_INPUTS:
        step = rad.spectrum_step(paper, vi)
        assert rad.copenhagen_emission_power() - step.power_w != 0.0


def test_copenhagen_matches_ensemble_mean(exp, paper):
    t = exp.section_time_s(18.0)
    mean_power = rad.ensemble_mean_power(exp, paper, t)
    assert abs(mean_power - rad.copenhagen_emission_power()) < 1e-40


# ---------------------------------------------------------------------------
# emission power

def test_emission_power_reference_points(paper):
    assert rad.emission_power(paper, 5.39e15) == pytest.approx(
        3.27e-26, rel=0.01, abs=0.0)
    assert rad.emission_power(paper, 1.70e16) == pytest.approx(
        3.25e-25, rel=0.01, abs=0.0)
    assert rad.emission_power(paper, 0.0) == 0.0
    with pytest.raises(NumericalError, match="acceleration must be finite"):
        rad.emission_power(paper, float("nan"))


def test_emission_power_from_gradq_reference_points(paper):
    assert rad.emission_power_from_gradq(paper, 3.06) == pytest.approx(
        3.27e-26, rel=0.01, abs=0.0)
    assert rad.emission_power_from_gradq(paper, 0.93) == pytest.approx(
        3.02e-27, rel=0.01, abs=0.0)
    assert rad.emission_power_from_gradq(paper, 0.8) == pytest.approx(
        2.23e-27, rel=0.01, abs=0.0)


def test_emission_power_paths_identical(paper):
    for g in (0.31, 3.06, 9.66):
        a = paper.acceleration_from_gradient(g)
        assert rad.emission_power_from_gradq(paper, g) == \
            rad.emission_power(paper, a)


# ---------------------------------------------------------------------------
# collision time

def test_collision_time_reference(paper):
    a2 = paper.acceleration_from_gradient(3.06)
    tau = rad.collision_time(1.5e4, a2, 1.0e-4 / 7.0)
    assert tau == pytest.approx(7.01e-11, rel=0.01, abs=0.0)


def test_collision_time_satisfies_quadratic(paper):
    a = paper.acceleration_from_gradient(3.06)
    # the second and third overflow v0^2 + 2 a dy; in the last three it
    # underflows to a subnormal or to 0, where tau was 2 dy/v0, off by
    # 2.8e-6, and a ZeroDivisionError
    for v0, a, dy in ((1.5e4, a, 1.0e-4 / 7.0), (1e200, a, 1e-5),
                      (0.0, a, 1e300), (1e-200, 0.0, 1e-5),
                      (1e-160, 0.0, 1.0), (0.0, 1.8e-285, 1e-300)):
        tau = rad.collision_time(v0, a, dy)
        assert v0 * tau + 0.5 * a * tau * tau == pytest.approx(
            dy, rel=1e-12, abs=0.0)


def test_collision_time_ballistic_limit():
    assert rad.collision_time(2.0e4, 0.0, 1e-5) == pytest.approx(
        5e-10, rel=1e-12, abs=0.0)
    # continuity as a -> 0
    assert rad.collision_time(2.0e4, 1e-3, 1e-5) == pytest.approx(
        5e-10, rel=1e-9, abs=0.0)


def test_collision_time_free_fall():
    a, dy = 5.0e15, 1e-5
    assert rad.collision_time(0.0, a, dy) == pytest.approx(
        math.sqrt(2.0 * dy / a), rel=1e-12, abs=0.0)


def test_collision_time_domain_errors():
    with pytest.raises(NumericalError, match="no positive traversal time"):
        rad.collision_time(0.0, 0.0, 1e-5)
    with pytest.raises(NumericalError, match="dy must be positive"):
        rad.collision_time(1e4, 5e15, -1e-5)
    with pytest.raises(NumericalError, match="v0 and a must be non-negative"):
        rad.collision_time(-1e4, 5e15, 1e-5)


# ---------------------------------------------------------------------------
# photon bookkeeping

def test_photon_energy_frequency_reference(paper):
    energy, nu = rad.photon_energy_frequency(paper, 3.27e-26, 7.01e-11)
    assert energy == pytest.approx(2.29e-36, rel=0.01, abs=0.0)
    assert nu == pytest.approx(3.45e-3, rel=0.01, abs=0.0)
    energy, nu = rad.photon_energy_frequency(paper, 3.25e-25, 2.8e-11)
    assert nu == pytest.approx(1.37e-2, rel=0.01, abs=0.0)
    assert rad.photon_energy_frequency(paper, 0.0, 1e-11) == (0.0, 0.0)
    with pytest.raises(NumericalError, match="tau must be positive"):
        rad.photon_energy_frequency(paper, 1e-26, 0.0)


# ---------------------------------------------------------------------------
# per-valley spectrum steps

def test_spectrum_step_valley1(paper):
    step = rad.spectrum_step(paper, PAPER_VALLEY_INPUTS[0])
    assert step.omega_c_hz == pytest.approx(3.57e10, rel=0.01, abs=0.0)
    assert step.lambda_c_cm == pytest.approx(0.84, rel=0.01, abs=0.0)
    assert step.i0_ev_per_hz == pytest.approx(1.63e-27, rel=0.03, abs=0.0)
    assert step.power_w == pytest.approx(3.25e-25, rel=0.01, abs=0.0)


def test_spectrum_step_valley3(paper):
    step = rad.spectrum_step(paper, PAPER_VALLEY_INPUTS[2])
    assert step.omega_c_hz == pytest.approx(9.8e9, rel=0.01, abs=0.0)
    assert step.lambda_c_cm == pytest.approx(3.06, rel=0.01, abs=0.0)
    assert step.i0_ev_per_hz == pytest.approx(2e-28, rel=0.03, abs=0.0)


def test_spectrum_step_degenerate(paper):
    step = rad.spectrum_step(paper, rad.ValleyInput(
        grad_q_ev_per_cm=0.0, tau_s=1e-10))
    assert step.power_w == 0.0
    assert step.i0_ev_per_hz == 0.0


def test_spectrum_step_invariants(paper):
    for vi in PAPER_VALLEY_INPUTS:
        step = rad.spectrum_step(paper, vi)
        assert step.omega_c_hz * step.tau_s == pytest.approx(1.0, rel=1e-12,
                                                             abs=0.0)
        assert step.lambda_c_cm * step.omega_c_hz == pytest.approx(
            paper.c_cm_s, rel=1e-12, abs=0.0)
        # I0 = P tau^2 in consistent (eV) units; approx's default abs of
        # 1e-12 would pass any I0 near 1e-27, so it is turned off
        assert step.i0_ev_per_hz == pytest.approx(
            step.power_w / paper.electron_charge_c * step.tau_s**2,
            rel=1e-12, abs=0.0)
        # nonnegativity, zero only under zero acceleration
        assert step.power_w > 0 and step.i0_ev_per_hz > 0
        assert step.photon_energy_j > 0
        # soft-photon condition: photon frequency far below the cutoff
        assert step.photon_frequency_hz * step.tau_s < 1e-10


def test_heuristic_power_is_exact_up_to_prefactor(paper):
    # alpha hbar (dv/c)^2 / tau reproduces the leg energy up to 4/3
    for vi in PAPER_VALLEY_INPUTS:
        step = rad.spectrum_step(paper, vi)
        leg_energy_ev = step.power_w / paper.electron_charge_c * step.tau_s
        heuristic_ev = paper.alpha * paper.hbar_ev_s \
            * (step.delta_v_cm_s / paper.c_cm_s) ** 2 / step.tau_s
        ratio = leg_energy_ev / heuristic_ev
        assert ratio == pytest.approx(4.0 / 3.0, rel=1e-12, abs=0.0)
        assert 0.1 < ratio < 10.0


def test_valley_input_validation():
    with pytest.raises(ConfigError):
        rad.ValleyInput(grad_q_ev_per_cm=1.0)  # neither dy nor tau
    with pytest.raises(ConfigError):
        rad.ValleyInput(grad_q_ev_per_cm=1.0, dy_cm=1e-5, tau_s=1e-10)
    with pytest.raises(ConfigError):
        rad.ValleyInput(grad_q_ev_per_cm=-1.0, tau_s=1e-10)
    with pytest.raises(ConfigError):
        rad.ValleyInput(grad_q_ev_per_cm=1.0, v0_cm_per_s=-1.0, tau_s=1e-10)


# ---------------------------------------------------------------------------
# overlap factor

def test_overlap_reference_value(modern):
    res = rad.gaussian_overlap(modern, rad.OverlapInput(
        delta_p_over_m_cm_s=476554.0, d_cm=2.818e-13))
    assert res.exponent_magnitude == pytest.approx(3.359e-15, rel=0.01,
                                                   abs=0.0)
    assert abs(res.probability - 1.0) < 1e-10


def test_overlap_paper_constants_close_to_one(paper):
    # with the rounded constant set the exponent shifts by ~2% but the
    # physical conclusion (overlap = 1) is unchanged
    res = rad.gaussian_overlap(paper, rad.OverlapInput(
        delta_p_over_m_cm_s=476554.0, d_cm=2.818e-13))
    assert abs(res.probability - 1.0) < 1e-10


def test_overlap_zero_kick_is_unity(paper):
    res = rad.gaussian_overlap(paper, rad.OverlapInput(0.0, 2.818e-13))
    assert res.probability == 1.0
    assert res.exponent_magnitude == 0.0


def test_overlap_large_width_still_unity(modern):
    res = rad.gaussian_overlap(modern, rad.OverlapInput(
        delta_p_over_m_cm_s=476554.0, d_cm=2.818e-10))
    assert abs(res.probability - 1.0) < 1e-8


def test_overlap_never_exceeds_one(modern):
    # the exponent carries a negative sign in the probability
    res = rad.gaussian_overlap(modern, rad.OverlapInput(1.0e10, 1.0e-7))
    assert 0.0 <= res.probability <= 1.0
    with pytest.raises(ConfigError):
        rad.OverlapInput(1.0, -1.0)


# ---------------------------------------------------------------------------
# angular factor

def test_angular_factor_limits():
    assert rad.angular_factor(0.0) == 0.0
    assert rad.angular_factor(math.pi / 2.0) == 1.0
    with pytest.raises(NumericalError, match=r"theta must lie in \[0, pi\]"):
        rad.angular_factor(-0.1)
    with pytest.raises(NumericalError, match=r"theta must lie in \[0, pi\]"):
        rad.angular_factor(3.2)


def test_angular_factor_solid_angle_integral():
    total, _ = quad(lambda th: rad.angular_factor(th) * 2.0 * math.pi
                    * math.sin(th), 0.0, math.pi)
    assert total == pytest.approx(8.0 * math.pi / 3.0, rel=1e-9, abs=0.0)


# ---------------------------------------------------------------------------
# path integrals

def synthetic_trajectory(t, y, a, v=None):
    return tr.Trajectory(
        t_s=np.asarray(t, dtype=float),
        y_cm=np.asarray(y, dtype=float),
        vy_cm_s=np.zeros_like(t) if v is None else np.asarray(v),
        ay_field=np.asarray(a, dtype=float),
        ay_numeric=np.asarray(a, dtype=float),
    )


def test_radiated_energy_constant_acceleration_oracle(exp, paper):
    tau = 7.0e-11
    a0 = 5.39e15
    t = np.linspace(0.0, tau, 64)
    traj = synthetic_trajectory(t, np.full_like(t, 1e-5), np.full_like(t, a0))
    out = rad.trajectory_radiated_energy(paper, traj, exp)
    assert out.total_j == pytest.approx(
        rad.emission_power(paper, a0) * tau, rel=1e-6, abs=0.0)


def test_radiated_energy_straight_segment(exp, paper):
    t = np.linspace(0.0, 1e-10, 32)
    traj = synthetic_trajectory(t, np.full_like(t, 1e-5), np.zeros_like(t))
    assert rad.trajectory_radiated_energy(paper, traj, exp).total_j == 0.0


def test_radiated_energy_rejects_invalid(exp, paper):
    t = np.linspace(0.0, 1e-10, 8)
    traj = synthetic_trajectory(t, np.full_like(t, 1e-5),
                                np.full_like(t, np.nan))
    with pytest.raises(NumericalError, match="non-finite acceleration"):
        rad.trajectory_radiated_energy(paper, traj, exp)


def test_radiated_energy_valley_partition_sums_to_total(exp, paper):
    traj = tr.integrate_trajectory(exp, paper, 4.9e-5,
                                   exp.time_of_flight_s, n_samples=4096)
    out = rad.trajectory_radiated_energy(paper, traj, exp)
    assert out.per_valley_j
    assert sum(out.per_valley_j.values()) == out.total_j
    assert all(k >= 1 for k in out.per_valley_j)


def test_radiated_energy_per_valley_matches_masked_trapezoids(exp, paper):
    # the one weighted pass over the band index against one trapezoid per
    # band with every other band's power masked to zero
    traj = tr.integrate_trajectory(exp, paper, 4.9e-5,
                                   exp.time_of_flight_s, n_samples=262144)
    out = rad.trajectory_radiated_energy(paper, traj, exp)
    xi = wf.interference_wavenumber(exp, paper, traj.t_s)
    band = np.floor(np.abs(traj.y_cm) * xi / math.pi / 2.0).astype(int) + 1
    p_w = paper.larmor_prefactor * traj.ay_field**2 * paper.electron_charge_c
    expected = {int(k): trapezoid(np.where(band == k, p_w, 0.0), traj.t_s)
                for k in np.unique(band)}
    assert len(expected) >= 10
    assert list(out.per_valley_j) == list(expected)
    np.testing.assert_allclose(list(out.per_valley_j.values()),
                               list(expected.values()), rtol=1e-12, atol=0)


def test_radiated_energy_through_valley_two(exp, paper):
    # a trajectory settling into the first bright channel makes its final
    # wall crossing through valley 2; the full crossing is two legs, so
    # the closed-form reference is twice the per-leg energy P2 tau2
    traj = tr.integrate_trajectory(exp, paper, 4.9e-5,
                                   exp.time_of_flight_s, n_samples=16384)
    out = rad.trajectory_radiated_energy(paper, traj, exp)
    e2 = out.per_valley_j.get(2, 0.0)
    reference = 2.0 * 3.27e-26 * 7.01e-11
    assert reference / 10.0 < e2 < reference * 10.0


# ---------------------------------------------------------------------------
# statistical reconciliation

def test_ensemble_mean_gradient_vanishes(exp, paper, scan18):
    t = exp.section_time_s(18.0)
    mean_grad = rad.ensemble_mean_gradient(exp, paper, t)
    max_grad = np.nanmax(np.abs(scan18.grad_q))
    assert abs(mean_grad) < 1e-6 * max_grad


def test_ensemble_mean_gradient_single_gaussian(paper):
    exp1 = wf.SlitExperiment(
        slit_half_separation_cm=0.0, packet_width_cm=3.5e-6,
        forward_speed_cm_s=paper.speed_from_kinetic_energy(45.0e3),
        screen_distance_cm=35.0, cross_section_x_cm=18.0)
    t = exp1.section_time_s(18.0)
    mean_grad = rad.ensemble_mean_gradient(exp1, paper, t)
    y = wf.symmetric_grid(8.0 * wf.sigma_t(exp1, paper, t), 4001)
    scale = np.nanmax(np.abs(wf.grad_quantum_potential(exp1, paper, y, t)))
    assert abs(mean_grad) < 1e-8 * scale


@pytest.mark.parametrize("x_cm", [2.0, 11.3, 18.0, 34.9])
def test_ensemble_mean_gradient_mirror_equals_full_grid(exp, paper, x_cm):
    # grad Q from the y >= 0 half, mirrored, is the full-grid grad Q as
    # float64 bit patterns, so the quadrature is the full grid's
    t = exp.section_time_s(x_cm)
    y = wf.symmetric_grid(
        exp.slit_half_separation_cm + 8.0 * wf.sigma_t(exp, paper, t),
        rad.ENSEMBLE_MEAN_POINTS)
    full = wf.grad_quantum_potential(exp, paper, y, t)
    half = wf.grad_quantum_potential(exp, paper, y[y.size // 2:], t)
    mirrored = np.concatenate((-half[:0:-1], half))
    np.testing.assert_array_equal(mirrored.view(np.uint64),
                                  full.view(np.uint64))
    p = wf.psi(exp, paper, y, t)
    rho = (p * p.conjugate()).real
    assert rad.ensemble_mean_gradient(exp, paper, t) \
        == float(np.trapezoid(rho * full, y) / np.trapezoid(rho, y))


def test_ensemble_mean_power_below_valley_power(exp, paper):
    t = exp.section_time_s(18.0)
    p1 = rad.emission_power_from_gradq(paper, 9.66)
    assert rad.ensemble_mean_power(exp, paper, t) < 1e-6 * p1



# ---------------------------------------------------------------------------
# simulation-mode inputs

def test_simulation_valley_inputs(exp, paper, scan18):
    inputs = rad.simulation_valley_inputs(exp, paper, scan18)
    assert [vi.index for vi in inputs] == [1, 2, 3, 4]
    grads = [vi.grad_q_ev_per_cm for vi in inputs]
    assert all(g > 0 for g in grads)
    assert all(a > b for a, b in zip(grads, grads[1:]))
    assert all(vi.dy_cm is not None for vi in inputs)
