import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.stats import kstest

from bohm_radiance.errors import ConfigError
from bohm_radiance import trajectories as tr
from bohm_radiance import wavefield as wf


def single_packet(paper):
    return wf.SlitExperiment(
        slit_half_separation_cm=0.0,
        packet_width_cm=3.5e-6,
        kinetic_energy_ev=45.0e3,
        forward_speed_cm_s=paper.speed_from_kinetic_energy(45.0e3),
        screen_distance_cm=35.0,
        cross_section_x_cm=18.0,
    )


# ---------------------------------------------------------------------------
# velocity field

def test_velocity_zero_on_axis(exp, paper):
    # once the packets overlap the axis carries amplitude and, by mirror
    # symmetry, exactly zero guidance velocity; at t = 0 it is node-masked
    for t in (exp.section_time_s(5.0), exp.section_time_s(18.0)):
        assert tr.velocity_field(exp, paper, 0.0, t) == 0.0
    assert math.isnan(tr.velocity_field(exp, paper, 0.0, 0.0))


def test_velocity_zero_at_t0(exp, paper):
    # the initial packets are real: no transverse motion anywhere at t = 0
    y = np.linspace(3.7e-5, 7e-5, 101)  # inside the packets
    v = tr.velocity_field(exp, paper, y, 0.0)
    assert np.max(np.abs(v)) == 0.0


def test_velocity_antisymmetry(exp, paper):
    y = np.linspace(1e-5, 6e-4, 500)
    t = exp.section_time_s(18.0)
    v_plus = tr.velocity_field(exp, paper, y, t)
    v_minus = tr.velocity_field(exp, paper, -y, t)
    np.testing.assert_allclose(v_minus, -v_plus, rtol=1e-12)


def test_velocity_masked_in_dead_zone(exp, paper):
    assert math.isnan(tr.velocity_field(exp, paper, 0.5e-6, 0.0))


# ---------------------------------------------------------------------------
# beable acceleration

def test_acceleration_gradient_examples(paper, exp):
    # 3.06 eV/cm -> 5.39e15 cm/s^2; 9.66 eV/cm -> 1.70e16 cm/s^2
    assert paper.acceleration_from_gradient(3.06) == pytest.approx(
        5.39e15, rel=1e-3)
    assert paper.acceleration_from_gradient(9.66) == pytest.approx(
        1.70e16, rel=2e-3)
    assert paper.acceleration_from_gradient(0.0) == 0.0


def test_acceleration_is_minus_gradq_over_m(exp, paper):
    y = np.linspace(4e-5, 6e-4, 200)
    t = exp.section_time_s(18.0)
    a = tr.bohmian_acceleration(exp, paper, y, t)
    gq = wf.grad_quantum_potential(exp, paper, y, t)
    np.testing.assert_allclose(a, -gq / paper.electron_mass, rtol=1e-12)


# ---------------------------------------------------------------------------
# single-trajectory integration

def test_single_packet_scaling_law(paper):
    # with no interference the flow is pure dilation: y(t) = y0 sigma_t/sigma0
    exp1 = single_packet(paper)
    y0 = 2.0e-6
    traj = tr.integrate_trajectory(exp1, paper, y0, exp1.time_of_flight_s,
                                   n_samples=512)
    expected = y0 * wf.sigma_t(exp1, paper, traj.t_s) / exp1.packet_width_cm
    np.testing.assert_allclose(traj.y_cm, expected, rtol=1e-6)
    assert not traj.halted
    assert traj.valid


def test_trajectory_velocity_channel_matches_field(exp, paper):
    traj = tr.integrate_trajectory(exp, paper, 4.9e-5,
                                   exp.time_of_flight_s, n_samples=512)
    for i in (1, 100, 300, 511):
        v = tr.velocity_field(exp, paper, traj.y_cm[i], traj.t_s[i])
        assert traj.vy_cm_s[i] == pytest.approx(v, rel=1e-8)


def test_mirror_pair_trajectories(exp, paper):
    a = tr.integrate_trajectory(exp, paper, 5.1e-5, exp.time_of_flight_s,
                                n_samples=1024)
    b = tr.integrate_trajectory(exp, paper, -5.1e-5, exp.time_of_flight_s,
                                n_samples=1024)
    np.testing.assert_allclose(b.y_cm, -a.y_cm, rtol=1e-10)


def test_no_axis_crossing_sample(exp, paper):
    y0 = tr.sample_initial_positions(exp, paper, 100, seed=9)
    paths = tr.transport(exp, paper, y0, exp.time_of_flight_s,
                         t_eval=np.linspace(0, exp.time_of_flight_s, 256))
    signs = np.sign(paths)
    assert np.all(signs == np.sign(y0)[:, None])
    assert np.min(np.abs(paths)) > 0.0


# Launches that cross a valley wall sharply: the two largest quantile-map
# errors (3.9e-5 and 4.2e-6 fringes at the screen) among 1,000 draws from
# |psi(., 0)|^2 with seed 3.
WALL_CROSSING_LAUNCHES_CM = (5.403068233149945e-05, 4.923331841788303e-05)


def test_transport_lanes_match_single_path_rk45(exp, paper):
    # each lane must follow its own one-path RK45 solve at the same
    # rtol/atol, not a step size shared with the other lanes
    t_end = exp.time_of_flight_s
    y0 = np.concatenate([WALL_CROSSING_LAUNCHES_CM,
                         tr.sample_initial_positions(exp, paper, 6, seed=8)])
    finals = tr.transport(exp, paper, y0, t_end)[:, -1]
    fringe = wf.fringe_spacing(exp, paper, exp.screen_distance_cm)
    for lane, final in zip(y0, finals):
        ref = solve_ivp(lambda t, y: tr._velocity_raw(exp, paper, y, t),
                        (0.0, t_end), [lane], method="RK45",
                        rtol=tr.DEFAULT_TOL,
                        atol=tr.DEFAULT_TOL * exp.packet_width_cm)
        assert ref.status == 0
        assert abs(final - ref.y[0, -1]) < 1e-9 * fringe


def test_transport_lane_independent_of_batch(exp, paper):
    y0 = np.concatenate([WALL_CROSSING_LAUNCHES_CM,
                         tr.sample_initial_positions(exp, paper, 98, seed=5)])
    batch = tr.transport(exp, paper, y0, exp.time_of_flight_s)
    for i in (0, 1, 60):
        alone = tr.transport(exp, paper, y0[i:i + 1], exp.time_of_flight_s)
        np.testing.assert_array_equal(alone[0], batch[i])


def test_transport_dense_output(exp, paper):
    t_end = exp.time_of_flight_s
    y0 = tr.sample_initial_positions(exp, paper, 50, seed=13)
    paths = tr.transport(exp, paper, y0, t_end,
                         t_eval=np.linspace(0.0, t_end, 256))
    assert paths.shape == (50, 256)
    np.testing.assert_array_equal(paths[:, 0], y0)
    np.testing.assert_array_equal(paths[:, -1],
                                  tr.transport(exp, paper, y0, t_end)[:, 0])
    with pytest.raises(ConfigError, match="t_eval"):
        tr.transport(exp, paper, y0, t_end, t_eval=[0.0, 2.0 * t_end])


def test_transport_failed_lane_is_nan_alone(exp, paper):
    # far in the tail |psi| underflows and the velocity is NaN from the
    # start: that lane fails by itself, without a warning or an exception
    t_end = exp.time_of_flight_s
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        finals = tr.transport(exp, paper, [5e-5, 1e-2], t_end)[:, -1]
    assert np.isnan(finals[1])
    assert np.isfinite(finals[0])
    np.testing.assert_array_equal(
        finals[:1], tr.transport(exp, paper, [5e-5], t_end)[:, -1])


def test_dvdt_matches_field_acceleration(exp, paper):
    traj = tr.integrate_trajectory(exp, paper, 4.9e-5,
                                   exp.time_of_flight_s, n_samples=65536)
    amax = np.nanmax(np.abs(traj.ay_field))
    mask = np.abs(traj.ay_field) > 1e-2 * amax
    rel = np.abs(traj.ay_numeric[mask] - traj.ay_field[mask]) \
        / np.abs(traj.ay_field[mask])
    assert np.max(rel) < 1e-3  # acceptance runs the tighter 1e-4 variant


def test_normalization_independent_trajectories(exp, paper):
    expk = wf.jonsson_experiment(paper, amplitude=1.0e3)
    a = tr.integrate_trajectory(exp, paper, 4.9e-5, exp.time_of_flight_s,
                                n_samples=512)
    b = tr.integrate_trajectory(expk, paper, 4.9e-5, exp.time_of_flight_s,
                                n_samples=512)
    np.testing.assert_allclose(b.y_cm, a.y_cm, rtol=1e-10)


def test_integration_input_guards(exp, paper):
    with pytest.raises(ConfigError):
        tr.integrate_trajectory(exp, paper, 0.0, 1e-9)
    with pytest.raises(ConfigError):
        tr.integrate_trajectory(exp, paper, 5e-5, -1e-9)
    # the inter-slit dead zone is node-masked at t = 0
    with pytest.raises(ConfigError, match="node floor"):
        tr.integrate_trajectory(exp, paper, 1e-6, 1e-9)
    for y0 in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="y0"):
            tr.integrate_trajectory(exp, paper, y0, 1e-9)
    with pytest.raises(ConfigError, match="t_end"):
        tr.integrate_trajectory(exp, paper, 5e-5, math.inf)


def test_node_margin_signs(exp, paper):
    assert tr.node_margin(exp, paper, 0.0, 0.0) < 0.0
    assert tr.node_margin(exp, paper, exp.slit_half_separation_cm, 0.0) > 0.0


# ---------------------------------------------------------------------------
# ensembles

def test_initial_sampling_matches_density(exp, paper):
    y0 = tr.sample_initial_positions(exp, paper, 1000, seed=3)
    ks = tr.ks_statistic_against_density(exp, paper, y0, 0.0)
    assert ks < 0.06


def test_ks_statistic_against_scipy(exp, paper):
    y0 = tr.sample_initial_positions(exp, paper, 500, seed=11)
    grid, cdf = tr._density_grid(exp, paper, 0.0)
    ours = tr.ks_statistic_against_density(exp, paper, y0, 0.0)
    ref = kstest(y0, lambda x: np.interp(x, grid, cdf)).statistic
    assert ours == pytest.approx(ref, abs=1e-12)


def test_ensemble_identity_transport(exp, paper):
    res = tr.run_ensemble(exp, paper, 100, seed=7, t_end=0.0)
    assert res.ks_statistic < 0.15
    assert res.n_failed == 0
    np.testing.assert_array_equal(res.initial_positions_cm,
                                  res.final_positions_cm)


def test_ensemble_equivariance_small(exp, paper):
    res = tr.run_ensemble(exp, paper, 1000, seed=42,
                          t_end=exp.time_of_flight_s)
    assert res.valid
    assert res.n_failed == 0
    assert res.ks_statistic < 0.08


def test_ensemble_deterministic_replay(exp, paper):
    a = tr.run_ensemble(exp, paper, 200, seed=5, t_end=exp.time_of_flight_s)
    b = tr.run_ensemble(exp, paper, 200, seed=5, t_end=exp.time_of_flight_s)
    np.testing.assert_array_equal(a.final_positions_cm, b.final_positions_cm)
    assert a.ks_statistic == b.ks_statistic


def test_ensemble_input_guards(exp, paper):
    with pytest.raises(ConfigError):
        tr.run_ensemble(exp, paper, 50, seed=1, t_end=1e-9)
    with pytest.raises(ConfigError):
        tr.run_ensemble(exp, paper, 100, seed=1, t_end=-1.0)
    with pytest.raises(ConfigError, match="t_end"):
        tr.run_ensemble(exp, paper, 100, seed=1, t_end=math.inf)
    with pytest.raises(ConfigError, match="t_end"):
        tr.transport(exp, paper, [5e-5], math.inf)
