import dataclasses
import importlib.util
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import RK45, cumulative_trapezoid, solve_ivp
from scipy.stats import kstest

from bohm_radiance.cli import main
from bohm_radiance.errors import ConfigError
from bohm_radiance import trajectories as tr
from bohm_radiance import wavefield as wf

from reference_kernel import psi_derivs


def single_packet(paper):
    return wf.SlitExperiment(
        slit_half_separation_cm=0.0,
        packet_width_cm=3.5e-6,
        forward_speed_cm_s=paper.speed_from_kinetic_energy(45.0e3),
        screen_distance_cm=35.0,
        cross_section_x_cm=18.0,
    )


# ---------------------------------------------------------------------------
# velocity field

def test_velocity_zero_on_axis(exp, paper):
    # by mirror symmetry the axis carries exactly zero guidance velocity,
    # also at t = 0, where R there is ~1e-22 of the peak
    for t in (0.0, exp.section_time_s(5.0), exp.section_time_s(18.0)):
        assert wf.velocity_field(exp, paper, 0.0, t) == 0.0


def test_velocity_zero_at_t0(exp, paper):
    # the initial packets are real: no transverse motion anywhere at t = 0
    y = np.linspace(3.7e-5, 7e-5, 101)  # inside the packets
    v = wf.velocity_field(exp, paper, y, 0.0)
    assert np.max(np.abs(v)) == 0.0


def test_velocity_antisymmetry(exp, paper):
    y = np.linspace(1e-5, 6e-4, 500)
    t = exp.section_time_s(18.0)
    v_plus = wf.velocity_field(exp, paper, y, t)
    v_minus = wf.velocity_field(exp, paper, -y, t)
    np.testing.assert_allclose(v_minus, -v_plus, rtol=1e-12)


def test_velocity_zero_in_dead_zone(exp, paper):
    # the initial packets are real: between the slits, far below the
    # amplitude floor, the velocity is still exactly zero
    assert wf.velocity_field(exp, paper, 0.5e-6, 0.0) == 0.0


def test_velocity_far_tail_single_packet(exp, paper):
    # where p = 4 alpha Y |y| >= 40 the other packet is below e^-40: the
    # velocity is that of one packet, (hbar/m) 2 alpha b (y - sgn(y) Y)
    for t in (0.0, exp.time_of_flight_s / 10.0, exp.time_of_flight_s / 2.0,
              exp.time_of_flight_s):
        b = wf.spreading_parameter(exp, paper, t)
        alpha = 1.0 / (4.0 * exp.packet_width_cm**2 * (1.0 + b * b))
        yy = exp.slit_half_separation_cm
        y = np.array([40.0, 100.0, 1000.0]) / (4.0 * alpha * yy)
        y = np.concatenate([y, -y])
        expected = (paper.hbar_ev_s / paper.electron_mass) * 2.0 * alpha \
            * b * (y - np.sign(y) * yy)
        np.testing.assert_allclose(wf.velocity_field(exp, paper, y, t),
                                   expected, rtol=1e-12, atol=0.0)
    # nor is the velocity masked where R is far below the floor
    t = exp.time_of_flight_s / 2.0
    assert abs(wf.psi(exp, paper, 1e-2, t)) < 1e-100
    assert wf.velocity_field(exp, paper, 1e-2, t) \
        == wf.velocity_field(exp, paper, np.array([1e-2]), t)[0] > 0.0


def _velocity_from_psi(exp, paper, y, t):
    """Reference: (hbar/m) Im(psi* psi') / |psi|^2 from psi and psi'."""
    p, d1 = psi_derivs(exp, paper, y, t, order=1)
    return (paper.hbar_ev_s / paper.electron_mass) \
        * (p.conjugate() * d1).imag / (p * p.conjugate()).real


def test_velocity_matches_psi_derivatives(exp, paper):
    # the closed-form psi'/psi velocity against psi and psi' wherever
    # |psi| is above the node floor, at 36 times from slit to screen
    rng = np.random.default_rng(77)
    times = np.concatenate([[0.0],
                            rng.uniform(0.0, exp.time_of_flight_s, 35)])
    checked = 0
    for t in times:
        half = exp.slit_half_separation_cm \
            + tr.GRID_PADDING_SIGMAS * wf.sigma_t(exp, paper, t)
        y = rng.uniform(-half, half, 10000)
        above = np.abs(wf.psi(exp, paper, y, t)) > wf.r_floor(exp, paper, t)
        np.testing.assert_allclose(
            wf.velocity_field(exp, paper, y[above], t),
            _velocity_from_psi(exp, paper, y[above], t), rtol=1e-9, atol=0.0)
        checked += above.sum()
    assert checked > 3.5e5


def test_velocity_scalar_and_lane_times_agree_bitwise(exp, paper):
    # solve_ivp passes a float t, transport one t per lane: the same
    # (y, t) must give the same velocity either way
    rng = np.random.default_rng(78)
    t = rng.uniform(0.0, exp.time_of_flight_s, 5000)
    y = rng.uniform(-3e-4, 3e-4, 5000)
    for i in range(len(t)):
        np.testing.assert_array_equal(
            wf.velocity_field(exp, paper, y[i:i + 1], t[i:i + 1]),
            wf.velocity_field(exp, paper, y[i:i + 1], float(t[i])))


def _p_to_y(exp, paper, p, t):
    """y at which p = 4 alpha Y y, the argument of cosh and tanh."""
    b = wf.spreading_parameter(exp, paper, t)
    alpha = 1.0 / (4.0 * exp.packet_width_cm**2 * (1.0 + b * b))
    return np.asarray(p) / (4.0 * alpha * exp.slit_half_separation_cm)


def test_velocity_scalar_matches_array_form_bitwise(exp, paper):
    # a single path's right-hand side must give the bits of the array form
    # on one-element arrays: from 1e-12 to 10 cm on both sides, on the
    # axis, at the node floor between the slits, where cosh p overflows
    # (from |p| = 710.476, |y| ~ 1.74e-4 cm at t = 0) and at p = 40, 100
    # and 1000
    rng = np.random.default_rng(79)
    times = np.concatenate([[0.0],
                            rng.uniform(0.0, exp.time_of_flight_s, 40)])
    overflow = np.nextafter(710.4758600739439, np.inf)  # least inf cosh
    with np.errstate(over="ignore"):
        assert np.isinf(np.cosh(overflow))
        assert np.isfinite(np.cosh(np.nextafter(overflow, 0.0)))
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in times:
            p = np.concatenate([
                [40.0, 100.0, 1000.0, wf.COSH_FINITE, overflow,
                 np.nextafter(overflow, 0.0)],
                overflow * (1.0 + rng.uniform(-1e-3, 1e-3, 200))])
            y = np.concatenate([10.0 ** rng.uniform(-12.0, 1.0, 400),
                                [1.37e-5], _p_to_y(exp, paper, p, t)])
            y = np.concatenate([[0.0], y, -y])
            scalar = np.array([wf.velocity_field(exp, paper, float(v),
                                                 float(t)) for v in y])
            array = np.concatenate([
                wf.velocity_field(exp, paper, y[i:i + 1], t)
                for i in range(y.size)])
            np.testing.assert_array_equal(scalar.view(np.int64),
                                          array.view(np.int64))
            checked += y.size
    assert checked > 40_000
    assert 1.7e-4 < _p_to_y(exp, paper, overflow, 0.0) < 1.8e-4


# ---------------------------------------------------------------------------
# beable acceleration

def test_acceleration_gradient_examples(paper, exp):
    # 3.06 eV/cm -> 5.39e15 cm/s^2; 9.66 eV/cm -> 1.70e16 cm/s^2
    assert paper.acceleration_from_gradient(3.06) == pytest.approx(
        5.39e15, rel=1e-3, abs=0.0)
    assert paper.acceleration_from_gradient(9.66) == pytest.approx(
        1.70e16, rel=2e-3, abs=0.0)
    assert paper.acceleration_from_gradient(0.0) == 0.0


def test_acceleration_is_minus_gradq_over_m(exp, paper):
    y = np.linspace(4e-5, 6e-4, 200)
    t = exp.section_time_s(18.0)
    a = wf.bohmian_acceleration(exp, paper, y, t)
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


def test_trajectory_velocity_channel_matches_field(exp, paper):
    traj = tr.integrate_trajectory(exp, paper, 4.9e-5,
                                   exp.time_of_flight_s, n_samples=512)
    for i in (1, 100, 300, 511):
        v = wf.velocity_field(exp, paper, traj.y_cm[i], traj.t_s[i])
        assert traj.vy_cm_s[i] == pytest.approx(v, rel=1e-8, abs=0.0)


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


def test_tableau_is_scipys_rk45():
    # transport's Dormand-Prince constants are scipy's, to the bit
    for ours, scipys in ((tr.A, RK45.A), (tr.B, RK45.B), (tr.C, RK45.C),
                         (tr.E, RK45.E), (tr.P, RK45.P)):
        assert np.array_equal(ours, scipys)
    assert tr.ERROR_ESTIMATOR_ORDER == RK45.error_estimator_order


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
        ref = solve_ivp(lambda t, y: wf.velocity_field(exp, paper, y, t),
                        (0.0, t_end), [lane], method="RK45",
                        rtol=tr.DEFAULT_TOL,
                        atol=tr.absolute_tolerance(exp, tr.DEFAULT_TOL))
        assert ref.status == 0
        assert abs(final - ref.y[0, -1]) < 1e-9 * fringe


def _bench_oracle():
    """bench/oracle.py: the exact |psi|^2 CDF and the 1-D quantile map."""
    path = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_transport_lanes_match_quantile_map(exp, paper):
    # equivariance lane by lane: in one dimension a |psi|^2 draw y0 ends at
    # F_t^-1(F_0(y0)), with F_t the exact CDF of |psi(., t)|^2; every lane
    # must sit within the benchmark's 1e-3 fringe spacings of it, and the
    # worst lane must close in as tol tightens
    t_end = exp.time_of_flight_s
    fringe = wf.fringe_spacing(exp, paper, exp.screen_distance_cm)
    y0 = tr.sample_initial_positions(exp, paper, 1000, seed=3)
    expected = _bench_oracle().quantile_map(exp, paper, y0, t_end)
    worst = []
    for tol in (1e-9, 1e-10, 1e-11):
        finals = tr.transport(exp, paper, y0, t_end, tol=tol)[:, -1]
        worst.append(np.max(np.abs(finals - expected)) / fringe)
    assert worst[0] < 1e-3
    assert worst[0] > worst[1] > worst[2]


# a draw of SeedSequence(1837), the ensemble benchmark's seed, that ends in
# another fringe at DEFAULT_TOL (ROADMAP item 7)
WRONG_FRINGE_LAUNCH_CM = 5.49856579187651e-05


@pytest.mark.parametrize("tol", [
    pytest.param(tr.DEFAULT_TOL, marks=pytest.mark.xfail(
        strict=True, reason="at tol 1e-9 the launch ends 2.511 fringe "
        "spacings from the quantile map, as a path and as a lane")),
    1e-10])
def test_launch_ends_at_its_quantile(exp, paper, tol):
    # a single path and its one-lane transport both end within the
    # benchmark's 1e-3 fringe spacings of the exact quantile map
    t_end = exp.time_of_flight_s
    fringe = wf.fringe_spacing(exp, paper, exp.screen_distance_cm)
    y0 = np.array([WRONG_FRINGE_LAUNCH_CM])
    expected = _bench_oracle().quantile_map(exp, paper, y0, t_end)[0]
    path = tr.integrate_trajectory(exp, paper, WRONG_FRINGE_LAUNCH_CM, t_end,
                                   tol=tol)
    lane = tr.transport(exp, paper, y0, t_end, tol=tol)
    for final in (path.y_cm[-1], lane[0, -1]):
        assert abs(final - expected) / fringe < 1e-3


def test_transport_lane_independent_of_batch(exp, paper):
    # a one-lane call takes the float stepper and a batch the array one;
    # a lane's row is the same in both, on a recording grid too: the wall
    # crossings, launches where cosh p overflows and one just above the
    # node floor between the slits
    t_end = exp.time_of_flight_s
    t_eval = np.linspace(0.0, t_end, 4096)
    y0 = np.concatenate([WALL_CROSSING_LAUNCHES_CM, [3e-4, 1e-3, 1.37e-5],
                         tr.sample_initial_positions(exp, paper, 95, seed=5)])
    batch = tr.transport(exp, paper, y0, t_end)
    recorded = tr.transport(exp, paper, y0, t_end, t_eval=t_eval)
    for i in (0, 1, 2, 3, 4, 60):
        alone = tr.transport(exp, paper, y0[i:i + 1], t_end)
        np.testing.assert_array_equal(alone[0], batch[i])
        alone = tr.transport(exp, paper, y0[i:i + 1], t_end, t_eval=t_eval)
        np.testing.assert_array_equal(alone[0], recorded[i])


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


def test_transport_failed_lane_is_nan_alone(exp, paper, monkeypatch):
    # a lane whose velocity turns NaN fails by itself, without a warning
    # or an exception, and leaves its neighbour's path untouched
    t_end = exp.time_of_flight_s
    lone = tr.transport(exp, paper, [5e-5], t_end)[:, -1]
    closed_form_args = wf._closed_form_args

    def nan_in_far_tail(exp, consts, y, t):
        return closed_form_args(exp, consts,
                                np.where(np.abs(y) > 1e-3, np.nan, y), t)

    monkeypatch.setattr(wf, "_closed_form_args", nan_in_far_tail)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        finals = tr.transport(exp, paper, [5e-5, 1e-2], t_end)[:, -1]
    assert np.isnan(finals[1])
    assert np.isfinite(finals[0])
    np.testing.assert_array_equal(finals[:1], lone)


def test_transport_far_tail_lanes_follow_single_packet(exp, paper):
    # far in a tail the other packet is negligible: the lane dilates about
    # the nearer slit centre, y = s Y + (y0 - s Y) sigma_t / sigma0
    t_end = exp.time_of_flight_s
    y0 = np.array([1e-2, -1e-2, 5e-2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        finals = tr.transport(exp, paper, y0, t_end)[:, -1]
    centre = np.sign(y0) * exp.slit_half_separation_cm
    b = wf.spreading_parameter(exp, paper, t_end)
    expected = centre + (y0 - centre) * math.sqrt(1.0 + b * b)
    np.testing.assert_allclose(finals, expected, rtol=1e-8)


def test_dvdt_matches_field_acceleration(exp, paper):
    traj = tr.integrate_trajectory(exp, paper, 4.9e-5,
                                   exp.time_of_flight_s, n_samples=65536)
    amax = np.nanmax(np.abs(traj.ay_field))
    mask = np.abs(traj.ay_field) > 1e-2 * amax
    rel = np.abs(traj.ay_numeric[mask] - traj.ay_field[mask]) \
        / np.abs(traj.ay_field[mask])
    assert np.max(rel) < 1e-3  # acceptance runs the tighter 1e-4 variant


def test_integration_input_guards(exp, paper):
    with pytest.raises(ConfigError):
        tr.integrate_trajectory(exp, paper, 0.0, 1e-9)
    with pytest.raises(ConfigError):
        tr.integrate_trajectory(exp, paper, 5e-5, -1e-9)
    for y0 in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="y0"):
            tr.integrate_trajectory(exp, paper, y0, 1e-9)
    with pytest.raises(ConfigError, match="t_end"):
        tr.integrate_trajectory(exp, paper, 5e-5, math.inf)
    # fewer than 3 samples would leave ay_numeric without a derivative
    for n_samples in (0, 1, 2):
        with pytest.raises(ConfigError, match="n_samples"):
            tr.integrate_trajectory(exp, paper, 5e-5, 1e-9,
                                    n_samples=n_samples)


def _assert_paths_reach_t_end(exp, paper, y0):
    # each path reaches t_end with a finite field acceleration, and its
    # final is its lane's in one transport batch, bit for bit: a path is
    # a one-lane transport
    t_end = exp.time_of_flight_s
    lanes = tr.transport(exp, paper, y0, t_end)[:, -1]
    for y, lane in zip(y0, lanes):
        traj = tr.integrate_trajectory(exp, paper, y, t_end, n_samples=512)
        assert traj.t_s[-1] == t_end
        assert np.all(np.isfinite(traj.ay_field))
        assert traj.y_cm[-1] == lane


def test_launches_below_the_initial_node_floor(exp, paper, tmp_path,
                                               quick_overrides):
    # between the slits and in the tails |psi(y0, 0)| is below the node
    # floor, yet psi has no node there: these paths reach the screen
    y0 = [1e-6, -1e-6, 1e-4, -1.5e-4, 2e-4, 1e-3]
    assert all(abs(wf.psi(exp, paper, y, 0.0)) <= wf.r_floor(exp, paper, 0.0)
               for y in y0)
    _assert_paths_reach_t_end(exp, paper, y0)
    config = tmp_path / "quick.json"
    config.write_text(json.dumps(quick_overrides), encoding="utf-8")
    assert main(["simulate-trajectories", "--config", str(config),
                 "--out", str(tmp_path / "out"), "--y0-list", "1e-4"]) == 0


def test_launches_just_above_the_floor_reach_t_end(exp, paper):
    # these launches start just above the node floor between the slits;
    # |psi| along them falls through the floor at t ~ 1.9e-11 s while v
    # stays finite
    _assert_paths_reach_t_end(exp, paper,
                              [1.366e-5, 1.37e-5, 1.3765e-5, -1.37e-5])


def test_single_paths_match_their_one_lane_transport(exp, paper):
    # the acceptance launch, two sharp wall crossings, two tail launches
    # and |psi|^2 draws: one error contract for paths and lanes
    _assert_paths_reach_t_end(exp, paper, [
        4.9e-5, *WALL_CROSSING_LAUNCHES_CM, 3e-4, 1e-3,
        *tr.sample_initial_positions(exp, paper, 20, seed=8)])


def test_cli_path_over_its_evaluation_budget(tmp_path, capsys, monkeypatch):
    # between widely separated slits the default launch collapses onto the
    # axis, where the flow is stiff: the path stops at its budget of
    # right-hand-side evaluations and the run exits 3, naming the launch
    monkeypatch.setattr(tr, "PATH_RHS_BUDGET", 10_000)
    config = tmp_path / "wide.json"
    config.write_text(json.dumps(
        {"experiment": {"slit_half_separation_cm": 1e-2}}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate-trajectories", "--config", str(config),
                 "--out", str(out), "--y0-list", "4.9e-5"]) == 3
    err = capsys.readouterr().err
    assert "trajectory from y0 = 4.9e-05 cm: 10000 right-hand-side " \
        "evaluations" in err
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["status"] == "incomplete"
    assert doc["files"] == []


def test_cli_path_with_an_overflowing_error_norm(tmp_path, capsys,
                                                monkeypatch):
    # between slits 1e200 cm apart scipy's error norm overflows before the
    # budget is reached; with warnings as errors the run still exits 3 at
    # the budget, naming the launch, and prints no traceback
    monkeypatch.setattr(tr, "PATH_RHS_BUDGET", 10_000)
    config = tmp_path / "wider.json"
    config.write_text(json.dumps(
        {"experiment": {"slit_half_separation_cm": 1e200}}), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate-trajectories", "--config", str(config),
                     "--out", str(tmp_path / "out"), "--y0-list", "4.9e-5"])
    assert code == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "trajectory from y0 = 4.9e-05 cm: 10000 right-hand-side " \
        "evaluations" in err


def test_transport_lane_over_its_evaluation_budget(exp, paper, monkeypatch):
    # a lane between widely separated slits stalls on the axis: it fails
    # alone at the single-path budget, and the outer lane keeps its final;
    # called alone, on the float stepper, its row is NaN too
    wide = dataclasses.replace(exp, slit_half_separation_cm=1e-2)
    t_end = wide.time_of_flight_s / 1000
    outer = tr.transport(wide, paper, [1.5e-2], t_end)[0, -1]
    monkeypatch.setattr(tr, "PATH_RHS_BUDGET", 10_000)
    finals = tr.transport(wide, paper, [4.9e-5, 1.5e-2], t_end)[:, -1]
    assert np.isnan(finals[0])
    assert finals[1] == outer
    assert np.isnan(tr.transport(wide, paper, [4.9e-5], t_end)).all()


def test_ensemble_counts_lanes_over_the_budget(exp, paper, monkeypatch):
    # at a budget below the median lane's count (about 1,124 evaluations)
    # some lanes fail and are counted; the others keep their finals
    t_end = exp.time_of_flight_s
    full = tr.run_ensemble(exp, paper, 100, 5, t_end)
    assert full.n_failed == 0
    monkeypatch.setattr(tr, "PATH_RHS_BUDGET", 1_124)
    cut = tr.run_ensemble(exp, paper, 100, 5, t_end)
    failed = np.isnan(cut.final_positions_cm)
    assert 0 < cut.n_failed == failed.sum() < 100
    assert not cut.valid
    np.testing.assert_array_equal(cut.final_positions_cm[~failed],
                                  full.final_positions_cm[~failed])


def test_launch_just_above_the_floor_between_the_slits(tmp_path):
    assert main(["simulate-trajectories", "--out", str(tmp_path / "out"),
                 "--n", "100", "--t-end", "5e-10",
                 "--y0-list", "1.37e-5"]) == 0


def test_recording_blocks_keep_the_bits(exp, paper):
    # the recording crosses two block edges and ends in a short block;
    # every sample must equal separate whole-array evaluations of v and a
    # bit for bit, and so must one fused whole-array evaluation
    traj = tr.integrate_trajectory(exp, paper, 4.9e-5, exp.time_of_flight_s,
                                   n_samples=3 * tr.RECORD_BLOCK + 5)
    v = wf.velocity_field(exp, paper, traj.y_cm, traj.t_s)
    a = wf.bohmian_acceleration(exp, paper, traj.y_cm, traj.t_s)
    np.testing.assert_array_equal(traj.vy_cm_s, v)
    np.testing.assert_array_equal(traj.ay_field, a)
    v_fused, a_fused = wf._velocity_acceleration(exp, paper, traj.y_cm,
                                                 traj.t_s)
    np.testing.assert_array_equal(v_fused, v)
    np.testing.assert_array_equal(a_fused, a)


@pytest.mark.parametrize("y0", [4.9e-5, -4.9e-5, 1.37e-5,
                                *WALL_CROSSING_LAUNCHES_CM, 3e-4])
def test_paths_match_the_array_rhs_bitwise(exp, paper, y0):
    # the float stepper of a single path changes neither its steps nor its
    # samples: the path is its row in a transport batch that also holds
    # other lanes, on the path's own recording grid; 3e-4 cm starts where
    # cosh p overflows
    t_end = exp.time_of_flight_s
    traj = tr.integrate_trajectory(exp, paper, y0, t_end)
    others = tr.sample_initial_positions(exp, paper, 7, seed=21)
    batch = tr.transport(exp, paper, [*others[:3], y0, *others[3:]], t_end,
                         t_eval=traj.t_s)
    np.testing.assert_array_equal(traj.y_cm, batch[3])


def test_single_path_rhs_makes_no_array_pass(exp, paper, monkeypatch):
    # only the recording blocks evaluate the closed form on arrays, one
    # call per block; the right-hand side evaluates it on Python floats
    n_samples = 2 * tr.RECORD_BLOCK + 5
    calls = []
    float_calls = []
    closed_form_args = wf._closed_form_args

    def counting(exp, consts, y, t):
        if type(y) is float:
            float_calls.append(type(t) is float)
        else:
            calls.append(np.size(y))
        return closed_form_args(exp, consts, y, t)

    monkeypatch.setattr(wf, "_closed_form_args", counting)
    tr.integrate_trajectory(exp, paper, 4.9e-5, exp.time_of_flight_s,
                            n_samples=n_samples)
    assert len(calls) == math.ceil(n_samples / tr.RECORD_BLOCK)
    assert sum(calls) == n_samples
    assert len(float_calls) > 100 and all(float_calls)


# ---------------------------------------------------------------------------
# ensembles

def test_initial_sampling_matches_density(exp, paper):
    y0 = tr.sample_initial_positions(exp, paper, 1000, seed=3)
    ks = tr.ks_statistic_against_density(exp, paper, y0, 0.0)
    assert ks < 0.06


def test_density_cdf_is_cumulative_trapezoid(exp, paper):
    for t in (0.0, exp.time_of_flight_s):
        y, cdf = tr._density_grid(exp, paper, t)
        psi = wf._psi_derivs(exp, paper, y, t)[0]
        ref = np.concatenate([[0.0], cumulative_trapezoid(
            (psi * psi.conjugate()).real, y)])
        np.testing.assert_array_equal(cdf, ref / ref[-1])


def test_ks_statistic_against_scipy(exp, paper):
    y0 = tr.sample_initial_positions(exp, paper, 500, seed=11)
    grid, cdf = tr._density_grid(exp, paper, 0.0)
    ours = tr.ks_statistic_against_density(exp, paper, y0, 0.0)
    ref = kstest(y0, lambda x: np.interp(x, grid, cdf)).statistic
    # an absolute floor: the statistic is a distance between CDFs, in [0, 1]
    assert ours == pytest.approx(ref, abs=1e-12)


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
        tr.run_ensemble(exp, paper, 100, seed=1, t_end=0.0)
    with pytest.raises(ConfigError, match="t_end"):
        tr.run_ensemble(exp, paper, 100, seed=1, t_end=math.inf)
    with pytest.raises(ConfigError, match="t_end"):
        tr.transport(exp, paper, [5e-5], math.inf)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="y0"):
            tr.transport(exp, paper, [5e-5, bad], 1e-9)
