"""The quantile-map oracle against the program's density and fine ODE lanes."""

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

import oracle
from bohm_radiance import trajectories, wavefield
from bohm_radiance.units import constants


@pytest.fixture(scope="module")
def setup():
    consts = constants("paper")
    return wavefield.jonsson_experiment(consts), consts


@pytest.mark.parametrize("fraction", [0.0, 0.3, 1.0])
def test_cdf_matches_integrated_density(setup, fraction):
    exp, consts = setup
    t = fraction * exp.time_of_flight_s
    cdf = oracle.DensityCDF(exp, consts, t)
    half = exp.slit_half_separation_cm + 12.0 * cdf.spread
    y = np.linspace(-half, half, 2**20 + 1)
    psi = wavefield.psi(exp, consts, y, t)
    numeric = np.concatenate([[0.0], cumulative_trapezoid(
        (psi * psi.conjugate()).real, y)])
    numeric /= numeric[-1]
    assert np.max(np.abs(cdf(y) - numeric)) < 1e-8
    np.testing.assert_allclose(cdf(np.array([-np.inf, 0.0, np.inf])),
                               [0.0, 0.5, 1.0], atol=1e-15)


def test_quantile_inverts_cdf(setup):
    exp, consts = setup
    cdf = oracle.DensityCDF(exp, consts, exp.time_of_flight_s)
    u = np.random.default_rng(0).random(200)
    np.testing.assert_allclose(cdf(cdf.quantile(u)), u, atol=1e-13)


def test_quantile_map_matches_tight_integration(setup):
    exp, consts = setup
    t_end = exp.time_of_flight_s
    fringe = wavefield.fringe_spacing(exp, consts, exp.screen_distance_cm)
    y0 = trajectories.sample_initial_positions(exp, consts, 3, seed=11)
    mapped = oracle.quantile_map(exp, consts, y0, t_end)
    for start, expected in zip(y0, mapped):
        traj = trajectories.integrate_trajectory(
            exp, consts, float(start), t_end, tol=1e-12, n_samples=16)
        assert abs(traj.y_cm[-1] - expected) / fringe < 1e-9
