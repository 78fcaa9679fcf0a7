import dataclasses
import math

import numpy as np
import pytest

from bohm_radiance.errors import ConfigError
from bohm_radiance import wavefield as wf

import reference_kernel as ref
from reference_valleys import list_scan_valleys


def single_packet(paper, **overrides):
    """Degenerate one-packet limit (both packets merged at y = 0)."""
    params = dict(
        slit_half_separation_cm=0.0,
        packet_width_cm=3.5e-6,
        forward_speed_cm_s=paper.speed_from_kinetic_energy(45.0e3),
        screen_distance_cm=35.0,
        cross_section_x_cm=18.0,
    )
    params.update(overrides)
    return wf.SlitExperiment(**params)


def single_packet_q(paper, exp, y, t):
    """Closed-form Q of one free Gaussian: (hb^2/2m)(1/(2s^2) - y^2/(4s^4))."""
    s = wf.sigma_t(exp, paper, t)
    pref = paper.hbar_ev_s**2 / (2.0 * paper.electron_mass)
    return pref * (1.0 / (2.0 * s * s) - y * y / (4.0 * s**4))


# ---------------------------------------------------------------------------
# construction guards

def test_relativistic_guard(paper):
    with pytest.raises(ConfigError, match="non-relativistic"):
        wf.make_experiment(
            paper, slit_half_separation_cm=0.5e-4, packet_width_cm=3.5e-6,
            kinetic_energy_eV=200.0e3, screen_distance_cm=35.0,
            cross_section_x_cm=18.0)


def test_speed_consistency_guard(paper, modern):
    # the forward speed is derived from the kinetic energy, never given
    for consts in (paper, modern):
        for energy in (1.0e3, 45.0e3):
            exp = wf.make_experiment(
                consts, **{**wf.JONSSON_DEFAULTS,
                           "kinetic_energy_eV": energy})
            assert exp.forward_speed_cm_s == \
                consts.speed_from_kinetic_energy(energy)
    with pytest.raises(TypeError, match="forward_speed_cm_s"):
        wf.make_experiment(paper, **wf.JONSSON_DEFAULTS,
                           forward_speed_cm_s=1.0e10)
    for energy in (0.0, -1.0):
        with pytest.raises(ConfigError, match="kinetic_energy_eV"):
            wf.make_experiment(paper, **{**wf.JONSSON_DEFAULTS,
                                         "kinetic_energy_eV": energy})


def test_geometry_guards(paper):
    with pytest.raises(ConfigError):
        wf.make_experiment(paper, **{**wf.JONSSON_DEFAULTS,
                                     "cross_section_x_cm": 40.0})
    with pytest.raises(ConfigError):
        wf.make_experiment(paper, **{**wf.JONSSON_DEFAULTS,
                                     "packet_width_cm": -1.0})
    with pytest.raises(ConfigError):
        wf.make_experiment(
            paper, slit_half_separation_cm=0.0, packet_width_cm=3.5e-6,
            kinetic_energy_eV=45.0e3, screen_distance_cm=35.0,
            cross_section_x_cm=18.0)


def test_section_time_maps_distance(exp, paper):
    t = exp.section_time_s(18.0)
    assert t == pytest.approx(18.0 / exp.forward_speed_cm_s, rel=1e-14,
                              abs=0.0)
    with pytest.raises(ConfigError):
        exp.section_time_s(50.0)
    with pytest.raises(ConfigError):
        wf.psi(exp, paper, 0.0, -1.0e-12)


# ---------------------------------------------------------------------------
# psi

def test_psi_mirror_symmetry(exp, paper):
    y = np.linspace(-6e-4, 6e-4, 1001)
    t = exp.section_time_s(18.0)
    p_plus = wf.psi(exp, paper, y, t)
    p_minus = wf.psi(exp, paper, -y, t)
    np.testing.assert_allclose(p_plus, p_minus, rtol=1e-10, atol=0)


def test_psi_midpoint_amplitude_t0(exp, paper):
    # At t = 0 the midpoint amplitude is 2 exp(-Y^2/(4 sigma0^2)) x peak
    yy = exp.slit_half_separation_cm
    s0 = exp.packet_width_cm
    peak = (2.0 * math.pi * s0**2) ** -0.25
    expected = 2.0 * peak * math.exp(-yy**2 / (4.0 * s0**2))
    assert abs(wf.psi(exp, paper, 0.0, 0.0)) == pytest.approx(
        expected, rel=1e-12, abs=0.0)


def test_r_squared_matches_components(exp, paper):
    y = np.linspace(-5e-4, 5e-4, 501)
    t = exp.section_time_s(18.0)
    p = wf.psi(exp, paper, y, t)
    r, _ = wf._polar(paper, p)
    np.testing.assert_allclose(r * r, p.real**2 + p.imag**2, rtol=1e-10)


def test_fringe_spacing_matches_field_minima(exp, paper):
    # lambda_dB * D / (2 Y) against minima actually located in |psi|
    t = exp.section_time_s(35.0)
    y = np.linspace(0.0, 1.2e-3, 400001)
    r = np.abs(wf.psi(exp, paper, y, t))
    interior = (r[1:-1] < r[:-2]) & (r[1:-1] < r[2:])
    minima = y[1:-1][interior][:4]
    spacing = np.diff(minima).mean()
    assert spacing == pytest.approx(wf.fringe_spacing(exp, paper, 35.0),
                                    rel=1e-3, abs=0.0)
    # the published fringe scale (7000 angstrom) is not reproduced by this
    # geometry; the model value is about 2.0e-4 cm
    assert wf.fringe_spacing(exp, paper, 35.0) == pytest.approx(
        2.0e-4, rel=0.01, abs=0.0)


# ---------------------------------------------------------------------------
# amplitude / phase

def test_single_packet_phase_closed_form(paper):
    # S is defined up to a global multiple of 2 pi hbar (unwrap anchor);
    # anchored differences must match the quadratic free-packet phase
    exp1 = single_packet(paper)
    t = exp1.section_time_s(18.0)
    b = wf.spreading_parameter(exp1, paper, t)
    s0 = exp1.packet_width_cm
    y = np.linspace(-2e-4, 2e-4, 2001)
    _, s = wf._polar(paper, wf.psi(exp1, paper, y, t))
    expected = paper.hbar_ev_s * (
        y * y * b / (4.0 * s0**2 * (1.0 + b * b)) - 0.5 * math.atan(b))
    mid = len(y) // 2
    np.testing.assert_allclose(s - s[mid], expected - expected[mid],
                               rtol=1e-9, atol=1e-12 * paper.hbar_ev_s)
    # and the offset is an exact multiple of 2 pi hbar
    offset = (s[mid] - expected[mid]) / (2.0 * math.pi * paper.hbar_ev_s)
    # an absolute floor: the offset is a whole number of cycles, and its
    # error is round-off in cycles whatever that number is
    assert offset == pytest.approx(round(offset), abs=1e-9)


def test_phase_gradient_zero_on_axis(exp, paper):
    t = exp.section_time_s(18.0)
    h = 1e-9
    _, (s_plus,) = wf._polar(paper, wf.psi(exp, paper, np.array([h]), t))
    _, (s_minus,) = wf._polar(paper, wf.psi(exp, paper, np.array([-h]), t))
    assert abs(s_plus - s_minus) / (2 * h) < 1e-10 * paper.hbar_ev_s


def test_unwrap_consistency(exp, paper):
    # between nodes, successive unwrapped phase samples differ by < pi hbar
    t = exp.section_time_s(18.0)
    y = np.linspace(-6e-4, 6e-4, 20001)
    r, s = wf._polar(paper, wf.psi(exp, paper, y, t))
    good = r > wf.r_floor(exp, paper, t)
    steps = np.abs(np.diff(s[good]))
    assert np.max(steps) < math.pi * paper.hbar_ev_s


def test_phase_flagged_at_node_mask(exp, paper):
    # the inter-slit dead zone at t = 0 sits far below the amplitude floor;
    # quantum-potential writes S as nan on such rows, which
    # test_quantum_potential_csv_round_trip checks
    (r,), _ = wf._polar(paper, wf.psi(exp, paper, np.array([0.0]), 0.0))
    assert r < wf.r_floor(exp, paper, 0.0)


# ---------------------------------------------------------------------------
# quantum potential

def test_single_gaussian_q_closed_form(paper):
    exp1 = single_packet(paper)
    for t in (0.0, exp1.section_time_s(5.0), exp1.section_time_s(18.0)):
        # stay within the representable envelope (the floor masks beyond)
        y = np.linspace(-3.0, 3.0, 101) * wf.sigma_t(exp1, paper, t)
        q = wf.quantum_potential(exp1, paper, y, t)
        np.testing.assert_allclose(q, single_packet_q(paper, exp1, y, t),
                                   rtol=1e-9)
    # on-axis value hbar^2/(4 m sigma_t^2)
    s = wf.sigma_t(exp1, paper, 0.0)
    assert wf.quantum_potential(exp1, paper, 0.0, 0.0) == pytest.approx(
        paper.hbar_ev_s**2 / (4.0 * paper.electron_mass * s * s), rel=1e-12,
        abs=0.0)


def test_q_mirror_symmetry(exp, paper):
    y = np.linspace(1e-6, 6e-4, 2000)
    t = exp.section_time_s(18.0)
    q_plus = wf.quantum_potential(exp, paper, y, t)
    q_minus = wf.quantum_potential(exp, paper, -y, t)
    np.testing.assert_allclose(q_plus, q_minus, rtol=1e-10)


def test_q_closed_form_in_dead_zone(exp, paper):
    # between the slits at t = 0, R is ~1e-22 of the peak, yet Q takes its
    # closed value -(hbar^2/2m)(-2 alpha + 4 alpha^2 Y^2), alpha = 1/(4 s0^2)
    alpha = 1.0 / (4.0 * exp.packet_width_cm**2)
    yy = exp.slit_half_separation_cm
    expected = -(paper.hbar_ev_s**2 / (2.0 * paper.electron_mass)) * (
        -2.0 * alpha + 4.0 * alpha**2 * yy**2)
    assert wf.quantum_potential(exp, paper, 0.0, 0.0) == pytest.approx(
        expected, rel=1e-14, abs=0.0)
    assert wf.grad_quantum_potential(exp, paper, 0.0, 0.0) == 0.0


def test_q_finite_above_floor(exp, paper):
    # at 2 cm the default scan reaches past the floor: Q and grad Q stay
    # finite there, and exactly the samples with R at or below the floor
    # are flagged singular
    scan = wf.cross_section_scan(exp, paper, 2.0, 8e-4, n_samples=16385)
    assert np.isfinite(scan.q).all() and np.isfinite(scan.grad_q).all()
    r, _ = wf._polar(paper, scan.psi)
    above = r > wf.r_floor(exp, paper, scan.t_s)
    assert np.array_equal(scan.singular, ~above)
    assert scan.singular.any() and not scan.singular.all()


def test_q_magnitude_scale_at_section(scan18):
    # calibrated observable: |Q| max of order 1e-4 eV at the 18 cm section
    qmax = np.nanmax(np.abs(scan18.q))
    assert 1e-5 < qmax < 1e-3


def test_far_field_reduces_to_single_packet(paper):
    # at an early section the packets are disjoint: outside the slit region
    # the field is one free Gaussian and Q takes its closed parabolic form
    exp = wf.jonsson_experiment(paper)
    t = exp.section_time_s(0.5)
    s = wf.sigma_t(exp, paper, t)
    pref = paper.hbar_ev_s**2 / (2.0 * paper.electron_mass)
    for k in (3.0, 4.0, 5.0):
        y = exp.slit_half_separation_cm + k * s
        u = y - exp.slit_half_separation_cm
        g_single = -pref * u / (2.0 * s**4)
        g_two = wf.grad_quantum_potential(exp, paper, y, t)
        assert g_two == pytest.approx(g_single, rel=1e-9, abs=0.0)


def random_field_points(exp, rng, n, y_half_range_cm):
    """n uniform (y, t) pairs, |y| <= the half range, t in [0, T]."""
    return (rng.uniform(-y_half_range_cm, y_half_range_cm, n),
            rng.uniform(0.0, exp.time_of_flight_s, n))


def scaled_error(value, reference, scale):
    """|value - reference| over max(|reference|, scale).

    At a zero of Q or grad Q a relative error is undefined; there the
    error is measured against the one-packet scale of the quantity.
    """
    return np.abs(value - reference) / np.maximum(np.abs(reference), scale)


def one_packet_scales(exp, paper, t):
    """hbar^2 / (4 m sigma_t^2) for Q and that over sigma_t for grad Q."""
    s = wf.sigma_t(exp, paper, t)
    q0 = paper.hbar_ev_s**2 / (4.0 * paper.electron_mass * s * s)
    return q0, q0 / s


def test_q_matches_reference_kernel(exp, paper):
    # 2e5 random points against the A = |psi|^2 formulas wherever those
    # are finite.  Those formulas cancel by up to b^3 (b ~ 130 at the
    # screen), which costs them up to ~2e-7 relative at a few tail points;
    # wherever the two disagree by more than 1e-9, 50-digit arithmetic
    # decides, and the closed form must match it to 1e-9
    rng = np.random.default_rng(2024)
    y, t = random_field_points(exp, rng, 200_000, 8e-4)
    q = wf.quantum_potential(exp, paper, y, t)
    gq = wf.grad_quantum_potential(exp, paper, y, t)
    q_ref, gq_ref = ref.q_grad_q(exp, paper, y, t)
    finite = np.isfinite(q_ref)
    assert finite.sum() > 1.5e5
    q0, g0 = one_packet_scales(exp, paper, t)
    off = finite & ((scaled_error(q, q_ref, q0) > 1e-9)
                    | (scaled_error(gq, gq_ref, g0) > 1e-9))
    assert off.sum() < 1e-3 * finite.sum()
    for i in np.flatnonzero(off):
        q_mp, gq_mp = ref.mp_q_grad_q(exp, paper, y[i], t[i])
        assert scaled_error(q[i], q_mp, q0[i]) < 1e-9
        assert scaled_error(gq[i], gq_mp, g0[i]) < 1e-9


def test_q_where_reference_underflows_matches_mpmath(exp, paper):
    # where R is at or below 1e-12 of the peak the float64 reference is
    # NaN, and the closed form must match 50-digit arithmetic to 1e-9
    rng = np.random.default_rng(2025)
    y, t = random_field_points(exp, rng, 20_000, 8e-4)
    below = np.flatnonzero(np.isnan(ref.q_grad_q(exp, paper, y, t)[0]))
    assert below.size > 300
    pick = rng.choice(below, 300, replace=False)
    q = wf.quantum_potential(exp, paper, y[pick], t[pick])
    gq = wf.grad_quantum_potential(exp, paper, y[pick], t[pick])
    expected = np.array([ref.mp_q_grad_q(exp, paper, y[i], t[i])
                         for i in pick])
    np.testing.assert_allclose(q, expected[:, 0], rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(gq, expected[:, 1], rtol=1e-9, atol=0.0)


def test_q_far_tail_matches_single_packet(exp, paper):
    # where p = 4 alpha Y |y| >= 40 the other packet is below e^-40 and Q
    # is that of one free packet about the nearer slit centre:
    # -(hbar^2/2m)(-2 alpha + 4 alpha^2 u^2), and its gradient
    # -(hbar^2/2m) 8 alpha^2 u, with u = y - sgn(y) Y
    rng = np.random.default_rng(2026)
    y, t = random_field_points(exp, rng, 100_000, 0.5)
    alpha = 1.0 / (4.0 * wf.sigma_t(exp, paper, t) ** 2)
    yy = exp.slit_half_separation_cm
    tail = 4.0 * alpha * yy * np.abs(y) >= 40.0
    assert tail.sum() > 5e4
    y, t, alpha = y[tail], t[tail], alpha[tail]
    u = y - np.sign(y) * yy
    k = -paper.hbar_ev_s**2 / (2.0 * paper.electron_mass)
    np.testing.assert_allclose(
        wf.quantum_potential(exp, paper, y, t),
        k * (-2.0 * alpha + 4.0 * alpha**2 * u * u), rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(
        wf.grad_quantum_potential(exp, paper, y, t),
        k * 8.0 * alpha**2 * u, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# gradient verification

def richardson_gradient(exp, paper, y, t, h):
    """Eighth-order reference derivative of Q (two 4th-order stencils)."""
    def fd4(step):
        return (8.0 * (wf.quantum_potential(exp, paper, y + step, t)
                       - wf.quantum_potential(exp, paper, y - step, t))
                - (wf.quantum_potential(exp, paper, y + 2 * step, t)
                   - wf.quantum_potential(exp, paper, y - 2 * step, t))) \
            / (12.0 * step)
    coarse, fine = fd4(h), fd4(h / 4.0)
    return fine + (fine - coarse) / 255.0


def test_grad_analytic_vs_finite_difference(exp, paper, masked_samples):
    y, t = masked_samples
    y = y[:2000]
    g_an = wf.grad_quantum_potential(exp, paper, y, t)
    h = 2.0e-3 * ref.field_scale(exp, paper, t)
    g_fd = richardson_gradient(exp, paper, y, t, h)
    np.testing.assert_allclose(g_fd, g_an, rtol=1e-6)


def test_laplacian_consistency(exp, paper, masked_samples):
    # R'' = -(2m/hbar^2) Q R against Richardson-extrapolated differences
    # of R = |psi|; samples near zero crossings of R'' are excluded
    # (pointwise relative error is undefined at a zero of the reference)
    y, t = masked_samples
    y = y[:4000]
    q = wf.quantum_potential(exp, paper, y, t)
    lap_an = -(2.0 * paper.electron_mass / paper.hbar_ev_s**2) * q \
        * np.abs(wf.psi(exp, paper, y, t))

    def r_of(yy):
        return np.abs(wf.psi(exp, paper, yy, t))

    def lap4(h):
        return (-r_of(y + 2 * h) + 16.0 * r_of(y + h) - 30.0 * r_of(y)
                + 16.0 * r_of(y - h) - r_of(y - 2 * h)) / (12.0 * h * h)

    h0 = 1e-3 * ref.field_scale(exp, paper, t)
    coarse, fine = lap4(8.0 * h0), lap4(2.0 * h0)
    rich = fine + (fine - coarse) / 255.0
    keep = np.abs(lap_an) > 1e-3 * np.max(np.abs(lap_an))
    rel = np.abs(rich[keep] - lap_an[keep]) / np.abs(lap_an[keep])
    assert np.max(rel) < 1e-6


# ---------------------------------------------------------------------------
# cross-section scan and valleys

def test_scan_requires_minimum_samples(exp, paper):
    with pytest.raises(ConfigError):
        wf.cross_section_scan(exp, paper, 18.0, 8e-4, n_samples=50)


@pytest.mark.parametrize("n_samples, match", [
    (50, ">= 100"), (1000, "odd"), (16384, "odd")])
def test_scan_requires_an_odd_sample_count(exp, paper, n_samples, match):
    # the symmetric grid has 2 (n // 2) + 1 points, so an even count would
    # silently give one row more than asked for
    with pytest.raises(ConfigError, match=match):
        wf.cross_section_scan(exp, paper, 18.0, 8e-4, n_samples=n_samples)


def test_scan_valleys_mirror_pair(scan18):
    plus = {v.index: v for v in scan18.valleys if v.y_min_cm > 0}
    minus = {v.index: v for v in scan18.valleys if v.y_min_cm < 0}
    assert set(plus) == set(minus)
    assert len(plus) >= 4
    for idx, vp in plus.items():
        vm = minus[idx]
        assert vp.y_min_cm == pytest.approx(-vm.y_min_cm, rel=1e-9, abs=0.0)
        assert vp.depth_ev == pytest.approx(vm.depth_ev, rel=1e-9, abs=0.0)
        assert vp.grad_estimate_ev_per_cm == pytest.approx(
            vm.grad_estimate_ev_per_cm, rel=1e-9, abs=0.0)


def test_scan_valley_structure(scan18):
    for v in scan18.valleys:
        assert v.y_left_cm < v.y_min_cm < v.y_right_cm
        assert v.depth_ev > 0
        assert v.half_width_cm > 0
        assert v.grad_estimate_ev_per_cm == pytest.approx(
            v.depth_ev / v.half_width_cm, rel=1e-12, abs=0.0)


def test_scan_gradients_decrease_outward(scan18):
    grads = [v.grad_estimate_ev_per_cm
             for v in sorted(scan18.valleys, key=lambda v: v.index)
             if v.y_min_cm > 0][:4]
    assert len(grads) == 4
    assert all(a > b for a, b in zip(grads, grads[1:]))


def test_scan_grid_refinement_stable(exp, paper, scan18):
    fine = wf.cross_section_scan(exp, paper, 18.0, 8e-4, n_samples=32769)
    coarse = {v.index: v for v in scan18.valleys if v.y_min_cm > 0}
    refined = {v.index: v for v in fine.valleys if v.y_min_cm > 0}
    for idx in list(coarse)[:4]:
        a = coarse[idx].grad_estimate_ev_per_cm
        b = refined[idx].grad_estimate_ev_per_cm
        assert abs(a - b) / b < 0.01


def test_scan_without_valleys_reports_diagnostic(paper):
    exp1 = single_packet(paper)
    scan = wf.cross_section_scan(exp1, paper, 18.0, 4e-4, n_samples=2001)
    assert scan.valleys == []
    assert any("no valleys" in d for d in scan.diagnostics)


def test_scan_is_one_kernel_pass(exp, paper, monkeypatch):
    # one evaluation of psi over the grid, for R and S; Q and grad Q need
    # none
    calls = []
    kernel = wf._psi_derivs

    def counting(*args, **kwargs):
        out = kernel(*args, **kwargs)
        calls.append(len(out) - 1)  # the highest derivative order returned
        return out

    monkeypatch.setattr(wf, "_psi_derivs", counting)
    wf.cross_section_scan(exp, paper, 18.0, 8e-4, n_samples=1025)
    assert calls == [0]


def bits(values):
    """float64 bit patterns, so equality is bit for bit (sign of zero too)."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def test_libm_mirror_parity():
    # the mirrored scan copies Q and grad Q from y >= 0 to y < 0; that is
    # exact only while these functions are odd or even bit for bit
    rng = np.random.default_rng(20261019)
    x = np.concatenate([rng.uniform(-50.0, 50.0, 50_000),
                        10.0 ** rng.uniform(-300.0, 6.0, 50_000)])
    with np.errstate(over="ignore"):
        for odd in (np.sin, np.tanh):
            np.testing.assert_array_equal(bits(odd(-x)), bits(-odd(x)),
                                          err_msg=odd.__name__)
        for even in (np.cos, np.cosh):
            np.testing.assert_array_equal(bits(even(-x)), bits(even(x)),
                                          err_msg=even.__name__)


@pytest.mark.parametrize("x_cm, half_range, n_samples", [
    (2.0, 8e-4, 16385), (18.0, 8e-4, 16385), (35.0, 8e-4, 16385),
    (18.0, 3e-4, 2001)])
def test_mirrored_scan_equals_full_grid(exp, paper, x_cm, half_range,
                                        n_samples):
    scan = wf.cross_section_scan(exp, paper, x_cm, half_range, n_samples)
    y, t = scan.y, scan.t_s
    assert scan.singular.any() == (x_cm == 2.0)
    np.testing.assert_array_equal(
        bits(scan.q), bits(wf.quantum_potential(exp, paper, y, t)))
    np.testing.assert_array_equal(
        bits(scan.grad_q), bits(wf.grad_quantum_potential(exp, paper, y, t)))
    np.testing.assert_array_equal(
        bits(np.abs(scan.psi)), bits(np.abs(wf.psi(exp, paper, y, t))))


@pytest.mark.parametrize("half_range", [8e-4, 3e-4, 2e-3, 10.0])
def test_valleys_match_list_scan_oracle(exp, paper, half_range):
    # 100 sections per range, diagnostics (minima that lack a crest)
    # included; 10 cm is far under-resolved and mostly singular
    n_valleys = n_diagnostics = 0
    for x_cm in np.linspace(0.5, 35.0, 100):
        scan = wf.cross_section_scan(exp, paper, float(x_cm), half_range,
                                     16385)
        got, want = [], []
        valleys = wf._detect_valleys(scan.y, scan.q, scan.singular, got)
        expected = list_scan_valleys(scan.y, scan.q, scan.singular, want)
        assert [dataclasses.astuple(v) for v in valleys] \
            == [dataclasses.astuple(v) for v in expected]
        assert got == want
        n_valleys += len(valleys)
        n_diagnostics += len(got)
    assert n_valleys > 0 and n_diagnostics > 0


def test_scan_channels_match_public_functions(exp, paper, scan18):
    y, t = scan18.y, scan18.t_s
    r, s = wf._polar(paper, wf.psi(exp, paper, y, t))
    scan_r, scan_s = wf._polar(paper, scan18.psi)
    assert np.array_equal(scan_r, r, equal_nan=True)
    assert np.array_equal(scan_s, s, equal_nan=True)
    assert np.array_equal(scan18.q, wf.quantum_potential(exp, paper, y, t),
                          equal_nan=True)
    assert np.array_equal(scan18.grad_q,
                          wf.grad_quantum_potential(exp, paper, y, t),
                          equal_nan=True)


@pytest.mark.parametrize("t", [-1e-9, np.array([1e-9, -1e-9])],
                         ids=["scalar", "array"])
def test_field_functions_refuse_negative_t(exp, paper, t):
    # the guidance velocity refuses t < 0 as Q, grad Q, the acceleration
    # and psi do; before, it returned -5.7e4 cm/s at y = 6e-5 cm
    for f in (wf.velocity_field, wf.quantum_potential,
              wf.grad_quantum_potential, wf.bohmian_acceleration, wf.psi):
        with pytest.raises(ConfigError, match="t must be >= 0"):
            f(exp, paper, 6e-5, t)
        with pytest.raises(ConfigError, match="t must be >= 0"):
            f(exp, paper, np.array([6e-5, -6e-5]), t)
