"""Post-slit wavefunction of two Gaussian slits and derived field quantities.

The transverse state is a superposition of two freely spreading Gaussian
packets centered at y = +Y and y = -Y, each starting with width sigma0 and
zero transverse momentum:

    psi(y, t) = G(y - Y, t) + G(y + Y, t)
    G(u, t)   = (2 pi sigma0^2)^(-1/4) (1 + i b)^(-1/2)
                * exp(-u^2 / (4 sigma0^2 (1 + i b)))
    b         = hbar t / (2 m sigma0^2)

so the spread width is sigma_t = sigma0 sqrt(1 + b^2).  The longitudinal
motion is classical: x = v_x t, which maps a section at distance x from the
slit plane onto an evaluation time t = x / v_x.

From psi follow the polar decomposition psi = R exp(iS/hbar), which only
``quantum-potential`` writes, the quantum potential

    Q = -(hbar^2 / 2m) (d^2 R / dy^2) / R

and its y-gradient, and the guidance velocity of a Bohmian path,

    v = (1/m) dS/dy = (hbar/m) Im(psi* psi') / |psi|^2,

whose acceleration is the quantum force a = -(1/m) dQ/dy (there is no
classical potential between slit plane and screen).  All three come in
closed form from the log-derivative L = psi'/psi, whose real part is R'/R
and whose imaginary part is m v / hbar.  For the two equal-width packets
psi = 2 N exp(-g (y^2 + Y^2)) cosh z with z = 2 g Y y, so

    L   = -2 g (y - Y tanh z)
    L'  = -2 g + 4 g^2 Y^2 sech^2 z
    L'' = -16 g^3 Y^3 sech^2 z tanh z

and

    v     = (hbar/m) Im L
    R''/R = Re L' + (Re L)^2
    Q'    = -(hbar^2/2m) (Re L'' + 2 Re L Re L').

The prefactor and the Gaussian envelope cancel.  With g = alpha (1 - i b)
and p = 4 alpha Y y = 2 Re z, tanh z and sech^2 z are real functions of p
and b p, so that

    v = (hbar/m) 2 alpha [b y - Y (sin(bp) sech p + b tanh p)
                                / (1 + cos(bp) sech p)],

and v, Q and Q' are evaluated in real arithmetic, with no amplitude that
could underflow: they are finite for every finite y and t >= 0.  All
functions are pure and vectorized over y.  A Python float (y, t), the
right-hand side of a single path, takes the same operations in float
arithmetic, with cosh, sin, cos and tanh from the same NumPy ufuncs, so
its bits are those of a one-element array (a test pins this).

Samples where R falls below a floor (1e-12 of the packet peak scale at
that t) carry no meaningful phase: a scan flags them singular, valley
detection skips them, and ``quantum-potential`` writes S as NaN there.

A cross-section scan samples a grid exactly symmetric about y = 0.  The
setup is mirror symmetric, so Q is even in y and grad Q odd: the scan
evaluates them on the y >= 0 half and mirrors the result.  This copies
the full-grid values bit for bit because every step of the closed form
is even or odd in y in floating point too, given that sin and tanh are
odd and cos and cosh even in the maths library (a test checks both).  A
scan keeps psi itself; the phase S, with its angle and unwrap, is
computed only by ``quantum-potential``, the one output that writes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .units import PhysicalConstants

# Fraction of the peak amplitude scale at or below which a scan flags a
# sample singular, where its phase S carries no meaning (Q and grad Q
# need no mask).
R_FLOOR_FRACTION = 1.0e-12

# Ratio kinetic energy / rest energy above which the non-relativistic
# model is refused.
RELATIVISTIC_RATIO_LIMIT = 0.2

# cosh is finite below this |argument| (cosh 710 = 1.1e308; it overflows
# from 710.476), so only beyond it does a float p need np.errstate.
COSH_FINITE = 710.0


@dataclass(frozen=True)
class SlitExperiment:
    """Geometry and beam parameters of the two-Gaussian-slit setup.

    Lengths in cm, speeds in cm/s.  Each packet is normalized at t = 0;
    the velocity, Q and grad Q come from psi'/psi, in which no overall
    factor of psi survives.

    slit_half_separation_cm may be zero: that is the degenerate
    single-packet limit used by closed-form oracles.  Configuration
    loading (make_experiment) requires it to be positive.
    """

    slit_half_separation_cm: float   # Y
    packet_width_cm: float           # sigma0
    forward_speed_cm_s: float        # v_x
    screen_distance_cm: float        # D
    cross_section_x_cm: float        # section position for scans

    def __post_init__(self):
        if self.slit_half_separation_cm < 0.0:
            raise ConfigError("slit_half_separation_cm must be >= 0")
        if self.packet_width_cm <= 0.0:
            raise ConfigError("packet_width_cm must be positive")
        if self.forward_speed_cm_s <= 0.0:
            raise ConfigError("forward_speed_cm_s must be positive")
        if not 0.0 < self.cross_section_x_cm <= self.screen_distance_cm:
            raise ConfigError(
                "cross_section_x_cm must satisfy 0 < x <= screen_distance_cm")

    @property
    def time_of_flight_s(self) -> float:
        """Slit plane to screen."""
        return self.screen_distance_cm / self.forward_speed_cm_s

    def section_time_s(self, x_cm: float) -> float:
        """Evaluation time for a cross section at distance x from the slits."""
        if not 0.0 <= x_cm <= self.screen_distance_cm:
            raise ConfigError("section position outside slit-screen region")
        return x_cm / self.forward_speed_cm_s


# Calibrated defaults for the 45 keV two-slit setup: slit centers 1e-4 cm
# apart, screen at 35 cm, section of interest at 18 cm.  The packet width
# is calibrated so that the section at 18 cm shows the quoted observables
# (|Q| maximum of order 1e-4 eV, first-valley wall gradients within an
# order of magnitude of 9.66 / 3.06 / 0.93 / 0.8 eV/cm).
JONSSON_DEFAULTS = {
    "slit_half_separation_cm": 0.5e-4,
    "packet_width_cm": 3.5e-6,
    "kinetic_energy_eV": 45.0e3,
    "screen_distance_cm": 35.0,
    "cross_section_x_cm": 18.0,
}


def make_experiment(consts: PhysicalConstants,
                    *,
                    slit_half_separation_cm: float,
                    packet_width_cm: float,
                    kinetic_energy_eV: float,
                    screen_distance_cm: float,
                    cross_section_x_cm: float) -> SlitExperiment:
    """Validated construction: non-relativistic guard, and the forward
    speed derived from the kinetic energy by E = p^2/2m."""
    if slit_half_separation_cm <= 0.0:
        raise ConfigError("slit_half_separation_cm must be positive")
    if kinetic_energy_eV <= 0.0:
        raise ConfigError("kinetic_energy_eV must be positive")
    ratio = kinetic_energy_eV / consts.electron_rest_energy_ev
    if ratio > RELATIVISTIC_RATIO_LIMIT:
        raise ConfigError(
            f"kinetic energy is {ratio:.2f} of the rest energy; the "
            f"non-relativistic model is only valid below "
            f"{RELATIVISTIC_RATIO_LIMIT}")
    return SlitExperiment(
        slit_half_separation_cm=slit_half_separation_cm,
        packet_width_cm=packet_width_cm,
        forward_speed_cm_s=consts.speed_from_kinetic_energy(
            kinetic_energy_eV),
        screen_distance_cm=screen_distance_cm,
        cross_section_x_cm=cross_section_x_cm,
    )


def jonsson_experiment(consts: PhysicalConstants) -> SlitExperiment:
    """The calibrated 45 keV default setup."""
    return make_experiment(consts, **JONSSON_DEFAULTS)


# ---------------------------------------------------------------------------
# Packet kinematics

def spreading_parameter(exp: SlitExperiment, consts: PhysicalConstants,
                        t):
    """b = hbar t / (2 m sigma0^2), dimensionless. Vectorized over t."""
    m = consts.electron_mass
    return consts.hbar_ev_s * t / (2.0 * m * exp.packet_width_cm**2)


def sigma_t(exp: SlitExperiment, consts: PhysicalConstants, t):
    """Spread packet width sigma0 sqrt(1 + b^2), in cm. Vectorized over t."""
    b = spreading_parameter(exp, consts, t)
    return exp.packet_width_cm * np.hypot(1.0, b)


def interference_wavenumber(exp: SlitExperiment, consts: PhysicalConstants,
                            t: float) -> float:
    """Local fringe wavenumber xi = Y b / (sigma0^2 (1 + b^2)), in 1/cm.

    The two-packet cross term oscillates as cos(xi * y); 2 pi / xi is the
    fringe spacing at time t (zero at t = 0).
    """
    b = spreading_parameter(exp, consts, t)
    return (exp.slit_half_separation_cm * b
            / (exp.packet_width_cm**2 * (1.0 + b * b)))


def de_broglie_wavelength(exp: SlitExperiment,
                          consts: PhysicalConstants) -> float:
    """lambda = h/p = 2 pi hbar / (m v_x), in cm."""
    p = consts.electron_mass * exp.forward_speed_cm_s
    return 2.0 * math.pi * consts.hbar_ev_s / p


def fringe_spacing(exp: SlitExperiment, consts: PhysicalConstants,
                   x_cm: float) -> float:
    """Far-field fringe spacing lambda_dB * x / (2 Y) at section x, in cm."""
    return (de_broglie_wavelength(exp, consts) * x_cm
            / (2.0 * exp.slit_half_separation_cm))


def peak_amplitude_scale(exp: SlitExperiment, consts: PhysicalConstants, t):
    """Upper bound 2 |N(t)| on |psi| at time t (perfect packet overlap)."""
    b = spreading_parameter(exp, consts, t)
    n_abs = (2.0 * math.pi * exp.packet_width_cm**2) ** -0.25 \
        / (1.0 + b * b) ** 0.25
    return 2.0 * n_abs


def r_floor(exp: SlitExperiment, consts: PhysicalConstants, t):
    """Amplitude at or below which a scan flags a sample singular."""
    return R_FLOOR_FRACTION * peak_amplitude_scale(exp, consts, t)


# ---------------------------------------------------------------------------
# psi, its polar form, and the quantum potential

def _packet_core(exp: SlitExperiment, consts: PhysicalConstants, t):
    """Complex width parameter g and prefactor N of one packet at time t.

    G(u, t) = N exp(-g u^2) with g = 1 / (4 sigma0^2 (1 + i b)).
    """
    b = spreading_parameter(exp, consts, t)
    denom = 1.0 + 1j * b
    g = 1.0 / (4.0 * exp.packet_width_cm**2 * denom)
    n = (2.0 * math.pi * exp.packet_width_cm**2) ** -0.25 / np.sqrt(denom)
    return g, n


def _psi_derivs(exp: SlitExperiment, consts: PhysicalConstants, y, t):
    """[psi] at (y, t), shaped like y.

    The one evaluation of the Gaussian sum, for R, S and the density.  t
    may be a scalar or an array broadcastable against y.  The list form
    lets the benchmark's tracer count the points of each call.
    """
    if np.any(np.asarray(t) < 0.0):
        raise ConfigError("t must be >= 0")
    y = np.asarray(y, dtype=float)
    g, n = _packet_core(exp, consts, t)
    yy = exp.slit_half_separation_cm
    u1 = y - yy
    u2 = y + yy
    return [n * np.exp(-g * u1 * u1) + n * np.exp(-g * u2 * u2)]


def psi(exp: SlitExperiment, consts: PhysicalConstants, y, t: float):
    """Un-normalized superposition amplitude at (y, t)."""
    (p,) = _psi_derivs(exp, consts, y, t)
    if p.ndim == 0:
        return complex(p)
    return p


def _polar(consts: PhysicalConstants, p):
    """Polar form (R, S) of an array p of psi samples: R = |psi| and
    S = hbar arg(psi) in eV s, unwrapped along the array so that dS/dy is
    defined between nodes.  S is not masked; where the scan flags a
    sample singular it carries no meaning."""
    return np.abs(p), consts.hbar_ev_s * np.unwrap(np.angle(p))


def _closed_form_args(exp: SlitExperiment, consts: PhysicalConstants, y, t):
    """The real arguments and transcendentals of the closed form of psi'/psi.

    Returns (b, alpha, y, sech p, sin bp, cos bp, tanh p, D) with
    alpha = 1 / (4 sigma0^2 (1 + b^2)), p = 4 alpha Y y and
    D = 1 + cos(bp) sech p: every value that the guidance velocity and
    Q, grad Q share, so a caller that needs both computes them once.  y
    comes back as a float array, or as a Python float when y and t are
    floats; then the four transcendentals are the ufuncs' bits on that
    float, and np.errstate is entered only where cosh p may overflow.
    Python's float arithmetic raises no floating-point flag, so on floats
    a product that overflows to b p = +-inf gives sin and cos NaN, their
    IEEE value, without NumPy's invalid-value flag: a single path then
    rejects the step, as its lane in a batch does.
    sech p is 1/cosh p, which is 0 where cosh overflows, its exact limit.
    Each returned array is even or odd in y (b and alpha do not depend on
    y; y, sin bp and tanh p are odd; sech p, cos bp and D are even).
    """
    b = spreading_parameter(exp, consts, t)
    alpha = 1.0 / (4.0 * exp.packet_width_cm**2 * (1.0 + b * b))
    if type(y) is not float:
        y = np.asarray(y, dtype=float)
    p = 4.0 * exp.slit_half_separation_cm * alpha * y
    bp = b * p
    if type(p) is float:
        if abs(p) < COSH_FINITE:
            sech = 1.0 / float(np.cosh(p))
        else:
            with np.errstate(over="ignore"):
                sech = 1.0 / float(np.cosh(p))
        if math.isfinite(bp):
            sin_bp, cos_bp = float(np.sin(bp)), float(np.cos(bp))
        else:
            sin_bp = cos_bp = math.nan
        tanh_p = float(np.tanh(p))
    else:
        with np.errstate(over="ignore"):
            sech = 1.0 / np.cosh(p)
        sin_bp, cos_bp, tanh_p = np.sin(bp), np.cos(bp), np.tanh(p)
    return b, alpha, y, sech, sin_bp, cos_bp, tanh_p, 1.0 + cos_bp * sech


def _velocity_of(exp: SlitExperiment, consts: PhysicalConstants, args):
    """The guidance velocity (hbar/m) Im L in cm/s, by the closed form of
    the module docstring, from ``_closed_form_args``.  Where cosh p
    overflows sech p is 0, so far in the tails v tends to the
    single-packet velocity."""
    b, alpha, y, sech, sin_bp, _, tanh_p, d = args
    return (consts.hbar_ev_s / consts.electron_mass) * 2.0 * alpha * (
        b * y - exp.slit_half_separation_cm * (sin_bp * sech + b * tanh_p)
        / d)


def _q_grad_q(exp: SlitExperiment, consts: PhysicalConstants, y, t):
    """Q in eV and dQ/dy in eV/cm at (y, t); see ``_q_grad_q_of``."""
    if np.any(np.asarray(t) < 0.0):
        raise ConfigError("t must be >= 0")
    return _q_grad_q_of(exp, consts, _closed_form_args(exp, consts, y, t))


def _q_grad_q_of(exp: SlitExperiment, consts: PhysicalConstants, args):
    """Q and dQ/dy by the closed form of the module docstring.

    ``args`` is ``_closed_form_args``.  With c = cos(bp), s = sech p and
    D = 1 + c s, which is at least 1 - s > 0 for p != 0 and 2 at p = 0,

        tanh z   = Tr + i Ti = (tanh p - i sin(bp) s) / D
        sech^2 z = Sr + i Si = 1 - (Tr + i Ti)^2,

    where Sr = 1 - Tr^2 + Ti^2 is taken as 2 s (c + s) / D^2, its form
    without the cancellation of 1 - Tr^2 as tanh p tends to 1.  The real
    parts of L, L' and L'' then follow from g = alpha (1 - i b),
    g^2 = alpha^2 (1 - b^2 - 2 i b) and
    g^3 = alpha^3 (1 - 3 b^2 + i (b^3 - 3 b)).
    """
    b, alpha, y, sech, sin_bp, cos_bp, tanh_p, d = args
    yy = exp.slit_half_separation_cm
    tr = tanh_p / d
    ti = -sin_bp * sech / d
    sr = 2.0 * sech * (cos_bp + sech) / (d * d)
    si = -2.0 * tr * ti
    ay = alpha * yy
    re_l = -2.0 * alpha * (y - yy * (tr + b * ti))
    re_l1 = -2.0 * alpha + 4.0 * ay * ay * ((1.0 - b * b) * sr + 2.0 * b * si)
    re_l2 = -16.0 * ay**3 * ((1.0 - 3.0 * b * b) * (sr * tr - si * ti)
                             - (b**3 - 3.0 * b) * (sr * ti + si * tr))
    k = -consts.hbar_ev_s**2 / (2.0 * consts.electron_mass)
    return k * (re_l1 + re_l * re_l), k * (re_l2 + 2.0 * re_l * re_l1)


def _velocity_acceleration(exp: SlitExperiment, consts: PhysicalConstants,
                           y, t):
    """``velocity_field`` and ``bohmian_acceleration`` at (y, t >= 0), bit
    for bit, from one evaluation of their shared transcendentals."""
    args = _closed_form_args(exp, consts, y, t)
    _, gq = _q_grad_q_of(exp, consts, args)
    return _velocity_of(exp, consts, args), -gq / consts.electron_mass


def quantum_potential(exp: SlitExperiment, consts: PhysicalConstants,
                      y, t: float):
    """Q = -(hbar^2/2m) R''/R in eV."""
    q, _ = _q_grad_q(exp, consts, y, t)
    return float(q) if np.ndim(q) == 0 else q


def grad_quantum_potential(exp: SlitExperiment, consts: PhysicalConstants,
                           y, t: float):
    """dQ/dy in eV/cm."""
    _, gq = _q_grad_q(exp, consts, y, t)
    return float(gq) if np.ndim(gq) == 0 else gq


def velocity_field(exp: SlitExperiment, consts: PhysicalConstants, y, t):
    """Guidance velocity (1/m) dS/dy = (hbar/m) Im(psi'/psi) in cm/s."""
    if np.any(np.asarray(t) < 0.0):
        raise ConfigError("t must be >= 0")
    v = _velocity_of(exp, consts, _closed_form_args(exp, consts, y, t))
    return float(v) if np.ndim(v) == 0 else v


def bohmian_acceleration(exp: SlitExperiment, consts: PhysicalConstants,
                         y, t):
    """Beable acceleration -(1/m) dQ/dy in cm/s^2."""
    return -grad_quantum_potential(exp, consts, y, t) / consts.electron_mass


# ---------------------------------------------------------------------------
# Cross-section scans and valley detection

@dataclass(frozen=True)
class Valley:
    """A trough of Q between two flanking maxima.

    ``index`` counts outward from the symmetry axis (1 = innermost) and is
    shared by the mirror partner at -y_min.  The depth and half-width are
    measured on the wall nearer the axis (the side an outbound electron
    enters through), so grad_estimate = depth / half-width is the entry
    wall steepness.
    """

    index: int
    y_min_cm: float
    y_left_cm: float
    y_right_cm: float
    depth_ev: float
    half_width_cm: float
    grad_estimate_ev_per_cm: float


@dataclass
class ScanResult:
    """Arrays sampled along y at fixed t, plus detected valleys.

    ``psi`` is the complex amplitude; R and S follow from it by
    ``_polar``, which only the one output that writes S runs, and that
    output masks S, Q and grad Q where ``singular`` is set.  ``q`` and
    ``grad_q`` are evaluated on the y >= 0 half of the symmetric grid and
    mirrored: Q is even in y and grad Q odd, and the mirror equals a
    full-grid evaluation bit for bit as long as sin, tanh are odd and cos,
    cosh even in floating point, which a test checks.
    """

    x_cm: float
    t_s: float
    y: np.ndarray
    psi: np.ndarray
    q: np.ndarray
    grad_q: np.ndarray
    singular: np.ndarray          # True where R is at or below the floor
    valleys: list[Valley] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)


def symmetric_grid(half_range: float, n_samples: int) -> np.ndarray:
    """Grid exactly symmetric about 0 (odd point count includes 0)."""
    half = n_samples // 2
    step = half_range / half
    return step * np.arange(-half, half + 1)


def _mirrored_q_grad_q(exp: SlitExperiment, consts: PhysicalConstants,
                       y: np.ndarray, t):
    """Q and dQ/dy on a grid exactly symmetric about 0, evaluated on its
    y >= 0 half and mirrored (Q even, grad Q odd)."""
    q_half, gq_half = _q_grad_q(exp, consts, y[y.size // 2:], t)
    return (np.concatenate((q_half[:0:-1], q_half)),
            np.concatenate((-gq_half[:0:-1], gq_half)))


def cross_section_scan(exp: SlitExperiment, consts: PhysicalConstants,
                       x_cm: float, y_half_range_cm: float,
                       n_samples: int) -> ScanResult:
    """Sample the field along y at the section x and detect Q valleys.

    The grid is symmetric about y = 0 (mirror symmetry of the setup is
    exact there, which the valley pairing tests rely on), so Q and grad Q
    are computed on its y >= 0 half only and mirrored.  psi is evaluated
    on the whole grid.
    """
    if n_samples < 100:
        raise ConfigError("n_samples must be >= 100")
    if n_samples % 2 == 0:
        raise ConfigError(
            "n_samples must be odd: the grid is symmetric about y = 0")
    t = exp.section_time_s(x_cm)
    y = symmetric_grid(y_half_range_cm, n_samples)
    p = _psi_derivs(exp, consts, y, t)[0]
    q, gq = _mirrored_q_grad_q(exp, consts, y, t)
    singular = ~(np.abs(p) > r_floor(exp, consts, t))
    result = ScanResult(x_cm=x_cm, t_s=t, y=y, psi=p, q=q, grad_q=gq,
                        singular=singular)
    result.valleys = _detect_valleys(y, q, singular, result.diagnostics)
    if not result.valleys:
        result.diagnostics.append(
            "no valleys found: the section shows no resolved troughs of Q "
            "inside the scan range")
    return result


def _local_extrema(q: np.ndarray, singular: np.ndarray):
    """Indices of strict local minima and maxima of q, skipping singular."""
    valid = ~singular
    ok = valid[:-2] & valid[1:-1] & valid[2:]
    interior = q[1:-1]
    is_min = ok & (interior < q[:-2]) & (interior < q[2:])
    is_max = ok & (interior > q[:-2]) & (interior > q[2:])
    return np.flatnonzero(is_min) + 1, np.flatnonzero(is_max) + 1


def _detect_valleys(y: np.ndarray, q: np.ndarray, singular: np.ndarray,
                    diagnostics: list[str]) -> list[Valley]:
    mins, maxs = _local_extrema(q, singular)
    if not mins.size or not maxs.size:
        return []
    # The crests just below and just above each minimum on the grid.  The
    # one toward the axis is the inner crest; it may sit on the axis but
    # not beyond it.
    above = np.searchsorted(maxs, mins)
    has_both = (above > 0) & (above < maxs.size)
    j_below = maxs[np.maximum(above - 1, 0)]
    j_above = maxs[np.minimum(above, maxs.size - 1)]
    valleys: list[Valley] = []
    # Group minima by side of the axis; index outward per side, which on
    # the y < 0 side is descending grid order.
    for side, j_inner in ((+1, j_below), (-1, j_above)):
        order = np.flatnonzero(side * y[mins] > 0.0)[::side]
        j_in = j_inner[order]
        flanked = has_both[order] & (side * y[j_in] >= 0.0)
        i = mins[order]
        depth = q[j_in] - q[i]
        half_width = np.abs(y[i] - y[j_in])
        rows = zip(flanked.tolist(), y[i].tolist(), y[j_below[order]].tolist(),
                   y[j_above[order]].tolist(), depth.tolist(),
                   half_width.tolist(), (depth / half_width).tolist())
        for rank, (ok, y_min, left, right, dep, hw, grad) in enumerate(
                rows, start=1):
            if not ok:
                diagnostics.append(
                    f"minimum at y={y_min:.3e} lacks a flanking maximum; "
                    "skipped")
                continue
            valleys.append(Valley(
                index=rank,
                y_min_cm=y_min,
                y_left_cm=left,
                y_right_cm=right,
                depth_ev=dep,
                half_width_cm=hw,
                grad_estimate_ev_per_cm=grad,
            ))
    valleys.sort(key=lambda v: (v.index, v.y_min_cm < 0.0))
    return valleys
