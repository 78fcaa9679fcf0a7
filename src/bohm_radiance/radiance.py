"""Radiation predictions of the two interpretations.

Copenhagen: the post-slit electron is free (V = 0 between slit plane and
screen), its acceleration operator vanishes identically, and the emission
power is exactly zero -- not small, zero.

Pilot-wave: an individual electron is accelerated by the quantum
potential, a = -(grad Q)/m, and radiates with the Larmor-like power

    P = (4/3) (alpha hbar / c^2) a^2,

evaluated here in eV/s and converted to W.  Crossing one valley wall of
the quantum potential is one "collision": an acceleration leg of duration
tau (from v0 tau + a tau^2 / 2 = dy) followed by a mirror deceleration
leg.  Each leg changes the speed by delta_v = a tau and emits a soft
photon of energy P tau; the emission spectrum per valley is flat below
the cutoff omega_c = 1/tau,

    I(omega) = I(0) = (4/3)(alpha hbar / c^2) delta_v^2   for omega < 1/tau

and zero above.  The cutoff wavelength is reported as lambda_c =
c / omega_c, the convention under which the published cutoff wavelengths
(8.4 mm for tau = 2.8e-11 s) are internally consistent; it differs from
the textbook lambda = 2 pi c / omega by 2 pi, which output metadata notes.

The ensemble average of the pilot-wave prediction vanishes: over
rho = |psi|^2 the mean quantum force integrates to zero for any
normalizable state, reconciling the two interpretations statistically
while leaving the per-trajectory prediction nonzero.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, NumericalError
from .units import PhysicalConstants
from .wavefield import (
    ScanResult,
    SlitExperiment,
    _mirrored_q_grad_q,
    _psi_derivs,
    interference_wavenumber,
    sigma_t,
    symmetric_grid,
    velocity_field,
)
from .trajectories import Trajectory

# The cutoff wavelength convention: lambda_c = c / omega_c (no 2 pi).
LAMBDA_CONVENTION_NOTE = (
    "lambda_c is defined as c/omega_c; the textbook far-field relation "
    "lambda = 2*pi*c/omega differs by a factor 2*pi")


def copenhagen_emission_power() -> float:
    """Emission power of the free post-slit electron: exactly zero.

    Between slit plane and screen the Hamiltonian is p^2/2m, the
    acceleration operator is identically zero, and so is the radiated
    power -- for any position and time strictly between the slits and
    the screen.
    """
    return 0.0


def emission_power(consts: PhysicalConstants, a_cm_s2: float) -> float:
    """P = (4/3)(alpha hbar / c^2) a^2, in W."""
    if not math.isfinite(a_cm_s2):
        raise NumericalError("acceleration must be finite")
    return (consts.larmor_prefactor * a_cm_s2 * a_cm_s2
            * consts.electron_charge_c)


def emission_power_from_gradq(consts: PhysicalConstants,
                              grad_q_ev_per_cm: float) -> float:
    """Emission power for a quantum-potential gradient, in W.

    Exactly emission_power(consts, gradQ / m).
    """
    return emission_power(consts,
                          consts.acceleration_from_gradient(grad_q_ev_per_cm))


def collision_time(v0_cm_s: float, a_cm_s2: float, dy_cm: float) -> float:
    """Positive root tau of v0 tau + a tau^2 / 2 = dy.

    The time to traverse one valley wall of width dy entering at speed v0
    under constant acceleration a.  a = 0 with v0 > 0 degenerates to the
    ballistic dy/v0.
    """
    if dy_cm <= 0.0:
        raise NumericalError("wall width dy must be positive")
    if v0_cm_s < 0.0 or a_cm_s2 < 0.0:
        raise NumericalError("v0 and a must be non-negative")
    if a_cm_s2 == 0.0 and v0_cm_s == 0.0:
        raise NumericalError("no positive traversal time for v0 = 0 and a = 0")
    # Stable form of the quadratic root (no cancellation as a -> 0).
    try:
        disc = v0_cm_s**2 + 2.0 * a_cm_s2 * dy_cm
    except OverflowError:  # float ** raises where * would give inf
        disc = math.inf
    if sys.float_info.min <= disc < math.inf:
        return 2.0 * dy_cm / (v0_cm_s + math.sqrt(disc))
    # Where v0^2 + 2 a dy overflows, or underflows to 0 or a subnormal, the
    # same root with the terms halved under hypot:
    # tau = dy / (v0/2 + sqrt((v0/2)^2 + (a/2) dy)).
    half_v0 = 0.5 * v0_cm_s
    return dy_cm / (half_v0 + math.hypot(
        half_v0, math.sqrt(0.5 * a_cm_s2) * math.sqrt(dy_cm)))


def photon_energy_frequency(consts: PhysicalConstants, power_w: float,
                            tau_s: float) -> tuple[float, float]:
    """(photon energy in J, frequency in Hz) for one emission leg.

    E = P tau, nu = E / h.
    """
    if power_w < 0.0:
        raise NumericalError("power must be non-negative")
    if tau_s <= 0.0:
        raise NumericalError("tau must be positive")
    energy = power_w * tau_s
    return energy, energy / consts.planck_h_j_s


@dataclass(frozen=True)
class ValleyInput:
    """Per-valley inputs: wall gradient, entry speed, and wall width or
    traversal time (exactly one of the two)."""

    grad_q_ev_per_cm: float
    v0_cm_per_s: float = 0.0
    dy_cm: float | None = None
    tau_s: float | None = None
    index: int = 0

    def __post_init__(self):
        if (self.dy_cm is None) == (self.tau_s is None):
            raise ConfigError(
                "exactly one of dy_cm and tau_s must be supplied")
        if self.grad_q_ev_per_cm < 0.0:
            raise ConfigError("grad_q_ev_per_cm must be non-negative")
        if self.v0_cm_per_s < 0.0:
            raise ConfigError("v0_cm_per_s must be non-negative")
        if self.dy_cm is not None and self.dy_cm <= 0.0:
            raise ConfigError("dy_cm must be positive")
        if self.tau_s is not None and self.tau_s <= 0.0:
            raise ConfigError("tau_s must be positive")


@dataclass(frozen=True)
class SpectrumStep:
    """One valley's step spectrum and bookkeeping quantities.

    The field order is the column order of ``spectrum.csv``.
    """

    valley: int
    grad_q_ev_per_cm: float
    acceleration_cm_s2: float
    tau_s: float
    delta_v_cm_s: float         # per-leg speed change a*tau
    power_w: float
    omega_c_hz: float           # cutoff angular frequency 1/tau
    lambda_c_cm: float          # c/omega_c
    i0_ev_per_hz: float         # step height (4/3)(alpha hbar/c^2) dv^2
    photon_energy_j: float
    photon_frequency_hz: float


def spectrum_step(consts: PhysicalConstants, vi: ValleyInput) -> SpectrumStep:
    """Full per-valley emission characteristics from a ValleyInput."""
    a = consts.acceleration_from_gradient(vi.grad_q_ev_per_cm)
    if not math.isfinite(a):
        raise NumericalError(
            f"valley {vi.index}: acceleration_cm_s2 is {a!r}; the inputs "
            "overflow double precision")
    if vi.tau_s is not None:
        tau = vi.tau_s
    else:
        tau = collision_time(vi.v0_cm_per_s, a, vi.dy_cm)
        if tau == 0.0:
            raise NumericalError(
                f"valley {vi.index}: tau_s is 0.0; the inputs overflow or "
                "underflow double precision")
    delta_v = a * tau
    power_w = emission_power(consts, a)
    i0 = consts.larmor_prefactor * delta_v * delta_v
    energy_j, nu = photon_energy_frequency(consts, power_w, tau)
    step = SpectrumStep(
        valley=vi.index,
        grad_q_ev_per_cm=vi.grad_q_ev_per_cm,
        acceleration_cm_s2=a,
        tau_s=tau,
        delta_v_cm_s=delta_v,
        power_w=power_w,
        omega_c_hz=1.0 / tau,
        lambda_c_cm=consts.c_cm_s * tau,
        i0_ev_per_hz=i0,
        photon_energy_j=energy_j,
        photon_frequency_hz=nu,
    )
    for f in fields(step):
        value = getattr(step, f.name)
        if not math.isfinite(value):
            raise NumericalError(
                f"valley {vi.index}: {f.name} is {value!r}; the inputs "
                "overflow double precision")
    return step


# ---------------------------------------------------------------------------
# Overlap of initial and final electron states

@dataclass(frozen=True)
class OverlapInput:
    """Gaussian initial/final states: momentum kick over m, and width d."""

    delta_p_over_m_cm_s: float
    d_cm: float

    def __post_init__(self):
        if self.d_cm <= 0.0:
            raise ConfigError("d_cm must be positive")


@dataclass(frozen=True)
class OverlapResult:
    exponent_magnitude: float
    probability: float


def gaussian_overlap(consts: PhysicalConstants,
                     ov: OverlapInput) -> OverlapResult:
    """|<b|a>|^2 = exp(-(dp)^2 d^2 / (4 hbar^2)) for Gaussian states.

    The exponent is negative: an overlap probability cannot exceed one.
    For soft-photon recoils the exponent magnitude is ~1e-15 and the
    overlap is 1 to better than 1e-10, which is what justifies dropping
    the bracket from the power formula.
    """
    dp = consts.electron_mass * abs(ov.delta_p_over_m_cm_s)  # eV s / cm
    exponent = (dp * ov.d_cm) ** 2 / (4.0 * consts.hbar_ev_s**2)
    return OverlapResult(exponent_magnitude=exponent,
                         probability=math.exp(-exponent))


def angular_factor(theta: float) -> float:
    """Relative angular weight sin^2(theta) about the acceleration axis.

    The quantum force points along y only, so the emitted radiation
    carries the single transverse polarization and the dipole pattern.
    Integrates to 8 pi / 3 over the sphere.
    """
    if not 0.0 <= theta <= math.pi:
        raise NumericalError("theta must lie in [0, pi]")
    return math.sin(theta) ** 2


# ---------------------------------------------------------------------------
# Path integrals of the instantaneous power

@dataclass(frozen=True)
class RadiatedEnergy:
    """Trapezoidal integral of P(t) along a path, total and per valley."""

    total_j: float
    per_valley_j: dict[int, float]


def trajectory_radiated_energy(consts: PhysicalConstants, traj: Trajectory,
                               exp: SlitExperiment) -> RadiatedEnergy:
    """Energy radiated along a trajectory, in J.

    Integrates P(t) = (4/3)(alpha hbar/c^2) a(t)^2 over the recorded
    samples by the trapezoid rule, in per-valley partial sums keyed by the
    valley band of the instantaneous position: in the scaled fringe
    coordinate eta = |y| xi(t) / pi the k-th trough sits at eta = 2k - 1
    between crests at 2k - 2 and 2k, so band k covers eta in [2k-2, 2k);
    before fringes develop (xi -> 0) everything maps to band 1.  The
    total is the sum of the bands.
    """
    a = traj.ay_field
    if not np.all(np.isfinite(a)):
        raise NumericalError(
            "trajectory carries non-finite acceleration samples")
    p_ev_s = consts.larmor_prefactor * a * a
    xi = interference_wavenumber(exp, consts, traj.t_s)
    eta = np.abs(traj.y_cm) * xi / math.pi
    k = np.floor(eta / 2.0).astype(int) + 1
    # trapezoid weight of each sample: half of each adjacent interval
    dt = np.diff(traj.t_s)
    weight = 0.5 * (np.append(dt, 0.0) + np.insert(dt, 0, 0.0))
    band_j = np.bincount(k, weights=weight * p_ev_s) \
        * consts.electron_charge_c
    per_valley = {int(kk): float(band_j[kk])
                  for kk in np.flatnonzero(np.bincount(k))}
    return RadiatedEnergy(total_j=sum(per_valley.values()),
                          per_valley_j=per_valley)


# ---------------------------------------------------------------------------
# Ensemble (statistical) prediction

# Quadrature points of the ensemble mean over y in [-(Y + 8 sigma_t),
# Y + 8 sigma_t]; the probability mass outside is at most erfc(8/sqrt 2),
# about 1.2e-15.
ENSEMBLE_MEAN_POINTS = 2 ** 15 + 1


def ensemble_mean_gradient(exp: SlitExperiment, consts: PhysicalConstants,
                           t: float) -> float:
    """Quadrature of integral rho gradQ dy with rho = |psi|^2, in eV/cm.

    Vanishes (to quadrature accuracy) for any normalizable state: the
    statistical form of the pilot-wave prediction.  grad Q is odd in y, so
    it is computed on the y >= 0 half of the symmetric grid and mirrored,
    as in ``cross_section_scan``.
    """
    y_half_range_cm = exp.slit_half_separation_cm \
        + 8.0 * sigma_t(exp, consts, t)
    y = symmetric_grid(y_half_range_cm, ENSEMBLE_MEAN_POINTS)
    p = _psi_derivs(exp, consts, y, t)[0]
    rho = (p * p.conjugate()).real
    _, gq = _mirrored_q_grad_q(exp, consts, y, t)
    return float(np.trapezoid(rho * gq, y) / np.trapezoid(rho, y))


def ensemble_mean_power(exp: SlitExperiment, consts: PhysicalConstants,
                        t: float) -> float:
    """Statistical emission power over rho = |psi|^2, in W.

    The ensemble prediction is controlled by the mean quantum force,
    which integrates to zero; the returned power (the Larmor-like form
    evaluated on the mean gradient) vanishes to quadrature accuracy,
    matching the Copenhagen zero while individual trajectories radiate.
    """
    mean_grad = ensemble_mean_gradient(exp, consts, t)
    return emission_power_from_gradq(consts, abs(mean_grad))


# ---------------------------------------------------------------------------
# Simulation mode: valley inputs derived from the wavefield

# Valleys per side that simulation mode derives inputs for, as many as
# the paper quotes.
SIMULATION_VALLEYS = 4


def simulation_valley_inputs(exp: SlitExperiment, consts: PhysicalConstants,
                             scan: ScanResult) -> list[ValleyInput]:
    """Derive per-valley inputs from a ``cross_section_scan`` of the field.

    For each of the first SIMULATION_VALLEYS valleys of the scan on the
    positive side (innermost first) the wall gradient estimate and
    half-width come from the scan and the entry speed from the guidance
    velocity at the inner flanking crest, at the scan's time.  These feed
    the same closed-form chain as reproduction mode, but are held only to
    order-of-magnitude agreement with it.
    """
    out = []
    for v in scan.valleys:
        if v.y_min_cm <= 0.0 or v.index > SIMULATION_VALLEYS:
            continue
        inner_flank = v.y_left_cm  # nearer the axis for y_min > 0
        v0 = abs(velocity_field(exp, consts, inner_flank, scan.t_s))
        out.append(ValleyInput(
            grad_q_ev_per_cm=v.grad_estimate_ev_per_cm,
            v0_cm_per_s=v0,
            dy_cm=v.half_width_cm,
            index=v.index,
        ))
    if not out:
        raise NumericalError(
            f"no valleys detected at x = {scan.x_cm:g} cm; cannot derive "
            "simulation-mode inputs")
    return sorted(out, key=lambda vi: vi.index)
