"""Experimental presets: beam currents, current scaling, detectability.

Two realized experiments anchor the current scale:

* Tonomura-type: 1e3 electrons/s (1.6e-16 A), single-electron regime --
  successive electrons are ~150 km apart, so the per-trajectory powers
  apply directly.  This is the reference rate for all quoted powers.
* Jonsson-type: current density 30 mA/cm^2 through two 0.3 um x 50 um
  slits, about 5.6e10 electrons/s.  Radiated power scales linearly with
  the current, lifting the per-valley powers by ~5.6e7.

For detectability the scaled beam power over the patch it illuminates
(one fringe wide, ten fringes tall) is compared against the cosmic
microwave background flux sigma T^4 at T = 2.73 K.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .radiance import ValleyInput
from .units import PhysicalConstants

# Reference rate at which the per-trajectory powers are quoted (e-/s).
TONOMURA_RATE_E_PER_S = 1.0e3

# Jonsson beam parameters: current density and per-slit aperture.
JONSSON_CURRENT_DENSITY_MA_CM2 = 30.0
JONSSON_SLIT_WIDTH_CM = 0.3e-4
JONSSON_SLIT_HEIGHT_CM = 50.0e-4

# Stefan-Boltzmann constant (W m^-2 K^-4) and the CMB temperature; the
# modern constant is used under both presets.
STEFAN_BOLTZMANN_W_M2_K4 = 5.670374e-8
CMBR_TEMPERATURE_K = 2.73

# Detectability patch: one fringe separation wide (7000 angstrom) and ten
# separations tall.
PATCH_WIDTH_M = 7.0e-7
PATCH_HEIGHT_M = 7.0e-6

# Published flux the derived value is reported against; the derived
# number is about twice this and the gap is flagged in outputs because
# the patch arithmetic behind the published figure is not reproducible.
REFERENCE_BEAM_FLUX_W_M2 = 1.85e-6
BEAM_FLUX_DISCREPANCY_NOTE = (
    "derived beam flux (power / patch area) is about twice the published "
    "1.85e-6 W/m^2; the patch arithmetic behind the published figure is "
    "not reproducible from the stated patch dimensions")

# Reproduction-mode valley inputs: wall gradients (eV/cm) and traversal
# times (s) as quoted for the section at 18 cm, entry speed 1.5e4 cm/s.
VALLEY_ENTRY_SPEED_CM_S = 1.5e4
PAPER_VALLEY_INPUTS: tuple[ValleyInput, ...] = (
    ValleyInput(grad_q_ev_per_cm=9.66, v0_cm_s=VALLEY_ENTRY_SPEED_CM_S,
                tau_s=2.8e-11, index=1),
    ValleyInput(grad_q_ev_per_cm=3.06, v0_cm_s=VALLEY_ENTRY_SPEED_CM_S,
                tau_s=7.01e-11, index=2),
    ValleyInput(grad_q_ev_per_cm=0.93, v0_cm_s=VALLEY_ENTRY_SPEED_CM_S,
                tau_s=1.02e-10, index=3),
    ValleyInput(grad_q_ev_per_cm=0.8, v0_cm_s=VALLEY_ENTRY_SPEED_CM_S,
                tau_s=1.09e-10, index=4),
)

# Published current-scaled power for valley 4 prints a value ten times
# below what linear current scaling gives; outputs carry the consistent
# value and flag the row.
ROW4_SCALING_NOTE = (
    "published current-scaled power for valley 4 (1.25e-20 W) is ten "
    "times below the linear-scaling result; the scaling-consistent value "
    "is reported")


@dataclass(frozen=True)
class BeamCurrent:
    """A beam current, as an electron rate and in amperes."""

    electrons_per_second: float
    amperes: float

    def __post_init__(self):
        if self.electrons_per_second < 0.0 or self.amperes < 0.0:
            raise ConfigError("beam current must be non-negative")


def tonomura_current(consts: PhysicalConstants) -> BeamCurrent:
    """The 1e3 e-/s single-electron-regime reference current."""
    return BeamCurrent(
        electrons_per_second=TONOMURA_RATE_E_PER_S,
        amperes=TONOMURA_RATE_E_PER_S * consts.electron_charge_c,
    )


def jonsson_current(consts: PhysicalConstants) -> BeamCurrent:
    """Total electron rate j * S through the two Jonsson apertures."""
    area_cm2 = 2 * JONSSON_SLIT_WIDTH_CM * JONSSON_SLIT_HEIGHT_CM
    amperes = JONSSON_CURRENT_DENSITY_MA_CM2 * 1.0e-3 * area_cm2
    rate = amperes / consts.electron_charge_c
    return BeamCurrent(electrons_per_second=rate, amperes=amperes)


def current_scaled_power(p_single_w: float, current: BeamCurrent) -> float:
    """Scale a power quoted at the reference rate linearly in the current."""
    if p_single_w < 0.0:
        raise ConfigError("power must be non-negative")
    return p_single_w * current.electrons_per_second / TONOMURA_RATE_E_PER_S


def cmbr_flux() -> float:
    """Stefan-Boltzmann flux sigma T^4 at the CMB temperature, in W/m^2."""
    return STEFAN_BOLTZMANN_W_M2_K4 * CMBR_TEMPERATURE_K**4


@dataclass(frozen=True)
class FluxComparison:
    """Beam flux over a screen patch next to the CMB yardstick."""

    beam_flux_w_m2: float
    cmbr_flux_w_m2: float
    patch_width_m: float
    patch_height_m: float

    def __post_init__(self):
        if min(self.beam_flux_w_m2, self.cmbr_flux_w_m2) < 0.0:
            raise ConfigError("fluxes must be non-negative")
        if min(self.patch_width_m, self.patch_height_m) <= 0.0:
            raise ConfigError("patch dimensions must be positive")


def beam_flux(power_w: float) -> FluxComparison:
    """Flux of a radiated power spread over the screen patch, vs CMB."""
    if power_w < 0.0:
        raise ConfigError("power must be non-negative")
    flux = power_w / (PATCH_WIDTH_M * PATCH_HEIGHT_M)
    return FluxComparison(
        beam_flux_w_m2=flux,
        cmbr_flux_w_m2=cmbr_flux(),
        patch_width_m=PATCH_WIDTH_M,
        patch_height_m=PATCH_HEIGHT_M,
    )
