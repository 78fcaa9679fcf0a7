"""Physical constants and the unit conventions of the package.

Everything downstream works in CGS lengths/times with energies in eV:
lengths in cm, times in s, speeds in cm/s, accelerations in cm/s^2,
energies in eV, powers computed in eV/s and converted to W at the output
boundary.  Two constant presets are provided:

* ``paper``  -- the rounded constant set (hbar = 0.65e-15 eV s,
  mc^2 = 0.511e6 eV, c = 3e10 cm/s, alpha = 1/137) under which all the
  reference numbers in the reproduction suite were derived; they
  reproduce bit-for-bit only with this preset.
* ``modern`` -- CODATA-2018 values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class PhysicalConstants:
    """Immutable constant set. Values are positive by construction."""

    name: str
    hbar_ev_s: float              # reduced Planck constant (eV s)
    c_cm_s: float                 # speed of light (cm/s)
    electron_rest_energy_ev: float  # mc^2 (eV)
    alpha: float                  # fine-structure constant
    electron_charge_c: float      # elementary charge (C)
    planck_h_j_s: float           # Planck constant (J s)
    ev_to_joule: float            # 1 eV in J

    def __post_init__(self):
        for field in ("hbar_ev_s", "c_cm_s", "electron_rest_energy_ev",
                      "alpha", "electron_charge_c", "planck_h_j_s",
                      "ev_to_joule"):
            if getattr(self, field) <= 0.0:
                raise ConfigError(f"constant {field} must be positive")

    @property
    def electron_mass(self) -> float:
        """Electron mass m = mc^2 / c^2, in eV s^2/cm^2."""
        return self.electron_rest_energy_ev / self.c_cm_s**2

    @property
    def larmor_prefactor(self) -> float:
        """(4/3) alpha hbar / c^2, in eV s^3/cm^2.

        Multiplying by an acceleration squared (cm^2/s^4) gives an
        emission power in eV/s.
        """
        return (4.0 / 3.0) * self.alpha * self.hbar_ev_s / self.c_cm_s**2

    def acceleration_from_gradient(self, grad_q_ev_per_cm: float) -> float:
        """|a| = |grad Q| / m for a potential gradient in eV/cm -> cm/s^2."""
        return abs(grad_q_ev_per_cm) / self.electron_mass

    def speed_from_kinetic_energy(self, kinetic_energy_ev: float) -> float:
        """Non-relativistic speed from E = p^2/2m, in cm/s."""
        if kinetic_energy_ev < 0.0:
            raise ConfigError("kinetic energy must be non-negative")
        return self.c_cm_s * math.sqrt(
            2.0 * kinetic_energy_ev / self.electron_rest_energy_ev)


_PAPER = PhysicalConstants(
    name="paper",
    hbar_ev_s=0.65e-15,
    c_cm_s=3.0e10,
    electron_rest_energy_ev=0.511e6,
    alpha=1.0 / 137.0,
    electron_charge_c=1.6022e-19,
    planck_h_j_s=6.63e-34,
    ev_to_joule=1.6022e-19,
)

_MODERN = PhysicalConstants(
    name="modern",
    hbar_ev_s=6.582119569e-16,
    c_cm_s=2.99792458e10,
    electron_rest_energy_ev=0.51099895000e6,
    alpha=7.2973525693e-3,
    electron_charge_c=1.602176634e-19,
    planck_h_j_s=6.62607015e-34,
    ev_to_joule=1.602176634e-19,
)

_PRESETS = {"paper": _PAPER, "modern": _MODERN}


def constants(preset: str = "paper") -> PhysicalConstants:
    """Return one of the two named constant sets."""
    try:
        return _PRESETS[preset]
    except KeyError:
        raise ConfigError(
            f"unknown constants preset {preset!r}; expected one of "
            f"{sorted(_PRESETS)}") from None
