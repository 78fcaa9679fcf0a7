import dataclasses

import pytest

from bohm_radiance.errors import ConfigError
from bohm_radiance.units import constants


def test_paper_preset_exact_values(paper):
    assert paper.hbar_ev_s == 0.65e-15
    assert paper.electron_rest_energy_ev == 0.511e6
    assert paper.c_cm_s == 3.0e10
    assert paper.alpha == 1.0 / 137.0
    assert paper.electron_charge_c == 1.6022e-19
    assert paper.planck_h_j_s == 6.63e-34


def test_modern_preset_values(modern):
    assert modern.hbar_ev_s == 6.582119569e-16
    assert modern.c_cm_s == 2.99792458e10
    assert modern.alpha == pytest.approx(1.0 / 137.035999084, rel=1e-9,
                                         abs=0.0)
    assert modern.planck_h_j_s == 6.62607015e-34


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        constants("codata1986")


def test_constants_immutable(paper):
    with pytest.raises(dataclasses.FrozenInstanceError):
        paper.alpha = 1.0


def test_larmor_prefactor_paper_value(paper):
    # (4/3) alpha hbar / c^2 printed to three significant figures
    assert paper.larmor_prefactor == pytest.approx(7.03e-39, rel=5e-4, abs=0.0)


def test_derived_mass_and_acceleration(paper):
    assert paper.electron_mass == pytest.approx(0.511e6 / 9.0e20, rel=1e-12,
                                                abs=0.0)
    assert paper.acceleration_from_gradient(3.06) == pytest.approx(
        5.39e15, rel=1e-3, abs=0.0)


def test_speed_from_kinetic_energy(paper):
    v = paper.speed_from_kinetic_energy(45.0e3)
    # v/c = sqrt(2 * 45e3 / 511e3)
    assert v / paper.c_cm_s == pytest.approx((2 * 45e3 / 0.511e6) ** 0.5,
                                             rel=1e-12, abs=0.0)
    with pytest.raises(ConfigError):
        paper.speed_from_kinetic_energy(-1.0)
