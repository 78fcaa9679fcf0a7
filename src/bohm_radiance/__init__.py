"""Two-slit electron interference: emission predictions at desk scale.

The free post-slit electron of standard quantum mechanics radiates
nothing; the same electron on a pilot-wave trajectory is accelerated by
the quantum potential and radiates a tiny, structured power.  This
package evaluates the two-Gaussian-slit wavefield, integrates the
trajectories, and computes both predictions with their per-valley step
spectra, current scaling, and detectability estimates.
"""

__version__ = "0.1.0"

from .errors import ConfigError, DomainError, NumericalError
from .units import PhysicalConstants, constants
from .wavefield import (
    SlitExperiment,
    Valley,
    amplitude_phase,
    cross_section_scan,
    grad_quantum_potential,
    jonsson_experiment,
    make_experiment,
    psi,
    quantum_potential,
)
from .trajectories import (
    EnsembleResult,
    Trajectory,
    bohmian_acceleration,
    integrate_trajectory,
    run_ensemble,
    velocity_field,
)
from .radiance import (
    OverlapInput,
    SpectrumStep,
    ValleyInput,
    angular_factor,
    collision_time,
    copenhagen_emission_power,
    emission_power,
    emission_power_from_gradq,
    ensemble_mean_power,
    gaussian_overlap,
    photon_energy_frequency,
    spectrum_step,
    trajectory_radiated_energy,
)
from .presets import (
    BeamCurrent,
    FluxComparison,
    beam_flux,
    cmbr_flux,
    current_scaled_power,
    jonsson_current,
    tonomura_current,
)

__all__ = [
    "__version__",
    "ConfigError", "DomainError", "NumericalError",
    "PhysicalConstants", "constants",
    "SlitExperiment", "Valley", "amplitude_phase", "cross_section_scan",
    "grad_quantum_potential", "jonsson_experiment", "make_experiment",
    "psi", "quantum_potential",
    "EnsembleResult", "Trajectory", "bohmian_acceleration",
    "integrate_trajectory", "run_ensemble", "velocity_field",
    "OverlapInput", "SpectrumStep", "ValleyInput", "angular_factor",
    "collision_time", "copenhagen_emission_power", "emission_power",
    "emission_power_from_gradq", "ensemble_mean_power", "gaussian_overlap",
    "photon_energy_frequency", "spectrum_step", "trajectory_radiated_energy",
    "BeamCurrent", "FluxComparison", "beam_flux", "cmbr_flux",
    "current_scaled_power", "jonsson_current", "tonomura_current",
]
