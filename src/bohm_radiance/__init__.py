"""Two-slit electron interference: emission predictions at desk scale.

The free post-slit electron of standard quantum mechanics radiates
nothing; the same electron on a pilot-wave trajectory is accelerated by
the quantum potential and radiates a tiny, structured power.  This
package evaluates the two-Gaussian-slit wavefield, integrates the
trajectories, and computes both predictions with their per-valley step
spectra, current scaling, and detectability estimates.
"""

__version__ = "0.1.0"
