"""Closed-form CDF of |psi|^2 and the 1-D equivariance quantile map.

The benchmark's accuracy oracle.  It shares only the experiment's
parameters and the physical constants with the program under test; the
density, its CDF and the map are derived here independently.

For the two-Gaussian-slit state psi = G(y - Y, t) + G(y + Y, t) with
G(u, t) = N exp(-g u^2), g = 1 / (4 sigma0^2 (1 + i b)), the density is

    |psi|^2 / |N|^2 = exp(-(y - Y)^2 / (2 s^2)) + exp(-(y + Y)^2 / (2 s^2))
                      + 2 Re exp(-g (y - Y)^2 - conj(g) (y + Y)^2)

with s = sigma0 sqrt(1 + b^2).  Each direct term integrates to a real
erfc.  The cross term is a Gaussian with a complex centre, so it
integrates to an erf of complex argument (scipy.special.erf).

In one dimension, equivariance together with non-crossing trajectories
gives y(t) = F_t^-1(F_0(y0)), where F_t is the CDF of |psi(., t)|^2
(Duerr & Teufel, Bohmian Mechanics, 2009).  Finals are found by
bisection on the exact CDF.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf, erfc

# Half-width of the bisection bracket, in spread packet widths beyond
# the slit centre; the mass outside it is below 1e-30.
BRACKET_SIGMAS = 12.0
BISECTION_STEPS = 80
# Largest cross-term exponent Y^2 / (2 sigma0^2) for which erf of the
# complex argument stays inside double range.
MAX_SEPARATION_EXPONENT = 600.0


class DensityCDF:
    """Exact CDF of |psi(., t)|^2 for the two-slit setup at time t."""

    def __init__(self, exp, consts, t: float):
        s0 = exp.packet_width_cm
        self.half_sep = exp.slit_half_separation_cm
        if self.half_sep**2 / (2.0 * s0 * s0) > MAX_SEPARATION_EXPONENT:
            raise ValueError("slit separation too large for the closed form")
        b = consts.hbar_ev_s * t / (2.0 * consts.electron_mass * s0 * s0)
        g = 1.0 / (4.0 * s0 * s0 * (1.0 + 1j * b))
        self.spread = s0 * math.sqrt(1.0 + b * b)
        self.a = 2.0 * g.real
        c = g - g.conjugate()
        self.centre = self.half_sep * c / self.a
        self.cross_weight = math.exp(
            (self.half_sep**2 * c * c / self.a).real
            - self.a * self.half_sep**2)
        self.total = float(self._unnormalized(np.array([np.inf]))[0])

    def _unnormalized(self, y: np.ndarray) -> np.ndarray:
        s = math.sqrt(2.0) * self.spread
        direct = self.spread * math.sqrt(math.pi / 2.0) * (
            erfc(-(y - self.half_sep) / s) + erfc(-(y + self.half_sep) / s))
        with np.errstate(invalid="ignore"):
            z = math.sqrt(self.a) * (y - self.centre)
            ez = np.where(np.isinf(y), np.sign(y), erf(z))
        cross = self.cross_weight * math.sqrt(math.pi / self.a) \
            * (1.0 + ez).real
        return direct + cross

    def __call__(self, y) -> np.ndarray:
        return self._unnormalized(np.asarray(y, dtype=float)) / self.total

    def quantile(self, u) -> np.ndarray:
        """F^-1(u), vectorized over u in (0, 1), by bisection."""
        u = np.asarray(u, dtype=float)
        half = self.half_sep + BRACKET_SIGMAS * self.spread
        lo = np.full(u.shape, -half)
        hi = np.full(u.shape, half)
        for _ in range(BISECTION_STEPS):
            mid = 0.5 * (lo + hi)
            below = self(mid) < u
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)


def quantile_map(exp, consts, y0, t: float) -> np.ndarray:
    """Equivariant finals F_t^-1(F_0(y0)) of launches y0 at time t."""
    return DensityCDF(exp, consts, t).quantile(
        DensityCDF(exp, consts, 0.0)(y0))
