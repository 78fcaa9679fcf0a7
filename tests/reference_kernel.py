"""Reference field kernel of the test suite: psi' to psi''' and A = |psi|^2.

The package takes Q and grad Q from the real closed form of psi'/psi.  This
module keeps the independent route: the first three complex y-derivatives
of the Gaussian sum psi = G(y - Y) + G(y + Y), G(u) = N exp(-g u^2),

    G'   = -2 g u G
    G''  = (4 g^2 u^2 - 2 g) G
    G''' = (12 g^2 u - 8 g^3 u^3) G,

and with A = R^2 = |psi|^2

    R''/R = A''/(2A) - A'^2/(4A^2)
    Q'    = -(hbar^2/4m) [A'''/A - 2 A''A'/A^2 + A'^3/A^3].

``q_grad_q`` evaluates this in float64 and returns NaN where R is at or
below 1e-12 of the packet peak scale 2|N|, where the amplitude nears
underflow; ``mp_q_grad_q`` evaluates the same formulas in 50-digit mpmath
arithmetic, which needs no floor.  Both share only the experiment's
parameters and the physical constants with the package.  ``field_scale``,
the shortest length scale of the field, sets the steps of the
finite-difference oracles.
"""

import math

import mpmath
import numpy as np

R_FLOOR_FRACTION = 1.0e-12


def _width_and_prefactor(exp, consts, t):
    """g = 1 / (4 sigma0^2 (1 + i b)) and N of one packet at time t."""
    s0 = exp.packet_width_cm
    b = consts.hbar_ev_s * np.asarray(t) / (2.0 * consts.electron_mass * s0**2)
    denom = 1.0 + 1j * b
    g = 1.0 / (4.0 * s0**2 * denom)
    n = (2.0 * math.pi * s0**2) ** -0.25 / np.sqrt(denom)
    return g, n


def psi_derivs(exp, consts, y, t, order=3):
    """psi and its first ``order`` y-derivatives, each shaped like y."""
    y = np.asarray(y, dtype=float)
    g, n = _width_and_prefactor(exp, consts, t)
    yy = exp.slit_half_separation_cm
    u1, u2 = y - yy, y + yy
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        g1 = n * np.exp(-g * u1 * u1)
        g2 = n * np.exp(-g * u2 * u2)
        out = [g1 + g2]
        if order >= 1:
            out.append(-2.0 * g * (u1 * g1 + u2 * g2))
        if order >= 2:
            out.append((4.0 * g * g * u1 * u1 - 2.0 * g) * g1
                       + (4.0 * g * g * u2 * u2 - 2.0 * g) * g2)
        if order >= 3:
            out.append((12.0 * g**2 * u1 - 8.0 * g**3 * u1**3) * g1
                       + (12.0 * g**2 * u2 - 8.0 * g**3 * u2**3) * g2)
    return out


def r_floor(exp, consts, t):
    """1e-12 of the packet peak scale 2 |N(t)|."""
    _, n = _width_and_prefactor(exp, consts, t)
    return R_FLOOR_FRACTION * 2.0 * np.abs(n)


def field_scale(exp, consts, t):
    """Shortest length scale of the field at time t, in cm, which sets the
    finite-difference steps: min(sigma_t, 1/xi), with the spread width
    sigma_t = sigma0 sqrt(1 + b^2) and the fringe wavenumber
    xi = Y b / (sigma0^2 (1 + b^2))."""
    s0 = exp.packet_width_cm
    b = consts.hbar_ev_s * t / (2.0 * consts.electron_mass * s0**2)
    xi = exp.slit_half_separation_cm * b / (s0**2 * (1.0 + b * b))
    s = s0 * np.hypot(1.0, b)
    return min(s, 1.0 / xi) if xi > 0.0 else s


def q_grad_q(exp, consts, y, t):
    """(Q, dQ/dy) in eV and eV/cm by the A formulas; NaN below the floor."""
    p, d1, d2, d3 = psi_derivs(exp, consts, y, t)
    pc = p.conjugate()
    a = (p * pc).real
    a1 = 2.0 * (pc * d1).real
    a2 = 2.0 * (pc * d2).real + 2.0 * (d1 * d1.conjugate()).real
    a3 = 2.0 * (pc * d3).real + 6.0 * (d1.conjugate() * d2).real
    k = consts.hbar_ev_s**2 / (2.0 * consts.electron_mass)
    with np.errstate(invalid="ignore", divide="ignore"):
        q = -k * (a2 / (2.0 * a) - a1 * a1 / (4.0 * a * a))
        gq = -0.5 * k * (a3 / a - 2.0 * a2 * a1 / (a * a) + (a1 / a) ** 3)
    above = a > r_floor(exp, consts, t) ** 2
    return np.where(above, q, np.nan), np.where(above, gq, np.nan)


def mp_q_grad_q(exp, consts, y: float, t: float, dps: int = 50):
    """(Q, dQ/dy) at one point by the A formulas at ``dps`` digits."""
    with mpmath.workdps(dps):
        s0 = mpmath.mpf(exp.packet_width_cm)
        yy = mpmath.mpf(exp.slit_half_separation_cm)
        m = mpmath.mpf(consts.electron_mass)
        hbar = mpmath.mpf(consts.hbar_ev_s)
        b = hbar * mpmath.mpf(t) / (2 * m * s0**2)
        g = 1 / (4 * s0**2 * mpmath.mpc(1, b))
        d0 = d1 = d2 = d3 = mpmath.mpc(0)
        for u in (mpmath.mpf(y) - yy, mpmath.mpf(y) + yy):
            e = mpmath.exp(-g * u * u)
            d0 += e
            d1 += -2 * g * u * e
            d2 += (4 * g * g * u * u - 2 * g) * e
            d3 += (12 * g**2 * u - 8 * g**3 * u**3) * e
        pc = mpmath.conj(d0)
        a = mpmath.re(d0 * pc)
        a1 = 2 * mpmath.re(pc * d1)
        a2 = 2 * mpmath.re(pc * d2) + 2 * mpmath.re(d1 * mpmath.conj(d1))
        a3 = 2 * mpmath.re(pc * d3) + 6 * mpmath.re(mpmath.conj(d1) * d2)
        k = hbar**2 / (2 * m)
        q = -k * (a2 / (2 * a) - a1 * a1 / (4 * a * a))
        gq = -k / 2 * (a3 / a - 2 * a2 * a1 / (a * a) + (a1 / a) ** 3)
        return float(q), float(gq)
