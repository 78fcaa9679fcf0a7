"""Bohmian trajectories under the guidance law of the two-slit field.

A trajectory moves with the guidance velocity v(y, t) = (hbar/m)
Im(psi'/psi) at its position and is accelerated by the quantum force
a(y, t) = -(1/m) dQ/dy.  Both are closed forms owned by ``wavefield``;
this module integrates dy/dt = v, for one path and for ensembles, with
one adaptive Dormand-Prince 5(4) stepper, ``transport``.  Integrating
and then differentiating the recorded velocity numerically must
reproduce a(y(t), t) along the path; both channels are recorded so that
the consistency is a checkable property of every integration, not an
assumption.

For t >= 0 psi has no zero, so the velocity is finite for every finite y
and a path is integrated to t_end wherever it goes: through the node
floor, between the slits and far in the tails.  Paths keep to their side
of the symmetry axis, except that a launch between the slits collapses
onto the axis: once |y| has fallen below about 1e-14 cm its sign changes
by round-off.

In ``transport`` every lane (trajectory) keeps its own time, step size
and error norm, so a lane crossing a valley wall does not shrink the
steps of the others.  Many lanes are stepped on arrays; one lane, which
is what a single path is, is stepped on Python floats in the same
operations, so a path equals its lane in any batch bit for bit.  A lane
whose step collapses, or that needs more right-hand-side evaluations
than ``PATH_RHS_BUDGET``, fails alone and comes back NaN; a single path
raises instead.  Ensembles are sampled from |psi(y, 0)|^2 by inverse-CDF
lookup on a dense grid (deterministic for a fixed seed).  Equivariance is
quantified by the Kolmogorov-Smirnov distance between the final
empirical distribution and |psi(y, t_end)|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import wavefield
from .errors import ConfigError, NumericalError
from .units import PhysicalConstants
from .wavefield import SlitExperiment, _psi_derivs, sigma_t

DEFAULT_TOL = 1.0e-9
# Right-hand-side calls after which a single path or an ensemble lane
# fails: 38x the most that a default-geometry path needs (5,276, at tol
# 1e-12).  A launch between widely separated slits collapses onto the
# axis, where the flow is stiff and the explicit steps shrink to ~1e-17 s.
PATH_RHS_BUDGET = 200_000
# Samples on the recording grid of a single path.
DEFAULT_PATH_SAMPLES = 4096
CDF_GRID_POINTS = 2 ** 16
# Half-range of sampling/comparison grids, in packet widths beyond the slit.
GRID_PADDING_SIGMAS = 10.0
# The Dormand-Prince 5(4) tableau of transport (Hairer, Norsett & Wanner,
# Solving ODEs I, sec. II.4): nodes C, stage matrix A, weights B, error
# weights E, dense-output matrix P and the error estimator's order.  A
# test pins them to scipy's RK45 bit for bit.
C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
              1/40])
P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
ERROR_ESTIMATOR_ORDER = 4
# Step-size control of transport under this tableau, as scipy's RK45
# applies it to one path.
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
# Samples per block when a recorded path's velocity and field acceleration
# are evaluated.  Whole 262,144-sample arrays make every temporary of
# _q_grad_q 2 MB, out of cache: on them it took 51-65 ms, and 32-43 /
# 24-25 / 23-26 / 23.5 / 40-41 ms in blocks of 2**11 / 2**12 / 2**13 /
# 2**14 / 2**16 (medians of 11, two tries; 2 cores, Python 3.11.7,
# NumPy 2.4.6).  Every element sees the same operations, so the bits do
# not depend on the block size.
RECORD_BLOCK = 2 ** 14


def absolute_tolerance(exp: SlitExperiment, tol: float) -> float:
    """The atol of both integrators for rtol = ``tol``: tol packet widths.

    It does not depend on the launch, so a single path and its lane in
    ``transport`` are held to the same error contract.
    """
    return tol * exp.packet_width_cm


def solve_ivp(fun, t_span, y0, **options):
    """``scipy.integrate.solve_ivp``, imported on the first call.

    No module of the package calls it: it stays only because the
    benchmark harness traces this name, until its counters move to
    ``transport`` (ROADMAP item 1).
    """
    import scipy.integrate
    return scipy.integrate.solve_ivp(fun, t_span, y0, **options)


@dataclass
class Trajectory:
    """A time-sampled path with velocity and both acceleration channels.

    ay_field is -(dQ/dy)/m evaluated at the sample; ay_numeric is the
    numerical time derivative of vy on the recording grid.  x(t) = v_x t,
    with v_x the forward speed of the experiment.
    """

    t_s: np.ndarray
    y_cm: np.ndarray
    vy_cm_s: np.ndarray
    ay_field: np.ndarray
    ay_numeric: np.ndarray
    # Always False and None: they stay only because the benchmark harness
    # reads them, until its counters move to ``transport`` (ROADMAP item 1).
    halted: bool = False
    halt_reason: str | None = None


def integrate_trajectory(exp: SlitExperiment, consts: PhysicalConstants,
                         y0: float, t_end: float, tol: float = DEFAULT_TOL,
                         n_samples: int = DEFAULT_PATH_SAMPLES
                         ) -> Trajectory:
    """Integrate dy/dt = v(y, t) from (y0, 0) to t_end.

    The path is ``transport``'s one lane, recorded on a uniform grid of
    n_samples >= 3 points from 0 to t_end: its samples equal the lane's
    row in any batch, bit for bit, under rtol = ``tol`` and the atol of
    ``absolute_tolerance``.  Any finite nonzero y0 is accepted: the
    velocity comes from psi'/psi, which stays finite where |psi| is below
    the node floor, as in the tails and between the slits.  The recorded
    v and a come from the array form of the closed form, block by block.
    A path that needs more than ``PATH_RHS_BUDGET`` right-hand-side
    evaluations, or whose step collapses, raises NumericalError.
    """
    if not math.isfinite(y0):
        raise ConfigError("y0 must be finite")
    if y0 == 0.0:
        raise ConfigError("y0 must be nonzero (the axis itself is a "
                          "stationary solution)")
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ConfigError("t_end must be positive and finite")
    if n_samples < 3:
        raise ConfigError("n_samples must be >= 3, so that ay_numeric is "
                          "a derivative")
    t = np.linspace(0.0, t_end, n_samples)
    y = _transport_lane(exp, consts, y0, t_end, tol, t)
    v = np.empty_like(y)
    a_field = np.empty_like(y)
    for start in range(0, len(t), RECORD_BLOCK):
        block = slice(start, start + RECORD_BLOCK)
        v[block], a_field[block] = wavefield._velocity_acceleration(
            exp, consts, y[block], t[block])
    a_numeric = np.gradient(v, t)
    return Trajectory(
        t_s=t,
        y_cm=y,
        vy_cm_s=v,
        ay_field=a_field,
        ay_numeric=a_numeric,
    )


# ---------------------------------------------------------------------------
# Ensembles

@dataclass
class EnsembleResult:
    """Initial/final positions of a |psi|^2-sampled ensemble.

    ``valid`` is False when more than 1% of the trajectories failed to
    propagate (non-finite finals).
    """

    n: int
    seed: int
    t_end_s: float
    initial_positions_cm: np.ndarray
    final_positions_cm: np.ndarray
    ks_statistic: float
    n_failed: int
    valid: bool


def _density_grid(exp: SlitExperiment, consts: PhysicalConstants, t: float):
    """Dense y grid and normalized CDF of |psi(y, t)|^2."""
    half = exp.slit_half_separation_cm \
        + GRID_PADDING_SIGMAS * sigma_t(exp, consts, t)
    y = np.linspace(-half, half, CDF_GRID_POINTS)
    p = _psi_derivs(exp, consts, y, t)[0]
    pdf = (p * p.conjugate()).real
    # cumulative trapezoid rule, in scipy's cumulative_trapezoid arithmetic
    cdf = np.concatenate(
        [[0.0], np.cumsum(np.diff(y) * (pdf[1:] + pdf[:-1]) / 2.0)])
    total = cdf[-1]
    if total <= 0.0:
        raise NumericalError("density integrates to zero on the grid")
    return y, cdf / total


def sample_initial_positions(exp: SlitExperiment, consts: PhysicalConstants,
                             n: int, seed: int) -> np.ndarray:
    """n draws from |psi(y, 0)|^2 by inverse-CDF lookup (deterministic)."""
    y, cdf = _density_grid(exp, consts, 0.0)
    u = np.random.default_rng(seed).random(n)
    return np.interp(u, cdf, y)


def ks_statistic_against_density(exp: SlitExperiment,
                                 consts: PhysicalConstants,
                                 positions: np.ndarray, t: float) -> float:
    """One-sample Kolmogorov-Smirnov distance to |psi(y, t)|^2."""
    y, cdf = _density_grid(exp, consts, t)
    xs = np.sort(positions)
    f = np.interp(xs, y, cdf)
    n = len(xs)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


def _lane_sum(coeffs, k):
    """sum_j coeffs[j] k[j], elementwise, skipping zero coefficients.

    Unlike a BLAS product, each lane's value depends on that lane alone,
    so a lane's path does not change with the other lanes of the call.
    """
    return sum(c * kj for c, kj in zip(coeffs, k) if c != 0.0)


def _initial_step(rhs, y0, f0, t_end, rtol, atol):
    """scipy's ``select_initial_step`` from t = 0, one value per lane.

    Its exponent takes ``ERROR_ESTIMATOR_ORDER`` of the module tableau,
    which a test pins to scipy's RK45.
    """
    scale = atol + np.abs(y0) * rtol
    d0 = np.abs(y0 / scale)
    d1 = np.abs(f0 / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, t_end)
        f1 = rhs(h0, y0 + h0 * f0)
        d2 = np.abs((f1 - f0) / scale) / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15),
                      np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(d1, d2))
                      ** (1.0 / (ERROR_ESTIMATOR_ORDER + 1)))
    return np.minimum(np.minimum(100.0 * h0, h1), t_end)


# The tableau rows of transport as (Python float, stage) pairs without
# the zero coefficients, so that a sum over one row adds the terms that
# _lane_sum adds, in its order.
_A_ROWS = [[(float(c), j) for j, c in enumerate(A[s, :s]) if c != 0.0]
           for s in range(len(C))]
_B_ROW, _E_ROW = ([(float(c), j) for j, c in enumerate(w) if c != 0.0]
                  for w in (B, E))


def _row_sum(row, k):
    """``_lane_sum`` of one lane, over (coefficient, stage) pairs."""
    return sum(c * k[j] for c, j in row)


def _minimum(a, b):
    """np.minimum of two floats: NaN if either is NaN."""
    return a if a <= b or a != a else b


def _maximum(a, b):
    """np.maximum of two floats: NaN if either is NaN."""
    return a if a >= b or a != a else b


def _initial_step_of_lane(rhs, y0, f0, t_end, rtol, atol):
    """``_initial_step`` of one lane, on Python floats, with its bits."""
    scale = atol + abs(y0) * rtol
    d0 = abs(y0 / scale)
    d1 = abs(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = _minimum(h0, t_end)
    f1 = rhs(h0, y0 + h0 * f0)
    d2 = abs((f1 - f0) / scale)
    d2 = d2 / h0 if h0 != 0.0 else (math.inf if d2 else math.nan)
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = _maximum(1e-6, h0 * 1e-3)
    else:
        h1 = float(np.power(0.01 / _maximum(d1, d2),
                            1.0 / (ERROR_ESTIMATOR_ORDER + 1)))
    return _minimum(_minimum(100.0 * h0, h1), t_end)


def _transport_lane(exp: SlitExperiment, consts: PhysicalConstants,
                    y0: float, t_end: float, tol: float,
                    t_eval: np.ndarray) -> np.ndarray:
    """``transport`` of one lane, stepped on Python floats.

    Per step, numpy's per-call cost on one-element arrays exceeds the
    arithmetic, so the lane's time, position, stages and step control
    are Python floats.  Every operation is transport's, in its order:
    the float branch of ``_closed_form_args`` and ``np.power`` are the
    ufuncs' bits, and the Horner dense output runs once, on arrays, over
    the accepted steps.  So the row equals the lane's row in any batch,
    bit for bit.  Where transport would fail the lane, this raises
    NumericalError naming the launch.
    """
    # a NumPy scalar among them would send the field to its array branch
    y0, t_end, rtol = float(y0), float(t_end), float(tol)
    atol = absolute_tolerance(exp, rtol)

    def rhs(t, y):
        return wavefield._velocity_of(
            exp, consts, wavefield._closed_form_args(exp, consts, y, t))

    exponent = -1.0 / (ERROR_ESTIMATOR_ORDER + 1)
    nodes = C.tolist()
    t, y = 0.0, y0
    f = rhs(t, y)
    h_abs = _initial_step_of_lane(rhs, y, f, t_end, rtol, atol)
    rejected = False
    nfev = 2
    steps = []  # (t, t_new, h, y, k) of each accepted step
    while True:
        min_step = 10.0 * abs(math.nextafter(t, math.inf) - t)
        if not rejected:
            h_abs = _maximum(h_abs, min_step)
        if nfev > PATH_RHS_BUDGET:
            raise NumericalError(
                f"trajectory from y0 = {y0!r} cm: {PATH_RHS_BUDGET} "
                f"right-hand-side evaluations reached only t = {t:.6g} s "
                f"of {t_end:.6g} s")
        if not h_abs >= min_step:
            raise NumericalError(
                f"trajectory from y0 = {y0!r} cm: the step fell below 10 "
                f"ulp of t = {t:.6g} s")
        if not t < t_end:
            break

        t_new = _minimum(t + h_abs, t_end)
        h = t_new - t
        k = [f]
        for s in range(1, len(nodes)):
            k.append(rhs(t + nodes[s] * h, y + _row_sum(_A_ROWS[s], k) * h))
        y_new = y + h * _row_sum(_B_ROW, k)
        k.append(rhs(t_new, y_new))
        nfev += len(nodes)
        scale = atol + _maximum(abs(y), abs(y_new)) * rtol
        err = abs(_row_sum(_E_ROW, k) * h / scale)
        factor = SAFETY * float(np.power(err, exponent)) if err else math.inf
        if err < 1.0:
            factor = _minimum(MAX_FACTOR, factor)
            if rejected:
                factor = _minimum(1.0, factor)
            steps.append((t, t_new, h, y, k))
            t, y, f = t_new, y_new, k[-1]
            rejected = False
        else:
            # a non-finite error norm is a reject at the smallest factor
            factor = factor if factor > MIN_FACTOR else MIN_FACTOR
            rejected = True
        h_abs = h * factor

    # t_eval points in (t, t_new] of each step from its interpolant, as
    # transport takes them
    t0, t1, h, y, k = (np.array(v) for v in zip(*steps))
    counts = np.diff(np.searchsorted(t_eval, t1, side="right"), prepend=0)
    at = np.repeat(np.arange(len(steps)), counts)
    x = (t_eval - t0[at]) / h[at]
    kd = list(k.T)
    poly = 0.0
    for m in reversed(range(P.shape[1])):
        poly = (poly + _lane_sum(P[:, m], kd)[at]) * x
    return h[at] * poly + y[at]


def transport(exp: SlitExperiment, consts: PhysicalConstants,
              y0: np.ndarray, t_end: float, tol: float = DEFAULT_TOL,
              t_eval: np.ndarray | None = None) -> np.ndarray:
    """Integrate many trajectories, each lane with its own step size.

    A vectorized Dormand-Prince 5(4) stepper (Hairer, Norsett & Wanner,
    Solving ODEs I, sec. II.4) gives every lane its own time, step and
    error norm, under the module's tableau (``A``, ``B``, ``C``, ``E``,
    ``P``; a test pins it to scipy's RK45) and scipy's step-size
    controller, so rtol = ``tol`` and the atol of ``absolute_tolerance``
    mean what they mean for one path.  A lane that reaches t_end leaves
    the active set.  A lane whose step falls below 10 ulp of its time, or
    whose right-hand-side evaluations pass ``PATH_RHS_BUDGET`` (counted as
    scipy counts them: 2 to start, ``len(C)`` per attempted step), fails
    alone: its row is NaN.  The right-hand side is the real psi'/psi form of
    the guidance velocity, so lanes far in the tails propagate like a
    single packet.  A call with one lane takes ``_transport_lane``, the
    same steps on Python floats, which gives the same row.

    Returns positions of shape (len(y0), len(t_eval)), filled from each
    lane's dense output; t_eval defaults to the single point t_end.
    Order follows y0, and a lane's row does not depend on the other
    lanes, so results replay bitwise.
    """
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ConfigError("t_end must be positive and finite")
    t_eval = np.array([t_end]) if t_eval is None \
        else np.asarray(t_eval, dtype=float)
    if t_eval.ndim != 1 or np.any(np.diff(t_eval) < 0.0) \
            or np.any((t_eval < 0.0) | (t_eval > t_end)):
        raise ConfigError("t_eval must be sorted and within [0, t_end]")
    y = np.array(y0, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ConfigError("y0 must be finite")
    out = np.full((len(y), len(t_eval)), np.nan)
    if len(y) == 1:
        try:
            out[0] = _transport_lane(exp, consts, y[0], t_end, tol, t_eval)
        except NumericalError:
            pass
        return out
    rtol, atol = tol, absolute_tolerance(exp, tol)

    def rhs(t, y):
        return wavefield._velocity_of(
            exp, consts, wavefield._closed_form_args(exp, consts, y, t))

    exponent = -1.0 / (ERROR_ESTIMATOR_ORDER + 1)
    lane = np.arange(len(y))
    t = np.zeros(len(y))
    f = rhs(t, y)
    h_abs = _initial_step(rhs, y, f, t_end, rtol, atol)
    rejected = np.zeros(len(y), dtype=bool)
    filled = np.zeros(len(y), dtype=int)  # next t_eval index per lane
    # every lane still running attempts one step per pass, so the lanes
    # share one count: f and the initial step's probe, then len(C) a step
    nfev = 2
    while True:
        # a new step starts at no less than 10 ulp of t; a lane whose
        # rejected step shrank below that (or is NaN), or whose last step
        # passed the budget, fails
        min_step = 10.0 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = np.where(rejected, h_abs, np.maximum(h_abs, min_step))
        alive = (h_abs >= min_step) & (nfev <= PATH_RHS_BUDGET)
        out[lane[~alive]] = np.nan
        running = alive & (t < t_end)
        lane, t, y, f, h_abs, rejected, filled = (
            v[running] for v in (lane, t, y, f, h_abs, rejected, filled))
        if not lane.size:
            return out

        t_new = np.minimum(t + h_abs, t_end)
        h = t_new - t
        k = [f]
        for s in range(1, len(C)):
            k.append(rhs(t + C[s] * h, y + _lane_sum(A[s, :s], k) * h))
        y_new = y + h * _lane_sum(B, k)
        k.append(rhs(t_new, y_new))
        nfev += len(C)
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        err = np.abs(_lane_sum(E, k) * h / scale)
        accept = err < 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = SAFETY * err ** exponent  # inf at err == 0
        # a non-finite error norm is a reject at the smallest factor, and
        # a step accepted after a reject may not grow
        factor = np.where(accept, np.minimum(MAX_FACTOR, factor),
                          np.fmax(MIN_FACTOR, factor))
        factor = np.where(accept & rejected, np.minimum(1.0, factor), factor)
        h_abs = h * factor

        # t_eval points in (t, t_new] from this step's interpolant
        stop = np.searchsorted(t_eval, t_new, side="right")
        dense = np.flatnonzero(accept & (stop > filled))
        if dense.size:
            counts = stop[dense] - filled[dense]
            at = np.repeat(np.arange(dense.size), counts)
            cols = filled[dense][at] + np.arange(counts.sum()) \
                - (np.cumsum(counts) - counts)[at]
            rows = dense[at]
            x = (t_eval[cols] - t[rows]) / h[rows]
            # y + h sum_m Q_m x^(m+1) with Q = K^T P, by Horner's rule
            kd = [kj[dense] for kj in k]
            poly = 0.0
            for m in reversed(range(P.shape[1])):
                poly = (poly + _lane_sum(P[:, m], kd)[at]) * x
            out[lane[rows], cols] = h[rows] * poly + y[rows]
            filled[dense] = stop[dense]

        t = np.where(accept, t_new, t)
        y = np.where(accept, y_new, y)
        f = np.where(accept, k[-1], f)
        rejected = ~accept


def run_ensemble(exp: SlitExperiment, consts: PhysicalConstants,
                 n: int, seed: int, t_end: float,
                 tol: float = DEFAULT_TOL) -> EnsembleResult:
    """Transport a |psi|^2 ensemble to t_end and test equivariance.

    Lanes are stepped independently by ``transport``; results are indexed
    in draw order, so a fixed seed reproduces final positions bitwise.  A
    lane that fails to propagate (its step collapses, or it passes
    ``PATH_RHS_BUDGET``) comes back NaN and is counted in ``n_failed``;
    the KS distance is taken over the finite finals, and an ensemble with
    none raises NumericalError.
    """
    if n < 100:
        raise ConfigError("ensemble size must be >= 100")
    y0 = sample_initial_positions(exp, consts, n, seed)
    finals = transport(exp, consts, y0, t_end, tol=tol)[:, -1]
    finite = np.isfinite(finals)
    n_failed = int(n - finite.sum())
    if n_failed == n:
        raise NumericalError(f"all {n} trajectories failed to propagate")
    valid = n_failed <= 0.01 * n
    ks = ks_statistic_against_density(exp, consts, finals[finite], t_end)
    return EnsembleResult(
        n=n,
        seed=seed,
        t_end_s=t_end,
        initial_positions_cm=y0,
        final_positions_cm=finals,
        ks_statistic=ks,
        n_failed=n_failed,
        valid=valid,
    )
