"""Bohmian trajectories under the guidance law of the two-slit field.

A trajectory moves with the guidance velocity v(y, t) = (hbar/m)
Im(psi'/psi) at its position and is accelerated by the quantum force
a(y, t) = -(1/m) dQ/dy.  Both are closed forms owned by ``wavefield``;
this module integrates dy/dt = v, for one path and for ensembles, with
one adaptive Dormand-Prince 5(4) step, ``_step``.  Integrating and then
differentiating the recorded velocity numerically must reproduce
a(y(t), t) along the path; both channels are recorded so that the
consistency is a checkable property of every integration, not an
assumption.

For t >= 0 psi has no zero, so the velocity is finite for every finite y
and a path is integrated to t_end wherever it goes: through the node
floor, between the slits and far in the tails.  Paths keep to their side
of the symmetry axis, except that a launch between the slits collapses
onto the axis: once |y| has fallen below about 1e-14 cm its sign changes
by round-off.

In ``transport`` every lane (trajectory) keeps its own time, step size
and error norm, so a lane crossing a valley wall does not shrink the
steps of the others.  Both steppers take ``_step`` and, after the loop,
fill their recording from the accepted steps by ``_dense_output``:
``transport`` on arrays, for ensembles, and ``_transport_lane`` on
Python floats, for a single path, where NumPy's per-call cost on
one-element arrays would exceed the arithmetic.  So a path equals its
lane in any batch bit for bit.  A lane whose step collapses, or that
needs more right-hand-side evaluations than ``PATH_RHS_BUDGET``, fails
alone and comes back NaN; a single path raises instead.  Ensembles are
sampled from |psi(y, 0)|^2 by inverse-CDF lookup on a dense grid
(deterministic for a fixed seed).  Equivariance is quantified by the
Kolmogorov-Smirnov distance between the final empirical distribution and
|psi(y, t_end)|^2.
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
# The first trial step in units of the spreading time t_b (2.14e-11 s,
# 7.7e-3 of the flight, at the default geometry; see ``first_step``).
# Chosen on the 1,140,000 lanes of scripts/lane_sweep.py at tol 1e-9
# from 0.05 to 0.8: only 0.4 and 0.45 left no more lanes above 1e-6,
# 1e-5 and 1e-4 fringe spacings off the exact quantile map than scipy's
# initial-step heuristic (503 / 39 / 4), and 0.45 the fewest
# (313 / 19 / 0).  The counts are not monotone in the fraction.
FIRST_STEP_FRACTION = 0.45
# Points per block when a recording is interpolated, and when a path's
# velocity and field acceleration are evaluated.  Whole 262,144-sample
# arrays make every temporary of _q_grad_q_of 2 MB, out of cache: on them it
# took 51-65 ms, and 32-43 / 24-25 / 23-26 / 23.5 / 40-41 ms in blocks of
# 2**11 / 2**12 / 2**13 / 2**14 / 2**16 (medians of 11, two tries; 2
# cores, Python 3.11.7, NumPy 2.4.6).  Every element sees the same
# operations, so the bits do not depend on the block size.
RECORD_BLOCK = 2 ** 14


def absolute_tolerance(exp: SlitExperiment, tol: float) -> float:
    """The atol of both integrators for rtol = ``tol``: tol packet widths.

    It does not depend on the launch, so a single path and its lane in
    ``transport`` are held to the same error contract.  A tol outside
    (0, 1) raises ConfigError: an rtol of 1 or more accepts an error as
    large as the position, so it bounds nothing.
    """
    if not 0.0 < tol < 1.0:
        raise ConfigError("tol must be positive and finite, and below 1")
    return tol * exp.packet_width_cm


def first_step(exp: SlitExperiment, consts: PhysicalConstants,
               t_end: float) -> float:
    """The first trial step of both integrators, in s, at most t_end:
    ``FIRST_STEP_FRACTION`` of the packet's spreading time
    t_b = 2 m sigma0^2 / hbar = 1 / b(1 s).

    psi is real at t = 0, so v(y0, 0) = 0 for every launch and the field
    sets no step there; t_b is the time scale on which the packets spread
    and the fringes form.  It does not depend on the launch, so a single
    path and its lane in ``transport`` start alike.
    """
    t_b = 1.0 / float(wavefield.spreading_parameter(exp, consts, 1.0))
    return min(FIRST_STEP_FRACTION * t_b, float(t_end))


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

    The path is a lane of ``transport``, stepped on Python floats by
    ``_transport_lane`` and recorded on a uniform grid of n_samples >= 3
    points from 0 to t_end: its samples equal the lane's row in any
    batch, bit for bit, under rtol = ``tol`` and the atol of
    ``absolute_tolerance``.  Any finite nonzero y0 is accepted: the
    velocity comes from psi'/psi, which stays finite where |psi| is below
    the node floor, as in the tails and between the slits.  v and a come
    from the array form of the closed form, ``RECORD_BLOCK`` at a time.
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
    v, a_field = np.empty_like(y), np.empty_like(y)
    for start in range(0, len(t), RECORD_BLOCK):
        block = slice(start, start + RECORD_BLOCK)
        v[block], a_field[block] = wavefield._velocity_acceleration(
            exp, consts, y[block], t[block])
    return Trajectory(t_s=t, y_cm=y, vy_cm_s=v, ay_field=a_field,
                      ay_numeric=np.gradient(v, t))


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


# The tableau rows of both steppers, P's columns among them, as (Python
# float, stage) pairs without zero coefficients, and each stage after the
# first as (node, row of A): a Python float times an array gives NumPy's
# bits, and times a Python float keeps the float stepper off NumPy's scalars.
_STAGES = [(float(C[s]),
            [(float(c), j) for j, c in enumerate(A[s, :s]) if c != 0.0])
           for s in range(1, len(C))]
_B_ROW, _E_ROW, *_P_ROWS = (
    [(float(c), j) for j, c in enumerate(w) if c != 0.0]
    for w in (B, E, *P.T))
_EXPONENT = -1.0 / (ERROR_ESTIMATOR_ORDER + 1)


def _row_sum(row, k):
    """sum_j c_j k[j] over one row's (coefficient, stage) pairs.

    On arrays it is elementwise: unlike a BLAS product, each lane's value
    depends on that lane alone, so a lane's path does not change with the
    other lanes of the call.
    """
    return sum(c * k[j] for c, j in row)


def _rhs(exp: SlitExperiment, consts: PhysicalConstants, t, y):
    """dy/dt of both steppers: the guidance velocity at (y, t)."""
    return wavefield._velocity_of(
        exp, consts, wavefield._closed_form_args(exp, consts, y, t))


def _step(exp: SlitExperiment, consts: PhysicalConstants, t, y, f, h,
          t_new):
    """One Dormand-Prince step of length h = t_new - t from (t, y), where
    f is dy/dt: y_new and the seven stages, the last of them at
    (t_new, y_new).  On Python floats or, lane by lane, on arrays."""
    k = [f]
    for node, row in _STAGES:
        k.append(_rhs(exp, consts, t + node * h, y + _row_sum(row, k) * h))
    y_new = y + h * _row_sum(_B_ROW, k)
    k.append(_rhs(exp, consts, t_new, y_new))
    return y_new, k


def _dense_output(out, t_eval, row, first, stop, t0, h, y, *k):
    """Fill out[row[i], first[i]:stop[i]], the t_eval points of the step
    from (t0[i], y[i]) of length h[i] and stages k[:][i], RECORD_BLOCK
    points at a time: y + h sum_m Q_m x^(m+1), Q = K^T P, x = (t - t0) / h,
    elementwise by Horner's rule, so no other step moves a point's bits."""
    q = [_row_sum(r, k) for r in reversed(_P_ROWS)]
    end = np.cumsum(stop - first)  # points filled through each step
    for start in range(0, int(end[-1]), RECORD_BLOCK):
        point = np.arange(start, min(start + RECORD_BLOCK, end[-1]))
        at = np.searchsorted(end, point, side="right")
        col = stop[at] - (end[at] - point)
        x = (t_eval[col] - t0[at]) / h[at]
        poly = 0.0
        for qm in q:
            poly = (poly + qm[at]) * x
        out[row[at], col] = h[at] * poly + y[at]


def _transport_lane(exp: SlitExperiment, consts: PhysicalConstants,
                    y0: float, t_end: float, tol: float,
                    t_eval: np.ndarray) -> np.ndarray:
    """``transport`` of one lane, stepped on Python floats.

    Per step, numpy's per-call cost on one-element arrays exceeds the
    arithmetic, so the lane's time, position, stages and step control
    are Python floats; the float branch of ``_closed_form_args`` and
    ``np.power`` give the ufuncs' bits.  The step is ``_step``, and after
    the loop ``_dense_output`` fills the row from the accepted steps, so
    it equals the lane's row in any batch, bit for bit.  Where transport
    would fail the lane, this raises NumericalError naming the launch.
    """
    # a NumPy scalar among them would send the field to its array branch
    y0, t_end, rtol = float(y0), float(t_end), float(tol)
    atol = absolute_tolerance(exp, rtol)
    t, y = 0.0, y0
    f = _rhs(exp, consts, t, y)
    h_abs = first_step(exp, consts, t_end)
    rejected = False
    nfev = 1
    steps = []  # (t, t_new, h, y, k) of each accepted step
    while True:
        min_step = 10.0 * abs(math.nextafter(t, math.inf) - t)
        if not rejected:
            h_abs = max(h_abs, min_step)
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

        # h_abs and t_new are finite, so min and max see no NaN; where
        # y_new is not, the last stage and so the error norm are NaN
        t_new = min(t + h_abs, t_end)
        h = t_new - t
        y_new, k = _step(exp, consts, t, y, f, h, t_new)
        nfev += len(C)
        scale = atol + max(abs(y), abs(y_new)) * rtol
        err = abs(_row_sum(_E_ROW, k) * h / scale)
        factor = SAFETY * float(np.power(err, _EXPONENT)) if err \
            else math.inf
        if err < 1.0:
            factor = min(MAX_FACTOR, factor)
            if rejected:
                factor = min(1.0, factor)
            steps.append((t, t_new, h, y, k))
            t, y, f = t_new, y_new, k[-1]
            rejected = False
        else:
            # a non-finite error norm is a reject at the smallest factor
            factor = factor if factor > MIN_FACTOR else MIN_FACTOR
            rejected = True
        h_abs = h * factor

    # each step fills the t_eval points in (t, t_new], as in transport
    t0, t1, h, y, k = (np.array(v) for v in zip(*steps))
    stop = np.searchsorted(t_eval, t1, side="right")
    out = np.empty((1, len(t_eval)))
    _dense_output(out, t_eval, np.zeros_like(stop),
                  np.concatenate([[0], stop[:-1]]), stop, t0, h, y, *k.T)
    return out[0]


def transport(exp: SlitExperiment, consts: PhysicalConstants,
              y0: np.ndarray, t_end: float, tol: float = DEFAULT_TOL,
              t_eval: np.ndarray | None = None) -> np.ndarray:
    """Integrate many trajectories, each lane with its own step size.

    A vectorized Dormand-Prince 5(4) stepper (Hairer, Norsett & Wanner,
    Solving ODEs I, sec. II.4) gives every lane its own time, step and
    error norm under the module's tableau (a test pins it to scipy's
    RK45) and scipy's step-size controller, so rtol = ``tol`` and the
    atol of ``absolute_tolerance`` mean what they mean for one path.
    Each lane starts from ``first_step`` and steps by ``_step`` on arrays,
    the step of ``_transport_lane`` on floats; the right-hand side is the
    real psi'/psi form, so far-tail lanes move like a single packet.  A
    lane whose step falls below 10 ulp of its time, or whose
    right-hand-side evaluations pass ``PATH_RHS_BUDGET`` (1 to start and
    ``len(C)`` per attempted step, as scipy counts them with a given
    first step), fails alone, also where its arithmetic overflows.

    Returns positions of shape (len(y0), len(t_eval)); t_eval defaults
    to the single point t_end.  After the loop ``_dense_output`` fills
    each row from its lane's accepted steps, and a failed lane's row is
    set NaN.  Order follows y0, and a lane's row is a single path's,
    whatever the other lanes, so results replay bitwise.
    """
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ConfigError("t_end must be positive and finite")
    t_eval = np.array([t_end]) if t_eval is None \
        else np.asarray(t_eval, dtype=float)
    # a NaN time is neither >= 0 nor <= t_end
    if t_eval.ndim != 1 or np.any(np.diff(t_eval) < 0.0) \
            or not np.all((t_eval >= 0.0) & (t_eval <= t_end)):
        raise ConfigError("t_eval must be sorted and within [0, t_end]")
    try:  # a ragged y0 raises here, a scalar or 2-D one below
        y = np.array(y0, dtype=float)
    except ValueError:
        y = None
    if y is None or y.ndim != 1:
        raise ConfigError("y0 must be a one-dimensional array of launches")
    if not np.all(np.isfinite(y)):
        raise ConfigError("y0 must be finite")
    rtol, atol = tol, absolute_tolerance(exp, tol)
    out = np.full((len(y), len(t_eval)), np.nan)
    lane = np.arange(len(y))
    t = np.zeros(len(y))
    h_abs = np.full(len(y), first_step(exp, consts, t_end))
    rejected, failed = np.zeros((2, len(y)), dtype=bool)
    filled = np.zeros(len(y), dtype=int)  # next t_eval index per lane
    # every lane still running attempts one step per pass, so the lanes
    # share one count: f, then len(C) a step
    nfev = 1
    steps = []  # (row, first, stop, t, h, y, *k) of steps that fill columns
    # Python's float arithmetic raises no flag, and neither does the lanes'
    # here, whatever the caller's policy: as on the float stepper, a
    # non-finite velocity is a rejected step and its lane fails alone
    with np.errstate(all="ignore"):
        f = _rhs(exp, consts, t, y)
        while True:
            # a new step starts at no less than 10 ulp of t; a lane whose
            # rejected step shrank below that (or is NaN), or whose last step
            # passed the budget, fails
            min_step = 10.0 * np.abs(np.nextafter(t, np.inf) - t)
            h_abs = np.where(rejected, h_abs, np.maximum(h_abs, min_step))
            alive = (h_abs >= min_step) & (nfev <= PATH_RHS_BUDGET)
            failed[lane] = ~alive
            running = alive & (t < t_end)
            lane, t, y, f, h_abs, rejected, filled = (
                v[running] for v in (lane, t, y, f, h_abs, rejected, filled))
            if not lane.size:
                break

            t_new = np.minimum(t + h_abs, t_end)
            h = t_new - t
            y_new, k = _step(exp, consts, t, y, f, h, t_new)
            nfev += len(C)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = np.abs(_row_sum(_E_ROW, k) * h / scale)
            accept = err < 1.0
            factor = SAFETY * err ** _EXPONENT  # inf at err == 0
            # a non-finite error norm is a reject at the smallest factor,
            # and a step accepted after a reject may not grow
            factor = np.where(accept, np.minimum(MAX_FACTOR, factor),
                              np.fmax(MIN_FACTOR, factor))
            factor = np.where(accept & rejected, np.minimum(1.0, factor),
                              factor)
            h_abs = h * factor

            # an accepted step fills the t_eval points in (t, t_new]
            stop = np.searchsorted(t_eval, t_new, side="right")
            dense = np.flatnonzero(accept & (stop > filled))
            if dense.size:
                steps.append([v[dense] for v in
                              (lane, filled, stop, t, h, y, *k)])
                filled[dense] = stop[dense]

            t = np.where(accept, t_new, t)
            y = np.where(accept, y_new, y)
            f = np.where(accept, k[-1], f)
            rejected = ~accept

        if steps:
            _dense_output(out, t_eval, *map(np.concatenate, zip(*steps)))
        out[failed] = np.nan
    return out


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
