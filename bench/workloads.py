"""The two benchmark workloads: inputs, the timed op, and its gates.

``ensemble`` is the coupled ODE transport of many lanes.  ``desk`` is
everything one user does at the calculator without an ensemble: single
paths (``Paths``) and the subcommand runs (``Sections``).

A workload turns the benchmark seed into a fixed list of op inputs (one
"pass").  ``op`` is the call that is timed; ``check`` runs after it,
untimed, and returns a Verdict: whether every correctness gate held, the
bytes that enter the output fingerprint, and the errors it measured
(reported as the run's maximum).  Every op calls the program through
module attributes, so the tracer sees it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import numpy as np

from bohm_radiance import config, radiance, runner, trajectories, wavefield

import oracle

# Per-lane / per-path gate on |y_final - F_t^-1(F_0(y0))|, in fringe
# spacings at the screen.
PATH_ERR_GATE_FRINGES = 1.0e-3
ENSEMBLE_LANES = 1000
# With every lane on its quantile-map final, the KS distance of the finals
# to |psi(., t_end)|^2 is that of the |psi(., 0)|^2 sample, which for a
# correct sampler follows the Kolmogorov distribution at ENSEMBLE_LANES
# draws.  The gate is the Dvoretzky-Kiefer-Wolfowitz bound
# P(KS > d) <= 2 exp(-2 n d^2) at a 1e-6 false-alarm rate (0.085); 0.05
# would fail about 1.3% of correct runs by chance.
KS_GATE = math.sqrt(math.log(2.0 / 1.0e-6) / (2.0 * ENSEMBLE_LANES))
# Acceptance criterion: beable acceleration equals d(vy)/dt on the dense
# recording, to 1e-4 both relative to |a| where |a| exceeds 1% of its
# peak and relative to the peak, for the launch the acceptance suite
# quotes.  Launches drawn from |psi|^2 that cross a valley wall sharply
# (|y0| below ~4.6e-5 cm) miss that at 262,144 samples: the central
# difference under-resolves the crossing, and the error falls as the
# sample spacing squared.  Their peak-relative error was at most 8.4e-4
# over 309 launches with |y0| from 2.5e-5 cm outward, so drawn launches
# are held to that form at ACCEL_PEAK_GATE_DRAWN.  The error relative to
# |a| is erratic there (up to 1.2e-2, where |a| is just above the 1%
# mask) and is reported, not gated.
ACCEPTANCE_LAUNCH_CM = 4.9e-5
ACCEL_REL_GATE = 1.0e-4
ACCEL_PEAK_GATE_DRAWN = 2.0e-3
ACCEL_MASK_FRACTION = 1.0e-2
TABLE1_REL_GATE = 0.03

# Printed Table 1 (valley: omega_c Hz, lambda_c cm, I0 eV/Hz, P_T W,
# P_J W).  Row 4's Jonsson power is held to the scaling-consistent
# 1.25e-19 W instead of the printed value, as in the acceptance suite.
TABLE1_PRINTED = {
    1: (3.57e10, 0.84, 1.63e-27, 3.25e-25, 1.82e-17),
    2: (1.43e10, 2.1, 1.03e-27, 3.27e-26, 1.83e-18),
    3: (9.8e9, 3.06, 2.0e-28, 3.02e-27, 1.70e-19),
    4: (9.17e9, 3.27, 1.69e-28, 2.23e-27, 1.25e-19),
}
TABLE1_COLUMNS = ("omega_c_hz", "lambda_c_cm", "i0_ev_per_hz",
                  "p_tonomura_w", "p_jonsson_w")

SUBCOMMANDS = ("quantum-potential", "valley-report", "spectrum", "table1",
               "detectability", "compare")
MODES = ("reproduction", "simulation")
SWEEP_CM = (2.0, 35.0)


@dataclass
class Verdict:
    ok: bool
    digest: bytes
    reason: str = ""
    measured: dict[str, float] = field(default_factory=dict)


def default_setup():
    """The default 45 keV configuration, as the program loads it."""
    cfg = config.load_config(None)
    return cfg.experiment, cfg.consts


def _screen_fringe(exp, consts) -> float:
    return wavefield.fringe_spacing(exp, consts, exp.screen_distance_cm)


class Ensemble:
    """run_ensemble at ENSEMBLE_LANES lanes to the screen; one op per
    pass."""

    def __init__(self, exp, consts):
        self.exp, self.consts = exp, consts
        self.fringe = _screen_fringe(exp, consts)

    def inputs(self, seed: int) -> list[int]:
        return [int(np.random.SeedSequence(seed).generate_state(1)[0])]

    def op(self, ens_seed: int):
        return trajectories.run_ensemble(
            self.exp, self.consts, n=ENSEMBLE_LANES, seed=ens_seed,
            t_end=self.exp.time_of_flight_s)

    def check(self, ens_seed: int, res) -> Verdict:
        finals = np.asarray(res.final_positions_cm, dtype=float)
        expected = oracle.quantile_map(self.exp, self.consts,
                                       res.initial_positions_cm,
                                       res.t_end_s)
        err = float(np.max(np.abs(finals - expected))) / self.fringe
        reasons = []
        if not res.ks_statistic < KS_GATE:
            reasons.append(f"KS {res.ks_statistic:.4f} >= {KS_GATE:.4f}")
        if res.n_failed != 0:
            reasons.append(f"{res.n_failed} lanes failed")
        if not err < PATH_ERR_GATE_FRINGES:
            reasons.append(f"path error {err:.3e} fringes")
        return Verdict(not reasons, finals.tobytes(), "; ".join(reasons),
                       {"path_err_fringes": err})


class Paths:
    """One launch integrated and radiated at a sparse and a dense
    recording; one op per launch.  A pass is the acceptance launch plus
    ``launches`` draws from |psi(., 0)|^2, one per equal-probability
    stratum, so every seed spreads its launches over the whole density
    and a pass costs about the same whatever the seed."""

    SAMPLE_COUNTS = (4096, 262144)

    def __init__(self, exp, consts, launches: int = 8):
        self.exp, self.consts, self.launches = exp, consts, launches
        self.fringe = _screen_fringe(exp, consts)
        self.t_end = exp.time_of_flight_s

    def inputs(self, seed: int) -> list[tuple[float, bool]]:
        """(y0, whether it is the acceptance launch) per launch."""
        jitter = np.random.default_rng(seed).random(self.launches)
        u = (np.arange(self.launches) + jitter) / self.launches
        launches = oracle.DensityCDF(self.exp, self.consts, 0.0).quantile(u)
        return [(ACCEPTANCE_LAUNCH_CM, True)] + [
            (float(y0), False) for y0 in launches]

    def op(self, inp):
        y0, _ = inp
        out = []
        for n_samples in self.SAMPLE_COUNTS:
            traj = trajectories.integrate_trajectory(
                self.exp, self.consts, y0, self.t_end, n_samples=n_samples)
            energy = radiance.trajectory_radiated_energy(
                self.consts, traj, self.exp)
            out.append((traj, energy))
        return out

    def check(self, inp, recordings) -> Verdict:
        y0, acceptance = inp
        expected = float(oracle.quantile_map(self.exp, self.consts, y0,
                                             self.t_end))
        reasons, finals, err = [], [], 0.0
        for traj, energy in recordings:
            if traj.halted:
                reasons.append(f"halted: {traj.halt_reason}")
                continue
            finals.append(traj.y_cm[-1])
            err = max(err, abs(traj.y_cm[-1] - expected) / self.fringe)
            if not (math.isfinite(energy.total_j) and energy.total_j > 0.0):
                reasons.append(f"radiated energy {energy.total_j!r}")
        if not err < PATH_ERR_GATE_FRINGES:
            reasons.append(f"path error {err:.3e} fringes")
        measured = {"path_err_fringes": err}
        dense = recordings[-1][0]
        if not dense.halted:
            rel, peak = accel_errors(dense)
            measured["accel_rel_err"] = max(rel, peak)
            if acceptance and not max(rel, peak) < ACCEL_REL_GATE:
                reasons.append(f"ay relative error {max(rel, peak):.3e}")
            if not acceptance and not peak < ACCEL_PEAK_GATE_DRAWN:
                reasons.append(f"ay peak-relative error {peak:.3e}")
        return Verdict(not reasons, np.asarray(finals).tobytes(),
                       "; ".join(reasons), measured)


def accel_errors(traj) -> tuple[float, float]:
    """Largest mismatch of ay_numeric against ay_field, in both forms of
    the acceptance criterion: relative to |a| where |a| is above 1% of
    its peak, and relative to the peak."""
    a_field, a_num = traj.ay_field, traj.ay_numeric
    amax = np.nanmax(np.abs(a_field))
    mask = np.abs(a_field) > ACCEL_MASK_FRACTION * amax
    rel = np.abs(a_num[mask] - a_field[mask]) / np.abs(a_field[mask])
    return float(np.max(rel)), float(np.max(np.abs(a_num - a_field)) / amax)


class Sections:
    """Every scan and closed-form subcommand, both modes, over a sweep of
    cross-section positions; one op per load_config + runner.run."""

    def __init__(self, work_dir: Path, n_sections: int = 12):
        self.work_dir = work_dir
        self.n_sections = n_sections
        self.validator = jsonschema.Draft202012Validator(
            config.output_schema())

    def inputs(self, seed: int) -> list[tuple[float, str, str]]:
        """One x per equal stratum of the sweep, jittered by the seed."""
        lo, hi = SWEEP_CM
        u = np.random.default_rng(seed).random(self.n_sections)
        width = (hi - lo) / self.n_sections
        xs = [lo + (k + float(u[k])) * width for k in range(self.n_sections)]
        return [(x, mode, sub) for x in xs for mode in MODES
                for sub in SUBCOMMANDS]

    def op(self, inp):
        x, mode, sub = inp
        cfg = config.load_config(None, {
            "mode": mode,
            "experiment": {"cross_section_x_cm": x},
            "output_dir": str(self.work_dir / f"{mode}-{sub}"),
        })
        return cfg, runner.run(sub, cfg)

    def check(self, inp, result) -> Verdict:
        _, mode, sub = inp
        cfg, manifest = result
        reasons = []
        if manifest.status != "complete":
            reasons.append(f"manifest status {manifest.status}")
        out_dir = Path(cfg.output_dir)
        docs = [json.loads((out_dir / "manifest.json").read_text())]
        digest = hashlib.sha256()
        for rec in manifest.files:
            data = (out_dir / rec["path"]).read_bytes()
            if (hashlib.sha256(data).hexdigest() != rec["sha256"]
                    or len(data) != rec["bytes"]):
                reasons.append(f"{rec['path']}: checksum mismatch")
            if rec["path"].endswith(".json"):
                docs.append(json.loads(data))
            digest.update(f"{rec['path']}:{rec['sha256']}\n".encode())
        for doc in docs:
            for error in self.validator.iter_errors(doc):
                reasons.append(f"{doc.get('kind')}: {error.message}")
        if mode == "reproduction" and sub == "table1":
            reasons += table1_deviations(
                json.loads((out_dir / "table1.json").read_text()))
        return Verdict(not reasons, digest.digest(), "; ".join(reasons))


def table1_deviations(doc: dict) -> list[str]:
    """Rows of a reproduction table1.json outside the 3% tolerance."""
    out = []
    rows = {row["valley"]: row for row in doc["rows"]}
    if sorted(rows) != sorted(TABLE1_PRINTED):
        return [f"table1 rows {sorted(rows)}"]
    for valley, printed in TABLE1_PRINTED.items():
        for column, want in zip(TABLE1_COLUMNS, printed):
            got = rows[valley][column]
            if not abs(got - want) <= TABLE1_REL_GATE * abs(want):
                out.append(f"table1 valley {valley} {column}: {got!r} "
                           f"vs {want!r}")
    return out


class Desk:
    """The Paths launches, then the Sections runs; one op per launch or
    per subcommand run.  The Sections ops set the median latency and the
    Paths ops the tail."""

    def __init__(self, exp, consts, work_dir: Path, launches: int = 8,
                 n_sections: int = 12):
        self.parts = {"path": Paths(exp, consts, launches),
                      "section": Sections(work_dir, n_sections)}

    def inputs(self, seed: int) -> list[tuple[str, object]]:
        seeds = np.random.SeedSequence(seed).generate_state(len(self.parts))
        return [(kind, inp)
                for (kind, part), part_seed in zip(self.parts.items(), seeds)
                for inp in part.inputs(int(part_seed))]

    def op(self, inp):
        kind, part_inp = inp
        return self.parts[kind].op(part_inp)

    def check(self, inp, out) -> Verdict:
        kind, part_inp = inp
        return self.parts[kind].check(part_inp, out)


WORKLOADS = ("ensemble", "desk")


def make(name: str, work_dir: Path, **sizes):
    """Build a workload; ``sizes`` shrink it for smoke tests."""
    if name == "ensemble":
        return Ensemble(*default_setup(), **sizes)
    if name == "desk":
        return Desk(*default_setup(), work_dir, **sizes)
    raise ValueError(f"unknown workload {name!r}; expected one of "
                     f"{', '.join(WORKLOADS)}")
