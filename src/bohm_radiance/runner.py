"""Run orchestration: execute a subcommand, persist outputs, write a manifest.

Data files are deterministic for a fixed (config, seed, version): JSON
keys are sorted, and no timestamps enter data files.  A CSV cell is
``str`` of a Python number, which for a float is its shortest round-trip
repr, or a string the handler built; ``quantum_potential.csv`` writes
``nan`` for S, Q and grad Q on singular rows.  The manifest carries the
config hash, tool version, creation time, and a checksum per emitted
file; if a handler fails after partial writes, the manifest is still
written with status "incomplete" and the error note attached.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .config import OUTPUT_SCHEMA_ID, RunConfig
from .errors import ConfigError, NumericalError
from .presets import (
    BEAM_FLUX_DISCREPANCY_NOTE,
    REFERENCE_BEAM_FLUX_W_M2,
    ROW4_SCALING_NOTE,
    beam_flux,
    current_scaled_power,
    jonsson_current,
    tonomura_current,
)
from .radiance import (
    LAMBDA_CONVENTION_NOTE,
    copenhagen_emission_power,
    ensemble_mean_power,
    simulation_valley_inputs,
    spectrum_step,
)
from .trajectories import integrate_trajectory, run_ensemble
from .wavefield import cross_section_scan

SUBCOMMANDS = ("quantum-potential", "simulate-trajectories", "valley-report",
               "spectrum", "table1", "detectability", "compare")


@dataclass
class RunManifest:
    subcommand: str
    constants: str
    mode: str
    config_sha256: str
    created_utc: str
    status: str = "complete"
    files: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {"schema": OUTPUT_SCHEMA_ID, "kind": "manifest",
                "tool": "bohm-radiance", "version": __version__,
                **asdict(self)}


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _Emitter:
    """Collects written files and their checksums for the manifest."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.records: list[dict] = []

    def write_text(self, name: str, text: str) -> Path:
        path = self.out_dir / name
        path.write_text(text, encoding="utf-8")
        self.records.append({
            "path": name,
            "sha256": _sha256(path),
            "bytes": path.stat().st_size,
        })
        return path

    def write_json(self, name: str, doc: dict) -> Path:
        return self.write_text(name, _json_text(doc))

    def write_csv(self, name: str, header: list[str], rows) -> Path:
        """Rows of Python numbers or strings; each cell is written as str."""
        lines = [",".join(header)]
        lines.extend(",".join(map(str, row)) for row in rows)
        return self.write_text(name, "\n".join(lines) + "\n")

    def write_records(self, name: str, records: list[dict]) -> Path:
        """CSV of dict rows; the header is the keys of the first row."""
        return self.write_csv(name, list(records[0]),
                              (r.values() for r in records))


def _doc(cfg: RunConfig, kind: str, body: dict) -> dict:
    doc = {"schema": OUTPUT_SCHEMA_ID, "kind": kind,
           "constants": cfg.constants_preset}
    doc.update(body)
    return doc


def _scan(cfg: RunConfig):
    """The configured scan at the experiment's cross section."""
    return cross_section_scan(cfg.experiment, cfg.consts,
                              cfg.experiment.cross_section_x_cm,
                              cfg.scan.y_half_range_cm, cfg.scan.n_samples)


def _steps(cfg: RunConfig):
    """One spectrum step per valley: reproduction mode uses the configured
    inputs, simulation mode derives them from the field."""
    if cfg.mode == "reproduction":
        inputs = cfg.valleys
    else:
        inputs = simulation_valley_inputs(cfg.experiment, cfg.consts,
                                          cfg.scan.y_half_range_cm,
                                          cfg.scan.n_samples)
    return [spectrum_step(cfg.consts, vi) for vi in inputs]


def _cmd_quantum_potential(cfg: RunConfig, em: _Emitter) -> None:
    scan = _scan(cfg)
    # s is already NaN on singular rows
    q, grad_q = (np.where(scan.singular, np.nan, a).tolist()
                 for a in (scan.q, scan.grad_q))
    flags = np.where(scan.singular, "singular", "ok").tolist()
    em.write_csv("quantum_potential.csv",
                 ["y_cm", "t_s", "R", "S_eVs", "Q_eV", "gradQ_eV_per_cm",
                  "flag"],
                 zip(scan.y.tolist(), repeat(str(scan.t_s)), scan.r.tolist(),
                     scan.s.tolist(), q, grad_q, flags))


def _cmd_valley_report(cfg: RunConfig, em: _Emitter) -> None:
    scan = _scan(cfg)
    em.write_json("valley_report.json", _doc(cfg, "valley_report", {
        "x_cm": scan.x_cm,
        "t_s": scan.t_s,
        "valleys": [asdict(v) for v in scan.valleys],
        "diagnostics": scan.diagnostics,
    }))


def _cmd_simulate_trajectories(cfg: RunConfig, em: _Emitter) -> None:
    exp, consts = cfg.experiment, cfg.consts
    t_end = cfg.ensemble.t_end_s or exp.time_of_flight_s
    halted = []
    for k, y0 in enumerate(cfg.trajectories.y0_list_cm, start=1):
        traj = integrate_trajectory(exp, consts, y0, t_end,
                                    tol=cfg.trajectories.tol,
                                    n_samples=cfg.trajectories.n_samples)
        em.write_csv(f"trajectory_{k:03d}.csv",
                     ["t_s", "y_cm", "vy_cm_s", "ay_field", "ay_numeric"],
                     zip(traj.t_s.tolist(), traj.y_cm.tolist(),
                         traj.vy_cm_s.tolist(), traj.ay_field.tolist(),
                         traj.ay_numeric.tolist()))
        if traj.halted:
            halted.append(traj.halt_reason)
    result = run_ensemble(exp, consts, cfg.ensemble.n, cfg.ensemble.seed,
                          t_end, tol=cfg.trajectories.tol)
    em.write_json("ensemble_summary.json", _doc(cfg, "ensemble_summary", {
        "n": result.n,
        "seed": result.seed,
        "t_end_s": result.t_end_s,
        "ks_statistic": result.ks_statistic,
        "n_failed": result.n_failed,
        "valid": result.valid,
    }))
    if halted:
        raise NumericalError("; ".join(halted))
    if not result.valid:
        raise NumericalError(
            f"ensemble invalid: {result.n_failed} of {result.n} "
            "trajectories failed to propagate")


def _cmd_spectrum(cfg: RunConfig, em: _Emitter) -> None:
    steps = [asdict(step) for step in _steps(cfg)]
    em.write_json("spectrum.json", _doc(cfg, "spectrum", {
        "mode": cfg.mode,
        "steps": steps,
        "notes": [LAMBDA_CONVENTION_NOTE],
    }))
    # the CSV leaves out the acceleration, which is grad_q / m
    em.write_records("spectrum.csv", [
        {k: v for k, v in step.items() if k != "acceleration_cm_s2"}
        for step in steps])


def _cmd_table1(cfg: RunConfig, em: _Emitter) -> None:
    j_current = jonsson_current(cfg.consts)
    rows = [{
        "valley": step.valley,
        "omega_c_hz": step.omega_c_hz,
        "lambda_c_cm": step.lambda_c_cm,
        "i0_ev_per_hz": step.i0_ev_per_hz,
        "p_tonomura_w": step.power_w,
        "p_jonsson_w": current_scaled_power(step.power_w, j_current),
        "flag": (ROW4_SCALING_NOTE
                 if cfg.mode == "reproduction" and step.valley == 4 else ""),
    } for step in _steps(cfg)]
    em.write_json("table1.json", _doc(cfg, "table1", {
        "mode": cfg.mode,
        "rows": rows,
        "notes": [LAMBDA_CONVENTION_NOTE],
    }))
    em.write_records("table1.csv", rows)


def _cmd_detectability(cfg: RunConfig, em: _Emitter) -> None:
    step = _steps(cfg)[0]
    p_scaled = current_scaled_power(step.power_w,
                                    jonsson_current(cfg.consts))
    em.write_json("detectability.json", _doc(cfg, "detectability", {
        "scaled_power_w": p_scaled,
        **asdict(beam_flux(p_scaled)),
        "reference_beam_flux_w_m2": REFERENCE_BEAM_FLUX_W_M2,
        "notes": [BEAM_FLUX_DISCREPANCY_NOTE],
    }))


def _cmd_compare(cfg: RunConfig, em: _Emitter) -> None:
    consts = cfg.consts
    j_current = jonsson_current(consts)
    t_current = tonomura_current(consts)
    rows = [{
        "valley": step.valley,
        "copenhagen_power_w": copenhagen_emission_power(),
        "bdb_power_tonomura_w": current_scaled_power(step.power_w, t_current),
        "bdb_power_jonsson_w": current_scaled_power(step.power_w, j_current),
    } for step in _steps(cfg)]
    mean_power = ensemble_mean_power(
        cfg.experiment, consts,
        cfg.experiment.section_time_s(cfg.experiment.cross_section_x_cm))
    em.write_json("compare.json", _doc(cfg, "compare", {
        "mode": cfg.mode,
        "rows": rows,
        "ensemble_mean_power_w": mean_power,
        "notes": [
            "the free-electron prediction is exactly zero at every point "
            "between slit plane and screen; the per-trajectory prediction "
            "is nonzero valley by valley, yet its |psi|^2 ensemble average "
            "vanishes",
        ],
    }))
    em.write_records("compare.csv", rows)


_HANDLERS = {
    "quantum-potential": _cmd_quantum_potential,
    "valley-report": _cmd_valley_report,
    "simulate-trajectories": _cmd_simulate_trajectories,
    "spectrum": _cmd_spectrum,
    "table1": _cmd_table1,
    "detectability": _cmd_detectability,
    "compare": _cmd_compare,
}


def run(subcommand: str, cfg: RunConfig) -> RunManifest:
    """Execute one subcommand and persist outputs plus manifest.json.

    On a handler error the partial outputs stay on disk, the manifest is
    written with status "incomplete", and the error is re-raised for the
    CLI to map onto an exit code.
    """
    if subcommand not in _HANDLERS:
        raise ConfigError(
            f"unknown subcommand {subcommand!r}; expected one of "
            f"{sorted(_HANDLERS)}")
    out_dir = cfg.output_dir
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out_dir}: {exc}")
    em = _Emitter(out_dir)
    manifest = RunManifest(
        subcommand=subcommand,
        constants=cfg.constants_preset,
        mode=cfg.mode,
        config_sha256=cfg.sha256(),
        created_utc=datetime.now(timezone.utc).isoformat(),
        files=em.records,
    )
    try:
        _HANDLERS[subcommand](cfg, em)
    except BaseException as exc:
        manifest.status = "incomplete"
        manifest.notes.append(f"{type(exc).__name__}: {exc}")
        raise
    finally:
        (out_dir / "manifest.json").write_text(
            _json_text(manifest.as_dict()), encoding="utf-8")
    return manifest
