"""Run orchestration: execute a subcommand, persist outputs, write a manifest.

Data files are deterministic for a fixed (config, seed, version): JSON
keys are sorted, and no timestamps enter data files.  A CSV is written
column by column, and its bytes are those of ``str`` of each value, which
for a float is its shortest round-trip repr.  The cells of the float64
array columns are made together: ``repr`` is called once per distinct
magnitude, ``-`` is put in front where the sign bit is set, and every NaN
is written ``nan`` whatever its sign bit (the field is mirror-symmetric,
so a scan has about half as many magnitudes as cells).  Any other column
is a sequence of values written with ``str``.  ``quantum_potential.csv``
writes ``nan`` for S, Q and grad Q on singular rows.  The manifest carries the
config hash, tool version, creation time, and a checksum per emitted
file; if a handler fails after partial writes, the manifest is still
written with status "incomplete" and the error note attached.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
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
from .wavefield import _polar, cross_section_scan


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


def _is_float_array(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype == np.float64


def _csv_cells(columns: list) -> list[list[str]]:
    """``str`` of each value of each column; the float64 array columns
    share one ``repr`` per distinct magnitude."""
    arrays = [c for c in columns if _is_float_array(c)]
    parts = iter(())
    if arrays:
        flat = np.concatenate(arrays)
        magnitudes, inverse = np.unique(np.abs(flat), return_inverse=True)
        texts = np.array(list(map(repr, magnitudes.tolist())), dtype=object)
        cells = texts[inverse]
        negative = np.signbit(flat) & ~np.isnan(flat)
        cells[negative] = "-" + cells[negative]
        ends = np.cumsum([a.size for a in arrays[:-1]])
        parts = (part.tolist() for part in np.split(cells, ends))
    return [next(parts) if _is_float_array(c) else list(map(str, c))
            for c in columns]


class _Emitter:
    """Collects written files and their checksums for the manifest."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.records: list[dict] = []

    def write_text(self, name: str, text: str) -> Path:
        data = text.encode("utf-8")
        path = self.out_dir / name
        path.write_bytes(data)
        self.records.append({
            "path": name,
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
        })
        return path

    def write_json(self, name: str, doc: dict) -> Path:
        return self.write_text(name, _json_text(doc))

    def write_csv(self, name: str, columns: dict[str, object]) -> Path:
        """CSV of equal-length columns under their keys as the header: a
        float64 array, or a sequence of values each written as str."""
        cells = _csv_cells(list(columns.values()))
        lines = [",".join(columns)]
        lines.extend(map(",".join, zip(*cells, strict=True)))
        del cells  # frees the cell strings before the text is built
        return self.write_text(name, "\n".join(lines) + "\n")

    def write_records(self, name: str, records: list[dict]) -> Path:
        """CSV of dict rows; the header is the keys of the first row."""
        return self.write_csv(name, {key: [r[key] for r in records]
                                     for key in records[0]})


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
    # the one output that writes S; s is already NaN on singular rows
    r, s = _polar(cfg.experiment, cfg.consts, scan.psi, scan.t_s)
    em.write_csv("quantum_potential.csv", {
        "y_cm": scan.y,
        "t_s": [str(scan.t_s)] * scan.y.size,
        "R": r,
        "S_eVs": s,
        "Q_eV": np.where(scan.singular, np.nan, scan.q),
        "gradQ_eV_per_cm": np.where(scan.singular, np.nan, scan.grad_q),
        "flag": np.where(scan.singular, "singular", "ok").tolist(),
    })


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
    for k, y0 in enumerate(cfg.trajectories.y0_list_cm, start=1):
        traj = integrate_trajectory(exp, consts, y0, t_end,
                                    tol=cfg.trajectories.tol,
                                    n_samples=cfg.trajectories.n_samples)
        em.write_csv(f"trajectory_{k:03d}.csv", {
            name: getattr(traj, name)
            for name in ("t_s", "y_cm", "vy_cm_s", "ay_field", "ay_numeric")})
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
    "simulate-trajectories": _cmd_simulate_trajectories,
    "valley-report": _cmd_valley_report,
    "spectrum": _cmd_spectrum,
    "table1": _cmd_table1,
    "detectability": _cmd_detectability,
    "compare": _cmd_compare,
}
SUBCOMMANDS = tuple(_HANDLERS)


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
