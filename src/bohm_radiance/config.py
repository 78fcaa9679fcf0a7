"""Run configuration: schema-validated JSON in, the run's objects out.

An empty config file (or none at all) yields the calibrated 45 keV
two-slit defaults with the paper constant preset and the four quoted
valley inputs.  Unknown keys are rejected; physical invariants of the
embedded types are enforced on load, and an ensemble end time may not
pass the screen.  The ``ensemble``, ``scan`` and ``trajectories``
sections stay the merged config's dicts, the ones its hash covers.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path

import jsonschema

from .errors import ConfigError
from .presets import PAPER_VALLEY_INPUTS
from .radiance import ValleyInput
from .trajectories import DEFAULT_PATH_SAMPLES, DEFAULT_TOL
from .units import PhysicalConstants, constants
from .wavefield import JONSSON_DEFAULTS, SlitExperiment, make_experiment

OUTPUT_SCHEMA_ID = "bohm-radiance/output/v1"

DEFAULT_CONFIG: dict = {
    "constants": "paper",
    "mode": "reproduction",
    # a config section holds its constructor's keywords
    "experiment": dict(JONSSON_DEFAULTS),
    "valleys": [{key: value for key, value in asdict(v).items()
                 if value is not None} for v in PAPER_VALLEY_INPUTS],
    "ensemble": {"n": 1000, "seed": 20210905, "t_end_s": None},
    "scan": {"y_half_range_cm": 8.0e-4, "n_samples": 16385},
    "trajectories": {"y0_list_cm": [4.9e-5, 5.1e-5],
                     "n_samples": DEFAULT_PATH_SAMPLES, "tol": DEFAULT_TOL},
    "output_dir": "out",
}


def _load_schema(name: str) -> dict:
    ref = resources.files("bohm_radiance").joinpath("schema").joinpath(name)
    return json.loads(ref.read_text(encoding="utf-8"))


def config_schema() -> dict:
    return _load_schema("run_config.schema.json")


def output_schema() -> dict:
    return _load_schema("outputs.schema.json")


@dataclass(frozen=True)
class RunConfig:
    constants_preset: str
    mode: str
    experiment: SlitExperiment
    valleys: tuple[ValleyInput, ...]
    # the merged config's own section dicts
    ensemble: dict
    scan: dict
    trajectories: dict
    output_dir: Path
    merged: dict = field(repr=False, default_factory=dict)

    @property
    def consts(self) -> PhysicalConstants:
        return constants(self.constants_preset)

    def sha256(self) -> str:
        """Hash of the fully merged configuration (timestamp-free)."""
        canon = json.dumps(self.merged, sort_keys=True,
                           separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def _non_finite(node, path: str = "$"):
    """JSON paths of the NaN and infinite floats in a config tree."""
    if isinstance(node, float) and not math.isfinite(node):
        yield path
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from _non_finite(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _non_finite(value, f"{path}[{i}]")


def _build_valley(raw: dict, position: int) -> ValleyInput:
    try:
        return ValleyInput(**{"index": position, **raw})
    except ConfigError as exc:
        raise ConfigError(f"valleys[{position - 1}]: {exc}") from None


def load_config(path: str | Path | None = None,
                overrides: dict | None = None) -> RunConfig:
    """Read, validate, and materialize a run configuration.

    ``overrides`` (CLI flags) are merged on top of the file contents,
    which are merged on top of the defaults.  Every layer must satisfy
    the published schema; unknown keys are rejected.
    """
    user: dict = {}
    if path is not None:
        p = Path(path)
        try:
            text = p.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {p}: {exc}") from None
        try:
            user = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config file {p} is not valid JSON "
                f"(line {exc.lineno}, column {exc.colno}): {exc.msg}"
            ) from None
        if not isinstance(user, dict):
            raise ConfigError(f"config file {p} must hold a JSON object")
    # a copy, so no part of a RunConfig aliases the defaults
    merged = _deep_merge(copy.deepcopy(DEFAULT_CONFIG), user)
    if overrides:
        merged = _deep_merge(merged, overrides)
    # JSON and argparse both accept NaN and Infinity, and schema bounds
    # let NaN through
    bad = next(_non_finite(merged), None)
    if bad is not None:
        raise ConfigError(f"config value at {bad} is not a finite number")

    schema = config_schema()
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(merged), key=lambda e: e.json_path)
    if errors:
        first = errors[0]
        raise ConfigError(
            f"config violates schema at {first.json_path}: {first.message}")

    consts = constants(merged["constants"])
    try:
        experiment = make_experiment(consts, **merged["experiment"])
    except ConfigError as exc:
        raise ConfigError(f"experiment: {exc}") from None

    t_end = merged["ensemble"]["t_end_s"]
    if t_end is not None and t_end > experiment.time_of_flight_s:
        raise ConfigError(
            f"ensemble.t_end_s = {t_end:g} s passes the screen: the time "
            f"of flight is {experiment.time_of_flight_s:g} s")

    valleys = tuple(_build_valley(v, i + 1)
                    for i, v in enumerate(merged["valleys"]))
    return RunConfig(
        constants_preset=merged["constants"],
        mode=merged["mode"],
        experiment=experiment,
        valleys=valleys,
        ensemble=merged["ensemble"],
        scan=merged["scan"],
        trajectories=merged["trajectories"],
        output_dir=Path(merged["output_dir"]),
        merged=merged,
    )
