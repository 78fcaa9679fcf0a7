import hashlib
import json
import math
import subprocess
import sys
import tempfile
from itertools import repeat
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohm_radiance import runner, wavefield
from bohm_radiance.cli import main
from bohm_radiance.config import (
    DEFAULT_CONFIG,
    config_schema,
    load_config,
    output_schema,
)
from bohm_radiance.errors import ConfigError
from bohm_radiance.presets import PAPER_VALLEY_INPUTS
from bohm_radiance.radiance import ValleyInput
from bohm_radiance.runner import _Emitter, run
from bohm_radiance.trajectories import integrate_trajectory
from bohm_radiance.units import constants
from bohm_radiance.wavefield import (
    JONSSON_DEFAULTS,
    _polar,
    cross_section_scan,
    make_experiment,
)


def write_config(tmp_path, payload) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# loading and validation

def test_empty_config_yields_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, {}))
    assert cfg.constants_preset == "paper"
    assert cfg.mode == "reproduction"
    exp = cfg.experiment
    assert exp.slit_half_separation_cm == \
        JONSSON_DEFAULTS["slit_half_separation_cm"]
    assert exp.packet_width_cm == JONSSON_DEFAULTS["packet_width_cm"]
    assert exp.cross_section_x_cm == JONSSON_DEFAULTS["cross_section_x_cm"]
    assert len(cfg.valleys) == 4
    assert cfg.ensemble["n"] == DEFAULT_CONFIG["ensemble"]["n"]


def test_config_sections_are_constructor_keywords():
    # one name per input: a default section, passed through unchanged,
    # builds the default object
    cfg = load_config(None)
    assert make_experiment(constants("paper"),
                           **DEFAULT_CONFIG["experiment"]) == cfg.experiment
    assert tuple(ValleyInput(**v) for v in DEFAULT_CONFIG["valleys"]) \
        == PAPER_VALLEY_INPUTS == cfg.valleys


def test_config_sections_are_the_merged_dicts(quick_overrides):
    # the hashed sections are the ones the run reads
    cfg = load_config(None, quick_overrides)
    for name in ("ensemble", "scan", "trajectories"):
        assert getattr(cfg, name) is cfg.merged[name]
    assert cfg.scan == quick_overrides["scan"]


def test_no_config_file_same_as_empty(tmp_path):
    a = load_config(None)
    b = load_config(write_config(tmp_path, {}))
    assert a.sha256() == b.sha256()


def test_config_does_not_alias_defaults():
    cfg = load_config(None)
    assert cfg.trajectories["y0_list_cm"] == \
        DEFAULT_CONFIG["trajectories"]["y0_list_cm"]
    assert cfg.trajectories["y0_list_cm"] is not \
        DEFAULT_CONFIG["trajectories"]["y0_list_cm"]
    assert cfg.merged["valleys"] is not DEFAULT_CONFIG["valleys"]


def test_documented_preset_selects_reproduction(tmp_path):
    cfg = load_config(write_config(
        tmp_path, {"constants": "paper", "mode": "reproduction"}))
    assert cfg.mode == "reproduction"
    assert [v.grad_q_ev_per_cm for v in cfg.valleys] == \
        [9.66, 3.06, 0.93, 0.8]


def test_relativistic_energy_rejected(tmp_path):
    path = write_config(tmp_path,
                        {"experiment": {"kinetic_energy_eV": 200000}})
    with pytest.raises(ConfigError, match="non-relativistic"):
        load_config(path)


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ConfigError, match="schema"):
        load_config(write_config(tmp_path, {"grid": 12}))
    with pytest.raises(ConfigError, match="schema"):
        load_config(write_config(tmp_path,
                                 {"experiment": {"slit_width_cm": 1e-4}}))


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"constants": }', encoding="utf-8")
    with pytest.raises(ConfigError, match="line 1"):
        load_config(path)


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.json")


def test_valley_requires_exactly_one_of_dy_tau(tmp_path):
    bad = {"valleys": [{"grad_q_ev_per_cm": 1.0}]}
    with pytest.raises(ConfigError, match="exactly one"):
        load_config(write_config(tmp_path, bad))
    bad = {"valleys": [{"grad_q_ev_per_cm": 1.0, "dy_cm": 1e-5,
                        "tau_s": 1e-10}]}
    with pytest.raises(ConfigError, match="exactly one"):
        load_config(write_config(tmp_path, bad))


def test_forward_speed_consistency_enforced(tmp_path):
    # the speed is derived from kinetic_energy_eV, so the key is unknown,
    # even at the derived value
    v = load_config(None).experiment.forward_speed_cm_s
    for speed in (v, 1.0e10):
        bad = {"experiment": {"forward_speed_cm_s": speed}}
        with pytest.raises(ConfigError, match="forward_speed_cm_s"):
            load_config(write_config(tmp_path, bad))


def test_config_schema_is_valid_against_metaschema():
    jsonschema.Draft202012Validator.check_schema(config_schema())
    jsonschema.Draft202012Validator.check_schema(output_schema())


# ---------------------------------------------------------------------------
# runner outputs

def run_subcommand(tmp_path, sub, extra=None, overrides=None):
    over = dict(overrides or {})
    over["output_dir"] = str(tmp_path / sub)
    if extra:
        over.update(extra)
    cfg = load_config(None, over)
    manifest = run(sub, cfg)
    return cfg, manifest


ALL_SUBCOMMANDS = ["quantum-potential", "valley-report", "spectrum",
                   "table1", "detectability", "compare",
                   "simulate-trajectories"]


# reproduction-mode cases keep the bare subcommand as their id
MODE_CASES = [
    pytest.param(sub, mode,
                 id=sub if mode == "reproduction" else f"{sub}-{mode}")
    for mode in ("reproduction", "simulation") for sub in ALL_SUBCOMMANDS]


@pytest.mark.parametrize("sub, mode", MODE_CASES)
def test_subcommand_outputs_validate(tmp_path, sub, mode, quick_overrides):
    cfg, manifest = run_subcommand(tmp_path, sub, extra={"mode": mode},
                                   overrides=quick_overrides)
    assert manifest.status == "complete"
    out_dir = cfg.output_dir
    schema = output_schema()
    validator = jsonschema.Draft202012Validator(schema)
    json_files = sorted(out_dir.glob("*.json"))
    assert (out_dir / "manifest.json") in json_files
    for path in json_files:
        doc = json.loads(path.read_text(encoding="utf-8"))
        validator.validate(doc)
    # every listed file exists with the recorded checksum
    manifest_doc = json.loads((out_dir / "manifest.json").read_text())
    import hashlib
    for rec in manifest_doc["files"]:
        data = (out_dir / rec["path"]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == rec["sha256"]
        assert len(data) == rec["bytes"]


def test_quantum_potential_csv_header(tmp_path, quick_overrides):
    cfg, _ = run_subcommand(tmp_path, "quantum-potential",
                            overrides=quick_overrides)
    first = (cfg.output_dir / "quantum_potential.csv").read_text().splitlines()[0]
    assert first == "y_cm,t_s,R,S_eVs,Q_eV,gradQ_eV_per_cm,flag"


@pytest.mark.parametrize("sub, name, header", [
    ("spectrum", "spectrum.csv",
     "valley,grad_q_ev_per_cm,tau_s,delta_v_cm_s,power_w,omega_c_hz,"
     "lambda_c_cm,i0_ev_per_hz,photon_energy_j,photon_frequency_hz"),
    ("table1", "table1.csv",
     "valley,omega_c_hz,lambda_c_cm,i0_ev_per_hz,p_tonomura_w,p_jonsson_w,"
     "flag"),
    ("compare", "compare.csv",
     "valley,copenhagen_power_w,bdb_power_tonomura_w,bdb_power_jonsson_w"),
])
def test_emission_csv_header(tmp_path, quick_overrides, sub, name, header):
    # spectrum.csv's columns follow the SpectrumStep field order
    cfg, _ = run_subcommand(tmp_path, sub, overrides=quick_overrides)
    assert (cfg.output_dir / name).read_text().splitlines()[0] == header


def test_trajectory_csv_header(tmp_path, quick_overrides):
    cfg, _ = run_subcommand(tmp_path, "simulate-trajectories",
                            overrides=quick_overrides)
    first = (cfg.output_dir / "trajectory_001.csv").read_text().splitlines()[0]
    assert first == "t_s,y_cm,vy_cm_s,ay_field,ay_numeric"


def read_csv(path):
    header, *rows = (line.split(",")
                     for line in path.read_text().splitlines())
    return header, rows


def bits(values):
    """float64 bit patterns, so equality is bit for bit (sign of zero too)."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def parsed(column):
    return bits([float(cell) for cell in column])


def test_quantum_potential_csv_round_trip(tmp_path):
    # at 2 cm the default scan has singular rows next to finite ones
    cfg, _ = run_subcommand(tmp_path, "quantum-potential",
                            extra={"experiment": {"cross_section_x_cm": 2.0}})
    scan = cross_section_scan(cfg.experiment, cfg.consts, 2.0, **cfg.scan)
    singular = scan.singular
    assert singular.any() and not singular.all()
    r, s = _polar(cfg.consts, scan.psi)
    _, rows = read_csv(cfg.output_dir / "quantum_potential.csv")
    cols = list(zip(*rows))
    np.testing.assert_array_equal(parsed(cols[0]), bits(scan.y))
    np.testing.assert_array_equal(parsed(cols[1]),
                                  bits(np.full(len(rows), scan.t_s)))
    np.testing.assert_array_equal(parsed(cols[2]), bits(r))
    for row, sing in zip(rows, singular):
        if sing:
            assert row[3:] == ["nan", "nan", "nan", "singular"]
        else:
            assert row[6] == "ok"
    ok = ~singular
    for col, values in zip(cols[3:6], (s, scan.q, scan.grad_q)):
        np.testing.assert_array_equal(
            parsed(np.array(col)[ok]), bits(values[ok]))


def test_quantum_potential_is_one_kernel_pass(tmp_path, monkeypatch):
    # R and S come from the scan's own evaluation of psi, not a second one
    points = []
    kernel = wavefield._psi_derivs

    def counting(exp, consts, y, t):
        points.append(np.size(y))
        return kernel(exp, consts, y, t)

    monkeypatch.setattr(wavefield, "_psi_derivs", counting)
    cfg, _ = run_subcommand(tmp_path, "quantum-potential")
    assert points == [cfg.scan["n_samples"]]


def test_simulation_mode_builds_one_scan(tmp_path, monkeypatch,
                                        quick_overrides):
    # the field-derived valley inputs read the run's own scan
    calls = []

    def counting(exp, consts, x_cm, **kwargs):
        calls.append((x_cm, kwargs))
        return cross_section_scan(exp, consts, x_cm, **kwargs)

    monkeypatch.setattr(runner, "cross_section_scan", counting)
    cfg, _ = run_subcommand(tmp_path, "table1", extra={"mode": "simulation"},
                            overrides=quick_overrides)
    assert calls == [(cfg.experiment.cross_section_x_cm,
                      quick_overrides["scan"])]


def test_trajectory_csv_round_trip(tmp_path, quick_overrides):
    cfg, _ = run_subcommand(tmp_path, "simulate-trajectories",
                            overrides=quick_overrides)
    traj = integrate_trajectory(cfg.experiment, cfg.consts,
                                cfg.trajectories["y0_list_cm"][0],
                                cfg.ensemble["t_end_s"],
                                tol=cfg.trajectories["tol"],
                                n_samples=cfg.trajectories["n_samples"])
    header, rows = read_csv(cfg.output_dir / "trajectory_001.csv")
    for name, col in zip(header, zip(*rows)):
        np.testing.assert_array_equal(parsed(col), bits(getattr(traj, name)))


def reference_quantum_potential_csv(cfg, scan) -> str:
    """quantum_potential.csv built row by row, str of each cell."""
    r, s = _polar(cfg.consts, scan.psi)
    s, q, grad_q = (np.where(scan.singular, np.nan, a).tolist()
                    for a in (s, scan.q, scan.grad_q))
    flags = np.where(scan.singular, "singular", "ok").tolist()
    rows = zip(scan.y.tolist(), repeat(scan.t_s), r.tolist(),
               s, q, grad_q, flags)
    lines = ["y_cm,t_s,R,S_eVs,Q_eV,gradQ_eV_per_cm,flag"]
    lines.extend(",".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("x_cm", [None, 2.0], ids=["default", "2cm"])
def test_quantum_potential_csv_bytes(tmp_path, x_cm):
    # 2 cm has singular rows; the manifest holds the checksum of the bytes
    extra = {"experiment": {"cross_section_x_cm": x_cm}} if x_cm else None
    cfg, manifest = run_subcommand(tmp_path, "quantum-potential", extra=extra)
    scan = cross_section_scan(cfg.experiment, cfg.consts,
                              cfg.experiment.cross_section_x_cm, **cfg.scan)
    data = (cfg.output_dir / "quantum_potential.csv").read_bytes()
    assert data == reference_quantum_potential_csv(cfg, scan).encode("utf-8")
    assert manifest.files == [{"path": "quantum_potential.csv",
                               "sha256": hashlib.sha256(data).hexdigest(),
                               "bytes": len(data)}]


SPECIAL_FLOATS = [0.0, math.inf, math.nan, 5e-324, 2.0**-1030,
                  2.2250738585072014e-308, 1.0, 0.1, 1e16, 1e-5]


@st.composite
def csv_columns(draw):
    """Float64 columns drawn from a few magnitudes with a random sign bit
    per cell, so values repeat and appear exactly negated (NaN too), and
    one column of ints at a random place."""
    pool = draw(st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(),
                         min_size=1, max_size=6))
    n_rows = draw(st.integers(1, 20))
    cell = st.builds(math.copysign, st.sampled_from(pool),
                     st.sampled_from([1.0, -1.0]))
    columns = {f"f{k}": np.array(draw(st.lists(cell, min_size=n_rows,
                                               max_size=n_rows)))
               for k in range(draw(st.integers(1, 4)))}
    names = list(columns)
    names.insert(draw(st.integers(0, len(names))), "row")
    columns["row"] = list(range(n_rows))
    return {name: columns[name] for name in names}


@settings(deadline=None)
@given(columns=csv_columns())
def test_csv_cells_are_str_of_each_value(tmp_path_factory, columns):
    out = tmp_path_factory.getbasetemp() / "csv_cells"
    out.mkdir(exist_ok=True)
    path = _Emitter(out).write_csv("cells.csv", columns)
    header, *rows = (line.split(",")
                     for line in path.read_text().splitlines())
    assert header == list(columns)
    for name, cells in zip(header, zip(*rows)):
        values = columns[name]
        if isinstance(values, np.ndarray):
            values = values.tolist()
        assert list(cells) == [str(v) for v in values]


def test_compare_copenhagen_column_zero(tmp_path, quick_overrides):
    cfg, _ = run_subcommand(tmp_path, "compare", overrides=quick_overrides)
    lines = (cfg.output_dir / "compare.csv").read_text().splitlines()
    assert lines[0].split(",")[1] == "copenhagen_power_w"
    for line in lines[1:]:
        assert line.split(",")[1] == "0.0"
    doc = json.loads((cfg.output_dir / "compare.json").read_text())
    assert all(row["copenhagen_power_w"] == 0.0 for row in doc["rows"])
    assert doc["ensemble_mean_power_w"] < 1e-40


def test_table1_row4_flagged(tmp_path, quick_overrides):
    cfg, _ = run_subcommand(tmp_path, "table1", overrides=quick_overrides)
    doc = json.loads((cfg.output_dir / "table1.json").read_text())
    flags = {row["valley"]: row["flag"] for row in doc["rows"]}
    assert flags[1] == "" and flags[2] == "" and flags[3] == ""
    assert "1.25e-20" in flags[4]


def _assert_one_printed_power(out, subs=("compare", "detectability")):
    """The powers that the ``subs`` print in ``out`` (one directory per
    subcommand) are those that table1 prints there, to the bit."""
    def doc(sub):
        return json.loads((out / sub / f"{sub}.json").read_text())

    table1 = doc("table1")["rows"]
    if "compare" in subs:
        compare = doc("compare")["rows"]
        assert [r["bdb_power_tonomura_w"] for r in compare] == \
            [r["p_tonomura_w"] for r in table1]
        assert [r["bdb_power_jonsson_w"] for r in compare] == \
            [r["p_jonsson_w"] for r in table1]
    if "detectability" in subs:
        assert doc("detectability")["scaled_power_w"] == \
            table1[0]["p_jonsson_w"]


def test_one_printed_power_per_valley(tmp_path):
    # at 10.875 eV/cm, p * 1e3 / 1e3 is not p: the Tonomura power that
    # compare prints must be the one that table1 prints, to the bit
    valleys = [{"index": 1, "grad_q_ev_per_cm": 10.875, "tau_s": 2.8e-11,
                "v0_cm_per_s": 15000.0}]
    for sub in ("table1", "compare", "detectability"):
        run_subcommand(tmp_path, sub, extra={"valleys": valleys})
    table1 = json.loads((tmp_path / "table1" / "table1.json").read_text())
    assert table1["rows"][0]["p_tonomura_w"] == 4.1314974963923786e-25
    _assert_one_printed_power(tmp_path)


@pytest.mark.parametrize("sub", ALL_SUBCOMMANDS)
def test_deterministic_reruns(tmp_path, sub, quick_overrides):
    import hashlib

    def digest_map(out_dir):
        out = {}
        for path in sorted(out_dir.iterdir()):
            if path.name == "manifest.json":
                continue
            out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        return out

    cfg_a, man_a = run_subcommand(tmp_path / "a", sub,
                                  overrides=quick_overrides)
    cfg_b, man_b = run_subcommand(tmp_path / "b", sub,
                                  overrides=quick_overrides)
    # identical data bytes, identical manifests modulo timestamp and paths
    assert digest_map(cfg_a.output_dir) == digest_map(cfg_b.output_dir)
    da, db = man_a.as_dict(), man_b.as_dict()
    da.pop("created_utc"), db.pop("created_utc")
    assert da["config_sha256"] != db["config_sha256"]  # out dirs differ
    da.pop("config_sha256"), db.pop("config_sha256")
    assert da == db


def test_same_config_same_hash(tmp_path, quick_overrides):
    over = dict(quick_overrides)
    over["output_dir"] = str(tmp_path / "same")
    a = load_config(None, over)
    b = load_config(None, over)
    assert a.sha256() == b.sha256()


def test_incomplete_manifest_on_failure(tmp_path):
    # a valley with zero gradient, zero entry speed, and a width cannot be
    # traversed: the spectrum handler fails and the manifest records it
    over = {
        "valleys": [{"grad_q_ev_per_cm": 0.0, "dy_cm": 1e-5,
                     "v0_cm_per_s": 0.0}],
        "output_dir": str(tmp_path / "broken"),
    }
    cfg = load_config(None, over)
    with pytest.raises(Exception):
        run("spectrum", cfg)
    doc = json.loads((cfg.output_dir / "manifest.json").read_text())
    assert doc["status"] == "incomplete"
    assert doc["notes"]


# ---------------------------------------------------------------------------
# CLI exit codes

def test_cli_success(tmp_path, capsys):
    code = main(["table1", "--out", str(tmp_path / "ok")])
    assert code == 0
    assert "manifest.json" in capsys.readouterr().out


def test_cli_runs_without_scipy(tmp_path):
    # no module of the package imports SciPy at run time: a fresh
    # interpreter that imports the package, runs table1 and integrates
    # single paths and an ensemble never loads it
    src = Path(__file__).resolve().parents[1] / "src"
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(src)!r})",
        "from bohm_radiance import (cli, config, radiance, runner,",
        "                           trajectories, wavefield)",
        f"codes = [cli.main(['table1', '--out', {str(tmp_path / 'a')!r}]),",
        "         cli.main(['simulate-trajectories', '--n', '100',",
        "                   '--t-end', '5e-10',",
        f"                   '--out', {str(tmp_path / 'b')!r}])]",
        "print(codes, sorted(m for m in sys.modules",
        "                    if m == 'scipy' or m.startswith('scipy.')))",
    ])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0] []"
    assert list((tmp_path / "b").glob("trajectory_*.csv"))


def test_cli_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"constants": "bohr"}', encoding="utf-8")
    code = main(["table1", "--config", str(bad),
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_numerical_error(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "valleys": [{"grad_q_ev_per_cm": 0.0, "dy_cm": 1e-5,
                     "v0_cm_per_s": 0.0}],
    }), encoding="utf-8")
    code = main(["spectrum", "--config", str(cfgfile),
                 "--out", str(tmp_path / "y")])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["spectrum", "table1", "detectability",
                                 "compare"])
@pytest.mark.parametrize("valley, code, note", [
    ({"grad_q_ev_per_cm": 1e200, "tau_s": 2.8e-11}, 3,
     "valley 1: power_w is inf"),
    ({"grad_q_ev_per_cm": 3.06, "tau_s": 5e-324}, 3,
     "valley 1: omega_c_hz is inf"),
    ({"grad_q_ev_per_cm": 1e150, "tau_s": 2.8e-11}, 0, None),
    # v0^2 + 2 a dy overflows, while tau (1e-205 and 1.9e142 s) does not
    ({"grad_q_ev_per_cm": 3.06, "dy_cm": 1e-5, "v0_cm_per_s": 1e200}, 0,
     None),
    ({"grad_q_ev_per_cm": 3.06, "dy_cm": 1e300, "v0_cm_per_s": 0}, 0, None),
    # tau = dy / v0 = 1e-600 underflows
    ({"grad_q_ev_per_cm": 3.06, "dy_cm": 1e-300, "v0_cm_per_s": 1e300}, 3,
     "valley 1: tau_s is 0.0"),
    # a = grad Q / m overflows, which is named before tau is computed
    ({"grad_q_ev_per_cm": 1e300, "dy_cm": 1e300, "v0_cm_per_s": 1e300}, 3,
     "valley 1: acceleration_cm_s2 is inf"),
    ({"grad_q_ev_per_cm": 1e300, "tau_s": 2.8e-11, "v0_cm_per_s": 1e300},
     3, "valley 1: acceleration_cm_s2 is inf"),
    # v0^2 + 2 a dy underflows to 0 or a subnormal; tau is 1e195, 1e160
    # and 3.3e-8 s
    ({"grad_q_ev_per_cm": 0.0, "dy_cm": 1e-5, "v0_cm_per_s": 1e-200}, 0,
     None),
    ({"grad_q_ev_per_cm": 0.0, "dy_cm": 1.0, "v0_cm_per_s": 1e-160}, 0,
     None),
    ({"grad_q_ev_per_cm": 1e-300, "dy_cm": 1e-300, "v0_cm_per_s": 0}, 0,
     None),
], ids=["grad_q_1e200", "tau_5e-324", "grad_q_1e150", "v0_1e200",
        "dy_1e300", "tau_underflow", "accel_inf_dy", "accel_inf_tau",
        "v0_1e-200", "v0_1e-160", "disc_underflow"])
def test_cli_overflowing_valley(tmp_path, capsys, sub, valley, code, note):
    # a step whose power or cutoff overflows is a numerical failure with
    # the field named, not a traceback from json.dumps or collision_time
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"valleys": [
        {"index": 1, "v0_cm_per_s": 15000.0, **valley}]}), encoding="utf-8")
    out = tmp_path / "out"
    assert main([sub, "--config", str(cfgfile), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    status = json.loads((out / "manifest.json").read_text())["status"]
    if note is None:
        assert status == "complete"
    else:
        assert status == "incomplete"
        assert note in err


# 0, or a magnitude from 1e-300 to 1e300, spread evenly in its exponent,
# with both ends drawn often
MAGNITUDE = st.sampled_from([0.0, 1e-300, 1e300]) \
    | st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


@st.composite
def valley_configs(draw):
    """Schema-valid reproduction-mode valleys: a gradient, an optional
    entry speed, and a wall width or a traversal time."""
    valleys = []
    for _ in range(draw(st.integers(1, 3))):
        valley = {"grad_q_ev_per_cm": draw(MAGNITUDE)}
        if draw(st.booleans()):
            valley["v0_cm_per_s"] = draw(MAGNITUDE)
        key = draw(st.sampled_from(["dy_cm", "tau_s"]))
        valley[key] = draw(MAGNITUDE.filter(lambda v: v > 0.0))
        valleys.append(valley)
    return {"valleys": valleys}


def _reject_non_finite(name):
    raise AssertionError(f"non-finite JSON constant {name}")


# 150 examples of 4 subcommands each take about 10 s on 2 cores; the
# examples are the same on every run
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(payload=valley_configs())
def test_valley_inputs_keep_the_exit_code_contract(payload):
    # any schema-valid valleys give exit 0 or 3 with a manifest, no JSON
    # output holds NaN or Infinity, and the subcommands that exit 0 print
    # each power from one source
    with tempfile.TemporaryDirectory() as tmp:
        cfgfile = Path(tmp) / "cfg.json"
        cfgfile.write_text(json.dumps(payload), encoding="utf-8")
        codes = {}
        for sub in ("spectrum", "table1", "detectability", "compare"):
            out = Path(tmp) / sub
            code = main([sub, "--config", str(cfgfile), "--out", str(out)])
            assert code in (0, 3)
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["status"] == ("complete" if code == 0
                                          else "incomplete")
            for doc in out.glob("*.json"):
                json.loads(doc.read_text(), parse_constant=_reject_non_finite)
            codes[sub] = code
        if codes["table1"] == 0:
            _assert_one_printed_power(Path(tmp), [
                sub for sub in ("compare", "detectability")
                if codes[sub] == 0])


# (id, experiment overrides, exception the CLI names): packet_width_cm**2
# overflows or underflows in the spreading parameter, and a 1e200 cm slit
# separation overflows a NumPy product of the field
# (id, experiment, exception, the function it is raised in)
ARITHMETIC_FAULTS = [
    ("1e+160", {"packet_width_cm": 1e160}, "OverflowError",
     "wavefield.spreading_parameter"),
    ("1e-200", {"packet_width_cm": 1e-200}, "ZeroDivisionError",
     "wavefield.spreading_parameter"),
    ("separation-1e+200", {"slit_half_separation_cm": 1e200},
     "FloatingPointError", "wavefield._psi_derivs"),
]
# (subcommand, mode); reproduction-mode spectrum, table1 and
# detectability read no geometry
FAULT_RUNS = [
    *((sub, "reproduction") for sub in (
        "quantum-potential", "valley-report", "compare",
        "simulate-trajectories")),
    *((sub, "simulation") for sub in (
        "quantum-potential", "valley-report", "spectrum", "table1",
        "detectability", "compare")),
]


# at the 1e200 separation a single path ends on its evaluation budget
# instead (test_cli_path_with_an_overflowing_error_norm)
@pytest.mark.parametrize("experiment, error, site, sub, mode", [
    pytest.param(experiment, error, site, sub, mode,
                 id=f"{name}-{error}-{sub}"
                 + ("-simulation" if mode == "simulation" else ""))
    for name, experiment, error, site in ARITHMETIC_FAULTS
    for sub, mode in FAULT_RUNS
    if (error, sub) != ("FloatingPointError", "simulate-trajectories")])
def test_cli_arithmetic_error_is_numerical_failure(tmp_path, capsys,
                                                   experiment, error, site,
                                                   sub, mode):
    # exit 3 naming the exception and where it was raised, not a
    # traceback, also where NumPy would only warn
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"experiment": experiment}),
                       encoding="utf-8")
    out = tmp_path / "out"
    assert main([sub, "--config", str(cfgfile), "--out", str(out),
                 "--mode", mode, "--n", "100", "--t-end", "5e-10"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"numerical failure: {error}" in err
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["status"] == "incomplete"
    # stderr prints the manifest's note
    (note,) = doc["notes"]
    assert note.startswith(f"{error}: ")
    assert note.endswith(f" (in {site})")
    assert err == f"numerical failure: {note}\n"


def test_cli_ensemble_without_a_finite_lane(tmp_path, capsys, monkeypatch):
    # a closed form that is NaN on arrays fails every ensemble lane, while a
    # single path's right-hand side, on floats, still runs: exit 3 naming
    # the count, not a traceback from the KS distance of no finals
    closed_form_args = wavefield._closed_form_args

    def nan_on_arrays(exp, consts, y, t):
        if type(y) is not float:
            y = np.full(np.shape(y), np.nan)
        return closed_form_args(exp, consts, y, t)

    monkeypatch.setattr(wavefield, "_closed_form_args", nan_on_arrays)
    out = tmp_path / "out"
    assert main(["simulate-trajectories", "--out", str(out), "--n", "100",
                 "--t-end", "5e-10", "--y0-list", "4.9e-5"]) == 3
    message = "all 100 trajectories failed to propagate"
    assert f"numerical failure: {message}" in capsys.readouterr().err
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["status"] == "incomplete"
    assert doc["notes"] == [f"NumericalError: {message}"]
    assert [f["path"] for f in doc["files"]] == ["trajectory_001.csv"]


def test_cli_io_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory", encoding="utf-8")
    code = main(["table1", "--out", str(blocker / "sub")])
    assert code == 4
    assert "i/o error" in capsys.readouterr().err


def test_cli_flag_overrides(tmp_path):
    out = tmp_path / "modern"
    code = main(["table1", "--constants", "modern", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "table1.json").read_text())
    assert doc["constants"] == "modern"


def test_cli_y0_list_parsing(tmp_path):
    out = tmp_path / "trajs"
    code = main(["simulate-trajectories", "--out", str(out),
                 "--n", "100", "--seed", "3", "--t-end", "5e-10",
                 "--y0-list", "4.9e-5,5.1e-5"])
    assert code == 0
    assert (out / "trajectory_002.csv").exists()
    summary = json.loads((out / "ensemble_summary.json").read_text())
    assert summary["n"] == 100
    assert summary["seed"] == 3


def test_cli_negative_y0_list_with_equals(tmp_path):
    # "--y0-list -4.9e-5,4.9e-5" is a usage error: argparse takes a value
    # that starts with "-" and is not a plain number for an option.  The
    # "=" form carries it.
    out = tmp_path / "trajs"
    code = main(["simulate-trajectories", "--out", str(out),
                 "--n", "100", "--t-end", "5e-10",
                 "--y0-list=-4.9e-5,4.9e-5"])
    assert code == 0
    first = (out / "trajectory_001.csv").read_text().splitlines()[1]
    second = (out / "trajectory_002.csv").read_text().splitlines()[1]
    assert first.split(",")[1] == "-4.9e-05"
    assert second.split(",")[1] == "4.9e-05"


@pytest.mark.parametrize("argv, payload, path", [
    (["simulate-trajectories", "--t-end", "nan"], None,
     "$.ensemble.t_end_s"),
    (["spectrum"], {"valleys": [{"grad_q_ev_per_cm": float("nan"),
                                 "tau_s": 1e-11}]},
     "$.valleys[0].grad_q_ev_per_cm"),
    (["spectrum"], {"valleys": [{"grad_q_ev_per_cm": float("inf"),
                                 "tau_s": 1e-11}]},
     "$.valleys[0].grad_q_ev_per_cm"),
    (["table1"], {"experiment": {"packet_width_cm": float("nan")}},
     "$.experiment.packet_width_cm"),
], ids=["t_end_flag", "grad_q_nan", "grad_q_inf", "packet_width_nan"])
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, argv, payload,
                                        path):
    # json.loads reads NaN and Infinity, argparse reads "nan", and schema
    # bounds let NaN through
    argv = argv + ["--out", str(tmp_path / "out")]
    if payload is not None:
        argv += ["--config", str(write_config(tmp_path, payload))]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and path in err
    assert "Traceback" not in err


@pytest.mark.parametrize("sub, payload, path", [
    ("simulate-trajectories",
     {"trajectories": {"tol": 1.0}, "ensemble": {"n": 100}},
     "$.trajectories.tol"),
    ("quantum-potential", {"scan": {"n_samples": 1000}}, "$.scan.n_samples"),
], ids=["tol-of-one", "even-scan-samples"])
def test_cli_refuses_a_setting_out_of_its_bounds(tmp_path, capsys, sub,
                                                 payload, path):
    # an rtol of 1 bounds no error, and an even scan count would give one
    # row more than asked for
    out = tmp_path / "out"
    assert main([sub, "--config", str(write_config(tmp_path, payload)),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and path in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_refuses_an_end_time_past_the_screen(tmp_path, capsys):
    # the default screen is reached at 2.78e-9 s
    out = tmp_path / "out"
    assert main(["simulate-trajectories", "--out", str(out),
                 "--t-end", "5.6e-9"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "ensemble.t_end_s" in err
    assert "time of flight" in err
    assert not out.exists()


def test_end_time_at_the_screen_is_accepted():
    t_flight = load_config(None).experiment.time_of_flight_s
    cfg = load_config(None, {"ensemble": {"t_end_s": t_flight}})
    assert cfg.ensemble["t_end_s"] == t_flight
    with pytest.raises(ConfigError, match="ensemble.t_end_s"):
        load_config(None, {"ensemble": {"t_end_s": 1.000001 * t_flight}})


def test_integrate_trajectory_rejects_nan_t_end(exp, paper):
    with pytest.raises(ConfigError, match="t_end"):
        integrate_trajectory(exp, paper, 4.9e-5, float("nan"))
