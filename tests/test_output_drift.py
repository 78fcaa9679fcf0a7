"""Unit tests of scripts/output_drift.py on small synthetic texts.

The byte-identity check of a refactor rests on this script; these tests
run its comparison functions directly, with no subprocess.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "scripts" / "output_drift.py"
SPEC = importlib.util.spec_from_file_location("output_drift", PATH)
od = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(od)

CSV = "y_cm,q_ev,flag\n-1e-05,2.5,ok\n0.0,nan,singular\n1e-05,2.5,ok\n"
DOC = {"n": 100, "ks": 0.0123, "valid": True, "notes": ["a"],
       "rows": [{"p_w": 3.27e-26}, {"p_w": 1.0e-25}]}


def test_identical_texts_report_no_drift():
    assert od.drift(od.csv_pairs(CSV, CSV)) == (0.0, "", 0.0)
    assert od.drift(od.json_pairs(DOC, DOC)) == (0.0, "", 0.0)


def test_csv_last_digit_change_reports_its_size():
    new = CSV.replace("1e-05,2.5,ok\n", "1e-05,2.5000000000000004,ok\n")
    worst, column, pointwise = od.drift(od.csv_pairs(CSV, new))
    assert column == "q_ev"
    assert worst == (2.5000000000000004 - 2.5) / 2.5
    assert 1e-16 < worst < 2e-16
    assert pointwise == worst


def test_json_last_digit_change_reports_its_size():
    new = json.loads(json.dumps(DOC))
    new["rows"][1]["p_w"] = 1.0000000000000002e-25
    worst, column, pointwise = od.drift(od.json_pairs(DOC, new))
    assert column == ".rows[].p_w"
    # relative to the column's peak, which is the changed value itself
    assert worst == (1.0000000000000002e-25 - 1.0e-25) / 1.0e-25
    assert 1e-16 < worst < 3e-16
    assert pointwise == worst


@pytest.mark.parametrize("new", [
    CSV.replace("0.0,nan,", "0.0,1.0,"),
    CSV.replace("y_cm,q_ev,", "y_cm,q,"),
    CSV.replace("1e-05,2.5,ok\n", "1e-05,2.5,ok,extra\n"),
], ids=["nan_to_number", "header", "cell_count"])
def test_csv_differences_beyond_numbers(new):
    with pytest.raises(od.NotNumeric):
        od.csv_pairs(CSV, new)


@pytest.mark.parametrize("change", [
    lambda d: d.update(extra=1),
    lambda d: d.update(valid=1),
], ids=["keys", "bool_to_number"])
def test_json_differences_beyond_numbers(change):
    new = json.loads(json.dumps(DOC))
    change(new)
    with pytest.raises(od.NotNumeric):
        od.json_pairs(DOC, new)


MANIFEST = {
    "schema": "bohm-radiance/output/v1", "kind": "manifest",
    "tool": "bohm-radiance", "version": "0.1.0", "subcommand": "table1",
    "constants": "paper", "mode": "simulation", "config_sha256": "ab" * 32,
    "created_utc": "2026-01-01T00:00:00+00:00", "status": "complete",
    "files": [{"path": "table1.json", "sha256": "cd" * 32, "bytes": 100}],
    "notes": [],
}


@pytest.mark.parametrize("change", [
    lambda d: d.update(created_utc="2026-01-02T00:00:00+00:00"),
    lambda d: d["files"][0].update(sha256="ef" * 32, bytes=101),
], ids=["created_utc", "file_checksum"])
def test_manifests_agree_up_to_time_and_checksums(change):
    new = json.loads(json.dumps(MANIFEST))
    change(new)
    assert od.manifest_differences(MANIFEST, new) == []


@pytest.mark.parametrize("change, keys", [
    (lambda d: d.update(config_sha256="00" * 32), ["config_sha256"]),
    (lambda d: d.update(status="incomplete"), ["status"]),
    (lambda d: d.update(notes=["NumericalError: no valleys"]), ["notes"]),
    (lambda d: d["files"][0].update(path="table1.csv"), ["files"]),
], ids=["config_sha256", "status", "note", "file_path"])
def test_manifests_differ_in_their_keys(change, keys):
    new = json.loads(json.dumps(MANIFEST))
    change(new)
    assert od.manifest_differences(MANIFEST, new) == keys
