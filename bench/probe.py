"""One set-up measurement: a fresh interpreter up to the first op being ready.

Imports the package (numpy, scipy, jsonschema), loads the schema-checked
default configuration and builds the experiment, then prints
"ready <import seconds>" on stdout.  run.py times it from process start.
"""

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

start = perf_counter()
from bohm_radiance import config, runner, trajectories  # noqa: E402,F401

import_s = perf_counter() - start
cfg = config.load_config(None)
consts = cfg.consts
print(f"ready {import_s!r}", flush=True)
