"""Quantile-map errors of every lane of a fixed set of benchmark ensembles.

    python scripts/lane_sweep.py SRC

Draws the 1,000 launches of each of the ``ensemble`` benchmark workload's
seeds 1-1040 and 1800-1899 (1,140,000 lanes), transports them to the
screen at the default tol with the package in SRC, and compares each
final with the exact 1-D quantile map of ``bench/oracle.py``, in fringe
spacings at the screen.  Prints how many lanes lie above 1e-6, 1e-5, 1e-4
and 1e-3 spacings (a failed lane counts above all of them), the median,
and the worst lanes with their seeds and launches.  A run takes about
4 minutes on one core.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (*range(1, 1041), *range(1800, 1900))
LANES = 1000  # bench/workloads.py's ENSEMBLE_LANES
THRESHOLDS = (1e-6, 1e-5, 1e-4, 1e-3)
WORST = 10


def _bench_oracle():
    path = ROOT / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python scripts/lane_sweep.py SRC", file=sys.stderr)
        return 2
    sys.path.insert(0, argv[0])
    from bohm_radiance import trajectories, wavefield
    from bohm_radiance.config import load_config

    oracle = _bench_oracle()
    cfg = load_config(None)
    exp, consts = cfg.experiment, cfg.consts
    t_end = exp.time_of_flight_s
    fringe = wavefield.fringe_spacing(exp, consts, exp.screen_distance_cm)
    launches, errors = [], []
    for seed in SEEDS:
        # the ensemble workload's op input for this benchmark seed
        draw_seed = int(np.random.SeedSequence(seed).generate_state(1)[0])
        y0 = trajectories.sample_initial_positions(exp, consts, LANES,
                                                   draw_seed)
        finals = trajectories.transport(exp, consts, y0, t_end)[:, -1]
        expected = oracle.quantile_map(exp, consts, y0, t_end)
        launches.append(y0)
        errors.append(np.abs(finals - expected) / fringe)
    launches, errors = np.concatenate(launches), np.concatenate(errors)
    errors[~np.isfinite(errors)] = np.inf
    print(f"{errors.size} lanes, tol {trajectories.DEFAULT_TOL:g}, "
          f"errors in fringe spacings at the screen")
    for threshold in THRESHOLDS:
        print(f"above {threshold:g}: {np.count_nonzero(errors > threshold)}")
    print(f"median: {np.median(errors):.3g}")
    for i in np.argsort(errors)[::-1][:WORST]:
        print(f"seed {SEEDS[i // LANES]} lane {i % LANES}: "
              f"y0 = {float(launches[i])!r} cm, error {errors[i]:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
