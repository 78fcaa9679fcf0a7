"""Benchmark of the bohm-radiance desk calculator, measured from outside.

    python3 bench/run.py --workload ensemble|desk \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The load is a closed loop with one client: the next op starts
only after the previous one returns.  A workload's fixed list of ops (a
"pass", see workloads.py) is repeated until S seconds of ops have run.
Every op is followed, untimed, by its correctness gates.

With ``--trace 0`` the end-to-end metrics are reported:

    wall_s       mean time of one pass (the ops' latencies summed over
                 the run, divided by the passes)
    op_p50_ms    median op latency
    op_tail_ms   latency at the highest percentile with at least ten ops
                 beyond it (the maximum when a run has too few ops for
                 that to be at or above the median)
    setup_s      median of several fresh-interpreter set-ups (probe.py)
    peak_rss_mb  peak resident memory of this process
    ok_ratio     ops that passed every gate / ops attempted

With ``--trace 1`` passes run in pairs, untraced then traced on the same
inputs, and the per-layer metrics of tracing.py are reported (medians
over the traced passes), with ``trace.overhead_s`` the traced minus the
untraced pass time.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it print
every metric by name with its unit, the environment and the output
fingerprint: a sha256 over the manifests' data-file checksums or the
bytes of the final positions, equal across passes and across runs with
the same seed.  A full record, spans included, is written to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
TAIL_MIN_BEYOND = 10
MAX_REPORTED_FAILURES = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- set-up -------------------------------------------------------------------

def measure_setup() -> tuple[list[float], list[float]]:
    """Wall time from spawning a fresh interpreter to "ready", per probe,
    and the import time each probe reports."""
    walls, imports = [], []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH / "probe.py")],
                                stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            walls.append(perf_counter() - start)
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line.startswith("ready "):
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        imports.append(float(line.split()[1]))
    return walls, imports


# -- passes -------------------------------------------------------------------

class PassResult:
    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.digest = hashlib.sha256()
        self.max_measured: dict[str, float] = {}

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_pass(workload, inputs, tracer=None, failures=None) -> PassResult:
    res = PassResult()
    for op_id, inp in enumerate(inputs):
        if tracer is not None:
            tracer.op = op_id
        start = perf_counter()
        try:
            out = workload.op(inp)
        except Exception:
            res.latencies.append(perf_counter() - start)
            res.failed += 1
            if failures is not None:
                failures.append(f"op {op_id} raised:\n{traceback.format_exc()}")
            continue
        res.latencies.append(perf_counter() - start)
        try:
            verdict = workload.check(inp, out)
        except Exception:
            res.failed += 1
            if failures is not None:
                failures.append(f"op {op_id} check raised:\n"
                                f"{traceback.format_exc()}")
            continue
        finally:
            del out
        res.digest.update(verdict.digest)
        if not verdict.ok:
            res.failed += 1
            if failures is not None:
                failures.append(f"op {op_id} failed its gates: "
                              f"{verdict.reason}")
        for name, value in verdict.measured.items():
            res.max_measured[name] = max(res.max_measured.get(name, 0.0),
                                         value)
    return res


def tail_latency(latencies: list[float]) -> tuple[float, int, int]:
    """(value, percentile, ops beyond) at the highest whole percentile
    with at least TAIL_MIN_BEYOND ops beyond it (nearest rank); the
    maximum where no such percentile reaches the median."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_MIN_BEYOND:
            return ordered[rank - 1], p, n - rank
    return ordered[-1], 100, 0


# -- environment ----------------------------------------------------------------

def _cpu_info() -> dict:
    info = {"model": platform.processor() or "unknown", "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name":
                info["model"] = value.strip()
                break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level}-{kind}"] = \
                (index / "size").read_text().strip()
        except OSError:
            continue
    return info


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "jsonschema": version("jsonschema"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_info(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- main -----------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bohm_radiance" / "__init__.py").is_file():
        print(f"no bohm_radiance package under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    try:
        setup_walls, setup_imports = measure_setup()
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2

    import workloads  # imports the package from SRC

    work_dir = BENCH / ".work" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        try:
            workload = workloads.make(args.workload, work_dir)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        inputs = workload.inputs(args.seed)
        record = measure(workload, inputs, args.seconds, args.trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    record["setup"] = {"probe_wall_s": setup_walls,
                       "probe_import_s": setup_imports}
    record["environment"] = environment(args)
    return report(args, record)


def measure(workload, inputs, seconds: float, trace: int) -> dict:
    """Repeat passes until ``seconds`` of ops have run; with ``trace``,
    each untraced pass is followed by a traced one."""
    failures: list[str] = []
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    layers: list[dict] = []
    spans: list[list] = []
    missing: set[str] = set()
    elapsed = 0.0
    while not plain or elapsed < seconds:
        plain.append(run_pass(workload, inputs, failures=failures))
        elapsed += plain[-1].wall
        if trace:
            tracer = tracing.Tracer()
            with tracer:
                traced.append(run_pass(workload, inputs, tracer, failures))
            elapsed += traced[-1].wall
            layers.append(tracing.layer_metrics(tracer))
            spans.extend([len(traced) - 1, *s.as_list()]
                         for s in tracer.spans)
            missing.update(tracer.missing)
    return {"plain": plain, "traced": traced, "layers": layers,
            "spans": spans, "missing": sorted(missing),
            "failures": failures}


def report(args, record) -> int:
    """Print the metrics and the result line; write the full record."""
    passes = record["plain"] + record["traced"]
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    fingerprints = sorted({p.digest.hexdigest() for p in passes})
    consistent = len(fingerprints) == 1
    measured = {}
    for p in passes:
        for name, value in p.max_measured.items():
            measured[name] = max(measured.get(name, 0.0), value)

    plain = record["plain"]
    latencies = [t for p in plain for t in p.latencies]
    tail, tail_p, beyond = tail_latency(latencies)
    pass_wall = statistics.fmean(p.wall for p in plain)
    if args.trace:
        units = load_units("per_layer")
        metrics = {name: statistics.median(layer[name]
                                           for layer in record["layers"])
                   for name in record["layers"][0]}
        metrics["setup.import_s"] = statistics.median(
            record["setup"]["probe_import_s"])
        metrics["trace.overhead_s"] = statistics.fmean(
            p.wall for p in record["traced"]) - pass_wall
        metrics["trace.missing"] = len(record["missing"])
        for name in ("path_err_fringes", "accel_rel_err"):
            metrics[f"trajectories.{name}"] = measured.get(name, 0.0)
    else:
        units = load_units("end_to_end")
        metrics = {
            "wall_s": pass_wall,
            "op_p50_ms": 1.0e3 * statistics.median(latencies),
            "op_tail_ms": 1.0e3 * tail,
            "setup_s": statistics.median(record["setup"]["probe_wall_s"]),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": (attempted - failed) / attempted,
        }
    metrics = {name: metrics[name] for name in units}

    env = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(plain)}  ops {attempted}  failed {failed}")
    print(f"python {env['python']}  numpy {env['numpy']}  scipy "
          f"{env['scipy']}  jsonschema {env['jsonschema']}  nproc "
          f"{env['nproc']}  cpu {env['cpu']['model']}  commit "
          f"{env['git_commit'][:12]}")
    for name, value in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{tail_p} of {len(latencies)} ops, {beyond} beyond)"
        print(f"{name:34s} {value:.6g} {units[name]}{note}")
    for name, value in measured.items():
        print(f"{name} (max over the run)".ljust(34) + f" {value:.3e}")
    if record["missing"]:
        print("missing from the program: " + ", ".join(record["missing"]))
    print(f"fingerprint {fingerprints[0] if consistent else 'INCONSISTENT'}")
    for line in record["failures"][:MAX_REPORTED_FAILURES]:
        print(line, file=sys.stderr)
    if not consistent:
        print(f"passes gave {len(fingerprints)} different fingerprints",
              file=sys.stderr)

    correct = failed == 0 and consistent
    write_record(args, record, metrics, units, {
        "fingerprint": fingerprints, "max_measured": measured,
        "op_tail": {"percentile": tail_p, "ops": len(latencies),
                    "beyond": beyond},
        "pass_walls_s": [p.wall for p in plain],
        "op_latencies_s": [p.latencies for p in plain],
        "traced_pass_walls_s": [p.wall for p in record["traced"]],
    })
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def load_units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def write_record(args, record, metrics, units, extra) -> None:
    out = BENCH / "results"
    out.mkdir(exist_ok=True)
    doc = {
        "environment": record["environment"],
        "setup": record["setup"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "layers_per_traced_pass": record["layers"],
        "missing": record["missing"],
        "failures": record["failures"],
        "span_fields": ["traced_pass", "name", "start", "end", "parent",
                        "op", "counts", "kernel_calls", "kernel_points",
                        "kernel_s"],
        "spans": record["spans"],
        **extra,
    }
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(doc) + "\n")


if __name__ == "__main__":
    sys.exit(main())
