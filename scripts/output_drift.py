"""Largest numeric drift of each data file between two source trees.

    python scripts/output_drift.py OLD_SRC NEW_SRC

Writes the data files of every subcommand in both modes, for the default
config and for a few cross sections, once per tree, each in a fresh
interpreter that imports the package from that tree's ``src/`` directory,
and compares them file by file (the manifest, which carries a timestamp,
is left out).  For each file that differs it prints the largest change of
a number relative to the peak magnitude of its column (a CSV column, or a
JSON key path with list indices dropped), that column, and the largest
pointwise relative change.  It exits 1 when a file differs in anything
but numbers (text, flags, ``nan`` cells, structure), exists in one tree
only, or when a run fails in one tree and not the other.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent

# None keeps the configured section; the rest span the screen-side range
# and include 2.0 cm, where the default scan has singular rows
SECTIONS_CM = (None, 2.0, 2.7, 11.3, 34.9)
MODES = ("reproduction", "simulation")

# runs write_outputs with the package of argv[1] and prints the runs as
# JSON
CHILD = ("import json, sys; from pathlib import Path; "
         "sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
         "from output_drift import write_outputs; "
         "print(json.dumps(write_outputs(Path(sys.argv[3]))))")


def write_outputs(root: Path) -> list[tuple[str, str | None]]:
    """Run every subcommand in both modes at each of SECTIONS_CM, into
    root/<section>/<mode>/<subcommand>/, with the package that is first
    on ``sys.path``.

    Returns (section/mode/subcommand, error type name or None) per run,
    in run order.
    """
    from bohm_radiance.config import load_config
    from bohm_radiance.errors import ConfigError, NumericalError
    from bohm_radiance.runner import SUBCOMMANDS, run

    runs = []
    for x_cm in SECTIONS_CM:
        section = "default" if x_cm is None else f"x{x_cm}cm"
        for mode in MODES:
            for sub in SUBCOMMANDS:
                prefix = f"{section}/{mode}/{sub}"
                over = {"mode": mode, "output_dir": str(root / prefix)}
                if x_cm is not None:
                    over["experiment"] = {"cross_section_x_cm": x_cm}
                error = None
                try:
                    run(sub, load_config(None, over))
                except (ConfigError, NumericalError) as exc:
                    error = type(exc).__name__
                runs.append((prefix, error))
    return runs


class NotNumeric(Exception):
    """Two versions of a file differ in more than their numbers."""


def write_tree(src: Path, root: Path) -> dict[str, str | None]:
    """Write the outputs with the package in src; error name per run."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(src), str(SCRIPTS), str(root)],
        check=True, capture_output=True, text=True)
    return dict(json.loads(done.stdout.splitlines()[-1]))


def _number(cell: str) -> float | None:
    """The finite float a CSV cell holds, or None for text and nan."""
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def csv_pairs(old: str, new: str) -> list[tuple[str, float, float]]:
    """(column, old, new) for every numeric cell of two CSV texts."""
    old_rows, new_rows = old.splitlines(), new.splitlines()
    if len(old_rows) != len(new_rows) or old_rows[0] != new_rows[0]:
        raise NotNumeric("row count or header differs")
    header = old_rows[0].split(",")
    pairs = []
    for line, (a_row, b_row) in enumerate(zip(old_rows[1:], new_rows[1:]),
                                          start=2):
        a_cells, b_cells = a_row.split(","), b_row.split(",")
        if len(a_cells) != len(b_cells):
            raise NotNumeric(f"line {line}: cell count differs")
        for column, a, b in zip(header, a_cells, b_cells):
            x, y = _number(a), _number(b)
            if x is None or y is None:
                if a != b:
                    raise NotNumeric(f"line {line}, {column}: {a!r} -> {b!r}")
            else:
                pairs.append((column, x, y))
    return pairs


def json_pairs(old, new, path: str = "") -> list[tuple[str, float, float]]:
    """(key path, old, new) for every number of two parsed JSON documents."""
    number = (int, float)
    if isinstance(old, number) and isinstance(new, number) \
            and not isinstance(old, bool) and not isinstance(new, bool):
        return [(path, float(old), float(new))]
    if type(old) is not type(new):
        raise NotNumeric(f"{path}: {old!r} -> {new!r}")
    if isinstance(old, dict):
        if old.keys() != new.keys():
            raise NotNumeric(f"{path}: keys differ")
        return [pair for key in old
                for pair in json_pairs(old[key], new[key], f"{path}.{key}")]
    if isinstance(old, list):
        if len(old) != len(new):
            raise NotNumeric(f"{path}: list length differs")
        return [pair for a, b in zip(old, new)
                for pair in json_pairs(a, b, f"{path}[]")]
    if old != new:
        raise NotNumeric(f"{path}: {old!r} -> {new!r}")
    return []


def drift(pairs) -> tuple[float, str, float]:
    """(largest change over its column's peak, that column, largest
    pointwise relative change)."""
    peak: dict[str, float] = {}
    for column, a, _ in pairs:
        peak[column] = max(peak.get(column, 0.0), abs(a))
    worst, where, pointwise = 0.0, "", 0.0
    for column, a, b in pairs:
        if a == b:
            continue
        change = abs(b - a)
        scaled = change / peak[column] if peak[column] else math.inf
        if scaled > worst:
            worst, where = scaled, column
        pointwise = max(pointwise, change / abs(a) if a else math.inf)
    return worst, where, pointwise


def compare(old_file: Path, new_file: Path) -> tuple[float, str, float]:
    old, new = old_file.read_text(), new_file.read_text()
    if old_file.suffix == ".json":
        pairs = json_pairs(json.loads(old), json.loads(new))
    elif old_file.suffix == ".csv":
        pairs = csv_pairs(old, new)
    else:
        raise NotNumeric("not a CSV or JSON file")
    return drift(pairs)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python scripts/output_drift.py OLD_SRC NEW_SRC",
              file=sys.stderr)
        return 2
    trees = [Path(arg).resolve() for arg in argv]
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        roots = [Path(tmp) / "old", Path(tmp) / "new"]
        old_runs, new_runs = (write_tree(src, root)
                              for src, root in zip(trees, roots))
        for prefix, error in old_runs.items():
            if new_runs.get(prefix, error) != error:
                print(f"{prefix}: run outcome {error} -> {new_runs[prefix]}")
                failed = True
        names = sorted({path.relative_to(root).as_posix()
                        for root in roots for path in root.rglob("*")
                        if path.is_file() and path.name != "manifest.json"})
        identical = 0
        for name in names:
            old_file, new_file = (root / name for root in roots)
            if not (old_file.exists() and new_file.exists()):
                print(f"{name}: in one tree only")
                failed = True
            elif old_file.read_bytes() == new_file.read_bytes():
                identical += 1
            else:
                try:
                    worst, column, pointwise = compare(old_file, new_file)
                except NotNumeric as exc:
                    print(f"{name}: not only numbers differ: {exc}")
                    failed = True
                    continue
                print(f"{name}: {worst:.3e} of the peak of {column} "
                      f"(pointwise {pointwise:.3e})")
        print(f"{identical} of {len(names)} data files byte-identical")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
