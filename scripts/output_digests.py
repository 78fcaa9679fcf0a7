"""Print the sha256 of every data file the subcommands write.

    python scripts/output_digests.py > digests.txt

Runs each subcommand in both modes, for the default config and for a few
cross sections, each into a fresh temporary directory, and prints one
``section/mode/subcommand/file sha256`` line per data file (the manifest,
which carries a timestamp, is left out).  A run that fails prints
``section/mode/subcommand !ErrorType`` after the files it wrote.  The
package is imported from the ``src/`` next to this script, so running
the script in two checkouts and diffing the output checks that a change
keeps every data file byte-identical.  ``write_outputs`` runs the same
matrix with whichever package is first on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# None keeps the configured section; the rest span the screen-side range
# and include 2.0 cm, where the default scan has singular rows
SECTIONS_CM = (None, 2.0, 2.7, 11.3, 34.9)
MODES = ("reproduction", "simulation")


def write_outputs(root: Path) -> list[tuple[str, str | None]]:
    """Run the matrix into root/<section>/<mode>/<subcommand>/.

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


def main() -> int:
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory() as tmp:
        for prefix, error in write_outputs(Path(tmp)):
            for path in sorted((Path(tmp) / prefix).iterdir()):
                if path.name != "manifest.json":
                    digest = hashlib.sha256(path.read_bytes())
                    print(f"{prefix}/{path.name} {digest.hexdigest()}")
            if error:
                print(f"{prefix} !{error}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
