"""Print the sha256 of every data file the subcommands write.

    python scripts/output_digests.py > digests.txt

Runs each subcommand in both modes, for the default config and for a few
cross sections, each into a fresh temporary directory, and prints one
``section/mode/subcommand/file sha256`` line per data file (the manifest,
which carries a timestamp, is left out).  A run that fails prints
``section/mode/subcommand !ErrorType`` after the files it wrote.  The
package is imported from the ``src/`` next to this script, so running
the script in two checkouts and diffing the output checks that a change
keeps every data file byte-identical.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bohm_radiance.config import load_config  # noqa: E402
from bohm_radiance.errors import ConfigError, NumericalError  # noqa: E402
from bohm_radiance.runner import SUBCOMMANDS, run  # noqa: E402

# None keeps the configured section; the rest span the screen-side range
# and include 2.0 cm, where the default scan has singular rows
SECTIONS_CM = (None, 2.0, 2.7, 11.3, 34.9)
MODES = ("reproduction", "simulation")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for x_cm in SECTIONS_CM:
            section = "default" if x_cm is None else f"x{x_cm}cm"
            for mode in MODES:
                for sub in SUBCOMMANDS:
                    prefix = f"{section}/{mode}/{sub}"
                    out_dir = Path(tmp) / section / mode / sub
                    over = {"mode": mode, "output_dir": str(out_dir)}
                    if x_cm is not None:
                        over["experiment"] = {"cross_section_x_cm": x_cm}
                    error = None
                    try:
                        run(sub, load_config(None, over))
                    except (ConfigError, NumericalError) as exc:
                        error = type(exc).__name__
                    for path in sorted(out_dir.iterdir()):
                        if path.name != "manifest.json":
                            digest = hashlib.sha256(path.read_bytes())
                            print(f"{prefix}/{path.name} {digest.hexdigest()}")
                    if error:
                        print(f"{prefix} !{error}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
