import numpy as np
import pytest

from bohm_radiance.units import constants
from bohm_radiance.wavefield import cross_section_scan, jonsson_experiment


@pytest.fixture(scope="session")
def paper():
    return constants("paper")


@pytest.fixture(scope="session")
def modern():
    return constants("modern")


@pytest.fixture(scope="session")
def exp(paper):
    return jonsson_experiment(paper)


@pytest.fixture(scope="session")
def scan18(exp, paper):
    """The default config's scan, at the 18 cm cross section used
    throughout; expensive, so shared."""
    return cross_section_scan(exp, paper, exp.cross_section_x_cm,
                              8.0e-4, n_samples=16385)


@pytest.fixture(scope="session")
def quick_overrides():
    """Config overrides that keep a full run of any subcommand short."""
    return {
        "ensemble": {"n": 100, "seed": 11, "t_end_s": 5.0e-10},
        "scan": {"y_half_range_cm": 6.0e-4, "n_samples": 4097},
        "trajectories": {"y0_list_cm": [4.9e-5], "n_samples": 256},
    }


@pytest.fixture(scope="session")
def masked_samples(exp, paper):
    """Random y samples at the 18 cm section above the amplitude mask."""
    from bohm_radiance.wavefield import psi, r_floor
    t = exp.section_time_s(18.0)
    rng = np.random.default_rng(12345)
    y = rng.uniform(-8.0e-4, 8.0e-4, 10000)
    keep = np.abs(psi(exp, paper, y, t)) > 1.0e3 * r_floor(exp, paper, t)
    return y[keep], t


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    results = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            if status == "passed" and rep.when == "call":
                results.setdefault(name, "PASS")
            elif status in ("failed", "error"):
                results[name] = "FAIL"
    if results:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, verdict in results.items():
            terminalreporter.write_line(f"{verdict}  {name}")
