"""Spans around the program's public entry points, recorded from outside.

``Tracer.install()`` rebinds each traced function at every module of the
package that binds it by name, and ``uninstall()`` puts the originals
back.  A traced call becomes a span: name, start, end, parent span and
op id, plus counts read from its arguments or result.  The field kernel
``_psi_derivs`` runs ~10^4 times per op, so it is not a span of its own:
its calls, points and busy time are added to the innermost open span.
Spans stay in memory; the caller writes them out when the run ends.

A name that a module no longer binds is reported in ``missing`` and
otherwise ignored, so the benchmark survives refactors of the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

PACKAGE_MODULES = (
    "bohm_radiance", "bohm_radiance.cli", "bohm_radiance.config",
    "bohm_radiance.runner", "bohm_radiance.wavefield",
    "bohm_radiance.trajectories", "bohm_radiance.radiance",
)

# span name -> (module that defines the function, attribute name)
SPANNED = {
    "config.load_config": ("bohm_radiance.config", "load_config"),
    "runner.run": ("bohm_radiance.runner", "run"),
    "wavefield.cross_section_scan": ("bohm_radiance.wavefield",
                                     "cross_section_scan"),
    "trajectories.run_ensemble": ("bohm_radiance.trajectories",
                                  "run_ensemble"),
    "trajectories.transport": ("bohm_radiance.trajectories", "transport"),
    "trajectories.integrate_trajectory": ("bohm_radiance.trajectories",
                                          "integrate_trajectory"),
    "trajectories.sample_initial_positions": (
        "bohm_radiance.trajectories", "sample_initial_positions"),
    "trajectories.ks_statistic_against_density": (
        "bohm_radiance.trajectories", "ks_statistic_against_density"),
    "radiance.trajectory_radiated_energy": (
        "bohm_radiance.radiance", "trajectory_radiated_energy"),
    "radiance.simulation_valley_inputs": ("bohm_radiance.radiance",
                                          "simulation_valley_inputs"),
    "radiance.ensemble_mean_power": ("bohm_radiance.radiance",
                                     "ensemble_mean_power"),
    "radiance.spectrum_step": ("bohm_radiance.radiance", "spectrum_step"),
}

# solve_ivp is traced only where trajectories binds it.
SOLVER = ("bohm_radiance.trajectories", "solve_ivp")
KERNEL_NAME = "_psi_derivs"
KERNEL_BINDINGS = ("bohm_radiance.wavefield", "bohm_radiance.trajectories",
                   "bohm_radiance.radiance")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts",
                 "kernel_calls", "kernel_points", "kernel_s")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.counts = {}
        self.kernel_calls = 0
        self.kernel_points = 0
        self.kernel_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.op,
                self.counts, self.kernel_calls, self.kernel_points,
                self.kernel_s]


def _result_counts(name: str, bound: inspect.BoundArguments,
                   result) -> dict:
    """Counts read at a span boundary from the call's arguments or result."""
    if name == "trajectories.solve_ivp":
        return {"nfev": int(result.nfev), "status": int(result.status),
                "lanes": len(bound.arguments["y0"])}
    if name == "trajectories.transport":
        return {"lanes": len(bound.arguments["y0"])}
    if name == "trajectories.run_ensemble":
        return {"n_failed": int(result.n_failed)}
    if name == "trajectories.integrate_trajectory":
        return {"samples": len(result.t_s), "halted": int(result.halted)}
    if name == "runner.run":
        return {"files": len(result.files),
                "bytes": sum(int(f["bytes"]) for f in result.files)}
    return {}


class Tracer:
    """Collects spans while installed; ``op`` tags spans with the op id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # kernel work done outside any span
        self.root = Span("root", 0.0, None, -1)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {}
        for name in PACKAGE_MODULES:
            try:
                modules[name] = importlib.import_module(name)
            except ImportError:
                self._note_missing(name)
        for span_name, (home, attr) in SPANNED.items():
            original = getattr(modules.get(home), attr, None)
            if original is None:
                self._note_missing(f"{home}.{attr}")
                continue
            wrapper = self._span_wrapper(span_name, original)
            for module in modules.values():
                if getattr(module, attr, None) is original:
                    self._rebind(module, attr, wrapper)
        solver_home, solver_attr = SOLVER
        solver = getattr(modules.get(solver_home), solver_attr, None)
        if solver is None:
            self._note_missing(f"{solver_home}.{solver_attr}")
        else:
            self._rebind(modules[solver_home], solver_attr,
                         self._span_wrapper("trajectories.solve_ivp",
                                            solver))
        for home in KERNEL_BINDINGS:
            kernel = getattr(modules.get(home), KERNEL_NAME, None)
            if kernel is None:
                self._note_missing(f"{home}.{KERNEL_NAME}")
                continue
            self._rebind(modules[home], KERNEL_NAME,
                         self._kernel_wrapper(kernel))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _note_missing(self, qualified: str) -> None:
        if qualified not in self.missing:
            self.missing.append(qualified)

    def _rebind(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, perf_counter(),
                        stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            span.counts = _result_counts(
                name, signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    def _kernel_wrapper(self, fn):
        spans, stack, root = self.spans, self._stack, self.root

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            out = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            owner = spans[stack[-1]] if stack else root
            owner.kernel_calls += 1
            owner.kernel_points += out[0].size
            owner.kernel_s += elapsed
            return out

        return wrapper


# -- analysis ---------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus what its children and kernel calls cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered - span.kernel_s)
    return out


def _within(spans: list[Span], i: int, name: str) -> bool:
    """True if span i or one of its ancestors is named ``name``."""
    while i is not None:
        if spans[i].name == name:
            return True
        i = spans[i].parent
    return False


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer work counts and busy times of one traced pass."""
    spans = tracer.spans

    def named(name):
        return [s for s in spans if s.name == name]

    def busy(name):
        return sum(s.duration for s in named(name))

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in named(name))

    kernel = [tracer.root, *spans]
    kernel_points = sum(s.kernel_points for s in kernel)
    kernel_s = sum(s.kernel_s for s in kernel)
    lanes = total("trajectories.transport", "lanes")
    transport_points = sum(s.kernel_points for i, s in enumerate(spans)
                           if _within(spans, i, "trajectories.transport"))
    integrate_nfev = sum(
        s.counts.get("nfev", 0) for i, s in enumerate(spans)
        if s.name == "trajectories.solve_ivp"
        and _within(spans, i, "trajectories.integrate_trajectory"))
    selfs = self_times(spans)
    emit_self = sum(t for s, t in zip(spans, selfs) if s.name == "runner.run")
    return {
        "trajectories.solver_nfev": total("trajectories.solve_ivp", "nfev"),
        "trajectories.solver_calls": len(named("trajectories.solve_ivp")),
        "trajectories.evals_per_lane": (transport_points / lanes
                                        if lanes else 0.0),
        "trajectories.transport_s": busy("trajectories.transport"),
        "trajectories.lanes_failed": total("trajectories.run_ensemble",
                                           "n_failed"),
        "wavefield.kernel_calls": sum(s.kernel_calls for s in kernel),
        "wavefield.kernel_points": kernel_points,
        "wavefield.kernel_s": kernel_s,
        "wavefield.kernel_ns_per_point": (1.0e9 * kernel_s / kernel_points
                                          if kernel_points else 0.0),
        "wavefield.scan_calls": len(named("wavefield.cross_section_scan")),
        "wavefield.scan_s": busy("wavefield.cross_section_scan"),
        "trajectories.integrate_s": busy("trajectories.integrate_trajectory"),
        "trajectories.integrate_nfev": integrate_nfev,
        "trajectories.recorded_samples": total(
            "trajectories.integrate_trajectory", "samples"),
        "trajectories.paths_halted": total(
            "trajectories.integrate_trajectory", "halted"),
        "trajectories.sample_s": busy("trajectories.sample_initial_positions"),
        "trajectories.ks_s": busy("trajectories.ks_statistic_against_density"),
        "radiance.energy_s": busy("radiance.trajectory_radiated_energy"),
        "radiance.sim_inputs_s": busy("radiance.simulation_valley_inputs"),
        "radiance.mean_power_s": busy("radiance.ensemble_mean_power"),
        "runner.run_s": busy("runner.run"),
        "runner.emit_self_s": emit_self,
        "runner.bytes_written": total("runner.run", "bytes"),
        "runner.files_written": total("runner.run", "files"),
        "config.load_s": busy("config.load_config"),
        "config.calls": len(named("config.load_config")),
    }
