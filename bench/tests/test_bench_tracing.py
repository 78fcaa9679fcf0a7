"""Span arithmetic and tracer installation."""

import pytest

import tracing
from bohm_radiance import runner, trajectories, wavefield
from bohm_radiance.units import constants


def _span(name, start, end, parent, kernel_s=0.0):
    span = tracing.Span(name, start, parent, 0)
    span.end = end
    span.kernel_s = kernel_s
    return span


def test_self_time_on_synthetic_tree():
    spans = [
        _span("root", 0.0, 10.0, None, kernel_s=0.5),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 5.0, 0),           # overlaps a
        _span("c", 9.0, 12.0, 0),          # runs past the parent's end
        _span("a.leaf", 1.5, 2.5, 1, kernel_s=0.25),
    ]
    selfs = tracing.self_times(spans)
    # root covers [1, 5] and [9, 10] by its children, plus kernel time
    assert selfs == pytest.approx([10.0 - 4.0 - 1.0 - 0.5, 1.0, 3.0, 3.0,
                                   0.75])


def test_install_restores_every_binding():
    before = (runner.run, trajectories.run_ensemble, trajectories.solve_ivp,
              trajectories._psi_derivs, wavefield._psi_derivs)
    with tracing.Tracer() as tracer:
        assert runner.run is not before[0]
        assert trajectories._psi_derivs is not before[3]
    assert (runner.run, trajectories.run_ensemble, trajectories.solve_ivp,
            trajectories._psi_derivs, wavefield._psi_derivs) == before
    assert tracer.missing == []


def test_missing_name_is_reported(monkeypatch):
    monkeypatch.setitem(tracing.SPANNED, "wavefield.gone",
                        ("bohm_radiance.wavefield", "no_such_function"))
    with tracing.Tracer() as tracer:
        pass
    assert tracer.missing == ["bohm_radiance.wavefield.no_such_function"]


def test_layer_metrics_of_a_scan():
    consts = constants("paper")
    exp = wavefield.jonsson_experiment(consts)
    tracer = tracing.Tracer()
    with tracer:
        wavefield.cross_section_scan(exp, consts, 18.0, 8.0e-4, 1025)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["wavefield.scan_calls"] == 1
    assert metrics["wavefield.kernel_calls"] >= 1
    assert metrics["wavefield.kernel_points"] \
        == 1025 * metrics["wavefield.kernel_calls"]
    assert metrics["wavefield.scan_s"] >= metrics["wavefield.kernel_s"] > 0
