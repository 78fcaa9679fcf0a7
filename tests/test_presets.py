import json
from dataclasses import asdict

import pytest

from bohm_radiance.config import load_config
from bohm_radiance.errors import ConfigError
from bohm_radiance import presets as pre
from bohm_radiance.radiance import spectrum_step
from bohm_radiance.runner import run


def test_jonsson_current_reference(paper):
    rate = pre.jonsson_rate(paper)
    assert rate == pytest.approx(5.6e10, rel=5e-3, abs=0.0)
    # 30 mA/cm^2 through two 0.3 um x 50 um slits
    assert rate * paper.electron_charge_c == pytest.approx(9.0e-9, rel=1e-12,
                                                           abs=0.0)


def test_tonomura_reference_current(paper):
    assert pre.TONOMURA_RATE_E_PER_S == 1.0e3
    assert pre.TONOMURA_RATE_E_PER_S * paper.electron_charge_c == \
        pytest.approx(1.6e-16, rel=2e-3, abs=0.0)


def test_current_scaled_power_reference(paper):
    rate = pre.jonsson_rate(paper)
    assert pre.current_scaled_power(3.27e-26, rate) == pytest.approx(
        1.83e-18, rel=0.01, abs=0.0)
    assert pre.current_scaled_power(3.25e-25, rate) == pytest.approx(
        1.82e-17, rel=0.01, abs=0.0)


def test_current_scaling_is_linear_and_anchored(paper, tmp_path):
    rate = pre.jonsson_rate(paper)
    p = 3.27e-26
    assert pre.current_scaled_power(5.0 * p, rate) == pytest.approx(
        5.0 * pre.current_scaled_power(p, rate), rel=1e-12, abs=0.0)
    with pytest.raises(ConfigError):
        pre.current_scaled_power(-1.0, rate)
    with pytest.raises(ConfigError):
        pre.current_scaled_power(p, -rate)
    # the printed Tonomura column is the per-trajectory power itself, and
    # the Jonsson column its scaling
    cfg = load_config(None, {"output_dir": str(tmp_path)})
    run("table1", cfg)
    rows = json.loads((tmp_path / "table1.json").read_text())["rows"]
    powers = [spectrum_step(paper, vi).power_w
              for vi in pre.PAPER_VALLEY_INPUTS]
    assert [r["p_tonomura_w"] for r in rows] == powers
    assert [r["p_jonsson_w"] for r in rows] == \
        [pre.current_scaled_power(power, rate) for power in powers]


def test_cmbr_flux_reference():
    assert pre.cmbr_flux() == pytest.approx(3.15e-6, rel=5e-3, abs=0.0)


def test_beam_flux_reference(paper):
    fc = pre.beam_flux(1.82e-17)
    assert fc.beam_flux_w_m2 == pytest.approx(1.82e-17 / 4.9e-12, rel=1e-12,
                                              abs=0.0)
    assert fc.beam_flux_w_m2 == pytest.approx(3.7e-6, rel=0.01, abs=0.0)
    # about a factor 2 above the published figure, which the note records
    assert fc.beam_flux_w_m2 / pre.REFERENCE_BEAM_FLUX_W_M2 == pytest.approx(
        2.0, rel=0.02, abs=0.0)
    assert "1.85e-6" in pre.BEAM_FLUX_DISCREPANCY_NOTE


def test_beam_flux_zero_and_scaling():
    assert pre.beam_flux(0.0).beam_flux_w_m2 == 0.0
    base = pre.beam_flux(1e-17)
    doubled = pre.beam_flux(2e-17)
    assert doubled.beam_flux_w_m2 == pytest.approx(2.0 * base.beam_flux_w_m2,
                                                   rel=1e-12, abs=0.0)
    with pytest.raises(ConfigError):
        pre.beam_flux(-1e-17)


def test_flux_comparison_carries_cmbr(paper):
    fc = pre.beam_flux(1.82e-17)
    assert fc.cmbr_flux_w_m2 == pre.cmbr_flux()
    d = asdict(fc)
    assert set(d) == {"beam_flux_w_m2", "cmbr_flux_w_m2", "patch_width_m",
                      "patch_height_m"}


def test_paper_valley_inputs_integrity():
    assert [vi.index for vi in pre.PAPER_VALLEY_INPUTS] == [1, 2, 3, 4]
    assert [vi.grad_q_ev_per_cm for vi in pre.PAPER_VALLEY_INPUTS] == \
        [9.66, 3.06, 0.93, 0.8]
    assert [vi.tau_s for vi in pre.PAPER_VALLEY_INPUTS] == \
        [2.8e-11, 7.01e-11, 1.02e-10, 1.09e-10]


def test_row4_scaling_note_mentions_both_values():
    assert "1.25e-20" in pre.ROW4_SCALING_NOTE
