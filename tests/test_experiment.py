"""Tests for config parsing, experiment orchestration, and report rendering."""

import numpy as np
import pytest

from cdmkit.errors import ConfigError, IdentificationError
from cdmkit.experiment import (
    DEFAULT_HEAT_CONFIG,
    default_heat_config,
    parse_config_text,
    render_report,
    run_experiment,
    validate_ground_truth_separation,
)
from cdmkit.identification import QueryKind, query
from cdmkit.serialization import read_reconstruction, read_samples

IDENTITY_CONFIG = """\
[system]
kind = heat
diffusivity = 0.1
grid_points = 51
source_width = 0.05

[cdm]
kind = identity

[signal]
kind = heat-probe

[sampling]
rate = 20.0
jitter = 0.01
seed = 3
horizon = 1.0

[identification]
delta = 0.4
modes = 3

[convergence]
axis = 1
regions = 0.0:0.25 0.5:0.75 0.75:1.0
grid = 101
probes = 128
"""

LINEAR_MODES_CONFIG = """\
[system]
kind = linear
state_dim = 2
input_dim = 2
a = 0.0 0.0 0.0 0.0
b = 1.0 0.0 0.0 1.0
initial = 0.0 0.0

[cdm]
kind = modes
separation = 0.5

[cdm.mode.1]
region = interval,1,0.0,0.25,closed,open_hi
linear = 1.0 0.0 0.0 3.0
translation = 0.0 0.25

[cdm.mode.2]
region = interval,1,0.75,1.0,open_lo
linear = 1.0 0.0 0.0 -2.0
translation = 0.0 2.5

[signal]
kind = raised-cosine
offset = 1.0 0.0
amplitude = 0.0 1.0
period = 0.3

[sampling]
rate = 20.0
jitter = 0.01
seed = 5
horizon = 4.0

[identification]
delta = 0.4
modes = 3
lipschitz = 1.0
"""


class TestConfigParsing:
    def test_default_heat_config_parses(self):
        cfg = default_heat_config()
        assert cfg.system_kind == "heat"
        assert cfg.schedule.rate == 20.0 and cfg.schedule.horizon == 10.0
        assert cfg.identification.n_modes == 3
        assert cfg.regions == ((0.0, 0.25), (0.5, 0.75), (0.75, 1.0))

    def test_missing_section(self):
        with pytest.raises(ConfigError):
            parse_config_text("[system]\nkind = heat\n")

    def test_unknown_system_kind(self):
        bad = DEFAULT_HEAT_CONFIG.replace("kind = heat", "kind = quantum", 1)
        with pytest.raises(ConfigError):
            parse_config_text(bad)

    def test_bad_jitter_rejected(self):
        bad = DEFAULT_HEAT_CONFIG.replace("jitter = 0.01", "jitter = 0.2")
        with pytest.raises(ConfigError):
            parse_config_text(bad)

    def test_unresolvable_source_rejected(self):
        bad = DEFAULT_HEAT_CONFIG.replace("grid_points = 101", "grid_points = 11")
        with pytest.raises(ConfigError):
            parse_config_text(bad)

    def test_mode_list_config(self):
        cfg = parse_config_text(LINEAR_MODES_CONFIG)
        assert len(cfg.cdm.modes) == 2
        np.testing.assert_allclose(cfg.cdm.modes[0][1].translation, [0.0, 0.25])

    def test_overlapping_mode_list_rejected(self):
        bad = LINEAR_MODES_CONFIG.replace(
            "region = interval,1,0.75,1.0,open_lo", "region = interval,1,0.2,1.0"
        )
        with pytest.raises(ConfigError):
            parse_config_text(bad)

    def test_bad_region_token(self):
        bad = DEFAULT_HEAT_CONFIG.replace("0.0:0.25", "zero:0.25")
        with pytest.raises(ConfigError):
            parse_config_text(bad)


class TestSeparationValidation:
    def test_default_config_passes(self):
        validate_ground_truth_separation(default_heat_config())

    def test_close_modes_fail(self):
        # widen the clustering separation beyond the true inter-mode gap
        bad = DEFAULT_HEAT_CONFIG.replace("delta = 0.4", "delta = 0.6")
        cfg = parse_config_text(bad)
        with pytest.raises(IdentificationError, match="only 0.5 apart"):
            validate_ground_truth_separation(cfg)

    def test_exact_gap_equal_to_delta_passes(self):
        # the heat modes sit exactly 0.5 apart: a sampled check could not tell
        # delta = 0.5 from delta = 0.5016
        validate_ground_truth_separation(
            parse_config_text(DEFAULT_HEAT_CONFIG.replace("delta = 0.4", "delta = 0.5")))
        with pytest.raises(IdentificationError):
            validate_ground_truth_separation(
                parse_config_text(DEFAULT_HEAT_CONFIG.replace("delta = 0.4", "delta = 0.501")))


class TestRunExperiment:
    def test_identity_run(self, tmp_path):
        cfg = parse_config_text(IDENTITY_CONFIG)
        result = run_experiment(cfg, out_dir=str(tmp_path))
        assert result.reconstruction.modes == ()
        assert all(r.modes_identified == 0 for r in result.records)
        assert len(result.records) == len(result.samples) == 20
        # artifacts exist and parse back
        assert len(read_samples(result.artifacts["samples"])) == 20
        back = read_reconstruction(result.artifacts["reconstruction"])
        assert back.modes == ()

    def test_linear_modes_run(self, tmp_path):
        cfg = parse_config_text(LINEAR_MODES_CONFIG)
        result = run_experiment(cfg, out_dir=str(tmp_path))
        coeffs = {
            (round(float(m.map.linear[1, 1]), 6), round(float(m.map.translation[1]), 6))
            for m in result.reconstruction.modes
            if m.identified
        }
        assert (3.0, 0.25) in coeffs and (-2.0, 2.5) in coeffs

    def test_convergence_header_matches_regions(self, tmp_path):
        cfg = parse_config_text(IDENTITY_CONFIG)
        result = run_experiment(cfg, out_dir=str(tmp_path))
        header = open(result.artifacts["convergence"]).readline().strip().split(",")
        assert header[:2] == ["time", "modes_identified"]
        assert len(header) == 2 + 2 * len(cfg.regions)


class TestRenderReport:
    def test_empty_reconstruction(self, tmp_path):
        cfg = parse_config_text(IDENTITY_CONFIG)
        result = run_experiment(cfg, out_dir=str(tmp_path))
        text = render_report(result.reconstruction)
        assert "no degradation detected" in text

    def test_identified_modes_listed(self, tmp_path):
        cfg = parse_config_text(LINEAR_MODES_CONFIG)
        result = run_experiment(cfg, out_dir=str(tmp_path))
        text = render_report(result.reconstruction)
        assert "identified" in text and "linear" in text and "translation" in text
        values = [
            float(tok)
            for line in text.splitlines()
            if line.strip().startswith(("linear", "translation"))
            for tok in line.split()[1:]
        ]
        for expected in (3.0, 0.25, -2.0, 2.5):
            assert any(abs(v - expected) < 1e-6 for v in values)

    def test_stable_rendering(self, tmp_path):
        cfg = parse_config_text(LINEAR_MODES_CONFIG)
        result = run_experiment(cfg, out_dir=str(tmp_path))
        assert render_report(result.reconstruction) == render_report(result.reconstruction)


class TestQueryAfterRun:
    def test_mapped_point_matches_truth(self, tmp_path):
        cfg = parse_config_text(LINEAR_MODES_CONFIG)
        result = run_experiment(cfg, out_dir=str(tmp_path))
        res = query(result.reconstruction, np.array([1.0, 0.2]))
        if res.kind == QueryKind.MAPPED:
            np.testing.assert_allclose(res.value, [1.0, 0.85], atol=1e-9)
        else:
            assert res.kind == QueryKind.INCONCLUSIVE
