"""Tests for the command-line front end and its exit codes."""

import numpy as np
import pytest

from cdmkit.cli import EXIT_CONFIG, EXIT_IDENTIFICATION, EXIT_OK, EXIT_UNVIABLE, main
from cdmkit.experiment import parse_config_text, run_experiment
from cdmkit.serialization import reconstruction_to_lines, write_reconstruction

SMALL_HEAT_CONFIG = """\
[system]
kind = heat
diffusivity = 0.1
grid_points = 51
source_width = 0.05

[cdm]
kind = heat-threemode

[signal]
kind = heat-probe

[sampling]
rate = 20.0
jitter = 0.01
seed = 7
horizon = 4.0

[identification]
delta = 0.4
modes = 3
lipschitz = 1.0

[convergence]
axis = 1
regions = 0.0:0.25 0.5:0.75 0.75:1.0
grid = 101
probes = 128
"""


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One short heat run driven through the CLI."""
    base = tmp_path_factory.mktemp("cli")
    cfg_path = base / "small.cfg"
    cfg_path.write_text(SMALL_HEAT_CONFIG)
    out = base / "out"
    code = main(["run", str(cfg_path), "--output", str(out)])
    assert code == EXIT_OK
    return cfg_path, out


class TestRun:
    def test_artifacts_written(self, small_run):
        _, out = small_run
        for name in ("samples.csv", "reconstruction.txt", "convergence.csv"):
            assert (out / name).exists()

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.cfg")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config-error:")

    def test_invalid_config_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[system]\nkind = heat\n")
        assert main(["run", str(bad)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config-error:")

    def test_delta_beyond_mode_gap_is_identification_failure(self, tmp_path, capsys):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(SMALL_HEAT_CONFIG.replace("delta = 0.4", "delta = 0.6"))
        assert main(["run", str(cfg)]) == EXIT_IDENTIFICATION
        assert capsys.readouterr().err.startswith("identification-failure:")

    def test_repeat_runs_byte_identical(self, small_run, tmp_path):
        cfg_path, out = small_run
        again = tmp_path / "again"
        assert main(["run", str(cfg_path), "--output", str(again)]) == EXIT_OK
        for name in ("samples.csv", "reconstruction.txt", "convergence.csv"):
            assert (out / name).read_bytes() == (again / name).read_bytes()


class TestReport:
    def test_summary_printed(self, small_run, capsys):
        _, out = small_run
        assert main(["report", str(out / "reconstruction.txt")]) == EXIT_OK
        text = capsys.readouterr().out
        assert "identified" in text
        values = [
            float(tok)
            for line in text.splitlines()
            if line.strip().startswith(("linear", "translation"))
            for tok in line.split()[1:]
        ]
        for expected in (3.0, 0.25, -2.0, 2.5):
            assert any(abs(v - expected) < 1e-6 for v in values)

    def test_truncated_file_is_parse_error(self, small_run, tmp_path, capsys):
        _, out = small_run
        lines = (out / "reconstruction.txt").read_text().splitlines()
        bad = tmp_path / "trunc.txt"
        bad.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        assert main(["report", str(bad)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("parse-error:")

    @pytest.mark.parametrize(
        "key", ["samples", "input_dim", "mode_count", "modes", "unaffected", "identified",
                "pairs"])
    def test_corrupted_count_is_parse_error(self, small_run, tmp_path, capsys, key):
        _, out = small_run
        lines = (out / "reconstruction.txt").read_text().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith(key + ","))
        lines[idx] = key + ",x"
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["report", str(bad)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("parse-error:") and f"(line {idx + 1})" in err

    def test_empty_reconstruction_summary(self, tmp_path, capsys):
        from cdmkit.identification import CdmReconstruction

        recon = CdmReconstruction(modes=(), unaffected=(), separation=0.1,
                                  mode_count=3, input_dim=2)
        path = tmp_path / "empty.txt"
        write_reconstruction(path, recon)
        assert main(["report", str(path)]) == EXIT_OK
        assert "no degradation detected" in capsys.readouterr().out


class TestViabilize:
    def test_mode_inversion(self, small_run, capsys):
        from cdmkit.degradation import heat_depth_response

        _, out = small_run
        # second channel 0.9 is only reachable through a degraded branch:
        # preimages are 0.2167 (shallow) and 0.8 (deep), never the command itself
        code = main(["viabilize", str(out / "reconstruction.txt"), "1.0", "0.9"])
        assert code == EXIT_OK
        vec = [float(t) for t in capsys.readouterr().out.split()]
        np.testing.assert_allclose(vec[0], 1.0, atol=1e-12)
        assert abs(vec[1] - 0.9) > 0.05
        np.testing.assert_allclose(heat_depth_response(vec[1]), 0.9, atol=1e-9)

    def test_passthrough_echo(self, small_run, capsys):
        _, out = small_run
        code = main(["viabilize", str(out / "reconstruction.txt"), "1.0,0.5"])
        assert code == EXIT_OK
        vec = [float(t) for t in capsys.readouterr().out.split()]
        np.testing.assert_allclose(vec, [1.0, 0.5])

    def test_unviable_exit_code(self, small_run, capsys):
        _, out = small_run
        code = main(["viabilize", str(out / "reconstruction.txt"), "1.0", "0.05"])
        assert code == EXIT_UNVIABLE
        assert capsys.readouterr().err.startswith("unviable-input:")

    def test_dimension_mismatch(self, small_run, capsys):
        _, out = small_run
        code = main(["viabilize", str(out / "reconstruction.txt"), "0.9"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_vector(self, small_run, capsys, value):
        _, out = small_run
        code = main(["viabilize", str(out / "reconstruction.txt"), f"1.0,{value}"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config-error:")

    def test_non_numeric_vector(self, small_run, capsys):
        _, out = small_run
        code = main(["viabilize", str(out / "reconstruction.txt"), "abc"])
        assert code == EXIT_CONFIG


class TestBundledConfig:
    def test_repo_config_matches_default(self):
        import pathlib

        from cdmkit.experiment import DEFAULT_HEAT_CONFIG

        repo_cfg = pathlib.Path(__file__).resolve().parents[1] / "configs" / "heat_electrosurgery.cfg"
        assert repo_cfg.read_text() == DEFAULT_HEAT_CONFIG
