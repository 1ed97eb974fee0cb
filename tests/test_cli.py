"""Tests for the command-line front end and its exit codes."""

import configparser
import contextlib
import hashlib
import io
import os
import pathlib
import platform
import re
import subprocess
import sys
import textwrap
from collections import Counter

import numpy as np
import pytest

import cdmkit
from cdmkit.cli import EXIT_CONFIG, EXIT_IDENTIFICATION, EXIT_OK, EXIT_UNVIABLE, entry, main
from cdmkit.experiment import parse_config_text, run_experiment
from cdmkit.identification import build_reconstruction_from_pairs, recover_effective_input
from cdmkit.serialization import reconstruction_to_lines, write_reconstruction
from cdmkit.simulation import integrate

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


def not_utf8(path):
    """Write 300 random bytes that are not UTF-8 text to ``path``; return it."""
    path.write_bytes(b"\xff" + np.random.default_rng(300).bytes(299))  # 0xff is never UTF-8
    return path


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

    def test_config_not_utf8_is_config_error(self, tmp_path, capsys):
        assert main(["run", str(not_utf8(tmp_path / "bad.cfg"))]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config-error:") and "not UTF-8" in err
        assert err.count("\n") == 1

    def test_percent_in_a_value_is_literal(self, tmp_path, monkeypatch):
        from cdmkit.experiment import DEFAULT_HEAT_CONFIG

        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "percent.cfg"
        cfg.write_text(DEFAULT_HEAT_CONFIG.replace("horizon = 10.0", "horizon = 1.0")
                       .replace("directory = out", "directory = out%1"))
        assert main(["run", str(cfg)]) == EXIT_OK
        assert (tmp_path / "out%1" / "reconstruction.txt").is_file()

    def test_percent_in_a_number_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "percent.cfg"
        cfg.write_text(SMALL_HEAT_CONFIG.replace("kind = heat-probe",
                                                 "kind = constant\nvalues = 1 %"))
        assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config-error: cannot parse 'values = 1 %' in [signal]\n"

    @pytest.mark.parametrize("option", [False, True])
    def test_empty_output_directory_fails_before_simulating(self, tmp_path, capsys, monkeypatch,
                                                           option):
        # an empty name from [output] directory or from --output
        def no_simulation(*args, **kwargs):
            raise AssertionError("integrate ran before the output directory was checked")

        monkeypatch.setattr("cdmkit.experiment.integrate", no_simulation)
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(SMALL_HEAT_CONFIG + "\n[output]\ndirectory =" + " out" * option + "\n")
        assert main(["run", str(cfg)] + ["--output", ""] * option) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config-error: cannot write artifacts:") and err.count("\n") == 1
        assert "empty output directory name" in err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("below", [False, True])
    def test_unusable_output_directory_is_config_error(self, small_run, tmp_path, capsys,
                                                       below):
        # a regular file where the directory, or one of its parents, should be
        cfg_path, _ = small_run
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        target = blocker / "out" if below else blocker
        assert main(["run", str(cfg_path), "--output", str(target)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config-error: cannot write artifacts:")
        assert err.count("\n") == 1
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize("below", [False, True])
    def test_unusable_output_directory_fails_before_simulating(self, small_run, tmp_path,
                                                               capsys, monkeypatch, below):
        def no_simulation(*args, **kwargs):
            raise AssertionError("integrate ran before the output directory was checked")

        monkeypatch.setattr("cdmkit.experiment.integrate", no_simulation)
        self.test_unusable_output_directory_is_config_error(small_run, tmp_path, capsys, below)

    def test_huge_grid_is_config_error(self, tmp_path, capsys):
        # the dense 1000001 x 1000001 stencil would need 7.28 TiB
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_HEAT_CONFIG.replace("grid_points = 51", "grid_points = 1000000"))
        assert main(["run", str(bad), "--output", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config-error: grid_points must lie in [3, 2047], got 1000000\n")

    def test_empty_input_is_config_error(self, tmp_path, capsys):
        # a system without inputs has no pair to recover
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(textwrap.dedent("""\
            [system]
            kind = linear
            state_dim = 1
            input_dim = 0
            a = 0.0
            b =

            [cdm]
            kind = identity

            [signal]
            kind = constant
            values =

            [sampling]
            rate = 10.0
            horizon = 0.5

            [identification]
            delta = 0.5
            modes = 1
            """))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config-error: [system] state_dim and input_dim must be at least 1, got 1 and 0\n")
        assert not out.exists()

    def test_huge_diffusivity_is_config_error(self, tmp_path, capsys, monkeypatch):
        # a stability limit of 2e-304 s would need some 1e302 steps per sampling interval
        def no_simulation(*args, **kwargs):
            raise AssertionError("integrate ran on a config whose step count overflows")

        monkeypatch.setattr("cdmkit.experiment.integrate", no_simulation)
        cfg = tmp_path / "hot.cfg"
        cfg.write_text(SMALL_HEAT_CONFIG.replace("diffusivity = 0.1", "diffusivity = 1e300"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config-error: sampling interval ") and err.count("\n") == 1
        assert "steps of at most 2e-304 s; a step count must be finite and fit an index" in err
        assert not out.exists()

    @pytest.mark.parametrize("edit", [("horizon = 4.0", "horizon = 1e308"),
                                      ("rate = 20.0\njitter = 0.01", "rate = 1e308\njitter = 0.0")])
    def test_overflowing_sample_count_is_config_error(self, tmp_path, capsys, edit):
        cfg = tmp_path / "long.cfg"
        cfg.write_text(SMALL_HEAT_CONFIG.replace(*edit))
        assert cfg.read_text() != SMALL_HEAT_CONFIG
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config-error: rate ") and err.count("\n") == 1
        assert "gives inf samples; a sample count must be finite and fit an index" in err
        assert not out.exists()

    @pytest.mark.parametrize("edit", [("horizon = 10.0", "horizon = 1e12"),
                                      ("rate = 20.0\njitter = 0.01", "rate = 1e12\njitter = 0.0")])
    def test_config_over_the_sample_cap_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                         edit):
        # some 1e13 samples: rejected before the schedule allocates a time for each
        from cdmkit.experiment import DEFAULT_HEAT_CONFIG
        from cdmkit.simulation import SamplingSchedule

        def no_draw(self):
            raise AssertionError("the schedule was drawn for a config over the cap")

        monkeypatch.setattr(SamplingSchedule, "sample_times", no_draw)
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(DEFAULT_HEAT_CONFIG.replace(*edit))
        assert cfg.read_text() != DEFAULT_HEAT_CONFIG
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config-error: rate ") and err.count("\n") == 1
        assert "samples, more than the 1e+08 a config may ask for" in err
        assert not out.exists()

    def test_config_over_the_step_cap_is_config_error(self, tmp_path, capsys, monkeypatch):
        # 1,000 samples a thousand seconds apart, 2e6 integration steps each
        def no_simulation(*args, **kwargs):
            raise AssertionError("integrate ran on a config over the cap")

        monkeypatch.setattr("cdmkit.experiment.integrate", no_simulation)
        cfg = tmp_path / "sparse.cfg"
        cfg.write_text(SMALL_HEAT_CONFIG.replace("rate = 20.0", "rate = 0.001")
                       .replace("horizon = 4.0", "horizon = 1e6"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config-error: rate 0.001 over horizon 1000000.0 gives ")
        assert err.endswith(" integration steps, more than the 1e+08 a config may ask for\n")
        assert not out.exists()

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "typo.cfg"
        bad.write_text(SMALL_HEAT_CONFIG.replace("horizon =", "horizn ="))
        assert main(["run", str(bad)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config-error: unknown key 'horizn' in [sampling]\n"

    def test_malformed_mode_number_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_HEAT_CONFIG.replace(
            "kind = heat-threemode",
            "kind = modes\n\n[cdm.mode.1]\nregion = interval,1,0.0,0.25\n"
            "linear = 1 0 zero 3\ntranslation = 0.0 0.25"))
        assert main(["run", str(bad)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config-error:")

    def test_cdm_separation_is_config_error(self, tmp_path, capsys):
        # a declared gap the check would ignore is rejected, naming the value it uses
        cfg = tmp_path / "gap.cfg"
        cfg.write_text(SMALL_HEAT_CONFIG.replace("kind = heat-threemode",
                                                 "kind = heat-threemode\nseparation = 0.5"))
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config-error: [cdm] separation") and "[identification] delta" in err

    def test_delta_beyond_mode_gap_is_identification_failure(self, tmp_path, capsys):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(SMALL_HEAT_CONFIG.replace("delta = 0.4", "delta = 0.6"))
        assert main(["run", str(cfg)]) == EXIT_IDENTIFICATION
        assert capsys.readouterr().err.startswith("identification-failure:")

    def test_overlapping_regions_are_config_error(self, tmp_path, capsys):
        # an interval and a ball that share inputs are rejected before the run starts
        cfg = tmp_path / "overlap.cfg"
        cfg.write_text(SMALL_HEAT_CONFIG.replace(
            "kind = heat-threemode",
            "kind = modes\n\n[cdm.mode.1]\nregion = interval, 1, 0.0, 0.5\n"
            "linear = 1 0 0 3\ntranslation = 0 0.25\n\n[cdm.mode.2]\n"
            "region = ball, 0.3, 1.0, 0.4\nlinear = 1 0 0 -2\ntranslation = 0 2.5"))
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config-error: mode regions 0 and 1 overlap\n"

    def test_modes_closer_than_delta_in_tiny_balls_are_identification_failure(
            self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(SMALL_HEAT_CONFIG.replace(
            "kind = heat-threemode",
            "kind = modes\n\n[cdm.mode.1]\nregion = ball, 0.02, 5.0, 0.5\n"
            "linear = 1 0 0 1\ntranslation = 0 0\n\n[cdm.mode.2]\n"
            "region = ball, 0.02, 5.05, 0.5\nlinear = 1 0 0 1\ntranslation = 0 0"))
        assert main(["run", str(cfg)]) == EXIT_IDENTIFICATION
        assert capsys.readouterr().err.startswith(
            "identification-failure: ground-truth modes are only 0.0141421 apart")

    def test_rank_deficient_observation_is_identification_failure(self, tmp_path, capsys):
        # the depth column of g(x) is the boundary temperature, 0 at the first
        # sample, so its effective input cannot be recovered
        cfg = tmp_path / "cold.cfg"
        cfg.write_text(SMALL_HEAT_CONFIG
                       .replace("grid_points = 51", "grid_points = 21\nnonlinear_depth = true\n"
                                "initial_temperature = 0.0")
                       .replace("source_width = 0.05", "source_width = 0.1")
                       .replace("horizon = 4.0", "horizon = 2.0"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output", str(out)]) == EXIT_IDENTIFICATION
        err = capsys.readouterr().err
        assert err.startswith("identification-failure: observation 0 at t = 0.0025")
        assert "rank 1 < 2" in err and err.count("\n") == 1
        assert not out.exists()  # the run stops before writing any artifact

    @pytest.mark.parametrize("b, solves", [("1.0 0.0 0.0 0.0", []),
                                           ("1.0 1.0 1.0 1.0", [("lstsq", (2,))])],
                             ids=["chunked", "one-by-one"])
    def test_rank_deficient_linear_input_matrix_is_identification_failure(
            self, tmp_path, capsys, linalg_calls, b, solves):
        # B has rank 1 < 2: the stream stops at observation 0 with the message of
        # recover_effective_input, whether B's closed form or the observation's lstsq
        # finds the rank
        text = textwrap.dedent(f"""\
            [system]
            kind = linear
            state_dim = 2
            input_dim = 2
            a = 0.0 0.0 0.0 0.0
            b = {b}

            [cdm]
            kind = identity

            [signal]
            kind = constant
            values = 1.0 0.5

            [sampling]
            rate = 10.0
            horizon = 1.0

            [identification]
            delta = 0.5
            modes = 1
            """)
        config = parse_config_text(text)
        model = config.model()
        first = integrate(model, None, config.x0, config.signal, config.schedule)[0]
        with pytest.raises(cdmkit.PreconditionError) as failure:
            recover_effective_input(first, model)
        cfg = tmp_path / "rank.cfg"
        cfg.write_text(text)
        linalg_calls.clear()
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output", str(out)]) == EXIT_IDENTIFICATION
        assert capsys.readouterr().err == (f"identification-failure: observation 0 at t = "
                                           f"{first.time!r}: {failure.value}\n")
        assert "input matrix rank 1 < 2" in str(failure.value)
        assert linalg_calls == solves and not out.exists()

    def test_pair_beyond_range_is_identification_failure(self, tmp_path, capsys):
        # every command is 1e200: its squared norm would overflow the unaffected test
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(textwrap.dedent("""\
            [system]
            kind = linear
            state_dim = 1
            input_dim = 1
            a = 0.0
            b = 1.0

            [cdm]
            kind = modes

            [cdm.mode.1]
            region = interval,0,1e199,1e201
            linear = -1.0
            translation = 0.0

            [signal]
            kind = constant
            values = 1e200

            [sampling]
            rate = 10.0
            horizon = 0.5

            [identification]
            delta = 0.5
            modes = 1
            """))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output", str(out)]) == EXIT_IDENTIFICATION
        err = capsys.readouterr().err
        assert err == ("identification-failure: observation 0 at t = 0.0: input has a "
                       "component that is not finite or beyond 1e+150 in magnitude\n")
        assert not out.exists()

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

    def test_file_not_utf8_is_parse_error(self, tmp_path, capsys):
        assert main(["report", str(not_utf8(tmp_path / "bad.txt"))]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("parse-error:") and "not UTF-8" in err
        assert err.count("\n") == 1

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

    @pytest.mark.parametrize("vector", [["1e200", "0.5"], ["0.5", "-1e300"]])
    def test_far_command_passes_through(self, heat_run, capsys, vector):
        path = heat_run[1].artifacts["reconstruction"]
        assert main(["viabilize", path, *vector]) == EXIT_OK
        assert capsys.readouterr().out.split() == [repr(float(v)) for v in vector]

    def test_far_command_without_unaffected_pairs_is_unviable(self, heat_run, tmp_path,
                                                              capsys):
        config, result, _ = heat_run
        m = result.reconstruction.input_dim
        pairs = [(row[:m], row[m:])
                 for mode in result.reconstruction.modes for row in mode.pairs]
        bare = build_reconstruction_from_pairs(pairs, config.identification)
        assert len(bare.unaffected) == 0 and len(bare.modes) == 3
        path = tmp_path / "no_unaffected.txt"
        write_reconstruction(path, bare)
        assert main(["viabilize", str(path), "1e200", "0.5"]) == EXIT_UNVIABLE
        assert capsys.readouterr().err.startswith("unviable-input:")

    def test_file_not_utf8_is_parse_error(self, tmp_path, capsys):
        path = not_utf8(tmp_path / "bad.txt")
        assert main(["viabilize", str(path), "1.0", "0.5"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("parse-error:") and "not UTF-8" in err
        assert err.count("\n") == 1

    def test_missing_vector(self, small_run, capsys):
        _, out = small_run
        assert main(["viabilize", str(out / "reconstruction.txt")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config-error:")

    def test_non_numeric_vector(self, small_run, capsys):
        _, out = small_run
        code = main(["viabilize", str(out / "reconstruction.txt"), "abc"])
        assert code == EXIT_CONFIG


class TestCorruptedReconstruction:
    """Inconsistent reconstruction files are parse errors (exit 2), never tracebacks."""

    def assert_parse_error(self, heat_run, tmp_path, capsys, edit):
        lines = pathlib.Path(heat_run[1].artifacts["reconstruction"]).read_text().splitlines()
        edit(lines)
        bad = tmp_path / "corrupt.txt"
        bad.write_text("\n".join(lines) + "\n")
        for argv in (["report", str(bad)], ["viabilize", str(bad), "1.0", "0.9"]):
            assert main(argv) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("parse-error:") and "(line " in err

    def test_shifted_outer_center(self, heat_run, tmp_path, capsys):
        def edit(lines):
            i = lines.index("[outer]") + 2
            fields = lines[i].split(",")
            fields[0] = repr(float(fields[0]) + 0.3)
            lines[i] = ",".join(fields)

        self.assert_parse_error(heat_run, tmp_path, capsys, edit)

    def test_swapped_star_side(self, heat_run, tmp_path, capsys):
        def edit(lines):
            i = lines.index("[inner]") + 2
            lines[i] = lines[i].replace(",inner", ",outer")

        self.assert_parse_error(heat_run, tmp_path, capsys, edit)

    def test_tampered_residual(self, heat_run, tmp_path, capsys):
        def edit(lines):
            i = next(i for i, line in enumerate(lines) if line.startswith("residual,"))
            lines[i] = "residual,0.5"

        self.assert_parse_error(heat_run, tmp_path, capsys, edit)

    def test_modes_beyond_budget(self, heat_run, tmp_path, capsys):
        def edit(lines):
            lines[lines.index("mode_count,3")] = "mode_count,1"

        self.assert_parse_error(heat_run, tmp_path, capsys, edit)

    @pytest.mark.parametrize("dim", ["1000000000000000000", "99999999999999999999999"])
    def test_input_dim_beyond_an_array_row_is_parse_error(self, tmp_path, capsys, dim):
        # no NumPy array holds a pair row of 2 * input_dim floats; 1e10 still reads
        def write(dim):
            path = tmp_path / f"dim{dim}.txt"
            path.write_text(f"cdm-reconstruction v1\ninput_dim,{dim}\nmode_count,1\n"
                            "separation,1.0\nmodes,0\nunaffected,0\n[unaffected]\n"
                            "[end unaffected]\n")
            return str(path)

        assert main(["report", write(10_000_000_000)]) == EXIT_OK
        capsys.readouterr()
        for argv in (["report", write(dim)], ["viabilize", write(dim), "1.0", "0.9"]):
            assert main(argv) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("parse-error:") and "(line 2)" in err

    @pytest.mark.filterwarnings("error")
    def test_single_token_mutations_never_exit_1(self, heat_run, tmp_path):
        # every token of every line replaced in turn by each of these values;
        # no mutant warns, not even one whose pairs imply a steeper region
        lines = pathlib.Path(heat_run[1].artifacts["reconstruction"]).read_text().splitlines()
        bad = tmp_path / "mutant.txt"
        allowed = {EXIT_OK, EXIT_CONFIG, EXIT_IDENTIFICATION, EXIT_UNVIABLE}
        exits = Counter()
        sink = io.StringIO()
        for i, line in enumerate(lines):
            tokens = line.split(",")
            for j in range(len(tokens)):
                for value in ("nan", "inf", "-1", "x", "", "1e400", "0"):
                    mutant = tokens[:j] + [value] + tokens[j + 1:]
                    bad.write_text("\n".join(lines[:i] + [",".join(mutant)] + lines[i + 1:]))
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        codes = (main(["report", str(bad)]),
                                 main(["viabilize", str(bad), "1.0", "0.9"]))
                    sink.seek(0)
                    sink.truncate()
                    exits.update(codes)
                    assert set(codes) <= allowed, (i + 1, j, value, codes)
        assert exits.total() > 10_000 and exits[EXIT_CONFIG] > exits[EXIT_OK]


class TestConfigMutations:
    # (section, key, value) mutants the method does not admit, which used to run to exit 0
    SILENT = {("identification", "delta", "nan")} | {
        ("identification", key, value)
        for key, values in (("lipschitz", ("nan", "inf", "1e400", "0")),
                            ("identity_tol", ("nan", "inf", "-1", "1e400")))
        for value in values}
    # mutants that used to escape as a traceback (exit 1)
    RAISED = {("system", "source_width", "nan")} | {
        (section, key, value)
        for section, key, values in (
            ("system", "diffusivity", ("nan", "inf", "1e400")),
            ("system", "initial_temperature", ("nan", "inf", "1e400")),
            ("system", "initial_depth", ("nan", "inf", "1e400")))
        for value in values}

    def test_single_value_mutations_never_exit_1(self, tmp_path):
        # every value of the bundled config (horizon 1) replaced in turn by
        # each of these values, run through the CLI
        from cdmkit.experiment import DEFAULT_HEAT_CONFIG

        lines = DEFAULT_HEAT_CONFIG.replace("horizon = 10.0", "horizon = 1.0").splitlines()
        cfg, out = tmp_path / "mutant.cfg", tmp_path / "out"
        exits = {}
        section = None
        sink = io.StringIO()
        for i, line in enumerate(lines):
            if line.startswith("["):
                section = line.strip("[]")
                continue
            if "=" not in line:
                continue
            key = line.split("=")[0].strip()
            for value in ("nan", "inf", "-1", "x", "", "1e400", "0", "0.5", "7"):
                cfg.write_text("\n".join(lines[:i] + [f"{key} = {value}"] + lines[i + 1:]))
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    exits[section, key, value] = main(["run", str(cfg), "--output", str(out)])
                sink.seek(0)
                sink.truncate()
        assert len(exits) == 19 * 9  # 19 keys in 7 sections
        # a finite delta above the ground-truth mode gap is an identification failure
        assert {k for k, code in exits.items()
                if code == EXIT_IDENTIFICATION} == {("identification", "delta", "7")}
        assert set(exits.values()) == {EXIT_OK, EXIT_CONFIG, EXIT_IDENTIFICATION}
        assert len(self.SILENT) == 9 and len(self.RAISED) == 10
        assert all(exits[case] == EXIT_CONFIG for case in self.SILENT | self.RAISED)


def _numbers(path):
    """Every token of a text artifact that parses as a float."""
    for token in re.split(r"[\s,]+", path.read_text()):
        try:
            yield float(token)
        except ValueError:
            pass


def test_every_declared_key_mutated_never_exits_1(tmp_path, monkeypatch):
    # each key of the config key table, set in turn to each value in a base
    # config of its kind (horizon 1) and run through the CLI; a key is
    # mutated in the first base that sets it
    from cdmkit.experiment import _KEYS, DEFAULT_HEAT_CONFIG
    from test_experiment import LINEAR_MODES_CONFIG

    linear = LINEAR_MODES_CONFIG.replace("horizon = 4.0", "horizon = 1.0") + textwrap.dedent("""
        [convergence]
        axis = 1
        regions = 0.0:0.25 0.75:1.0

        [output]
        directory = out
        """)
    constant = linear.replace("kind = raised-cosine\noffset = 1.0 0.0\namplitude = 0.0 1.0\n"
                              "period = 0.3", "kind = constant\nvalues = 1.0 0.5")
    heat = DEFAULT_HEAT_CONFIG.replace("horizon = 10.0", "horizon = 1.0").replace(
        "initial_depth = 0.0", "initial_depth = 0.0\nnonlinear_depth = false")
    assert len({linear, constant, heat, LINEAR_MODES_CONFIG, DEFAULT_HEAT_CONFIG}) == 5
    monkeypatch.chdir(tmp_path)  # each run writes to its config's directory
    mutated, exits = set(), Counter()
    sink = io.StringIO()
    for base in (linear, constant, heat):
        lines = base.splitlines()
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(base)
        for i, line in enumerate(lines):
            if line.startswith("["):
                section = line.strip("[]")
                name = "cdm.mode.N" if section.startswith("cdm.mode.") else section
                continue
            if "=" not in line:
                continue
            key = line.split("=")[0].strip()
            kind = None if key in _KEYS[name, None] else parser.get(section, "kind")
            if (name, kind, key) in mutated:
                continue
            mutated.add((name, kind, key))
            for value in ("nan", "inf", "-1", "x", "", "1e400", "0", "0.5", "7"):
                pathlib.Path("mutant.cfg").write_text(
                    "\n".join(lines[:i] + [f"{key} = {value}"] + lines[i + 1:]))
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = main(["run", "mutant.cfg"])
                exits[code] += 1
                assert code in {EXIT_OK, EXIT_CONFIG, EXIT_IDENTIFICATION}, (section, key, value)
                if code == EXIT_OK:  # the last three lines name the artifacts
                    paths = [pathlib.Path(printed.split(": ", 1)[1])
                             for printed in sink.getvalue().splitlines()[-3:]]
                    for path in paths[:2]:
                        numbers = list(_numbers(path))
                        assert numbers and np.isfinite(numbers).all(), (path, key, value)
                    # a region not yet observed is at distance inf, by definition
                    table = np.genfromtxt(paths[2], delimiter=",", skip_header=1, ndmin=2)
                    assert np.isfinite(table[:, :2]).all() and not np.isnan(table).any()
                sink.seek(0)
                sink.truncate()
    assert mutated == {(name, kind, key) for (name, kind), keys in _KEYS.items() for key in keys}
    assert sum(exits.values()) == 9 * len(mutated) and exits[EXIT_OK] and exits[EXIT_CONFIG]


class TestBundledConfig:
    def test_repo_config_matches_default(self):
        import pathlib

        from cdmkit.experiment import DEFAULT_HEAT_CONFIG

        repo_cfg = pathlib.Path(__file__).resolve().parents[1] / "configs" / "heat_electrosurgery.cfg"
        assert repo_cfg.read_text() == DEFAULT_HEAT_CONFIG


def test_serving_path_never_loads_scipy(heat_run):
    # parsing, reading and serving need no SciPy
    repo = pathlib.Path(__file__).resolve().parents[1]
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        import numpy as np
        import cdmkit as ck
        from cdmkit import cli

        ck.parse_config({str(repo / "configs" / "heat_electrosurgery.cfg")!r})
        path = {str(heat_run[1].artifacts["reconstruction"])!r}
        recon = ck.read_reconstruction(path)
        u_v = ck.viabilize(recon, np.array([1.0, 0.9]))
        assert ck.query(recon, u_v).kind == ck.QueryKind.MAPPED
        assert ck.lipschitz_error_bound(recon, u_v, 3.0) >= 0.0
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["report", path]) == cli.EXIT_OK
            assert cli.main(["viabilize", path, "1.0", "0.9"]) == cli.EXIT_OK
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        assert not loaded, loaded[:5]
    """)
    src = str(pathlib.Path(cdmkit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_bundled_run_never_loads_scipy_stats(tmp_path):
    # a run, a batch rebuild from its read-back samples and the CLI's run and
    # report load no SciPy module at all
    repo = pathlib.Path(__file__).resolve().parents[1]
    script = textwrap.dedent(f"""
        import contextlib, io, os, sys
        import cdmkit as ck
        from cdmkit import cli

        config = ck.default_heat_config()
        result = ck.run_experiment(config, out_dir={str(tmp_path / "api")!r})
        assert len(result.records) == 200
        samples = ck.read_samples(result.artifacts["samples"])
        recon = ck.build_reconstruction(samples, config.model(), config.identification)
        assert len(recon.modes) == len(result.reconstruction.modes)
        out = {str(tmp_path / "cli")!r}
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["run", {str(repo / "configs" / "heat_electrosurgery.cfg")!r},
                             "--output", out]) == cli.EXIT_OK
            assert cli.main(["report", os.path.join(out, "reconstruction.txt")]) == cli.EXIT_OK
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        assert not loaded, loaded[:5]
    """)
    src = str(pathlib.Path(cdmkit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def fresh_env(**settings):
    """The test's environment with ``src`` importable, no BLAS thread count, then ``settings``."""
    src = str(pathlib.Path(cdmkit.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    return {**env, "PYTHONPATH": src, **settings}


def test_help_and_argument_errors_never_load_numpy():
    # the console entry pins BLAS threads only if NumPy is not loaded yet
    script = textwrap.dedent("""
        import contextlib, io, os, sys
        import cdmkit
        from cdmkit import cli

        # importing the package and the CLI sets nothing; only entry() does
        assert not any(os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
        codes = []
        for argv in (["--help"], ["run"], ["viabilize"], ["frobnicate"]):
            sys.argv = ["cdmkit", *argv]
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    cli.entry()
                except SystemExit as exc:
                    codes.append(exc.code)
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
        assert not loaded, loaded[:5]
        print(codes, os.environ["OPENBLAS_NUM_THREADS"], os.environ["OMP_NUM_THREADS"])
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=fresh_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 2, 2, 2] 1 1"


def test_entry_keeps_the_callers_thread_count(monkeypatch, capsys):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setattr(sys, "argv", ["cdmkit", "--help"])
    with pytest.raises(SystemExit) as stop:
        entry()
    assert stop.value.code == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
    assert os.environ["OMP_NUM_THREADS"] == "1"


def test_closed_stdout_exits_0_silently(tmp_path):
    # a reader that stops reading (``cdmkit report FILE | head -0``) loses
    # only the output it chose not to read
    cfg, out = tmp_path / "small.cfg", tmp_path / "out"
    cfg.write_text(SMALL_HEAT_CONFIG.replace("horizon = 4.0", "horizon = 1.0"))
    for argv in (["run", str(cfg), "--output", str(out)],
                 ["report", str(out / "reconstruction.txt")],
                 ["viabilize", str(out / "reconstruction.txt"), "1.0", "0.9"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "cdmkit.cli", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, env=fresh_env(), timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, ""), argv[0]
        assert all((out / name).is_file()
                   for name in ("samples.csv", "reconstruction.txt", "convergence.csv"))


def test_main_leaves_the_environment_alone(tmp_path, capsys):
    before = dict(os.environ)
    assert main(["report", str(tmp_path / "missing.txt")]) == EXIT_CONFIG
    assert main(["run", str(tmp_path / "missing.cfg")]) == EXIT_CONFIG
    assert dict(os.environ) == before


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at 101 grid points the state has 102 components, enough for OpenBLAS
    # to split the step map's products across threads; the CLI's pin of one
    # thread must not change a byte
    cfg = tmp_path / "heat.cfg"
    cfg.write_text(SMALL_HEAT_CONFIG.replace("grid_points = 51", "grid_points = 101"))
    digests = []
    for name, settings in (("pinned", {}), ("threads2", {"OPENBLAS_NUM_THREADS": "2"})):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "cdmkit.cli", "run", str(cfg), "--output", str(out)],
            capture_output=True, text=True, env=fresh_env(**settings), timeout=300)
        assert proc.returncode == EXIT_OK, proc.stderr
        digests.append({artifact: hashlib.sha256((out / artifact).read_bytes()).hexdigest()
                        for artifact in ("samples.csv", "reconstruction.txt",
                                         "convergence.csv")})
    assert digests[0] == digests[1]


# sha256 of the bundled run's artifacts under OpenBLAS's baseline x86-64 kernel
# (Prescott; Nehalem and Sandybridge write the same bytes), by the run's delta:
# the bundled 0.4, and 0.001, which leaves up to 77 threshold components and
# forces thousands of merges.  reconstruction.txt is the same under every
# kernel (see test_reconstruction_is_written_and_read_alike_under_two_kernels);
# samples.csv is not.  Any change to them is a change to the artifacts and is
# recorded in CHANGES.md with its reason.
GOLDEN_DIGESTS = {
    ("0.4", "10.0"): {
        "samples.csv": "ca75f769b31b93f9af834e84b022f1c3bff04e756ac932cc071dc4bddc38692c",
        "reconstruction.txt": "097e3ad4cf6710dacd7bea6a4583746d46b3053a7181d827d997f51f7f93d6f2",
        "convergence.csv": "34c2a9ea86400379ea04a9cdc6ba0e737e7f672120a015e5714c32ce4cde7022",
    },
    ("0.001", "10.0"): {
        "samples.csv": "ca75f769b31b93f9af834e84b022f1c3bff04e756ac932cc071dc4bddc38692c",
        "reconstruction.txt": "fb5efc27367212a4e466960f873f4efb901ca17e2eedf601b57221a260a754d7",
        "convergence.csv": "34c2a9ea86400379ea04a9cdc6ba0e737e7f672120a015e5714c32ce4cde7022",
    },
    ("0.4", "40.0"): {
        "samples.csv": "5dd97003db18f365cb610787080b5ff5546982b7ae94a7c8ab259a8e97752161",
        "reconstruction.txt": "663047358d3795940df37536e882d2a9468c56fd9ce1b985f4f6d4e341f90fe2",
        "convergence.csv": "48a6f4b383b66a241d3f226c66d718cb515a189208767b7e750d02a718f220b1",
    },
}


def openblas_picks_its_kernel() -> bool:
    """Whether NumPy's BLAS is an OpenBLAS built with ``DYNAMIC_ARCH``, so one kernel can be forced."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return ("openblas" in str(blas.get("name", "")).lower()
            and "DYNAMIC_ARCH" in str(blas.get("openblas configuration", "")))


kernel_forced = pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64") or not openblas_picks_its_kernel(),
    reason="the golden digests are those of OpenBLAS's Prescott kernel, which "
           "only an x86-64 OpenBLAS built with DYNAMIC_ARCH can be made to use")


def run_bundled(out, delta="0.4", kernel="Prescott", horizon="10.0") -> pathlib.Path:
    """Run the bundled config at ``delta`` and ``horizon`` under the OpenBLAS ``kernel`` into ``out``."""
    bundled = pathlib.Path(__file__).resolve().parents[1] / "configs" / "heat_electrosurgery.cfg"
    out.mkdir()
    cfg = out / "run.cfg"
    cfg.write_text(bundled.read_text().replace("delta = 0.4", f"delta = {delta}")
                   .replace("horizon = 10.0", f"horizon = {horizon}"))
    proc = subprocess.run(
        [sys.executable, "-m", "cdmkit.cli", "run", str(cfg), "--output", str(out)],
        capture_output=True, text=True, timeout=300,
        env=fresh_env(OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == EXIT_OK, proc.stderr
    return out


@kernel_forced
@pytest.mark.parametrize("delta, horizon", GOLDEN_DIGESTS, ids=[
    delta if horizon == "10.0" else f"{delta}-horizon{horizon}" for delta, horizon in GOLDEN_DIGESTS])
def test_bundled_artifacts_keep_their_golden_digests(tmp_path, delta, horizon):
    out = run_bundled(tmp_path / "out", delta, horizon=horizon)
    assert {artifact: hashlib.sha256((out / artifact).read_bytes()).hexdigest()
            for artifact in GOLDEN_DIGESTS[delta, horizon]} == GOLDEN_DIGESTS[delta, horizon]


@kernel_forced
def test_reconstruction_is_written_and_read_alike_under_two_kernels(tmp_path):
    # the recovery and the fit call no BLAS or LAPACK routine, so the written
    # fits do not depend on the kernel, and each file reads back under the other
    kernels = ("Haswell", "Prescott")
    written = {kernel: run_bundled(tmp_path / kernel, kernel=kernel) / "reconstruction.txt"
               for kernel in kernels}
    assert len({path.read_bytes() for path in written.values()}) == 1
    for kernel, other in zip(kernels, reversed(kernels)):
        proc = subprocess.run(
            [sys.executable, "-m", "cdmkit.cli", "report", str(written[kernel])],
            capture_output=True, text=True, timeout=120,
            env=fresh_env(OPENBLAS_CORETYPE=other, OPENBLAS_NUM_THREADS="1"))
        assert (proc.returncode, proc.stderr) == (EXIT_OK, ""), (kernel, other)


# One mode of a Lipschitz (not affine) truth: u on [0, 1]^2, degraded where
# u1 < 0.5.  The fit is inexact, so each residual line carries rounding of
# its own; these seeds' residuals rounded differently under Haswell's and
# Prescott's BLAS kernels while the residual was a BLAS product.
LIPSCHITZ_TRUTH_BUILD = textwrap.dedent("""
    import sys, warnings
    import numpy as np
    from cdmkit.identification import IdentificationConfig, build_reconstruction_from_pairs
    from cdmkit.serialization import write_reconstruction

    warnings.simplefilter("ignore")
    config = IdentificationConfig(delta=0.4, n_modes=1)
    for seed in (0, 442, 505):
        rng = np.random.default_rng(seed)
        a, b, c = rng.uniform(-0.5, 0.5, 3)
        pairs = []
        for u in rng.uniform(0.0, 1.0, (30, 2)):
            v = u.copy()
            if u[1] < 0.5:
                v = np.array([u[0] + a * u[1], 0.2 * np.sin(3 * u[0]) + b * u[1] + 2 + c])
            pairs.append((u, v))
        recon = build_reconstruction_from_pairs(pairs, config)
        write_reconstruction(f"{sys.argv[1]}/{seed}.txt", recon)
""")


@kernel_forced
def test_inexact_fits_are_written_and_read_alike_under_two_kernels(tmp_path):
    # the residuals, the unaffected split and the witness dedup call no BLAS
    # routine, so an inexact fit's file does not depend on the kernel either
    kernels = ("Haswell", "Prescott")
    for kernel in kernels:
        (tmp_path / kernel).mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", LIPSCHITZ_TRUTH_BUILD, str(tmp_path / kernel)],
            capture_output=True, text=True, timeout=120,
            env=fresh_env(OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1"))
        assert proc.returncode == 0, proc.stderr
    names = sorted(path.name for path in (tmp_path / kernels[0]).iterdir())
    assert len(names) == 3
    for name in names:
        written = {kernel: tmp_path / kernel / name for kernel in kernels}
        assert len({path.read_bytes() for path in written.values()}) == 1, name
        for kernel, other in zip(kernels, reversed(kernels)):
            proc = subprocess.run(
                [sys.executable, "-m", "cdmkit.cli", "report", str(written[kernel])],
                capture_output=True, text=True, timeout=120,
                env=fresh_env(OPENBLAS_CORETYPE=other, OPENBLAS_NUM_THREADS="1"))
            assert (proc.returncode, proc.stderr) == (EXIT_OK, ""), (name, kernel, other)


# Under one kernel, for each reconstruction file: its report, each mode's
# AffineMap images over a grid of [0, 1]^2, and the query of each grid point
# and each cluster input, with every float as its bytes.
SERVED_VALUES = textwrap.dedent("""
    import sys
    import numpy as np
    from cdmkit.experiment import render_report
    from cdmkit.identification import query
    from cdmkit.serialization import read_reconstruction

    grid = [np.array([a, b]) for a in np.linspace(0.0, 1.0, 41) for b in np.linspace(0.0, 1.0, 41)]
    for path in sys.argv[1:]:
        recon = read_reconstruction(path)
        print(render_report(recon))
        for mode in recon.modes:
            print(*(mode.map(u).tobytes().hex() for u in grid))
        for u in grid + [pair[:2] for mode in recon.modes for pair in mode.pairs]:
            result = query(recon, u)
            print(result.kind, None if result.value is None else result.value.tobytes().hex())
""")


@kernel_forced
def test_served_values_of_dense_fits_are_alike_under_two_kernels(tmp_path):
    # query's mapped values, AffineMap images and the report's corner images
    # are evaluated in Python floats, so a dense fit serves the same bits under
    # both kernels (Haswell's product fuses multiply and add, Prescott's does not)
    proc = subprocess.run(
        [sys.executable, "-c", LIPSCHITZ_TRUTH_BUILD, str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env=fresh_env(OPENBLAS_CORETYPE="Prescott", OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 0, proc.stderr
    files = sorted(str(path) for path in tmp_path.glob("*.txt"))
    assert len(files) == 3
    served = {}
    for kernel in ("Haswell", "Prescott"):
        proc = subprocess.run(
            [sys.executable, "-c", SERVED_VALUES, *files], capture_output=True, text=True,
            timeout=120, env=fresh_env(OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1"))
        assert (proc.returncode, proc.stderr) == (0, ""), kernel
        served[kernel] = proc.stdout
    assert served["Haswell"] == served["Prescott"]
    assert served["Prescott"].count("\nmapped ") > 100
