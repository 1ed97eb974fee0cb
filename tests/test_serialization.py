"""Round-trip and parse-error tests for the plain-text file formats."""

import numpy as np
import pytest

from cdmkit.errors import ReportParseError
from cdmkit.geometry import Side
from cdmkit.identification import (
    IdentificationConfig,
    build_reconstruction,
    build_reconstruction_from_pairs,
)
from cdmkit.serialization import (
    read_reconstruction,
    read_samples,
    reconstruction_to_lines,
    write_reconstruction,
    write_samples,
)
from cdmkit.simulation import ControlSample

from trials import TRIAL_DELTA, TRIAL_LIPSCHITZ, make_trial


TRIAL_CONFIG = IdentificationConfig(delta=TRIAL_DELTA, n_modes=3, lipschitz=TRIAL_LIPSCHITZ)


@pytest.fixture
def recon():
    model, cdm, samples, m, N = make_trial(3)
    return build_reconstruction(samples, model, TRIAL_CONFIG)


class TestSampleLog:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = [
            ControlSample(time=float(t), state=rng.normal(size=3),
                          velocity=rng.normal(size=3), input=rng.normal(size=2))
            for t in np.linspace(0.0, 1.0, 5)
        ]
        path = tmp_path / "samples.csv"
        write_samples(path, samples)
        back = read_samples(path)
        assert len(back) == 5
        for a, b in zip(samples, back):
            assert a.time == b.time
            np.testing.assert_array_equal(a.state, b.state)
            np.testing.assert_array_equal(a.velocity, b.velocity)
            np.testing.assert_array_equal(a.input, b.input)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2,3\n")
        with pytest.raises(ReportParseError):
            read_samples(path)

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,x0,dx0,u0\n0.0,1.0,2.0\n")
        with pytest.raises(ReportParseError) as err:
            read_samples(path)
        assert err.value.line == 2


class TestStarFormat:
    def test_round_trip(self, tmp_path, recon):
        # star blocks are written and read only inside a reconstruction file
        path = tmp_path / "recon.txt"
        write_reconstruction(path, recon)
        back = read_reconstruction(path)
        stars = [(a.inner, b.inner) for a, b in zip(recon.modes, back.modes)]
        stars += [(a.outer, b.outer) for a, b in zip(recon.modes, back.modes)]
        assert stars and {a.side for a, _ in stars} == {Side.INNER, Side.OUTER}
        for star, got in stars:
            np.testing.assert_array_equal(got.center, star.center)
            np.testing.assert_array_equal(got.directions, star.directions)
            np.testing.assert_array_equal(got.radii, star.radii)
            assert got.lipschitz == star.lipschitz and got.side is star.side


class TestReconstructionFormat:
    def test_round_trip(self, tmp_path, recon):
        path = tmp_path / "recon.txt"
        write_reconstruction(path, recon)
        back = read_reconstruction(path)
        assert back.input_dim == recon.input_dim
        assert back.mode_count == recon.mode_count
        assert len(back.modes) == len(recon.modes)
        assert len(back.unaffected) == len(recon.unaffected)
        for a, b in zip(recon.modes, back.modes):
            assert a.identified == b.identified
            np.testing.assert_array_equal(a.map.linear, b.map.linear)
            np.testing.assert_array_equal(a.map.translation, b.map.translation)
            np.testing.assert_array_equal(a.inner.directions, b.inner.directions)
            np.testing.assert_array_equal(a.inner.radii, b.inner.radii)
            np.testing.assert_array_equal(a.outer.radii, b.outer.radii)
            np.testing.assert_allclose(a.residuals, b.residuals, atol=1e-15)

    def test_round_trip_empty_outer(self, tmp_path, recon):
        # without unaffected pairs every outer block has no witness rows
        affected = [p for mode in recon.modes for p in mode.pairs]
        alone = build_reconstruction_from_pairs(affected, TRIAL_CONFIG)
        path = tmp_path / "recon.txt"
        write_reconstruction(path, alone)
        back = read_reconstruction(path)
        assert back.modes and not back.unaffected
        for mode in back.modes:
            assert mode.outer.n_samples == 0 and mode.outer.side is Side.OUTER
        assert reconstruction_to_lines(back) == reconstruction_to_lines(alone)

    @pytest.mark.parametrize("block, edit", [
        # the declared dimension disagrees with the center's length
        ("[inner]", lambda f: f[:-3] + ["7"] + f[-2:]),
        ("[outer]", lambda f: f[:-1] + ["sideways"]),
    ], ids=["dim", "side"])
    def test_malformed_star_metadata_reports_line(self, tmp_path, recon, block, edit):
        lines = reconstruction_to_lines(recon)
        idx = lines.index(block) + 2  # the header, then the metadata line
        lines[idx] = ",".join(edit(lines[idx].split(",")))
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ReportParseError) as err:
            read_reconstruction(path)
        assert err.value.line == idx + 1

    def test_deterministic_bytes(self, tmp_path, recon):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_reconstruction(p1, recon)
        write_reconstruction(p2, recon)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_names_missing_section(self, tmp_path, recon):
        lines = reconstruction_to_lines(recon)
        cut = next(i for i, l in enumerate(lines) if l == "[unaffected]")
        path = tmp_path / "trunc.txt"
        path.write_text("\n".join(lines[:cut]) + "\n")
        with pytest.raises(ReportParseError) as err:
            read_reconstruction(path)
        assert "[unaffected]" in str(err.value)
        assert err.value.line is not None

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a reconstruction\n")
        with pytest.raises(ReportParseError):
            read_reconstruction(path)

    def test_corrupted_numeric_field(self, tmp_path, recon):
        lines = reconstruction_to_lines(recon)
        idx = next(i for i, l in enumerate(lines) if l.startswith("linear,"))
        lines[idx] = "linear,abc"
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ReportParseError) as err:
            read_reconstruction(path)
        assert err.value.line == idx + 1

    @pytest.mark.parametrize(
        "key", ["input_dim", "mode_count", "modes", "unaffected", "identified", "pairs",
                "samples", "separation", "residual"])
    def test_corrupted_scalar_reports_line(self, tmp_path, recon, key):
        lines = reconstruction_to_lines(recon)
        idx = next(i for i, l in enumerate(lines) if l.startswith(key + ","))
        lines[idx] = key + ",x"
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ReportParseError) as err:
            read_reconstruction(path)
        assert err.value.line == idx + 1

    def test_negative_count_rejected(self, tmp_path, recon):
        lines = reconstruction_to_lines(recon)
        idx = next(i for i, l in enumerate(lines) if l.startswith("pairs,"))
        lines[idx] = "pairs,-1"
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ReportParseError, match="negative count"):
            read_reconstruction(path)
