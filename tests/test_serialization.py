"""Round-trip and parse-error tests for the plain-text file formats."""

import numpy as np
import pytest

from cdmkit.errors import ReportParseError
from cdmkit.geometry import Side, StarSetApprox
from cdmkit.identification import IdentificationConfig, build_reconstruction
from cdmkit.serialization import (
    read_reconstruction,
    read_samples,
    read_star,
    reconstruction_to_lines,
    write_reconstruction,
    write_samples,
    write_star,
)
from cdmkit.simulation import ControlSample

from trials import TRIAL_DELTA, TRIAL_LIPSCHITZ, make_trial


@pytest.fixture
def recon():
    model, cdm, samples, m, N = make_trial(3)
    cfg = IdentificationConfig(delta=TRIAL_DELTA, n_modes=3, lipschitz=TRIAL_LIPSCHITZ)
    return build_reconstruction(samples, model, cfg)


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
    def test_round_trip(self, tmp_path):
        approx = StarSetApprox(
            center=np.array([0.5, -1.0]),
            lipschitz=1.5,
            directions=np.array([[1.0, 0.0], [0.0, -1.0]]),
            radii=np.array([0.3, 0.7]),
            side=Side.INNER,
        )
        path = tmp_path / "star.txt"
        write_star(path, approx)
        back = read_star(path)
        np.testing.assert_array_equal(back.center, approx.center)
        np.testing.assert_array_equal(back.directions, approx.directions)
        np.testing.assert_array_equal(back.radii, approx.radii)
        assert back.side is Side.INNER and back.lipschitz == 1.5

    def test_round_trip_empty_outer(self, tmp_path):
        approx = StarSetApprox(np.zeros(1), 0.5, np.empty((0, 1)), np.empty(0),
                               Side.OUTER)
        path = tmp_path / "star.txt"
        write_star(path, approx)
        back = read_star(path)
        assert back.n_samples == 0 and back.side is Side.OUTER

    def test_inconsistent_dim_rejected(self, tmp_path):
        path = tmp_path / "star.txt"
        path.write_text("center,dim,L,side\n0.0,0.0,7,1.0,inner\nsamples,0\n")
        with pytest.raises(ReportParseError):
            read_star(path)

    def test_unknown_side_rejected(self, tmp_path):
        path = tmp_path / "star.txt"
        path.write_text("center,dim,L,side\n0.0,1,1.0,sideways\nsamples,0\n")
        with pytest.raises(ReportParseError):
            read_star(path)


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
