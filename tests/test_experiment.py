"""Tests for config parsing, experiment orchestration, and report rendering."""

import csv
import dataclasses
import pathlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmkit.errors import ConfigError, IdentificationError
from cdmkit.experiment import (
    DEFAULT_HEAT_CONFIG,
    _RegionMetrics,
    default_heat_config,
    parse_config_text,
    render_report,
    run_experiment,
    stream_reconstructions,
    validate_ground_truth_separation,
)
import cdmkit.identification as identification
from cdmkit.identification import (
    _CHUNK,
    IdentificationConfig,
    QueryKind,
    _recover_each,
    build_reconstruction,
    query,
    recover_effective_input,
)
from cdmkit.serialization import read_reconstruction, read_samples
from cdmkit.simulation import (
    ControlSample,
    HeatSystem,
    SamplingSchedule,
    _MAX_STEPS,
    _interval_steps,
    integrate,
    linear_system,
)

from interval_loop import assert_batched_calls

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

[cdm.mode.1]
region = interval,1,0.0,0.25,open_hi
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
        assert isinstance(cfg.system, HeatSystem)
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

    def test_every_identification_field_is_read_from_its_section(self):
        # a field that no config key sets is an option no run can use
        head = LINEAR_MODES_CONFIG[:LINEAR_MODES_CONFIG.index("[identification]")]
        section = "[identification]\ndelta = 0.3\nmodes = 2\nlipschitz = 2.5\nidentity_tol = 1e-5\n"
        parsed = parse_config_text(head + section).identification
        assert parsed == IdentificationConfig(delta=0.3, n_modes=2, lipschitz=2.5,
                                              identity_tol=1e-5)
        for field in dataclasses.fields(IdentificationConfig):
            assert getattr(parsed, field.name) != field.default, field.name

    @pytest.mark.parametrize("old, new, message", [
        ("delta = 0.4", "delta = x", "cannot parse 'delta = x' in [identification]"),
        ("modes = 3", "modes = 0.5", "cannot parse 'modes = 0.5' in [identification]"),
        ("modes = 3\n", "", "missing key 'modes' in [identification]"),
    ], ids=["delta-x", "modes-0.5", "modes-deleted"])
    def test_identification_key_error_names_its_section_once(self, old, new, message):
        assert old in LINEAR_MODES_CONFIG
        with pytest.raises(ConfigError) as info:
            parse_config_text(LINEAR_MODES_CONFIG.replace(old, new, 1))
        assert str(info.value) == message

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

    @pytest.mark.parametrize("old, new, message", [
        # a typo that parsed as the default
        ("jitter = 0.01", "jiter = 0.01", "unknown key 'jiter' in [sampling]"),
        ("translation = 0.0 0.25", "translation = 0.0 0.25\nscale = 2.0",
         "unknown key 'scale' in [cdm.mode.1]"),
        ("[identification]", "[identifcation]\ndelta = 0.4\n\n[identification]",
         "unknown section [identifcation]"),
        # configparser copies each [DEFAULT] key into every section
        ("[system]", "[DEFAULT]\nseed = 3\n\n[system]",
         "unknown key 'seed' in [system] (set in [DEFAULT])"),
        # numbering with a gap dropped every mode after it
        ("[cdm.mode.2]", "[cdm.mode.3]", "numbered 1, 2, ... without a gap"),
        ("[cdm.mode.1]", "[cdm.mode.0]", "numbered 1, 2, ... without a gap"),
        ("kind = modes", "kind = identity", "[cdm.mode.1] is read only when [cdm] kind = modes"),
        # a key of another kind than the section's
        ("initial = 0.0 0.0", "initial = 0.0 0.0\ndiffusivity = 5.0",
         "[system] kind 'linear' does not read 'diffusivity'"),
        ("initial = 0.0 0.0", "initial = 0.0 0.0\ngrid_points = 3",
         "[system] kind 'linear' does not read 'grid_points'"),
        ("period = 0.3", "period = 0.3\nvalues = 9 9",
         "[signal] kind 'raised-cosine' does not read 'values'"),
        # the retired [convergence] keys, which nothing reads
        ("lipschitz = 1.0", "lipschitz = 1.0\n\n[convergence]\ngrid = 0",
         "unknown key 'grid' in [convergence]"),
        ("lipschitz = 1.0", "lipschitz = 1.0\n\n[convergence]\nprobes = 5000",
         "unknown key 'probes' in [convergence]"),
        ("lipschitz = 1.0", "lipschitz = 1.0\n\n[convergence]\nprobe_seed = 1",
         "unknown key 'probe_seed' in [convergence]"),
        # an unknown kind is reported as such, whatever keys its section holds
        ("kind = linear", "kind = quadratic", "unknown system kind 'quadratic'"),
        ("kind = raised-cosine", "kind = sawtooth", "unknown signal kind 'sawtooth'"),
    ])
    def test_unread_section_or_key_is_config_error(self, old, new, message):
        assert old in LINEAR_MODES_CONFIG
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config_text(LINEAR_MODES_CONFIG.replace(old, new, 1))

    @pytest.mark.parametrize("old, new", [
        ("interval,1,0.75,1.0", "interval,x,0.75,1.0"),
        ("interval,1,0.75,1.0", "interval,1,0.75,one"),
        ("interval,1,0.75,1.0,open_lo", "ball,r,0.0"),
        ("interval,1,0.75,1.0,open_lo", "ball,-1,0.0,0.0"),
        ("interval,1,0.75,1.0,open_lo", "ball,nan,0.0,0.9"),
        ("interval,1,0.75,1.0,open_lo", "ball,0.1,0.0"),
        ("interval,1,0.75,1.0,open_lo", "ball,0.1,0.0,0.9,0.0"),
        ("interval,1,0.75,1.0,open_lo", "interval,2,0.75,1.0"),
        ("interval,1,0.75,1.0,open_lo", "interval,-1,0.75,1.0"),
        ("linear = 1.0 0.0 0.0 3.0", "linear = 1 0 zero 3"),
        ("linear = 1.0 0.0 0.0 3.0", "linear = 1 0 nan 3"),
        ("translation = 0.0 2.5", "translation = 0.0 y"),
        ("a = 0.0 0.0 0.0 0.0", "a = 0.0 x 0.0 0.0"),
        ("b = 1.0 0.0 0.0 1.0", "b = 1.0 0.0 inf 1.0"),
        ("initial = 0.0 0.0", "initial = 0.0 zero"),
        ("offset = 1.0 0.0", "offset = 1.0 y"),
        ("amplitude = 0.0 1.0", "amplitude = 0.0 nan"),
        ("period = 0.3", "period = 0"),
        ("kind = raised-cosine", "kind = constant\nvalues = 1.0 x"),
    ])
    def test_malformed_mode_or_number_is_config_error(self, old, new):
        assert old in LINEAR_MODES_CONFIG
        with pytest.raises(ConfigError):
            parse_config_text(LINEAR_MODES_CONFIG.replace(old, new, 1))

    def test_unknown_boolean_word_is_config_error(self):
        def depth(word):
            text = DEFAULT_HEAT_CONFIG.replace("[cdm]", f"nonlinear_depth = {word}\n\n[cdm]")
            return parse_config_text(text).system.nonlinear_depth

        assert depth("yes") is True and depth("Off") is False
        with pytest.raises(ConfigError, match="nonlinear_depth = ture"):
            depth("ture")

    def test_unknown_interval_flag_is_config_error(self):
        with pytest.raises(ConfigError, match="opn_hi"):
            parse_config_text(LINEAR_MODES_CONFIG.replace("0.25,open_hi", "0.25,opn_hi"))

    def test_reversed_interval_is_config_error(self):
        with pytest.raises(ConfigError):
            parse_config_text(LINEAR_MODES_CONFIG.replace("1,0.75,1.0,open_lo", "1,1.0,0.75"))

    def test_ball_overlapping_interval_is_config_error(self):
        # these regions share the inputs with u_2 in [0.1, 0.5] near u_1 = 1
        bad = (LINEAR_MODES_CONFIG
               .replace("region = interval,1,0.0,0.25,open_hi", "region = interval, 1, 0.0, 0.5")
               .replace("region = interval,1,0.75,1.0,open_lo", "region = ball, 0.3, 1.0, 0.4"))
        with pytest.raises(ConfigError, match="mode regions 0 and 1 overlap"):
            parse_config_text(bad)

    def test_bad_region_token(self):
        bad = DEFAULT_HEAT_CONFIG.replace("0.0:0.25", "zero:0.25")
        with pytest.raises(ConfigError):
            parse_config_text(bad)


def drawn_cap_check(system: HeatSystem, schedule: SamplingSchedule) -> None:
    """The parse's step cap as it was when it drew the schedule of every config within it."""
    count, what = schedule._count(), "samples"
    if count <= _MAX_STEPS:
        _, n_subs, _ = _interval_steps(schedule.sample_times(), system.stability_limit)
        count, what = n_subs.sum(dtype=np.float64), "integration steps"
    if count > _MAX_STEPS:
        raise ValueError(f"rate {schedule.rate} over horizon {schedule.horizon} gives {count:.6g} "
                         f"{what}, more than the {_MAX_STEPS:.0e} a config may ask for")


def heat_sampling_config(diffusivity, grid_points, rate, jitter, seed, horizon) -> str:
    return (DEFAULT_HEAT_CONFIG
            .replace("diffusivity = 0.1", f"diffusivity = {diffusivity!r}")
            .replace("grid_points = 101", f"grid_points = {grid_points}")
            .replace("source_width = 0.05", "source_width = 0.5")
            .replace("rate = 20.0", f"rate = {rate!r}")
            .replace("jitter = 0.01", f"jitter = {jitter!r}")
            .replace("seed = 7", f"seed = {seed}")
            .replace("horizon = 10.0", f"horizon = {horizon!r}"))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(1e-3, 10.0), st.integers(3, 301), st.floats(0.5, 1.1), st.integers(1, 3000),
       st.floats(0.0, 0.999), st.integers(0, 10**6))
def test_parse_decides_the_step_cap_as_the_drawn_check_does(diffusivity, grid_points, factor,
                                                            count, jitter_share, seed):
    # horizons whose steps lie within a factor of two of the cap, in at most 3,000
    # sampling intervals; the bound that spares the draw is never below the drawn steps
    system = HeatSystem(diffusivity=diffusivity, grid_points=grid_points, epsilon=0.5)
    horizon = factor * _MAX_STEPS * min(1e-3, system.stability_limit)
    rate = (count + 0.5) / horizon
    jitter = jitter_share * 0.5 / rate
    schedule = SamplingSchedule(rate=rate, jitter=jitter, seed=seed, horizon=horizon)
    _, n_subs, _ = _interval_steps(schedule.sample_times(), system.stability_limit)
    assert n_subs.sum() <= schedule._step_bound(system.stability_limit)
    text = heat_sampling_config(diffusivity, grid_points, rate, jitter, seed, horizon)
    try:
        drawn_cap_check(system, schedule)
    except ValueError as exc:
        with pytest.raises(ConfigError, match=f"^{re.escape(str(exc))}$"):
            parse_config_text(text)
    else:
        assert parse_config_text(text).schedule == schedule


def test_parse_rejects_a_vast_diffusivity_as_the_drawn_check_does():
    system = HeatSystem(diffusivity=1e300, grid_points=101, epsilon=0.5)
    schedule = SamplingSchedule(rate=20.0, jitter=0.01, seed=7, horizon=10.0)
    with pytest.raises(ValueError, match="sampling interval ") as drawn:
        drawn_cap_check(system, schedule)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(drawn.value))}$"):
        parse_config_text(heat_sampling_config(1e300, 101, 20.0, 0.01, 7, 10.0))


def test_readme_config_reference_is_the_key_table():
    from cdmkit.experiment import _KEYS, _REQUIRED

    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in readme.read_text().splitlines() if line.startswith("| `[")]
    listed = set()
    for section, kind, key, default in rows:
        section, kind, key = section.strip("`[]"), kind.strip("`") or None, key.strip("`")
        listed.add((section, kind, key))
        parse, value = _KEYS[section, kind][key]
        assert default.startswith("required") == (value is _REQUIRED), key
        if default.startswith("`"):  # a literal, as a config would write it
            assert parse(default.strip("`")) == value, key
        if key == "kind":
            assert set(re.findall(r"`([^`]+)`", default)) == {
                k for s, k in _KEYS if s == section and k is not None}
    assert listed == {(s, k, key) for (s, k), keys in _KEYS.items() for key in keys}


def signal_config(signal_section: str):
    """The linear two-mode config with its ``[signal]`` section replaced."""
    head, rest = LINEAR_MODES_CONFIG.split("[signal]\n")
    return parse_config_text(head + signal_section + rest[rest.index("[sampling]"):])


# Each config signal kind with a per-time reference: the scalar expression
# the kind evaluated for one Python float time before signals took arrays.
OFFSET, AMPLITUDE, PERIOD = np.array([0.2, -1.0]), np.array([0.7, 2.5]), 0.37
SIGNAL_KINDS = {
    "heat-probe": (
        "[signal]\nkind = heat-probe\n\n",
        lambda t: np.array([1.0, 0.5 * (1.0 - np.cos(20.0 * np.pi * t / 3.0))]),
    ),
    "constant": (
        "[signal]\nkind = constant\nvalues = 0.2 -1.0\n\n",
        lambda t: OFFSET,
    ),
    "raised-cosine": (
        "[signal]\nkind = raised-cosine\noffset = 0.2 -1.0\namplitude = 0.7 2.5\n"
        "period = 0.37\n\n",
        lambda t: OFFSET + AMPLITUDE * 0.5 * (1.0 - np.cos(2.0 * np.pi * t / PERIOD)),
    ),
}


@pytest.fixture(scope="module")
def bundled_stage_times(heat_run):
    """Every time at which the bundled run evaluates its signal, in call order."""
    config = heat_run[0]
    seen = []

    def recording(t):
        seen.append(t.copy())
        return config.signal(t)

    integrate(config.model(), config.cdm, config.x0, recording, config.schedule)
    # one call per batch of whole intervals, together the per-interval stage times
    assert_batched_calls(seen, config.model(), config.schedule)
    return np.concatenate(seen)


@pytest.mark.parametrize("kind", sorted(SIGNAL_KINDS))
@pytest.mark.parametrize("times", ["bundled", "uniform"])
def test_signal_kind_matches_per_time_evaluation(kind, times, bundled_stage_times):
    section, reference = SIGNAL_KINDS[kind]
    signal = signal_config(section).signal
    t = bundled_stage_times if times == "bundled" else np.linspace(0.0, 40.0, 200_001)
    batch = signal(t)
    expected = np.array([reference(s) for s in t.tolist()])
    assert batch.shape == expected.shape == (t.shape[0], 2)
    np.testing.assert_array_equal(batch.view(np.uint64), expected.view(np.uint64))


def test_raised_cosine_signal_takes_real_times():
    # the strings would parse
    signal = signal_config(SIGNAL_KINDS["raised-cosine"][0]).signal
    with pytest.raises(ValueError, match=r"^signal times must be real numbers, got dtype <U3$"):
        signal(["0.1"])


TINY_BALLS_CONFIG = DEFAULT_HEAT_CONFIG.replace("kind = heat-threemode", """kind = modes

[cdm.mode.1]
region = ball, 0.02, 5.0, 0.5
linear = 1 0 0 1
translation = 0 0

[cdm.mode.2]
region = ball, 0.02, 5.05, 0.5
linear = 1 0 0 1
translation = 0 0""")


class TestSeparationValidation:
    def test_tiny_balls_fail(self):
        # the balls cover 0.025 % of the input box [0, 10] x [0, 1], so a sampled
        # check can miss them; their graphs are 0.01 * sqrt(2) apart
        with pytest.raises(IdentificationError, match="only 0.0141421 apart") as info:
            validate_ground_truth_separation(parse_config_text(TINY_BALLS_CONFIG))
        lower, upper = info.value.detail
        assert lower <= upper <= lower + 1e-9

    @pytest.mark.parametrize("bounds, message", [
        ((0.4, 0.5), None),
        ((0.3, 0.39), "only 0.39 apart"),
        ((0.3, 0.5), "between 0.3 and 0.5 apart"),
    ])
    def test_decision_on_the_bounds(self, monkeypatch, bounds, message):
        # delta = 0.4: accepted when certified, rejected when refuted or undecided
        monkeypatch.setattr("cdmkit.experiment.mode_separation", lambda *args: bounds)
        if message is None:
            validate_ground_truth_separation(default_heat_config())
            return
        with pytest.raises(IdentificationError, match=message) as info:
            validate_ground_truth_separation(default_heat_config())
        assert info.value.detail == bounds

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

    def test_run_warns_like_the_batch_build_of_its_samples(self, tmp_path):
        # a two-dimensional sweep of the linear modes: the inner witness radii of
        # many intermediate snapshots vary faster than lipschitz = 1 allows
        def sweep(t):
            return np.stack([1.0 + 0.5 * np.sin(2.0 * np.pi * t / 0.37),
                             0.5 - 0.5 * np.cos(2.0 * np.pi * t / 0.3)], axis=1)

        cfg = dataclasses.replace(parse_config_text(LINEAR_MODES_CONFIG), signal=sweep)

        def slope_warnings(fn):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = fn()
            assert all(w.category is RuntimeWarning for w in caught)
            return out, [str(w.message) for w in caught]

        result, run = slope_warnings(lambda: run_experiment(cfg, out_dir=str(tmp_path)))
        model, ident = cfg.model(), cfg.identification
        _, batch = slope_warnings(lambda: build_reconstruction(result.samples, model, ident))
        assert run == batch and run
        _, pushed = slope_warnings(
            lambda: list(stream_reconstructions(result.samples, model, ident)))
        assert pushed == []
        _, every_step = slope_warnings(
            lambda: [r.snapshot() for r in stream_reconstructions(result.samples, model, ident)])
        assert len(every_step) > len(run)

    def test_convergence_header_matches_regions(self, tmp_path):
        cfg = parse_config_text(IDENTITY_CONFIG)
        result = run_experiment(cfg, out_dir=str(tmp_path))
        header = open(result.artifacts["convergence"]).readline().strip().split(",")
        assert header[:2] == ["time", "modes_identified"]
        assert len(header) == 2 + len(cfg.regions)
        assert header[2:] == [f"hausdorff_r{i}" for i in range(len(cfg.regions))]


def per_value_convergence(cfg, records) -> bytes:
    """``convergence.csv`` written one ``repr`` at a time: the reference for the table writer."""
    header = ["time", "modes_identified"] + [f"hausdorff_r{i}" for i in range(len(cfg.regions))]
    lines = [",".join(header)]
    for rec in records:
        lines.append(",".join([repr(float(rec.time)), str(rec.modes_identified)]
                              + [repr(float(h)) for h in rec.region_hausdorff]))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("edit", [
    None,
    ("regions = 0.0:0.25 0.5:0.75 0.75:1.0", "regions = 0.0:0.25 1.5:2.0 0.75:1.0"),
    ("delta = 0.4", "delta = 0.001"),
], ids=["bundled", "never-observed-region", "delta-0.001"])
def test_convergence_csv_is_each_value_repr(edit, heat_run, tmp_path):
    if edit is None:
        cfg, result, _ = heat_run
    else:
        text = DEFAULT_HEAT_CONFIG.replace(*edit)
        assert text != DEFAULT_HEAT_CONFIG
        cfg = parse_config_text(text)
        result = run_experiment(cfg, out_dir=str(tmp_path))
    written = pathlib.Path(result.artifacts["convergence"]).read_bytes()
    assert written == per_value_convergence(cfg, result.records)
    if edit and edit[1].startswith("regions"):
        assert all(rec.region_hausdorff[1] == np.inf for rec in result.records)


def exact_hausdorff(lo, hi, coords) -> float:
    """Closed-form Hausdorff distance from [lo, hi] to the coordinates inside it."""
    s = np.sort([c for c in coords if lo <= c <= hi])
    if s.size == 0:
        return np.inf
    gap = float(np.max(np.diff(s))) if s.size > 1 else 0.0
    return max(float(s[0]) - lo, hi - float(s[-1]), gap / 2)


class TestChunkedRecovery:
    """A constant input matrix of one nonzero per row is solved in closed form, chunk by chunk."""

    @pytest.mark.parametrize("horizon", ["10.0", "40.0"])
    def test_bundled_runs_recover_every_effective_input_exactly(self, horizon, heat_run,
                                                                 long_run):
        config, result = heat_run[:2] if horizon == "10.0" else long_run
        samples = result.samples
        recovered = np.array(list(_recover_each(samples, config.model())))
        truth = np.array([config.cdm(s.input) for s in samples])
        assert recovered.tobytes() == truth.tobytes()
        one_by_one = np.array([recover_effective_input(s, config.model()) for s in samples])
        assert one_by_one.tobytes() == recovered.tobytes()
        # so every bundled map is fitted exactly
        for mode in result.reconstruction.modes:
            assert mode.identified and mode.residual == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_chunking_does_not_change_a_bit(self, seed, monkeypatch):
        # random states and velocities against a B whose columns have disjoint
        # supports of different sizes and scales: each row's sums are its own
        rng = np.random.default_rng(seed)
        B = np.zeros((40, 3))
        B[:25, 0] = rng.normal(size=25)
        B[25:26, 1] = 7.0
        B[27:, 2] = rng.normal(size=13) * 1e-3
        model = linear_system(rng.normal(size=(40, 40)), B)
        samples = [ControlSample(time=0.0, state=rng.normal(size=40), velocity=rng.normal(size=40),
                                 input=np.zeros(3)) for _ in range(150)]
        bits = set()
        for chunk in (1, 8, 37, 64):
            monkeypatch.setattr(identification, "_CHUNK", chunk)
            bits.add(np.array(list(_recover_each(samples, model))).tobytes())
        assert len(bits) == 1

    @pytest.mark.parametrize("config", [DEFAULT_HEAT_CONFIG, LINEAR_MODES_CONFIG],
                             ids=["bundled", "linear-modes"])
    def test_constant_input_matrix_makes_no_linalg_call(self, config, linalg_calls):
        config = parse_config_text(config)
        model = config.model()
        samples = integrate(model, config.cdm, config.x0, config.signal, config.schedule)
        linalg_calls.clear()
        assert len(list(stream_reconstructions(samples, model, config.identification))) \
            == len(samples) > _CHUNK  # more than one chunk
        assert linalg_calls == []

    def test_tiny_input_matrix_runs_and_identifies(self, tmp_path):
        # every square of 1e-170 underflows; the closed form scales each
        # column by a power of two first, so the rank stays 2
        config = parse_config_text(
            LINEAR_MODES_CONFIG.replace("b = 1.0 0.0 0.0 1.0", "b = 1e-170 0.0 0.0 1e-170"))
        result = run_experiment(config, out_dir=str(tmp_path))
        modes = result.reconstruction.modes
        assert len(modes) == 3 and all(mode.identified for mode in modes)
        assert result.records[-1].modes_identified == 3

    @pytest.mark.parametrize("config", [
        DEFAULT_HEAT_CONFIG.replace("[cdm]", "nonlinear_depth = true\n\n[cdm]")
        .replace("initial_temperature = 0.0", "initial_temperature = 1.0")
        .replace("horizon = 10.0", "horizon = 2.0"),
        LINEAR_MODES_CONFIG.replace("b = 1.0 0.0 0.0 1.0", "b = 1.0 0.5 -0.25 1.0"),
    ], ids=["nonlinear_depth", "dense-B"])
    def test_other_models_recover_each_observation_alone(self, config, linalg_calls):
        config = parse_config_text(config)
        model = config.model()
        samples = integrate(model, config.cdm, config.x0, config.signal, config.schedule)
        linalg_calls.clear()
        steps = list(stream_reconstructions(samples, model, config.identification))
        assert len(steps) == len(samples) > 0
        assert linalg_calls == [("lstsq", (model.dim_state,))] * len(samples)


@pytest.fixture(scope="module")
def long_run(tmp_path_factory):
    """The bundled experiment at a 40 s horizon (800 observations)."""
    cfg = parse_config_text(DEFAULT_HEAT_CONFIG.replace("horizon = 10.0", "horizon = 40.0"))
    return cfg, run_experiment(cfg, out_dir=str(tmp_path_factory.mktemp("long")))


class TestConvergenceMetrics:
    GRID = 401

    @pytest.fixture(params=["bundled", "horizon-40"])
    def run(self, request, heat_run, long_run):
        if request.param == "bundled":
            return heat_run[:2]
        return long_run

    def test_column_is_the_closed_form(self, run):
        cfg, result = run
        coords = [float(s.input[cfg.region_axis]) for s in result.samples]
        with open(result.artifacts["convergence"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["time", "modes_identified"] + [
            f"hausdorff_r{j}" for j in range(len(cfg.regions))]
        assert len(rows) == len(result.records) == len(coords)
        for k, (rec, row) in enumerate(zip(result.records, rows)):
            expected = tuple(exact_hausdorff(lo, hi, coords[:k + 1]) for lo, hi in cfg.regions)
            assert rec.region_hausdorff == expected, k
            assert tuple(float(row[f"hausdorff_r{j}"]) for j in range(len(expected))) == expected
        assert all(np.isfinite(result.records[-1].region_hausdorff))

    def test_sampled_estimates_never_exceed_it(self, run):
        # a 401-point grid and 512 uniform probes (seed 11) both
        # under-estimate the distance; the grid by at most half its spacing
        cfg, result = run
        coords = [float(s.input[cfg.region_axis]) for s in result.samples]
        rng = np.random.default_rng(11)
        for j, (lo, hi) in enumerate(cfg.regions):
            grid = np.linspace(lo, hi, self.GRID)
            grid_min = np.full(self.GRID, np.inf)
            probes = rng.uniform(lo, hi, 512)
            probe_min = np.full(probes.shape, np.inf)
            probe_est = np.inf
            seen = []
            for k, coord in enumerate(coords):
                if lo <= coord <= hi:
                    seen.append(coord)
                    np.minimum(grid_min, np.abs(grid - coord), out=grid_min)
                    np.minimum(probe_min, np.abs(probes - coord), out=probe_min)
                    probe_est = float(np.max(probe_min))
                exact = result.records[k].region_hausdorff[j]
                grid_est = float(np.max(grid_min))
                assert grid_est <= exact and probe_est <= exact, (j, k)
                if seen:
                    assert exact - grid_est <= (hi - lo) / (self.GRID - 1) / 2, (j, k)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(-8, 8), st.integers(0, 16),
       st.lists(st.integers(-12, 28), min_size=1, max_size=25))
def test_region_metric_matches_brute_force(lo_idx, width, idx):
    # every observation on a lattice of step h: the distance from [lo, hi] to
    # the observed set peaks at an end or a midpoint, all on the brute-force
    # grid of step h / 2, so its maximum is the exact value
    h = 1.0 / 64
    lo, hi = lo_idx * h, (lo_idx + width) * h
    brute_grid = np.arange(2 * lo_idx, 2 * (lo_idx + width) + 1) * (h / 2)
    metrics = _RegionMetrics([(lo, hi)])
    inside = []
    for i in idx:
        coord = i * h
        (value,) = metrics.add(coord)
        if lo <= coord <= hi:
            inside.append(coord)
        if not inside:
            assert value == np.inf
            continue
        brute = np.max(np.min(np.abs(brute_grid[:, None] - np.array(inside)[None, :]), axis=1))
        assert abs(value - brute) <= 1e-12


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
