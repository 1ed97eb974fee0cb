"""Experiment orchestration: configure, simulate, identify, report.

An experiment is described by an INI-style config with blocks for the
system, the ground-truth degradation, the probe signal, the sampling
schedule, the identification tunables, and the convergence tracking.  A run
simulates the degraded system, pushes every observation into the
reconstruction as it arrives, and writes three artifacts: the sample log,
the final reconstruction (built once, after the last observation), and a
convergence table with one row per observation.
Runs are fully deterministic for fixed seeds.
"""

from __future__ import annotations

import bisect
import configparser
import errno
import heapq
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .degradation import (
    AffineMap,
    BallRegion,
    IntervalRegion,
    NModeCdm,
    heat_example_cdm,
    mode_separation,
)
from .errors import ConfigError, IdentificationError, PreconditionError
from .geometry import _frozen, _positive, interval_hausdorff, mgf_inner_bound
from .identification import (
    CdmReconstruction,
    IdentificationConfig,
    Reconstructor,
    _recover_each,
)
from .serialization import _fmt, _fmt_rows, write_reconstruction, write_samples
from .simulation import (
    ControlSample,
    HeatSystem,
    SamplingSchedule,
    SystemModel,
    _MAX_STEPS,
    _interval_steps,
    integrate,
    linear_system,
    probe_signal,
)

@dataclass(frozen=True)
class ConvergenceRecord:
    """Per-observation tracking row of the convergence study."""

    time: float
    region_hausdorff: tuple
    modes_identified: int


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description."""

    system: object
    x0: np.ndarray
    cdm: Optional[NModeCdm]
    signal: Callable[[np.ndarray], np.ndarray]  # k times -> (k, m) commands
    schedule: SamplingSchedule
    identification: IdentificationConfig
    regions: tuple
    region_axis: int
    output_dir: str

    def model(self) -> SystemModel:
        """The system model: a linear system itself, or its heat system's shared model.

        Every config of one heat system gets the same model
        (:meth:`HeatSystem.model`), so runs share its step-map powers.
        """
        return self.system.model() if isinstance(self.system, HeatSystem) else self.system


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    samples: list
    records: list
    reconstruction: CdmReconstruction
    artifacts: dict

    def summary(self) -> str:
        identified = sum(1 for m in self.reconstruction.modes if m.identified)
        return (
            f"samples={len(self.samples)} modes_identified={identified} "
            f"modes_detected={len(self.reconstruction.modes)} "
            f"unaffected={len(self.reconstruction.unaffected)}"
        )


# ---------------------------------------------------------------------------
# Config parsing


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {token!r}")
    return value


def _floats_list(raw: str) -> np.ndarray:
    return np.array([_finite(t) for t in raw.replace(",", " ").split()])


def _bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


def _parse_region(raw: str):
    toks = [t.strip() for t in raw.split(",")]
    if toks[0] == "interval":
        if len(toks) < 4:
            raise ConfigError(f"interval region needs axis, lo, hi: {raw!r}")
        flags = set(toks[4:])
        if not flags <= {"open_lo", "open_hi"}:
            raise ConfigError(f"unknown interval flag in {raw!r}")
        return IntervalRegion(
            axis=int(toks[1]), lo=_finite(toks[2]), hi=_finite(toks[3]),
            closed_lo="open_lo" not in flags, closed_hi="open_hi" not in flags,
        )
    if toks[0] == "ball":
        if len(toks) < 3:
            raise ConfigError(f"ball region needs radius and center: {raw!r}")
        return BallRegion(center=np.array([_finite(t) for t in toks[2:]]),
                          radius=_finite(toks[1]))
    raise ConfigError(f"unknown region kind {toks[0]!r}")


def _intervals(raw: str) -> tuple:
    pairs = []
    for tok in raw.split():
        lo, _, hi = tok.partition(":")
        try:
            lo, hi = float(lo), float(hi)
        except ValueError:
            raise ConfigError(f"cannot parse region token {tok!r}")
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ConfigError(f"region {tok!r} is not a finite interval lo:hi")
        pairs.append((lo, hi))
    return tuple(pairs)


_REQUIRED = object()  # the default of a key that every config must set

# Every key a config may set: (section, kind) -> key -> (parse, default).  A section reads
# its (section, None) keys and those of its kind; [cdm.mode.N] reads ("cdm.mode.N", None).
# A parse raises ValueError for a value outside its key's domain, or a ConfigError that
# says more.
_KEYS = {
    ("system", None): {"kind": (str, _REQUIRED)},
    ("system", "heat"): {"diffusivity": (float, 0.1), "grid_points": (int, 101),
                         "source_width": (float, 0.05), "nonlinear_depth": (_bool, False),
                         "initial_temperature": (_finite, 0.0), "initial_depth": (_finite, 0.0)},
    ("system", "linear"): {"state_dim": (int, _REQUIRED), "input_dim": (int, _REQUIRED),
                           "a": (_floats_list, _REQUIRED), "b": (_floats_list, _REQUIRED),
                           "initial": (_floats_list, None)},
    ("cdm", None): {"kind": (str, _REQUIRED)},
    ("cdm", "identity"): {}, ("cdm", "heat-threemode"): {}, ("cdm", "modes"): {},
    ("cdm.mode.N", None): {"region": (_parse_region, _REQUIRED),
                           "linear": (_floats_list, _REQUIRED),
                           "translation": (_floats_list, _REQUIRED)},
    ("signal", None): {"kind": (str, _REQUIRED)},
    ("signal", "heat-probe"): {},
    ("signal", "constant"): {"values": (_floats_list, _REQUIRED)},
    ("signal", "raised-cosine"): {"offset": (_floats_list, _REQUIRED),
                                  "amplitude": (_floats_list, _REQUIRED),
                                  "period": (float, _REQUIRED)},
    ("sampling", None): {"rate": (float, _REQUIRED), "jitter": (float, 0.0), "seed": (int, 0),
                         "horizon": (float, _REQUIRED)},
    ("identification", None): {"delta": (float, _REQUIRED), "modes": (int, _REQUIRED),
                               "lipschitz": (float, 1.0), "identity_tol": (float, 1e-7)},
    ("convergence", None): {"regions": (_intervals, ()), "axis": (int, 0)},
    ("output", None): {"directory": (str, "out")},
}


def _check_keys(parser) -> None:
    """Reject every section and key that no part of the parse would read."""
    if parser.has_option("cdm", "separation"):
        raise ConfigError("[cdm] separation is not used: the separation check compares "
                          "the modes against [identification] delta")
    mode_sections = {s for s in parser.sections() if s.startswith("cdm.mode.")}
    if mode_sections and parser.get("cdm", "kind", fallback=None) != "modes":
        raise ConfigError(f"[{min(mode_sections)}] is read only when [cdm] kind = modes")
    if mode_sections != {f"cdm.mode.{i}" for i in range(1, len(mode_sections) + 1)}:
        raise ConfigError(f"[cdm.mode.N] sections must be numbered 1, 2, ... without a gap, "
                          f"found {', '.join(sorted(mode_sections))}")
    for section in parser.sections():
        name = "cdm.mode.N" if section in mode_sections else section
        if (name, None) not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
        kinds = {k: keys for (s, k), keys in _KEYS.items() if s == name and k is not None}
        every = {key for keys in kinds.values() for key in keys}
        kind = parser.get(section, "kind", fallback=None)
        # a missing or unknown kind reads every kind's keys and fails on its own
        known = {*_KEYS[name, None], *kinds.get(kind, every)}
        for key in parser.options(section):  # configparser copies [DEFAULT] keys in
            if key not in known:
                origin = " (set in [DEFAULT])" if key in parser.defaults() else ""
                if key in every:
                    raise ConfigError(f"[{section}] kind {kind!r} does not read '{key}'{origin}")
                raise ConfigError(f"unknown key '{key}' in [{section}]{origin}")


def _read(parser, section: str) -> dict:
    """Each key ``_KEYS`` declares for ``section`` and its kind: parsed, or its default if unset."""
    name = section if (section, None) in _KEYS else "cdm.mode.N"
    kind = parser.get(section, "kind", fallback=None)
    if (name, kind) not in _KEYS:
        raise ConfigError(f"unknown {section} kind {kind!r}")
    values = {}
    for key, (parse, default) in (_KEYS[name, None] | _KEYS[name, kind]).items():
        raw = parser.get(section, key, fallback=None)
        if raw is None and default is _REQUIRED:
            raise ConfigError(f"missing key '{key}' in [{section}]")
        try:
            values[key] = default if raw is None else parse(raw)
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"cannot parse '{key} = {raw}' in [{section}]")
    return values


def _parse_cdm(parser) -> Optional[NModeCdm]:
    kind = _read(parser, "cdm")["kind"]
    if kind == "identity":
        return None
    if kind == "heat-threemode":
        return heat_example_cdm()
    modes = []
    for index in range(1, 1 + sum(s.startswith("cdm.mode.") for s in parser.sections())):
        sec = f"cdm.mode.{index}"
        mode = _read(parser, sec)
        region, linear, translation = mode["region"], mode["linear"], mode["translation"]
        m = translation.shape[0]
        if linear.shape[0] != m * m:
            raise ConfigError(f"[{sec}] linear must hold {m}x{m} entries")
        if isinstance(region, BallRegion):
            fits = region.center.shape == (m,)
        else:
            fits = 0 <= region.axis < m
        if not fits:
            raise ConfigError(f"[{sec}] region does not fit the {m}-dimensional input")
        modes.append((region, AffineMap(linear.reshape(m, m), translation)))
    if not modes:
        raise ConfigError("cdm kind 'modes' but no [cdm.mode.N] sections found")
    return NModeCdm(modes=tuple(modes))


def _parse_signal(parser, dim_input: int):
    spec = _read(parser, "signal")
    if spec["kind"] == "heat-probe":
        return probe_signal
    if spec["kind"] == "constant":
        values = spec["values"]
        if values.shape[0] != dim_input:
            raise ConfigError("constant signal dimension does not match the system")
        return lambda t: np.tile(values, (len(t), 1))
    # per-channel: value_i(t) = offset_i + amplitude_i * (1 - cos(2 pi t / period)) / 2
    offset, amplitude = spec["offset"], spec["amplitude"]
    period = _positive(spec["period"], "[signal] period")
    if offset.shape[0] != dim_input or amplitude.shape[0] != dim_input:
        raise ConfigError("raised-cosine signal dimension does not match the system")
    return lambda t: offset + amplitude * 0.5 * (
        1.0 - np.cos(2.0 * np.pi * _frozen(t, "signal times")[:, None] / period))


def parse_config_text(text: str) -> ExperimentConfig:
    """The config ``text`` describes; every ``ValueError`` of the parse is a ``ConfigError``."""
    try:
        return _parse(text)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)  # values are literal
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}")
    for section in ("system", "cdm", "signal", "sampling", "identification"):
        if not parser.has_section(section):
            raise ConfigError(f"missing [{section}] section")
    _check_keys(parser)

    spec = _read(parser, "system")
    if spec["kind"] == "heat":
        system = HeatSystem(diffusivity=spec["diffusivity"], grid_points=spec["grid_points"],
                            epsilon=spec["source_width"], nonlinear_depth=spec["nonlinear_depth"])
        x0 = np.full(system.dim_state, spec["initial_temperature"])
        x0[-1] = spec["initial_depth"]
        dim_input = 2
    else:  # linear
        n, m = spec["state_dim"], spec["input_dim"]
        if n < 1 or m < 1:
            raise ConfigError(f"[system] state_dim and input_dim must be at least 1, "
                              f"got {n} and {m}")
        if spec["a"].shape[0] != n * n or spec["b"].shape[0] != n * m:
            raise ConfigError("A or B entry count does not match declared dimensions")
        system = linear_system(spec["a"].reshape(n, n), spec["b"].reshape(n, m))
        x0 = spec["initial"]
        if x0 is None or not x0.size:
            x0 = np.zeros(n)
        if x0.shape[0] != n:
            raise ConfigError("initial state dimension mismatch")
        dim_input = m

    cdm = _parse_cdm(parser)
    if cdm is not None and cdm.dim is not None and cdm.dim != dim_input:
        raise ConfigError("cdm input dimension does not match the system")
    signal = _parse_signal(parser, dim_input)

    schedule = SamplingSchedule(**_read(parser, "sampling"))
    count, what = schedule._count(), "samples"
    # drawn only when a bound that needs no draw cannot prove the cap; a HeatSystem gives its
    # limit without a model
    if count <= _MAX_STEPS and schedule._step_bound(system.stability_limit) > _MAX_STEPS:
        _, n_subs, _ = _interval_steps(schedule.sample_times(), system.stability_limit)
        count, what = n_subs.sum(dtype=np.float64), "integration steps"  # a float sum cannot wrap
    if count > _MAX_STEPS:
        raise ValueError(f"rate {schedule.rate} over horizon {schedule.horizon} gives {count:.6g} "
                         f"{what}, more than the {_MAX_STEPS:.0e} a config may ask for")

    spec = _read(parser, "identification")
    try:
        ident = IdentificationConfig(delta=spec["delta"], n_modes=spec["modes"],
                                     lipschitz=spec["lipschitz"],
                                     identity_tol=spec["identity_tol"])
    except ValueError as exc:
        raise ConfigError(f"[identification] {exc}")

    convergence = _read(parser, "convergence")
    if not 0 <= convergence["axis"] < dim_input:
        raise ConfigError("convergence axis is outside the input dimensions")

    return ExperimentConfig(
        system=system,
        x0=x0,
        cdm=cdm,
        signal=signal,
        schedule=schedule,
        identification=ident,
        regions=convergence["regions"],
        region_axis=convergence["axis"],
        output_dir=_read(parser, "output")["directory"],
    )


def parse_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc}") from None
    return parse_config_text(text)


# ---------------------------------------------------------------------------
# Running


def stream_reconstructions(samples: Sequence[ControlSample], model: SystemModel,
                           ident: IdentificationConfig) -> Iterator[Reconstructor]:
    """Push each successive observation and yield the :class:`Reconstructor`.

    The same reconstructor comes back after every observation; a caller
    that wants the reconstruction of a prefix calls ``snapshot()`` before
    advancing, which builds every mode of the prefix anew.  A run reads
    ``modes_identified`` at each step and takes one snapshot, after the
    last observation.  The effective inputs are those of
    ``recover_effective_input``; a model with a constant input matrix of
    at most one nonzero per row has them recovered in chunks of
    observations, one solve per chunk.  An observation whose effective
    input cannot be recovered (the input matrix is rank deficient at its
    state; for a chunk, at its first observation), or whose pair has a
    component beyond the range ``Reconstructor.push`` accepts, stops the
    stream with an :class:`IdentificationError` that names its index and
    time.
    """
    reconstructor = Reconstructor(ident)
    effectives = _recover_each(samples, model)
    for i, s in enumerate(samples):
        try:
            reconstructor.push(s.input, next(effectives))
        except PreconditionError as exc:
            raise IdentificationError(
                f"observation {i} at t = {s.time!r}: {exc}", detail=i) from exc
        yield reconstructor


class _RegionMetrics:
    """Exact Hausdorff distance from each declared interval to its observations.

    Each region keeps its coordinates sorted and a heap of the gaps between
    neighbours, a split gap dropped when it reaches the top: an observation
    costs O(log n) heap work.  Only the regions that hold the coordinate
    change, so only their distances are computed again; the others keep
    theirs.  Regions without observations report infinity.
    """

    def __init__(self, regions: Sequence[tuple]):
        self.regions = [(lo, hi, [], []) for lo, hi in regions]
        self.distances = (math.inf,) * len(self.regions)

    def add(self, coord: float) -> tuple:
        """Fold in one observed coordinate; return the distance of each region."""
        distances = self.distances
        for r, (lo, hi, seen, gaps) in enumerate(self.regions):
            if lo <= coord <= hi:
                i = bisect.bisect_right(seen, coord)
                seen.insert(i, coord)
                j = max(i - 1, 0)
                for a, b in zip(seen[j:i + 1], seen[j + 1:i + 2]):  # the new neighbour pairs
                    if a < b:
                        heapq.heappush(gaps, (a - b, a, b))
                # a gap is current while its ends are still neighbours
                while gaps and seen[bisect.bisect_right(seen, gaps[0][1])] != gaps[0][2]:
                    heapq.heappop(gaps)
                gap = -gaps[0][0] if gaps else 0.0
                distances = (*distances[:r], interval_hausdorff(lo, hi, seen[0], seen[-1], gap),
                             *distances[r + 1:])
        self.distances = distances
        return distances


def validate_ground_truth_separation(config: ExperimentConfig) -> None:
    """Reject configs whose modes are not certified ``delta`` apart in the model's input box.

    The error's ``detail`` is the ``(lower, upper)`` of :func:`mode_separation`.
    """
    model = config.model()
    if config.cdm is None or model.input_lo is None or model.input_hi is None:
        return
    bounds = mode_separation(config.cdm, model.input_lo, model.input_hi)
    delta = config.identification.delta
    if bounds is None or bounds[0] >= delta:
        return
    lower, upper = bounds
    apart, verdict = ((f"only {upper:.6g}", "below") if upper < delta else
                      (f"between {lower:.6g} and {upper:.6g}", "not certified to reach"))
    raise IdentificationError(f"ground-truth modes are {apart} apart, {verdict} the "
                              f"declared separation delta={delta}", detail=bounds)


def _check_output_dir(target: str) -> None:
    """``OSError`` if ``target`` cannot become a directory; creates nothing.

    An empty ``target`` is ``FileNotFoundError``.  Otherwise ``target``, if
    it exists, and else its nearest existing ancestor must be a directory.
    """
    if not target:
        raise FileNotFoundError(errno.ENOENT, "empty output directory name", target)
    path = os.path.abspath(target)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)


def run_experiment(config: ExperimentConfig, out_dir: Optional[str] = None) -> ExperimentResult:
    """Simulate, identify incrementally, and write the three artifacts.

    An empty output directory name, or one that is or lies below a file,
    raises ``OSError`` before the simulation starts.
    """
    target = out_dir if out_dir is not None else config.output_dir
    _check_output_dir(target)
    validate_ground_truth_separation(config)
    model = config.model()
    samples = integrate(model, config.cdm, config.x0, config.signal, config.schedule)

    records = []
    regions = _RegionMetrics(config.regions)
    for sample, reconstructor in zip(
        samples, stream_reconstructions(samples, model, config.identification)
    ):
        records.append(
            ConvergenceRecord(
                time=sample.time,
                region_hausdorff=regions.add(float(sample.input[config.region_axis])),
                modes_identified=reconstructor.modes_identified,
            )
        )
    reconstruction = reconstructor.snapshot()

    os.makedirs(target, exist_ok=True)
    paths = {
        "samples": os.path.join(target, "samples.csv"),
        "reconstruction": os.path.join(target, "reconstruction.txt"),
        "convergence": os.path.join(target, "convergence.csv"),
    }
    write_samples(paths["samples"], samples)
    write_reconstruction(paths["reconstruction"], reconstruction)
    _write_convergence(paths["convergence"], config, records)
    return ExperimentResult(
        config=config,
        samples=samples,
        records=records,
        reconstruction=reconstruction,
        artifacts=paths,
    )


def _write_convergence(path, config: ExperimentConfig, records) -> None:
    """One row per record: its time, ``modes_identified`` and each region's distance.

    The float columns are formatted as one table; the integer column is
    spliced in after the time.
    """
    header = ["time", "modes_identified"]
    header += [f"hausdorff_r{i}" for i in range(len(config.regions))]
    table = np.reshape([(rec.time, *rec.region_hausdorff) for rec in records],
                       (len(records), 1 + len(config.regions)))
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for rec, row in zip(records, _fmt_rows(table)):
            time, comma, distances = row.partition(",")
            fh.write(f"{time},{rec.modes_identified}{comma}{distances}\n")


# ---------------------------------------------------------------------------
# Human-readable rendering


def _axis_extents(mode) -> list[tuple[float, float]]:
    extents = []
    dim = mode.inner.dim
    for axis in range(dim):
        e = np.zeros(dim)
        e[axis] = 1.0
        hi = mgf_inner_bound(mode.inner, e) if mode.inner.n_samples else 0.0
        lo = mgf_inner_bound(mode.inner, -e) if mode.inner.n_samples else 0.0
        c = mode.inner.center[axis]
        extents.append((c - lo, c + hi))
    return extents


def render_report(recon: CdmReconstruction) -> str:
    """Stable multi-line summary of a reconstruction."""
    lines = []
    identified = sum(1 for m in recon.modes if m.identified)
    if not recon.modes:
        lines.append("no degradation detected")
        lines.append(f"unaffected samples: {len(recon.unaffected)}")
        return "\n".join(lines)
    lines.append(
        f"detected {len(recon.modes)} mode(s), identified {identified}, "
        f"declared mode budget {recon.mode_count}"
    )
    lines.append(f"unaffected samples: {len(recon.unaffected)}")
    for i, mode in enumerate(recon.modes):
        lines.append(f"mode {i}: " + ("identified" if mode.identified else "detected, not yet identified"))
        if mode.identified:
            for r in range(recon.input_dim):
                lines.append("  linear   " + "  ".join(_fmt(x) for x in mode.map.linear[r]))
            lines.append("  translation  " + "  ".join(_fmt(x) for x in mode.map.translation))
            lines.append(f"  max residual  {_fmt(mode.residual)}")
        extents = _axis_extents(mode)
        for axis, (lo, hi) in enumerate(extents):
            lines.append(f"  affected axis {axis}: [{_fmt(lo)}, {_fmt(hi)}]")
        if mode.identified:
            corners = _extent_corners(extents)
            images = np.array([mode.map.translation + mode.map.linear @ c for c in corners])
            for axis in range(images.shape[1]):
                lines.append(
                    f"  viable image axis {axis}: "
                    f"[{_fmt(images[:, axis].min())}, {_fmt(images[:, axis].max())}]"
                )
    return "\n".join(lines)


def _extent_corners(extents) -> np.ndarray:
    corners = [[]]
    for lo, hi in extents:
        corners = [c + [v] for c in corners for v in (lo, hi)]
    return np.array(corners)


# ---------------------------------------------------------------------------
# Bundled experiment configuration


DEFAULT_HEAT_CONFIG = """\
[system]
kind = heat
diffusivity = 0.1
grid_points = 101
source_width = 0.05
initial_temperature = 0.0
initial_depth = 0.0

[cdm]
kind = heat-threemode

[signal]
kind = heat-probe

[sampling]
rate = 20.0
jitter = 0.01
seed = 7
horizon = 10.0

[identification]
delta = 0.4
modes = 3
lipschitz = 1.0
identity_tol = 1e-7

[convergence]
axis = 1
regions = 0.0:0.25 0.5:0.75 0.75:1.0

[output]
directory = out
"""


def default_heat_config() -> ExperimentConfig:
    """The bundled electrosurgery heat-probe experiment."""
    return parse_config_text(DEFAULT_HEAT_CONFIG)
