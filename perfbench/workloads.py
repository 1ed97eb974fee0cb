"""The benchmark's workloads, end-to-end and traced passes, and self-test.

Imported by ``run.py`` once ``src`` of the checkout is on ``sys.path``.
"""

from __future__ import annotations

import configparser
import dataclasses
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from cdmkit import experiment, heat_example_cdm, identification, serialization
from cdmkit.errors import UnviableInputError

import checks
from speed import Clock
from tracing import Tracer, wrapper_costs

WORKLOADS = {
    "heat-bundled": {"horizon": None},
    "heat-long": {"horizon": 40.0},
    "command-serving": {"horizon": None},
}
SETUPS = 3  # set-ups per invocation; setup_s is their median
BLOCK = 1000  # commands per block; each block is stratified over the input range
REPEATS = 3  # each block is served this often; a command's latency is the median
MIN_BLOCKS = 5  # at least this many blocks are served, so p99 has 50 commands beyond it
TRACE_COMMANDS = 2000
FINAL_BUILDS = 5  # full-pair-set rebuilds timed in a traced pass
SERVED_OBSERVATIONS = 200  # heat workloads serve the reconstruction of this run prefix

# A fresh interpreter importing cdmkit and parsing the generated config; it
# prints the scaled and the wall seconds from its launch at ``argv[4]``.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import speed
with speed.Clock("python", origin=float(sys.argv[4])) as clock:
    sys.path.insert(0, sys.argv[2])
    import cdmkit
    cdmkit.parse_config(sys.argv[3])
    end = time.perf_counter()
print(clock.elapsed(clock.origin, end), end - clock.origin)
"""
HERE = Path(__file__).resolve().parent

perf = time.perf_counter


# ---------------------------------------------------------------------------
# Inputs


def write_config(base: Path, seed: int, horizon, path: Path) -> Path:
    parser = configparser.ConfigParser()
    parser.read(base)
    parser["sampling"]["seed"] = str(seed)
    if horizon is not None:
        parser["sampling"]["horizon"] = repr(float(horizon))
    with open(path, "w") as fh:
        parser.write(fh)
    return path


def command_blocks(seed: int):
    """Endless blocks of desired inputs ``(1, s)``, ``s`` uniform on [0, 1].

    Each block is stratified (one draw per 1/BLOCK stratum, in random order),
    so every block sees the viable and unviable ranges in fixed proportion.
    """
    rng = np.random.default_rng([seed, 1])
    while True:
        s = (rng.permutation(BLOCK) + rng.random(BLOCK)) / BLOCK
        yield [np.array([1.0, x]) for x in s]


# ---------------------------------------------------------------------------
# Operations


def setup_probe(src: Path, config_path: Path) -> tuple[float, float]:
    """One set-up in a fresh interpreter: (scaled seconds, wall seconds)."""
    launch = perf()
    probe = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(HERE), str(src),
                            str(config_path), repr(launch)],
                           cwd=src.parent, check=True, stdout=subprocess.PIPE, text=True)
    scaled, wall = (float(x) for x in probe.stdout.split()[-2:])
    return scaled, wall


def serve(recon, commands):
    """Closed loop, one caller: returns (command stamps, outcomes, serving stamps).

    Stamps are ``(start, end)`` pairs of ``time.perf_counter()`` readings.
    """
    stamps, outcomes = [], []
    start = perf()
    for u in commands:
        t0 = perf()
        try:
            u_v = identification.viabilize(recon, u)
            result = identification.query(recon, u_v)
            bound = (identification.lipschitz_error_bound(recon, u_v, checks.L_P)
                     if result.kind == "mapped" else None)
            outcome = (u_v, result, bound)
        except UnviableInputError:
            outcome = None
        except Exception as exc:  # a failed command is counted, not fatal
            outcome = exc
        stamps.append((t0, perf()))
        outcomes.append(outcome)
    return stamps, outcomes, (start, perf())


class Tally:
    """Attempted and failed operations, and the served-command outcomes."""

    def __init__(self):
        self.truth = heat_example_cdm()
        self.attempted = 0
        self.failed = 0
        self.kinds = {"passthrough": 0, "mapped": 0, "unviable": 0, "error": 0}
        self.blocks: list[list] = []  # per block, the command stamps of each repeat
        self.serving: list[tuple[float, float]] = []  # stamps of each pass over a block
        self.messages: list[str] = []

    def _fail(self, message: str):
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def run(self, failures: list[str]):
        self.attempted += 1
        if failures:
            self._fail("; ".join(failures))

    def commands(self, served, commands):
        """Counts and checks one pass over ``commands``; returns its command stamps."""
        stamps, outcomes, serving = served
        self.serving.append(serving)
        for u, outcome in zip(commands, outcomes):
            kind, failure = checks.check_command(u, outcome, self.truth)
            self.attempted += 1
            self.kinds[kind] += 1
            if failure:
                self._fail(f"command {u.tolist()}: {failure}")
        return stamps

    def serve(self, recon, commands):
        """Serves the block ``commands`` REPEATS times over."""
        self.blocks.append([self.commands(serve(recon, commands), commands)
                            for _ in range(REPEATS)])


def served_reconstruction(result, config):
    """The reconstruction of a run's first SERVED_OBSERVATIONS observations.

    A command costs time in proportion to the pairs of the mode that
    certifies it.  At 800 observations the deep branch splits into two
    clusters whose sizes and order change with the seed, which moves the
    command metrics by up to 1.5x between seeds; serving the 10 s
    reconstruction keeps them steady and comparable across workloads.
    """
    return identification.build_reconstruction(result.samples[:SERVED_OBSERVATIONS],
                                               config.model(), config.identification)


def heat_run(config, out_dir: Path, tally: Tally, reference: list):
    """One checked ``run_experiment``; returns ((start, end) stamps, result or None).

    ``reference`` holds the first run's reconstruction bytes; every later
    run of the same config must reproduce them.
    """
    t0 = perf()
    try:
        result = experiment.run_experiment(config, out_dir=str(out_dir))
        stamps = (t0, perf())
        failures, recon_bytes = checks.check_run(result, config, tally.truth, out_dir / "check")
    except Exception:  # the run, or reading its artifacts back, raised: a failed run
        tally.run([f"run raised: {traceback.format_exc(limit=3)}"])
        return (t0, perf()), None
    if not reference:
        reference.append(recon_bytes)
    elif recon_bytes != reference[0]:
        failures.append("reconstruction.txt differs from the first run of this invocation")
    tally.run(failures)
    return stamps, result


# ---------------------------------------------------------------------------
# End-to-end pass


def measure(workload: str, seed: int, seconds: float, src: Path, base_config: Path, work: Path):
    """Returns (metrics, tally, notes); metrics map name -> (value, unit).

    Every time metric is scaled time (``speed.Clock``); the notes give the
    plain wall times beside it.
    """
    tally = Tally()
    config_path = write_config(base_config, seed, WORKLOADS[workload]["horizon"],
                               work / "experiment.cfg")
    blocks = command_blocks(seed)
    # a set-up is the fresh interpreter's (scaled, wall) seconds and the stamps
    # of the in-process steps it includes
    setups, run_stamps, reference = [], [], []
    recon = None
    with Clock() as clock:
        if workload == "command-serving":
            for i in range(SETUPS):
                fresh = setup_probe(src, config_path)
                t0 = perf()
                config = experiment.parse_config(config_path)
                steps = [(t0, perf())]
                stamps, result = heat_run(config, work / f"setup{i}", tally, reference)
                steps.append(stamps)
                run_stamps.append(stamps)
                if result is not None:
                    t0 = perf()
                    recon = serialization.read_reconstruction(result.artifacts["reconstruction"])
                    steps.append((t0, perf()))
                setups.append((fresh, steps))
            start = perf()
            while recon is not None and (len(tally.blocks) < MIN_BLOCKS
                                         or perf() - start < seconds):
                tally.serve(recon, next(blocks))
        else:
            setups = [(setup_probe(src, config_path), []) for _ in range(SETUPS)]
            config = experiment.parse_config(config_path)
            start = perf()
            while not run_stamps or perf() - start < seconds:
                stamps, result = heat_run(config, work / f"run{len(run_stamps)}", tally,
                                          reference)
                run_stamps.append(stamps)
                if result is not None:
                    if recon is None:
                        recon = served_reconstruction(result, config)
                        served_from = perf()
                    tally.serve(recon, next(blocks))
            # the blocks, interleaved with the runs or after them, span --seconds
            while recon is not None and (len(tally.blocks) < MIN_BLOCKS
                                         or perf() - served_from < seconds):
                tally.serve(recon, next(blocks))

    def wall(stamps):
        return stamps[1] - stamps[0]

    setup_s = [fresh[0] + sum(clock.elapsed(*st) for st in steps) for fresh, steps in setups]
    setup_wall = [fresh[1] + sum(map(wall, steps)) for fresh, steps in setups]
    run_s = [clock.elapsed(*st) for st in run_stamps]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "run_s": (statistics.median(run_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    probes = np.percentile(clock.probe_seconds(), [5, 50, 95]) * 1e6
    notes = {
        "runs": len(run_stamps),
        "run_s_values": run_s,
        "run_wall_s_values": [wall(st) for st in run_stamps],
        "setup_s_values": setup_s,
        "setup_wall_s_values": setup_wall,
        "probe_us_p5_p50_p95": probes.tolist(),
    }
    if tally.blocks:
        # a command's latency is the median of its REPEATS passes
        latencies = np.concatenate([
            np.median([[clock.elapsed(*st) for st in stamps] for stamps in block], axis=0)
            for block in tally.blocks])
        p50, p99 = (float(p) for p in np.percentile(latencies, [50, 99]))
        wall_p50, wall_p99 = np.percentile(
            np.concatenate([np.median([[wall(st) for st in stamps] for stamps in block], axis=0)
                            for block in tally.blocks]), [50, 99])
        served = sum(tally.kinds.values())
        metrics.update({
            "cmd_per_s": (served / sum(clock.elapsed(*st) for st in tally.serving), "1/s"),
            "cmd_p50_us": (p50 * 1e6, "us"),
            "cmd_p99_us": (p99 * 1e6, "us"),
            "cmd_viable_ratio": ((tally.kinds["passthrough"] + tally.kinds["mapped"]) / served,
                                 "ratio"),
        })
        notes.update({
            "command_blocks": len(tally.blocks),
            "commands_served": served,
            "cmd_p99_samples_beyond": len(latencies) - int(0.99 * len(latencies)),
            "command_kinds": tally.kinds,
            "cmd_wall_per_s": served / sum(map(wall, tally.serving)),
            "cmd_wall_p50_p99_us": [wall_p50 * 1e6, wall_p99 * 1e6],
        })
    return metrics, tally, notes


# ---------------------------------------------------------------------------
# Traced pass


def _ms(values):
    return statistics.median(values) * 1e3 if values else None


def _us(values):
    return statistics.median(values) * 1e6 if values else None


def _total(values):
    return sum(values) if values else None


def trace(workload: str, seed: int, base_config: Path, work: Path):
    """Traced pass; returns (metrics, tally, notes, tracer).

    The pass parses the config, runs the experiment once, reads the
    reconstruction back, rebuilds it from all samples FINAL_BUILDS times
    and serves TRACE_COMMANDS commands.  Metrics whose function no longer
    exists, or was never called, are listed as absent.  The tracing
    overhead is estimated from the number of wrapped calls and the measured
    cost of one wrapped call (``tracing.wrapper_costs``); the difference of
    one traced and one untraced run is smaller than the machine's noise.
    """
    tally = Tally()
    config_path = write_config(base_config, seed, WORKLOADS[workload]["horizon"],
                               work / "experiment.cfg")
    commands = next(command_blocks(seed))
    commands = (commands * (TRACE_COMMANDS // BLOCK + 1))[:TRACE_COMMANDS]
    reference: list = []

    tracer = Tracer()
    with tracer.installed():
        for _ in range(SETUPS):
            config = experiment.parse_config(config_path)
        run_stamps, result = heat_run(config, work / "traced", tally, reference)
        if result is None:
            return {}, tally, {"absent": ["all"]}, tracer
        read_back = serialization.read_reconstruction(result.artifacts["reconstruction"])
        for _ in range(FINAL_BUILDS):
            final = identification.build_reconstruction(result.samples, config.model(),
                                                        config.identification)
    served = read_back if workload == "command-serving" else served_reconstruction(result,
                                                                                   config)
    first_command_span = len(tracer.spans)
    with tracer.installed():
        traced_cmd = serve(served, commands)
    tally.commands(traced_cmd, commands)
    command_spans = len(tracer.spans) - first_command_span
    costs = wrapper_costs()
    cost = {kind: statistics.median(values) for kind, values in costs.items()}
    # a cost is unresolved when the spread of its repeats exceeds its median
    quartiles = {kind: statistics.quantiles(values, n=4) for kind, values in costs.items()}
    unresolved = sorted(kind for kind, q in quartiles.items() if q[2] - q[0] > cost[kind])

    spans = tracer.closed()
    steps = tracer.durations("experiment.stream_step")
    late = steps[len(steps) - max(1, len(steps) // 10):]
    run_spans = [i for i, s in spans if s[0] == "experiment.run_experiment"]
    # the full-pair-set builds are those under the batch rebuilds above
    final_builds = [i for i, s in spans if s[0] == "identification.build" and s[3] is not None
                    and tracer.spans[s[3]][0] == "identification.batch_build"]

    def per_build(child):
        if not tracer.durations(child):
            return None
        sums = tracer.child_sums("identification.build", child)
        return _ms([sums[i] for i in final_builds])

    def in_run(name):
        return tracer.durations(name, "experiment.run_experiment")

    counts = tracer.counts
    run_wrapped = tracer.spans_within(run_spans[0]) if run_spans else None
    values = {
        "simulation.integrate_s": (_total(tracer.durations("simulation.integrate")), "s"),
        "simulation.drift_calls": (counts.get("simulation.drift_calls"), "count"),
        "simulation.observations": (len(result.samples), "count"),
        "degradation.cdm_calls": (counts.get("degradation.cdm_calls"), "count"),
        "degradation.cdm_s": (counts.get("degradation.cdm_s"), "s"),
        "experiment.stream_s": (_total(steps), "s"),
        "experiment.stream_late_step_ms": (_ms(late), "ms"),
        "identification.recover_us": (_us(tracer.durations("identification.recover")), "us"),
        "identification.final_build_ms": (
            _ms(tracer.durations("identification.build", "identification.batch_build")), "ms"),
        "identification.split_ms": (per_build("identification.split"), "ms"),
        "identification.cluster_ms": (per_build("identification.cluster"), "ms"),
        "identification.fit_ms": (per_build("identification.fit"), "ms"),
        "geometry.star_build_ms": (per_build("geometry.star_build"), "ms"),
        "identification.affected_pairs": (sum(len(m.pairs) for m in final.modes), "count"),
        "identification.clusters": (len(final.modes), "count"),
        "identification.modes_identified": (sum(1 for m in final.modes if m.identified),
                                            "count"),
        "experiment.parse_config_ms": (_ms(tracer.durations("experiment.parse_config")), "ms"),
        "experiment.separation_check_ms": (_ms(in_run("experiment.separation_check")), "ms"),
        "experiment.run_self_s": (tracer.self_times()[run_spans[0]] if run_spans else None, "s"),
        "serialization.write_samples_ms": (_ms(in_run("serialization.write_samples")), "ms"),
        "serialization.write_reconstruction_ms": (
            _ms(in_run("serialization.write_reconstruction")), "ms"),
        "serialization.bytes_written": (
            sum(Path(p).stat().st_size for p in result.artifacts.values()), "bytes"),
        "serialization.read_reconstruction_ms": (
            _ms(tracer.durations("serialization.read_reconstruction")), "ms"),
        "identification.query_us": (_us(tracer.durations("identification.query")), "us"),
        "identification.viabilize_us": (_us(tracer.durations("identification.viabilize")), "us"),
        "identification.error_bound_us": (
            _us(tracer.durations("identification.error_bound")), "us"),
        "geometry.inner_bound_us": (_us(tracer.durations("geometry.inner_bound")), "us"),
        "geometry.outer_bound_us": (_us(tracer.durations("geometry.outer_bound")), "us"),
        "geometry.witnesses_inner": (sum(m.inner.n_samples for m in served.modes), "count"),
        "geometry.witnesses_outer": (sum(m.outer.n_samples for m in served.modes), "count"),
        "trace.run_s": (run_stamps[1] - run_stamps[0], "s"),
        "trace.overhead_s": (
            None if run_wrapped is None
            else run_wrapped * cost["span"] + counts.get("simulation.drift_calls", 0) * cost["drift"]
            + counts.get("degradation.cdm_calls", 0) * cost["cdm"], "s"),
        "trace.cmd_overhead_us": (command_spans / len(commands) * cost["span"] * 1e6, "us"),
    }
    metrics = {k: v for k, v in values.items() if v[0] is not None}
    notes = {"absent": sorted(k for k, v in values.items() if v[0] is None),
             "stream_steps": len(steps), "late_steps": len(late),
             "spans": len(spans), "spans_in_run": run_wrapped,
             "spans_per_command": command_spans / len(commands),
             "wrapper_cost_us": {kind: c * 1e6 for kind, c in cost.items()},
             "overhead_unresolved": unresolved}
    return metrics, tally, notes, tracer


# ---------------------------------------------------------------------------
# Self-test


def self_test(base_config: Path, work: Path) -> int:
    """The checks pass on a clean reconstruction and fail on two broken ones.

    ``shifted`` moves every identified mode's translation by 1e-3, so mapped
    inputs miss the true degradation.  ``tight-outer`` shrinks every outer
    approximation by 10%, so commands near the edge of an affected region
    are wrongly certified as passthrough; ``query(viabilize(u))`` still
    returns ``u`` for them and only the comparison with the true
    degradation fails.
    """
    config = experiment.parse_config(write_config(base_config, 7, None, work / "experiment.cfg"))
    recon = experiment.run_experiment(config, out_dir=str(work / "run")).reconstruction
    shifted = [
        dataclasses.replace(mode, map=dataclasses.replace(
            mode.map, translation=mode.map.translation + np.array([0.0, 1e-3])))
        if mode.identified else mode
        for mode in recon.modes
    ]
    tight = [dataclasses.replace(mode, outer=dataclasses.replace(mode.outer,
                                                                 radii=0.9 * mode.outer.radii))
             for mode in recon.modes]
    candidates = {
        "clean": recon,
        "shifted": dataclasses.replace(recon, modes=tuple(shifted)),
        "tight-outer": dataclasses.replace(recon, modes=tuple(tight)),
    }
    commands = next(command_blocks(7))
    ratios = {}
    for label, candidate in candidates.items():
        tally = Tally()
        tally.run(checks.check_branches(candidate, tally.truth))
        tally.serve(candidate, commands)
        ratios[label] = tally.failed / tally.attempted
        print(f"self-test {label}: fail_ratio {ratios[label]:.4f} "
              f"({tally.failed}/{tally.attempted}), kinds {tally.kinds}")
    ok = ratios.pop("clean") == 0.0 and all(r > 0.0 for r in ratios.values())
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1
