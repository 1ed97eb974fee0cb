"""The benchmark's tracing hooks name functions that exist in cdmkit.

``perfbench/tracing.py`` wraps cdmkit functions by module and attribute
name and reports a missing one as an absent metric rather than failing, so
a rename would silently drop per-layer timings.  The file is executed from
source (no bytecode is written next to it) and only its tables are read.
One short traced pass of each workload shows that every per-layer metric
still arrives.
"""

import importlib
import json
import math
import os
import runpy
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_traced_functions_resolve():
    hooks = runpy.run_path(str(TRACING))
    targets = list(hooks["FUNCTIONS"].values()) + [hooks["INTEGRATE"], hooks["STREAM"]]
    assert len(targets) >= 19
    for module, attr in targets:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_traced_star_build_is_a_classmethod():
    module, cls_name, attr = runpy.run_path(str(TRACING))["STAR_BUILD"]
    cls = getattr(importlib.import_module(module), cls_name)
    assert isinstance(vars(cls).get(attr), classmethod)


def test_served_commands_call_the_traced_gauge_bounds(heat_run, monkeypatch):
    # the tracer times geometry.inner_bound/outer_bound by rebinding these
    # module globals; a command path that stops calling them through the
    # module would leave both spans absent.  A bound is evaluated only where
    # the witness radii leave the answer open, so the mapped command reaches
    # both and the passthrough, beyond every outer radius, the outer one.
    from cdmkit import geometry, identification, read_reconstruction

    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in ("mgf_inner_bound", "mgf_outer_bound"):
        monkeypatch.setattr(geometry, name, counting(name, getattr(geometry, name)))
    recon = read_reconstruction(heat_run[1].artifacts["reconstruction"])
    served = {}
    for s in (0.9, 0.5):  # one mapped and one passthrough command
        calls.clear()
        u_v = identification.viabilize(recon, np.array([1.0, s]))
        kind = identification.query(recon, u_v).kind
        if kind == identification.QueryKind.MAPPED:
            identification.lipschitz_error_bound(recon, u_v, 3.0)
        served[kind] = dict(calls)
    assert set(served) == {"mapped", "passthrough"}
    assert served["mapped"].get("mgf_inner_bound", 0) > 0
    assert served["mapped"].get("mgf_outer_bound", 0) > 0
    assert served["passthrough"].get("mgf_outer_bound", 0) > 0
    assert set(served["mapped"]) | set(served["passthrough"]) == {"mgf_inner_bound",
                                                                   "mgf_outer_bound"}


def test_run_draws_every_step_through_the_traced_stream(heat_run, tmp_path, monkeypatch):
    # the tracer times experiment.stream_step by rebinding this module
    # global; a run that stops iterating it would leave experiment.stream_s
    # and experiment.stream_late_step_ms absent
    from cdmkit import experiment

    steps = []
    stream = experiment.stream_reconstructions

    def counting(*args, **kwargs):
        for item in stream(*args, **kwargs):
            steps.append(item)
            yield item

    monkeypatch.setattr(experiment, "stream_reconstructions", counting)
    config = heat_run[0]
    result = experiment.run_experiment(config, out_dir=str(tmp_path))
    assert len(steps) == len(result.samples) > 0


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("workload", ["heat-bundled", "heat-long", "command-serving"])
def test_traced_pass_ends_with_a_complete_result_line(workload):
    # a traced pass whose last line is not a strict-JSON result holding every
    # per-layer metric of BENCHMARK.json, finite and positive, is an unusable run
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", "1", "--seconds", "1", "--trace", "1"],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    result = json.loads(run.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for name, metric in metrics.items():
        value = metric["value"]
        assert math.isfinite(value) and value > 0, (name, value)
