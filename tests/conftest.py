"""Shared fixtures: the bundled heat-probe experiment, run once per session."""

import time

import numpy as np
import pytest

import cdmkit as ck


@pytest.fixture(scope="session")
def heat_run(tmp_path_factory):
    """Config, result, and wall time of one bundled-experiment run."""
    out = tmp_path_factory.mktemp("heat_run")
    config = ck.default_heat_config()
    t0 = time.monotonic()
    result = ck.run_experiment(config, out_dir=str(out))
    elapsed = time.monotonic() - t0
    return config, result, elapsed


@pytest.fixture(scope="session")
def heat_stream(heat_run):
    """Per-observation reconstruction snapshots of the bundled experiment."""
    config, result, _ = heat_run
    model = config.model()
    return [r.snapshot()
            for r in ck.stream_reconstructions(result.samples, model, config.identification)]


@pytest.fixture
def linalg_calls(monkeypatch):
    """The name and right-hand-side shape of each ``np.linalg`` call from now on."""
    calls = []
    for name in sorted(set(np.linalg.__all__) - {"LinAlgError"}):
        def spy(*args, _name=name, _call=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(args[1]) if len(args) > 1 else None))
            return _call(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls
