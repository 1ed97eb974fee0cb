"""Output checks against the ground truth of the heat-probe experiment.

Each check returns a list of failure messages; an empty list means the
output is correct.  The tolerances are the acceptance suite's.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

import cdmkit as ck

BRANCH_TOL = 1e-6  # both non-identity branches recovered
ROUND_TRIP_TOL = 1e-9  # query(viabilize(u)) returns u
TRUTH_TOL = 1e-6  # a certified input reproduces u under the true degradation
L_P = 3.0  # Lipschitz constant of the bundled depth response (steepest branch)


def check_branches(recon, truth) -> list[str]:
    """Every affine branch of ``truth`` matches an identified mode to BRANCH_TOL."""
    failures = []
    for k, (_, branch) in enumerate(truth.modes):
        errors = [
            max(float(np.max(np.abs(mode.map.linear - branch.linear))),
                float(np.max(np.abs(mode.map.translation - branch.translation))))
            for mode in recon.modes if mode.identified
        ]
        if not errors or min(errors) > BRANCH_TOL:
            failures.append(f"branch {k} not recovered (best error {min(errors, default=math.inf):.3g})")
    return failures


def check_convergence(path) -> list[str]:
    """Every distance and covering column is non-increasing in time."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return ["convergence table is empty"]
    failures = []
    for column in rows[0]:
        if not column.startswith(("hausdorff_", "covering_")):
            continue
        values = [float(row[column]) for row in rows]
        rises = sum(1 for a, b in zip(values, values[1:]) if b > a)
        if rises:
            failures.append(f"convergence column {column} increases {rises} times")
    return failures


def check_artifacts(result, model, ident, scratch: Path) -> tuple[list[str], bytes]:
    """Artifacts read back, and the logged samples rebuild the same reconstruction.

    The sample log re-read and rebuilt in one batch must serialize to the
    same bytes as the reconstruction the run wrote, and the written
    reconstruction must survive a read/write round trip unchanged.
    Returns the failures and the reconstruction bytes.
    """
    failures = []
    recon_bytes = Path(result.artifacts["reconstruction"]).read_bytes()
    samples = ck.read_samples(result.artifacts["samples"])
    if len(samples) != len(result.samples) or any(
        not (np.array_equal(a.state, b.state) and np.array_equal(a.velocity, b.velocity)
             and np.array_equal(a.input, b.input) and a.time == b.time)
        for a, b in zip(samples, result.samples)
    ):
        failures.append("samples.csv does not read back to the run's samples")
    scratch.mkdir(parents=True, exist_ok=True)
    reread = scratch / "reread.txt"
    ck.write_reconstruction(reread, ck.read_reconstruction(result.artifacts["reconstruction"]))
    if reread.read_bytes() != recon_bytes:
        failures.append("reconstruction.txt changes on a read/write round trip")
    rebuilt = scratch / "rebuilt.txt"
    ck.write_reconstruction(rebuilt, ck.build_reconstruction(samples, model, ident))
    if rebuilt.read_bytes() != recon_bytes:
        failures.append("batch rebuild from samples.csv differs from reconstruction.txt")
    return failures, recon_bytes


def check_run(result, config, truth, scratch: Path) -> tuple[list[str], bytes]:
    """All checks of one heat run; returns the failures and the reconstruction bytes."""
    failures = check_branches(result.reconstruction, truth)
    failures += check_convergence(result.artifacts["convergence"])
    more, recon_bytes = check_artifacts(result, config.model(), config.identification, scratch)
    return failures + more, recon_bytes


def check_command(u, outcome, truth) -> tuple[str, str | None]:
    """Classify one served command and check it.

    ``outcome`` is None for an unviable command, an exception for a failed
    one, or ``(u_v, query_result, error_bound)``.  Returns the kind
    (``unviable``, ``passthrough``, ``mapped`` or ``error``) and a failure
    message or None.
    """
    if outcome is None:
        return "unviable", None
    if isinstance(outcome, Exception):
        return "error", f"{type(outcome).__name__}: {outcome}"
    u_v, result, bound = outcome
    kind = result.kind
    if kind not in ("passthrough", "mapped"):
        return "error", f"query(viabilize(u)) is {kind}"
    if float(np.max(np.abs(result.value - u))) > ROUND_TRIP_TOL:
        return kind, "query(viabilize(u)) does not return u"
    if float(np.max(np.abs(truth(u_v) - u))) > TRUTH_TOL:
        return kind, f"{kind} input does not reproduce u under the true degradation"
    if kind == "mapped" and not (bound >= 0.0 and math.isfinite(bound)):
        return kind, f"error bound {bound!r} is not a finite non-negative number"
    return kind, None
