"""cdmkit benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload heat-bundled --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a cdmkit checkout; the package is imported from its
``src``.  Workloads (the seed sets ``[sampling] seed`` of the bundled config
and the command draw; the program receives only the generated config and
commands):

* ``heat-bundled``: ``configs/heat_electrosurgery.cfg`` as shipped (200
  observations); ``run_experiment`` repeated until ``--seconds`` elapse.
* ``heat-long``: the same config at ``horizon = 40`` (800 observations), one
  ``run_experiment``; shows how the per-observation stream scales.
* ``command-serving``: set-up builds the bundled reconstruction and reads it
  back; one closed-loop caller then issues desired inputs ``(1, s)`` until
  ``--seconds`` elapse.  Each command is ``viabilize``, then ``query`` on the
  result, then ``lipschitz_error_bound`` when the result is mapped.

The heat workloads also serve commands against each run's reconstruction,
so every workload reports every end-to-end metric.  Every run and every
command is checked against the ground-truth degradation (``checks.py``); a
run or command that raises (other than ``UnviableInputError``) or fails a
check counts as failed.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; their
times are scaled to a fixed core speed (``speed.py``), with the plain wall
times in the notes.  With ``--trace 1`` one traced pass runs; the line holds
the per-layer metrics, timed in wall time by spans around cdmkit's public
functions (``tracing.py``), and the tracing overhead estimated from the
number of wrapped calls.  Every invocation
writes its record, and a traced one its spans, to ``.perfbench_out/``.
``--self-test`` shows that a perturbed reconstruction makes the checks fail.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "heat_electrosurgery.cfg"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("heat-bundled", "heat-long", "command-serving")


def load_workloads():
    """Import the workloads with cdmkit taken from this checkout's ``src`` only."""
    if not (SRC / "cdmkit" / "__init__.py").is_file() or not CONFIG.is_file():
        sys.exit(f"perfbench: {SRC / 'cdmkit'} or {CONFIG} is missing; "
                 "run from the root of a cdmkit checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import cdmkit
    import workloads

    if Path(cdmkit.__file__).resolve().parent != (SRC / "cdmkit").resolve():
        sys.exit(f"perfbench: imported cdmkit from {cdmkit.__file__}, not from {SRC}")
    return workloads


def environment() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = (f"{info.get('name')} {info.get('version')} "
                f"({' '.join(info.get('openblas configuration', '').split())})")
    except (KeyError, TypeError, AttributeError):  # the build record is informational
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "cdmkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cdmkit benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    wl = load_workloads()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.self_test:
            return wl.self_test(CONFIG, work)
        env = environment()
        if args.trace:
            metrics, tally, notes, tracer = wl.trace(args.workload, args.seed, CONFIG, work)
        else:
            metrics, tally, notes = wl.measure(args.workload, args.seed, args.seconds,
                                               SRC, CONFIG, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.dump(OUT / f"{stem}-spans.json",
                    extra={"workload": args.workload, "seed": args.seed})
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "environment": env, "notes": notes, "failures": tally.messages,
                   **result}, fh, indent=1)

    print("environment " + json.dumps(env))
    print("notes " + json.dumps(notes))
    for message in tally.messages:
        print("failure " + message)
    print(f"{args.workload} seed={args.seed}: fail_ratio "
          f"{tally.failed / max(tally.attempted, 1):.6g} ({tally.failed}/{tally.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
