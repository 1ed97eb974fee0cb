"""Command-line front end.

Subcommands:
    run <config> [--output DIR]    simulate, identify, write artifacts
    report <reconstruction>        print a human-readable summary
    viabilize <reconstruction> <vector..>   solve for a viabilized input

Exit codes: 0 success, 2 config, input-file, output-directory or command
error (a non-numeric, non-finite or wrong-dimension vector), 3 identification
failure, 4 unviable input.  Failures print one machine-parsable line to
stderr of the form ``<kind>: <message>``.  A command whose stdout is closed
before it is written exits 0 once its work is done, without a message.

The console entry :func:`entry` sets ``OPENBLAS_NUM_THREADS`` and
``OMP_NUM_THREADS`` to 1 where the caller left them unset: the bundled
run's largest matrix is 102 x 102, too small to gain from BLAS worker
threads.  The setting must precede the first NumPy import, so this module
imports nothing that loads NumPy until a command runs.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .errors import (
    ConfigError,
    IdentificationError,
    PreconditionError,
    ReportParseError,
    UnviableInputError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IDENTIFICATION = 3
EXIT_UNVIABLE = 4


def _fail(kind: str, message: str, code: int) -> int:
    print(f"{kind}: {message}", file=sys.stderr)
    return code


def _cmd_run(args) -> int:
    from .experiment import parse_config, run_experiment

    try:
        config = parse_config(args.config)
        result = run_experiment(config, out_dir=args.output)
    except ConfigError as exc:
        return _fail("config-error", str(exc), EXIT_CONFIG)
    except IdentificationError as exc:
        return _fail("identification-failure", str(exc), EXIT_IDENTIFICATION)
    except OSError as exc:  # the output directory cannot be made or written
        return _fail("config-error", f"cannot write artifacts: {exc}", EXIT_CONFIG)
    print(result.summary())
    for name in ("samples", "reconstruction", "convergence"):
        print(f"{name}: {result.artifacts[name]}")
    return EXIT_OK


def _cmd_report(args) -> int:
    from .experiment import render_report
    from .serialization import read_reconstruction

    try:
        recon = read_reconstruction(args.reconstruction)
    except ReportParseError as exc:
        return _fail("parse-error", str(exc), EXIT_CONFIG)
    except OSError as exc:
        return _fail("config-error", str(exc), EXIT_CONFIG)
    print(render_report(recon))
    return EXIT_OK


def _parse_vector(tokens) -> list:
    """The commanded components as floats; ``ValueError`` on a non-numeric token."""
    values = []
    for tok in tokens:
        values.extend(float(t) for t in tok.replace(",", " ").split() if t)
    return values


def _cmd_viabilize(args) -> int:
    from .identification import viabilize
    from .serialization import _fmt, read_reconstruction

    try:
        recon = read_reconstruction(args.reconstruction)
    except ReportParseError as exc:
        return _fail("parse-error", str(exc), EXIT_CONFIG)
    except OSError as exc:
        return _fail("config-error", str(exc), EXIT_CONFIG)
    try:
        u_cmd = _parse_vector(args.vector)
    except ValueError:
        return _fail("config-error", "commanded input is not numeric", EXIT_CONFIG)
    try:
        u_v = viabilize(recon, u_cmd)
    except PreconditionError as exc:
        return _fail("config-error", f"commanded input rejected: {exc}", EXIT_CONFIG)
    except UnviableInputError as exc:
        return _fail("unviable-input", str(exc), EXIT_UNVIABLE)
    print(" ".join(_fmt(x) for x in u_v))
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser with its subcommands, built once per process."""
    parser = argparse.ArgumentParser(
        prog="cdmkit",
        description="Identify input-degradation maps and viabilize commands.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to an experiment config file")
    p_run.add_argument("--output", default=None, help="override the output directory")
    p_run.set_defaults(func=_cmd_run)

    p_report = sub.add_parser("report", help="summarize a reconstruction file")
    p_report.add_argument("reconstruction", help="path to a reconstruction file")
    p_report.set_defaults(func=_cmd_report)

    p_via = sub.add_parser("viabilize", help="solve for a viabilized input")
    p_via.add_argument("reconstruction", help="path to a reconstruction file")
    # every remaining argument is a component, so ``-1e300`` or ``-inf`` is
    # not mistaken for an option
    p_via.add_argument("vector", nargs=argparse.REMAINDER, help="commanded input components")
    p_via.set_defaults(func=_cmd_viabilize)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    """Console entry: one BLAS thread unless the caller set the count, then :func:`main`.

    Only this entry touches the environment; importing the package or
    calling :func:`main` does not.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    try:
        code = main()
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
    except BrokenPipeError:  # the reader stopped reading: nothing else is lost
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    sys.exit(code)


if __name__ == "__main__":
    entry()
