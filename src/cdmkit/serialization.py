"""Plain-text persistence for samples and reconstructions.

All writers format floats with ``repr`` (shortest round-trip form), so a
fixed computation produces byte-identical files across runs.  Readers turn
every malformed or inconsistent file into :class:`ReportParseError` with a
line number.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from .errors import ReportParseError
from .geometry import StarSetApprox
from .identification import (
    CdmReconstruction,
    IdentificationConfig,
    _make_cluster,
    reconstruction_from_clusters,
)
from .simulation import ControlSample

MAGIC = "cdm-reconstruction v1"
STAR_HEADER = "center,dim,L,side"


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_vec(v) -> str:
    return ",".join(_fmt(x) for x in np.atleast_1d(v))


# ---------------------------------------------------------------------------
# Sample logs


def write_samples(path, samples: Sequence[ControlSample]) -> None:
    """Write observations as CSV rows ``time, state.., velocity.., input..``."""
    if not samples:
        raise ValueError("no samples to write")
    n = samples[0].state.shape[0]
    m = samples[0].input.shape[0]
    header = (
        ["time"]
        + [f"x{i}" for i in range(n)]
        + [f"dx{i}" for i in range(n)]
        + [f"u{i}" for i in range(m)]
    )
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for s in samples:
            # one tolist() per row gives the floats _fmt would format, without
            # a NumPy call per value; a table-wide tolist() would hold every row
            row = np.concatenate([[s.time], s.state, s.velocity, s.input]).tolist()
            fh.write(",".join(map(repr, row)) + "\n")


def read_samples(path) -> list[ControlSample]:
    """Read a sample log written by :func:`write_samples`."""
    lines = _read_lines(path)
    if not lines:
        raise ReportParseError("empty sample log", line=1)
    header = lines[0].split(",")
    n = sum(1 for c in header if c.startswith("x") and not c.startswith("dx"))
    m = sum(1 for c in header if c.startswith("u"))
    if n == 0 or m == 0 or len(header) != 1 + 2 * n + m:
        raise ReportParseError("malformed sample log header", line=1)
    samples = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        vals = _floats(line, lineno)
        if len(vals) != 1 + 2 * n + m:
            raise ReportParseError("sample row has wrong column count", line=lineno)
        samples.append(
            ControlSample(
                time=vals[0],
                state=np.array(vals[1 : 1 + n]),
                velocity=np.array(vals[1 + n : 1 + 2 * n]),
                input=np.array(vals[1 + 2 * n :]),
            )
        )
    return samples


# ---------------------------------------------------------------------------
# Star-set approximations: the [inner] and [outer] blocks of a reconstruction


def star_to_lines(approx: StarSetApprox) -> list[str]:
    """Serialize: header, one metadata line, then one direction,radius row each."""
    meta = (
        _fmt_vec(approx.center)
        + f",{approx.dim},{_fmt(approx.lipschitz)},{approx.side.value}"
    )
    lines = [STAR_HEADER, meta, f"samples,{approx.n_samples}"]
    for l, r in zip(approx.directions, approx.radii):
        lines.append(_fmt_vec(l) + "," + _fmt(r))
    return lines


class _Cursor:
    """Line reader that tracks line numbers for parse diagnostics."""

    def __init__(self, lines: Sequence[str]):
        self.lines = lines
        self.pos = 0

    @property
    def lineno(self) -> int:
        return 1 + self.pos

    def next(self, expect: str | None = None) -> str:
        if self.pos >= len(self.lines):
            what = f"expected {expect!r}" if expect else "unexpected end of file"
            raise ReportParseError(f"truncated input, {what}", line=self.lineno)
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect(self, literal: str) -> None:
        line = self.next(expect=literal)
        if line != literal:
            raise ReportParseError(
                f"expected {literal!r}, found {line!r}", line=self.lineno - 1
            )


def _floats(text: str, lineno: int) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise ReportParseError(f"cannot parse numbers from {text!r}", line=lineno)
    if not all(map(math.isfinite, values)):
        raise ReportParseError(f"non-finite number in {text!r}", line=lineno)
    return values


def _float(text: str, lineno: int) -> float:
    values = _floats(text, lineno)
    if len(values) != 1:
        raise ReportParseError(f"cannot parse a number from {text!r}", line=lineno)
    return values[0]


@contextlib.contextmanager
def _checked(lineno: int):
    """Report a value constructor's ``ValueError`` as a parse error at ``lineno``."""
    try:
        yield
    except ValueError as exc:
        raise ReportParseError(str(exc), line=lineno) from exc


def _count(text: str, lineno: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ReportParseError(f"cannot parse a count from {text!r}", line=lineno)
    if value < 0:
        raise ReportParseError(f"negative count {value}", line=lineno)
    return value


# ---------------------------------------------------------------------------
# Reconstruction reports


def reconstruction_to_lines(recon: CdmReconstruction) -> list[str]:
    lines = [
        MAGIC,
        f"input_dim,{recon.input_dim}",
        f"mode_count,{recon.mode_count}",
        f"separation,{_fmt(recon.separation)}",
        f"modes,{len(recon.modes)}",
        f"unaffected,{len(recon.unaffected)}",
    ]
    for i, mode in enumerate(recon.modes):
        lines.append(f"[mode {i}]")
        lines.append(f"identified,{int(mode.identified)}")
        if mode.identified:
            lines.append("linear," + _fmt_vec(mode.map.linear.ravel()))
            lines.append("translation," + _fmt_vec(mode.map.translation))
            lines.append("residual," + _fmt(mode.residual))
        lines.append(f"pairs,{len(mode.pairs)}")
        lines.extend("pair," + _fmt_vec(row) for row in mode.pairs)
        lines.append("[inner]")
        lines.extend(star_to_lines(mode.inner))
        lines.append("[outer]")
        lines.extend(star_to_lines(mode.outer))
        lines.append(f"[end mode {i}]")
    lines.append("[unaffected]")
    lines.extend("pair," + _fmt_vec(row) for row in recon.unaffected)
    lines.append("[end unaffected]")
    return lines


def write_reconstruction(path, recon: CdmReconstruction) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(reconstruction_to_lines(recon)) + "\n")


def _pairs(cur: _Cursor, count: int, m: int) -> np.ndarray:
    """A block of ``count`` pair rows as one read-only ``(count, 2m)`` table."""
    rows = []
    for _ in range(count):
        line = cur.next(expect="pair row")
        if not line.startswith("pair,"):
            raise ReportParseError("expected a 'pair,' row", line=cur.lineno - 1)
        vals = _floats(line[len("pair,"):], cur.lineno - 1)
        if len(vals) != 2 * m:
            raise ReportParseError("pair row has wrong arity", line=cur.lineno - 1)
        rows.append(vals)
    table = np.array(rows, dtype=float).reshape(count, 2 * m)
    table.setflags(write=False)
    return table


def _scalar(cur: _Cursor, key: str) -> str:
    line = cur.next(expect=f"{key},<value>")
    if not line.startswith(key + ","):
        raise ReportParseError(f"expected '{key},<value>'", line=cur.lineno - 1)
    return line.split(",", 1)[1]


def _scalar_count(cur: _Cursor, key: str) -> int:
    return _count(_scalar(cur, key), cur.lineno - 1)


def reconstruction_from_lines(lines: Sequence[str]) -> CdmReconstruction:
    """Rebuild each mode from its pairs and accept ``lines`` only if the rebuild writes them.

    Only the header, the pair tables and the Lipschitz constant of the first
    ``[inner]`` block are parsed; maps, residuals and star blocks are
    stepped over and checked against the rebuild, line by line.
    """
    cur = _Cursor(lines)
    cur.expect(MAGIC)
    m = _scalar_count(cur, "input_dim")
    if m < 1:
        raise ReportParseError("input dimension must be at least 1", line=cur.lineno - 1)
    mode_count = _scalar_count(cur, "mode_count")
    with _checked(cur.lineno - 1):
        config = IdentificationConfig(delta=1.0, n_modes=mode_count)
    separation = _float(_scalar(cur, "separation"), cur.lineno - 1)
    with _checked(cur.lineno - 1):
        config = replace(config, delta=separation)
    n_modes = _scalar_count(cur, "modes")
    modes_lineno = cur.lineno - 1
    if n_modes > mode_count:
        raise ReportParseError(f"{n_modes} modes exceed the mode budget {mode_count}",
                               line=modes_lineno)
    n_unaffected = _scalar_count(cur, "unaffected")
    clusters = []
    for i in range(n_modes):
        cur.expect(f"[mode {i}]")
        if _scalar_count(cur, "identified"):
            for key in ("linear", "translation", "residual"):
                _scalar(cur, key)
        count = _scalar_count(cur, "pairs")
        if not count:
            raise ReportParseError("a mode needs at least one pair", line=cur.lineno - 1)
        clusters.append(_make_cluster(_pairs(cur, count, m))[0])
        for block in ("[inner]", "[outer]"):
            cur.expect(block)
            cur.expect(STAR_HEADER)
            fields = cur.next(expect="star metadata").split(",")
            if i == 0 and block == "[inner]":
                if len(fields) < 2:
                    raise ReportParseError("star metadata line too short", line=cur.lineno - 1)
                lipschitz = _float(fields[-2], cur.lineno - 1)
                with _checked(cur.lineno - 1):
                    config = replace(config, lipschitz=lipschitz)
            for _ in range(_scalar_count(cur, "samples")):
                cur.next(expect="direction,radius row")
        cur.expect(f"[end mode {i}]")
    cur.expect("[unaffected]")
    unaffected = _pairs(cur, n_unaffected, m)
    cur.expect("[end unaffected]")
    if cur.pos < len(cur.lines):
        raise ReportParseError("text after '[end unaffected]'", line=cur.lineno)
    try:
        with np.errstate(all="ignore"):
            recon = reconstruction_from_clusters(clusters, unaffected, config)
    except ValueError as exc:  # pair values near the float range overflow the rebuild
        raise ReportParseError(f"the modes cannot be rebuilt from their pairs: {exc}",
                               line=modes_lineno) from exc
    # the rebuild ends with the one '[end unaffected]' line, like the file
    for lineno, (found, expected) in enumerate(zip(lines, reconstruction_to_lines(recon)), 1):
        if found != expected:
            raise ReportParseError(f"found {found!r}, but the modes rebuilt from the pairs "
                                   f"write {expected!r}", line=lineno)
    return recon


def read_reconstruction(path) -> CdmReconstruction:
    return reconstruction_from_lines(_read_lines(path))


def _read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; any other bytes are a ``ReportParseError``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ReportParseError(f"file is not UTF-8 text: {exc}") from None
