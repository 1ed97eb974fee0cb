"""Plain-text persistence for samples and reconstructions.

All writers format floats with ``repr`` (shortest round-trip form), so a
fixed computation produces byte-identical files across runs.  Readers turn
every malformed or inconsistent file into :class:`ReportParseError` with a
line number.
"""

from __future__ import annotations

import contextlib
import math
from typing import Sequence

import numpy as np

from .degradation import AffineMap
from .errors import ReportParseError
from .geometry import Side, StarSetApprox
from .identification import CdmReconstruction, ModeReconstruction, fit_residuals
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
            row = [_fmt(s.time)] + [_fmt(x) for x in s.state] \
                + [_fmt(x) for x in s.velocity] + [_fmt(x) for x in s.input]
            fh.write(",".join(row) + "\n")


def read_samples(path) -> list[ControlSample]:
    """Read a sample log written by :func:`write_samples`."""
    with open(path) as fh:
        lines = fh.read().splitlines()
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

    def __init__(self, lines: Sequence[str], start: int = 1):
        self.lines = lines
        self.pos = 0
        self.start = start

    @property
    def lineno(self) -> int:
        return self.start + self.pos

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


def star_from_cursor(cur: _Cursor) -> StarSetApprox:
    cur.expect(STAR_HEADER)
    fields = cur.next(expect="star metadata").split(",")
    lineno = cur.lineno - 1
    if len(fields) < 4:
        raise ReportParseError("star metadata line too short", line=lineno)
    dim = len(fields) - 3
    if _count(fields[dim], lineno) != dim:
        raise ReportParseError(f"star metadata declares dim {fields[dim]}, line implies {dim}",
                               line=lineno)
    center = np.array(_floats(",".join(fields[:dim]), lineno))
    lipschitz = _float(fields[dim + 1], lineno)
    try:
        side = Side(fields[dim + 2])
    except ValueError:
        raise ReportParseError(f"unknown side {fields[dim + 2]!r}", line=lineno)
    count = _scalar_count(cur, "samples")
    count_lineno = cur.lineno - 1
    dirs, radii = [], []
    for _ in range(count):
        vals = _floats(cur.next(expect="direction,radius row"), cur.lineno - 1)
        if len(vals) != dim + 1:
            raise ReportParseError("sample row has wrong arity", line=cur.lineno - 1)
        dirs.append(vals[:dim])
        radii.append(vals[dim])
    with _checked(lineno):
        star = StarSetApprox(center=center, lipschitz=lipschitz,
                             directions=np.reshape(dirs, (-1, dim)), radii=radii, side=side)
    if star.n_samples != count:
        # the writer emits de-duplicated witnesses, so a fold means a repeated direction
        raise ReportParseError(f"{count} samples fold to {star.n_samples} distinct directions",
                               line=count_lineno)
    return star


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
    cur = _Cursor(lines)
    cur.expect(MAGIC)
    m = _scalar_count(cur, "input_dim")
    mode_count = _scalar_count(cur, "mode_count")
    separation = _float(_scalar(cur, "separation"), cur.lineno - 1)
    n_modes = _scalar_count(cur, "modes")
    if n_modes > mode_count:
        raise ReportParseError(f"{n_modes} modes exceed the mode budget {mode_count}",
                               line=cur.lineno - 1)
    n_unaffected = _scalar_count(cur, "unaffected")
    modes = []
    for i in range(n_modes):
        cur.expect(f"[mode {i}]")
        identified = bool(_scalar_count(cur, "identified"))
        affine = None
        if identified:
            lin = _floats(_scalar(cur, "linear"), cur.lineno - 1)
            if len(lin) != m * m:
                raise ReportParseError("linear row has wrong arity", line=cur.lineno - 1)
            trans = _floats(_scalar(cur, "translation"), cur.lineno - 1)
            with _checked(cur.lineno - 1):
                affine = AffineMap(np.array(lin).reshape(m, m), np.array(trans))
            residual = _float(_scalar(cur, "residual"), cur.lineno - 1)
            residual_lineno = cur.lineno - 1
        pairs = _pairs(cur, _scalar_count(cur, "pairs"), m)
        cur.expect("[inner]")
        inner = star_from_cursor(cur)
        cur.expect("[outer]")
        outer = star_from_cursor(cur)
        cur.expect(f"[end mode {i}]")
        if inner.dim != m:
            raise ReportParseError(f"mode {i} region has dim {inner.dim}, not {m}",
                                   line=cur.lineno - 1)
        residuals = None if affine is None else fit_residuals(affine, pairs)
        with _checked(cur.lineno - 1):
            mode = ModeReconstruction(
                map=affine, inner=inner, outer=outer, pairs=pairs, residuals=residuals
            )
        if affine is not None and not (len(pairs) and mode.residual == residual):
            raise ReportParseError(f"stored residual {_fmt(residual)} is not the residual "
                                   "recomputed from the pairs", line=residual_lineno)
        modes.append(mode)
    cur.expect("[unaffected]")
    unaffected = _pairs(cur, n_unaffected, m)
    cur.expect("[end unaffected]")
    return CdmReconstruction(
        modes=tuple(modes),
        unaffected=unaffected,
        separation=separation,
        mode_count=mode_count,
        input_dim=m,
    )


def read_reconstruction(path) -> CdmReconstruction:
    with open(path) as fh:
        lines = fh.read().splitlines()
    return reconstruction_from_lines(lines)
