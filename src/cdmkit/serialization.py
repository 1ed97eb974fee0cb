"""Plain-text persistence for samples and reconstructions.

All writers format floats as ``repr`` does (shortest round-trip form), so a
fixed computation produces byte-identical files across runs; every float
row of the three artifacts (the sample log, the reconstruction and
``experiment``'s convergence table) is formatted by :func:`_fmt_rows`.
Readers turn every malformed or inconsistent file into
:class:`ReportParseError` with a line number.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from .errors import ReportParseError
from .geometry import StarSetApprox, _frozen
from .identification import CdmReconstruction, IdentificationConfig, reconstruction_from_clusters
from .simulation import ControlSample

MAGIC = "cdm-reconstruction v1"
STAR_HEADER = "center,dim,L,side"

# The largest input dimension whose pair row of 2 * input_dim floats NumPy can shape.
_MAX_INPUT_DIM = np.iinfo(np.intp).max // 16


def _fmt(x: float) -> str:
    return repr(float(x))


# repr and orjson print a float alike where neither uses an exponent, 1e-4 <= |x| < 1e16.
# Below and above it orjson writes 1e-5 as 0.00001 and 1e16 as 1e16 (repr: 1e-05, 1e+16),
# and NaN and inf as null.  Zero prints alike but lies outside: it costs one repr.
_ORJSON_LO, _ORJSON_HI = 1e-4, 1e16


def _fmt_rows(table) -> list[str]:
    """Each row of the 2-D float ``table`` as its values' ``repr`` joined by commas.

    One ``orjson`` pass formats the whole table; the values outside the range
    where its text is ``repr``'s are then re-written with ``repr``.
    """
    import orjson  # on first use: a process that only parses a config never loads it

    table = np.ascontiguousarray(table, dtype=np.float64)
    if not table.shape[0]:
        return []
    rows = orjson.dumps(table, option=orjson.OPT_SERIALIZE_NUMPY).decode()[2:-2].split("],[")
    size = np.abs(table)
    odd = ~((size >= _ORJSON_LO) & (size < _ORJSON_HI))  # NaN compares false
    for i in np.flatnonzero(odd.any(axis=1)).tolist():
        tokens = rows[i].split(",")
        for j in np.flatnonzero(odd[i]).tolist():
            tokens[j] = _fmt(table[i, j])
        rows[i] = ",".join(tokens)
    return rows


def _fmt_vec(v) -> str:
    return _fmt_rows(np.reshape(v, (1, -1)))[0]


# ---------------------------------------------------------------------------
# Sample logs


def _samples_header(n: int, m: int) -> str:
    """Header line of a sample log with ``n`` states and ``m`` inputs."""
    columns = (["time"] + [f"x{i}" for i in range(n)] + [f"dx{i}" for i in range(n)]
               + [f"u{i}" for i in range(m)])
    return ",".join(columns)


# Samples formatted per table: a whole horizon-40 log at once would hold its text twice
# over, as one string and as rows, and raise the peak memory of a run.
_SAMPLE_CHUNK = 64


def write_samples(path, samples: Sequence[ControlSample]) -> None:
    """Write observations as CSV rows ``time, state.., velocity.., input..``."""
    if not samples:
        raise ValueError("no samples to write")
    n = samples[0].state.shape[0]
    m = samples[0].input.shape[0]
    with open(path, "w") as fh:
        fh.write(_samples_header(n, m) + "\n")
        for start in range(0, len(samples), _SAMPLE_CHUNK):
            chunk = samples[start:start + _SAMPLE_CHUNK]
            table = np.column_stack([[s.time for s in chunk], [s.state for s in chunk],
                                     [s.velocity for s in chunk], [s.input for s in chunk]])
            fh.write("\n".join(_fmt_rows(table)) + "\n")


def read_samples(path) -> list[ControlSample]:
    """Read a sample log written by :func:`write_samples`, whose exact header it requires."""
    lines = _read_lines(path)
    if not lines:
        raise ReportParseError("empty sample log", line=1)
    header = lines[0].split(",")
    n = sum(1 for c in header if c.startswith("x"))
    m = sum(1 for c in header if c.startswith("u"))
    if n == 0 or m == 0 or lines[0] != _samples_header(n, m):
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
                state=vals[1 : 1 + n],
                velocity=vals[1 + n : 1 + 2 * n],
                input=vals[1 + 2 * n :],
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
    rows = _fmt_rows(np.column_stack([approx.directions, approx.radii]))
    return [STAR_HEADER, meta, f"samples,{approx.n_samples}", *rows]


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
        lines.extend("pair," + row for row in _fmt_rows(mode.pairs))
        lines.append("[inner]")
        lines.extend(star_to_lines(mode.inner))
        lines.append("[outer]")
        lines.extend(star_to_lines(mode.outer))
        lines.append(f"[end mode {i}]")
    lines.append("[unaffected]")
    lines.extend("pair," + row for row in _fmt_rows(recon.unaffected))
    lines.append("[end unaffected]")
    return lines


def write_reconstruction(path, recon: CdmReconstruction) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(reconstruction_to_lines(recon)) + "\n")


def _pairs(lines: Sequence[str], start: int, count: int, m: int) -> np.ndarray:
    """The ``count`` pair rows from index ``start`` as one read-only ``(count, 2m)`` table."""
    rows = []
    for i in range(start, start + count):
        if i >= len(lines) or not lines[i].startswith("pair,"):
            raise ReportParseError("expected a 'pair,' row", line=i + 1)
        vals = _floats(lines[i][len("pair,"):], i + 1)
        if len(vals) != 2 * m:
            raise ReportParseError("pair row has wrong arity", line=i + 1)
        rows.append(vals)
    return _frozen(rows, "pair table").reshape(count, 2 * m)


def _field(lines: Sequence[str], index: int, key: str, parse=_count):
    """The value of the ``key,<value>`` line at ``index``, read by ``parse(text, lineno)``."""
    line = lines[index] if index < len(lines) else ""
    if not line.startswith(key + ","):
        raise ReportParseError(f"expected '{key},<value>'", line=index + 1)
    return parse(line[len(key) + 1:], index + 1)


def reconstruction_from_lines(lines: Sequence[str]) -> CdmReconstruction:
    """Rebuild each mode from its pairs and accept ``lines`` only if the rebuild writes them.

    Only the header, the first ``modes,N`` of the ``pairs,k`` tables, the
    ``[unaffected]`` table and the Lipschitz constant on the first star
    metadata line are parsed.  Every other line is judged by the rewrite:
    the first line that differs from it is the one reported.
    """
    if lines[:1] != [MAGIC]:
        raise ReportParseError(f"expected {MAGIC!r}", line=1)
    m = _field(lines, 1, "input_dim")
    if m < 1:
        raise ReportParseError("input dimension must be at least 1", line=2)
    if m > _MAX_INPUT_DIM:
        raise ReportParseError(f"input dimension {m} is beyond {_MAX_INPUT_DIM}, the largest "
                               f"whose pair row an array can hold", line=2)
    mode_count = _field(lines, 2, "mode_count")
    with _checked(3):
        config = IdentificationConfig(delta=1.0, n_modes=mode_count)
    separation = _field(lines, 3, "separation", _float)
    with _checked(4):
        config = replace(config, delta=separation)
    n_modes = _field(lines, 4, "modes")
    if n_modes > mode_count:
        raise ReportParseError(f"{n_modes} modes exceed the mode budget {mode_count}", line=5)
    n_unaffected = _field(lines, 5, "unaffected")
    clusters, unaffected, star_seen = [], None, False
    marker = i = 6  # '[unaffected]' belongs after the last '[end mode i]' line
    while unaffected is None:
        if i >= len(lines):
            raise ReportParseError("expected '[unaffected]'", line=marker + 1)
        line = lines[i]
        if line.startswith("pairs,") and len(clusters) < n_modes:
            count = _count(line[len("pairs,"):], i + 1)
            if not count:
                raise ReportParseError("a mode needs at least one pair", line=i + 1)
            clusters.append(_pairs(lines, i + 1, count, m))
            i += count
        elif not star_seen and lines[i - 1] == STAR_HEADER:  # center..,dim,L,side
            star_seen = True
            lipschitz = _float(["", *line.split(",")][-2], i + 1)
            with _checked(i + 1):
                config = replace(config, lipschitz=lipschitz)
        elif line.startswith("[end mode "):
            marker = i + 1
        elif line == "[unaffected]":
            unaffected = _pairs(lines, i + 1, n_unaffected, m)
        i += 1
    try:
        with np.errstate(all="ignore"):
            recon = reconstruction_from_clusters(clusters, unaffected, config)
    except ValueError as exc:  # pair values near the float range overflow the rebuild
        raise ReportParseError(f"the modes cannot be rebuilt from their pairs: {exc}",
                               line=5) from exc
    rewrite = reconstruction_to_lines(recon)
    for lineno, (found, expected) in enumerate(itertools.zip_longest(lines, rewrite), 1):
        if found != expected:
            found, expected = ("the end of the file" if s is None else repr(s)
                               for s in (found, expected))
            raise ReportParseError(f"found {found}, but the modes rebuilt from the pairs "
                                   f"write {expected}", line=lineno)
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
