"""Round-trip and parse-error tests for the plain-text file formats."""

import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cdmkit.degradation import AffineMap
from cdmkit.errors import ReportParseError
from cdmkit.geometry import Side
from cdmkit.identification import (
    IdentificationConfig,
    build_reconstruction,
    build_reconstruction_from_pairs,
    fit_residuals,
    reconstruction_from_clusters,
)
from cdmkit.serialization import (
    MAGIC,
    STAR_HEADER,
    _checked,
    _count,
    _float,
    _floats,
    _fmt_rows,
    read_reconstruction,
    read_samples,
    reconstruction_from_lines,
    reconstruction_to_lines,
    write_reconstruction,
    write_samples,
)
from cdmkit.simulation import ControlSample

from trials import TRIAL_DELTA, TRIAL_LIPSCHITZ, make_trial


TRIAL_CONFIG = IdentificationConfig(delta=TRIAL_DELTA, n_modes=3, lipschitz=TRIAL_LIPSCHITZ)


@pytest.fixture
def recon():
    model, cdm, samples, m, N = make_trial(3)
    return build_reconstruction(samples, model, TRIAL_CONFIG)


def write_no_samples(path):
    write_samples(path, [])


def read_empty_log(path):
    path.write_text("")
    read_samples(path)


@pytest.mark.parametrize("call, error, message", [
    (write_no_samples, ValueError, "no samples to write"),
    (read_empty_log, ReportParseError, r"empty sample log \(line 1\)"),
])
def test_empty_sample_logs_rejected(tmp_path, call, error, message):
    with pytest.raises(error, match=message):
        call(tmp_path / "samples.csv")


def repr_rows(table) -> list[str]:
    """The reference the formatter must match: each row's values through ``repr``, by commas."""
    return [",".join(map(repr, row)) for row in np.asarray(table).tolist()]


# The ends of the range where orjson prints a float as repr does, the floats next to them
# toward zero, and every kind of float outside it
EDGE_FLOATS = [
    value for edge in [0.0, 5e-324, 1e-310, sys.float_info.min, 1e-4, np.nextafter(1e-4, 0.0),
                       1e16, np.nextafter(1e16, 0.0), sys.float_info.max, np.inf, 0.1, 123.0]
    for value in (float(edge), -float(edge))] + [np.nan]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(arrays(np.float64, st.tuples(st.integers(0, 5), st.integers(1, 6)),
              elements=st.floats(width=64) | st.sampled_from(EDGE_FLOATS)))
@example(np.array([EDGE_FLOATS]))
@example(np.array(EDGE_FLOATS)[:, None])
@example(np.empty((0, 3)))
def test_fmt_rows_is_repr_of_each_value(table):
    assert _fmt_rows(table) == repr_rows(table)


def test_fmt_rows_is_repr_of_random_bit_patterns():
    # 10**6 random doubles, half with exponents in the range where orjson's own text is kept
    rng = np.random.default_rng(20261020)
    bits = rng.integers(0, 2**64, size=10**6, dtype=np.uint64)
    exponents = rng.integers(1023 - 14, 1023 + 54, size=bits.size // 2, dtype=np.uint64)
    bits[::2] = (bits[::2] & ~np.uint64(0x7FF << 52)) | (exponents << np.uint64(52))
    table = bits.view(np.float64).reshape(1000, 1000)
    size = np.abs(table)
    assert ((size >= 1e-4) & (size < 1e16)).sum() > 5 * 10**5
    assert _fmt_rows(table) == repr_rows(table)


class TestSampleLog:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = [
            ControlSample(time=float(t), state=rng.normal(size=3),
                          velocity=rng.normal(size=3), input=rng.normal(size=2))
            for t in np.linspace(0.0, 1.0, 5)
        ]
        path = tmp_path / "samples.csv"
        write_samples(path, samples)
        back = read_samples(path)
        assert len(back) == 5
        for a, b in zip(samples, back):
            assert a.time == b.time
            np.testing.assert_array_equal(a.state, b.state)
            np.testing.assert_array_equal(a.velocity, b.velocity)
            np.testing.assert_array_equal(a.input, b.input)

    def test_rows_match_per_value_repr(self, tmp_path):
        edge = [-0.0, 5e-324, 1e16, 1e308, np.nan, np.inf, -np.inf, 0.1, -2.5e-7]
        samples = [
            ControlSample(time=t, state=np.roll(edge, i)[:4], velocity=np.roll(edge, i)[4:8],
                          input=np.roll(edge, i)[7:])
            for i, t in enumerate([0.0, 5e-324, 1e16, 1e308, 0.1])
        ]
        path = tmp_path / "samples.csv"
        write_samples(path, samples)
        rows = [",".join(repr(float(x)) for x in [s.time, *s.state, *s.velocity, *s.input])
                for s in samples]
        header = "time,x0,x1,x2,x3,dx0,dx1,dx2,dx3,u0,u1"
        assert path.read_text() == "\n".join([header, *rows]) + "\n"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2,3\n")
        with pytest.raises(ReportParseError):
            read_samples(path)

    @pytest.mark.parametrize("header", [
        "time,x0,u0,dx0",  # the columns of a valid log, in another order
        "time,x0,dx0,u0,",
        "time,x0,dx0,u1",
        "time, x0, dx0, u0",
        "t,x0,dx0,u0",
    ])
    def test_header_other_than_the_written_one(self, tmp_path, header):
        # the columns are read by position, so a reordered header would swap them
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n0.0,1.0,2.0,3.0\n")
        with pytest.raises(ReportParseError, match="header") as err:
            read_samples(path)
        assert err.value.line == 1

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,x0,dx0,u0\n0.0,1.0,2.0\n")
        with pytest.raises(ReportParseError) as err:
            read_samples(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("read", [read_samples, read_reconstruction])
    def test_file_not_utf8_is_parse_error(self, tmp_path, read):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"time,x0,dx0,u0\n0.0,1.0,2.0,\xff\n")
        with pytest.raises(ReportParseError, match="not UTF-8"):
            read(path)


class TestStarFormat:
    def test_round_trip(self, tmp_path, recon):
        # star blocks are written and read only inside a reconstruction file
        path = tmp_path / "recon.txt"
        write_reconstruction(path, recon)
        back = read_reconstruction(path)
        stars = [(a.inner, b.inner) for a, b in zip(recon.modes, back.modes)]
        stars += [(a.outer, b.outer) for a, b in zip(recon.modes, back.modes)]
        assert stars and {a.side for a, _ in stars} == {Side.INNER, Side.OUTER}
        for star, got in stars:
            np.testing.assert_array_equal(got.center, star.center)
            np.testing.assert_array_equal(got.directions, star.directions)
            np.testing.assert_array_equal(got.radii, star.radii)
            assert got.lipschitz == star.lipschitz and got.side is star.side


class TestReconstructionFormat:
    def test_round_trip(self, tmp_path, recon):
        path = tmp_path / "recon.txt"
        write_reconstruction(path, recon)
        back = read_reconstruction(path)
        assert back.input_dim == recon.input_dim
        assert back.mode_count == recon.mode_count
        assert len(back.modes) == len(recon.modes)
        assert len(back.unaffected) == len(recon.unaffected)
        for a, b in zip(recon.modes, back.modes):
            assert a.identified == b.identified
            np.testing.assert_array_equal(a.map.linear, b.map.linear)
            np.testing.assert_array_equal(a.map.translation, b.map.translation)
            np.testing.assert_array_equal(a.inner.directions, b.inner.directions)
            np.testing.assert_array_equal(a.inner.radii, b.inner.radii)
            np.testing.assert_array_equal(a.outer.radii, b.outer.radii)
            np.testing.assert_allclose(a.residuals, b.residuals, atol=1e-15)

    def test_round_trip_empty_outer(self, tmp_path, recon):
        # without unaffected pairs every outer block has no witness rows
        m = recon.input_dim
        affected = [(row[:m], row[m:]) for mode in recon.modes for row in mode.pairs]
        alone = build_reconstruction_from_pairs(affected, TRIAL_CONFIG)
        path = tmp_path / "recon.txt"
        write_reconstruction(path, alone)
        back = read_reconstruction(path)
        assert back.modes and len(back.unaffected) == 0
        for mode in back.modes:
            assert mode.outer.n_samples == 0 and mode.outer.side is Side.OUTER
        assert reconstruction_to_lines(back) == reconstruction_to_lines(alone)

    @pytest.mark.parametrize("block, edit", [
        # the declared dimension disagrees with the center's length
        ("[inner]", lambda f: f[:-3] + ["7"] + f[-2:]),
        ("[outer]", lambda f: f[:-1] + ["sideways"]),
    ], ids=["dim", "side"])
    def test_malformed_star_metadata_reports_line(self, tmp_path, recon, block, edit):
        lines = reconstruction_to_lines(recon)
        idx = lines.index(block) + 2  # the header, then the metadata line
        lines[idx] = ",".join(edit(lines[idx].split(",")))
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ReportParseError) as err:
            read_reconstruction(path)
        assert err.value.line == idx + 1

    def test_deterministic_bytes(self, tmp_path, recon):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_reconstruction(p1, recon)
        write_reconstruction(p2, recon)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_names_missing_section(self, tmp_path, recon):
        lines = reconstruction_to_lines(recon)
        cut = next(i for i, l in enumerate(lines) if l == "[unaffected]")
        path = tmp_path / "trunc.txt"
        path.write_text("\n".join(lines[:cut]) + "\n")
        with pytest.raises(ReportParseError) as err:
            read_reconstruction(path)
        assert "[unaffected]" in str(err.value)
        assert err.value.line is not None

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a reconstruction\n")
        with pytest.raises(ReportParseError):
            read_reconstruction(path)

    def test_corrupted_numeric_field(self, tmp_path, recon):
        lines = reconstruction_to_lines(recon)
        idx = next(i for i, l in enumerate(lines) if l.startswith("linear,"))
        lines[idx] = "linear,abc"
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ReportParseError) as err:
            read_reconstruction(path)
        assert err.value.line == idx + 1

    @pytest.mark.parametrize(
        "key", ["input_dim", "mode_count", "modes", "unaffected", "identified", "pairs",
                "samples", "separation", "residual"])
    def test_corrupted_scalar_reports_line(self, tmp_path, recon, key):
        lines = reconstruction_to_lines(recon)
        idx = next(i for i, l in enumerate(lines) if l.startswith(key + ","))
        lines[idx] = key + ",x"
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ReportParseError) as err:
            read_reconstruction(path)
        assert err.value.line == idx + 1

    def test_corrupted_pair_rows_report_line(self, heat_run):
        # every pair row, in the mode blocks and in [unaffected]
        with open(heat_run[1].artifacts["reconstruction"]) as fh:
            lines = fh.read().splitlines()
        rows = [i for i, line in enumerate(lines) if line.startswith("pair,")]
        assert len(rows) == 200 and rows[-1] > lines.index("[unaffected]")
        for i in rows:
            tokens = lines[i].split(",")
            mutants = [tokens[:-1]]  # a token dropped
            for j in (1, len(tokens) - 1):
                for value in ("nan", "inf", "x", "1e400"):
                    mutants.append(tokens[:j] + [value] + tokens[j + 1:])
            for mutant in mutants:
                with pytest.raises(ReportParseError) as err:
                    reconstruction_from_lines(lines[:i] + [",".join(mutant)] + lines[i + 1:])
                assert err.value.line == i + 1, (i, mutant)

    def test_folding_star_rows_report_line(self, heat_run):
        # every witness row of every [inner]/[outer] block, repeated (same
        # radius, another radius, a direction within the de-dup tolerance)
        # under a raised count: the writer never emits such a block
        with open(heat_run[1].artifacts["reconstruction"]) as fh:
            lines = fh.read().splitlines()
        counts = [i for i, line in enumerate(lines) if line.startswith("samples,")]
        assert len(counts) == 6
        assert [lines[i - 3] for i in counts] == ["[inner]", "[outer]"] * 3
        rows = 0
        for i in counts:
            n = int(lines[i].split(",")[1])
            for r in range(i + 1, i + 1 + n):
                *direction, radius = lines[r].split(",")
                nudged = [repr(float(x) + 5e-11) if float(x) == 0.0 else x for x in direction]
                for copy in (lines[r], ",".join(direction + [repr(2 * float(radius) + 1)]),
                             ",".join(nudged + [radius])):
                    mutant = lines[:i] + [f"samples,{n + 1}"] + lines[i + 1:r + 1] + [copy] \
                        + lines[r + 1:]
                    with pytest.raises(ReportParseError, match="rebuilt from the pairs") as err:
                        reconstruction_from_lines(mutant)
                    assert err.value.line == i + 1, (i, copy)
                rows += 1
        assert rows == 9

    def test_tampered_values_report_line(self, heat_run):
        # values that still parse but that the pairs do not give, each edit in
        # its own copy; a rejected file raises no warning
        with open(heat_run[1].artifacts["reconstruction"]) as fh:
            lines = fh.read().splitlines()
        recon = reconstruction_from_lines(lines)
        m = recon.input_dim

        def scaled_radius(line, factor):
            *direction, radius = line.split(",")
            return ",".join(direction + [repr(float(radius) * factor)])

        def shifted_center(line):
            fields = line.split(",")
            return ",".join([repr(float(x) + 1e-3) for x in fields[:m]] + fields[m:])

        edits = []  # {line index: new text}, reported at the first edited line
        modes = iter(recon.modes)
        for i, line in enumerate(lines):
            if line in ("[inner]", "[outer]"):
                n = int(lines[i + 3].split(",")[1])
                factor = 2.0 if line == "[inner]" else 0.5
                edits += [{r: scaled_radius(lines[r], factor)} for r in range(i + 4, i + 4 + n)]
            if line == "[inner]":
                outer = lines.index("[outer]", i)
                edits.append({k: shifted_center(lines[k]) for k in (i + 2, outer + 2)})
            if line.startswith("translation,"):
                mode = next(modes)
                moved = mode.map.translation + 1e-3
                residual = np.max(fit_residuals(AffineMap(mode.map.linear, moved), mode.pairs))
                assert lines[i + 1] == "residual," + repr(mode.residual)
                edits.append({i: "translation," + ",".join(map(repr, moved.tolist())),
                              i + 1: "residual," + repr(float(residual))})
        assert len(edits) == 9 + 3 + 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for edit in edits:
                mutant = list(lines)
                for k, text in edit.items():
                    mutant[k] = text
                with pytest.raises(ReportParseError, match="rebuilt from the pairs") as err:
                    reconstruction_from_lines(mutant)
                assert err.value.line == min(edit) + 1, edit

    @pytest.mark.parametrize("edit", ["empty mode", "short metadata", "zero L", "negative L",
                                      "overflowing pair"])
    def test_unbuildable_blocks_report_line(self, heat_run, edit):
        # blocks the reader cannot rebuild a mode from fail at their own line,
        # quietly; an overflowing pair value, at the header line counting the modes
        with open(heat_run[1].artifacts["reconstruction"]) as fh:
            lines = fh.read().splitlines()
        bad = lines.index("[inner]") + 2  # the first star metadata line, which holds L
        if edit == "empty mode":  # the writer never emits a mode without pairs
            start = lines.index("identified,1")
            lines[start:lines.index("[inner]")] = ["identified,0", "pairs,0"]
            bad = start + 1
        elif edit == "overflowing pair":
            row = next(i for i, line in enumerate(lines) if line.startswith("pair,"))
            lines[row] = "pair,1e200" + lines[row][lines[row].index(",", 5):]
            bad = next(i for i, line in enumerate(lines) if line.startswith("modes,"))
        elif edit == "short metadata":
            lines[bad] = "inner"
        else:
            fields = lines[bad].split(",")
            fields[-2] = "0.0" if edit == "zero L" else "-1.0"
            lines[bad] = ",".join(fields)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ReportParseError) as err:
                reconstruction_from_lines(lines)
        assert err.value.line == bad + 1

    def test_mode_pair_beyond_the_pair_range_reports_the_modes_line(self, heat_run):
        # push never keeps such a pair, and the rebuild's fit rejects it
        with open(heat_run[1].artifacts["reconstruction"]) as fh:
            lines = fh.read().splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("pair,"))
        lines[row] = "pair,1e151" + lines[row][lines[row].index(",", 5):]
        with pytest.raises(ReportParseError, match="cannot be rebuilt from their pairs: pair "
                                                   "table has a component") as err:
            reconstruction_from_lines(lines)
        assert lines[err.value.line - 1].startswith("modes,")

    def test_extra_mode_block_reports_line(self, heat_run):
        # a pair table beyond the header's mode count is not rebuilt, so the
        # compare stops at the block that holds it
        with open(heat_run[1].artifacts["reconstruction"]) as fh:
            lines = fh.read().splitlines()
        at = lines.index("[unaffected]")
        mutant = lines[:at] + lines[lines.index("[mode 0]"):lines.index("[end mode 0]") + 1] \
            + lines[at:]
        with pytest.raises(ReportParseError, match="rebuilt from the pairs") as err:
            reconstruction_from_lines(mutant)
        assert err.value.line == at + 1

    def test_pipeline_files_read_back(self, heat_stream):
        # the reader's one check rests on this: every file the pipeline writes,
        # read back and written again, is the same file
        snapshots = list(heat_stream)
        for seed in range(100):
            model, cdm, samples, m, N = make_trial(seed)
            snapshots.append(build_reconstruction(samples, model, TRIAL_CONFIG))
        assert len(snapshots) == 300
        for recon in snapshots:
            lines = reconstruction_to_lines(recon)
            assert reconstruction_to_lines(reconstruction_from_lines(lines)) == lines

    def test_negative_count_rejected(self, tmp_path, recon):
        lines = reconstruction_to_lines(recon)
        idx = next(i for i, l in enumerate(lines) if l.startswith("pairs,"))
        lines[idx] = "pairs,-1"
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ReportParseError, match="negative count"):
            read_reconstruction(path)


# ---------------------------------------------------------------------------
# The block-by-block reader that walked the whole layout before the reader
# parsed only the data; kept as the reference the equivalence test runs.


class _Cursor:
    def __init__(self, lines):
        self.lines, self.pos = lines, 0

    @property
    def lineno(self):
        return 1 + self.pos

    def next(self, expect=None):
        if self.pos >= len(self.lines):
            what = f"expected {expect!r}" if expect else "unexpected end of file"
            raise ReportParseError(f"truncated input, {what}", line=self.lineno)
        self.pos += 1
        return self.lines[self.pos - 1]

    def expect(self, literal):
        line = self.next(expect=literal)
        if line != literal:
            raise ReportParseError(f"expected {literal!r}, found {line!r}", line=self.lineno - 1)


def _walked_pairs(cur, count, m):
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


def _scalar(cur, key):
    line = cur.next(expect=f"{key},<value>")
    if not line.startswith(key + ","):
        raise ReportParseError(f"expected '{key},<value>'", line=cur.lineno - 1)
    return line.split(",", 1)[1]


def _scalar_count(cur, key):
    return _count(_scalar(cur, key), cur.lineno - 1)


def walked_reconstruction_from_lines(lines):
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
        clusters.append(_walked_pairs(cur, count, m))
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
    unaffected = _walked_pairs(cur, n_unaffected, m)
    cur.expect("[end unaffected]")
    if cur.pos < len(cur.lines):
        raise ReportParseError("text after '[end unaffected]'", line=cur.lineno)
    try:
        with np.errstate(all="ignore"):
            recon = reconstruction_from_clusters(clusters, unaffected, config)
    except ValueError as exc:
        raise ReportParseError(f"the modes cannot be rebuilt from their pairs: {exc}",
                               line=modes_lineno) from exc
    for lineno, (found, expected) in enumerate(zip(lines, reconstruction_to_lines(recon)), 1):
        if found != expected:
            raise ReportParseError(f"found {found!r}, but the modes rebuilt from the pairs "
                                   f"write {expected!r}", line=lineno)
    return recon


def _rejected_at(read, lines):
    """The line ``read`` reports for ``lines``, or ``None`` if it accepts them."""
    try:
        read(lines)
    except ReportParseError as exc:
        assert exc.line is not None
        return exc.line
    return None


def test_reader_matches_walked_reader_on_single_token_mutants(heat_run):
    # every token of every line but the inner pair rows of each table, replaced
    # in turn by each value: both readers decide alike, and the reader that
    # parses only the data never reports a line later than the walk did
    with open(heat_run[1].artifacts["reconstruction"]) as fh:
        lines = fh.read().splitlines()
    rows = [i for i, line in enumerate(lines) if not line.startswith("pair,")
            or not (lines[i - 1].startswith("pair,") and lines[i + 1].startswith("pair,"))]
    mutants = earlier = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i in rows:
            tokens = lines[i].split(",")
            for j in range(len(tokens)):
                for value in ("nan", "inf", "-1", "x", "", "1e400", "0"):
                    mutant = lines[:i] + [",".join(tokens[:j] + [value] + tokens[j + 1:])] \
                        + lines[i + 1:]
                    walked = _rejected_at(walked_reconstruction_from_lines, mutant)
                    found = _rejected_at(reconstruction_from_lines, mutant)
                    assert (walked is None) == (found is None), (i + 1, j, value)
                    assert found is None or found <= walked, (i + 1, j, value, found, walked)
                    mutants += 1
                    earlier += found is not None and found < walked
    assert mutants > 1000 and earlier <= mutants // 20
