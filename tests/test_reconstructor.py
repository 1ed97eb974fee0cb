"""The incremental Reconstructor against the batch reference build.

Every snapshot of a stream, whichever steps it is taken at, must
serialize exactly like ``build_reconstruction_from_pairs`` on the same
prefix, and must stay bit for bit as taken while the stream grows on.  A
push clusters its pair, and the cluster it grows goes on with its rank
fold, which decides as a fold from scratch and runs no SVD; a snapshot
builds every mode through the batch build's own builder, and a run
takes one.  The stream and the batch share their clustering, so both
are checked against SciPy's single linkage, the stream after every push.
The other fast paths behind it (batched basis selection, grouped
direction de-duplication) are checked against the loops they replace.
"""

import ast
import contextlib
import dataclasses
import logging
import math
import time
from collections import Counter
from pathlib import Path
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import fcluster, linkage

import cdmkit as ck
from cdmkit.errors import IdentificationError
from cdmkit.geometry import (
    DIRECTION_DEDUP_TOL,
    Side,
    StarSetApprox,
    _dedup_samples,
    _generic_axis,
    mgf_inner_bound,
    mgf_outer_bound,
)
from cdmkit.identification import (
    RANK_TOL,
    IdentificationConfig,
    Reconstructor,
    _Rows,
    build_reconstruction_from_pairs,
    cluster_pairs,
    fit_affine,
    recover_effective_input,
)
from cdmkit.serialization import reconstruction_to_lines

from trials import TRIAL_DELTA, TRIAL_LIPSCHITZ, make_trial


def assert_same(snapshot, batch):
    assert reconstruction_to_lines(snapshot) == reconstruction_to_lines(batch)
    for a, b in zip(snapshot.modes, batch.modes):
        if a.residuals is None:
            assert b.residuals is None
        else:
            np.testing.assert_array_equal(a.residuals, b.residuals)


def assert_snapshots_match_batch(pairs, config, steps=None):
    """Push every pair, snapshot at ``steps`` (default: all); both agree with the batch build.

    ``modes_identified`` is compared at every step.
    """
    rec = Reconstructor(config)
    for k, pair in enumerate(pairs, start=1):
        expected = build_reconstruction_from_pairs(pairs[:k], config)
        rec.push(*pair)
        assert rec.modes_identified == sum(m.identified for m in expected.modes)
        if steps is None or k in steps:
            assert_same(rec.snapshot(), expected)


@contextlib.contextmanager
def quiet():
    """Lipschitz-estimate warnings are expected on random data."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


def heat_pairs(heat_run):
    config, result, _ = heat_run
    model = config.model()
    return [(s.input, recover_effective_input(s, model)) for s in result.samples]


# ---------------------------------------------------------------------------
# Step-by-step equivalence


def test_bundled_stream_matches_batch_at_every_step(heat_run, heat_stream):
    config, _, _ = heat_run
    pairs = heat_pairs(heat_run)
    assert len(heat_stream) == len(pairs) == 200
    for k, snapshot in enumerate(heat_stream, start=1):
        assert_same(snapshot, build_reconstruction_from_pairs(pairs[:k], config.identification))


def test_trial_bank_streams_match_batch_at_every_step():
    cfg = IdentificationConfig(delta=TRIAL_DELTA, n_modes=3, lipschitz=TRIAL_LIPSCHITZ)
    for seed in range(100):
        model, _, samples, _, _ = make_trial(seed)
        pairs = [(s.input, recover_effective_input(s, model)) for s in samples]
        assert_snapshots_match_batch(pairs, cfg)


@st.composite
def pair_streams(draw):
    """Random pair streams: fragmented modes, repeats, ties, unaffected pairs."""
    m = draw(st.integers(1, 4))
    n_true = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([0.3, 1.0, 3.0]))  # 3.0 fragments modes at delta 1
    grid = draw(st.sampled_from([0.0, 0.25]))  # snap inputs to a grid: tied distances
    maps = [(rng.uniform(-2, 2, (m, m)), rng.uniform(-1, 1, m)) for _ in range(n_true)]
    centers = [rng.uniform(-1, 1, m) + 20.0 * k for k in range(n_true)]
    pairs = []
    for _ in range(draw(st.integers(1, 40))):
        kind = rng.random()
        if pairs and kind < 0.15:
            pairs.append(pairs[int(rng.integers(len(pairs)))])  # exact repeat
            continue
        if kind < 0.4:
            u = rng.uniform(-3, 3, m) - 10.0
            if grid:
                u = np.round(u / grid) * grid
            pairs.append((u, u.copy()))  # unaffected
            continue
        k = int(rng.integers(n_true))
        u = centers[k] + rng.uniform(-spread, spread, m)
        if grid:
            u = np.round(u / grid) * grid
        P, p = maps[k]
        pairs.append((u, P @ u + p))
    config = IdentificationConfig(
        delta=1.0,
        n_modes=draw(st.integers(1, 4)),
        lipschitz=draw(st.sampled_from([0.5, 4.0])),
    )
    return pairs, config


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pair_streams())
def test_random_streams_match_batch_at_every_step(stream):
    pairs, config = stream
    with quiet():
        assert_snapshots_match_batch(pairs, config)


def gauge_bounds(mode, directions):
    """Inner and outer bound along each direction; a side without witnesses gives 0 / inf."""
    inner = [mgf_inner_bound(mode.inner, l) if mode.inner.n_samples else 0.0
             for l in directions]
    outer = [mgf_outer_bound(mode.outer, l) if mode.outer.n_samples else np.inf
             for l in directions]
    return np.array(inner), np.array(outer)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_trial_streams_refine_bounds_monotonically(trial_seed, order_seed):
    # A mode is centred on the mean of its members, so its bounds are
    # compared between consecutive snapshots in which it keeps its members:
    # then no added pair may lower an inner bound or raise an outer one.
    model, cdm, samples, m, N = make_trial(trial_seed)
    pairs = [(s.input, recover_effective_input(s, model)) for s in samples]
    rng = np.random.default_rng(order_seed)
    order = rng.permutation(len(pairs)).tolist()
    order.append(order.pop(order.index(len(pairs) - 1)))  # end on an unaffected anchor
    directions = rng.normal(size=(12, m))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    config = IdentificationConfig(delta=TRIAL_DELTA, n_modes=3, lipschitz=TRIAL_LIPSCHITZ)
    rec = Reconstructor(config)
    previous = {}
    compared = 0
    with quiet():
        for i in order:
            rec.push(*pairs[i])
            snapshot = rec.snapshot()
            current = {}
            for mode in snapshot.modes:
                key = mode.pairs.tobytes()
                current[key] = gauge_bounds(mode, directions)
                if key in previous:
                    inner, outer = current[key]
                    assert np.all(inner >= previous[key][0])
                    assert np.all(outer <= previous[key][1])
                    compared += 1
            previous = current
    assert compared >= N  # the last, unaffected pair keeps every mode's members


def test_snapshot_warnings_point_at_its_caller():
    # witness radii that vary far faster than the assumed slope
    rec = Reconstructor(IdentificationConfig(delta=1e6, n_modes=1, lipschitz=1e-6))
    for u, v in (([1.0, 0.0], [3.0, 0.0]), ([0.0, 0.2], [0.0, 2.4]), ([0.4, 0.0], [1.4, 0.0])):
        rec.push(u, v)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rec.snapshot()
    assert caught and all(w.category is RuntimeWarning and w.filename == __file__
                          for w in caught)


def test_rank_failure_stops_the_stream_at_its_observation():
    # g(x) = [[x]] loses rank at x = 0: the third observation
    model = ck.SystemModel(dim_state=1, dim_input=1, drift=lambda x: 0.0 * x,
                           input_map=lambda x: np.array([[x[0]]]))
    samples = [ck.ControlSample(time=0.05 * i, state=np.array([x]), velocity=np.array([x]),
                                input=np.array([1.0])) for i, x in enumerate((2.0, 1.0, 0.0))]
    stream = ck.stream_reconstructions(samples, model, IdentificationConfig(delta=0.1, n_modes=1))
    for _ in range(2):
        next(stream)
    with pytest.raises(IdentificationError, match=r"observation 2 at t = 0\.1: input matrix "
                                                  r"rank 0 < 1") as err:
        next(stream)
    assert err.value.detail == 2 and isinstance(err.value.__cause__, ck.PreconditionError)


def test_pair_out_of_range_stops_the_stream_at_its_observation():
    # x' = u: the second observation's effective input is beyond the pair range
    samples = [ck.ControlSample(time=0.1 * i, state=np.zeros(1), velocity=np.array([v]),
                                input=np.array([1.0])) for i, v in enumerate((2.0, -2e150))]
    stream = ck.stream_reconstructions(samples, ck.linear_system([[0.0]], [[1.0]]),
                                       IdentificationConfig(delta=0.1, n_modes=1))
    assert next(stream).modes_identified == 0
    with pytest.raises(IdentificationError, match=r"observation 1 at t = 0\.1: effective has "
                                                  r"a component that is not finite") as err:
        next(stream)
    assert err.value.detail == 1 and isinstance(err.value.__cause__, ck.PreconditionError)


def snapshot_steps(n, seed):
    """Seeded irregular snapshot steps in 1..n: single pushes and long runs between."""
    rng = np.random.default_rng(seed)
    steps, k = set(), 0
    while k < n:
        k += int(rng.choice([1, 1, 2, 3, 5, 8, 13, 21]))
        steps.add(min(k, n))
    return steps


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pair_streams(), st.integers(0, 2**32 - 1))
def test_random_streams_match_batch_at_sparse_snapshots(stream, seed):
    pairs, config = stream
    with quiet():
        assert_snapshots_match_batch(pairs, config, snapshot_steps(len(pairs), seed))


def test_bundled_stream_matches_batch_at_sparse_snapshots(heat_run):
    """Snapshots every few pushes of the bundled stream match the batch build."""
    config, _, _ = heat_run
    ident = config.identification
    pairs = heat_pairs(heat_run)
    for seed in range(3):
        assert_snapshots_match_batch(pairs, ident, snapshot_steps(len(pairs), seed))


# ---------------------------------------------------------------------------
# Structural incrementality


def test_a_push_runs_no_svd_and_a_full_fold_projects_no_appended_row(heat_run, monkeypatch):
    """Pushing the bundled stream makes no SVD, QR or least-squares call.

    A cluster that only gains the pair and already keeps ``m`` directions
    folds nothing, unless the pair's input raises its scale so far that a
    kept remainder falls to the cut, the one case that refolds.
    """
    config, _, _ = heat_run
    pairs = heat_pairs(heat_run)
    m = len(pairs[0][0])
    calls = Counter()
    for name in ("svd", "qr", "lstsq"):
        def counted(*args, _name=name, _call=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    folded, fold = [], ck.identification._fold
    monkeypatch.setattr(ck.identification, "_fold",
                        lambda kept, *args: folded.append((kept, len(kept))) or fold(kept, *args))
    rec = Reconstructor(config.identification)
    full_appends = 0
    for pair in pairs:
        before = [(rows, rows.count, rows._scale, rows._kept[:])
                  for rows in rec._linkage.clusters.values()]
        folded.clear()
        rec.push(*pair)
        kept_on = list(rec._linkage.clusters.values())
        for rows, count, scale, kept in before:
            scale = max(scale, math.hypot(*pair[0]))
            if any(rows is r for r in kept_on) and rows.count == count + 1 and len(kept) == m \
                    and all(norm > RANK_TOL * scale for _, norm in kept):
                assert rows._kept == kept and all(f is not rows._kept for f, _ in folded)
                full_appends += 1
        assert all(size < m for _, size in folded)  # an entry with m kept folds nothing
    assert calls == Counter() and full_appends > 100


@pytest.mark.parametrize("n_modes, delta", [(1, 0.4), (3, 0.001)],
                         ids=["one-mode", "forced-merges"])
def test_bundled_variants_stream_like_batch_at_every_step(heat_run, n_modes, delta):
    # one mode: joins append to the first component's table until a second
    # one starts; delta 0.001: nearly every point starts a component, and
    # each cut forces merges
    config, _, _ = heat_run
    ident = dataclasses.replace(config.identification, n_modes=n_modes, delta=delta)
    with quiet():
        assert_snapshots_match_batch(heat_pairs(heat_run), ident)


def test_run_bounds_and_fits_each_final_mode_once(heat_run, tmp_path, monkeypatch):
    """A run pushes every observation and builds only its final reconstruction.

    Each final mode gets one inner and one outer star and one fit.
    """
    config, result, _ = heat_run
    calls = Counter()
    from_points = StarSetApprox.from_points.__func__
    fit_affine = ck.identification.fit_affine

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(StarSetApprox, "from_points",
                        classmethod(counted("from_points", from_points)))
    monkeypatch.setattr(ck.identification, "fit_affine", counted("fit_affine", fit_affine))
    again = ck.run_experiment(config, out_dir=str(tmp_path))
    n_modes = len(again.reconstruction.modes)
    assert n_modes == len(result.reconstruction.modes) > 0
    assert calls == Counter(from_points=2 * n_modes, fit_affine=n_modes)


def name_uses(tree, names) -> list:
    """``(name, enclosing function)`` of each name or attribute in ``names`` that the code uses."""
    uses = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        used = getattr(node, "attr", getattr(node, "id", None))
        if isinstance(node, (ast.Name, ast.Attribute)) and used in names:
            uses.append((used, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return uses


def test_only_reconstruction_from_clusters_builds_modes():
    # the batch build, the stream's snapshot and the reader all build their
    # modes through reconstruction_from_clusters, and only the mode builder
    # makes star sets
    package = Path(__file__).resolve().parents[1] / "src" / "cdmkit"
    uses = {(path.name, name, func)
            for path in sorted(package.glob("*.py"))
            for name, func in name_uses(ast.parse(path.read_text()),
                                        {"_mode_from_cluster", "from_points"})}
    assert uses == {("identification.py", "_mode_from_cluster", "reconstruction_from_clusters"),
                    ("identification.py", "from_points", "_mode_from_cluster")}


# ---------------------------------------------------------------------------
# Forced-merge events


def test_forced_merges_logged_like_batch(heat_run, caplog):
    config, _, _ = heat_run
    ident = config.identification
    pairs = heat_pairs(heat_run)

    def events():
        out = [(r.height, r.delta) for r in caplog.records
               if getattr(r, "event", None) == "forced_merge"]
        caplog.clear()
        return out

    caplog.set_level(logging.INFO, logger="cdmkit.identification")
    rec = Reconstructor(ident)
    logged, unaffected, repeats = [], 0, 0
    for k, pair in enumerate(pairs, start=1):
        before = rec._linkage.forced
        rec.push(*pair)
        snapshot = rec.snapshot()
        step = events()
        build_reconstruction_from_pairs(pairs[:k], ident)
        batch = events()
        if len(snapshot.unaffected) == unaffected:  # affected: the partition was re-cut
            # the cut forces the batch's merges, and logs those the last cut did not force
            forced = rec._linkage.forced
            assert [(height, ident.delta) for height, _, _ in forced] == batch
            assert step == [(h, ident.delta) for h, _, _ in new_forced(rec, before)]
            repeats += bool(batch) and not step
        else:
            assert not step
        unaffected = len(snapshot.unaffected)
        logged += step
    assert logged, "the bundled stream force-merges fragments"
    assert repeats, "the bundled stream repeats a cut's forced merges"
    assert all(height >= ident.delta and delta == ident.delta for height, delta in logged)


def test_a_forced_merge_is_logged_once():
    # graph points 2 * sqrt(2) apart on a line, delta 1, one mode: each push
    # forces one new merge and keeps the earlier ones, so it logs one record
    rec = Reconstructor(IdentificationConfig(delta=1.0, n_modes=1))
    with forced_merges() as heights:
        for i in range(10):
            rec.push([2.0 * i], [2.0 * i + 0.5])
    assert heights == [heights[0]] * 9 and heights[0] == pytest.approx(2.0 * math.sqrt(2.0))


def new_forced(rec, before):
    """The forced edges of the last cut not among ``before``, the cut's before it.

    ``before``'s edges are renamed as ``add`` renames the tree's: a name is a
    component's first point, and its point's label is its component's name now.
    """
    labels = rec._linkage.labels
    last = {(h, int(labels[a]), int(labels[b])) for h, a, b in before}
    return [edge for edge in rec._linkage.forced if edge not in last]


def test_logging_leaves_artifacts_unchanged(heat_run, tmp_path, caplog):
    config, result, _ = heat_run
    caplog.set_level(logging.DEBUG, logger="cdmkit")
    again = ck.run_experiment(config, out_dir=str(tmp_path))
    for name in ("samples", "reconstruction", "convergence"):
        with open(result.artifacts[name], "rb") as a, open(again.artifacts[name], "rb") as b:
            assert a.read() == b.read()


# ---------------------------------------------------------------------------
# Fast paths against the loops they replace


def reference_cut(points, delta, n_modes):
    """SciPy's single-linkage tree and the cut that merges below delta, then down to n_modes."""
    tree = linkage(points, method="single")
    heights = tree[:, 2]
    cut = np.nextafter(delta, 0.0)
    k = points.shape[0]
    if k - int(np.sum(heights <= cut)) > n_modes:
        cut = max(cut, float(np.sort(heights, kind="stable")[k - n_modes - 1]))
    return tree, cut


def reference_forced_heights(points, delta, n_modes):
    """The tree's merge heights in (delta's cut, forced cut], ascending."""
    if points.shape[0] < 2:
        return []
    tree, cut = reference_cut(points, delta, n_modes)
    heights = np.sort(tree[:, 2])
    return heights[(heights > np.nextafter(delta, 0.0)) & (heights <= cut)].tolist()


def reference_labels(points, delta, n_modes):
    """The former clustering: scipy linkage cut by fcluster."""
    if points.shape[0] < 2:
        return [[0]]
    tree, cut = reference_cut(points, delta, n_modes)
    labels = fcluster(tree, t=cut, criterion="distance")
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, []).append(i)
    return list(groups.values())


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 3),
       st.sampled_from([0.0, 0.5]), st.integers(1, 5))
def test_clusters_match_linkage_and_fcluster(seed, k, d, grid, n_modes):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-3, 3, (k, 2 * d))
    if grid:
        pts = np.round(pts / grid) * grid
    with forced_merges() as heights:
        clusters = cluster_pairs(pts, delta=1.0, n_modes=n_modes)
    assert heights == reference_forced_heights(pts, 1.0, n_modes)
    expected = reference_labels(pts, 1.0, n_modes)
    assert len(clusters) == len(expected)
    for cluster, members in zip(clusters, expected):
        np.testing.assert_array_equal(cluster, pts[members])  # same rows, same order


class ForcedMerges(logging.Handler):
    """Collects the heights of the forced merges ``cdmkit.identification`` logs."""

    def __init__(self):
        super().__init__()
        self.heights = []

    def emit(self, record):
        if getattr(record, "event", None) == "forced_merge":
            self.heights.append(record.height)


@contextlib.contextmanager
def forced_merges():
    logger = logging.getLogger("cdmkit.identification")
    handler, level = ForcedMerges(), logger.level
    logger.setLevel(logging.INFO)
    logger.addHandler(handler)
    try:
        yield handler.heights
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 3),
       st.sampled_from([0.0, 0.5]), st.integers(1, 5))
def test_stream_clusters_match_linkage_after_every_push(seed, k, d, grid, n_modes):
    """After every push the clusters are SciPy's single linkage at the same cut.

    Each cluster holds the same rows in the same order, and the push
    forces one merge for each merge height of SciPy's tree above delta's
    cut and at or below the forced cut, in ascending order; it logs those
    the previous push did not force.  The stream's
    tree spans its threshold components with the heights of SciPy's merges
    above delta's cut.
    """
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-3, 3, (k, 2 * d))
    if grid:
        pts = np.round(pts / grid) * grid  # tied distances
    pts = pts[(pts[:, :d] != pts[:, d:]).any(axis=1)]  # affected pairs only
    rec = Reconstructor(IdentificationConfig(delta=1.0, n_modes=n_modes))
    with quiet(), forced_merges() as heights:
        for n in range(1, len(pts) + 1):
            heights.clear()
            before = rec._linkage.forced
            rec.push(pts[n - 1, :d], pts[n - 1, d:])
            prefix = pts[:n]
            forced = rec._linkage.forced
            assert [h for h, _, _ in forced] == reference_forced_heights(prefix, 1.0, n_modes)
            assert heights == [h for h, _, _ in new_forced(rec, before)]
            tree = rec._linkage.tree
            assert len(tree) == len(rec._linkage.firsts) - 1
            merges = np.sort(linkage(prefix, method="single")[:, 2]) if n > 1 else np.empty(0)
            assert sorted(h for h, _, _ in tree) == merges[merges > np.nextafter(1.0, 0.0)].tolist()
            tables = [mode.pairs for mode in rec.snapshot().modes]
            expected = reference_labels(prefix, 1.0, n_modes)
            assert len(tables) == len(expected)
            for table, members in zip(tables, expected):
                np.testing.assert_array_equal(table, prefix[members])  # same rows, same order


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(1, 3),
       st.sampled_from([0.0, 0.5]), st.integers(1, 5))
def test_stream_and_batch_cluster_tables_agree_bit_for_bit_and_are_c_ordered(
        seed, k, d, grid, n_modes):
    # the linkage keeps its points column by column; the tables it hands out are row-major
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-3, 3, (k, 2 * d))
    if grid:
        pts = np.round(pts / grid) * grid
    pts = pts[(pts[:, :d] != pts[:, d:]).any(axis=1)]
    if not len(pts):
        return
    rec = Reconstructor(IdentificationConfig(delta=1.0, n_modes=n_modes))
    with quiet():
        for point in pts:
            rec.push(point[:d], point[d:])
    stream = [rows.pairs for rows in rec._linkage.clusters.values()]
    batch = cluster_pairs(pts, delta=1.0, n_modes=n_modes)
    assert len(stream) == len(batch)
    for a, b in zip(stream, batch):
        assert a.flags.c_contiguous and b.flags.c_contiguous
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_snapshots_stay_unchanged_as_their_clusters_grow_and_merge():
    """A snapshot's pair tables and residuals stay bit for bit as taken.

    One cluster grows from 3 to 20 rows, past several doublings of its
    table, a second cluster starts, and a bridge of two pairs then merges
    the two; the merged cluster grows on.
    """
    rec = Reconstructor(IdentificationConfig(delta=1.0, n_modes=3))
    taken = []

    def bits(snapshot):
        return [(m.pairs.tobytes(), m.residuals.tobytes()) for m in snapshot.modes]

    def push(u):
        # graph points (u, 2u + 1): inputs 0.1 apart are 0.1 * sqrt(5) apart
        rec.push([u], [2.0 * u + 1.0])
        for snapshot, before in taken:
            assert bits(snapshot) == before
            for mode in snapshot.modes:
                assert not mode.pairs.flags.writeable and not mode.residuals.flags.writeable

    def take():
        snapshot = rec.snapshot()
        taken.append((snapshot, bits(snapshot)))
        return [len(m.pairs) for m in snapshot.modes]

    for i in range(3):
        push(0.1 * i)
    assert take() == [3]
    for i in range(3, 20):
        push(0.1 * i)
        take()
    for u in (3.0, 3.1):  # 1.1 * sqrt(5) from the first cluster
        push(u)
    assert take() == [20, 2]
    push(2.3)  # joins the first cluster
    assert take() == [21, 2]
    push(2.65)  # near both: merges them
    assert take() == [24]
    push(2.7)
    assert take() == [25]
    (mode,) = taken[-1][0].modes
    expected = [0.1 * i for i in range(20)] + [3.0, 3.1, 2.3, 2.65, 2.7]  # in push order
    np.testing.assert_array_equal(mode.pairs[:, 0], expected)


def reference_picks(inputs, m):
    """The greedy basis selection as a loop, one SVD per candidate."""
    chosen = []
    for _ in range(m):
        best_idx, best_sv = -1, -1.0
        for i in range(inputs.shape[0]):
            if i in chosen:
                continue
            sv = np.linalg.svd(inputs[chosen + [i]], compute_uv=False)
            if sv[-1] > best_sv:
                best_idx, best_sv = i, float(sv[-1])
        chosen.append(best_idx)
    return chosen


def reference_rank(inputs, m):
    """The fold from scratch: modified Gram–Schmidt over the inputs in order, a
    remainder kept when its ``hypot`` norm is above ``RANK_TOL`` times the largest
    input norm, stopped at ``m`` directions."""
    rows = inputs.tolist()
    cut = RANK_TOL * max(math.hypot(*u) for u in rows)
    kept = []
    for u in rows:
        if len(kept) == m:
            break
        for q in kept:
            c = sum([x * y for x, y in zip(u, q)])
            u = [x - c * y for x, y in zip(u, q)]
        norm = math.hypot(*u)
        if norm > cut:
            kept.append([x / norm for x in u])
    return len(kept)


def svd_identified(inputs, m):
    """The singular-value rank rule the fold replaced: the greedy picks' smallest
    over largest singular value above ``RANK_TOL``, and a pair beyond them."""
    if len(inputs) <= m:
        return False
    sv = np.linalg.svd(inputs[reference_picks(inputs, m)], compute_uv=False)
    return bool(sv[0] > 0.0 and sv[-1] > RANK_TOL * sv[0])


def assert_rows_decide_as_from_scratch(inputs):
    """Rows pushed one at a time into ``_Rows`` decide at every prefix as the fold
    from scratch on that prefix; returns the decision after each push."""
    k, m = inputs.shape
    rows = _Rows(np.empty((0, 2 * m)))
    decisions = []
    for cut in range(1, k + 1):
        rows.append(np.concatenate([inputs[cut - 1], inputs[cut - 1]]))
        decisions.append(rows.identified)
        assert decisions[-1] == (reference_rank(inputs[:cut], m) == m and cut > m)
    return decisions


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 24),
       st.sampled_from(["plain", "grid", "near-degenerate", "one row scaled"]))
def test_generated_inputs_decide_as_the_fold_from_scratch(seed, m, k, kind):
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(-2, 2, (k, m))
    if kind == "grid":
        inputs = np.round(inputs)  # repeats and ties
    elif kind == "near-degenerate":  # rank below m, up to a small perturbation
        rank = int(rng.integers(0, m))
        inputs = inputs[:, :rank] @ rng.uniform(-2, 2, (rank, m))
        inputs += rng.normal(0.0, 10.0 ** rng.uniform(-13, -7), (k, m))
    elif kind == "one row scaled":
        inputs[rng.integers(k)] *= 1e10
    assert_rows_decide_as_from_scratch(inputs)


@pytest.mark.parametrize("inputs, identified", [
    ([[1.0, 0.0], [0.0, 2e-10], [0.5, 0.0]], False),  # remainder 2e-10 against the cut 1e-9
    ([[1.0, 0.0], [0.0, 5e-10], [1.0, 0.0]], False),
    ([[1.0, 0.0], [0.0, 1e-9], [0.5, 0.0]], False),  # remainder at the cut itself
    ([[1.0, 0.0], [0.0, 2e-9], [0.5, 0.0]], True),
    # the one (1e10, 0) sets the cut at 10, above every (0, 1): unidentified
    # after each push, whatever rows follow
    ([[1e10, 0.0]] + [[0.0, 1.0]] * 1000, False),
])
def test_rank_decision_cuts_at_rank_tol(inputs, identified):
    inputs = np.array(inputs)
    assert (reference_rank(inputs, 2) == 2) == identified == svd_identified(inputs, 2)
    decisions = assert_rows_decide_as_from_scratch(inputs)
    assert decisions == [False] * (len(inputs) - 1) + [identified]


@pytest.mark.parametrize("inputs, identified, by_svd", [
    # the second input's remainder 1.5e-9 is above the cut 1e-9, where the
    # picks' singular-value ratio is 7.5e-10: the rules disagree
    ([[1.0, 0.0], [1.0, 1.5e-9], [0.5, 0.0]], True, False),
    ([[1.0, 0.0], [1.0, 3e-9], [0.5, 0.0]], True, True),
    ([[1.0, 0.0], [1.0, 9e-10], [0.5, 0.0]], False, False),
    # remainders 1.8e-9 against the first input, below the cut 2e-9 of the
    # largest norm 2, where the picks (2, 1.8e-9) and (1, -1.8e-9) have the
    # ratio 1.08e-9: the rules disagree the other way
    ([[1.0, 0.0], [2.0, 1.8e-9], [1.0, -1.8e-9]], False, True),
])
def test_near_parallel_inputs_decide_by_the_fold(inputs, identified, by_svd):
    inputs = np.array(inputs)
    assert assert_rows_decide_as_from_scratch(inputs)[-1] == identified
    assert svd_identified(inputs, 2) == by_svd
    pairs = np.hstack([inputs, inputs])
    if identified:
        fit_affine(pairs)
    else:
        with pytest.raises(IdentificationError, match="lacks linearly independent"):
            fit_affine(pairs)


def test_a_scale_jump_refolds_from_the_first_row():
    rows = _Rows(np.empty((0, 4)))
    ranks = []
    for u in ([1e-5, 0.0], [0.0, 1e-5], [1e10, 0.0], [0.0, 1.0], [0.0, 100.0]):
        rows.append(np.array(u + u))
        ranks.append((rows.rank, rows.identified))
    # two directions at the scale 1e-5; the cut 10 of the scale 1e10 rejects
    # both on a refold, and (0, 1) too; (0, 100) is above it
    assert ranks == [(1, False), (2, False), (1, False), (1, False), (2, True)]
    assert_rows_decide_as_from_scratch(np.array([[1e-5, 0.0], [0.0, 1e-5], [1e10, 0.0],
                                                 [0.0, 1.0], [0.0, 100.0]]))


@pytest.mark.parametrize("inputs, decisions", [
    ([[0.0], [0.0], [2.0], [1e-12]], [False, False, True, True]),  # a zero keeps nothing
    ([[1e-12], [1.0]], [False, True]),  # 1.0 raises the cut above 1e-12: a refold keeps 1.0
    # (1, 1, 1e-10) is rejected, (0, 0, 2e-9) kept at the scale sqrt(2); (0, 0, 5)
    # raises the cut above it, and the refold keeps (0, 0, 5) instead
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1e-10], [0.0, 0.0, 2e-9], [0.0, 0.0, 5.0]],
     [False, False, False, True, True]),
], ids=["m=1", "m=1 refold", "m=3"])
def test_one_and_three_inputs_decide_by_the_fold(inputs, decisions):
    assert assert_rows_decide_as_from_scratch(np.array(inputs)) == decisions


@pytest.mark.parametrize("scale", [1e-170, 1e-150, 1e-140, 1e140])
def test_tiny_and_huge_inputs_pick_as_from_scratch(scale):
    # at 1e-170 every square underflows to 0, so a sum-of-squares norm would
    # keep no direction; hypot keeps the two of the unscaled inputs
    inputs = np.array([[1.0, 0.0], [0.0, 0.5], [2.0, 0.0], [1.9, 1.2], [0.1, 1.0]]) * scale
    assert assert_rows_decide_as_from_scratch(inputs) == [False, False, True, True, True]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kind", ["probe", "gaussian", "near-parallel", "3-d", "tiny"])
def test_random_streams_pick_as_from_scratch(seed, kind):
    # after every push the decision is the fold's from scratch on the rows so far
    rng = np.random.default_rng(seed)
    k = 80
    if kind == "probe":  # the heat stream's inputs (1, s)
        inputs = np.column_stack([np.ones(k), rng.uniform(0.0, 1.0, k)])
    elif kind == "near-parallel":  # similar norms and directions
        inputs = np.array([1.0, 0.3]) + rng.normal(0.0, 1e-3, (k, 2))
    elif kind == "3-d":
        inputs = rng.normal(size=(k, 3)) * rng.uniform(0.5, 1.0, (k, 1))
    else:
        inputs = rng.normal(size=(k, 2)) * (1e-170 if kind == "tiny" else 1.0)
    assert_rows_decide_as_from_scratch(inputs)



@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kind", ["probe", "near-parallel", "rank one"])
def test_fit_affine_decides_as_the_stream(seed, kind):
    # fit_affine fits a prefix exactly when the stream's fold identifies it,
    # so a snapshot identifies the modes modes_identified counts
    rng = np.random.default_rng(seed)
    k = 30
    if kind == "probe":
        inputs = np.column_stack([np.ones(k), rng.uniform(0.0, 1.0, k)])
    elif kind == "near-parallel":  # remainders about the cut
        inputs = np.column_stack([np.ones(k), rng.normal(0.0, 1e-9, k)])
    else:  # rank one, up to a part far below the cut
        inputs = np.outer(rng.uniform(0.5, 2.0, k), [0.6, 0.8]) + rng.normal(0.0, 1e-13, (k, 2))
    decisions = assert_rows_decide_as_from_scratch(inputs)
    for cut, identified in enumerate(decisions, start=1):
        pairs = np.hstack([inputs[:cut], 2.0 * inputs[:cut]])
        if identified:
            fit_affine(pairs)
        else:
            with pytest.raises(IdentificationError):
                fit_affine(pairs)

def reference_dedup(directions, radii, side):
    """The former greedy de-duplication over all directions."""
    keep_dirs, keep_radii = [], []
    for l, r in zip(directions, radii):
        for i, lk in enumerate(keep_dirs):
            if np.linalg.norm(l - lk) <= DIRECTION_DEDUP_TOL:
                keep_radii[i] = max(keep_radii[i], r) if side is Side.INNER \
                    else min(keep_radii[i], r)
                break
        else:
            keep_dirs.append(l)
            keep_radii.append(r)
    return np.array(keep_dirs), np.array(keep_radii)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 30),
       st.sampled_from(list(Side)), st.sampled_from([0, 1, 2]))
def test_dedup_matches_greedy_loop(seed, d, k, side, pattern):
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(k, d))
    if pattern == 1:  # exact repeats
        dirs = dirs[rng.integers(0, max(1, k // 3), k)]
    elif pattern == 2:  # near repeats inside and just outside the tolerance
        dirs = dirs[rng.integers(0, max(1, k // 3), k)]
        dirs += rng.choice([0.0, 0.3, 3.0], (k, 1)) * DIRECTION_DEDUP_TOL * rng.normal(size=(k, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.uniform(0, 2, k)
    got_dirs, got_radii = _dedup_samples(dirs, radii, side, 0.0)
    want_dirs, want_radii = reference_dedup(dirs, radii, side)
    np.testing.assert_array_equal(got_dirs, want_dirs)
    np.testing.assert_array_equal(got_radii, want_radii)


def single_pass_dedup(directions, radii, side):
    """``_dedup_samples`` as it was before runs: one greedy pass over every distinct direction."""
    if directions.shape[0] < 2:
        return directions.copy(), radii.copy()
    fold = np.maximum if side is Side.INNER else np.minimum
    order = np.lexsort(directions.T[::-1])
    ordered = directions[order]
    starts = np.flatnonzero(np.concatenate(([True], (ordered[1:] != ordered[:-1]).any(axis=1))))
    first = order[starts]
    by_first = np.argsort(first)
    distinct = directions[first[by_first]]
    distinct_radii = fold.reduceat(radii[order], starts)[by_first]
    if distinct.shape[0] < 2:
        return distinct, distinct_radii
    spread = np.diff(np.sort(distinct @ _generic_axis(distinct.shape[1])))
    if (spread > 2.0 * DIRECTION_DEDUP_TOL).all():
        return distinct, distinct_radii
    kept = []
    leader = np.empty(distinct.shape[0], dtype=int)
    for i, l in enumerate(distinct):
        for j, lead in enumerate(kept):
            if np.linalg.norm(l - distinct[lead]) <= DIRECTION_DEDUP_TOL:
                leader[i] = j
                break
        else:
            leader[i] = len(kept)
            kept.append(i)
    kept_radii = np.full(len(kept), -np.inf if side is Side.INNER else np.inf)
    fold.at(kept_radii, leader, distinct_radii)
    return distinct[kept], kept_radii


def dedup_corpus(rng, cases):
    """Seeded witness sets: separated, repeated, near-repeated and chained directions."""
    for case in range(cases):
        d, k = int(rng.integers(1, 4)), int(rng.integers(1, 61))
        dirs = rng.normal(size=(k, d))
        pattern = case % 4
        if pattern == 1:  # exact repeats
            dirs = dirs[rng.integers(0, max(1, k // 3), k)]
        elif pattern == 2:  # near repeats well within the tolerance
            dirs = dirs[rng.integers(0, max(1, k // 3), k)]
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            dirs += 3e-11 * rng.normal(size=(k, d))
        elif pattern == 3:  # chains with links 0.3 to 1.2 tolerances long, in any order
            steps = rng.normal(size=(k, d))
            steps *= rng.uniform(0.3, 1.2, (k, 1)) * DIRECTION_DEDUP_TOL \
                / np.linalg.norm(steps, axis=1, keepdims=True)
            steps[0] = dirs[0] / np.linalg.norm(dirs[0])
            dirs = np.cumsum(steps, axis=0)[rng.permutation(k)]
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = rng.uniform(0.0, 2.0, k)
        radii[rng.random(k) < 0.1] = 0.0
        radii[rng.random(k) < 0.1] = -0.0
        yield dirs, radii


def test_dedup_matches_the_single_pass_bit_for_bit():
    rng = np.random.default_rng(35)
    folded = 0
    for dirs, radii in dedup_corpus(rng, 600):
        for side in Side:
            got = _dedup_samples(dirs, radii, side, 0.0)
            want = single_pass_dedup(dirs, radii, side)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
            folded += len(got[1]) < len(np.unique(dirs, axis=0))
    assert folded > 300  # near repeats folded in most sets that have them


def test_exact_repeats_fold_at_no_cost():
    # a repeat does not move, so at any Lipschitz constant it folds as at 0, -0.0 included
    rng = np.random.default_rng(37)
    for case, (dirs, radii) in enumerate(dedup_corpus(rng, 200)):
        if case % 4 > 1:  # near repeats and chains move
            continue
        for side in Side:
            got = _dedup_samples(dirs, radii, side, 2.5)
            want = _dedup_samples(dirs, radii, side, 0.0)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_one_near_pair_among_many_directions_stays_fast():
    # the greedy pass runs only over the near pair, not over all 1,601 directions
    rng = np.random.default_rng(36)
    angles = np.append(rng.uniform(0.0, 2.0 * np.pi, 1600), 0.0)
    angles[-1] = angles[0] + 1e-13
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    start = time.perf_counter()
    star = StarSetApprox(np.zeros(2), 1.0, dirs, np.ones(1601), Side.INNER)
    elapsed = time.perf_counter() - start
    assert star.n_samples == 1600
    assert elapsed < 0.5
