"""The incremental Reconstructor against the batch reference build.

Every snapshot of a stream, whichever steps it is taken at, must
serialize exactly like ``build_reconstruction_from_pairs`` on the same
prefix, and must leave untouched what the pairs pushed since the last
snapshot do not change.  The fast paths behind it
(pointer-representation clustering, batched basis selection, grouped
direction de-duplication) are checked against the loops they replace.
"""

import contextlib
import logging
from collections import Counter
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
    mgf_inner_bound,
    mgf_outer_bound,
)
from cdmkit.identification import (
    EffectivePair,
    IdentificationConfig,
    Reconstructor,
    _select_basis,
    build_reconstruction_from_pairs,
    cluster_pairs,
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

    ``modes_identified`` is compared at every step.  A failed push must
    raise the batch's error, and so must the snapshot taken after it.
    """
    rec = Reconstructor(config)
    for k, pair in enumerate(pairs, start=1):
        try:
            expected = build_reconstruction_from_pairs(pairs[:k], config)
        except IdentificationError as exc:
            for attempt in (lambda: rec.push(pair), rec.snapshot):
                with pytest.raises(IdentificationError) as err:
                    attempt()
                assert str(err.value) == str(exc) and err.value.detail == exc.detail
            continue
        rec.push(pair)
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
    return [EffectivePair(s.input, recover_effective_input(s, model)) for s in result.samples]


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
        pairs = [EffectivePair(s.input, recover_effective_input(s, model)) for s in samples]
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
            pairs.append(EffectivePair(u, u.copy()))  # unaffected
            continue
        k = int(rng.integers(n_true))
        u = centers[k] + rng.uniform(-spread, spread, m)
        if grid:
            u = np.round(u / grid) * grid
        P, p = maps[k]
        pairs.append(EffectivePair(u, P @ u + p))
    config = IdentificationConfig(
        delta=1.0,
        n_modes=draw(st.integers(1, 4)),
        lipschitz=draw(st.sampled_from([0.5, 4.0])),
        force_merge=draw(st.booleans()),
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
    pairs = [EffectivePair(s.input, recover_effective_input(s, model)) for s in samples]
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
            snapshot = rec.add(pairs[i])
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


def test_strict_stream_raises_at_the_batch_step():
    # three fragments at delta 0.1 with a budget of two: the third pair fails
    pairs = [EffectivePair([x], [x + 5.0]) for x in (0.0, 1.0, 2.5, 1.7)]
    config = IdentificationConfig(delta=0.1, n_modes=2, force_merge=False)
    assert_snapshots_match_batch(pairs, config)
    stream = ck.stream_reconstructions(
        [ck.ControlSample(time=0.0, state=np.zeros(1), velocity=np.array(p.effective),
                          input=p.input) for p in pairs],
        ck.linear_system([[0.0]], [[1.0]]), config)
    for _ in range(2):
        next(stream)
    with pytest.raises(IdentificationError, match="3 clusters remain"):
        next(stream)


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


def test_strict_stream_names_the_batch_pair():
    # the offending pair lies across clusters, in the stream as in the batch
    pairs = [EffectivePair([u], [u + 10.0]) for u in (0.0, 0.3, 0.6, 5.0)]
    config = IdentificationConfig(delta=0.5, n_modes=1, force_merge=False)
    assert_snapshots_match_batch(pairs, config)
    rec = Reconstructor(config)
    for pair in pairs[:3]:
        rec.add(pair)
    with pytest.raises(IdentificationError) as err:
        rec.add(pairs[3])
    assert err.value.detail == (2, 3)


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


def test_bundled_sparse_snapshots_reuse_residuals_and_fold_witnesses(heat_run, monkeypatch):
    """Snapshots every few pushes of the bundled stream match the batch build.

    Between two snapshots a kept mode folds in every unaffected pair pushed
    since, one ``with_witness`` each, and a grown cluster whose map is
    unchanged scores only the pairs beyond the last built prefix.
    """
    config, _, _ = heat_run
    ident = config.identification
    pairs = heat_pairs(heat_run)
    for seed in range(3):
        assert_snapshots_match_batch(pairs, ident, snapshot_steps(len(pairs), seed))
    scored, folds = [], []
    fit_residuals, with_witness = ck.identification.fit_residuals, StarSetApprox.with_witness

    def counted_fit_residuals(affine, table):
        scored.append(len(table))
        return fit_residuals(affine, table)

    def counted_with_witness(self, point):
        folds.append(point)
        return with_witness(self, point)

    monkeypatch.setattr(ck.identification, "fit_residuals", counted_fit_residuals)
    monkeypatch.setattr(StarSetApprox, "with_witness", counted_with_witness)
    rec = Reconstructor(ident)
    multi_fold = partial_rescore = False
    previous = None
    for k, pair in enumerate(pairs, start=1):
        rec.push(pair)
        if k % 9:
            continue
        folds.clear()
        scored.clear()
        snapshot = rec.snapshot()
        if previous is not None:
            old_tables = [m.pairs for m in previous.modes]
            kept = [any(m.pairs is t for t in old_tables) for m in snapshot.modes]
            new_unaffected = len(snapshot.unaffected) - len(previous.unaffected)
            assert len(folds) == sum(kept) * new_unaffected
            multi_fold |= new_unaffected > 1 and any(kept)
            built = [m for m, was_kept in zip(snapshot.modes, kept)
                     if not was_kept and m.identified]
            partial_rescore |= any(n < len(m.pairs) for n, m in zip(scored, built))
        previous = snapshot
    assert multi_fold and partial_rescore


def test_strict_snapshot_raises_until_a_push_recovers():
    # at delta 0.8 the first two pairs are two clusters for a budget of one;
    # the third lies within delta of both and joins them
    pairs = [EffectivePair([u], [u + 5.0]) for u in (0.0, 1.0, 0.5)]
    unaffected = EffectivePair([9.0], [9.0])
    config = IdentificationConfig(delta=0.8, n_modes=1, force_merge=False)
    rec = Reconstructor(config)
    rec.push(pairs[0])
    with pytest.raises(IdentificationError) as pushed:
        rec.push(pairs[1])
    for attempt in (rec.snapshot, lambda: rec.push(unaffected), rec.snapshot):
        with pytest.raises(IdentificationError) as err:
            attempt()
        assert str(err.value) == str(pushed.value) and err.value.detail == pushed.value.detail
    rec.push(pairs[2])
    assert rec.modes_identified == 1
    assert_same(rec.snapshot(), build_reconstruction_from_pairs(pairs[:2] + [unaffected, pairs[2]],
                                                                config))


# ---------------------------------------------------------------------------
# Structural incrementality


def test_adds_rebuild_only_what_changed(heat_run, monkeypatch):
    """Mode objects and star builds per step of the bundled stream.

    An unaffected step folds one outer witness into each mode and builds no
    star; a mode whose outer side did not change is the same object, and
    every other keeps its map, inner side, pairs and residuals.  An affected
    step keeps each mode whose members did not change and builds the inner
    and the outer star of each rebuilt cluster (only the inner one before
    the first unaffected pair).
    """
    config, _, _ = heat_run
    calls = Counter()
    from_points, with_witness = StarSetApprox.from_points.__func__, StarSetApprox.with_witness

    def counted_from_points(cls, *args):
        calls["from_points"] += 1
        return from_points(cls, *args)

    def counted_with_witness(self, point):
        calls["with_witness"] += 1
        return with_witness(self, point)

    monkeypatch.setattr(StarSetApprox, "from_points", classmethod(counted_from_points))
    monkeypatch.setattr(StarSetApprox, "with_witness", counted_with_witness)
    rec = Reconstructor(config.identification)
    modes, n_unaffected = (), 0
    unaffected_steps = kept = affected_reused = rebuilt_steps = 0
    for pair in heat_pairs(heat_run):
        calls.clear()
        snapshot = rec.add(pair)
        if len(snapshot.unaffected) > n_unaffected:
            unaffected_steps += 1
            assert calls == Counter(with_witness=len(modes))
            assert len(snapshot.modes) == len(modes)
            for new, old in zip(snapshot.modes, modes):
                assert (new is old) == (new.outer is old.outer)
                assert new.map is old.map and new.inner is old.inner
                assert new.pairs is old.pairs and new.residuals is old.residuals
                assert new.outer.n_samples >= old.outer.n_samples
                kept += new is old
        else:
            rebuilt = []
            for new in snapshot.modes:
                same = [old for old in modes if np.array_equal(old.pairs, new.pairs)]
                if same:
                    assert new is same[0]  # membership unchanged: not rebuilt
                    affected_reused += 1
                else:
                    rebuilt.append(new)
            assert calls == Counter(from_points=(2 if n_unaffected else 1) * len(rebuilt))
            rebuilt_steps += bool(rebuilt)
        modes, n_unaffected = snapshot.modes, len(snapshot.unaffected)
    assert min(unaffected_steps, kept, affected_reused, rebuilt_steps) > 0


def test_run_bounds_and_fits_each_final_mode_once(heat_run, tmp_path, monkeypatch):
    """A run pushes every observation and builds only its final reconstruction.

    Each final mode gets one inner and one outer star and one fit; no
    witness is folded into a mode, since no mode outlives a snapshot.
    """
    config, result, _ = heat_run
    calls = Counter()
    from_points, with_witness = StarSetApprox.from_points.__func__, StarSetApprox.with_witness
    fit_affine = ck.identification.fit_affine

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(StarSetApprox, "from_points",
                        classmethod(counted("from_points", from_points)))
    monkeypatch.setattr(StarSetApprox, "with_witness", counted("with_witness", with_witness))
    monkeypatch.setattr(ck.identification, "fit_affine", counted("fit_affine", fit_affine))
    again = ck.run_experiment(config, out_dir=str(tmp_path))
    n_modes = len(again.reconstruction.modes)
    assert n_modes == len(result.reconstruction.modes) > 0
    assert calls == Counter(from_points=2 * n_modes, fit_affine=n_modes)


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
    logged, unaffected = [], 0
    for k, pair in enumerate(pairs, start=1):
        snapshot = rec.add(pair)
        step = events()
        build_reconstruction_from_pairs(pairs[:k], ident)
        batch = events()
        if len(snapshot.unaffected) == unaffected:  # affected: the partition was re-cut
            assert step == batch
        else:
            assert not step
        unaffected = len(snapshot.unaffected)
        logged += step
    assert logged, "the bundled stream force-merges fragments"
    assert all(height >= ident.delta and delta == ident.delta for height, delta in logged)


def test_logging_leaves_artifacts_unchanged(heat_run, tmp_path, caplog):
    config, result, _ = heat_run
    caplog.set_level(logging.DEBUG, logger="cdmkit")
    again = ck.run_experiment(config, out_dir=str(tmp_path))
    for name in ("samples", "reconstruction", "convergence"):
        with open(result.artifacts[name], "rb") as a, open(again.artifacts[name], "rb") as b:
            assert a.read() == b.read()


# ---------------------------------------------------------------------------
# Fast paths against the loops they replace


def reference_labels(points, delta, n_modes):
    """The former clustering: scipy linkage cut by fcluster."""
    tree = linkage(points, method="single")
    heights = tree[:, 2]
    cut = np.nextafter(delta, 0.0)
    k = points.shape[0]
    if k - int(np.sum(heights <= cut)) > n_modes:
        cut = max(cut, float(np.sort(heights, kind="stable")[k - n_modes - 1]))
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
    clusters = cluster_pairs(pts, delta=1.0, n_modes=n_modes)
    expected = reference_labels(pts, 1.0, n_modes)
    assert len(clusters) == len(expected)
    for cluster, members in zip(clusters, expected):
        np.testing.assert_array_equal(cluster.pairs, pts[members])  # same rows, same order


def reference_basis(inputs, m):
    """The former greedy basis selection, one SVD per candidate."""
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
    sv = np.linalg.svd(inputs[chosen], compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= 1e-10 * sv[0]:
        return ()
    return tuple(chosen)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 12),
       st.sampled_from([0.0, 1.0]))
def test_select_basis_matches_greedy_loop(seed, m, k, grid):
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(-2, 2, (k, m))
    if grid:
        inputs = np.round(inputs / grid) * grid  # repeats and ties
    if k < m:
        assert _select_basis(inputs, m)[0] == ()
        return
    basis, _ = _select_basis(inputs, m)
    assert basis == reference_basis(inputs, m)
    # scoring only the rows beyond a prefix picks the same basis
    for cut in range(m, k):
        _, known = _select_basis(inputs[:cut], m)
        assert _select_basis(inputs, m, known)[0] == basis


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
    got_dirs, got_radii = _dedup_samples(dirs, radii, side)
    want_dirs, want_radii = reference_dedup(dirs, radii, side)
    np.testing.assert_array_equal(got_dirs, want_dirs)
    np.testing.assert_array_equal(got_radii, want_radii)


def star_bits(star):
    """A star's witnesses as exact text: shape, then every float by ``float.hex``."""
    return (star.directions.shape, [x.hex() for x in star.directions.ravel().tolist()],
            [x.hex() for x in star.radii.tolist()])


WITNESS_KINDS = ("fresh", "repeat", "ray", "gap", "center")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.sampled_from(list(Side)),
       st.lists(st.sampled_from(WITNESS_KINDS), min_size=1, max_size=25),
       st.sampled_from([1e-10, 2e-10]))
def test_with_witness_equals_rebuild(seed, d, side, kinds, gap):
    """Folding points one at a time gives ``from_points`` over all of them, bit for bit.

    Points repeat earlier ones exactly, lie on an earlier ray, sit a
    direction gap of about ``gap`` from an earlier direction (where the
    de-duplication tolerance decides), or are the center itself.
    """
    rng = np.random.default_rng(seed)
    center = rng.normal(size=d)
    points = []
    for kind in kinds:
        if not points or kind == "fresh":
            p = center + rng.normal(size=d) * rng.choice([1e-3, 1.0, 1e3])
        elif kind == "repeat":
            p = points[rng.integers(len(points))]
        elif kind == "ray":
            p = center + rng.uniform(0.1, 3.0) * (points[rng.integers(len(points))] - center)
        elif kind == "gap":
            offset = points[rng.integers(len(points))] - center
            if d == 1 or not offset.any():
                p = center - offset
            else:
                l = offset / np.linalg.norm(offset)
                e = rng.normal(size=d)
                e -= (e @ l) * l
                p = center + rng.uniform(0.5, 2.0) * (l + gap * e / np.linalg.norm(e))
        else:
            p = center.copy()
        points.append(p)
    star = StarSetApprox.from_points(points[:1], center, 1.0, side)
    for k in range(2, len(points) + 1):
        grown = star.with_witness(points[k - 1])
        whole = StarSetApprox.from_points(points[:k], center, 1.0, side)
        assert star_bits(grown) == star_bits(whole)
        # self exactly when the point changed nothing
        assert (grown is star) == (star_bits(star) == star_bits(whole))
        # the kept witnesses are what the checked constructor keeps
        rebuilt = StarSetApprox(grown.center, 1.0, grown.directions, grown.radii, side)
        assert star_bits(rebuilt) == star_bits(grown)
        star = grown


def test_with_witness_folds_at_exactly_the_tolerance():
    # (1, tol) has norm 1.0, so its gap to the kept (1, 0) is exactly tol
    for side in Side:
        star = StarSetApprox.from_points([[2.0, 0.0]], np.zeros(2), 1.0, side)
        for y, kept in ((DIRECTION_DEDUP_TOL, 1), (np.nextafter(DIRECTION_DEDUP_TOL, 1.0), 2)):
            grown = star.with_witness([1.0, y])
            whole = StarSetApprox.from_points([[2.0, 0.0], [1.0, y]], np.zeros(2), 1.0, side)
            assert grown.n_samples == kept and star_bits(grown) == star_bits(whole)
            # folded, the inner side keeps its larger radius; the outer side takes 1.0
            assert (grown is star) == (kept == 1 and side is Side.INNER)
