"""The incremental Reconstructor against the batch reference build.

Every snapshot of a stream must serialize exactly like
``build_reconstruction_from_pairs`` on the same prefix, and an add must
leave untouched what its pair does not change.  The fast paths behind it
(pointer-representation clustering, batched basis selection, grouped
direction de-duplication) are checked against the loops they replace.
"""

import contextlib
import logging
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


def assert_stream_matches_batch(pairs, config):
    """Every snapshot equals the batch build of its prefix, errors included."""
    rec = Reconstructor(config)
    for k, pair in enumerate(pairs, start=1):
        try:
            expected = build_reconstruction_from_pairs(pairs[:k], config)
        except IdentificationError as exc:
            with pytest.raises(IdentificationError) as err:
                rec.add(pair)
            assert str(err.value) == str(exc) and err.value.detail == exc.detail
            continue
        assert_same(rec.add(pair), expected)


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
        assert_stream_matches_batch(pairs, cfg)


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
        assert_stream_matches_batch(pairs, config)


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
    assert_stream_matches_batch(pairs, config)
    stream = ck.stream_reconstructions(
        [ck.ControlSample(time=0.0, state=np.zeros(1), velocity=np.array(p.effective),
                          input=p.input) for p in pairs],
        ck.linear_system([[0.0]], [[1.0]]), config)
    for _ in range(2):
        next(stream)
    with pytest.raises(IdentificationError, match="3 clusters remain"):
        next(stream)


def test_strict_stream_names_the_batch_pair():
    # the offending pair lies across clusters, in the stream as in the batch
    pairs = [EffectivePair([u], [u + 10.0]) for u in (0.0, 0.3, 0.6, 5.0)]
    config = IdentificationConfig(delta=0.5, n_modes=1, force_merge=False)
    assert_stream_matches_batch(pairs, config)
    rec = Reconstructor(config)
    for pair in pairs[:3]:
        rec.add(pair)
    with pytest.raises(IdentificationError) as err:
        rec.add(pairs[3])
    assert err.value.detail == (2, 3)


# ---------------------------------------------------------------------------
# Structural incrementality


def test_adds_rebuild_only_what_changed(heat_run):
    config, _, _ = heat_run
    rec = Reconstructor(config.identification)
    previous = None
    unaffected_steps = affected_reused = 0
    for pair in heat_pairs(heat_run):
        snapshot = rec.add(pair)
        if previous is not None:
            if len(snapshot.unaffected) > len(previous.unaffected):
                unaffected_steps += 1
                assert len(snapshot.modes) == len(previous.modes)
                for new, old in zip(snapshot.modes, previous.modes):
                    assert new.map is old.map and new.inner is old.inner
                    assert new.pairs is old.pairs and new.residuals is old.residuals
                    assert new.outer.n_samples >= old.outer.n_samples
            else:
                for new in snapshot.modes:
                    same = [old for old in previous.modes
                            if np.array_equal(old.pairs, new.pairs)]
                    if same:
                        assert new is same[0]  # membership unchanged: not rebuilt
                        affected_reused += 1
        previous = snapshot
    assert unaffected_steps > 0 and affected_reused > 0


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


def test_with_witness_equals_rebuild():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(25, 2))
    pts[10:15] = pts[0]  # repeats fold into one direction
    center = np.array([0.1, -0.2])
    grown = StarSetApprox.from_points(pts[:1], center, 1.0, Side.OUTER)
    for p in pts[1:]:
        grown = grown.with_witness(p)
    whole = StarSetApprox.from_points(pts, center, 1.0, Side.OUTER)
    np.testing.assert_array_equal(grown.directions, whole.directions)
    np.testing.assert_array_equal(grown.radii, whole.radii)
