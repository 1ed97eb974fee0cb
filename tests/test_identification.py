"""Tests for effective-input recovery, clustering, fitting, and queries."""

import dataclasses
import math
import re
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmkit.degradation import AffineMap, BallRegion, NModeCdm
from cdmkit import identification
from cdmkit.errors import IdentificationError, PreconditionError, UnviableInputError
from cdmkit.geometry import Containment, Side, StarSetApprox, as_point_set, star_contains
from cdmkit.identification import (
    CdmReconstruction,
    IdentificationConfig,
    ModeReconstruction,
    QueryKind,
    Reconstructor,
    build_reconstruction,
    build_reconstruction_from_pairs,
    cluster_pairs,
    fit_affine,
    fit_residuals,
    lipschitz_error_bound,
    query,
    recover_effective_input,
    split_pairs,
    viabilize,
)
from cdmkit.serialization import read_reconstruction, write_reconstruction
from cdmkit.simulation import ControlSample, SystemModel, linear_system

from test_geometry import near, ref_inner_bound, ref_outer_bound, ref_star_contains
from trials import TRIAL_DELTA, TRIAL_LIPSCHITZ, in_region, make_trial, match_true_mode


def scalar_sample(xdot_minus_x, x=1.0, u=0.1):
    # observation of x' = x + 2u under some input degradation
    return ControlSample(time=0.0, state=np.array([x]),
                         velocity=np.array([x + xdot_minus_x]), input=np.array([u]))


class TestIdentificationConfig:
    @pytest.mark.parametrize("field, value", [
        ("delta", np.nan), ("delta", np.inf), ("delta", 0.0), ("delta", -1.0),
        ("lipschitz", np.nan), ("lipschitz", np.inf), ("lipschitz", 0.0),
        ("identity_tol", np.nan), ("identity_tol", np.inf), ("identity_tol", -1.0),
        ("n_modes", 0),
    ])
    def test_inadmissible_values_rejected(self, field, value):
        kwargs = dict(delta=0.4, n_modes=3, lipschitz=1.0, identity_tol=1e-7)
        with pytest.raises(ValueError):
            IdentificationConfig(**{**kwargs, field: value})

    def test_admissible_edge_values(self):
        IdentificationConfig(delta=1e-12, n_modes=1, lipschitz=1e-12, identity_tol=0.0)


@pytest.mark.parametrize("kwargs, message", [
    (dict(delta=np.complex128(1.0)), "delta must be finite and positive, got (1+0j)"),
    (dict(delta="1"), "delta must be finite and positive, got '1'"),
    (dict(lipschitz=[1.0, 2.0]), "lipschitz must be finite and positive, got [1.0, 2.0]"),
    (dict(identity_tol=1j), "identity_tol must be finite and non-negative, got 1j"),
    (dict(n_modes=True), "modes must be an integer of at least 1, got True"),
    (dict(n_modes=1.5), "modes must be an integer of at least 1, got 1.5"),
])
def test_config_takes_real_tunables_and_an_integer_mode_count(kwargs, message):
    # write_reconstruction would write a mode count of True or 1.5 as a line
    # that read_reconstruction rejects
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        IdentificationConfig(**{"delta": 0.4, "n_modes": 3, **kwargs})


def test_numpy_integer_mode_count_round_trips(tmp_path):
    pairs = [([1.0, 0.0], [2.0, 0.0]), ([0.0, 1.0], [0.0, 2.0])]
    config = IdentificationConfig(delta=0.1, n_modes=np.int64(2))
    write_reconstruction(tmp_path / "reconstruction.txt",
                         build_reconstruction_from_pairs(pairs, config))
    assert read_reconstruction(tmp_path / "reconstruction.txt").mode_count == 2


def test_recovery_takes_real_input_gains():
    # the input map's strings would parse
    model = SystemModel(dim_state=1, dim_input=1, drift=lambda x: np.zeros(1),
                        input_map=lambda x: [["2"]])
    with pytest.raises(ValueError, match=r"^input map must be real numbers, got dtype <U1$"):
        recover_effective_input(scalar_sample(0.2), model)


class TestRecoverEffectiveInput:
    def setup_method(self):
        self.model = linear_system([[1.0]], [[2.0]])

    def test_undegraded(self):
        s = scalar_sample(2.0 * 0.1, u=0.1)
        np.testing.assert_allclose(recover_effective_input(s, self.model), [0.1])

    def test_tripled_input(self):
        s = scalar_sample(6.0 * 0.1, u=0.1)
        np.testing.assert_allclose(recover_effective_input(s, self.model), [0.3])

    def test_zero_input_anchor(self):
        s = scalar_sample(0.0, u=0.0)
        np.testing.assert_allclose(recover_effective_input(s, self.model), [0.0])

    def test_rank_deficient_carries_rank(self):
        model = linear_system(np.zeros((2, 2)), [[1.0, 1.0], [1.0, 1.0]])
        s = ControlSample(time=0.0, state=np.zeros(2), velocity=np.ones(2),
                          input=np.zeros(2))
        with pytest.raises(PreconditionError) as err:
            recover_effective_input(s, model)
        assert err.value.rank == 1


def table(pairs):
    """The ``(k, 2m)`` pair table of ``(input, effective)`` tuples."""
    return np.array([np.concatenate([np.atleast_1d(u), np.atleast_1d(v)]) for u, v in pairs],
                    dtype=float)


class TestClusterPairs:
    def test_identical_pairs_merge(self):
        pairs = table([(0.1, 0.55)] * 4)
        assert len(cluster_pairs(pairs, delta=0.1, n_modes=3)) == 1

    def test_distant_pairs_split(self):
        # shallow- and deep-branch graph points sit ~0.81 apart
        pairs = table([(0.1, 0.55), (0.9, 0.7)])
        assert len(cluster_pairs(pairs, delta=0.1, n_modes=2)) == 2

    def test_close_pairs_merge(self):
        pairs = table([(0.1, 0.55), (0.11, 0.58)])
        assert len(cluster_pairs(pairs, delta=0.1, n_modes=2)) == 1

    def test_resulting_clusters_are_separated(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pts = rng.normal(size=(rng.integers(2, 15), 2))
            delta = float(rng.uniform(0.2, 2.0))
            clusters = cluster_pairs(pts, delta=delta, n_modes=len(pts))
            for i in range(len(clusters)):
                for j in range(i + 1, len(clusters)):
                    a, b = clusters[i], clusters[j]
                    gap = min(np.linalg.norm(x - y) for x in a for y in b)
                    assert gap >= delta - 1e-12

    def test_forced_merge_respects_budget(self):
        pairs = table([(0.0, 0.0), (1.0, 1.0), (2.5, 2.5)])
        clusters = cluster_pairs(pairs, delta=0.1, n_modes=2)
        assert len(clusters) == 2
        # the two closest fragments were the ones joined
        assert len(clusters[0]) == 2 and len(clusters[1]) == 1

    def test_forced_merge_with_tied_gaps_stays_within_budget(self):
        # equidistant fragments merge through a tie; never more than the budget
        pairs = table([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])
        clusters = cluster_pairs(pairs, delta=0.1, n_modes=2)
        assert len(clusters) <= 2

    def test_deterministic_given_order(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(10, 2))
        a = cluster_pairs(pts, delta=0.5, n_modes=5)
        b = cluster_pairs(pts, delta=0.5, n_modes=5)
        assert len(a) == len(b)
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca, cb)

    @pytest.mark.parametrize("bad", [1e200, -1e151, np.nan, np.inf])
    def test_table_out_of_range_rejected(self, bad):
        # rows beyond the pair range would overflow the distances and the forced cut
        pairs = np.array([[bad, -1e200], [-1e200, 1e200], [0.0, 5.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match=r"^pair table has a component that is "
                                                        r"not finite or beyond 1e\+150"):
                cluster_pairs(pairs, delta=0.5, n_modes=1)

    def test_batch_build_holds_no_distance_table(self):
        # each pair is measured against those before it as it is added, as
        # the stream measures it; a (k, k) table of 2,000 pairs is 32 MB
        pairs = np.random.default_rng(36).uniform(0.0, 1.0, size=(2000, 2))
        tracemalloc.start()
        try:
            (cluster,) = cluster_pairs(pairs, delta=10.0, n_modes=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(cluster, pairs)
        assert peak < 2e6


def cluster_of(pairs):
    return cluster_pairs(table(pairs), delta=1e9, n_modes=1)[0]


class TestFitLinear:
    """The linear part of ``fit_affine`` on full-rank anchor + basis clusters."""

    def fit(self, inputs, truth: AffineMap):
        return fit_affine(cluster_of([(u, truth(u)) for u in inputs]))

    def test_identity(self):
        # the anchor at the origin and the unit basis: differences are the identity
        q = self.fit([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], AffineMap(np.eye(2), np.zeros(2)))
        np.testing.assert_allclose(q.linear, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(q.translation, np.zeros(2), atol=1e-15)

    def test_identity_plus_delta(self):
        d = np.array([[0.1, -0.2], [0.3, 0.4]])
        truth = AffineMap(np.eye(2) + d, np.array([0.5, -0.25]))
        q = self.fit([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], truth)
        np.testing.assert_allclose(q.linear, np.eye(2) + d, atol=1e-14)
        np.testing.assert_allclose(q.translation, truth.translation, atol=1e-14)

    def test_round_trip_against_ground_truth(self):
        truth = AffineMap(np.diag([2.0, 3.0]), np.array([0.25, -1.0]))
        cluster = cluster_of([(u, truth(u))
                              for u in ([1.0, 1.0], [0.0, 1.0], [0.2, -0.3])])
        # the differences from the first pair span the plane: both directions are fitted
        assert np.linalg.matrix_rank(cluster[1:, :2] - cluster[0, :2]) == 2
        q = fit_affine(cluster)
        np.testing.assert_allclose(q.linear, truth.linear, atol=1e-10)
        np.testing.assert_allclose(q.translation, truth.translation, atol=1e-10)


class TestFitAffine:
    def test_scalar_two_point_fit(self):
        # line through (0.1, 0.55) and (0.2, 0.85): slope 3, intercept 0.25
        pairs = [([0.1], [0.55]), ([0.2], [0.85])]
        q = fit_affine(cluster_of(pairs))
        np.testing.assert_allclose(q.linear, [[3.0]], atol=1e-12)
        np.testing.assert_allclose(q.translation, [0.25], atol=1e-12)

    def test_identity_pairs(self):
        rng = np.random.default_rng(2)
        pairs = [(u, u) for u in rng.normal(size=(4, 2))]
        q = fit_affine(cluster_of(pairs))
        np.testing.assert_allclose(q.linear, np.eye(2), atol=1e-10)
        np.testing.assert_allclose(q.translation, np.zeros(2), atol=1e-10)

    def test_constant_mode(self):
        c = np.array([0.4, -0.2])
        pairs = [([1.0, 0.0], c), ([0.0, 1.0], c), ([0.3, 0.3], c)]
        q = fit_affine(cluster_of(pairs))
        np.testing.assert_allclose(q.linear, np.zeros((2, 2)), atol=1e-10)
        np.testing.assert_allclose(q.translation, c, atol=1e-10)

    def test_inputs_on_affine_subspace_resolved_toward_identity(self):
        # all commands share the first channel; the fit leaves it untouched
        truth = AffineMap(np.diag([1.0, 3.0]), np.array([0.0, 0.25]))
        pairs = [([1.0, s], truth([1.0, s])) for s in (0.05, 0.15, 0.2)]
        q = fit_affine(cluster_of(pairs))
        np.testing.assert_allclose(q.linear, truth.linear, atol=1e-10)
        np.testing.assert_allclose(q.translation, truth.translation, atol=1e-10)

    def test_unspanned_direction_keeps_the_identity(self):
        # the bundled probe's line u0 = 1: the differences span only the second
        # axis, so the first column of the linear part stays the identity's,
        # whatever the truth does along it
        truth = AffineMap(np.diag([2.0, 3.0]), np.array([0.0, 0.25]))
        pairs = [([1.0, s], truth([1.0, s])) for s in (0.05, 0.15, 0.2, 0.5)]
        q = fit_affine(cluster_of(pairs))
        np.testing.assert_array_equal(q.linear[:, 0], [1.0, 0.0])
        np.testing.assert_allclose(q.linear[:, 1], [0.0, 3.0], atol=1e-14)
        np.testing.assert_allclose(q.translation, [1.0, 0.25], atol=1e-14)

    @pytest.mark.parametrize("gap", [1e-3, 1e-5, 1e-7])
    def test_nearly_coincident_first_inputs_fit_as_lstsq(self, gap):
        # the fit pivots on the largest difference, not on the first pairs: a
        # basis of the two nearly equal first inputs would err by up to 1e-7
        rng = np.random.default_rng(int(-math.log10(gap)))
        for _ in range(200):
            truth = AffineMap(rng.normal(size=(2, 2)), rng.normal(size=2))
            inputs = rng.uniform(-1.0, 1.0, (5, 2))
            direction = rng.normal(size=2)
            inputs[1] = inputs[0] + gap * direction / np.linalg.norm(direction)
            effectives = np.array([truth(u) for u in inputs])
            q = fit_affine(np.hstack([inputs, effectives]))
            # the affine least-squares reference over every pair
            solution, *_ = np.linalg.lstsq(np.hstack([inputs, np.ones((5, 1))]), effectives,
                                           rcond=None)
            np.testing.assert_allclose(q.linear, solution[:2].T, rtol=0.0, atol=1e-13)
            np.testing.assert_allclose(q.translation, solution[2], rtol=0.0, atol=1e-13)

    def test_fit_makes_no_linear_algebra_call(self, linalg_calls):
        # an elementwise Gram–Schmidt pass: no BLAS or LAPACK kernel reaches the bits
        rng = np.random.default_rng(4)
        truth = AffineMap(rng.normal(size=(3, 3)), rng.normal(size=3))
        pairs = table([(u, truth(u)) for u in rng.normal(size=(6, 3))])
        linalg_calls.clear()
        q = fit_affine(pairs)
        assert linalg_calls == []
        np.testing.assert_allclose(q.linear, truth.linear, atol=1e-13)

    def test_residuals_are_per_pair_norms(self):
        # the written residuals and the reader's check both come from these bits
        rng = np.random.default_rng(5)
        q = AffineMap(rng.normal(size=(3, 3)), rng.normal(size=3))
        pairs = table([(u, q(u) + 1e-9 * rng.normal(size=3))
                       for u in rng.normal(size=(20, 3))])
        # in Python floats: the image u_0 L[:, 0] + u_1 L[:, 1] + ..., plus the
        # translation, less v, and the squares summed in order
        L, t = q.linear.tolist(), q.translation.tolist()
        expected = []
        for row in pairs.tolist():
            u, v = row[:3], row[3:]
            total = 0.0
            for i in range(3):
                image = u[0] * L[i][0]
                for j in range(1, 3):
                    image += u[j] * L[i][j]
                gap = t[i] + image - v[i]
                total += gap * gap
            expected.append(math.sqrt(total))
        residuals = fit_residuals(q, pairs)
        np.testing.assert_array_equal(residuals, expected)
        # a stream scores one-row slices, the batch whole tables: the same bits
        for i in range(len(pairs)):
            np.testing.assert_array_equal(fit_residuals(q, pairs[i:i + 1]), residuals[i:i + 1])
        assert fit_residuals(q, pairs[:0]).shape == (0,)

    def test_missing_basis(self):
        pairs = [([0.0, 0.0], [1.0, 1.0])]
        with pytest.raises(IdentificationError):
            fit_affine(cluster_of(pairs))

    def test_missing_anchor(self):
        pairs = [([1.0, 0.0], [2.0, 0.0]), ([0.0, 1.0], [0.0, 2.0])]
        with pytest.raises(IdentificationError):
            fit_affine(cluster_of(pairs))


class TestSplitPairs:
    def test_relative_tolerance(self):
        near, far = [100.0, 100.0 + 5e-6], [0.1, 0.2]
        affected, unaffected = split_pairs(np.array([near, far]), identity_tol=1e-7)
        np.testing.assert_array_equal(affected, [far])
        np.testing.assert_array_equal(unaffected, [near])

    @pytest.mark.parametrize("bad", [1e200, np.nan])
    def test_table_out_of_range_rejected(self, bad):
        # both norms of [1e200, 1e200] overflow, and inf <= tol * inf would pass it as unaffected
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match=r"^pair table has a component"):
                split_pairs(np.array([[0.1, 0.2], [bad, 1e200]]), identity_tol=1e-7)


# the two entry points of a recovered pair (u, v): each checks it as its [u | v] row
PAIR_ENTRIES = {
    "push": lambda u, v: Reconstructor(CHECK_CONFIG).push(u, v),
    "batch": lambda u, v: build_reconstruction_from_pairs([(u, v)], CHECK_CONFIG),
}


class TestPairRow:
    @pytest.mark.parametrize("entry", PAIR_ENTRIES)
    @pytest.mark.parametrize("u, v", [
        ([[1.0, 2.0]], [[3.0, 4.0]]),
        (1.0, 2.0),
        ([1.0 + 1.0j], [2.0]),
        ([1.0], [2.0 + 0.0j]),
        (["1.0"], [2.0]),
        ([np.nan], [2.0]),
        ([1.0], [np.inf]),
        ([1.0, 2.0], [3.0]),
        ([1.0, 1e151], [2.0, 3.0]),
        ([1.0, np.nan], [2.0, 3.0]),
    ], ids=["2-D", "0-D", "complex input", "complex effective", "string", "nan", "inf",
            "dims disagree", "beyond 1e150", "nan not first"])
    def test_malformed_pair_rejected(self, u, v, entry):
        with pytest.raises(ValueError):
            PAIR_ENTRIES[entry](u, v)

    @pytest.mark.parametrize("entry", PAIR_ENTRIES)
    @pytest.mark.parametrize("u, v, half", [
        ([1.0, 1e151], [2.0, 3.0], "input"),
        ([1.0], [-np.inf], "effective"),
    ])
    def test_out_of_range_half_is_named(self, u, v, half, entry):
        with pytest.raises(PreconditionError, match=f"^{half} has a component that is not "
                                                    r"finite or beyond 1e\+150"):
            PAIR_ENTRIES[entry](u, v)

    def test_range_limit_itself_accepted(self):
        # at the limit the unaffected test and the merge heights stay finite
        pairs = [([1e150], [-1e150]), ([-1e150], [1e150])]
        points = np.array([np.concatenate([u, v]) for u, v in pairs])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            affected, unaffected = split_pairs(points, 1e-7)
            (cluster,) = cluster_pairs(affected, delta=0.5, n_modes=1)
        assert len(unaffected) == 0
        np.testing.assert_array_equal(cluster, points)


class TestBuildReconstruction:
    def test_identity_cdm_returns_no_modes(self):
        model, _, _, m, _ = make_trial(0)
        rng = np.random.default_rng(3)
        samples = []
        for _ in range(8):
            x = rng.normal(size=model.dim_state)
            u = rng.normal(size=model.dim_input)
            v = model.drift(x) + model.input_map(x) @ u
            samples.append(ControlSample(time=0.0, state=x, velocity=v, input=u))
        cfg = IdentificationConfig(delta=1.0, n_modes=3)
        recon = build_reconstruction(samples, model, cfg)
        assert recon.modes == ()
        assert len(recon.unaffected) == len(samples)

    def test_randomized_exact_recovery(self):
        cfg = IdentificationConfig(delta=TRIAL_DELTA, n_modes=3,
                                   lipschitz=TRIAL_LIPSCHITZ)
        for seed in range(20):
            model, cdm, samples, m, N = make_trial(seed)
            recon = build_reconstruction(samples, model, cfg)
            assert len(recon.modes) == N
            for mode in recon.modes:
                assert mode.identified
                _, truth = match_true_mode(cdm, mode)
                np.testing.assert_allclose(mode.map.linear, truth.linear, atol=1e-8)
                np.testing.assert_allclose(mode.map.translation, truth.translation,
                                           atol=1e-8)
                assert mode.residual <= 1e-8

    def test_single_mode_sampled_alone(self):
        model, cdm, samples, m, N = make_trial(42)
        first_region, _ = cdm.modes[0]
        subset = [s for s in samples if in_region(first_region, s.input)]
        cfg = IdentificationConfig(delta=TRIAL_DELTA, n_modes=3,
                                   lipschitz=TRIAL_LIPSCHITZ)
        recon = build_reconstruction(subset, model, cfg)
        assert len(recon.modes) == 1

    def test_idempotent(self):
        model, cdm, samples, m, N = make_trial(7)
        cfg = IdentificationConfig(delta=TRIAL_DELTA, n_modes=3,
                                   lipschitz=TRIAL_LIPSCHITZ)
        a = build_reconstruction(samples, model, cfg)
        b = build_reconstruction(samples, model, cfg)
        assert len(a.modes) == len(b.modes)
        for ma, mb in zip(a.modes, b.modes):
            np.testing.assert_array_equal(ma.map.linear, mb.map.linear)
            np.testing.assert_array_equal(ma.inner.radii, mb.inner.radii)

    def test_rank_deficient_cluster_detected_not_identified(self):
        # two pairs cannot anchor a 2-D fit; degradation is still flagged
        pairs = [
            ([1.0, 0.0], [2.0, 0.0]),
            ([0.0, 1.0], [0.0, 2.0]),
        ]
        cfg = IdentificationConfig(delta=0.1, n_modes=2)
        recon = build_reconstruction_from_pairs(pairs, cfg)
        assert len(recon.modes) >= 1
        assert any(not mo.identified for mo in recon.modes)

    def test_oracle_equivalence_with_simulator(self):
        # recovery after simulation reproduces the ground-truth map exactly
        rng = np.random.default_rng(4)
        model, cdm, _, m, _ = make_trial(11)
        for _ in range(1000):
            x = rng.normal(size=model.dim_state)
            u = rng.uniform(-2, 2, m)
            v = model.drift(x) + model.input_map(x) @ cdm(u)
            s = ControlSample(time=0.0, state=x, velocity=v, input=u)
            np.testing.assert_allclose(
                recover_effective_input(s, model), cdm(u), atol=1e-9
            )

    def test_warns_when_lipschitz_too_small(self):
        # witness radii vary strongly with direction; a near-zero assumed
        # slope cannot be consistent with them
        pairs = [
            ([1.0, 0.0], [3.0, 0.0]),
            ([0.0, 0.2], [0.0, 2.4]),
            ([0.4, 0.0], [1.4, 0.0]),
        ]
        cfg = IdentificationConfig(delta=1e6, n_modes=1, lipschitz=1e-6)
        with pytest.warns(RuntimeWarning):
            build_reconstruction_from_pairs(pairs, cfg)

    def test_timestamps_do_not_enter_the_fit(self):
        model, cdm, samples, m, N = make_trial(5)
        scaled = [
            ControlSample(time=s.time * 10.0, state=s.state, velocity=s.velocity,
                          input=s.input)
            for s in samples
        ]
        cfg = IdentificationConfig(delta=TRIAL_DELTA, n_modes=3,
                                   lipschitz=TRIAL_LIPSCHITZ)
        a = build_reconstruction(samples, model, cfg)
        b = build_reconstruction(scaled, model, cfg)
        rng = np.random.default_rng(6)
        for _ in range(100):
            u = rng.uniform(-2, 2, m)
            qa, qb = query(a, u), query(b, u)
            assert qa.kind == qb.kind and qa.mode_index == qb.mode_index


def manual_scalar_mode(lo, hi, linear, translation, lipschitz=0.5,
                       outer_witnesses=()):
    """Hand-built scalar mode over [lo, hi] with optional outer witnesses."""
    pts = np.linspace(lo, hi, 5).reshape(-1, 1)
    center = pts.mean(axis=0)
    q = AffineMap(np.array([[linear]]), np.array([translation]))
    pairs = table([(p, q(p)) for p in pts])
    inner = StarSetApprox.from_points(pts, center, lipschitz, Side.INNER)
    if outer_witnesses:
        outer = StarSetApprox.from_points(
            np.array(outer_witnesses).reshape(-1, 1), center, lipschitz, Side.OUTER
        )
    else:
        outer = StarSetApprox(center, lipschitz, np.empty((0, 1)), np.empty(0),
                              Side.OUTER)
    residuals = np.zeros(len(pairs))
    return ModeReconstruction(map=q, inner=inner, outer=outer, pairs=pairs,
                              residuals=residuals)


def manual_recon(modes, n=3):
    return CdmReconstruction(modes=tuple(modes), unaffected=np.empty((0, 2)),
                             separation=0.1, mode_count=n, input_dim=1)


CHECK_CONFIG = IdentificationConfig(delta=0.1, n_modes=1)


def pushed(*dims):
    """A stream that was pushed one pair of each dimension in turn."""
    stream = Reconstructor(CHECK_CONFIG)
    for dim in dims:
        stream.push(np.ones(dim), np.full(dim, 2.0))
    return stream


@pytest.mark.parametrize("call, message", [
    (lambda: cluster_pairs(np.empty((0, 2)), 0.1, 1), "no pairs to cluster"),
    (lambda: cluster_pairs(np.ones((2, 2)), 0.0, 1), "delta must be finite and positive"),
    (lambda: cluster_pairs(np.ones((2, 2)), -1.0, 1), "delta must be finite and positive"),
    (lambda: cluster_pairs(np.ones((2, 2)), 0.1, 0), "modes must be an integer of at least 1"),
    # IdentificationConfig's rules: a forced merge "at or above separation delta nan" is no answer
    (lambda: cluster_pairs(np.ones((2, 2)), math.nan, 1),
     "^delta must be finite and positive, got nan$"),
    (lambda: cluster_pairs(np.ones((2, 2)), math.inf, 1),
     "^delta must be finite and positive, got inf$"),
    (lambda: cluster_pairs(np.ones((2, 2)), 0.1, 1.5),
     "^modes must be an integer of at least 1, got 1.5$"),
    (lambda: cluster_pairs(np.ones((2, 2)), 0.1, True),
     "^modes must be an integer of at least 1, got True$"),
    (lambda: build_reconstruction_from_pairs([], CHECK_CONFIG),
     "cannot build a reconstruction from zero pairs"),
    (lambda: Reconstructor(CHECK_CONFIG).snapshot(),
     "cannot build a reconstruction from zero pairs"),
    (lambda: pushed(1, 2), "pair dimension 2 != 1"),
    (lambda: build_reconstruction_from_pairs([([1.0], [2.0]), ([1.0, 2.0], [3.0, 4.0])],
                                             CHECK_CONFIG), "^pair dimension 2 != 1$"),
])
def test_empty_or_mismatched_pairs_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# tables that are not (k, 2m) tables of real numbers, and each one's message
MALFORMED_TABLES = {
    "complex": (np.array([[1 + 1j, 2.0], [3.0, 4.0]]),
                "pair table is not a table of real numbers: dtype complex128"),
    "string": (np.array([["1", "2"], ["3", "4"]]),
               "pair table is not a table of real numbers: dtype <U1"),
    "object": (np.array([[Fraction(1), 2.0], [3.0, 4.0]], dtype=object),
               "pair table is not a table of real numbers: dtype object"),
    "0-d": (np.array(1.0), "pair table must have shape (k, 2m) with m >= 1, got ()"),
    "1-D": (np.array([1.0, 2.0]), "pair table must have shape (k, 2m) with m >= 1, got (2,)"),
    "odd width": (np.array([[1.0, 2.0, 3.0], [1.0, 5.0, 1.0]]),
                  "pair table must have shape (k, 2m) with m >= 1, got (2, 3)"),
}
TABLE_FUNCTIONS = {
    "split_pairs": lambda points: split_pairs(points, 1e-7),
    "cluster_pairs": lambda points: cluster_pairs(points, 0.1, 1),
    "fit_affine": fit_affine,
}


@pytest.mark.parametrize("kind", MALFORMED_TABLES)
@pytest.mark.parametrize("function", TABLE_FUNCTIONS)
def test_malformed_pair_table_rejected(function, kind):
    # a complex part would be dropped or kept, and a misshaped table split or indexed wrongly
    points, message = MALFORMED_TABLES[kind]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TABLE_FUNCTIONS[function](points)


@pytest.mark.parametrize("call, message", [
    *((function, "pair table is not a table of real numbers: rows of different lengths")
      for function in TABLE_FUNCTIONS.values()),
    (as_point_set, "point set must be real numbers, got rows of different lengths"),
], ids=[*TABLE_FUNCTIONS, "as_point_set"])
def test_ragged_table_rejected_with_its_own_message(call, message):
    # not NumPy's "setting an array element with a sequence"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call([[1.0, 2.0], [1.0]])


def test_an_object_vector_of_real_numbers_is_served_as_its_floats(heat_run):
    # an int beyond int64 makes an object array; each entry converts with float
    recon = heat_run[1].reconstruction
    commands = [[2**70, 0], [-2**70, 2**64], np.array([1, 0.5], dtype=object),
                np.array([np.int64(1), np.float32(0.25)], dtype=object),
                np.array([True, 0.75], dtype=object)]
    commands += [np.array(mode.inner.center.tolist(), dtype=object) for mode in recon.modes]
    kinds = set()
    for u in commands:
        assert np.asarray(u).dtype == object
        floats = [float(x) for x in u]
        kinds.add(outcome(query, recon, u)[0])
        for call in (query, viabilize, error_bound):
            assert outcome(call, recon, u) == outcome(call, recon, floats)
        for mode in recon.modes:
            assert star_contains(mode.inner, mode.outer, u) is \
                star_contains(mode.inner, mode.outer, floats)
    assert {QueryKind.MAPPED, QueryKind.PASSTHROUGH} <= kinds


@pytest.mark.parametrize("u, reason", [
    ([10**400, 0], "int too large to convert to float"),
    (np.array([Fraction(1, 2), 0.5], dtype=object), "dtype object"),
    ([None, 0.5], "dtype object"),
    (["1", 0.5], "dtype <U32"),
])
def test_an_object_vector_of_anything_else_is_rejected(heat_run, u, reason):
    recon = heat_run[1].reconstruction
    for call in (query, viabilize, error_bound):
        assert outcome(call, recon, u) == (
            "PreconditionError", f"command is not a vector of real numbers: {reason}")
    mode = recon.modes[0]
    with pytest.raises(ValueError, match=f"^point is not a vector of real numbers: {reason}$"):
        star_contains(mode.inner, mode.outer, u)


def test_viabilize_skips_an_unidentified_mode_silently(caplog):
    # only an identified mode with a singular linear part is worth a log line
    mode = manual_scalar_mode(0.0, 0.25, 3.0, 0.25)
    unidentified = ModeReconstruction(map=None, inner=mode.inner, outer=mode.outer,
                                      pairs=mode.pairs, residuals=None)
    caplog.set_level("DEBUG", logger="cdmkit.identification")
    with pytest.raises(UnviableInputError, match="outside the reconstructed viable range"):
        viabilize(manual_recon([unidentified]), [0.1])
    assert caplog.records == []
    np.testing.assert_allclose(viabilize(manual_recon([unidentified, mode]), [0.55]), [0.1])
    assert caplog.records == []


class TestQuery:
    def test_passthrough_far_outside(self):
        mode = manual_scalar_mode(0.0, 0.25, 3.0, 0.25, outer_witnesses=[0.4, -0.1])
        recon = manual_recon([mode])
        res = query(recon, [5.0])
        assert res.kind == QueryKind.PASSTHROUGH
        np.testing.assert_array_equal(res.value, [5.0])

    def test_mapped_inside(self):
        mode = manual_scalar_mode(0.0, 0.25, 3.0, 0.25)
        recon = manual_recon([mode])
        res = query(recon, [0.1])
        assert res.kind == QueryKind.MAPPED and res.mode_index == 0
        np.testing.assert_allclose(res.value, [0.55])

    def test_gap_is_inconclusive(self):
        mode = manual_scalar_mode(0.0, 0.25, 3.0, 0.25, outer_witnesses=[0.6])
        recon = manual_recon([mode])
        res = query(recon, [0.4])  # between the witnesses and the outer bound
        assert res.kind == QueryKind.INCONCLUSIVE

    def test_inside_unidentified_mode_is_inconclusive(self):
        mode = manual_scalar_mode(0.0, 0.25, 3.0, 0.25)
        unidentified = ModeReconstruction(map=None, inner=mode.inner,
                                          outer=mode.outer, pairs=mode.pairs,
                                          residuals=None)
        res = query(manual_recon([unidentified]), [0.1])
        assert res.kind == QueryKind.INCONCLUSIVE

    def test_no_modes_is_passthrough_everywhere(self):
        recon = manual_recon([])
        assert query(recon, [0.3]).kind == QueryKind.PASSTHROUGH

    def test_mode_of_another_dimension_is_rejected_when_built(self):
        # the served path checks a command against input_dim only, once
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        center = pts.mean(axis=0)
        mode = ModeReconstruction(
            map=None, inner=StarSetApprox.from_points(pts, center, 1.0, Side.INNER),
            outer=StarSetApprox.from_points(2.0 * pts, center, 1.0, Side.OUTER),
            pairs=np.hstack([pts, pts]), residuals=None)
        with pytest.raises(ValueError, match="mode 0 has dimension 3, reconstruction "
                                             "expects 2"):
            CdmReconstruction(modes=(mode,), unaffected=np.empty((0, 4)), separation=0.1,
                              mode_count=3, input_dim=2)
        recon = CdmReconstruction(modes=(mode,), unaffected=np.empty((0, 6)),
                                  separation=0.1, mode_count=3, input_dim=3)
        with pytest.raises(ValueError, match="mode 0 has dimension 3"):
            dataclasses.replace(recon, input_dim=2)

    @pytest.mark.parametrize("u", [[np.nan], [np.inf], [0.1, 0.2], [[0.1]]])
    def test_invalid_command_rejected(self, u):
        recon = manual_recon([manual_scalar_mode(0.0, 0.25, 3.0, 0.25)])
        with pytest.raises(PreconditionError):
            query(recon, u)
        with pytest.raises(PreconditionError):
            viabilize(recon, u)

    @pytest.mark.parametrize("serve", ["query", "viabilize", "error bound"])
    @pytest.mark.parametrize("u", ["abc", [1 + 1j, 0.5], {"a": 1}, ["1", "0.5"],
                                   np.array([1 + 0j, 0.9 + 2j])])
    def test_non_numeric_command_is_precondition_error(self, serve, u):
        recon = manual_recon([manual_scalar_mode(0.0, 0.25, 3.0, 0.25)])
        call = {"query": query, "viabilize": viabilize,
                "error bound": lambda r, v: lipschitz_error_bound(r, v, 3.0)}[serve]
        with pytest.raises(PreconditionError, match="not a vector of real numbers"):
            call(recon, u)


class ArraySubclass(np.ndarray):
    pass


def coerced_command(recon, u):
    """The command as the general coercion of ``u`` gives it."""
    try:
        raw = np.asarray(u)
        if raw.dtype.kind not in "biuf":
            raise TypeError(f"dtype {raw.dtype}")
        point = np.atleast_1d(np.asarray(raw, dtype=float))
    except (TypeError, ValueError) as exc:
        raise PreconditionError(f"command is not a vector of real numbers: {exc}") from None
    if point.shape != (recon.input_dim,):
        raise PreconditionError(
            f"command has shape {point.shape}, reconstruction expects ({recon.input_dim},)"
        )
    if not np.all(np.isfinite(point)):
        raise PreconditionError("command has non-finite components")
    return point


def read_only(a):
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("u", [
    np.array([1.0, 0.9]),
    read_only(np.array([1.0, 0.9])),
    np.arange(4.0)[::2],  # non-contiguous view
    np.array([[1.0, 0.2], [0.9, 0.3]])[:, 0],
    np.array([1.0, 0.9]).view(ArraySubclass),
    np.array([1.0, 0.9], dtype=np.float32),
    np.array([1.0, 0.9], dtype=">f8"),  # non-native byte order
    np.array(0.9),  # 0-d
    np.array([1.0, 0.9, 0.1]),
    np.array([[1.0, 0.9]]),
    np.array([1.0, np.nan]),
    np.array([np.inf, 0.9])[::-1],
    np.array([1e200, -1e300]),
])
def test_command_fast_path_matches_the_coercion(u):
    recon = CdmReconstruction(modes=(), unaffected=np.empty((0, 4)), separation=0.1,
                              mode_count=3, input_dim=2)
    try:
        want = coerced_command(recon, u)
    except PreconditionError as exc:
        with pytest.raises(PreconditionError) as got:
            identification._command(recon, u)
        assert str(got.value) == str(exc)
        return
    got, coords = identification._command(recon, u)
    assert coords == want.tolist() and all(type(x) is float for x in coords)
    assert type(got) is type(want) and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert (got is u) == (want is u)
    assert np.shares_memory(got, u) == np.shares_memory(want, u)


FAR_COMMANDS = [[1e200, 1e200], [1e155, 0.5], [1e200, 0.5], [0.5, -1e300],
                [-1.7e308, 1.7e308]]


@pytest.mark.parametrize("u", FAR_COMMANDS)
def test_far_commands_pass_through_the_bundled_reconstruction(heat_run, u):
    recon = read_reconstruction(heat_run[1].artifacts["reconstruction"])
    u = np.array(u)
    result = query(recon, u)
    assert result.kind == QueryKind.PASSTHROUGH
    np.testing.assert_array_equal(result.value, u)
    np.testing.assert_array_equal(viabilize(recon, u), u)
    with pytest.raises(PreconditionError, match="not certified inside"):
        lipschitz_error_bound(recon, u, 3.0)


@pytest.mark.filterwarnings("error")
def test_far_command_without_outer_witnesses_is_unviable():
    # no unaffected pairs: nothing is certified outside, so each mode is
    # inverted; a candidate beyond float range is skipped, not classified
    mode = manual_scalar_mode(0.0, 0.25, 1e-300, 0.25)
    recon = manual_recon([mode])
    for u in ([1e300], [-1e308], [1.0]):
        with pytest.raises(UnviableInputError):
            viabilize(recon, u)
        assert query(recon, u).kind == QueryKind.INCONCLUSIVE


@pytest.mark.filterwarnings("error")
def test_command_whose_offset_overflows_is_unviable_without_warning():
    # a small inverse, but cmd - translation leaves the float range first
    mode = manual_scalar_mode(0.0, 0.25, 1e10, -1e308)
    recon = manual_recon([mode])
    with pytest.raises(UnviableInputError):
        viabilize(recon, [1.7e308])
    # a command past the overflow-free bound that still inverts into the mode
    shifted = manual_recon([manual_scalar_mode(0.0, 0.25, 1.0, 1e300)])
    assert viabilize(shifted, [1e300]).tolist() == [0.0]


class TestLipschitzErrorBound:
    def make_mode(self):
        q = AffineMap(np.array([[3.0]]), np.array([0.25]))
        pairs = table([([0.1], [0.55]), ([0.2], [0.85])])
        pts = np.array([[0.1], [0.2]])
        inner = StarSetApprox.from_points(pts, pts.mean(axis=0), 0.5, Side.INNER)
        outer = StarSetApprox(pts.mean(axis=0), 0.5, np.empty((0, 1)), np.empty(0),
                              Side.OUTER)
        return ModeReconstruction(map=q, inner=inner, outer=outer, pairs=pairs,
                                  residuals=np.array([0.0, 0.01]))

    def test_zero_at_exact_sample(self):
        recon = manual_recon([self.make_mode()])
        assert lipschitz_error_bound(recon, [0.1], 3.0) == 0.0

    def test_residual_at_sample(self):
        recon = manual_recon([self.make_mode()])
        np.testing.assert_allclose(lipschitz_error_bound(recon, [0.2], 3.0), 0.01)

    def test_interpolated_value(self):
        # min(0 + 3*0.05, 0.01 + 3*0.05) = 0.15
        recon = manual_recon([self.make_mode()])
        np.testing.assert_allclose(lipschitz_error_bound(recon, [0.15], 3.0), 0.15)

    def test_outside_inner_rejected(self):
        recon = manual_recon([self.make_mode()])
        with pytest.raises(PreconditionError):
            lipschitz_error_bound(recon, [5.0], 3.0)

    @pytest.mark.parametrize("l_p", [float("nan"), float("inf"), 0.0, -1.0])
    def test_lipschitz_constant_must_be_finite_and_positive(self, l_p):
        recon = manual_recon([self.make_mode()])
        with pytest.raises(ValueError, match="finite and positive"):
            lipschitz_error_bound(recon, [0.1], l_p)

    def test_complex_numpy_lipschitz_constant_is_value_error(self):
        # math.isfinite takes it, with a ComplexWarning
        recon = manual_recon([self.make_mode()])
        with pytest.raises(ValueError, match=r"^Lipschitz constant must be finite and positive"):
            lipschitz_error_bound(recon, [0.1], np.complex128(3.0))

    @pytest.mark.parametrize("l_p", ["3", None, 1j, [3.0]])
    def test_non_real_lipschitz_constant_is_value_error(self, l_p):
        recon = manual_recon([self.make_mode()])
        with pytest.raises(ValueError, match="finite and positive"):
            lipschitz_error_bound(recon, [0.1], l_p)

    @pytest.mark.parametrize("u", [[0.1], [1.0, 0.1, 5.0], [float("nan"), 0.1]])
    def test_malformed_point_is_precondition_error(self, heat_run, u):
        _, result, _ = heat_run
        with pytest.raises(PreconditionError, match="command has"):
            lipschitz_error_bound(result.reconstruction, u, 3.0)


class TestViabilize:
    def test_identity_reconstruction_echoes(self):
        recon = manual_recon([])
        np.testing.assert_array_equal(viabilize(recon, [0.7]), [0.7])

    def test_inverts_identified_mode(self):
        # no unaffected witnesses: the command cannot be certified unaffected,
        # so the shallow-branch map is inverted instead
        mode = manual_scalar_mode(0.0, 0.25, 3.0, 0.25)
        recon = manual_recon([mode])
        u_v = viabilize(recon, [0.55])
        np.testing.assert_allclose(u_v, [0.1], atol=1e-12)

    def test_constant_mode_unviable(self):
        mode = manual_scalar_mode(0.0, 0.25, 0.0, 0.7)
        recon = manual_recon([mode])
        with pytest.raises(UnviableInputError):
            viabilize(recon, [0.2])

    def test_round_trip_on_random_instances(self):
        cfg = IdentificationConfig(delta=TRIAL_DELTA, n_modes=3,
                                   lipschitz=TRIAL_LIPSCHITZ)
        rng = np.random.default_rng(8)
        for seed in range(10):
            model, cdm, samples, m, N = make_trial(100 + seed)
            recon = build_reconstruction(samples, model, cfg)
            for mode in recon.modes:
                wit = mode.pairs[int(rng.integers(0, len(mode.pairs))), :m]
                w = mode.inner.center + 0.9 * (wit - mode.inner.center)
                u_cmd = mode.map(w)
                u_v = viabilize(recon, u_cmd)
                np.testing.assert_allclose(cdm(u_v), u_cmd, atol=1e-9)


class TestModeContainment:
    def test_witnesses_are_inside(self):
        mode = manual_scalar_mode(0.0, 0.25, 3.0, 0.25)
        for row in mode.pairs:
            assert star_contains(mode.inner, mode.outer, row[:1]) is Containment.INSIDE_INNER

    def test_center_of_nondegenerate_mode_is_inside(self):
        mode = manual_scalar_mode(0.0, 0.25, 3.0, 0.25)
        center = mode.inner.center
        assert star_contains(mode.inner, mode.outer, center) is Containment.INSIDE_INNER


TRIAL_CONFIG = IdentificationConfig(delta=TRIAL_DELTA, n_modes=3, lipschitz=TRIAL_LIPSCHITZ)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_sandwich_on_random_trials(trial_seed, point_seed):
    # INSIDE_INNER => in the true region => not OUTSIDE_OUTER
    model, cdm, samples, m, N = make_trial(trial_seed)
    recon = build_reconstruction(samples, model, TRIAL_CONFIG)
    rng = np.random.default_rng(point_seed)
    for mode in recon.modes:
        region, _ = match_true_mode(cdm, mode)
        dirs = rng.normal(size=(40, m))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        # spread over the region and beyond it, and a band about its boundary
        scale = np.concatenate([rng.uniform(0.0, 2.5, 30), 1.0 + rng.uniform(-1e-6, 1e-6, 10)])
        points = [region.center + dirs * (scale * region.radius)[:, None]]
        # about the witnesses, where the approximations certify something
        for approx, lo, hi in ((mode.inner, 0.0, 1.1), (mode.outer, 0.9, 1.5)):
            for l, r in zip(approx.directions, approx.radii):
                points.append(approx.center + np.outer(rng.uniform(lo, hi, 5) * r, l))
        for u in np.vstack(points):
            c = star_contains(mode.inner, mode.outer, u)
            if c is Containment.INSIDE_INNER:
                assert in_region(region, u)
            if in_region(region, u):
                assert c is not Containment.OUTSIDE_OUTER


# ---------------------------------------------------------------------------
# Each mode remembers its last classified point


def outcome(call, recon, u):
    """What one call returns or raises, in a form that compares by value and bits."""
    try:
        out = call(recon, u)
    except (PreconditionError, UnviableInputError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, np.ndarray):
        return out.tobytes()
    if isinstance(out, float):
        return repr(out)
    return out.kind, None if out.value is None else out.value.tobytes(), out.mode_index


def error_bound(recon, u):
    return lipschitz_error_bound(recon, u, 3.0)


def served(recon, u):
    """One command as the benchmark serves it: viabilize, query, error bound."""
    try:
        u_v = viabilize(recon, u)
    except UnviableInputError:
        return None
    result = outcome(query, recon, u_v)
    bound = outcome(error_bound, recon, u_v) if result[0] == QueryKind.MAPPED else None
    return u_v.tobytes(), result, bound


def without_memo(recon):
    """The same reconstruction with modes that remember nothing yet."""
    return dataclasses.replace(recon, modes=tuple(dataclasses.replace(m) for m in recon.modes))


def command_pool(recon, rng):
    """Points where the answers differ: centers, witnesses, their images, far away."""
    m = recon.input_dim
    pool = [np.zeros(m), np.full(m, 100.0)] + list(recon.unaffected[:, :m])
    for mode in recon.modes:
        center = mode.inner.center
        pool.append(center)
        for u in mode.pairs[:, :m]:
            w = center + rng.uniform(0.5, 1.2) * (u - center)
            pool.append(w)
            if mode.identified:
                pool.append(mode.map(w))  # a command that viabilize can invert
    return pool


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.data())
def test_remembered_answers_equal_fresh_answers(trial_seed, data):
    model, _, samples, m, _ = make_trial(trial_seed)
    recon = build_reconstruction(samples, model, TRIAL_CONFIG)
    pool = command_pool(recon, np.random.default_rng(trial_seed))
    calls = {"query": query, "viabilize": viabilize, "error bound": error_bound,
             "served": served}
    index = st.integers(0, len(pool) - 1)
    step = st.tuples(index, index, st.integers(0, m - 1),
                     st.sampled_from(["once", "repeat", "alternate", "signed zeros"]),
                     st.sampled_from(sorted(calls)))
    for i, j, k, pattern, name in data.draw(st.lists(step, min_size=1, max_size=12)):
        a, b = pool[i], pool[j]
        if pattern == "once":
            points = [a]
        elif pattern == "repeat":
            points = [a, a]
        elif pattern == "alternate":
            points = [a, b, a, b]
        else:  # equal keys, different bits
            zero, minus_zero = a.copy(), a.copy()
            zero[k], minus_zero[k] = 0.0, -0.0
            points = [zero, minus_zero, zero]
        call = calls[name]
        for u in points:
            if name == "served":
                assert call(recon, u) == call(without_memo(recon), u)
            else:
                assert outcome(call, recon, u) == outcome(call, without_memo(recon), u)


def bundled_commands(count):
    return [np.array([1.0, s]) for s in np.linspace(0.0, 1.0, count)]


def test_a_served_command_classifies_each_point_once(heat_run, monkeypatch):
    recon = read_reconstruction(heat_run[1].artifacts["reconstruction"])
    calls = []
    contains = identification._classify

    def counted(*args):
        calls.append(args)
        return contains(*args)

    monkeypatch.setattr(identification, "_classify", counted)
    total, kinds = 0, set()
    for u in bundled_commands(1001):
        calls.clear()
        try:
            u_v = viabilize(recon, u)
        except UnviableInputError:
            total += len(calls)
            continue
        kind = query(recon, u_v).kind
        kinds.add(kind)
        if kind == QueryKind.PASSTHROUGH:
            assert len(calls) == len(recon.modes)
        elif kind == QueryKind.MAPPED:
            classified = len(calls)
            lipschitz_error_bound(recon, u_v, 3.0)
            assert len(calls) == classified
        total += len(calls)
    assert kinds == {QueryKind.PASSTHROUGH, QueryKind.MAPPED}
    assert total / 1001 <= 4.1


def test_concurrent_callers_get_sequential_answers(heat_run):
    recon = read_reconstruction(heat_run[1].artifacts["reconstruction"])
    n_threads = 4
    # each interleaved slice holds every command once, in its own order
    commands = bundled_commands(101) * n_threads
    want = [served(recon, u) for u in commands]
    got, errors = {}, []
    start = threading.Barrier(n_threads)

    def caller(first):
        try:
            start.wait()
            for i in range(first, len(commands), n_threads):
                got[i] = served(recon, commands[i])
        except Exception as exc:  # reported below; a thread cannot fail the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    try:
        # threads switch every few calls, in a different rhythm each round
        for switch in (1e-6, 3e-6, 1e-5, 3e-5, 1e-4) * 6:
            sys.setswitchinterval(switch)
            got.clear()
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert [got[i] for i in range(len(commands))] == want
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# The classification core against a NumPy reference


def ref_containment(inner, outer, coords):
    """(containment, whether a rounding could flip it) by ``ref_star_contains``.

    A point whose squared offset leaves the normal float range is measured
    along its own direction at its ``math.hypot`` radius instead, with the
    same reference bounds.
    """
    offset = np.asarray(coords, dtype=float) - inner.center
    if sys.float_info.min <= sum(x * x for x in offset.tolist()) < math.inf or not offset.any():
        want, r, bounds = ref_star_contains(inner, outer, coords)
    else:
        r = math.hypot(*offset.tolist())
        l = offset / r
        want, bounds = Containment.INCONCLUSIVE, []
        if inner.n_samples:
            bounds.append((ref_inner_bound(inner, l), inner))
            if r <= bounds[-1][0]:
                want = Containment.INSIDE_INNER
        if outer.n_samples and want is Containment.INCONCLUSIVE:
            bounds.append((ref_outer_bound(outer, l), outer))
            if r > bounds[-1][0]:
                want = Containment.OUTSIDE_OUTER
    return want, any(near(r, b, side) for b, side in bounds)


def core_corpus(recon):
    """Five stratified blocks of 1,000 served commands, then the edge points."""
    rng = np.random.default_rng([22, 1])
    commands = []
    for _ in range(5):
        s = (rng.permutation(1000) + rng.random(1000)) / 1000
        commands += [np.array([1.0, x]) for x in s]
    for mode in recon.modes:
        center = mode.inner.center
        commands += [center.copy(), center + np.array([0.0, 1e-170])]
    return commands + [np.array(u) for u in ([1e200, 0.5], [1e-320, 0.3], [-1e308, 1e308])]


def test_the_classification_core_answers_as_the_reference(heat_run, monkeypatch):
    path = heat_run[1].artifacts["reconstruction"]
    recon = read_reconstruction(path)
    corpus = core_corpus(recon)
    rounded = 0
    for u in corpus:
        for mode in recon.modes:
            want, close = ref_containment(mode.inner, mode.outer, u)
            if close:  # a few ulps from a bound either answer is a rounding
                rounded += 1
                continue
            assert mode.containment(u.tolist()) is want, (u, want)
    got = [served(recon, u) for u in corpus]
    assert {g[1][0] for g in got if g is not None} == {QueryKind.PASSTHROUGH,
                                                      QueryKind.MAPPED}
    close_calls = []

    def reference(inner, outer, coords):
        want, close = ref_containment(inner, outer, coords)
        close_calls.append(close)
        return want

    monkeypatch.setattr(identification, "_classify", reference)
    reference_recon = read_reconstruction(path)  # remembers only reference answers
    compared = 0
    for u, answer in zip(corpus, got):
        close_calls.clear()
        want = served(reference_recon, u)
        if not any(close_calls):
            assert answer == want, u
            compared += 1
    assert rounded <= 5 and compared >= len(corpus) - 5

