"""Tests for effective-input recovery, clustering, fitting, and queries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmkit.degradation import AffineMap, BallRegion, NModeCdm, apply_affine, apply_ncdm
from cdmkit.errors import IdentificationError, PreconditionError, UnviableInputError
from cdmkit.geometry import Containment, Side, StarSetApprox, star_contains
from cdmkit.identification import (
    CdmReconstruction,
    Cluster,
    EffectivePair,
    IdentificationConfig,
    ModeReconstruction,
    QueryKind,
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
from cdmkit.simulation import ControlSample, linear_system

from trials import TRIAL_DELTA, TRIAL_LIPSCHITZ, make_trial, match_true_mode


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


class TestClusterPairs:
    def pair(self, u, v):
        return EffectivePair(np.atleast_1d(u), np.atleast_1d(v))

    def test_identical_pairs_merge(self):
        pairs = [self.pair(0.1, 0.55)] * 4
        assert len(cluster_pairs(pairs, delta=0.1, n_modes=3)) == 1

    def test_distant_pairs_split(self):
        # shallow- and deep-branch graph points sit ~0.81 apart
        pairs = [self.pair(0.1, 0.55), self.pair(0.9, 0.7)]
        assert len(cluster_pairs(pairs, delta=0.1, n_modes=2)) == 2

    def test_close_pairs_merge(self):
        pairs = [self.pair(0.1, 0.55), self.pair(0.11, 0.58)]
        assert len(cluster_pairs(pairs, delta=0.1, n_modes=2)) == 1

    def test_resulting_clusters_are_separated(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pts = rng.normal(size=(rng.integers(2, 15), 2))
            pairs = [self.pair(p[0], p[1]) for p in pts]
            delta = float(rng.uniform(0.2, 2.0))
            clusters = cluster_pairs(pairs, delta=delta, n_modes=len(pairs))
            for i in range(len(clusters)):
                for j in range(i + 1, len(clusters)):
                    a = np.array([np.concatenate([p.input, p.effective])
                                  for p in clusters[i].pairs])
                    b = np.array([np.concatenate([p.input, p.effective])
                                  for p in clusters[j].pairs])
                    gap = min(np.linalg.norm(x - y) for x in a for y in b)
                    assert gap >= delta - 1e-12

    def test_forced_merge_respects_budget(self):
        pairs = [self.pair(0.0, 0.0), self.pair(1.0, 1.0), self.pair(2.5, 2.5)]
        clusters = cluster_pairs(pairs, delta=0.1, n_modes=2)
        assert len(clusters) == 2
        # the two closest fragments were the ones joined
        assert len(clusters[0].pairs) == 2 and len(clusters[1].pairs) == 1

    def test_forced_merge_with_tied_gaps_stays_within_budget(self):
        # equidistant fragments merge through a tie; never more than the budget
        pairs = [self.pair(0.0, 0.0), self.pair(1.0, 1.0), self.pair(2.0, 2.0)]
        clusters = cluster_pairs(pairs, delta=0.1, n_modes=2)
        assert len(clusters) <= 2

    def test_strict_mode_raises_beyond_budget(self):
        pairs = [self.pair(0.0, 0.0), self.pair(1.0, 1.0), self.pair(2.0, 2.0)]
        with pytest.raises(IdentificationError):
            cluster_pairs(pairs, delta=0.1, n_modes=2, force_merge=False)

    def test_deterministic_given_order(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(10, 2))
        pairs = [self.pair(p[0], p[1]) for p in pts]
        a = cluster_pairs(pairs, delta=0.5, n_modes=5)
        b = cluster_pairs(pairs, delta=0.5, n_modes=5)
        assert [c.pairs for c in a] == [c.pairs for c in b]

    def test_basis_indices_are_independent(self):
        pairs = [
            EffectivePair(np.array([1.0, 0.0]), np.array([2.0, 0.0])),
            EffectivePair(np.array([2.0, 0.0]), np.array([4.0, 0.0])),
            EffectivePair(np.array([0.0, 1.0]), np.array([0.0, 3.0])),
        ]
        (cluster,) = cluster_pairs(pairs, delta=1000.0, n_modes=1)
        assert len(cluster.basis_indices) == 2
        basis = cluster.inputs[list(cluster.basis_indices)]
        assert np.linalg.matrix_rank(basis) == 2


def cluster_of(pairs):
    return cluster_pairs(pairs, delta=1e9, n_modes=1)[0]


class TestFitLinear:
    """The linear part of ``fit_affine`` on full-rank anchor + basis clusters."""

    def fit(self, inputs, truth: AffineMap):
        return fit_affine(cluster_of([EffectivePair(u, truth(u)) for u in inputs]))

    def test_identity(self):
        # the anchor at the origin and the unit basis: differences are the identity
        q = self.fit([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], AffineMap.identity(2))
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
        cluster = cluster_of([EffectivePair(u, truth(u))
                              for u in ([1.0, 1.0], [0.0, 1.0], [0.2, -0.3])])
        assert len(cluster.basis_indices) == 2
        q = fit_affine(cluster)
        np.testing.assert_allclose(q.linear, truth.linear, atol=1e-10)
        np.testing.assert_allclose(q.translation, truth.translation, atol=1e-10)


class TestFitAffine:
    def test_scalar_two_point_fit(self):
        # line through (0.1, 0.55) and (0.2, 0.85): slope 3, intercept 0.25
        pairs = [EffectivePair([0.1], [0.55]), EffectivePair([0.2], [0.85])]
        q = fit_affine(cluster_of(pairs))
        np.testing.assert_allclose(q.linear, [[3.0]], atol=1e-12)
        np.testing.assert_allclose(q.translation, [0.25], atol=1e-12)

    def test_identity_pairs(self):
        rng = np.random.default_rng(2)
        pairs = [EffectivePair(u, u) for u in rng.normal(size=(4, 2))]
        q = fit_affine(cluster_of(pairs))
        np.testing.assert_allclose(q.linear, np.eye(2), atol=1e-10)
        np.testing.assert_allclose(q.translation, np.zeros(2), atol=1e-10)

    def test_constant_mode(self):
        c = np.array([0.4, -0.2])
        pairs = [
            EffectivePair([1.0, 0.0], c),
            EffectivePair([0.0, 1.0], c),
            EffectivePair([0.3, 0.3], c),
        ]
        q = fit_affine(cluster_of(pairs))
        np.testing.assert_allclose(q.linear, np.zeros((2, 2)), atol=1e-10)
        np.testing.assert_allclose(q.translation, c, atol=1e-10)

    def test_inputs_on_affine_subspace_resolved_toward_identity(self):
        # all commands share the first channel; the fit leaves it untouched
        truth = AffineMap(np.diag([1.0, 3.0]), np.array([0.0, 0.25]))
        pairs = [EffectivePair([1.0, s], truth([1.0, s])) for s in (0.05, 0.15, 0.2)]
        q = fit_affine(cluster_of(pairs))
        np.testing.assert_allclose(q.linear, truth.linear, atol=1e-10)
        np.testing.assert_allclose(q.translation, truth.translation, atol=1e-10)

    def test_residuals_are_per_pair_norms(self):
        # the written residuals and the reader's check both come from these bits
        rng = np.random.default_rng(5)
        q = AffineMap(rng.normal(size=(3, 3)), rng.normal(size=3))
        pairs = [EffectivePair(u, q(u) + 1e-9 * rng.normal(size=3))
                 for u in rng.normal(size=(20, 3))]
        expected = [np.linalg.norm(apply_affine(q, p.input) - p.effective) for p in pairs]
        np.testing.assert_array_equal(fit_residuals(q, pairs), expected)
        assert fit_residuals(q, []).shape == (0,)

    def test_missing_basis(self):
        pairs = [EffectivePair([0.0, 0.0], [1.0, 1.0])]
        with pytest.raises(IdentificationError):
            fit_affine(cluster_of(pairs))

    def test_missing_anchor(self):
        pairs = [EffectivePair([1.0, 0.0], [2.0, 0.0]),
                 EffectivePair([0.0, 1.0], [0.0, 2.0])]
        with pytest.raises(IdentificationError):
            fit_affine(cluster_of(pairs))


class TestSplitPairs:
    def test_relative_tolerance(self):
        near = EffectivePair([100.0], [100.0 + 5e-6])
        far = EffectivePair([0.1], [0.2])
        affected, unaffected = split_pairs([near, far], identity_tol=1e-7)
        assert affected == [far] and unaffected == [near]


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
        subset = [s for s in samples if first_region.contains(s.input)]
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
            EffectivePair([1.0, 0.0], [2.0, 0.0]),
            EffectivePair([0.0, 1.0], [0.0, 2.0]),
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
            v = model.drift(x) + model.input_map(x) @ apply_ncdm(cdm, u)
            s = ControlSample(time=0.0, state=x, velocity=v, input=u)
            np.testing.assert_allclose(
                recover_effective_input(s, model), apply_ncdm(cdm, u), atol=1e-9
            )

    def test_warns_when_lipschitz_too_small(self):
        # witness radii vary strongly with direction; a near-zero assumed
        # slope cannot be consistent with them
        pairs = [
            EffectivePair([1.0, 0.0], [3.0, 0.0]),
            EffectivePair([0.0, 0.2], [0.0, 2.4]),
            EffectivePair([0.4, 0.0], [1.4, 0.0]),
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
    pairs = tuple(EffectivePair(p, q(p)) for p in pts)
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


def manual_recon(modes, unaffected=(), n=3):
    return CdmReconstruction(modes=tuple(modes), unaffected=tuple(unaffected),
                             separation=0.1, mode_count=n, input_dim=1)


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

    @pytest.mark.parametrize("u", [[np.nan], [np.inf], [0.1, 0.2], [[0.1]]])
    def test_invalid_command_rejected(self, u):
        recon = manual_recon([manual_scalar_mode(0.0, 0.25, 3.0, 0.25)])
        with pytest.raises(PreconditionError):
            query(recon, u)
        with pytest.raises(PreconditionError):
            viabilize(recon, u)


class TestLipschitzErrorBound:
    def make_mode(self):
        q = AffineMap(np.array([[3.0]]), np.array([0.25]))
        pairs = (EffectivePair([0.1], [0.55]), EffectivePair([0.2], [0.85]))
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
                wit = mode.pairs[int(rng.integers(0, len(mode.pairs)))].input
                w = mode.inner.center + 0.9 * (wit - mode.inner.center)
                u_cmd = mode.map(w)
                u_v = viabilize(recon, u_cmd)
                np.testing.assert_allclose(apply_ncdm(cdm, u_v), u_cmd, atol=1e-9)


class TestModeContainment:
    def test_witnesses_are_inside(self):
        mode = manual_scalar_mode(0.0, 0.25, 3.0, 0.25)
        for p in mode.pairs:
            assert star_contains(mode.inner, mode.outer, p.input) is Containment.INSIDE_INNER

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
                assert region.contains(u)
            if region.contains(u):
                assert c is not Containment.OUTSIDE_OUTER
