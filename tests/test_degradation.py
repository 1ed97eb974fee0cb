"""Tests for ground-truth degradation map models."""

import numpy as np
import pytest

from cdmkit.degradation import (
    AffineMap,
    BallRegion,
    BoxRegion,
    IntervalRegion,
    NModeCdm,
    apply_affine,
    apply_ncdm,
    heat_depth_response,
    heat_example_cdm,
    mode_separation,
)


class TestAffineMap:
    def test_identity(self):
        q = AffineMap.identity(2)
        np.testing.assert_array_equal(apply_affine(q, [1.0, 2.0]), [1.0, 2.0])

    def test_scalar_branch(self):
        # shallow-region branch of the heat example: 0.25 + 3 * 0.1 = 0.55
        q = AffineMap(np.array([[3.0]]), np.array([0.25]))
        np.testing.assert_allclose(apply_affine(q, [0.1]), [0.55])

    def test_constant_map(self):
        # zero linear part models a stuck actuator: output independent of input
        c = np.array([0.7, -0.1])
        q = AffineMap(np.zeros((2, 2)), c)
        rng = np.random.default_rng(0)
        for _ in range(5):
            np.testing.assert_array_equal(apply_affine(q, rng.normal(size=2)), c)

    def test_dimension_mismatch(self):
        q = AffineMap.identity(2)
        with pytest.raises(ValueError):
            apply_affine(q, [1.0])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            AffineMap(np.ones((2, 3)), np.zeros(2))


class TestRegions:
    def test_interval_open_closed(self):
        closed = IntervalRegion(axis=0, lo=0.0, hi=1.0)
        assert closed.contains([0.0]) and closed.contains([1.0])
        half_open = IntervalRegion(axis=0, lo=0.0, hi=1.0, closed_hi=False)
        assert half_open.contains([0.0]) and not half_open.contains([1.0])

    def test_interval_on_axis(self):
        slab = IntervalRegion(axis=1, lo=0.75, hi=1.0, closed_lo=False)
        assert slab.contains([99.0, 0.9])
        assert not slab.contains([0.9, 0.75])

    def test_ball_and_box(self):
        assert BallRegion([0.0, 0.0], 1.0).contains([0.6, 0.8])
        assert not BallRegion([0.0, 0.0], 1.0).contains([0.8, 0.8])
        assert BoxRegion([0.0, 0.0], [1.0, 2.0]).contains([0.5, 1.5])


class TestNModeCdm:
    def test_overlapping_intervals_rejected(self):
        q = AffineMap.identity(1)
        with pytest.raises(ValueError):
            NModeCdm(modes=(
                (IntervalRegion(0, 0.0, 0.5), q),
                (IntervalRegion(0, 0.4, 1.0), q),
            ))

    def test_touching_closed_intervals_rejected(self):
        q = AffineMap.identity(1)
        with pytest.raises(ValueError):
            NModeCdm(modes=(
                (IntervalRegion(0, 0.0, 0.5), q),
                (IntervalRegion(0, 0.5, 1.0), q),
            ))

    def test_touching_half_open_intervals_accepted(self):
        q = AffineMap.identity(1)
        NModeCdm(modes=(
            (IntervalRegion(0, 0.0, 0.5, closed_hi=False), q),
            (IntervalRegion(0, 0.5, 1.0), q),
        ))

    def test_overlapping_balls_rejected(self):
        q = AffineMap.identity(2)
        with pytest.raises(ValueError):
            NModeCdm(modes=(
                (BallRegion([0.0, 0.0], 1.0), q),
                (BallRegion([1.5, 0.0], 1.0), q),
            ))

    def test_single_global_mode_equals_affine(self):
        q = AffineMap(np.array([[2.0, 1.0], [0.0, -1.0]]), np.array([0.3, 0.0]))
        cdm = NModeCdm(modes=((BoxRegion([-50, -50], [50, 50]), q),))
        rng = np.random.default_rng(3)
        for _ in range(1000):
            u = rng.uniform(-50, 50, 2)
            np.testing.assert_allclose(apply_ncdm(cdm, u), apply_affine(q, u))

    def test_identity_off_all_regions(self):
        cdm = heat_example_cdm()
        np.testing.assert_array_equal(apply_ncdm(cdm, [1.0, 0.5]), [1.0, 0.5])


class TestHeatExample:
    def test_depth_channel_branches(self):
        cdm = heat_example_cdm()
        assert len(cdm.modes) == 2  # the identity mid-interval needs no mode
        np.testing.assert_allclose(apply_ncdm(cdm, [1.0, 0.1])[1], 0.55)
        np.testing.assert_allclose(apply_ncdm(cdm, [1.0, 0.5])[1], 0.5)
        np.testing.assert_allclose(apply_ncdm(cdm, [1.0, 0.9])[1], 2.5 - 1.8)

    def test_branch_values_at_breakpoints(self):
        # both non-identity branches reach 1 at their region edges
        shallow = heat_example_cdm().modes[0][1]
        deep = heat_example_cdm().modes[1][1]
        np.testing.assert_allclose(apply_affine(shallow, [1.0, 0.25])[1], 1.0)
        np.testing.assert_allclose(apply_affine(deep, [1.0, 0.75])[1], 1.0)

    def test_endpoint_values(self):
        np.testing.assert_allclose(heat_depth_response(0.0), 0.25)
        np.testing.assert_allclose(heat_depth_response(1.0), 0.5)

    def test_matches_scalar_response_on_unit_range(self):
        cdm = heat_example_cdm()
        rng = np.random.default_rng(4)
        for _ in range(500):
            u = np.array([rng.uniform(0, 10), rng.uniform(0, 1)])
            out = apply_ncdm(cdm, u)
            assert out[0] == u[0]
            np.testing.assert_allclose(out[1], heat_depth_response(u[1]))

    def test_sampled_separation_matches_declared(self):
        cdm = heat_example_cdm()
        sep = mode_separation(cdm, [0.0, 0.0], [10.0, 1.0], n=4000, seed=0)
        assert sep >= cdm.separation - 1e-9


class TestSampledSeparation:
    def test_close_modes_detected(self):
        q1 = AffineMap(np.array([[2.0]]), np.array([0.0]))
        q2 = AffineMap(np.array([[2.0]]), np.array([0.05]))
        cdm = NModeCdm(modes=(
            (IntervalRegion(0, 0.0, 0.4), q1),
            (IntervalRegion(0, 0.45, 1.0), q2),
        ))
        sep = mode_separation(cdm, [0.0], [1.0], n=4000, seed=1)
        assert sep < 0.2

    def test_single_mode_returns_none(self):
        cdm = NModeCdm(modes=((IntervalRegion(0, 0.0, 1.0), AffineMap.identity(1)),))
        assert mode_separation(cdm, [0.0], [1.0]) is None


class TestExactSeparation:
    def close_modes(self, region):
        q1 = AffineMap(np.array([[2.0]]), np.array([0.0]))
        q2 = AffineMap(np.array([[2.0]]), np.array([0.05]))
        return NModeCdm(modes=((region, q1), (IntervalRegion(0, 0.45, 1.0), q2)))

    def test_heat_modes_exact(self):
        # both branches approach 1 at the breakpoints 0.25 and 0.75
        sep = mode_separation(heat_example_cdm(), [0.0, 0.0], [10.0, 1.0])
        assert abs(sep - 0.5) <= 1e-12

    def test_close_intervals_exact(self):
        # closest points u1 = 0.4, u2 = 0.45: |(0.05, 0.15)|
        cdm = self.close_modes(IntervalRegion(0, 0.0, 0.4))
        np.testing.assert_allclose(mode_separation(cdm, [0.0], [1.0]), np.sqrt(0.025),
                                   rtol=1e-12)

    def test_regions_clipped_to_input_box(self):
        # inside [0.2, 1] the first region shrinks to [0.2, 0.4]: unchanged gap;
        # inside [0.5, 1] it is empty and no pair remains
        cdm = self.close_modes(IntervalRegion(0, -5.0, 0.4))
        np.testing.assert_allclose(mode_separation(cdm, [0.2], [1.0]), np.sqrt(0.025),
                                   rtol=1e-12)
        assert mode_separation(cdm, [0.5], [1.0]) is None

    def test_pinned_box_coordinate(self):
        # a one-point box: the distance from (0, 0) to the graph point (0.45, 0.95)
        cdm = self.close_modes(BoxRegion([0.0], [0.0]))
        np.testing.assert_allclose(mode_separation(cdm, [0.0], [1.0]), np.hypot(0.45, 0.95),
                                   rtol=1e-12)

    def test_ball_region_is_sampled_estimate(self):
        # the ball [0, 0.4] has the exact gap of the interval; samples only over-estimate it
        exact = mode_separation(self.close_modes(IntervalRegion(0, 0.0, 0.4)), [0.0], [1.0])
        estimate = mode_separation(self.close_modes(BallRegion([0.2], 0.2)), [0.0], [1.0],
                                   n=4000, seed=1)
        assert exact <= estimate < exact + 0.01
