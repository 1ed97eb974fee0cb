"""Tests for ground-truth degradation map models."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import lsq_linear

from cdmkit.degradation import (
    AffineMap,
    BallRegion,
    IntervalRegion,
    NModeCdm,
    _bvls,
    _graph_bounds,
    _graph_system,
    heat_depth_response,
    heat_example_cdm,
    mode_separation,
    regions_overlap,
)
from cdmkit.geometry import pairwise_distances

from trials import in_region


def identity(dim):
    return AffineMap(np.eye(dim), np.zeros(dim))


class TestAffineMap:
    def test_scalar_branch(self):
        # shallow-region branch of the heat example: 0.25 + 3 * 0.1 = 0.55
        q = AffineMap(np.array([[3.0]]), np.array([0.25]))
        np.testing.assert_allclose(q([0.1]), [0.55])

    def test_constant_map(self):
        # zero linear part models a stuck actuator: output independent of input
        c = np.array([0.7, -0.1])
        q = AffineMap(np.zeros((2, 2)), c)
        rng = np.random.default_rng(0)
        for _ in range(5):
            np.testing.assert_array_equal(q(rng.normal(size=2)), c)

    def test_dimension_mismatch(self):
        q = identity(2)
        with pytest.raises(ValueError):
            q([1.0])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            AffineMap(np.ones((2, 3)), np.zeros(2))


    def test_keeps_a_read_only_copy_of_the_callers_arrays(self):
        linear, translation = np.eye(2), np.zeros(2)
        q = AffineMap(linear, translation)
        assert linear.flags.writeable and translation.flags.writeable
        assert not np.shares_memory(q.linear, linear)
        assert not np.shares_memory(q.translation, translation)
        assert not q.linear.flags.writeable and not q.translation.flags.writeable
        linear[0, 0], translation[0] = 5.0, 5.0
        np.testing.assert_array_equal(q([1.0, 1.0]), [1.0, 1.0])


class TestRegions:
    def test_interval_open_closed(self):
        closed = IntervalRegion(axis=0, lo=0.0, hi=1.0)
        assert in_region(closed, [0.0]) and in_region(closed, [1.0])
        half_open = IntervalRegion(axis=0, lo=0.0, hi=1.0, closed_hi=False)
        assert in_region(half_open, [0.0]) and not in_region(half_open, [1.0])

    def test_interval_on_axis(self):
        slab = IntervalRegion(axis=1, lo=0.75, hi=1.0, closed_lo=False)
        assert in_region(slab, [99.0, 0.9])
        assert not in_region(slab, [0.9, 0.75])

    def test_ball(self):
        assert in_region(BallRegion([0.0, 0.0], 1.0), [0.6, 0.8])
        assert not in_region(BallRegion([0.0, 0.0], 1.0), [0.8, 0.8])

    @pytest.mark.parametrize("center, radius", [([0.0, 0.0], 1.0), ([0.5, -2.0], 3.0),
                                                ([0.0, 0.0], 0.0)])
    def test_ball_rows_far_out_are_outside_without_a_warning(self, center, radius):
        # the mask of the plain norm, taken with its warnings silenced, on
        # random rows, rows on the sphere, and rows at ±1e308, ±inf and NaN
        ball = BallRegion(center, radius)
        rng = np.random.default_rng(4)
        specials = [1e308, -1e308, np.inf, -np.inf, np.nan, 0.0]
        U = np.vstack([
            rng.normal(scale=radius + 1.0, size=(64, 2)) + center,
            np.add(center, [[radius, 0.0], [0.0, -radius], [-0.6 * radius, 0.8 * radius]]),
            np.add(center, [[1e-170, 0.0], [0.0, -1e-170]]),
            [[a, b] for a in specials for b in specials],
        ])
        with np.errstate(all="ignore"):
            want = np.linalg.norm(U - ball.center, axis=1) <= radius
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ball.contains_rows(U)
            cdm = NModeCdm(((ball, AffineMap(np.eye(2), np.zeros(2))),))
            cdm(U)
        np.testing.assert_array_equal(got, want)
        assert want[64:67].all() and want[67:69].all()  # on the sphere; underflowed squares

    def test_ball_does_not_move_with_the_callers_array(self):
        # a region that NModeCdm checked disjoint from the others stays where it was
        center = np.array([0.0, 1.0])
        ball = BallRegion(center, 1.0)
        center[0] = 5.0
        np.testing.assert_array_equal(ball.center, [0.0, 1.0])
        assert in_region(ball, [0.0, 1.5]) and not in_region(ball, [5.0, 1.0])
        assert not ball.center.flags.writeable


@pytest.mark.parametrize("build, message", [
    (lambda: AffineMap([["1"]], ["0"]), "linear part must be real numbers, got dtype <U1"),
    (lambda: AffineMap([[1.0]], ["0"]), "translation must be real numbers, got dtype <U1"),
    (lambda: AffineMap(np.array([[1 + 1j]]), [0.0]),
     "linear part must be real numbers, got dtype complex128"),
    (lambda: BallRegion(["0", "1"], 1.0), "ball center must be real numbers, got dtype <U1"),
])
def test_non_real_numbers_rejected(build, message):
    # a string would parse and a complex entry would lose its imaginary part
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("call, message", [
    (lambda: AffineMap([[2.0]], [0.0])("1"), "input must be real numbers, got dtype <U1"),
    (lambda: heat_example_cdm()([["1", "0.1"]]), "input must be real numbers, got dtype <U3"),
    (lambda: heat_example_cdm()(np.array([1.0, 0.1j])),
     "input must be real numbers, got dtype complex128"),
    (lambda: mode_separation(heat_example_cdm(), ["0", "0"], ["10", "1"]),
     "box_lo must be real numbers, got dtype <U1"),
    (lambda: mode_separation(heat_example_cdm(), [0.0, 0.0], ["10", "1"]),
     "box_hi must be real numbers, got dtype <U2"),
    (lambda: heat_depth_response("0.1"), "depth rate must be real numbers, got dtype <U3"),
    (lambda: BallRegion([0.0, 0.0], "1"), "radius must be finite and non-negative, got '1'"),
    (lambda: BallRegion([0.0, 0.0], 1j), "radius must be finite and non-negative, got 1j"),
    (lambda: BallRegion([0.0, 0.0], np.complex128(1.0)),
     "radius must be finite and non-negative, got (1+0j)"),
])
def test_numbers_given_at_call_time_are_real(call, message):
    # a numeric string would parse, and a complex value would lose its imaginary part
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_call_time_numbers_keep_their_answers():
    assert heat_depth_response(0.1) == heat_depth_response(np.float64(0.1)) == 0.55
    assert mode_separation(heat_example_cdm(), [0, 0], [10, 1]) == (0.5, 0.5)
    np.testing.assert_array_equal(heat_example_cdm()([1, 0]), [1.0, 0.25])


@pytest.mark.parametrize("build, message", [
    (lambda: IntervalRegion(axis=0, lo="0", hi="1"),
     "interval ends must be real numbers, got dtype <U1"),
    (lambda: IntervalRegion(axis=0, lo=0.0, hi=1j),
     "interval ends must be real numbers, got dtype complex128"),
    (lambda: IntervalRegion(axis=0, lo=[0.0, 1.0], hi=[2.0, 3.0]),
     "interval ends must be two real numbers"),
    (lambda: IntervalRegion(axis=-1, lo=0.0, hi=1.0),
     "interval axis must be a non-negative integer, got -1"),
    (lambda: IntervalRegion(axis=0.5, lo=0.0, hi=1.0),
     "interval axis must be a non-negative integer, got 0.5"),
    (lambda: IntervalRegion(axis=True, lo=0.0, hi=1.0),
     "interval axis must be a non-negative integer, got True"),
])
def test_interval_takes_an_axis_index_and_real_ends(build, message):
    # with a negative axis contains_rows still picks a channel, but _bounds
    # matches no axis, so mode_separation would read (0.0, 0.0) for (0.5, 0.5)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_interval_keeps_infinite_ends_and_numpy_axes():
    slab = IntervalRegion(axis=np.int64(1), lo=-np.inf, hi=0.5)
    assert in_region(slab, [9.0, -1e300]) and not in_region(slab, [0.0, 0.6])
    with pytest.raises(ValueError, match=r"^interval region \[nan, 1.0\] is empty$"):
        IntervalRegion(axis=0, lo=np.nan, hi=1.0)


@pytest.mark.parametrize("build, message", [
    (lambda: AffineMap(np.eye(2), np.zeros(3)), "translation dimension does not match linear part"),
    (lambda: NModeCdm(modes=((IntervalRegion(0, 0.0, 1.0), identity(1)),
                             (IntervalRegion(0, 2.0, 3.0), identity(2)))),
     "all mode maps must share one input dimension"),
    (lambda: heat_example_cdm()(np.zeros((4, 3))), r"input dimension 3 != map dimension 2"),
])
def test_maps_of_mismatched_dimensions_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestNModeCdm:
    def test_overlapping_intervals_rejected(self):
        q = identity(1)
        with pytest.raises(ValueError):
            NModeCdm(modes=(
                (IntervalRegion(0, 0.0, 0.5), q),
                (IntervalRegion(0, 0.4, 1.0), q),
            ))

    def test_touching_closed_intervals_rejected(self):
        q = identity(1)
        with pytest.raises(ValueError):
            NModeCdm(modes=(
                (IntervalRegion(0, 0.0, 0.5), q),
                (IntervalRegion(0, 0.5, 1.0), q),
            ))

    def test_touching_half_open_intervals_accepted(self):
        q = identity(1)
        NModeCdm(modes=(
            (IntervalRegion(0, 0.0, 0.5, closed_hi=False), q),
            (IntervalRegion(0, 0.5, 1.0), q),
        ))

    def test_overlapping_balls_rejected(self):
        q = identity(2)
        with pytest.raises(ValueError):
            NModeCdm(modes=(
                (BallRegion([0.0, 0.0], 1.0), q),
                (BallRegion([1.5, 0.0], 1.0), q),
            ))

    @pytest.mark.parametrize("a, b, overlap", [
        # a ball against an interval: its clipped center, against open ends
        (IntervalRegion(0, 0.0, 0.5), BallRegion([0.3, 1.0], 0.4), True),
        (IntervalRegion(0, 0.0, 0.5), BallRegion([0.9, 0.0], 0.4), True),
        (IntervalRegion(0, 0.0, 0.5, closed_hi=False), BallRegion([0.9, 0.0], 0.4), False),
        (IntervalRegion(0, 0.0, 0.5, closed_hi=False), BallRegion([0.9, 0.0], 0.41), True),
        (IntervalRegion(1, 0.0, 0.0), BallRegion([0.0, 0.5], 0.5), True),
        (IntervalRegion(1, 0.0, 0.0), BallRegion([0.0, 0.5], 0.25), False),
        (IntervalRegion(1, 0.0, 0.5, closed_lo=False), BallRegion([0.0, 0.0], 0.0), False),
        # a ball against a ball: touching counts
        (BallRegion([-1.0, 0.0], 1.0), BallRegion([1.0, 0.0], 1.0), True),
        (BallRegion([-1.0, 0.0], 1.0), BallRegion([1.0, 0.5], 1.0), False),
        # an interval against an interval: across axes always, on one axis by its ends
        (IntervalRegion(0, 0.0, 0.5), IntervalRegion(1, 5.0, 6.0), True),
        (IntervalRegion(1, -1.0, 1.0), IntervalRegion(1, 1.0, 2.0), True),
        (IntervalRegion(1, -1.0, 1.0), IntervalRegion(1, 1.0, 2.0, closed_lo=False), False),
        (IntervalRegion(1, -1.0, 1.0, closed_hi=False), IntervalRegion(1, 1.0, 2.0), False),
        (IntervalRegion(0, -1.0, 1.0), IntervalRegion(0, -3.0, -1.5), False),
        (IntervalRegion(0, 0.5, 0.5), IntervalRegion(0, 0.0, 1.0, closed_lo=False), True),
    ])
    def test_mixed_kinds_decided_exactly(self, a, b, overlap):
        assert regions_overlap(a, b) is overlap and regions_overlap(b, a) is overlap

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            IntervalRegion(0, 1.0, 0.0)
        with pytest.raises(ValueError, match="empty"):
            IntervalRegion(0, 0.5, 0.5, closed_hi=False)
        assert in_region(IntervalRegion(0, 0.5, 0.5), [0.5])

    @pytest.mark.parametrize("center, radius", [
        ([0.0, 0.0], np.nan), ([0.0, 0.0], np.inf), ([np.inf, 0.0], 1.0), ([0.0, np.nan], 1.0),
    ])
    def test_non_finite_ball_rejected(self, center, radius):
        # a NaN radius holds no point and overlaps nothing, so two modes
        # could share a center; configs reject both at the number already
        with pytest.raises(ValueError, match="must be finite"):
            BallRegion(center, radius)

    def test_single_global_mode_equals_affine(self):
        q = AffineMap(np.array([[2.0, 1.0], [0.0, -1.0]]), np.array([0.3, 0.0]))
        cdm = NModeCdm(modes=((BallRegion([0.0, 0.0], 75.0), q),))
        rng = np.random.default_rng(3)
        for _ in range(1000):
            u = rng.uniform(-50, 50, 2)
            np.testing.assert_allclose(cdm(u), q(u))

    def test_identity_off_all_regions(self):
        cdm = heat_example_cdm()
        np.testing.assert_array_equal(cdm([1.0, 0.5]), [1.0, 0.5])


class TestHeatExample:
    def test_depth_channel_branches(self):
        cdm = heat_example_cdm()
        assert len(cdm.modes) == 2  # the identity mid-interval needs no mode
        np.testing.assert_allclose(cdm([1.0, 0.1])[1], 0.55)
        np.testing.assert_allclose(cdm([1.0, 0.5])[1], 0.5)
        np.testing.assert_allclose(cdm([1.0, 0.9])[1], 2.5 - 1.8)

    def test_branch_values_at_breakpoints(self):
        # both non-identity branches reach 1 at their region edges
        shallow = heat_example_cdm().modes[0][1]
        deep = heat_example_cdm().modes[1][1]
        np.testing.assert_allclose(shallow([1.0, 0.25])[1], 1.0)
        np.testing.assert_allclose(deep([1.0, 0.75])[1], 1.0)

    def test_endpoint_values(self):
        np.testing.assert_allclose(heat_depth_response(0.0), 0.25)
        np.testing.assert_allclose(heat_depth_response(1.0), 0.5)

    def test_matches_scalar_response_on_unit_range(self):
        cdm = heat_example_cdm()
        rng = np.random.default_rng(4)
        for _ in range(500):
            u = np.array([rng.uniform(0, 10), rng.uniform(0, 1)])
            out = cdm(u)
            assert out[0] == u[0]
            np.testing.assert_allclose(out[1], heat_depth_response(u[1]))


class TestSeparation:
    def test_close_modes_detected(self):
        q1 = AffineMap(np.array([[2.0]]), np.array([0.0]))
        q2 = AffineMap(np.array([[2.0]]), np.array([0.05]))
        cdm = NModeCdm(modes=(
            (IntervalRegion(0, 0.0, 0.4), q1),
            (IntervalRegion(0, 0.45, 1.0), q2),
        ))
        lower, upper = mode_separation(cdm, [0.0], [1.0])
        assert lower == upper < 0.2

    def test_single_mode_returns_none(self):
        cdm = NModeCdm(modes=((IntervalRegion(0, 0.0, 1.0), identity(1)),))
        assert mode_separation(cdm, [0.0], [1.0]) is None


class TestExactSeparation:
    def close_modes(self, region):
        q1 = AffineMap(np.array([[2.0]]), np.array([0.0]))
        q2 = AffineMap(np.array([[2.0]]), np.array([0.05]))
        return NModeCdm(modes=((region, q1), (IntervalRegion(0, 0.45, 1.0), q2)))

    def test_heat_modes_exact(self):
        # both branches approach 1 at the breakpoints 0.25 and 0.75
        assert mode_separation(heat_example_cdm(), [0.0, 0.0], [10.0, 1.0]) == (0.5, 0.5)

    def test_close_intervals_exact(self):
        # closest points u1 = 0.4, u2 = 0.45: |(0.05, 0.15)|
        cdm = self.close_modes(IntervalRegion(0, 0.0, 0.4))
        lower, upper = mode_separation(cdm, [0.0], [1.0])
        assert lower == upper
        np.testing.assert_allclose(lower, np.sqrt(0.025), rtol=1e-12)

    def test_regions_clipped_to_input_box(self):
        # inside [0.2, 1] the first region shrinks to [0.2, 0.4]: unchanged gap;
        # inside [0.5, 1] it is empty and no pair remains
        cdm = self.close_modes(IntervalRegion(0, -5.0, 0.4))
        np.testing.assert_allclose(mode_separation(cdm, [0.2], [1.0]), [np.sqrt(0.025)] * 2,
                                   rtol=1e-12)
        assert mode_separation(cdm, [0.5], [1.0]) is None

    def test_pinned_box_coordinate(self):
        # a one-point interval: the distance from (0, 0) to the graph point (0.45, 0.95)
        cdm = self.close_modes(IntervalRegion(0, 0.0, 0.0))
        np.testing.assert_allclose(mode_separation(cdm, [0.0], [1.0]),
                                   [np.hypot(0.45, 0.95)] * 2, rtol=1e-12)

    def test_one_dimensional_ball_is_its_interval(self):
        # the ball of radius 0.2 about 0.2 is the interval [0, 0.4]
        exact = mode_separation(self.close_modes(IntervalRegion(0, 0.0, 0.4)), [0.0], [1.0])
        ball = mode_separation(self.close_modes(BallRegion([0.2], 0.2)), [0.0], [1.0])
        assert ball == exact and exact[0] == exact[1]

    def test_ball_outside_input_box_is_ignored(self):
        cdm = self.close_modes(BallRegion([-0.3], 0.2))
        assert mode_separation(cdm, [0.0], [1.0]) is None

    def test_tiny_balls_are_not_missed(self):
        # two balls of radius 0.02 that sample draws would never hit: under
        # one map their graphs are |(0.01, 0.01)| apart
        q = AffineMap(np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([0.0, 1.0]))
        cdm = NModeCdm(modes=((BallRegion([5.0, 0.5], 0.02), q),
                              (BallRegion([5.05, 0.5], 0.02), q)))
        lower, upper = mode_separation(cdm, [0.0, 0.0], [10.0, 1.0])
        assert lower <= upper <= lower + 1e-9
        np.testing.assert_allclose(lower, 0.01 * np.sqrt(2.0), rtol=1e-9)


def dense_graph(region, q, lo, hi, count):
    """Graph points ``(u, Q u)`` of the grid points with ``count`` per axis in the region."""
    axes = np.meshgrid(*[np.linspace(a, b, count) for a, b in zip(lo, hi)])
    U = np.stack([a.ravel() for a in axes], axis=1)
    U = U[region.contains_rows(U)]
    return np.hstack([U, U @ q.linear.T + q.translation])


@pytest.mark.parametrize("m, balls, seed", [
    (1, 1, 0), (1, 1, 1), (1, 2, 2), (1, 2, 3),
    (2, 1, 4), (2, 1, 5), (2, 1, 6), (2, 2, 7), (2, 2, 8),
])
def test_ball_pair_bounds_against_brute_force(m, balls, seed):
    # lower <= the minimum over a dense grid of each region, which is at most
    # the true distance plus |M| times the grid's reach into the region
    rng = np.random.default_rng(seed)
    lo, hi = np.zeros(m), np.ones(m)
    while True:
        regions = [BallRegion(rng.uniform(-0.1, 1.1, m), rng.uniform(0.1, 0.4))]
        if balls == 2:
            regions.append(BallRegion(rng.uniform(-0.1, 1.1, m), rng.uniform(0.1, 0.4)))
        else:
            a, b = np.sort(rng.uniform(-0.1, 1.1, 2))
            regions.append(IntervalRegion(int(rng.integers(m)), a, b, *rng.random(2) < 0.5))
        if not regions_overlap(*regions):
            break
    maps = [random_map(rng, m) for _ in regions]
    cdm = NModeCdm(modes=tuple(zip(regions, maps)))
    bounds = mode_separation(cdm, lo, hi)
    count = 20001 if m == 1 else 121
    graphs = [dense_graph(region, q, lo, hi, count) for region, q in cdm.modes]
    if bounds is None:
        assert min(len(g) for g in graphs) == 0
        return
    lower, upper = bounds
    brute = min(float(pairwise_distances(graphs[0][k:k + 2000], graphs[1]).min())
                for k in range(0, len(graphs[0]), 2000))
    M = np.block([[np.eye(m), -np.eye(m)], [maps[0].linear, -maps[1].linear]])
    reach = 2.0 * np.sqrt(m) / (count - 1)
    assert brute - 2.0 * reach * np.linalg.norm(M, 2) <= lower <= brute
    assert lower <= upper <= lower + 1e-9 * max(1.0, upper)



def random_map(rng, m):
    return AffineMap(rng.normal(size=(m, m)), rng.normal(size=m))


def row_compaction_call(cdm, u):
    """``NModeCdm.__call__`` compacting each mode's rows by a boolean index: the reference."""
    U = np.array(u, dtype=float, ndmin=2)
    E = U.copy()
    taken = np.zeros(U.shape[0], dtype=bool)
    for region, q in cdm.modes:
        mask = region.contains_rows(U)
        if not mask.any():
            continue
        assert not (taken & mask).any()
        taken |= mask
        rows = U[mask]
        image = rows[:, :1] * q.linear[:, 0]
        for j in range(1, q.dim):
            image += rows[:, j:j + 1] * q.linear[:, j]
        E[mask] = q.translation + image
    return E if np.ndim(u) == 2 else E[0]


def reference_bvls(A, b, lo, hi):
    """SciPy's BVLS; it needs ``lo < hi``, so pinned coordinates are substituted."""
    x = lo.copy()
    free = lo < hi
    if free.any():
        x[free] = lsq_linear(A[:, free], b - A[:, ~free] @ lo[~free],
                             bounds=(lo[free], hi[free]), method="bvls").x
    return x


@st.composite
def separation_problems(draw):
    """Two affine maps and two non-empty boxes, as ``_graph_system`` takes them.

    Equal linear parts make the least-squares matrix rank deficient,
    integer entries give exact ties and ``lo == hi`` pins a coordinate.
    """
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q1 = rng.normal(size=(m, m))
    q2 = q1.copy() if draw(st.booleans()) else rng.normal(size=(m, m))
    if draw(st.booleans()):
        q1, q2 = np.round(2 * q1), np.round(2 * q2)
    scale = draw(st.sampled_from([0.1, 1.0, 10.0]))
    maps = [AffineMap(q, scale * rng.normal(size=m)) for q in (q1, q2)]
    lo = rng.uniform(-2.0, 1.0, 2 * m)
    hi = lo + rng.uniform(0.0, 2.0, 2 * m)
    pinned = np.array(draw(st.lists(st.booleans(), min_size=2 * m, max_size=2 * m)))
    hi[pinned] = lo[pinned]
    return maps[0], (lo[:m], hi[:m]), maps[1], (lo[m:], hi[m:])


class TestBoundedLeastSquares:
    """``_bvls`` against SciPy's ``lsq_linear(method="bvls")``."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(separation_problems())
    def test_matches_lsq_linear_with_kkt_certificate(self, case):
        q1, box1, q2, box2 = case
        lo, hi = np.concatenate([box1[0], box2[0]]), np.concatenate([box1[1], box2[1]])
        lower, distance = _graph_bounds(*_graph_system(q1, box1, q2, box2), [])
        assert lower == distance  # without a ball the one solve is exact
        m = q1.dim
        A = np.block([[np.eye(m), -np.eye(m)], [q1.linear, -q2.linear]])
        b = np.concatenate([np.zeros(m), q2.translation - q1.translation])
        x, g = _bvls(A, b, lo, hi)
        assert np.all(lo <= x) and np.all(x <= hi)
        np.testing.assert_array_equal(g, A.T @ (A @ x - b))
        # KKT to round-off: zero gradient on free coordinates, pointing out of the box at bounds
        tol = 1e-13 * np.linalg.norm(A) * (np.linalg.norm(A) * np.linalg.norm(x)
                                           + np.linalg.norm(b))
        movable = lo < hi
        assert np.all(np.abs(g[movable & (lo < x) & (x < hi)]) <= tol)
        assert np.all(g[movable & (x == lo)] >= -tol)
        assert np.all(g[movable & (x == hi)] <= tol)
        assert distance == float(np.linalg.norm(A @ x - b))
        reference = float(np.linalg.norm(A @ reference_bvls(A, b, lo, hi) - b))
        assert distance <= reference + 1e-12 * (1.0 + reference)
        np.testing.assert_allclose(distance, reference, rtol=1e-9, atol=1e-12)

@st.composite
def batches(draw):
    """A multi-mode map and a ``(k, m)`` batch whose entries often sit on region edges."""
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["intervals", "interval-ball", "overlapping"]))
    if kind == "intervals":
        axis = draw(st.integers(0, m - 1))
        lo1, hi1, lo2, hi2 = sorted(rng.uniform(-2.0, 2.0, 4))
        closed = draw(st.lists(st.booleans(), min_size=4, max_size=4))
        if draw(st.booleans()):
            # touching at one point, which at most one of them holds
            lo2 = hi1
            closed[2] = closed[2] and not closed[1]
        regions = [IntervalRegion(axis, lo1, hi1, closed[0], closed[1]),
                   IntervalRegion(axis, lo2, hi2, closed[2], closed[3])]
        edges = [lo1, hi1, lo2, hi2]
    else:
        # "overlapping": an interval and a ball that share points, which construction rejects
        center = np.full(m, 1.0 if kind == "overlapping" else 1.5)
        radius = 1.0
        regions = [IntervalRegion(0, -1.0, 1.0 if kind == "overlapping" else -0.5),
                   BallRegion(center, radius)]
        edges = [-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.5]
    modes = tuple((region, random_map(rng, m)) for region in regions)
    k = draw(st.integers(0, 12))
    entry = st.one_of(st.sampled_from(edges), st.floats(-3.0, 3.0))
    U = np.array(draw(st.lists(entry, min_size=k * m, max_size=k * m)),
                 dtype=float).reshape(k, m)
    return kind, modes, U


class TestBatchEvaluation:
    """``cdm(U)`` on a ``(k, m)`` batch against ``cdm(u)`` row by row."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(batches())
    def test_batch_equals_stacked_rows(self, case):
        kind, modes, U = case
        if kind == "overlapping":
            with pytest.raises(ValueError, match="mode regions 0 and 1 overlap"):
                NModeCdm(modes=modes)
            return
        cdm = NModeCdm(modes=modes)
        try:
            rows = np.array([cdm(u) for u in U], dtype=float).reshape(U.shape)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                cdm(U)
            return
        batch = cdm(U)
        assert batch.shape == U.shape
        assert batch.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("closed_lo, closed_hi",
                             [(True, True), (True, False), (False, True), (False, False)])
    def test_batch_matches_row_compaction_bit_for_bit(self, m, closed_lo, closed_hi):
        rng = np.random.default_rng(100 * m + 10 * closed_lo + closed_hi)
        axis, center, radius = m - 1, np.full(m, 2.0), 1.0
        cdm = NModeCdm(modes=(
            (IntervalRegion(axis, -1.0, 0.5, closed_lo, closed_hi), random_map(rng, m)),
            (IntervalRegion(axis, 0.5, 0.75, not closed_hi, closed_lo), random_map(rng, m)),
            (BallRegion(center, radius), AffineMap(1e3 * rng.normal(size=(m, m)),
                                                   rng.normal(size=m))),
        ))
        ends = [-1.0, 0.5, 0.75, 1.0, 2.0, 3.0]  # interval ends, the ball's extent and center
        specials = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e308, -1e308]
        for _ in range(40):
            k = int(rng.integers(0, 30))
            U = rng.normal(size=(k, m)) * 2.0
            on_end = rng.random((k, m)) < 0.3
            U[on_end] = rng.choice(ends, size=on_end.sum())
            special = rng.random((k, m)) < 0.15
            U[special] = rng.choice(specials, size=special.sum())
            if k:  # a point on the sphere
                U[0] = center
                U[0, rng.integers(m)] += radius * rng.choice([-1.0, 1.0])
            for batch in (U, np.asfortranarray(U)):
                with np.errstate(all="ignore"):
                    got, want = cdm(batch), row_compaction_call(cdm, batch)
                assert got.shape == U.shape and got.flags.c_contiguous  # advance's BLAS slices
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            for u in U[:3]:
                with np.errstate(all="ignore"):
                    got, want = cdm(u), row_compaction_call(cdm, u)
                assert got.shape == (m,)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_rows_in_no_region_are_never_multiplied(self):
        cdm = NModeCdm(modes=(
            (IntervalRegion(1, 0.0, 1.0), AffineMap(np.full((2, 2), 10.0), np.zeros(2))),))
        U = np.array([[1e308, 2.0], [0.5, 0.5], [-1e308, 1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            E = cdm(U)
        np.testing.assert_array_equal(E, [[1e308, 2.0], [10.0, 10.0], [-1e308, 1e308]])

    def test_row_in_two_overlapping_regions_raises(self):
        slab, ball = IntervalRegion(0, -1.0, 1.0), BallRegion([1.0, 1.0], 1.0)
        modes = ((slab, identity(2)), (ball, identity(2)))
        with pytest.raises(ValueError, match="mode regions 0 and 1 overlap"):
            NModeCdm(modes=modes)
        # the evaluation still guards a map whose regions were swapped after construction
        cdm = NModeCdm(modes=((slab, identity(2)),))
        object.__setattr__(cdm, "modes", modes)
        U = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 1.5]])
        with pytest.raises(ValueError, match="input belongs to multiple mode regions"):
            cdm(U)
        with pytest.raises(ValueError, match="input belongs to multiple mode regions"):
            cdm(U[1])
        np.testing.assert_array_equal(cdm(U[[0, 2]]), U[[0, 2]])

    def test_empty_batch(self):
        out = heat_example_cdm()(np.empty((0, 2)))
        assert out.shape == (0, 2)

    def test_vector_is_batch_of_one(self):
        cdm = heat_example_cdm()
        U = np.array([[1.0, 0.1], [1.0, 0.5], [2.0, 0.9]])
        assert cdm(U[0]).shape == (2,)
        np.testing.assert_array_equal(cdm(U), [cdm(u) for u in U])
        np.testing.assert_array_equal(cdm(U), [[1.0, 0.55], [1.0, 0.5], [2.0, 2.5 - 1.8]])

    def test_region_masks(self):
        U = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [2.0, 2.0]])
        np.testing.assert_array_equal(
            IntervalRegion(0, 0.0, 1.0, closed_lo=False).contains_rows(U),
            [False, True, True, False])
        np.testing.assert_array_equal(
            BallRegion([0.0, 0.0], 1.0).contains_rows(U), [True, True, True, False])
