"""Tests for point distances, the interval Hausdorff distance and star-set gauge bounds."""

import dataclasses
import math
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from cdmkit import geometry
from cdmkit.errors import UnviableInputError
from cdmkit.geometry import (
    Containment,
    Side,
    StarSetApprox,
    as_point_set,
    estimate_mgf_lipschitz,
    interval_hausdorff,
    mgf_inner_bound,
    mgf_outer_bound,
    pairwise_distances,
    star_contains,
)
from cdmkit.identification import (
    ModeReconstruction,
    QueryKind,
    lipschitz_error_bound,
    query,
    viabilize,
)

SQRT2 = np.sqrt(2.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 30), st.integers(1, 30),
       st.integers(0, 5))
def test_pairwise_distances_bit_equal_to_cdist(seed, d, n, k, n_dup):
    rng = np.random.default_rng(seed)

    def rows(count):
        # each entry a signed mantissa times 1e-3 .. 1e3
        return rng.uniform(-1, 1, (count, d)) * 10.0 ** rng.integers(-3, 4, (count, d))

    a, b = rows(n), rows(k)
    for _ in range(n_dup):  # shared rows are at distance 0
        b[rng.integers(k)] = a[rng.integers(n)]
    for i in range(n):
        assert np.array_equal(pairwise_distances(a[i], b), cdist(a[i:i + 1], b)[0])
        assert np.array_equal(pairwise_distances(a[i], a), cdist(a[i:i + 1], a)[0])


def star_from_samples(dirs, radii, side, lipschitz):
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    return StarSetApprox(
        center=np.zeros(dirs.shape[1]),
        lipschitz=lipschitz,
        directions=dirs,
        radii=np.asarray(radii, dtype=float),
        side=side,
    )


class TestMgfBounds:
    def test_outer_zero_lipschitz_is_constant(self):
        outer = star_from_samples([[1.0, 0.0]], [1.0], Side.OUTER, 0.0)
        for l in ([0.0, 1.0], [-1.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5)]):
            assert mgf_outer_bound(outer, l) == 1.0

    def test_outer_cone_value(self):
        outer = star_from_samples([[1.0, 0.0]], [2.0], Side.OUTER, 1.0)
        np.testing.assert_allclose(mgf_outer_bound(outer, [0.0, 1.0]), 2.0 + SQRT2)

    def test_outer_min_over_samples(self):
        outer = star_from_samples([[1.0, 0.0], [0.0, 1.0]], [1.0, 3.0], Side.OUTER, 1.0)
        np.testing.assert_allclose(mgf_outer_bound(outer, [0.0, 1.0]), 1.0 + SQRT2)

    def test_inner_cone_value(self):
        inner = star_from_samples([[1.0, 0.0]], [2.0], Side.INNER, 1.0)
        np.testing.assert_allclose(mgf_inner_bound(inner, [0.0, 1.0]), 2.0 - SQRT2)

    def test_inner_clamped(self):
        inner = star_from_samples([[1.0, 0.0]], [1.0], Side.INNER, 10.0)
        assert mgf_inner_bound(inner, [-1.0, 0.0]) == 0.0

    def test_inner_zero_lipschitz_is_constant(self):
        inner = star_from_samples([[1.0, 0.0]], [0.7], Side.INNER, 0.0)
        assert mgf_inner_bound(inner, [0.0, -1.0]) == 0.7

    def test_empty_samples_rejected(self):
        empty = StarSetApprox(np.zeros(2), 1.0, np.empty((0, 2)), np.empty(0), Side.INNER)
        with pytest.raises(ValueError):
            mgf_inner_bound(empty, [1.0, 0.0])

    def test_wrong_side_rejected(self):
        inner = star_from_samples([[1.0, 0.0]], [1.0], Side.INNER, 1.0)
        with pytest.raises(ValueError):
            mgf_outer_bound(inner, [0.0, 1.0])

    def test_non_unit_direction_rejected(self):
        outer = star_from_samples([[1.0, 0.0]], [1.0], Side.OUTER, 1.0)
        with pytest.raises(ValueError):
            mgf_outer_bound(outer, [0.5, 0.0])
        for l in ([np.nan, 0.0], [np.inf, 0.0]):
            with pytest.raises(ValueError):
                mgf_outer_bound(outer, l)

    @pytest.mark.parametrize("l", [["0", "1"], np.array([0.0 + 0j, 1.0 + 0j]),
                                   np.array([Fraction(0), 1.0], dtype=object)])
    @pytest.mark.parametrize("bound, side", [(mgf_inner_bound, Side.INNER),
                                             (mgf_outer_bound, Side.OUTER)])
    def test_non_real_direction_rejected(self, bound, side, l):
        # numeric strings would parse and a complex part would be dropped
        star = star_from_samples([[1.0, 0.0]], [1.0], side, 1.0)
        with pytest.raises(ValueError, match="query direction is not a vector of real numbers"):
            bound(star, l)

    @pytest.mark.parametrize("bound, side", [(mgf_inner_bound, Side.INNER),
                                             (mgf_outer_bound, Side.OUTER)])
    def test_only_the_core_direction_skips_the_checks(self, bound, side, monkeypatch):
        # a list of floats, or a list subtype of the caller's own, is checked
        # whatever its type; only the core's direction is taken as it is, by
        # the bounds themselves: _query_direction checks every direction
        class Floats(list):
            pass

        star = star_from_samples([[1.0, 0.0]], [1.0], side, 1.0)
        for make in (list, Floats, tuple, np.array):
            for l in ([0.5, 0.0], [2.0, 0.0], [np.nan, 0.0], [1.0, 0.0, 0.0], [1.0]):
                with pytest.raises(ValueError):
                    bound(star, make(l))
            assert bound(star, make([0.6, 0.8])) == bound(star, [0.6, 0.8])
        with pytest.raises(ValueError, match="unit vector"):
            geometry._query_direction(star, geometry._UnitDirection([2.0, 0.0]))
        expected = bound(star, [0.6, 0.8])
        monkeypatch.setattr(geometry, "_query_direction", None)  # a checked direction fails
        assert bound(star, geometry._UnitDirection([0.6, 0.8])) == expected
        with pytest.raises(TypeError):
            bound(star, [0.6, 0.8])

    def test_the_core_normalizes_as_the_bounds_do(self, monkeypatch):
        # offsets whose quotient by the radius is a few ulps from unit norm
        rng = np.random.default_rng(4)
        # a witness radius beyond every drawn offset, so each call reaches the inner bound
        inner = star_from_samples([[1.0, 0.0]], [100.0], Side.INNER, 1.0)
        captured = []
        monkeypatch.setattr(geometry, "mgf_inner_bound",
                            lambda approx, d: captured.append(d) or math.inf)
        seen = set()
        for offset in rng.normal(size=(500, 2)).tolist():
            r = math.sqrt(offset[0] * offset[0] + offset[1] * offset[1])
            l = [x / r for x in offset]
            direction = geometry._query_direction(inner, l)
            seen.add(geometry._norm(l) == 1.0)
            captured.clear()
            geometry._classify(inner, inner, offset)  # the center is the origin
            assert type(captured[0]) is geometry._UnitDirection
            assert np.array(captured[0]).tobytes() == np.array(direction).tobytes()
        assert seen == {True, False}  # both the kept and the divided direction occur


def ellipse_gauge(l, a=2.0, b=0.5):
    l = np.asarray(l, dtype=float)
    return 1.0 / np.sqrt((l[0] / a) ** 2 + (l[1] / b) ** 2)


def ellipse_lipschitz(a=2.0, b=0.5, n=20000):
    # dense difference-quotient estimate of the true gauge Lipschitz constant
    th = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    dirs = np.column_stack([np.cos(th), np.sin(th)])
    vals = np.array([ellipse_gauge(l, a, b) for l in dirs])
    gaps = np.linalg.norm(np.diff(dirs, axis=0), axis=1)
    return float(np.max(np.abs(np.diff(vals)) / gaps))


class TestGaugeSandwich:
    def test_bounds_bracket_true_gauge(self):
        # boundary witnesses of an ellipse, true Lipschitz constant
        rng = np.random.default_rng(5)
        L = ellipse_lipschitz() * (1.0 + 1e-6)
        th = rng.uniform(0.0, 2 * np.pi, 25)
        dirs = np.column_stack([np.cos(th), np.sin(th)])
        radii = np.array([ellipse_gauge(l) for l in dirs])
        inner = star_from_samples(dirs, radii, Side.INNER, L)
        outer = star_from_samples(dirs, radii, Side.OUTER, L)
        for _ in range(1000):
            phi = rng.uniform(0.0, 2 * np.pi)
            l = np.array([np.cos(phi), np.sin(phi)])
            rho = ellipse_gauge(l)
            assert mgf_inner_bound(inner, l) <= rho + 1e-9
            assert mgf_outer_bound(outer, l) >= rho - 1e-9

    def test_inner_never_exceeds_outer_for_consistent_samples(self):
        rng = np.random.default_rng(6)
        L = ellipse_lipschitz() * (1.0 + 1e-6)
        for _ in range(50):
            th = rng.uniform(0.0, 2 * np.pi, int(rng.integers(1, 8)))
            dirs = np.column_stack([np.cos(th), np.sin(th)])
            radii = np.array([ellipse_gauge(l) for l in dirs])
            inner = star_from_samples(dirs, radii, Side.INNER, L)
            outer = star_from_samples(dirs, radii, Side.OUTER, L)
            phi = rng.uniform(0.0, 2 * np.pi)
            l = np.array([np.cos(phi), np.sin(phi)])
            assert mgf_inner_bound(inner, l) <= mgf_outer_bound(outer, l) + 1e-12

    def test_monotone_refinement(self):
        # adding witnesses never loosens either bound at any fixed direction
        rng = np.random.default_rng(8)
        L = ellipse_lipschitz() * (1.0 + 1e-6)
        th = rng.uniform(0.0, 2 * np.pi, 30)
        dirs = np.column_stack([np.cos(th), np.sin(th)])
        radii = np.array([ellipse_gauge(l) for l in dirs])
        probes = [np.array([np.cos(p), np.sin(p)]) for p in rng.uniform(0, 2 * np.pi, 20)]
        prev_inner = np.full(20, -np.inf)
        prev_outer = np.full(20, np.inf)
        for k in range(1, 31):
            inner = star_from_samples(dirs[:k], radii[:k], Side.INNER, L)
            outer = star_from_samples(dirs[:k], radii[:k], Side.OUTER, L)
            for j, l in enumerate(probes):
                bi = mgf_inner_bound(inner, l)
                bo = mgf_outer_bound(outer, l)
                assert bi >= prev_inner[j] - 1e-12
                assert bo <= prev_outer[j] + 1e-12
                prev_inner[j] = bi
                prev_outer[j] = bo


class TestStarSetValidation:
    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError):
            star_from_samples([[1.0, 1.0]], [1.0], Side.INNER, 0.0)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            star_from_samples([[1.0, 0.0]], [-0.5], Side.INNER, 0.0)

    def test_negative_lipschitz_rejected(self):
        with pytest.raises(ValueError):
            star_from_samples([[1.0, 0.0]], [1.0], Side.INNER, -1.0)

    @pytest.mark.parametrize("side", [Side.INNER, Side.OUTER])
    @pytest.mark.parametrize("field, value", [
        ("lipschitz", math.nan), ("lipschitz", math.inf),
        ("radius", math.nan), ("radius", math.inf), ("radius", -math.inf)])
    def test_non_finite_lipschitz_or_radius_rejected(self, side, field, value):
        # comparisons with nan are false, so each check must fail on it
        radius, lipschitz = (value, 1.0) if field == "radius" else (1.0, value)
        with pytest.raises(ValueError, match="finite"):
            star_from_samples([[1.0, 0.0]], [radius], side, lipschitz)

    def test_duplicate_directions_keep_best(self):
        inner = star_from_samples([[1.0, 0.0], [1.0, 0.0]], [1.0, 2.0], Side.INNER, 0.0)
        assert inner.n_samples == 1
        assert inner.radii[0] == 2.0  # larger radius is the better lower bound
        outer = star_from_samples([[1.0, 0.0], [1.0, 0.0]], [1.0, 2.0], Side.OUTER, 0.0)
        assert outer.radii[0] == 1.0  # smaller radius is the better upper bound

    @pytest.mark.parametrize("side, radii, point", [
        (Side.INNER, [1.0, 2.0], [2.0 - 1e-12, 0.0]),
        (Side.OUTER, [2.0, 1.0], [1.0 + 1e-12, 0.0]),
    ])
    def test_a_folded_radius_pays_its_lipschitz_cost(self, side, radii, point):
        # l2 is 5e-11 rad from l1 and folds into it.  The 1-Lipschitz gauge
        # 2 - |l - l2| (inner) or 1 + |l - l2| (outer) fits both witnesses,
        # and along l1 it lies between the point and the folded radius
        l1, l2 = np.array([1.0, 0.0]), np.array([math.cos(5e-11), math.sin(5e-11)])
        gap = np.linalg.norm(l2 - l1)
        star = star_from_samples([l1, l2], radii, side, 1.0)
        empty = star_from_samples(np.empty((0, 2)), [], Side.OUTER if side is Side.INNER
                                  else Side.INNER, 1.0)
        assert star.directions.tolist() == [[1.0, 0.0]]
        if side is Side.INNER:
            assert star.radii.tolist() == [2.0 - gap]
            assert star_contains(star, empty, point) is Containment.INCONCLUSIVE
        else:
            assert star.radii.tolist() == [1.0 + gap]
            assert star_contains(empty, star, point) is Containment.INCONCLUSIVE

    def test_from_points_drops_center(self):
        approx = StarSetApprox.from_points(
            [[0.0, 0.0], [1.0, 0.0]], [0.0, 0.0], 1.0, Side.INNER
        )
        assert approx.n_samples == 1

    def test_a_star_copies_its_center(self):
        # the star keeps a read-only copy; the caller's array stays writable
        c = np.zeros(2)
        inner = StarSetApprox(c, 1.0, [[1.0, 0.0]], [1.0], Side.INNER)
        outer = StarSetApprox.from_points([[2.0, 0.0]], c, 1.0, Side.OUTER)
        c[0] = 1.0
        for star in (inner, outer):
            assert star.center.tolist() == [0.0, 0.0]
            assert not star.center.flags.writeable


class TestStarContains:
    def unit_ball_pair(self):
        inner = star_from_samples([[1.0, 0.0]], [1.0], Side.INNER, 0.0)
        outer = star_from_samples([[1.0, 0.0]], [1.0], Side.OUTER, 0.0)
        return inner, outer

    def test_inside(self):
        inner, outer = self.unit_ball_pair()
        assert star_contains(inner, outer, [0.5, 0.0]) is Containment.INSIDE_INNER

    def test_outside(self):
        inner, outer = self.unit_ball_pair()
        assert star_contains(inner, outer, [2.0, 0.0]) is Containment.OUTSIDE_OUTER

    def test_gap_is_inconclusive(self):
        inner = star_from_samples([[1.0, 0.0]], [1.0], Side.INNER, 0.0)
        outer = star_from_samples([[1.0, 0.0]], [2.0], Side.OUTER, 0.0)
        assert star_contains(inner, outer, [1.5, 0.0]) is Containment.INCONCLUSIVE

    def test_center_query(self):
        inner, outer = self.unit_ball_pair()
        assert star_contains(inner, outer, [0.0, 0.0]) is Containment.INSIDE_INNER

    def test_sides_without_witnesses(self):
        # an empty inner side certifies nothing, an empty outer side excludes nothing
        inner, outer = self.unit_ball_pair()
        empty_inner = star_from_samples(np.empty((0, 2)), [], Side.INNER, 0.0)
        empty_outer = star_from_samples(np.empty((0, 2)), [], Side.OUTER, 0.0)
        for u in ([0.5, 0.0], [0.0, 0.0]):
            assert star_contains(empty_inner, outer, u) is Containment.INCONCLUSIVE
        assert star_contains(empty_inner, outer, [2.0, 0.0]) is Containment.OUTSIDE_OUTER
        assert star_contains(inner, empty_outer, [2.0, 0.0]) is Containment.INCONCLUSIVE
        assert star_contains(inner, empty_outer, [0.5, 0.0]) is Containment.INSIDE_INNER

    @pytest.mark.parametrize("u", [["1", "0.1"], np.array([1 + 0j, 0.1 + 5j]),
                                   np.array([Fraction(1, 2), 0.0], dtype=object)])
    def test_non_real_point_rejected(self, u):
        # numeric strings would parse and a complex part would be dropped
        inner, outer = self.unit_ball_pair()
        with pytest.raises(ValueError, match="point is not a vector of real numbers"):
            star_contains(inner, outer, u)

    def test_center_mismatch_rejected(self):
        # the pair is checked once, where a mode is built, not on every query
        inner, outer = self.unit_ball_pair()
        shifted = StarSetApprox(
            np.array([0.5, 0.0]), 0.0, np.array([[1.0, 0.0]]), np.array([1.0]), Side.OUTER
        )
        with pytest.raises(ValueError, match="share a center"):
            ModeReconstruction(map=None, inner=inner, outer=shifted, pairs=(), residuals=None)
        with pytest.raises(ValueError, match="inner, outer"):
            ModeReconstruction(map=None, inner=outer, outer=inner, pairs=(), residuals=None)


class TestIntervalHausdorff:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(-5.0, 5.0), st.floats(0.0, 5.0),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10))
    def test_equals_the_distance_at_its_peaks(self, lo, width, fractions):
        # on [lo, hi] the distance to the nearest point peaks at an end or at
        # a midpoint of two consecutive points, so the largest of those is exact
        hi = lo + width
        seen = sorted(min(lo + f * width, hi) for f in fractions)
        peaks = [lo, hi] + [(a + b) / 2 for a, b in zip(seen, seen[1:])]
        exact = max(min(abs(p - s) for s in seen) for p in peaks)
        gap = max((b - a for a, b in zip(seen, seen[1:])), default=0.0)
        value = interval_hausdorff(lo, hi, seen[0], seen[-1], gap)
        assert abs(value - exact) <= 1e-12 * (1.0 + width)
        probes = np.linspace(lo, hi, 1001)
        assert np.max(np.min(np.abs(probes[:, None] - np.array(seen)), axis=1)) <= value

    def test_three_points_in_unit_interval(self):
        # the midpoints 0.25 and 0.75 are farthest from {0, 0.5, 1}
        assert interval_hausdorff(0.0, 1.0, 0.0, 1.0, 0.5) == 0.25


class TestLipschitzEstimate:
    def test_equal_radii(self):
        dirs = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        assert estimate_mgf_lipschitz(dirs, [2.0, 2.0, 2.0]) == 0.0

    def test_two_sample_value(self):
        dirs = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(
            estimate_mgf_lipschitz(dirs, [1.0, 2.0]), 1.0 / SQRT2
        )

    def test_lower_estimate_for_affine_ball_image(self):
        # gauge samples of a linearly mapped ball never exceed the dense constant
        rng = np.random.default_rng(10)
        T = np.array([[1.5, 0.4], [-0.2, 0.8]])
        th_dense = np.linspace(0.0, 2 * np.pi, 5000, endpoint=False)
        boundary = (T @ np.column_stack([np.cos(th_dense), np.sin(th_dense)]).T).T
        norms = np.linalg.norm(boundary, axis=1)
        dirs_dense = boundary / norms[:, None]
        gaps = np.linalg.norm(np.diff(dirs_dense, axis=0), axis=1)
        dense_constant = float(np.max(np.abs(np.diff(norms)) / gaps))
        idx = rng.choice(5000, size=40, replace=False)
        est = estimate_mgf_lipschitz(dirs_dense[idx], norms[idx])
        assert est <= dense_constant * (1.0 + 1e-9)

    def test_needs_two_distinct_directions(self):
        dirs = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            estimate_mgf_lipschitz(dirs, [1.0, 2.0])

    def test_matches_the_whole_quotient_table_bit_for_bit(self):
        rng = np.random.default_rng(36)
        for case in range(600):
            k, d = int(rng.integers(1, 25)), int(rng.integers(1, 4))
            dirs = rng.normal(size=(k, d))
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
            radii = rng.uniform(0.0, 2.0, k)
            for i in rng.integers(0, k, size=int(rng.integers(0, k + 1))):
                j = int(rng.integers(0, k))
                # exact repeats, and near ones on both sides of the dedup tolerance
                dirs[i] = dirs[j] + rng.choice([0.0, 3e-11, 3e-10]) * rng.normal(size=d)
                if rng.uniform() < 0.3:
                    radii[i] = radii[j]
            if case % 10 == 0:
                radii[int(rng.integers(0, k))] = rng.choice([np.nan, np.inf])
            outcomes = []
            for estimate in (estimate_mgf_lipschitz, whole_table_mgf_lipschitz):
                try:
                    with np.errstate(invalid="ignore"):
                        outcomes.append(np.float64(estimate(dirs, radii)).tobytes())
                except ValueError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], case

    def test_holds_no_quotient_table(self):
        # a (k, k) table of 2,000 directions is 32 MB, and the whole-table
        # estimate held four of them
        th = np.linspace(0.0, 2 * np.pi, 2000, endpoint=False)
        dirs = np.column_stack([np.cos(th), np.sin(th)])
        radii = 1.0 + 0.5 * np.sin(3 * th)
        tracemalloc.start()
        try:
            est = estimate_mgf_lipschitz(dirs, radii)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est == whole_table_mgf_lipschitz(dirs, radii)
        assert peak < 2e6


def whole_table_mgf_lipschitz(directions, radii):
    """The estimate as the largest entry of the whole (k, k) quotient table."""
    dirs = np.asarray(directions, dtype=float)
    r = np.asarray(radii, dtype=float)
    gaps = cdist(dirs, dirs)
    diffs = np.abs(r[:, None] - r[None, :])
    mask = gaps > geometry.DIRECTION_DEDUP_TOL
    if not np.any(mask):
        raise ValueError("need at least two distinct directions")
    return float(np.max(diffs[mask] / gaps[mask]))


class TestAffineImagePreservesLipschitzGauge:
    def test_box_image_estimates_stay_bounded(self):
        # sample an axis-aligned box, push members through an invertible affine
        # map, and re-estimate the gauge slope about the mapped center: the
        # estimates stay finite and bounded as the sampling refines
        rng = np.random.default_rng(12)
        T = np.array([[1.2, -0.5], [0.3, 0.9]])
        shift = np.array([0.4, -0.2])
        center = shift + T @ np.zeros(2)
        estimates = []
        for count in (50, 200, 800):
            th = rng.uniform(0.0, 2 * np.pi, count)
            # boundary of the box [-1,1]^2 along each direction
            l = np.column_stack([np.cos(th), np.sin(th)])
            scale = 1.0 / np.max(np.abs(l), axis=1)
            boundary = l * scale[:, None]
            mapped = boundary @ T.T + shift
            offsets = mapped - center
            norms = np.linalg.norm(offsets, axis=1)
            dirs = offsets / norms[:, None]
            estimates.append(estimate_mgf_lipschitz(dirs, norms))
        assert all(np.isfinite(e) for e in estimates)
        assert max(estimates) <= 10.0  # unit-scale geometry keeps the slope small
        assert max(estimates) <= estimates[-1] * 1.5 + 1e-9


# ---------------------------------------------------------------------------
# The scalar gauge path against the NumPy formulas it replaced


def ref_direction(direction):
    d = np.atleast_1d(np.asarray(direction, dtype=float))
    return d / np.linalg.norm(d)


def ref_outer_bound(approx, direction):
    gaps = np.linalg.norm(approx.directions - ref_direction(direction), axis=1)
    return float(np.min(approx.radii + approx.lipschitz * gaps))


def ref_inner_bound(approx, direction):
    gaps = np.linalg.norm(approx.directions - ref_direction(direction), axis=1)
    return float(max(0.0, np.max(approx.radii - approx.lipschitz * gaps)))


def ref_star_contains(inner, outer, u):
    """(containment, radius of ``u``, [(bound, side)] the radius was compared with)."""
    offset = np.atleast_1d(np.asarray(u, dtype=float)) - inner.center
    r = float(np.linalg.norm(offset))
    if r == 0.0:
        inside = inner.n_samples and float(np.max(inner.radii)) > 0.0
        return (Containment.INSIDE_INNER if inside else Containment.INCONCLUSIVE), r, []
    l = offset / r
    bounds = []
    if inner.n_samples:
        bounds.append((ref_inner_bound(inner, l), inner))
        if r <= bounds[-1][0]:
            return Containment.INSIDE_INNER, r, bounds
    if outer.n_samples:
        bounds.append((ref_outer_bound(outer, l), outer))
        if r > bounds[-1][0]:
            return Containment.OUTSIDE_OUTER, r, bounds
    return Containment.INCONCLUSIVE, r, bounds


ULPS = 4


def near(a, b, approx):
    """``a`` within ULPS ulps of ``b`` at the scale of the bound's terms.

    A bound adds ``r_i`` and ``L * gap_i`` with ``gap_i <= 2``, so a rounding
    of a gap is scaled by ``L``: the scale is the largest of ``|b|``, the
    largest radius and ``L``.
    """
    scale = max(abs(b), float(np.max(approx.radii)), approx.lipschitz)
    return abs(a - b) <= ULPS * np.spacing(scale)


def random_units(rng, k, m):
    v = rng.normal(size=(k, m))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 6), st.integers(1, 6),
       st.sampled_from([0.0, 0.3, 1.0, 4.0, 25.0]))
def test_scalar_gauge_path_matches_numpy_reference(seed, m, k_in, k_out, lipschitz):
    rng = np.random.default_rng(seed)
    lipschitz *= rng.uniform(0.5, 1.5)
    center = rng.uniform(-2, 2, m)
    inner = StarSetApprox(center, lipschitz, random_units(rng, k_in, m),
                          rng.uniform(0.1, 2.0, k_in), Side.INNER)
    outer = StarSetApprox(center, lipschitz, random_units(rng, k_out, m),
                          rng.uniform(1.0, 4.0, k_out), Side.OUTER)
    directions = np.vstack([random_units(rng, 8, m), inner.directions, outer.directions])
    points = []
    for l in directions:
        want_in, want_out = ref_inner_bound(inner, l), ref_outer_bound(outer, l)
        for query_l in (l, l.tolist()):
            assert near(mgf_inner_bound(inner, query_l), want_in, inner)
            assert near(mgf_outer_bound(outer, query_l), want_out, outer)
        # on and near both gauge boundaries, a few ulps apart, and in between
        for bound in (want_in, want_out):
            for step in range(-ULPS - 2, ULPS + 3):
                points.append(center + l * bound * (1.0 + step * np.finfo(float).eps))
        points.append(center + l * rng.uniform(0.0, 1.2) * want_out)
    points.append(center)
    for u in points:
        want, r, bounds = ref_star_contains(inner, outer, u)
        if any(near(r, b, side) for b, side in bounds):
            continue  # a few ulps from a bound either answer is a rounding
        assert star_contains(inner, outer, u) is want
        assert star_contains(inner, outer, u.tolist()) is want


# The scalar gauge path as it was written before the witness loop became
# one evaluator, kept here verbatim in its arithmetic: the evaluator must
# reproduce these bits, not merely come within a few ulps of them.


def plain_norm(v):
    total = 0.0
    for x in v:
        total += x * x
    return math.sqrt(total)


def plain_rows(approx):
    return list(zip(approx.radii.tolist(), approx.directions.tolist()))


def plain_direction(direction):
    d = np.atleast_1d(np.asarray(direction, dtype=float)).tolist()
    n = plain_norm(d)
    return [x / n for x in d]


def plain_outer_bound(approx, direction):
    l, L = plain_direction(direction), approx.lipschitz
    return min(r + L * plain_norm([a - b for a, b in zip(d, l)]) for r, d in plain_rows(approx))


def plain_inner_bound(approx, direction):
    l, L = plain_direction(direction), approx.lipschitz
    return max(0.0, max(r - L * plain_norm([a - b for a, b in zip(d, l)])
                        for r, d in plain_rows(approx)))


def plain_star_contains(inner, outer, u):
    center = inner.center.tolist()
    offset = [x - c for x, c in zip(np.asarray(u, dtype=float).tolist(), center)]
    r = plain_norm(offset)
    if r == 0.0:
        if inner.n_samples and max(inner.radii.tolist()) > 0.0:
            return Containment.INSIDE_INNER
        return Containment.INCONCLUSIVE
    l = [x / r for x in offset]
    if inner.n_samples and r <= plain_inner_bound(inner, l):
        return Containment.INSIDE_INNER
    if outer.n_samples and r > plain_outer_bound(outer, l):
        return Containment.OUTSIDE_OUTER
    return Containment.INCONCLUSIVE


def same_bits(a, b):
    return float(a).hex() == float(b).hex()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 6), st.integers(1, 6),
       st.sampled_from([0.0, 0.3, 1.0, 4.0, 25.0]), st.booleans(), st.booleans())
def test_gauge_evaluator_keeps_the_plain_loop_bits(seed, m, k_in, k_out, lipschitz,
                                                    repeated_radii, at_origin):
    rng = np.random.default_rng(seed)
    # at the origin an axis offset t has radius |t| and direction +-e_j
    # exactly, so points land exactly on a bound and one ulp either side
    center = np.zeros(m) if at_origin else rng.uniform(-2, 2, m)
    if repeated_radii:
        r_in = rng.choice([0.5, 1.0], k_in)
        r_out = rng.choice([1.0, 2.0], k_out)
    else:
        r_in, r_out = rng.uniform(0.1, 2.0, k_in), rng.uniform(1.0, 4.0, k_out)
    inner = StarSetApprox(center, lipschitz, random_units(rng, k_in, m), r_in, Side.INNER)
    outer = StarSetApprox(center, lipschitz, random_units(rng, k_out, m), r_out, Side.OUTER)
    axes = np.vstack([np.eye(m), -np.eye(m)])
    directions = np.vstack([axes, random_units(rng, 6, m), inner.directions,
                            outer.directions])
    points, ties = [center], 0
    for l in directions:
        want_in, want_out = plain_inner_bound(inner, l), plain_outer_bound(outer, l)
        for query_l in (l, l.tolist()):
            assert same_bits(mgf_inner_bound(inner, query_l), want_in)
            assert same_bits(mgf_outer_bound(outer, query_l), want_out)
        for bound in (want_in, want_out):
            if bound > 0.0:  # a zero bound's neighbours are the center's
                for t in (np.nextafter(bound, 0.0), bound, np.nextafter(bound, np.inf)):
                    points.append(center + l * t)
        points.append(center + l * rng.uniform(0.0, 1.2) * want_out)
    for u in points:
        want = plain_star_contains(inner, outer, u)
        assert star_contains(inner, outer, u) is want
        assert star_contains(inner, outer, u.tolist()) is want
        if at_origin and np.count_nonzero(u) == 1:
            j = int(np.flatnonzero(u)[0])
            l = np.sign(u[j]) * np.eye(m)[j]
            r = abs(float(u[j]))
            ties += r in (plain_inner_bound(inner, l), plain_outer_bound(outer, l))
    if at_origin:
        assert ties >= 2 * m  # each axis direction met both its bounds exactly


# The outer-bound repro of the underflow fault: the inner bound is 0 along
# -e_1 and the outer bound 1e-300, so every point on that side beyond 1e-300
# is certified outside, however close to the center.
TINY_INNER = StarSetApprox(np.zeros(2), 1.0, [[1.0, 0.0]], [1.0], Side.INNER)
TINY_OUTER = StarSetApprox(np.zeros(2), 1.0, [[1.0, 0.0], [-1.0, 0.0]], [2.0, 1e-300],
                           Side.OUTER)


@pytest.mark.parametrize("u, want", [
    ([-1e-150, 0.0], Containment.OUTSIDE_OUTER),  # squares in the normal range
    ([-1e-160, 0.0], Containment.OUTSIDE_OUTER),  # subnormal sum of squares
    ([-1e-170, 0.0], Containment.OUTSIDE_OUTER),  # squares underflow to zero
    ([-3e-300, 0.0], Containment.OUTSIDE_OUTER),
    ([-1e-300, 0.0], Containment.INCONCLUSIVE),  # exactly on the outer bound
    ([-5e-324, 0.0], Containment.INCONCLUSIVE),  # within the outer bound, not the inner
    ([1e-170, 0.0], Containment.INSIDE_INNER),
    ([0.0, 0.0], Containment.INSIDE_INNER),  # only the exact center takes the center rule
    ([-0.0, 0.0], Containment.INSIDE_INNER),
])
def test_points_near_the_center_are_classified_along_their_direction(u, want):
    assert star_contains(TINY_INNER, TINY_OUTER, u) is want
    assert star_contains(TINY_INNER, TINY_OUTER, np.array(u)) is want


@pytest.mark.parametrize("center, u", [
    ([0.0, 0.0], [1e200, 1e200]),  # the sum of squares overflows
    ([0.0, 0.0], [1e155, 0.5]),
    ([0.0, 0.0], [-1.7e308, 1.7e308]),
    ([-1e308, 0.0], [1e308, 0.0]),  # the offset itself overflows
    ([1e308, -1e308], [-1e308, 1e308]),
])
def test_points_beyond_float_range_are_outside_every_finite_bound(center, u):
    center = np.array(center)
    inner = StarSetApprox(center, 1.0, [[1.0, 0.0], [0.0, 1.0]], [2.0, 1.0], Side.INNER)
    outer = StarSetApprox(center, 1.0, [[1.0, 0.0]], [3.0], Side.OUTER)
    empty = StarSetApprox(center, 1.0, np.empty((0, 2)), np.empty(0), Side.OUTER)
    assert star_contains(inner, outer, u) is Containment.OUTSIDE_OUTER
    assert star_contains(inner, empty, u) is Containment.INCONCLUSIVE


def test_far_points_are_compared_with_bounds_as_far():
    # a far point is not assumed outside: it is measured against the bounds
    inner = StarSetApprox(np.zeros(2), 1.0, [[1.0, 0.0]], [1e300], Side.INNER)
    outer = StarSetApprox(np.zeros(2), 1.0, [[1.0, 0.0]], [1e301], Side.OUTER)
    assert star_contains(inner, outer, [1e200, 0.0]) is Containment.INSIDE_INNER
    assert star_contains(inner, outer, [1e301, 1e200]) is Containment.INCONCLUSIVE
    assert star_contains(inner, outer, [1e302, 0.0]) is Containment.OUTSIDE_OUTER


@pytest.mark.parametrize("u", [[np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf]])
def test_non_finite_point_is_rejected(u):
    for point in (u, np.array(u)):
        with pytest.raises(ValueError, match="non-finite"):
            star_contains(TINY_INNER, TINY_OUTER, point)


@pytest.mark.parametrize("build, message", [
    (lambda: as_point_set([[0.0, 1.0], [np.nan, 0.0]]), "point set contains non-finite values"),
    (lambda: StarSetApprox(np.zeros(2), 1.0, [[1.0, 0.0], [0.0, 1.0]], [1.0], Side.INNER),
     "directions and radii disagree in length"),
    (lambda: StarSetApprox(np.zeros(2), 1.0, [[1.0, 0.0, 0.0]], [1.0], Side.OUTER),
     "direction dimension does not match center"),
    (lambda: StarSetApprox.from_points([[1.0, 0.0, 0.0]], np.zeros(2), 1.0, Side.INNER),
     "direction dimension does not match center"),
    (lambda: estimate_mgf_lipschitz([[1.0, 0.0], [0.0, 1.0]], [1.0]),
     "directions and radii disagree in length"),
    # numeric strings would parse and a complex part would be dropped
    (lambda: StarSetApprox(["0", "0"], 1.0, [[1.0, 0.0]], [1.0], Side.INNER),
     "center must be real numbers, got dtype <U1"),
    (lambda: StarSetApprox(np.array([0j, 1j]), 1.0, [[1.0, 0.0]], [1.0], Side.INNER),
     "center must be real numbers, got dtype complex128"),
    (lambda: StarSetApprox(np.zeros(2), 1.0, [["1", "0"]], [1.0], Side.OUTER),
     "directions must be real numbers, got dtype <U1"),
    (lambda: StarSetApprox(np.zeros(2), 1.0, [[1.0, 0.0]], ["1"], Side.OUTER),
     "radii must be real numbers, got dtype <U1"),
    (lambda: StarSetApprox.from_points([["1", "0"]], np.zeros(2), 1.0, Side.INNER),
     "point set must be real numbers, got dtype <U1"),
    (lambda: StarSetApprox.from_points([[1.0, 0.0]], ["0", "0"], 1.0, Side.INNER),
     "center must be real numbers, got dtype <U1"),
    (lambda: estimate_mgf_lipschitz([["1", "0"], ["0", "1"]], [1.0, 2.0]),
     "point set must be real numbers, got dtype <U1"),
    (lambda: estimate_mgf_lipschitz([[1.0, 0.0], [0.0, 1.0]], ["1", "2"]),
     "radii must be real numbers, got dtype <U1"),
    (lambda: as_point_set(np.array([[1.0 + 1j, 0.0]])),
     "point set must be real numbers, got dtype complex128"),
])
def test_malformed_witnesses_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("x", [3, 2.5, True, np.float32(3.5), np.int64(3), np.array(2.0),
                               10**30, Fraction(7, 3), Decimal("3")])
def test_positive_takes_any_one_real_number(x):
    assert geometry._positive(x, "x") == float(x)
    assert type(geometry._positive(x, "x")) is float


def frozen_reference(v, ndmin=1):
    """``_frozen``'s general path: every input through ``_real``, then ``np.array``."""
    arr = np.array(geometry._real(v), ndmin=ndmin)
    arr.setflags(write=False)
    return arr


class SubArray(np.ndarray):
    pass


_GRID = np.arange(24.0).reshape(4, 6) - 11.5


@pytest.mark.parametrize("v, ndmin", [
    (_GRID, 1), (_GRID, 2), (np.asfortranarray(_GRID), 1), (_GRID[::2, 1::3], 1),
    (_GRID.T[::-1], 2), (_GRID[:, 2], 1), (np.array([-0.0, np.nan, np.inf, 1e308]), 1),
    (np.array(2.5), 0), (np.empty((0, 3)), 2)])
def test_frozen_copies_a_plain_float64_array_as_the_general_path_does(v, ndmin, monkeypatch):
    expected = frozen_reference(v, ndmin)
    seen = []
    monkeypatch.setattr(geometry, "_real", lambda x: seen.append(x))  # never called
    arr = geometry._frozen(v, "v", ndmin)
    assert not seen
    assert type(arr) is np.ndarray and arr.dtype == expected.dtype
    assert arr.shape == expected.shape and arr.strides == expected.strides
    assert arr.tobytes() == expected.tobytes()
    assert not arr.flags.writeable and v.flags.writeable
    assert not np.shares_memory(arr, v)


@pytest.mark.parametrize("v, ndmin", [
    (np.ma.array([1.0, 2.0], mask=[False, True]), 1), (_GRID.view(SubArray), 1),
    (_GRID.astype(">f8"), 1), (_GRID.astype(np.float32), 1), (np.arange(6), 1),
    (np.array([1.0, 2], dtype=object), 1), (np.array([1.0, 2.0]), 2), (np.array(2.5), 1),
    (2.5, 0), ([1.0, 2.0], 1)])
def test_frozen_takes_every_other_input_through_real(v, ndmin, monkeypatch):
    expected = frozen_reference(v, ndmin)
    real, seen = geometry._real, []
    monkeypatch.setattr(geometry, "_real", lambda x: seen.append(x) or real(x))
    arr = geometry._frozen(v, "v", ndmin)
    assert len(seen) == 1
    assert type(arr) is np.ndarray and arr.dtype == np.float64 and arr.dtype.isnative
    assert arr.shape == expected.shape and arr.strides == expected.strides
    assert arr.tobytes() == expected.tobytes()
    assert not arr.flags.writeable


@pytest.mark.parametrize("x, shown", [
    ("1", "'1'"), (b"1", "b'1'"), (1j, "1j"), (np.complex128(1.0), "(1+0j)"),
    (np.array(1j), "1j"), (np.array("1"), "'1'"), ([3.0], "[3.0]"), (np.ones(2), "[1. 1.]"),
    (None, "None"), (math.nan, "nan"), (math.inf, "inf"), (-1.0, "-1.0"),
    (np.float64(-0.5), "-0.5"),
    # float would parse or truncate what an object array holds
    (np.array("1", dtype=object), "'1'"), (np.array(b"1", dtype=object), "b'1'"),
    (np.array(1j, dtype=object), "1j"),
])
def test_positive_rejects_anything_else(x, shown):
    # math.isfinite takes a complex NumPy scalar, with a ComplexWarning
    for or_zero, bound in ((False, "positive"), (True, "non-negative")):
        message = f"x must be finite and {bound}, got {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            geometry._positive(x, "x", or_zero)
    with pytest.raises(ValueError, match=r"^x must be finite and positive, got 0\.0$"):
        geometry._positive(0.0, "x")
    assert geometry._positive(0.0, "x", or_zero=True) == 0.0


@pytest.mark.parametrize("lipschitz, shown", [
    ("1", "'1'"), (np.complex128(1.0), "(1+0j)"), ([1.0], "[1.0]")])
def test_star_lipschitz_constant_is_one_real_number(lipschitz, shown):
    message = f"Lipschitz constant must be finite and non-negative, got {shown}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        star_from_samples([[1.0, 0.0]], [1.0], Side.INNER, lipschitz)
    star = star_from_samples([[1.0, 0.0]], [1.0], Side.INNER, np.float32(0.5))
    assert type(star.lipschitz) is float and star.lipschitz == 0.5


def test_bundled_reconstruction_sweep_classifies_like_reference(heat_run):
    recon = heat_run[1].reconstruction
    grid = [np.array([a, b]) for a in np.linspace(0.5, 1.5, 41)
            for b in np.linspace(-0.2, 1.2, 141)]
    counts = {c: 0 for c in Containment}
    for mode in recon.modes:
        for u in grid:
            got = star_contains(mode.inner, mode.outer, u)
            assert got is ref_star_contains(mode.inner, mode.outer, u)[0], (u, got)
            counts[got] += 1
    assert all(counts.values())  # every answer occurs in the sweep


def test_replaced_values_never_answer_from_stale_tables(heat_run):
    # the values the benchmark's self-test derives by dataclasses.replace
    recon = heat_run[1].reconstruction
    commands = [np.array([1.0, s]) for s in np.linspace(0.0, 1.0, 201)]
    grid = [np.array([1.0, s]) for s in np.linspace(-0.2, 1.2, 281)]

    def answers(r):
        out = []
        for u in commands:
            try:
                v = viabilize(r, u)
            except UnviableInputError:
                out.append(None)
                continue
            result = query(r, v)
            bound = (lipschitz_error_bound(r, v, 3.0) if result.kind == QueryKind.MAPPED
                     else None)
            out.append((v.tolist(), result.kind, bound))
        out += [star_contains(m.inner, m.outer, u) for m in r.modes for u in grid]
        return out

    before = answers(recon)  # fills every derived table of ``recon``

    def with_maps(linear_scale, shift):
        return dataclasses.replace(recon, modes=tuple(
            dataclasses.replace(mode, map=dataclasses.replace(
                mode.map, linear=linear_scale * mode.map.linear,
                translation=mode.map.translation + shift))
            if mode.identified else mode
            for mode in recon.modes))

    moved = with_maps(1.0, np.array([0.0, 1e-3]))
    scaled = with_maps(1.01, np.zeros(2))
    tight = dataclasses.replace(recon, modes=tuple(
        dataclasses.replace(mode, outer=dataclasses.replace(mode.outer,
                                                            radii=0.9 * mode.outer.radii))
        for mode in recon.modes))
    for changed in (moved, scaled, tight):
        got = answers(changed)
        assert got != before
        # a value built afresh, with nothing derived yet, answers the same
        fresh = dataclasses.replace(changed, modes=tuple(
            dataclasses.replace(mode, inner=dataclasses.replace(mode.inner),
                                outer=dataclasses.replace(mode.outer))
            for mode in changed.modes))
        assert answers(fresh) == got
    assert answers(recon) == before
    # a mode's remembered answer is not carried into a value replaced from it
    for mode, shrunk in zip(recon.modes, tight.modes):
        u = next((u.tolist() for u in grid if star_contains(shrunk.inner, shrunk.outer, u)
                  is not star_contains(mode.inner, mode.outer, u)), None)
        assert u is not None
        answer = mode.containment(u)  # remembered from here on
        replaced = dataclasses.replace(mode, outer=shrunk.outer)
        assert replaced.containment(u) is star_contains(shrunk.inner, shrunk.outer, u)
        assert replaced.containment(u) is not answer
        assert mode.containment(u) is answer
    # the changed maps are inverted as they are, not as they were
    for changed in (moved, scaled):
        for u in commands:
            try:
                v = viabilize(changed, u)
            except UnviableInputError:
                continue
            mode = next((m for m in changed.modes if m.identified and star_contains(
                m.inner, m.outer, v) is Containment.INSIDE_INNER), None)
            if mode is not None:
                np.testing.assert_allclose(mode.map(v), u, rtol=0, atol=1e-9)
