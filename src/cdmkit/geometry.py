"""Star-shaped set approximations and point-set distances.

A compact star-shaped set is described by a center and a directional
radius function (its gauge): the set is the union of segments from the
center to ``center + radius(l) * l`` over unit directions ``l``.  When the
gauge is Lipschitz on the unit sphere, finitely many directional radius
witnesses give certified bounds on the gauge in every direction:

* witnesses that are *members* of the set give lower bounds (``Side.INNER``),
* witnesses known to lie at or beyond the boundary give upper bounds
  (``Side.OUTER``).

Both bounds are cones around the witness directions with slope equal to the
Lipschitz constant, minimized (outer) or maximized (inner) over witnesses.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DIRECTION_UNIT_TOL = 1e-12
DIRECTION_DEDUP_TOL = 1e-10


def as_point_set(points) -> np.ndarray:
    """Coerce a non-empty collection of points to a float array (k, d).

    Scalars sequences become column vectors.  Raises ``ValueError`` on empty
    input or inconsistent dimensions.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("point set must be a non-empty (k, d) collection")
    if not np.isfinite(pts).all():
        raise ValueError("point set contains non-finite values")
    return pts


def pairwise_distances(a, b) -> np.ndarray:
    """Euclidean distances between the rows of ``a`` (n, d) and ``b`` (k, d), shape (n, k).

    Squares are summed column by column, the order of
    ``scipy.spatial.distance.cdist``, so the two agree bit for bit.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    acc = np.zeros((a.shape[0], b.shape[0]))
    for j in range(a.shape[1]):
        d = a[:, j, None] - b[:, j]
        d *= d
        acc += d
    return np.sqrt(acc, out=acc)


def set_distance(a, b) -> float:
    """Directed distance between finite point sets.

    Largest distance from a point of ``a`` to its nearest point of ``b``;
    exact for finite sets.
    """
    pa, pb = as_point_set(a), as_point_set(b)
    if pa.shape[1] != pb.shape[1]:
        raise ValueError(
            f"point sets have mismatched dimensions {pa.shape[1]} != {pb.shape[1]}"
        )
    return float(np.max(np.min(pairwise_distances(pa, pb), axis=1)))


def hausdorff_distance(a, b) -> float:
    """Symmetric max of the two directed set distances."""
    return max(set_distance(a, b), set_distance(b, a))


def within_fattening(a, b, rho: float) -> bool:
    """True iff each set lies inside the rho-fattening of the other.

    Equivalent on finite sets to ``hausdorff_distance(a, b) <= rho``.
    """
    if rho < 0:
        raise ValueError(f"fattening radius must be non-negative, got {rho}")
    return set_distance(a, b) <= rho and set_distance(b, a) <= rho


class Side(enum.Enum):
    """Whether directional radii under-estimate (INNER) or over-estimate (OUTER)."""

    INNER = "inner"
    OUTER = "outer"


@functools.cache
def _generic_axis(dim: int) -> np.ndarray:
    """A fixed unit axis in ``dim`` dimensions along which no two coordinates weigh alike."""
    axis = np.sqrt(np.arange(1.0, dim + 1.0))
    axis /= np.linalg.norm(axis)
    axis.setflags(write=False)
    return axis


def _dedup_samples(directions, radii, side: Side):
    """Collapse near-identical directions, keeping the most informative radius.

    Directions are taken in order: one within ``DIRECTION_DEDUP_TOL`` of a
    kept direction folds its radius into the first such (max for INNER, min
    for OUTER); any other is kept.  Repeats of a direction always fold into
    the same kept one, so the distinct directions are found first by a
    stable row sort, O(k log k), each with the fold of its own radii.  When
    their projections on a fixed generic axis are more than twice the
    tolerance apart they are all kept; only otherwise does the greedy pass
    run, over the distinct directions.
    """
    if directions.shape[0] < 2:
        return directions.copy(), radii.copy()
    fold = np.maximum if side is Side.INNER else np.minimum
    order = np.lexsort(directions.T[::-1])  # stable: repeats stay in sample order
    ordered = directions[order]
    starts = np.flatnonzero(np.concatenate(([True], (ordered[1:] != ordered[:-1]).any(axis=1))))
    first = order[starts]  # first sample of each distinct direction
    by_first = np.argsort(first)  # distinct directions by first appearance
    distinct = directions[first[by_first]]
    distinct_radii = fold.reduceat(radii[order], starts)[by_first]
    if distinct.shape[0] < 2:
        return distinct, distinct_radii
    spread = np.diff(np.sort(distinct @ _generic_axis(distinct.shape[1])))
    if (spread > 2.0 * DIRECTION_DEDUP_TOL).all():
        return distinct, distinct_radii
    kept: list[int] = []
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


@dataclass(frozen=True)
class StarSetApprox:
    """One-sided approximation of a star-shaped set from finite witnesses.

    Attributes:
        center: star center, shape (d,).
        lipschitz: Lipschitz constant assumed for the set's gauge on the
            unit sphere (finite, non-negative).
        directions: unit witness directions, shape (k, d).
        radii: finite, non-negative directional radius witnesses, shape
            (k,).  For INNER sides a radius is attainable (witness is a
            member); for OUTER sides the gauge does not exceed it (witness
            lies at or past the boundary).
        side: which bound the witnesses certify.
    """

    center: np.ndarray
    lipschitz: float
    directions: np.ndarray
    radii: np.ndarray
    side: Side

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        directions = np.asarray(self.directions, dtype=float)
        radii = np.atleast_1d(np.asarray(self.radii, dtype=float))
        if directions.size == 0:
            directions = np.empty((0, center.shape[0]))
            radii = np.empty((0,))
        if directions.ndim == 1:
            directions = directions.reshape(-1, center.shape[0])
        if directions.shape[0] != radii.shape[0]:
            raise ValueError("directions and radii disagree in length")
        if directions.shape[1] != center.shape[0]:
            raise ValueError("direction dimension does not match center")
        _check_lipschitz(self.lipschitz)
        norms = np.linalg.norm(directions, axis=1)
        if directions.shape[0] and np.max(np.abs(norms - 1.0)) > DIRECTION_UNIT_TOL:
            raise ValueError("witness directions must have unit norm")
        if not np.all((radii >= 0) & (radii < np.inf)):
            raise ValueError("radii must be finite and non-negative")
        _set_fields(self, center, self.lipschitz,
                    *_dedup_samples(directions, radii, self.side), self.side)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def n_samples(self) -> int:
        return self.radii.shape[0]

    @cached_property
    def rows(self) -> list:
        """The witnesses as ``(radius, direction)`` pairs of Python floats.

        Built on first use, so approximations that are never queried (the
        snapshots of a stream) do not pay for it.
        """
        return list(zip(self.radii.tolist(), self.directions.tolist()))

    @cached_property
    def center_coords(self) -> list:
        """The center as a list of Python floats."""
        return self.center.tolist()

    @classmethod
    def from_points(cls, points, center, lipschitz: float, side: Side) -> "StarSetApprox":
        """Build an approximation from witness points in the ambient space.

        Each point ``u`` contributes the pair ``((u - center)/|u - center|,
        |u - center|)``.  Points coinciding with the center carry no
        directional information and are dropped.  The witnesses are unit
        by construction, so only what a point can break is checked.
        """
        center = np.atleast_1d(np.asarray(center, dtype=float))
        _check_lipschitz(lipschitz)
        dirs, radii = _witnesses(points, center)
        return _set_fields(object.__new__(cls), center, lipschitz,
                           *_dedup_samples(dirs, radii, side), side)

    def with_witness(self, point) -> "StarSetApprox":
        """This approximation with the witness of one more point folded in.

        Equals :meth:`from_points` over the earlier witness points and
        ``point`` together, at the cost of one direction: the new direction
        folds into the first kept direction within ``DIRECTION_DEDUP_TOL``
        by the test :func:`_dedup_samples` applies (an exact repeat is
        within it), and is appended otherwise.  Returns ``self`` when the
        point changes nothing: it is the center, or its radius does not
        improve the one it folds into.
        """
        dirs, radii = _witnesses(np.reshape(point, (1, -1)), self.center)
        if not radii.shape[0]:
            return self
        l, r = dirs[0], radii[0]
        # a row's largest component gap never exceeds its computed norm, so
        # the rows it rules out fail the norm test too
        gaps = np.abs(self.directions - l).max(axis=1)
        for j in np.flatnonzero(gaps <= DIRECTION_DEDUP_TOL).tolist():
            if gaps[j] == 0.0 or np.linalg.norm(l - self.directions[j]) <= DIRECTION_DEDUP_TOL:
                kept = self.radii[j]
                if (r > kept) if self.side is Side.INNER else (r < kept):
                    radii = self.radii.copy()
                    radii[j] = r
                    return _set_fields(object.__new__(StarSetApprox), self.center,
                                       self.lipschitz, self.directions, radii, self.side)
                return self
        return _set_fields(object.__new__(StarSetApprox), self.center, self.lipschitz,
                           np.concatenate([self.directions, dirs]),
                           np.concatenate([self.radii, radii]), self.side)


def _check_lipschitz(lipschitz) -> None:
    if not (math.isfinite(lipschitz) and lipschitz >= 0):
        raise ValueError(f"Lipschitz constant must be finite and non-negative, "
                         f"got {lipschitz}")


def _set_fields(star: StarSetApprox, center, lipschitz, directions, radii, side: Side):
    """Store checked, de-duplicated witnesses in ``star``, read-only; return it."""
    for arr in (center, directions, radii):
        arr.setflags(write=False)
    object.__setattr__(star, "center", center)
    object.__setattr__(star, "lipschitz", float(lipschitz))
    object.__setattr__(star, "directions", directions)
    object.__setattr__(star, "radii", radii)
    object.__setattr__(star, "side", side)
    return star


def _witnesses(points, center: np.ndarray):
    """Unit directions and radii of ``points`` about ``center``.

    Points coinciding with the center carry no direction and are dropped;
    an offset beyond float range is a ``ValueError``.
    """
    offsets = as_point_set(points)
    if offsets.shape[1] != center.shape[0]:
        raise ValueError("direction dimension does not match center")
    offsets = offsets - center
    norms = np.sqrt(np.add.reduce(offsets * offsets, axis=1))  # np.linalg.norm's arithmetic
    if np.isinf(norms).any():
        raise ValueError("radii must be finite and non-negative")
    keep = norms > 1e-15
    if not keep.all():
        offsets, norms = offsets[keep], norms[keep]
    offsets /= norms[:, None]
    return offsets, norms


_FLOAT_ONLY = frozenset((float,))
_NORMAL_MIN = sys.float_info.min  # smallest normal float


def _coords(v, dim: int, what: str) -> list:
    """``v`` as a list of ``dim`` Python floats; a ``ValueError`` for any other shape.

    Such a list is returned as it is.
    """
    if type(v) is list and len(v) == dim and set(map(type, v)) == _FLOAT_ONLY:
        return v
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.shape != (dim,):
        raise ValueError(f"{what} dimension mismatch")
    return arr.tolist()


def _norm(v) -> float:
    """Euclidean norm with ``np.linalg.norm(axis=1)``'s arithmetic.

    The squares are summed in order, as NumPy reduces a short row; on these
    tiny vectors plain floats avoid NumPy's per-call overhead.
    """
    total = 0.0
    for x in v:
        total += x * x
    return math.sqrt(total)


def _query_direction(approx: StarSetApprox, direction) -> list:
    d = _coords(direction, approx.center.shape[0], "query direction")
    n = _norm(d)
    if not abs(n - 1.0) <= 1e-9:  # also rejects a non-finite direction
        raise ValueError(f"query direction must be a unit vector, |l| = {n}")
    return d if n == 1.0 else [x / n for x in d]  # x / 1.0 is x, bit for bit


def _cone_bound(rows: list, l: list, lipschitz: float, inner: bool) -> float:
    """The gauge bound along the unit direction ``l`` from witness ``rows``.

    Each ``(r_i, l_i)`` row gives ``r_i - L * |l - l_i|`` (inner) or
    ``r_i + L * |l - l_i|`` (outer), the gap's squares summed in order as
    :func:`_norm` sums them.  The inner bound is the largest of these and
    0.0, the outer bound the smallest; ties and NaNs resolve as the
    builtin ``max``/``min`` resolve them.
    """
    bound = None
    for r, d in rows:
        total = 0.0
        for a, b in zip(d, l):
            a -= b
            total += a * a
        gap = lipschitz * math.sqrt(total)
        if inner:
            r -= gap
            if bound is None or r > bound:
                bound = r
        else:
            r += gap
            if bound is None or r < bound:
                bound = r
    return bound if not inner or bound > 0.0 else 0.0


def mgf_outer_bound(approx: StarSetApprox, direction) -> float:
    """Upper bound on the gauge along ``direction`` from OUTER witnesses.

    Minimum over witnesses of ``r_i + L * |direction - l_i|``.
    """
    if approx.side is not Side.OUTER:
        raise ValueError("outer bound requires an OUTER-side approximation")
    rows = approx.rows
    if not rows:
        raise ValueError("approximation has no witness samples")
    return _cone_bound(rows, _query_direction(approx, direction), approx.lipschitz, False)


def mgf_inner_bound(approx: StarSetApprox, direction) -> float:
    """Lower bound on the gauge along ``direction`` from INNER witnesses.

    Maximum over witnesses of ``max(0, r_i - L * |direction - l_i|)``.
    """
    if approx.side is not Side.INNER:
        raise ValueError("inner bound requires an INNER-side approximation")
    rows = approx.rows
    if not rows:
        raise ValueError("approximation has no witness samples")
    return _cone_bound(rows, _query_direction(approx, direction), approx.lipschitz, True)


def _polar(point: list, center: list, offset: list):
    """Radius and unit direction of ``offset = point - center`` whose squares leave float range.

    The offset is divided by its largest component before its norm is
    taken, so a tiny offset keeps a positive radius and a huge one a
    direction.  An offset with a component beyond float range is taken
    from the halved point and center; its radius is ``inf``.
    """
    far = not all(map(math.isfinite, offset))
    if far:
        offset = [x * 0.5 - c * 0.5 for x, c in zip(point, center)]
    scale = max(map(abs, offset))
    unit = [x / scale for x in offset]
    n = _norm(unit)
    return math.inf if far else scale * n, [x / n for x in unit]


class Containment(enum.Enum):
    INSIDE_INNER = "inside-inner"
    OUTSIDE_OUTER = "outside-outer"
    INCONCLUSIVE = "inconclusive"


def star_contains(inner: StarSetApprox, outer: StarSetApprox, u) -> Containment:
    """Classify a point against paired inner/outer approximations.

    INSIDE_INNER certifies membership of the underlying set, OUTSIDE_OUTER
    certifies non-membership, INCONCLUSIVE is the gap between the bounds.
    The pair must share a center (checked once by ``ModeReconstruction``,
    not per call).  An inner side without witnesses certifies nothing and
    an outer side without witnesses excludes nothing.  At the center itself
    the direction is undefined; the point is INSIDE_INNER whenever the
    inner bound is positive at some witness direction.  Any other point is
    compared along its own direction, however near or far: one farther
    than the largest float is OUTSIDE_OUTER of any finite outer bound.  A
    non-finite point raises ``ValueError``.
    """
    center = inner.center_coords
    point = _coords(u, len(center), "point")
    offset = [x - c for x, c in zip(point, center)]
    total = 0.0
    for x in offset:
        total += x * x
    if _NORMAL_MIN <= total < math.inf:
        r = math.sqrt(total)
        l = [x / r for x in offset]
    else:  # the center, or squares that underflow, lose precision or overflow
        if not all(map(math.isfinite, point)):
            raise ValueError(f"point has non-finite components: {point}")
        if not any(offset):
            if inner.rows and max(r_i for r_i, _ in inner.rows) > 0.0:
                return Containment.INSIDE_INNER
            return Containment.INCONCLUSIVE
        r, l = _polar(point, center, offset)
    if inner.rows and r <= mgf_inner_bound(inner, l):
        return Containment.INSIDE_INNER
    if outer.rows and r > mgf_outer_bound(outer, l):
        return Containment.OUTSIDE_OUTER
    return Containment.INCONCLUSIVE


def _halton(count: int, dims: int, seed: int) -> np.ndarray:
    """The first ``count`` points of a digit-permuted Halton sequence in ``[0, 1)^dims``.

    Coordinate j writes the point index in the j-th prime base p and
    reflects its digits about the radix point, each digit first mapped by
    one permutation of ``0..p-1`` drawn from ``seed``; the permutation
    breaks up the correlation of the plain sequence between large bases.
    """
    rng = np.random.default_rng(seed)
    primes: list[int] = []
    candidate = 2
    while len(primes) < dims:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    points = np.zeros((count, dims))
    for j, base in enumerate(primes):
        perm = rng.permutation(base)
        digits = 1
        while base**digits < count:
            digits += 1
        rest = np.arange(count)
        weight = 1.0 / base
        for _ in range(digits):
            points[:, j] += perm[rest % base] * weight
            rest //= base
            weight /= base
    return points


def _region_probes(region: StarSetApprox, probe_count: int, seed: int) -> np.ndarray:
    """Quasi-random probe points filling an OUTER-side region approximation."""
    d = region.dim
    pairs = (d + 1) // 2
    raw = _halton(probe_count, 2 * pairs + 1, seed)
    if d == 1:
        dirs = np.where(raw[:, :1] < 0.5, -1.0, 1.0)
    else:
        # Box-Muller: each pair of uniforms gives two independent normals,
        # and normalized normals are uniform directions
        length = np.sqrt(-2.0 * np.log1p(-raw[:, :pairs]))  # 1 - u > 0
        angle = 2.0 * np.pi * raw[:, pairs:2 * pairs]
        gauss = np.hstack([length * np.cos(angle), length * np.sin(angle)])[:, :d]
        norms = np.linalg.norm(gauss, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        dirs = gauss / norms
    frac = raw[:, -1] ** (1.0 / d)
    gaps = pairwise_distances(dirs, region.directions)
    radii = np.min(region.radii + region.lipschitz * gaps, axis=1)
    return region.center + dirs * (frac * radii)[:, None]


def covering_radius(samples, region: StarSetApprox, probe_count: int, seed: int) -> float:
    """Estimate the smallest radius at which balls on ``samples`` cover ``region``.

    Probes the region at ``probe_count`` quasi-random points and returns the
    largest probe-to-sample distance.  The estimate never exceeds the true
    covering radius and is non-increasing as samples are added for a fixed
    region, probe count, and seed.
    """
    if probe_count <= 0:
        raise ValueError("probe_count must be positive")
    if region.side is not Side.OUTER:
        raise ValueError("region must be an OUTER-side approximation")
    pts = as_point_set(samples)
    if pts.shape[1] != region.dim:
        raise ValueError("sample dimension does not match region")
    probes = _region_probes(region, probe_count, seed)
    return float(np.max(np.min(pairwise_distances(probes, pts), axis=1)))


def estimate_mgf_lipschitz(directions, radii) -> float:
    """Empirical lower estimate of a gauge's Lipschitz constant.

    Largest pairwise difference quotient ``|r_i - r_j| / |l_i - l_j|`` over
    witnesses with distinct directions.  Useful as a sanity check on a
    user-supplied constant: if the estimate exceeds it, the supplied value
    is certainly too small.
    """
    dirs = as_point_set(directions)
    r = np.atleast_1d(np.asarray(radii, dtype=float))
    if dirs.shape[0] != r.shape[0]:
        raise ValueError("directions and radii disagree in length")
    gaps = pairwise_distances(dirs, dirs)
    diffs = np.abs(r[:, None] - r[None, :])
    mask = gaps > DIRECTION_DEDUP_TOL
    if not np.any(mask):
        raise ValueError("need at least two distinct directions")
    return float(np.max(diffs[mask] / gaps[mask]))


def interval_region(lo: float, hi: float, side: Side = Side.OUTER) -> StarSetApprox:
    """Exact star-set description of the interval [lo, hi] about its midpoint."""
    if hi < lo:
        raise ValueError("interval is empty")
    half = (hi - lo) / 2.0
    return StarSetApprox(
        center=np.array([(lo + hi) / 2.0]),
        lipschitz=0.0,
        directions=np.array([[1.0], [-1.0]]),
        radii=np.array([half, half]),
        side=side,
    )

