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

        Built on first use, so approximations that are written but never
        queried (those of a run's reconstruction) do not pay for it.
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


class _UnitDirection(list):
    """A unit direction of Python floats that :func:`_classify` made and normalized.

    The gauge bounds take it as it is; any other direction is checked.
    """

    __slots__ = ()


def _query_direction(approx: StarSetApprox, direction) -> list:
    if type(direction) is _UnitDirection:
        return direction
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
    point of another dimension or with a non-finite component raises
    ``ValueError``.
    """
    return _classify(inner, outer, _coords(u, inner.dim, "point"))


def _classify(inner: StarSetApprox, outer: StarSetApprox, point: list) -> Containment:
    """:func:`star_contains` of ``point``, a list of ``inner.dim`` Python floats.

    The offset, radius and unit direction are computed once; the direction
    is normalized as :func:`_query_direction` normalizes it and handed to
    both gauge bounds as a :class:`_UnitDirection`, so neither checks it
    again.  The bounds are called through this module's names, so a
    profiler that rebinds them still sees every call.
    """
    center = inner.center_coords
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
    n = _norm(l)
    l = _UnitDirection(l if n == 1.0 else [x / n for x in l])  # x / 1.0 is x, bit for bit
    if inner.rows and r <= mgf_inner_bound(inner, l):
        return Containment.INSIDE_INNER
    if outer.rows and r > mgf_outer_bound(outer, l):
        return Containment.OUTSIDE_OUTER
    return Containment.INCONCLUSIVE


def interval_hausdorff(lo: float, hi: float, first: float, last: float, gap: float) -> float:
    """Hausdorff distance between ``[lo, hi]`` and a finite set S inside it.

    ``first`` and ``last`` are the least and greatest point of S, ``gap`` the
    widest gap between neighbours (0 for one point).  S lies in the interval,
    so the distance is the farthest a point of the interval is from S, which
    peaks at an end or midway between neighbours.
    """
    return max(first - lo, hi - last, gap / 2)


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
