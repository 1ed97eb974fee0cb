"""Star-shaped set approximations and the interval Hausdorff distance.

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
    """Coerce a non-empty collection of points to a read-only float array (k, d).

    Scalars sequences become column vectors.  Raises ``ValueError`` on empty
    input, inconsistent dimensions or an entry that is not a real number.
    """
    pts = _frozen(points, "point set")
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("point set must be a non-empty (k, d) collection")
    if not np.isfinite(pts).all():
        raise ValueError("point set contains non-finite values")
    return pts


def pairwise_distances(point, table) -> np.ndarray:
    """Euclidean distances from ``point`` (d,) to each row of ``table`` (k, d), shape (k,).

    Squares are summed column by column, the order of
    ``scipy.spatial.distance.cdist``, so the two agree bit for bit.
    """
    d = np.asarray(table, dtype=float) - np.asarray(point, dtype=float)
    d *= d
    acc = d[:, 0].copy()
    for j in range(1, d.shape[1]):
        acc += d[:, j]
    return np.sqrt(acc, out=acc)


class Side(enum.Enum):
    """Whether directional radii under-estimate (INNER) or over-estimate (OUTER)."""

    INNER = "inner"
    OUTER = "outer"


# Enum members are looked up through the class on every access; the served
# path compares against these plain module globals instead.
_INNER, _OUTER = Side.INNER, Side.OUTER


@functools.cache
def _generic_axis(dim: int) -> np.ndarray:
    """A fixed unit axis in ``dim`` dimensions along which no two coordinates weigh alike."""
    axis = np.sqrt(np.arange(1.0, dim + 1.0))
    axis /= _norm(axis.tolist())
    axis.setflags(write=False)
    return axis


def _dedup_samples(directions, radii, side: Side, lipschitz: float):
    """Collapse near-identical directions, keeping the most informative radius.

    Directions are taken in order: one within ``DIRECTION_DEDUP_TOL`` of a
    kept direction folds its radius into the first such (max for INNER, min
    for OUTER); any other is kept.  A folded radius pays the Lipschitz cost
    of its move, ``lipschitz * |l - l_kept|``: less for INNER, more for
    OUTER, so the kept witness claims no more than the gauge allows there.
    A move of cost 0 (a repeat, or ``lipschitz == 0``) leaves the radius's
    bits as they are.  Repeats of a direction always fold into
    the same kept one, so the distinct directions are found first by a
    stable row sort, O(k log k), each with the fold of its own radii.  Two
    directions within the tolerance project within it on a fixed generic
    axis, so they lie in one run of projections no more than twice the
    tolerance apart; the greedy pass runs over the distinct directions of
    each run of two or more, in order, and every other one is kept.
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
    axis = _generic_axis(distinct.shape[1])
    projection = distinct[:, 0] * axis[0]
    for j in range(1, axis.shape[0]):
        projection += distinct[:, j] * axis[j]
    by_projection = np.argsort(projection, kind="stable")
    breaks = np.diff(projection[by_projection]) > 2.0 * DIRECTION_DEDUP_TOL
    if breaks.all():  # also a single distinct direction
        return distinct, distinct_radii
    runs = np.flatnonzero(np.concatenate(([True], breaks, [True])))  # run bounds in by_projection
    leader = np.arange(distinct.shape[0])  # the kept direction each one folds into
    cost = np.zeros(distinct.shape[0])  # the Lipschitz cost of each one's move
    for r in np.flatnonzero(np.diff(runs) > 1).tolist():
        kept: list[int] = []
        for i in np.sort(by_projection[runs[r]:runs[r + 1]]).tolist():  # in first-appearance order
            for lead in kept:
                gap = _norm((distinct[i] - distinct[lead]).tolist())
                if gap <= DIRECTION_DEDUP_TOL:
                    leader[i], cost[i] = lead, lipschitz * gap
                    break
            else:
                kept.append(i)
    moved = cost > 0.0
    distinct_radii[moved] += -cost[moved] if side is Side.INNER else cost[moved]
    is_kept = leader == np.arange(leader.shape[0])
    kept_radii = np.full(int(is_kept.sum()), -np.inf if side is Side.INNER else np.inf)
    fold.at(kept_radii, (np.cumsum(is_kept) - 1)[leader], distinct_radii)
    return distinct[is_kept], kept_radii


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
        center = _frozen(self.center, "center")
        directions = _frozen(self.directions, "directions")
        radii = _frozen(self.radii, "radii")
        if directions.size == 0:
            directions = np.empty((0, center.shape[0]))
            radii = np.empty((0,))
        if directions.ndim == 1:
            directions = directions.reshape(-1, center.shape[0])
        if directions.shape[0] != radii.shape[0]:
            raise ValueError("directions and radii disagree in length")
        if directions.shape[1] != center.shape[0]:
            raise ValueError("direction dimension does not match center")
        lipschitz = _positive(self.lipschitz, "Lipschitz constant", or_zero=True)
        norms = np.linalg.norm(directions, axis=1)
        if directions.shape[0] and np.max(np.abs(norms - 1.0)) > DIRECTION_UNIT_TOL:
            raise ValueError("witness directions must have unit norm")
        if not np.all((radii >= 0) & (radii < np.inf)):
            raise ValueError("radii must be finite and non-negative")
        directions, radii = _dedup_samples(directions, radii, self.side, lipschitz)
        directions.setflags(write=False)
        radii.setflags(write=False)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "lipschitz", lipschitz)
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "radii", radii)

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

    @cached_property
    def reach(self) -> float:
        """The largest witness radius of an INNER side, the smallest of an OUTER side.

        No inner bound exceeds it and no outer bound falls below it, in
        any direction.  A side without witnesses has ``-inf`` (INNER) or
        ``inf`` (OUTER): it certifies nothing and excludes nothing.
        """
        if self.side is _INNER:
            return max(self.radii.tolist(), default=-math.inf)
        return min(self.radii.tolist(), default=math.inf)

    @classmethod
    def from_points(cls, points, center, lipschitz: float, side: Side) -> "StarSetApprox":
        """Build an approximation from witness points in the ambient space.

        Each point ``u`` contributes the pair ``((u - center)/|u - center|,
        |u - center|)``.  Points coinciding with the center carry no
        directional information and are dropped.  The witnesses go through
        the constructor and its checks like any others.
        """
        center = _frozen(center, "center")
        return cls(center, lipschitz, *_witnesses(points, center), side)


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


_NORMAL_MIN = sys.float_info.min  # smallest normal float
_REAL_SCALARS = (int, float, np.bool_, np.integer, np.floating)  # a bool is an int
_NOT_REAL = (str, bytes, complex, np.complexfloating)  # what float parses or truncates
_FLOAT64 = np.dtype(np.float64)


def _real(v) -> np.ndarray:
    """``v`` as a float array; a ``TypeError`` unless every entry is a real number in float range.

    Strings would parse and complex values would lose their imaginary
    part, so bool, integer and float arrays qualify, and so do object
    arrays (an int beyond int64 makes one) of Python or NumPy ints, bools
    and floats.  The message names the dtype, an int too large for a
    float, or rows of different lengths.
    """
    try:
        arr = np.asarray(v)
    except ValueError:  # NumPy's "inhomogeneous shape"
        raise TypeError("rows of different lengths") from None
    if arr.dtype.kind in "biuf":
        return arr.astype(float, copy=False)
    if arr.dtype.kind == "O" and all(isinstance(x, _REAL_SCALARS) for x in arr.flat):
        try:
            return arr.astype(float)
        except OverflowError as exc:  # an int beyond the float range
            raise TypeError(str(exc)) from None
    raise TypeError(f"dtype {arr.dtype}")


def _frozen(v, what: str, ndmin: int = 1) -> np.ndarray:
    """A read-only float copy of ``v`` with at least ``ndmin`` dimensions.

    Anything :func:`_real` rejects is a ``ValueError`` naming ``what``.
    The copy leaves the caller's array writable and unshared.  A plain
    native float64 array of ``ndmin`` or more dimensions is copied as it
    is, which is what the general path gives for it.
    """
    if type(v) is np.ndarray and v.dtype is _FLOAT64 and v.ndim >= ndmin:
        arr = v.copy(order="K")
    else:
        try:
            arr = np.array(_real(v), ndmin=ndmin)
        except TypeError as exc:
            raise ValueError(f"{what} must be real numbers, got {exc}") from None
    arr.setflags(write=False)
    return arr


def _positive(x, what: str, or_zero: bool = False) -> float:
    """``x`` as a float if it is a finite real number above zero, or at zero with ``or_zero``.

    Anything else is a ``ValueError`` naming ``what``, also a string, a complex
    number or several numbers, which ``float`` would parse, truncate or unwrap,
    alone or held in an object array.
    """
    try:
        value = x if type(x) is float else (  # a string, a complex number or several: NaN
            float(x) if not np.ndim(x) and np.asarray(x).dtype.kind in "biufO"
            and not isinstance(np.asarray(x).item(), _NOT_REAL) else math.nan)
        if (value > 0.0 or or_zero and value == 0.0) and value < math.inf:
            return value
    except (TypeError, ValueError, OverflowError):  # also an int beyond the float range
        pass
    item = x.item() if isinstance(x, np.ndarray) and not x.ndim else x
    shown = repr(item) if isinstance(item, str) else x  # a held string quoted as a plain one
    raise ValueError(f"{what} must be finite and {'non-negative' if or_zero else 'positive'}, "
                     f"got {shown}")


def _integer(x, what: str, least: int | None = None) -> int:
    """``x`` as an ``int`` if it is an integer, a NumPy one too, and at least ``least`` (if given).

    Anything else is a ``ValueError`` naming ``what``: a bool, a float even
    when whole, a string, or an integer below ``least``.
    """
    if (isinstance(x, (int, np.integer)) and not isinstance(x, bool)
            and (least is None or x >= least)):
        return int(x)
    kind = ("an integer" if least is None else "a non-negative integer" if least == 0
            else f"an integer of at least {least}")
    raise ValueError(f"{what} must be {kind}, got {x!r}")


def _coords(v, dim: int, what: str) -> list:
    """``v`` as a list of ``dim`` Python floats; a ``ValueError`` for any other shape or dtype."""
    try:
        arr = np.atleast_1d(_real(v))
    except TypeError as exc:
        raise ValueError(f"{what} is not a vector of real numbers: {exc}") from None
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
    """A unit direction that :func:`_classify` normalized; the gauge bounds take it unchecked."""

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

    Each ``(r_i, l_i)`` row gives ``r_i + s * |l - l_i|`` with the slope
    ``s = -L`` (inner) or ``L`` (outer), the gap's squares summed in order
    as :func:`_norm` sums them; ``r + (-L) * g`` is ``r - L * g`` bit for
    bit.  The inner bound is the largest of these and 0.0, the outer bound
    the smallest; ties and NaNs resolve as the builtin ``max``/``min``
    resolve them: the first row is kept until a later one compares
    strictly beyond it.
    """
    sqrt = math.sqrt
    slope = -lipschitz if inner else lipschitz
    bound = None
    for r, d in rows:
        total = 0.0
        for a, b in zip(d, l):
            a -= b
            total += a * a
        r += slope * sqrt(total)
        if bound is None or (r > bound if inner else r < bound):
            bound = r
    return (bound if bound > 0.0 else 0.0) if inner else bound


def mgf_outer_bound(approx: StarSetApprox, direction) -> float:
    """Upper bound on the gauge along ``direction`` from OUTER witnesses.

    Minimum over witnesses of ``r_i + L * |direction - l_i|``.
    """
    if approx.side is not _OUTER:
        raise ValueError("outer bound requires an OUTER-side approximation")
    rows = approx.rows
    if not rows:
        raise ValueError("approximation has no witness samples")
    if type(direction) is not _UnitDirection:
        direction = _query_direction(approx, direction)
    return _cone_bound(rows, direction, approx.lipschitz, False)


def mgf_inner_bound(approx: StarSetApprox, direction) -> float:
    """Lower bound on the gauge along ``direction`` from INNER witnesses.

    Maximum over witnesses of ``max(0, r_i - L * |direction - l_i|)``.
    """
    if approx.side is not _INNER:
        raise ValueError("inner bound requires an INNER-side approximation")
    rows = approx.rows
    if not rows:
        raise ValueError("approximation has no witness samples")
    if type(direction) is not _UnitDirection:
        direction = _query_direction(approx, direction)
    return _cone_bound(rows, direction, approx.lipschitz, True)


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


_INSIDE_INNER = Containment.INSIDE_INNER
_OUTSIDE_OUTER = Containment.OUTSIDE_OUTER
_INCONCLUSIVE = Containment.INCONCLUSIVE


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

    One pass forms the offset and its squared norm; one divides it by the
    radius (by 1.0 for :func:`_polar`'s direction) into a :class:`_UnitDirection`
    and sums its squares in :func:`_norm`'s order, renormalized only off 1.0.
    A bound is evaluated only where its side's ``reach`` leaves the answer
    open (``L·|l − l_i|`` is finite and non-negative, rounding monotone), and
    through this module's names, so a profiler that rebinds them sees each call.
    """
    center = inner.center_coords
    inner_reach, outer_reach = inner.reach, outer.reach
    offset = []
    total = 0.0
    for x, c in zip(point, center):
        x -= c
        offset.append(x)
        total += x * x
    if _NORMAL_MIN <= total < math.inf:
        r = scale = math.sqrt(total)
        if inner_reach < r <= outer_reach:  # neither cone can change the answer
            return _INCONCLUSIVE
    else:  # the center, or squares that underflow, lose precision or overflow
        if not all(map(math.isfinite, point)):
            raise ValueError(f"point has non-finite components: {point}")
        if not any(offset):
            return _INSIDE_INNER if inner_reach > 0.0 else _INCONCLUSIVE
        r, offset = _polar(point, center, offset)
        scale = 1.0  # x / 1.0 is x, bit for bit
    l = _UnitDirection()
    total = 0.0
    for x in offset:
        x /= scale
        l.append(x)
        total += x * x
    n = math.sqrt(total)
    if n != 1.0:
        l = _UnitDirection([x / n for x in l])
    if r <= inner_reach and r <= mgf_inner_bound(inner, l):
        return _INSIDE_INNER
    if r > outer_reach and r > mgf_outer_bound(outer, l):
        return _OUTSIDE_OUTER
    return _INCONCLUSIVE


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
    witnesses with distinct directions.  It disproves a smaller constant only
    for exact gauge values: inner radii bound the gauge from below only, so
    the slope warning a snapshot takes from them is not certified.
    """
    dirs = as_point_set(directions)
    r = _frozen(radii, "radii")
    if dirs.shape[0] != r.shape[0]:
        raise ValueError("directions and radii disagree in length")
    # one row of the symmetric quotient table at a time, each pair once (j < i)
    best = None
    for i in range(1, dirs.shape[0]):
        gaps = pairwise_distances(dirs[i], dirs[:i])
        mask = gaps > DIRECTION_DEDUP_TOL
        if mask.any():
            quotient = np.max(np.abs(r[i] - r[:i])[mask] / gaps[mask])
            best = quotient if best is None else np.maximum(best, quotient)  # keeps a NaN
    if best is None:
        raise ValueError("need at least two distinct directions")
    return float(best)
