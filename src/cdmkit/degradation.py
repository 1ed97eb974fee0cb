"""Ground-truth input-degradation models.

A degradation map remaps a commanded input vector before the system's input
matrix acts on it.  This module provides the map families used by the
simulator and as oracles in tests: plain affine maps, multi-mode conditional
maps (one affine map per disjoint region, identity elsewhere), and the
bundled heat-probe example with a three-branch piecewise-linear depth
response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .geometry import _frozen, _integer, _positive


def _affine_image(shift: list, rows: list, u: list) -> list:
    """``shift + rows @ u`` for lists of Python floats, in no BLAS kernel's rounding.

    Each row is summed in :class:`NModeCdm`'s order (and OpenBLAS
    Prescott's): its first product, ``+=`` the others in order, then the
    shift.  An overflow gives ``inf`` or ``nan`` without a warning.
    """
    image = []
    columns = range(1, len(u))
    for t, row in zip(shift, rows):
        acc = row[0] * u[0]
        for j in columns:
            acc += row[j] * u[j]
        image.append(t + acc)
    return image


@dataclass(frozen=True)
class AffineMap:
    """Square affine map ``u -> translation + linear @ u``."""

    linear: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        linear = _frozen(self.linear, "linear part", ndmin=0)
        translation = _frozen(self.translation, "translation")
        if linear.ndim == 0:
            linear = linear.reshape(1, 1)
        if linear.ndim != 2 or linear.shape[0] != linear.shape[1]:
            raise ValueError("linear part must be a square matrix")
        if translation.shape[0] != linear.shape[0]:
            raise ValueError("translation dimension does not match linear part")
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "translation", translation)

    @property
    def dim(self) -> int:
        return self.linear.shape[0]

    @cached_property
    def tables(self) -> tuple:
        """The translation and the linear rows as lists for :func:`_affine_image`, built on first use."""
        return self.translation.tolist(), self.linear.tolist()

    def __call__(self, u) -> np.ndarray:
        """Evaluate ``translation + linear @ u`` at the vector ``u`` by :func:`_affine_image`."""
        vec = _frozen(u, "input")
        if vec.shape != (self.dim,):
            raise ValueError(f"input shape {vec.shape} != map dimension ({self.dim},)")
        return np.array(_affine_image(*self.tables, vec.tolist()))


# ---------------------------------------------------------------------------
# Regions: exact membership predicates for ground-truth affected sets, the
# two kinds a config declares.  Each region tests the rows of a ``(k, m)``
# array at once.


@dataclass(frozen=True)
class IntervalRegion:
    """Slab region testing one input coordinate against an interval."""

    axis: int
    lo: float
    hi: float
    closed_lo: bool = True
    closed_hi: bool = True

    def __post_init__(self):
        _integer(self.axis, "interval axis", least=0)
        if _frozen([self.lo, self.hi], "interval ends").shape != (2,):
            raise ValueError("interval ends must be two real numbers")
        if not (self.lo < self.hi or self.lo == self.hi and self.closed_lo and self.closed_hi):
            raise ValueError(f"interval region [{self.lo}, {self.hi}] is empty")

    def contains_rows(self, U: np.ndarray) -> np.ndarray:
        c = U[:, self.axis]
        above = c >= self.lo if self.closed_lo else c > self.lo
        below = c <= self.hi if self.closed_hi else c < self.hi
        return above & below


@dataclass(frozen=True)
class BallRegion:
    """Closed Euclidean ball."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = _frozen(self.center, "ball center")
        if not np.isfinite(center).all():
            raise ValueError("ball center must be finite")
        _positive(self.radius, "radius", or_zero=True)
        object.__setattr__(self, "center", center)

    def contains_rows(self, U: np.ndarray) -> np.ndarray:
        # a row too far out for its norm's squares to stay finite is outside
        with np.errstate(over="ignore"):
            return np.linalg.norm(U - self.center, axis=1) <= self.radius


def _ball_meets(ball: BallRegion, lo, hi, closed_lo, closed_hi) -> bool:
    """Whether ``ball`` meets the box ``[lo, hi]`` (ends closed as given), by its clipped center.

    Strictly inside the ball, a neighbourhood of it is too and meets the box's interior.
    """
    nearest = np.clip(ball.center, lo, hi)
    gap = float(np.linalg.norm(nearest - ball.center))
    held = np.all(((nearest > lo) | closed_lo) & ((nearest < hi) | closed_hi))
    return bool(gap < ball.radius and np.all(lo < hi) or gap <= ball.radius and held)


def _bounds(region, dim: int):
    """``(lo, hi, closed_lo, closed_hi)`` of the region's bounding box; an interval is a slab."""
    if isinstance(region, IntervalRegion):
        on = np.arange(dim) == region.axis
        return (np.where(on, region.lo, -np.inf), np.where(on, region.hi, np.inf),
                ~on | region.closed_lo, ~on | region.closed_hi)
    closed = np.ones(dim, dtype=bool)
    return region.center - region.radius, region.center + region.radius, closed, closed


def regions_overlap(a, b) -> bool:
    """Whether two regions share a point, decided exactly for every pair of kinds."""
    if isinstance(b, BallRegion):
        a, b = b, a
    if isinstance(b, BallRegion):
        return bool(np.linalg.norm(a.center - b.center) <= a.radius + b.radius)
    if isinstance(a, BallRegion):
        return _ball_meets(a, *_bounds(b, a.center.shape[0]))
    if a.axis != b.axis:
        return True  # slabs across two axes always cross
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    # an end of the common interval is closed when each interval holding it there is
    closed_lo = (a.closed_lo or a.lo < lo) and (b.closed_lo or b.lo < lo)
    closed_hi = (a.closed_hi or a.hi > hi) and (b.closed_hi or b.hi > hi)
    return bool(lo < hi or lo == hi and closed_lo and closed_hi)


# ---------------------------------------------------------------------------
# Multi-mode conditional degradation maps.


@dataclass(frozen=True)
class NModeCdm:
    """Finitely many affine modes acting on pairwise disjoint regions.

    Inputs in no region pass through unchanged.
    """

    modes: tuple

    def __post_init__(self):
        modes = tuple((region, q) for region, q in self.modes)
        dims = {q.dim for _, q in modes}
        if len(dims) > 1:
            raise ValueError("all mode maps must share one input dimension")
        for i in range(len(modes)):
            for j in range(i + 1, len(modes)):
                if regions_overlap(modes[i][0], modes[j][0]):
                    raise ValueError(f"mode regions {i} and {j} overlap")
        object.__setattr__(self, "modes", modes)

    @property
    def dim(self) -> Optional[int]:
        return self.modes[0][1].dim if self.modes else None

    def __call__(self, u) -> np.ndarray:
        """Map each row of a ``(k, m)`` array by the unique mode whose region holds it.

        Rows in no region pass through unchanged.  A single input vector is a
        batch of one and comes back as a vector.  Each row is evaluated as
        ``translation + sum_j linear[:, j] * u_j`` with elementwise operations,
        so its result does not depend on the batch it came in (a BLAS product
        rounds one row differently from several).  The operations run on
        contiguous columns of the inputs, each restricted by ``where=`` to the
        mode's rows, so a row in no region is never multiplied.  The result
        is C-ordered: :func:`~cdmkit.simulation.integrate` hands its row slices
        to BLAS, and NumPy multiplies Fortran-ordered ones in its own loop,
        which rounds differently.
        """
        U = _frozen(u, "input", ndmin=2)
        if self.dim is not None and U.shape[1] != self.dim:
            raise ValueError(f"input dimension {U.shape[1]} != map dimension {self.dim}")
        E = U.copy()
        columns = U.T.copy()  # columns[j] is every row's u_j, contiguous
        image, term = np.empty_like(columns), np.empty_like(columns)
        taken = np.zeros(U.shape[0], dtype=bool)
        for region, q in self.modes:
            mask = region.contains_rows(U)
            if not mask.any():
                continue
            if (taken & mask).any():
                raise ValueError("input belongs to multiple mode regions")
            taken |= mask
            # image[i] = u_0 L[i, 0] + u_1 L[i, 1] + ..., summed in that order
            np.multiply(columns[0], q.linear[:, :1], out=image, where=mask)
            for j in range(1, q.dim):
                np.multiply(columns[j], q.linear[:, j:j + 1], out=term, where=mask)
                np.add(image, term, out=image, where=mask)
            np.add(q.translation[:, None], image, out=E.T, where=mask)
        return E if np.ndim(u) == 2 else E[0]


def _clipped_box(region, lo, hi):
    """Closed bounding box of ``region`` within ``[lo, hi]``; None when the region misses it."""
    if isinstance(region, BallRegion) and not _ball_meets(region, lo, hi, True, True):
        return None
    rlo, rhi, _, _ = _bounds(region, lo.shape[0])
    rlo, rhi = np.maximum(lo, rlo), np.minimum(hi, rhi)
    return None if np.any(rlo > rhi) else (rlo, rhi)


def _bvls(A: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Minimize ``|A x - b|`` over the box ``lo <= x <= hi`` (``lo <= hi``).

    Bounded-variable least squares (Stark & Parker 1995), an active-set
    method: each coordinate is free or held at one of its bounds.  The free
    ones move by the minimum-norm least-squares step toward the best point
    of their subspace, stopping at the first bound crossed, which then
    holds that coordinate; at the subspace optimum the held coordinate whose
    gradient most wants to move inward is freed.  The gradient of a freshly
    freed coordinate is the only nonzero one of its subspace, so the step
    moves it inward even when ``A`` is rank deficient.  A coordinate with
    ``lo == hi`` is never freed.

    Returns ``x`` and its KKT certificate ``g = A^T (A x - b)``: within
    round-off, ``g`` is zero where ``lo < x < hi``, non-negative where
    ``x == lo`` and non-positive where ``x == hi`` (no sign at pinned
    coordinates).  Since the objective is convex, that makes ``x`` optimal.
    """
    n = A.shape[1]
    x = np.clip(np.zeros(n), lo, hi)
    state = np.where(x == lo, -1, np.where(x == hi, 1, 0))  # held low, held high, free
    eps = np.finfo(float).eps
    for _ in range(100 * (n + 1)):
        free = np.flatnonzero(state == 0)
        if free.size:
            z = x[free] + np.linalg.lstsq(A[:, free], b - A @ x, rcond=None)[0]
            target = np.clip(z, lo[free], hi[free])
            if np.array_equal(target, z):
                x[free] = z
            else:
                # the largest step along x -> z that keeps every coordinate in its box
                crossed = target != z
                ratios = np.full(free.size, np.inf)
                ratios[crossed] = (target - x[free])[crossed] / (z - x[free])[crossed]
                alpha = max(0.0, float(ratios.min()))
                x[free] = np.clip(x[free] + alpha * (z - x[free]), lo[free], hi[free])
                held = ratios <= alpha
                x[free[held]] = target[held]
                state[free[held]] = np.where(target[held] == lo[free[held]], -1, 1)
                continue
        g = A.T @ (A @ x - b)
        violation = np.where(state == -1, -g, np.where(state == 1, g, 0.0))
        violation[lo == hi] = 0.0
        scale = np.linalg.norm(A) * (np.linalg.norm(A) * np.linalg.norm(x) + np.linalg.norm(b))
        j = int(np.argmax(violation))
        if violation[j] <= 16 * n * eps * scale:
            return x, g
        state[j] = 0
    raise ArithmeticError("bounded least squares did not converge")


def _graph_system(q1: AffineMap, box1, q2: AffineMap, box2):
    """``M, b, lo, hi`` of the distance between two graphs: ``|M z - b|`` over ``lo <= z <= hi``.

    For ``z = (u1, u2)``, ``M z - b = (u1 - u2, Q1 u1 + c1 - Q2 u2 - c2)``.
    """
    eye = np.eye(q1.dim)
    M = np.block([[eye, -eye], [q1.linear, -q2.linear]])
    b = np.concatenate([np.zeros(q1.dim), q2.translation - q1.translation])
    return M, b, np.concatenate([box1[0], box2[0]]), np.concatenate([box1[1], box2[1]])


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_STEPS = 44  # golden-section steps per multiplier: GOLDEN^44 < 1e-9
SEPARATION_GAP_TOL = 1e-9


def _into_ball(u, p, ball: BallRegion):
    """The point nearest ``u`` on the segment to ``p`` (in ``ball``) that passes the ball's test.

    The segment is cut at a sphere a hair inside the ball, against rounding.
    """
    c, r = ball.center, ball.radius
    if np.linalg.norm(u - c) <= r:
        return u
    d, e = p - u, u - c
    h, k = e @ d, e @ e - (r * (1.0 - 1e-12)) ** 2
    root = -h + math.sqrt(max(h * h - (d @ d) * k, 0.0))  # k / root is the smaller root
    w = u + min(1.0, k / root) * d if root > 0.0 else p
    return w if np.linalg.norm(w - c) <= r else p


def _graph_bounds(M, b, lo, hi, balls) -> tuple:
    """Lower and upper bound on ``min |M z - b|`` over the box ``[lo, hi]`` and ``balls``.

    Without a ball this is one exact :func:`_bvls` solve, and both bounds
    are its value.  Each of ``balls``, ``(columns, ball, p)``,
    constrains ``z[columns]``; ``p`` is a point of the box in the ball.  By
    weak duality one solve with the rows ``sqrt(lam_k) (z_k - c_k)``
    appended, less ``sum lam_k r_k^2``, bounds the squared minimum from below
    for any ``lam >= 0``; the KKT certificate ``g`` keeps that safe for an
    inexact minimizer, since over the box ``F >= F(z) + 2 sum_i min(g_i (lo_i
    - z_i), g_i (hi_i - z_i))``.  ``z`` pulled into the balls bounds it from
    above.  A golden-section search over ``lam = |M|^2 t / (1 - t)``, nested
    for two balls, stops once the two meet within ``SEPARATION_GAP_TOL``.
    """
    scale = np.linalg.norm(M) ** 2
    rows = [np.eye(M.shape[1])[columns] for columns, _, _ in balls]
    bounds = [0.0, math.inf]

    def done():
        return bounds[1] - bounds[0] <= SEPARATION_GAP_TOL * max(1.0, bounds[1])

    def dual(lams):
        roots = np.sqrt(lams)
        A = np.vstack([M] + [root * row for root, row in zip(roots, rows)])
        y = np.concatenate([b] + [root * ball.center for root, (_, ball, _) in zip(roots, balls)])
        z, g = _bvls(A, y, lo, hi)
        res = A @ z - y
        value = (res @ res + 2.0 * np.minimum(g * (lo - z), g * (hi - z)).sum()
                 - sum(lam * ball.radius ** 2 for lam, (_, ball, _) in zip(lams, balls)))
        w = z.copy()
        for columns, ball, p in balls:
            w[columns] = _into_ball(z[columns], p, ball)
        bounds[0] = max(bounds[0], math.sqrt(max(value, 0.0)))
        bounds[1] = min(bounds[1], float(np.linalg.norm(M @ w - b)))
        return value

    def search(lams):
        """Best dual value over the multipliers after ``lams``; at ``t = 0`` first."""
        if len(lams) == len(balls):
            return dual(lams)

        def f(t):
            return search(lams + [scale * t / (1.0 - t)])

        lo_t, hi_t, best = 0.0, 1.0, f(0.0)
        x1, x2 = 1.0 - GOLDEN, GOLDEN
        f1, f2 = f(x1), f(x2)
        for _ in range(GOLDEN_STEPS):
            if done():
                break
            if f1 < f2:
                lo_t, x1, f1 = x1, x2, f2
                x2 = lo_t + GOLDEN * (hi_t - lo_t)
                f2 = f(x2)
            else:
                hi_t, x2, f2 = x2, x1, f1
                x1 = hi_t - GOLDEN * (hi_t - lo_t)
                f1 = f(x1)
        return max(best, f1, f2)

    search([])
    # without a ball the one solve is exact; with one, rounding can lift the
    # lower bound past the upper one
    return min(bounds) if balls else bounds[1], bounds[1]


def _pair_bounds(mode1, box1, mode2, box2) -> tuple:
    """Bounds on the distance between two mode graphs in their boxes (:func:`_graph_bounds`).

    A ball that holds its whole box (a 1-D ball does) adds no constraint.
    """
    (region1, q1), (region2, q2) = mode1, mode2
    balls = [(slice(k * q1.dim, (k + 1) * q1.dim), region, np.clip(region.center, blo, bhi))
             for k, (region, (blo, bhi)) in enumerate(((region1, box1), (region2, box2)))
             if isinstance(region, BallRegion) and np.linalg.norm(
                 np.maximum(region.center - blo, bhi - region.center)) > region.radius]
    return _graph_bounds(*_graph_system(q1, box1, q2, box2), balls)


def mode_separation(cdm: NModeCdm, box_lo, box_hi) -> Optional[tuple]:
    """Lower and upper bound on the distance between distinct mode graphs in a box.

    The distance is the least over mode pairs of the infimum of ``|(u1, Q1 u1)
    - (u2, Q2 u2)|``, each ``u`` in its region within ``[box_lo, box_hi]``:
    exact (both bounds equal) for interval regions, within
    ``SEPARATION_GAP_TOL`` with a ball.  None when under two modes meet the box.
    """
    lo, hi = _frozen(box_lo, "box_lo"), _frozen(box_hi, "box_hi")
    boxes = [_clipped_box(region, lo, hi) for region, _ in cdm.modes]
    pairs = [_pair_bounds(cdm.modes[i], boxes[i], cdm.modes[j], boxes[j])
             for i in range(len(boxes)) for j in range(i + 1, len(boxes))
             if boxes[i] is not None and boxes[j] is not None]
    return (min(p[0] for p in pairs), min(p[1] for p in pairs)) if pairs else None


# ---------------------------------------------------------------------------
# Bundled heat-probe example: piecewise-linear depth-channel degradation.


def heat_depth_response(p):
    """Effective depth-rate produced by a commanded depth-rate ``p``.

    Three branches: ``0.25 + 3 p`` below 0.25, identity on [0.25, 0.75],
    ``2.5 - 2 p`` above 0.75.  Vectorized.
    """
    p = _frozen(p, "depth rate", ndmin=0)
    return np.where(p < 0.25, 0.25 + 3.0 * p, np.where(p > 0.75, 2.5 - 2.0 * p, p))


def heat_example_cdm() -> NModeCdm:
    """Two-input degradation of the heat-probe testbed.

    Channel 0 (source power) passes through; channel 1 (depth rate) follows
    :func:`heat_depth_response`.  The two non-identity branches become the
    affine modes; the identity mid-interval needs no mode.  Their graphs
    are 0.5 apart over the unit depth range, in the limit toward the
    breakpoints 0.25 and 0.75, where both branches approach 1.
    """
    shallow = AffineMap(np.diag([1.0, 3.0]), np.array([0.0, 0.25]))
    deep = AffineMap(np.diag([1.0, -2.0]), np.array([0.0, 2.5]))
    return NModeCdm(
        modes=(
            (IntervalRegion(axis=1, lo=0.0, hi=0.25, closed_lo=True, closed_hi=False), shallow),
            (IntervalRegion(axis=1, lo=0.75, hi=1.0, closed_lo=False, closed_hi=True), deep),
        ),
    )
