"""Ground-truth input-degradation models.

A degradation map remaps a commanded input vector before the system's input
matrix acts on it.  This module provides the map families used by the
simulator and as oracles in tests: plain affine maps, multi-mode conditional
maps (one affine map per disjoint region, identity elsewhere), and the
bundled heat-probe example with a three-branch piecewise-linear depth
response.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import pairwise_distances


@dataclass(frozen=True)
class AffineMap:
    """Square affine map ``u -> translation + linear @ u``."""

    linear: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        linear = np.asarray(self.linear, dtype=float)
        translation = np.atleast_1d(np.asarray(self.translation, dtype=float))
        if linear.ndim == 0:
            linear = linear.reshape(1, 1)
        if linear.ndim != 2 or linear.shape[0] != linear.shape[1]:
            raise ValueError("linear part must be a square matrix")
        if translation.shape[0] != linear.shape[0]:
            raise ValueError("translation dimension does not match linear part")
        linear.setflags(write=False)
        translation.setflags(write=False)
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "translation", translation)

    @property
    def dim(self) -> int:
        return self.linear.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "AffineMap":
        return cls(np.eye(dim), np.zeros(dim))

    def __call__(self, u):
        return apply_affine(self, u)


def apply_affine(q: AffineMap, u) -> np.ndarray:
    """Evaluate ``translation + linear @ u``."""
    vec = np.atleast_1d(np.asarray(u, dtype=float))
    if vec.shape[0] != q.dim:
        raise ValueError(f"input dimension {vec.shape[0]} != map dimension {q.dim}")
    return q.translation + q.linear @ vec


# ---------------------------------------------------------------------------
# Regions: exact membership predicates for ground-truth affected sets.  Each
# region tests the rows of a ``(k, m)`` array at once; one vector is a batch
# of one.


class _Region:
    """Base of the regions: ``contains_rows`` is the one membership predicate."""

    def contains(self, u) -> bool:
        return bool(self.contains_rows(np.array(u, dtype=float, ndmin=2))[0])


@dataclass(frozen=True)
class IntervalRegion(_Region):
    """Slab region testing one input coordinate against an interval."""

    axis: int
    lo: float
    hi: float
    closed_lo: bool = True
    closed_hi: bool = True

    def contains_rows(self, U: np.ndarray) -> np.ndarray:
        c = U[:, self.axis]
        above = c >= self.lo if self.closed_lo else c > self.lo
        below = c <= self.hi if self.closed_hi else c < self.hi
        return above & below


@dataclass(frozen=True)
class BoxRegion(_Region):
    """Closed axis-aligned box."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ValueError("box bounds are inconsistent")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def contains_rows(self, U: np.ndarray) -> np.ndarray:
        return np.all((U >= self.lo) & (U <= self.hi), axis=1)


@dataclass(frozen=True)
class BallRegion(_Region):
    """Closed Euclidean ball."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        if self.radius < 0:
            raise ValueError("radius must be non-negative")
        object.__setattr__(self, "center", center)

    def contains_rows(self, U: np.ndarray) -> np.ndarray:
        return np.linalg.norm(U - self.center, axis=1) <= self.radius


def _intervals_overlap(lo1, hi1, c1lo, c1hi, lo2, hi2, c2lo, c2hi) -> bool:
    lo, hi = max(lo1, lo2), min(hi1, hi2)
    if lo < hi:
        return True
    if lo > hi:
        return False
    # single shared point: present only if closed on the meeting sides
    p_in_1 = (c1lo if lo1 == lo else True) and (c1hi if hi1 == hi else True)
    p_in_2 = (c2lo if lo2 == lo else True) and (c2hi if hi2 == hi else True)
    return p_in_1 and p_in_2


def regions_overlap(a, b) -> Optional[bool]:
    """Exact overlap test where region geometry allows one, else None."""
    if isinstance(a, IntervalRegion) and isinstance(b, IntervalRegion):
        if a.axis != b.axis:
            return True  # distinct-axis slabs always cross
        return _intervals_overlap(
            a.lo, a.hi, a.closed_lo, a.closed_hi, b.lo, b.hi, b.closed_lo, b.closed_hi
        )
    if isinstance(a, BallRegion) and isinstance(b, BallRegion):
        return bool(np.linalg.norm(a.center - b.center) <= a.radius + b.radius)
    if isinstance(a, BoxRegion) and isinstance(b, BoxRegion):
        return bool(np.all(np.maximum(a.lo, b.lo) <= np.minimum(a.hi, b.hi)))
    return None


# ---------------------------------------------------------------------------
# Multi-mode conditional degradation maps.


@dataclass(frozen=True)
class NModeCdm:
    """Finitely many affine modes acting on pairwise disjoint regions.

    Inputs in no region pass through unchanged.  ``separation`` is the known
    lower bound on the distance between distinct mode graphs ``(u, Q u)``.
    """

    modes: tuple
    separation: float = 0.0

    def __post_init__(self):
        modes = tuple((region, q) for region, q in self.modes)
        dims = {q.dim for _, q in modes}
        if len(dims) > 1:
            raise ValueError("all mode maps must share one input dimension")
        for i in range(len(modes)):
            for j in range(i + 1, len(modes)):
                if regions_overlap(modes[i][0], modes[j][0]):
                    raise ValueError(f"mode regions {i} and {j} overlap")
        if self.separation < 0:
            raise ValueError("separation must be non-negative")
        object.__setattr__(self, "modes", modes)

    @property
    def dim(self) -> Optional[int]:
        return self.modes[0][1].dim if self.modes else None

    def __call__(self, u):
        return apply_ncdm(self, u)


def apply_ncdm(cdm: NModeCdm, u) -> np.ndarray:
    """Map each row of a ``(k, m)`` array by the unique mode whose region holds it.

    Rows in no region pass through unchanged.  A single input vector is a
    batch of one and comes back as a vector.  Each row is evaluated as
    ``translation + sum_j linear[:, j] * u_j`` with elementwise operations,
    so its result does not depend on the batch it came in (a BLAS product
    rounds one row differently from several).
    """
    U = np.array(u, dtype=float, ndmin=2)
    if cdm.dim is not None and U.shape[1] != cdm.dim:
        raise ValueError(f"input dimension {U.shape[1]} != map dimension {cdm.dim}")
    E = U.copy()
    taken = np.zeros(U.shape[0], dtype=bool)
    for region, q in cdm.modes:
        mask = region.contains_rows(U)
        if not mask.any():
            continue
        if (taken & mask).any():
            raise ValueError("input belongs to multiple mode regions")
        taken |= mask
        rows = U[mask]
        image = rows[:, :1] * q.linear[:, 0]
        for j in range(1, q.dim):
            image += rows[:, j:j + 1] * q.linear[:, j]
        E[mask] = q.translation + image
    return E if np.ndim(u) == 2 else E[0]


def _clipped_box(region, lo, hi):
    """Bounds of an interval or box region within ``[lo, hi]``, else None."""
    if isinstance(region, IntervalRegion):
        rlo, rhi = lo.copy(), hi.copy()
        rlo[region.axis] = max(lo[region.axis], region.lo)
        rhi[region.axis] = min(hi[region.axis], region.hi)
        return rlo, rhi
    if isinstance(region, BoxRegion):
        return np.maximum(lo, region.lo), np.minimum(hi, region.hi)
    return None


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


def _graph_distance(q1: AffineMap, box1, q2: AffineMap, box2) -> Optional[float]:
    """Exact distance between the graphs ``(u, Q u)`` of two maps over boxes.

    Minimizes ``|u1 - u2|^2 + |Q1 u1 + c1 - Q2 u2 - c2|^2`` over the closed
    boxes by bounded-variable least squares (:func:`_bvls`); None when a box
    is empty.  A coordinate pinned by ``lo == hi`` stays at that value.
    """
    lo = np.concatenate([box1[0], box2[0]])
    hi = np.concatenate([box1[1], box2[1]])
    if np.any(lo > hi):
        return None
    eye = np.eye(q1.dim)
    M = np.block([[eye, -eye], [q1.linear, -q2.linear]])
    b = np.concatenate([np.zeros(q1.dim), q2.translation - q1.translation])
    z, _ = _bvls(M, b, lo, hi)
    return float(np.linalg.norm(M @ z - b))


def _sampled_graphs(cdm: NModeCdm, lo, hi, n: int, seed: int) -> list:
    """Graph points ``(u, Q u)`` of ``n`` uniform draws, per mode (None if empty)."""
    rng = np.random.default_rng(seed)
    draws = lo + (hi - lo) * rng.random((n, lo.shape[0]))
    graphs = []
    for region, q in cdm.modes:
        members = draws[region.contains_rows(draws)]
        if len(members):
            graphs.append(np.hstack([members, members @ q.linear.T + q.translation]))
        else:
            graphs.append(None)
    return graphs


def mode_separation(cdm: NModeCdm, box_lo, box_hi, n: int = 2000,
                    seed: int = 0) -> Optional[float]:
    """Smallest distance between distinct mode graphs ``(u, Q u)`` in a box.

    For two interval or box regions (clipped to ``[box_lo, box_hi]``) the
    distance is exact: the infimum over the closed regions, a bounded
    least-squares problem.  A pair involving a ball region is only an
    *estimate*, the minimum over ``n`` uniform draws in the box, which can
    over-estimate the true distance.  Returns None when fewer than two
    modes have inputs in the box.
    """
    if len(cdm.modes) < 2:
        return None
    lo = np.atleast_1d(np.asarray(box_lo, dtype=float))
    hi = np.atleast_1d(np.asarray(box_hi, dtype=float))
    boxes = [_clipped_box(region, lo, hi) for region, _ in cdm.modes]
    graphs = None
    best = None
    for i in range(len(cdm.modes)):
        for j in range(i + 1, len(cdm.modes)):
            if boxes[i] is not None and boxes[j] is not None:
                d = _graph_distance(cdm.modes[i][1], boxes[i], cdm.modes[j][1], boxes[j])
            else:
                if graphs is None:
                    graphs = _sampled_graphs(cdm, lo, hi, n, seed)
                if graphs[i] is None or graphs[j] is None:
                    continue
                d = float(np.min(pairwise_distances(graphs[i], graphs[j])))
            if d is not None:
                best = d if best is None else min(best, d)
    return best


# ---------------------------------------------------------------------------
# Bundled heat-probe example: piecewise-linear depth-channel degradation.


def heat_depth_response(p):
    """Effective depth-rate produced by a commanded depth-rate ``p``.

    Three branches: ``0.25 + 3 p`` below 0.25, identity on [0.25, 0.75],
    ``2.5 - 2 p`` above 0.75.  Vectorized.
    """
    p = np.asarray(p, dtype=float)
    return np.where(p < 0.25, 0.25 + 3.0 * p, np.where(p > 0.75, 2.5 - 2.0 * p, p))


# Shared lower bound on the distance between the two non-identity branch
# graphs (u2, response(u2)) over the unit depth range; attained in the limit
# toward the breakpoints 0.25 and 0.75, where both branches approach 1.
HEAT_MODE_SEPARATION = 0.5


def heat_example_cdm() -> NModeCdm:
    """Two-input degradation of the heat-probe testbed.

    Channel 0 (source power) passes through; channel 1 (depth rate) follows
    :func:`heat_depth_response`.  The two non-identity branches become the
    affine modes; the identity mid-interval needs no mode.
    """
    shallow = AffineMap(np.diag([1.0, 3.0]), np.array([0.0, 0.25]))
    deep = AffineMap(np.diag([1.0, -2.0]), np.array([0.0, 2.5]))
    return NModeCdm(
        modes=(
            (IntervalRegion(axis=1, lo=0.0, hi=0.25, closed_lo=True, closed_hi=False), shallow),
            (IntervalRegion(axis=1, lo=0.75, hi=1.0, closed_lo=False, closed_hi=True), deep),
        ),
        separation=HEAT_MODE_SEPARATION,
    )
