"""Identify input-degradation maps from degraded observations.

Pipeline: recover the effective input of each observation by least squares
(``v = g(x)^+ (x' - f(x))``), split recovered pairs into unaffected and
degraded, cluster the degraded pairs on their (input, effective) graphs,
fit one affine map per cluster, and wrap each cluster in certified
inner/outer approximations of its affected input region.  A completed
reconstruction answers point queries, bounds the approximation error of
Lipschitz degradations, and solves for viabilized inputs that reproduce a
commanded effective input.  ``build_reconstruction_from_pairs`` builds one
reconstruction from scratch; ``Reconstructor`` clusters one observation at
a time and builds the same result on demand.
"""

from __future__ import annotations

import functools
import logging
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .degradation import AffineMap
from .errors import IdentificationError, PreconditionError, UnviableInputError
from .geometry import (
    _INSIDE_INNER,
    _OUTSIDE_OUTER,
    Containment,
    Side,
    StarSetApprox,
    estimate_mgf_lipschitz,
    _classify,
    _frozen,
    _integer,
    _positive,
    _real,
    pairwise_distances,
)
from .simulation import ControlSample, SystemModel

log = logging.getLogger(__name__)

RANK_TOL = 1e-9  # relative cutoff of every rank decision: singular values, fold and fit remainders

# Largest pair component accepted: below it every square, distance and
# star offset computed from pairs stays finite.
_PAIR_LIMIT = 1e150

_FLOAT64 = np.dtype(np.float64)


def _check_range(values: np.ndarray, name: str) -> None:
    """Raise :class:`PreconditionError` unless every component is within ``_PAIR_LIMIT``."""
    if not np.abs(values).max(initial=0.0) <= _PAIR_LIMIT:  # False for NaN
        raise PreconditionError(
            f"{name} has a component that is not finite or beyond "
            f"{_PAIR_LIMIT:g} in magnitude")


def _pair_row(u, v) -> np.ndarray:
    """``[u | v]`` as floats, if both are 1-D real vectors of one dimension within 1e150."""
    if (type(u) is np.ndarray and type(v) is np.ndarray and u.dtype is _FLOAT64
            and v.dtype is _FLOAT64 and u.ndim == 1 and u.shape == v.shape):
        row = np.concatenate((u, v))
        if all([abs(x) <= _PAIR_LIMIT for x in row.tolist()]):  # False for NaN
            return row
    halves = []  # the checks that name a failing half
    for name, value in (("input", u), ("effective", v)):
        try:
            value = _real(value)
        except TypeError:
            value = None
        if value is None or value.ndim != 1:
            raise ValueError(f"{name} must be a 1-D vector of real numbers")
        _check_range(value, name)
        halves.append(value)
    if halves[0].shape != halves[1].shape:
        raise ValueError("input and effective input dimensions disagree")
    return np.concatenate(halves)


def _pair_table(points) -> np.ndarray:
    """``points`` as a float ``(k, 2m)`` table of rows ``[u | v]``, ``m >= 1``.

    Any other shape, or an entry that is not a real number, raises
    ``ValueError``; a component that is not finite or beyond 1e150 raises
    :class:`PreconditionError`.  A float table is returned as it is.
    """
    try:
        table = _real(points)
    except TypeError as exc:
        raise ValueError(f"pair table is not a table of real numbers: {exc}") from None
    if table.ndim != 2 or table.shape[1] < 2 or table.shape[1] % 2:
        raise ValueError(f"pair table must have shape (k, 2m) with m >= 1, got {table.shape}")
    _check_range(table, "pair table")
    return table


def recover_effective_input(sample: ControlSample, model: SystemModel) -> np.ndarray:
    """Recover the effective input ``g(x)^+ (x' - f(x))`` of one observation.

    Exact observations of an input-degraded system yield exactly the
    degraded input.  It is the stream's solve, :func:`_recover_each`, on one
    observation, and raises with the computed rank where ``g(x)`` is rank deficient.
    """
    return next(_recover_each((sample,), model))


def _check_rank(rank, singular_values, dim_input: int) -> None:
    if rank < dim_input:
        raise PreconditionError(f"input matrix rank {rank} < {dim_input} at the sampled state",
                                rank=int(rank), singular_values=singular_values)


@functools.lru_cache(maxsize=8)
def _column_plan(shape: tuple, data: bytes) -> Optional[tuple]:
    """``(order, weights, starts, scales)`` of the float ``B`` of ``shape`` and bytes ``data``.

    None when a row of ``B`` has two nonzeros.  ``order`` lists the nonzero
    rows column by column, from ``starts``.  Each column is scaled by
    ``2^-e``, ``e`` the ``frexp`` exponent of its largest ``|entry|``, and
    its scale is ``Σ w²`` times ``2^e``: exact, so ``Σ w t / scale`` has the
    bits of ``Σ b t / Σ b²``, and no square underflows.  Disjoint columns
    are orthogonal, so their norms are ``B``'s singular values; a rank
    below ``shape[1]`` raises.
    """
    B = np.frombuffer(data).reshape(shape)
    if (np.count_nonzero(B, axis=1) > 1).any():
        return None
    sv = -np.sort(-np.hypot.reduce(B, axis=0))
    _check_rank(np.count_nonzero(sv > RANK_TOL * sv[0]), sv, shape[1])
    cols, order = np.nonzero(B.T)
    _, exponents = np.frexp(np.abs(B).max(axis=0))
    weights = np.ldexp(B[order, cols], -exponents[cols])
    starts = np.searchsorted(cols, np.arange(shape[1]))
    plan = order, weights, starts, np.ldexp(np.add.reduceat(weights * weights, starts), exponents)
    for array in plan:
        array.setflags(write=False)
    return plan


_CHUNK = 64  # observations whose targets one closed-form pass takes


def _recover_each(samples: Sequence[ControlSample], model: SystemModel) -> Iterator[np.ndarray]:
    """The effective input of each of ``samples``, in order: the one effective-input solve.

    A constant ``b_matrix`` with at most one nonzero per row, such as the
    heat model's, has the closed form ``v_j = Σ b_ij t_i / Σ b_ij²`` over
    column ``j``'s rows, ``t = velocity - drift(state)`` (:func:`_column_plan`).
    ``_CHUNK`` targets take one row-wise ``np.add.reduceat`` and a divide:
    no BLAS routine, and bits that do not depend on the chunking.  Any other
    input map has an ``lstsq`` per observation.  A rank-deficient matrix raises.
    """
    B = model.b_matrix
    plan = None if B is None else _column_plan(B.shape, _frozen(B, "input map").tobytes())
    if plan is None:
        for sample in samples:
            G = _frozen(model.input_map(sample.state), "input map")
            solution, _, rank, sv = np.linalg.lstsq(
                G, sample.velocity - model.drift(sample.state), rcond=RANK_TOL)
            _check_rank(rank, sv, model.dim_input)
            yield solution
        return
    order, weights, starts, scales = plan
    for start in range(0, len(samples), _CHUNK):
        targets = np.array([s.velocity - model.drift(s.state)
                            for s in samples[start:start + _CHUNK]])
        yield from np.add.reduceat(targets[:, order] * weights, starts, axis=1) / scales


# ---------------------------------------------------------------------------
# Clustering


def _fold(kept: list, inputs: list, cut: float, m: int) -> None:
    """Fold ``inputs``, lists of floats, into ``kept`` in order, until it holds ``m`` directions.

    Each input less its projections on the kept unit directions, taken one
    at a time (modified Gram–Schmidt), is kept, normalized and with its
    norm, when its ``math.hypot`` norm, which neither underflows nor
    overflows, is above ``cut``.
    """
    for u in inputs:
        if len(kept) == m:
            return
        for q, _ in kept:
            c = sum([x * y for x, y in zip(u, q)])
            u = [x - c * y for x, y in zip(u, q)]
        norm = math.hypot(*u)
        if norm > cut:
            kept.append(([x / norm for x in u], norm))


class _Rows:
    """A table of ``[u | v]`` rows in pair order, grown by appending.

    Rows below the count are never rewritten, and a full buffer is replaced
    by a copy, so every table :attr:`pairs` hands out keeps its rows.
    :attr:`rank` is the one rank rule: :func:`_fold` over the inputs in
    pair order, with the cut ``RANK_TOL`` times ``scale``, the largest
    input norm.  The fold goes on over each appended input while it keeps
    fewer than ``m`` directions.  An input that raises ``scale`` refolds
    from the first row only if a kept remainder is now at or below the
    cut; otherwise every decision stands, since a kept remainder is still
    above the cut and a rejected one further below it.  So the rank is
    that of a fold from scratch, by construction.
    """

    def __init__(self, table: np.ndarray):
        self.table, self.count = table, table.shape[0]
        self._folded, self._scale = 0, 0.0  # rows whose inputs the fold has seen, and their scale
        self._kept: list = []  # the kept unit directions, each with its remainder's norm

    def append(self, row: np.ndarray) -> None:
        self.table = _append_row(self.table, self.count, row)
        self.count += 1

    @property
    def pairs(self) -> np.ndarray:
        """The rows so far, as a read-only ``(count, 2m)`` table."""
        pairs = self.table[:self.count]
        pairs.setflags(write=False)
        return pairs

    @property
    def rank(self) -> int:
        """How many directions the fold keeps over the inputs so far, at most ``m``."""
        m = self.table.shape[1] // 2
        if self._folded != self.count:
            news = self.table[self._folded:self.count, :m].tolist()
            scale = max(self._scale, *[math.hypot(*u) for u in news])
            cut = RANK_TOL * scale
            if scale > self._scale:
                self._scale = scale
                if any(norm <= cut for _, norm in self._kept):
                    self._kept, news = [], self.table[:self.count, :m].tolist()
            if len(self._kept) < m:
                _fold(self._kept, news, cut, m)
            self._folded = self.count
        return len(self._kept)

    @property
    def identified(self) -> bool:
        """Whether :func:`fit_affine` identifies the rows so far."""
        return _unidentifiable(self) is None


def _kruskal(edges):
    """Kruskal's minimum spanning forest of ``(height, name, name)`` edges.

    Returns the forest's edges in ascending order and ``find``, which maps
    a name to the smallest name of its tree.
    """
    root: dict = {}  # each merged name's parent; a root has none

    def find(c):
        while c in root:
            c = root[c]
        return c

    forest = []
    for edge in sorted(edges):
        a, b = find(edge[1]), find(edge[2])
        if a != b:
            root[max(a, b)] = min(a, b)
            forest.append(edge)
    return forest, find


class _Linkage:
    """Single-linkage clusters of a growing table of graph points.

    Points closer than ``delta`` share a threshold component, named by its
    first point: a new point joins the one it is near, starts one, or
    merges those it is near into the first of them.  Single linkage needs
    only a minimum spanning tree (Gower and Ross, 1969), and ``tree`` is
    one of the component graph, whose edge between two components is
    their smallest point distance, as ``(height, name, name)`` edges in
    ascending order.  A new point's distance row, reduced
    by label, gives one edge per component, and Kruskal's pass over the
    tree and these edges spans the graph with the point: its minimum
    spanning tree lies in the old tree plus the point's edges.  The edges
    below ``delta`` are exactly those to the near components; they are
    contracted, and contracting tree edges leaves a minimum spanning tree
    of the contracted graph.  :meth:`cut` makes the clusters: the
    components, or with more than ``n_modes`` of them, their unions along
    the tree edges up to the merge height that leaves ``n_modes``.  At any
    height the tree's edges join what all edges join, and every minimum
    spanning tree has the same heights, so the clusters and the forced
    merges are those of the whole component graph.  A cluster is keyed by
    the names of its components; one whose components merged only among
    themselves keeps its table, and one whose component merged with
    another cluster's is dropped, to be built anew.
    """

    def __init__(self, delta: float, n_modes: int, width: int):
        self.delta, self.n_modes = delta, n_modes
        # column-major, so each coordinate of the points is contiguous for pairwise_distances
        self.points = np.empty((8, width), order="F")
        self.labels = np.empty(8, dtype=np.intp)  # each point's component
        self.n = 0
        self.firsts: list[int] = []  # the component names, ascending
        self.tree: list[tuple] = []
        self.forced: list[tuple] = []  # the tree edges the last cut merged by force
        self.clusters: dict[frozenset, _Rows] = {}  # by component names, in cluster order
        self._cut_at = 0  # points at the last cut
        self._regrouped = False  # whether a point started or merged components since then

    def add(self, point: np.ndarray) -> None:
        """Add ``point``, measured against the points so far."""
        n = self.n
        row = np.full(n, np.inf)  # by name
        dist = pairwise_distances(point[None, :], self.points[:n])[0]
        np.minimum.at(row, self.labels[:n], dist)
        edges = [(d, c, n) for d, c in zip(row[self.firsts].tolist(), self.firsts)]
        self.tree, _ = _kruskal(self.tree + edges)
        near = [c for d, c, _ in edges if d < self.delta]
        label = near[0] if near else n
        self.points = _append_row(self.points, n, point)
        self._regrouped = self._regrouped or len(near) != 1
        if not near:  # a component of its own
            self.firsts.append(n)
        else:
            merged = {n, *near}

            def renamed(edges):  # the last cut's forced edges too, to compare with the next
                return [(h, label if a in merged else a, label if b in merged else b)
                        for h, a, b in edges if h >= self.delta]

            self.tree, self.forced = renamed(self.tree), renamed(self.forced)
            if len(near) > 1:  # the merged component keeps the first one's name
                gone = set(near[1:])
                self.labels[:n][np.isin(self.labels[:n], near[1:])] = label
                self.firsts = [c for c in self.firsts if c not in gone]
                touched = [key for key in self.clusters if key & (gone | {label})]
                for key in touched:
                    rows = self.clusters.pop(key)
                    if len(touched) == 1:
                        self.clusters[key - gone] = rows
        self.labels = _append_row(self.labels, n, label)
        self.n += 1

    def cut(self) -> None:
        """Re-cut the clusters; remake those whose components merged or regrouped.

        When every point since the last cut joined one component and there
        are at most ``n_modes`` components, the clusters are still the
        components, and each point is appended to its own cluster.
        """
        labels = self.labels[:self.n]
        added = labels[self._cut_at:].tolist()
        if not self._regrouped and len(self.firsts) <= self.n_modes:
            for i, c in enumerate(added):
                self.clusters[frozenset((c,))].append(self.points[self._cut_at + i])
        else:
            old, self.clusters = self.clusters, {}
            for group in self._groups():
                rows = old.get(frozenset(name for name in group if name < self._cut_at))
                if rows is None:
                    rows = _Rows(self.points[:self.n][np.isin(labels, group)])  # a C-ordered copy
                else:
                    for i, c in enumerate(added):
                        if c in group:
                            rows.append(self.points[self._cut_at + i])
                self.clusters[frozenset(group)] = rows
        self._cut_at, self._regrouped = self.n, False

    def _groups(self) -> list[list[int]]:
        """The component names of each cluster at the cut, in order of first point.

        The tree edges up to the (k - n_modes)-th height, and every edge tied
        with it, are merged: the cut's forced merges, kept in :attr:`forced`.
        Each one the last cut did not force, compared as ``(height, name,
        name)`` after :meth:`add`'s renames, is logged, in ascending order.
        """
        k = len(self.firsts)
        if k <= self.n_modes:
            self.forced = []
            return [[c] for c in self.firsts]
        cut = self.tree[k - self.n_modes - 1][0]
        forced = [edge for edge in self.tree if edge[0] <= cut]
        last = set(self.forced)
        for height, a, b in forced:
            if (height, a, b) not in last:
                log.info(
                    "forced merge at height %.6g, at or above separation delta %.6g",
                    height, self.delta,
                    extra={"event": "forced_merge", "height": height, "delta": self.delta},
                )
        self.forced = forced
        _, find = _kruskal(forced)
        groups: dict[int, list[int]] = {}
        for c in self.firsts:
            groups.setdefault(find(c), []).append(c)
        return list(groups.values())


def cluster_pairs(points: np.ndarray, delta: float, n_modes: int) -> list[np.ndarray]:
    """Single-linkage clustering of the graph points ``[u | v]``, a ``(k, 2m)`` table.

    Clusters are merged while the nearest pair of clusters is closer than
    ``delta``; the resulting clusters are pairwise at least ``delta`` apart.
    If more than ``n_modes`` clusters remain, under-sampled modes are still
    fragmented, and the closest clusters keep merging until the count
    reaches ``n_modes`` (fragments rejoin as sampling fills in).
    Deterministic given the input order; each cluster is returned as its
    read-only table of rows, in input order.
    """
    try:
        empty = len(points) == 0  # np.shape would give a ragged table NumPy's message
    except TypeError:  # a 0-d table, which the table check rejects
        empty = False
    if empty:
        raise ValueError("no pairs to cluster")
    IdentificationConfig(delta, n_modes)  # the config's rules for both
    points = _pair_table(points)
    # the structure the stream grows, one point at a time, cut once
    linkage = _Linkage(delta, n_modes, points.shape[1])
    for point in points:
        linkage.add(point)
    linkage.cut()
    return [rows.pairs for rows in linkage.clusters.values()]


# ---------------------------------------------------------------------------
# Affine fitting


def _unidentifiable(rows: _Rows) -> Optional[tuple[str, str]]:
    """Why :func:`fit_affine` cannot fit ``rows``: (message, detail), or None.

    The fold must keep ``m`` directions, and a pair beyond ``m`` anchors
    the translation.
    """
    m = rows.table.shape[1] // 2
    if rows.rank < m:
        return "cluster lacks linearly independent basis inputs", "basis"
    if rows.count == m:
        return "cluster has no pair beyond the basis to anchor the translation", "anchor"
    return None


def fit_affine(pairs: np.ndarray) -> AffineMap:
    """Fit the affine map of one cluster, a ``(k, 2m)`` table of rows ``[u | v]``, exactly.

    The cluster is identified when :class:`_Rows`'s fold over the table
    keeps ``m`` directions and a pair is left over.  Differences from the
    first pair cancel the translation; a modified Gram–Schmidt pass over
    them, pivoted on the largest remainder and cut at ``RANK_TOL`` times
    the largest difference, fits the deviation from the identity.  That is
    the minimum-norm solution: exact on consistent data, the identity along
    unspanned directions, and elementwise NumPy, so no BLAS kernel changes it.
    """
    pairs = _pair_table(pairs)
    m = pairs.shape[1] // 2
    reason = _unidentifiable(_Rows(pairs))
    if reason is not None:
        message, detail = reason
        raise IdentificationError(message, detail=detail)
    u0, v0 = pairs[0, :m], pairs[0, m:]
    X = pairs[:, :m] - u0
    Y = pairs[:, m:] - v0 - X  # what the deviation maps each difference to
    linear = np.eye(m)
    cut = RANK_TOL * np.hypot.reduce(X, axis=1).max()
    for _ in range(m):
        norms = np.hypot.reduce(X, axis=1)
        i = int(np.argmax(norms))
        if norms[i] <= cut:
            break
        q, z = X[i] / norms[i], Y[i] / norms[i]
        c = (X * q).sum(axis=1)[:, None]
        X -= c * q
        Y -= c * z
        linear += z[:, None] * q
    return AffineMap(linear, v0 - (linear * u0).sum(axis=1))


# ---------------------------------------------------------------------------
# Reconstruction


@dataclass(frozen=True)
class IdentificationConfig:
    """Tunables of the identification pipeline.

    ``delta`` is the known separation between mode graphs; ``n_modes`` the
    known mode count; ``lipschitz`` the assumed gauge Lipschitz constant of
    every affected region; ``identity_tol`` the relative threshold below
    which a recovered pair counts as unaffected.
    """

    delta: float
    n_modes: int
    lipschitz: float = 1.0
    identity_tol: float = 1e-7

    def __post_init__(self):
        for name in ("delta", "lipschitz"):
            _positive(getattr(self, name), name)
        _positive(self.identity_tol, "identity_tol", or_zero=True)
        _integer(self.n_modes, "modes", least=1)


@dataclass(frozen=True)
class ModeReconstruction:
    """One identified (or detected but not yet identified) degradation mode.

    ``inner``/``outer`` must be an (INNER, OUTER) pair about one center;
    that is checked here, once, so containment queries need not.  ``pairs``
    is the cluster's read-only ``(k, 2m)`` table of graph points ``[u | v]``.
    """

    map: Optional[AffineMap]
    inner: StarSetApprox
    outer: StarSetApprox
    pairs: np.ndarray
    residuals: Optional[np.ndarray]

    def __post_init__(self):
        if self.inner.side is not Side.INNER or self.outer.side is not Side.OUTER:
            raise ValueError("expected an (inner, outer) approximation pair")
        if (self.inner.dim != self.outer.dim
                or np.max(np.abs(self.inner.center - self.outer.center)) > 1e-12):
            raise ValueError("inner and outer approximations must share a center")

    @property
    def identified(self) -> bool:
        return self.map is not None

    @property
    def residual(self) -> Optional[float]:
        return float(np.max(self.residuals)) if self.residuals is not None else None

    # Derived on first use: a run writes its reconstruction without querying it.

    @cached_property
    def inverse(self) -> Optional[np.ndarray]:
        """Inverse of the map's linear part; None when unidentified or singular.

        Singular means the smallest singular value is at or below
        ``RANK_TOL`` times the largest.
        """
        if self.map is None:
            return None
        sv = np.linalg.svd(self.map.linear, compute_uv=False)
        if sv[0] == 0.0 or sv[-1] <= RANK_TOL * sv[0]:
            return None
        inverse = np.linalg.inv(self.map.linear)
        inverse.setflags(write=False)
        return inverse

    @cached_property
    def _command_limit(self) -> float:
        """Commands within this bound in every component invert without overflow.

        ``|inverse @ (cmd - translation)|`` is at most the inverse's largest
        absolute row sum times ``max|cmd| + max|translation|``; the bound
        keeps both that and ``max|cmd| + max|translation|`` below 1e300, far
        enough from the float range to absorb rounding.  -inf when the mode
        is not invertible or its inverse is not finite.
        """
        if self.inverse is None:
            return -math.inf
        gain = float(np.abs(self.inverse).sum(axis=1).max())
        if not gain < math.inf:
            return -math.inf
        return 1e300 / max(gain, 1.0) - float(np.abs(self.map.translation).max())

    def containment(self, coords: list) -> Containment:
        """``star_contains`` of the point ``coords``, a list of ``inner.dim`` floats.

        ``coords`` is not checked again: callers pass a command that
        ``_command`` checked, or a finite candidate made from one.

        The last point asked and its answer are remembered, so a command's
        ``viabilize``, ``query`` and error bound classify it once.  Key and
        answer are stored as one tuple, so concurrent callers always read a
        matching pair; the memo is not a field, so ``replace`` drops it.
        """
        key = tuple(coords)
        last = self.__dict__.get("_last_containment")
        if last is not None and last[0] == key:
            return last[1]
        answer = _classify(self.inner, self.outer, coords)
        self.__dict__["_last_containment"] = (key, answer)
        return answer


@dataclass(frozen=True)
class CdmReconstruction:
    """Full reconstruction state: modes plus the unaffected pairs' ``(k, 2m)`` table.

    Every mode must be of dimension ``input_dim``; that is checked here,
    once, so a served command checked against ``input_dim`` fits each mode.
    """

    modes: tuple
    unaffected: np.ndarray
    separation: float
    mode_count: int
    input_dim: int

    def __post_init__(self):
        for i, mode in enumerate(self.modes):
            if mode.inner.dim != self.input_dim:
                raise ValueError(f"mode {i} has dimension {mode.inner.dim}, "
                                 f"reconstruction expects {self.input_dim}")


def _is_unaffected(point: np.ndarray, identity_tol: float) -> bool:
    # one norm per pair, so the stream and the batch decide bit for bit alike;
    # each is np.linalg.norm's arithmetic
    m = point.shape[0] // 2
    u = point[:m]
    dev = point[m:] - u
    return math.sqrt(dev.dot(dev)) <= float(identity_tol) * (1.0 + math.sqrt(u.dot(u)))


def split_pairs(points: np.ndarray, identity_tol: float):
    """Partition a pair table into (affected, unaffected) tables by relative deviation.

    A component not finite or beyond 1e150 raises :class:`PreconditionError`.
    """
    points = _pair_table(points)
    mask = np.array([_is_unaffected(p, identity_tol) for p in points], dtype=bool)
    return points[~mask], points[mask]


def fit_residuals(affine: AffineMap, pairs: np.ndarray) -> np.ndarray:
    """Residuals ``|affine(u) - v|`` of a pair table, row by row.

    The row-by-row arithmetic fixes the floats of every ``residual,`` line
    of a written reconstruction, so it is kept as it is.
    """
    m = pairs.shape[1] // 2
    gaps = (affine.translation + affine.linear @ u - v for u, v in zip(pairs[:, :m], pairs[:, m:]))
    return np.array([math.sqrt(g.dot(g)) for g in gaps])  # np.linalg.norm's arithmetic


def _mode_from_cluster(pairs: np.ndarray, unaffected_inputs: np.ndarray,
                       config: IdentificationConfig) -> ModeReconstruction:
    """Bound, fit and score one cluster, its read-only ``(k, 2m)`` table ``pairs``."""
    inputs = pairs[:, :pairs.shape[1] // 2]
    center = inputs.mean(axis=0)
    inner = StarSetApprox.from_points(inputs, center, config.lipschitz, Side.INNER)
    if unaffected_inputs.size:
        outer = StarSetApprox.from_points(
            unaffected_inputs, center, config.lipschitz, Side.OUTER
        )
    else:
        outer = StarSetApprox(center, config.lipschitz, np.empty((0, center.shape[0])),
                              np.empty(0), Side.OUTER)
    try:
        affine = fit_affine(pairs)
        residuals = fit_residuals(affine, pairs)
        residuals.setflags(write=False)  # read-only, like the mode's pairs
    except IdentificationError as exc:
        log.debug("cluster left unidentified: %s", exc)
        affine, residuals = None, None
    return ModeReconstruction(
        map=affine, inner=inner, outer=outer, pairs=pairs, residuals=residuals
    )


def _warn_if_steep(inner: StarSetApprox, config: IdentificationConfig) -> None:
    """Warn when the inner witness radii vary faster than ``config.lipschitz`` allows."""
    try:
        est = estimate_mgf_lipschitz(inner.directions, inner.radii)
    except ValueError:  # fewer than two distinct directions
        return
    if est > config.lipschitz * (1.0 + 1e-9):
        warnings.warn(
            f"witness radii vary with slope {est:.3g}, above the assumed "
            f"Lipschitz constant {config.lipschitz:.3g}",
            RuntimeWarning,
            stacklevel=3,
        )


def reconstruction_from_clusters(clusters: Sequence[np.ndarray], unaffected: np.ndarray,
                                 config: IdentificationConfig) -> CdmReconstruction:
    """The reconstruction with one mode per cluster table and the ``(k, 2m)`` unaffected table.

    It is the one mode builder: the batch build calls it after clustering,
    ``Reconstructor.snapshot`` on the stream's current clusters, and the
    reconstruction reader on each mode's pair table, so a file reads back
    only as built.
    """
    m = unaffected.shape[1] // 2
    return CdmReconstruction(
        modes=tuple(_mode_from_cluster(c, unaffected[:, :m], config) for c in clusters),
        unaffected=unaffected,
        separation=config.delta,
        mode_count=config.n_modes,
        input_dim=m,
    )


def build_reconstruction_from_pairs(pairs: Sequence[tuple],
                                    config: IdentificationConfig) -> CdmReconstruction:
    """Cluster, fit, and bound degradation modes from recovered ``(u, v)`` pairs."""
    if not pairs:
        raise ValueError("cannot build a reconstruction from zero pairs")
    rows = []
    for u, v in pairs:
        row = _pair_row(u, v)
        if rows and row.shape != rows[0].shape:  # push's message
            raise ValueError(f"pair dimension {row.shape[0] // 2} != {rows[0].shape[0] // 2}")
        rows.append(row)
    table = np.array(rows)
    affected, unaffected = split_pairs(table, config.identity_tol)
    unaffected.setflags(write=False)
    clusters = []
    if len(affected):
        clusters = cluster_pairs(affected, config.delta, config.n_modes)
    recon = reconstruction_from_clusters(clusters, unaffected, config)
    for mode in recon.modes:
        _warn_if_steep(mode.inner, config)
    return recon


class Reconstructor:
    """Online reconstruction: pairs pushed one at a time, snapshots built on demand.

    ``push(u, v)`` records a pair at the cost of clustering it: it joins,
    starts or merges threshold components, the clusters are re-cut from
    them, and a cluster that only gains the pair appends it to its table
    and goes on with its rank fold (see :class:`_Rows`), in Python floats;
    no star set is built and no map is fitted.  ``modes_identified``
    counts the current clusters that :func:`fit_affine` identifies, by
    the same fold.
    ``snapshot()`` returns the reconstruction of every pair pushed so far,
    equal to ``build_reconstruction_from_pairs`` on them: it builds and
    fits every mode anew by :func:`reconstruction_from_clusters` and raises
    the Lipschitz-slope warnings of the batch build.  A run takes one
    snapshot, after its last observation.
    """

    def __init__(self, config: IdentificationConfig):
        self.config = config
        self._dim: Optional[int] = None
        # the unaffected pairs and the affected ones' clusters; sized by the first pair
        self._unaffected = _Rows(np.empty((0, 0)))
        self._linkage = _Linkage(config.delta, config.n_modes, 0)
        self._identified = 0

    def push(self, u, v) -> None:
        """Record the command ``u`` with its recovered effective input ``v``; re-cut the clusters."""
        point = _pair_row(u, v)
        if self._dim is None:
            self._dim = point.shape[0] // 2
            self._unaffected = _Rows(np.empty((0, point.shape[0])))
            self._linkage = _Linkage(self.config.delta, self.config.n_modes, point.shape[0])
        elif point.shape[0] != 2 * self._dim:
            raise ValueError(f"pair dimension {point.shape[0] // 2} != {self._dim}")
        if _is_unaffected(point, self.config.identity_tol):
            self._unaffected.append(point)
        else:
            self._linkage.add(point)
            self._linkage.cut()
            # folds the new inputs of each changed cluster
            self._identified = sum(rows.identified for rows in self._linkage.clusters.values())

    @property
    def modes_identified(self) -> int:
        """How many current clusters :func:`fit_affine` identifies."""
        return self._identified

    def snapshot(self) -> CdmReconstruction:
        """The reconstruction of all pairs pushed so far."""
        if self._dim is None:
            raise ValueError("cannot build a reconstruction from zero pairs")
        clusters = [rows.pairs for rows in self._linkage.clusters.values()]
        recon = reconstruction_from_clusters(clusters, self._unaffected.pairs, self.config)
        for mode in recon.modes:
            _warn_if_steep(mode.inner, self.config)
        return recon


def _append_row(buffer: np.ndarray, n: int, row) -> np.ndarray:
    """Write ``row`` at index ``n``, doubling the buffer when it is full (an empty one to 8).

    A grown buffer keeps the old one's dtype and memory order.
    """
    if n == buffer.shape[0]:
        grown = np.empty_like(buffer, shape=(2 * n or 8,) + buffer.shape[1:])
        grown[:n] = buffer
        buffer = grown
    buffer[n] = row
    return buffer


def build_reconstruction(samples: Sequence[ControlSample], model: SystemModel,
                         config: IdentificationConfig) -> CdmReconstruction:
    """End-to-end reconstruction from raw observations.

    Re-running on the same samples yields an identical reconstruction.
    """
    pairs = [(s.input, recover_effective_input(s, model)) for s in samples]
    return build_reconstruction_from_pairs(pairs, config)


# ---------------------------------------------------------------------------
# Queries against a reconstruction


class QueryKind:
    PASSTHROUGH = "passthrough"
    MAPPED = "mapped"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class QueryResult:
    kind: str
    value: Optional[np.ndarray] = None
    mode_index: Optional[int] = None



def _command(recon: CdmReconstruction, u) -> tuple[np.ndarray, list]:
    """``u`` as a finite vector of the reconstruction's input dimension.

    Returns the vector and its components as a list of Python floats.  A
    1-D float64 ``ndarray`` skips the coercion, which would return it as it is.
    """
    point = u
    if not (type(u) is np.ndarray and u.dtype is _FLOAT64 and u.ndim == 1):
        try:
            point = np.atleast_1d(_real(u))
        except TypeError as exc:
            raise PreconditionError(f"command is not a vector of real numbers: {exc}") from None
    if point.shape != (recon.input_dim,):
        raise PreconditionError(
            f"command has shape {point.shape}, reconstruction expects ({recon.input_dim},)"
        )
    coords = point.tolist()
    if not all(map(math.isfinite, coords)):  # cheaper than numpy for short vectors
        raise PreconditionError("command has non-finite components")
    return point, coords


def query(recon: CdmReconstruction, u) -> QueryResult:
    """Predict the effective input for ``u`` where the reconstruction can.

    Passthrough when ``u`` is provably outside every mode's affected set;
    the fitted mode image when ``u`` is provably inside exactly one
    identified mode; inconclusive otherwise.  A non-numeric, non-finite or
    wrong-dimension ``u`` raises :class:`PreconditionError`.
    """
    point, coords = _command(recon, u)
    inside = []
    outside_all = True
    for i, mode in enumerate(recon.modes):
        c = mode.containment(coords)
        if c is _INSIDE_INNER:
            inside.append(i)
        if c is not _OUTSIDE_OUTER:
            outside_all = False
    if len(inside) == 1 and recon.modes[inside[0]].identified:
        idx = inside[0]
        q = recon.modes[idx].map
        # AffineMap.__call__'s arithmetic on the command checked above
        return QueryResult(kind=QueryKind.MAPPED, value=q.translation + q.linear @ point,
                           mode_index=idx)
    if not inside and outside_all:
        return QueryResult(kind=QueryKind.PASSTHROUGH, value=point.copy())
    return QueryResult(kind=QueryKind.INCONCLUSIVE)


def lipschitz_error_bound(recon: CdmReconstruction, u, l_p: float) -> float:
    """Bound the reconstruction error of a Lipschitz degradation at ``u``.

    For ``u`` certified inside mode i, every cluster pair j bounds the true
    error by its own fit residual plus ``l_p`` times its distance to ``u``;
    the minimum over pairs is returned.  ``l_p`` must be a finite positive
    real number (``ValueError``); a non-numeric, non-finite or
    wrong-dimension ``u`` raises :class:`PreconditionError`.
    """
    _positive(l_p, "Lipschitz constant")
    point, coords = _command(recon, u)
    for mode in recon.modes:
        if mode.containment(coords) is not _INSIDE_INNER:
            continue
        if not mode.identified:
            raise PreconditionError(
                "point lies in a detected but unidentified mode; no fit to bound"
            )
        gaps = mode.pairs[:, :recon.input_dim] - point
        gaps *= gaps
        dists = np.sqrt(np.add.reduce(gaps, axis=1))  # np.linalg.norm's arithmetic
        dists = l_p * dists  # not in place: a Fraction l_p makes an object array
        dists += mode.residuals
        return float(dists.min())
    raise PreconditionError(
        "point is not certified inside any mode's inner approximation"
    )


def viabilize(recon: CdmReconstruction, u_cmd) -> np.ndarray:
    """Find an input whose degraded image equals the commanded input.

    Returns the command itself when it provably passes through unchanged;
    otherwise inverts each identified affine mode and returns the first
    solution certified inside that mode's affected set.  Non-invertible
    modes (e.g. constant maps) are skipped with a diagnostic.  A non-numeric,
    non-finite or wrong-dimension command raises :class:`PreconditionError`.
    """
    cmd, coords = _command(recon, u_cmd)
    # query's PASSTHROUGH: INSIDE_INNER already implies not OUTSIDE_OUTER
    for mode in recon.modes:
        if mode.containment(coords) is not _OUTSIDE_OUTER:
            break
    else:
        return cmd.copy()
    size = max(map(abs, coords))
    for i, mode in enumerate(recon.modes):
        inverse = mode.inverse  # None for an unidentified mode too
        if inverse is None:
            if mode.identified:
                log.info("mode %d skipped during viabilization: linear part is singular", i)
            continue
        if size <= mode._command_limit:  # the candidate is finite
            candidate = inverse @ (cmd - mode.map.translation)
            coords = candidate.tolist()
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                candidate = inverse @ (cmd - mode.map.translation)
            coords = candidate.tolist()
            if not all(map(math.isfinite, coords)):  # overflowed
                continue
        if mode.containment(coords) is _INSIDE_INNER:
            return candidate
    raise UnviableInputError(
        "commanded input is outside the reconstructed viable range", u_cmd=cmd
    )
