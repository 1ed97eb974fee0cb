"""Identify input-degradation maps from degraded observations.

Pipeline: recover the effective input of each observation by least squares
(``v = g(x)^+ (x' - f(x))``), split recovered pairs into unaffected and
degraded, cluster the degraded pairs on their (input, effective) graphs,
fit one affine map per cluster, and wrap each cluster in certified
inner/outer approximations of its affected input region.  A completed
reconstruction answers point queries, bounds the approximation error of
Lipschitz degradations, and solves for viabilized inputs that reproduce a
commanded effective input.  ``build_reconstruction_from_pairs`` builds one
reconstruction from scratch; ``Reconstructor`` keeps the same result up to
date one observation at a time.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .degradation import AffineMap, apply_affine
from .errors import IdentificationError, PreconditionError, UnviableInputError
from .geometry import (
    Containment,
    Side,
    StarSetApprox,
    estimate_mgf_lipschitz,
    pairwise_distances,
    star_contains,
)
from .simulation import ControlSample, SystemModel

log = logging.getLogger(__name__)

RANK_TOL = 1e-9  # relative singular-value cutoff of every rank decision

# Largest pair component accepted: below it every square, distance and
# star offset computed from pairs stays finite.
_PAIR_LIMIT = 1e150


@dataclass(frozen=True)
class EffectivePair:
    """A commanded input and the effective input recovered for it.

    A component that is not finite or exceeds 1e150 in magnitude raises
    :class:`PreconditionError`.
    """

    input: np.ndarray
    effective: np.ndarray

    def __post_init__(self):
        for name in ("input", "effective"):
            raw = np.asarray(getattr(self, name))
            if raw.ndim != 1 or raw.dtype.kind not in "biuf":
                raise ValueError(f"{name} must be a 1-D vector of real numbers")
            value = raw.astype(float)
            if not np.abs(value).max(initial=0.0) <= _PAIR_LIMIT:  # False for NaN
                raise PreconditionError(
                    f"{name} has a component that is not finite or beyond "
                    f"{_PAIR_LIMIT:g} in magnitude")
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        if self.input.shape != self.effective.shape:
            raise ValueError("input and effective input dimensions disagree")

    @property
    def dim(self) -> int:
        return self.input.shape[0]


def recover_effective_input(sample: ControlSample, model: SystemModel) -> np.ndarray:
    """Recover the effective input ``g(x)^+ (x' - f(x))`` of one observation.

    Exact observations of an input-degraded system yield exactly the
    degraded input.  Raises with the computed rank when the input matrix is
    rank deficient at the sampled state.
    """
    G = np.asarray(model.input_map(sample.state), dtype=float)
    residual_target = sample.velocity - model.drift(sample.state)
    solution, _, rank, sv = np.linalg.lstsq(G, residual_target, rcond=RANK_TOL)
    if rank < model.dim_input:
        raise PreconditionError(
            f"input matrix rank {rank} < {model.dim_input} at the sampled state",
            rank=int(rank),
            singular_values=sv,
        )
    return solution


# ---------------------------------------------------------------------------
# Clustering


@dataclass(frozen=True)
class Cluster:
    """Degraded pairs, read-only ``(k, 2m)`` rows ``[u | v]``, sharing one degradation mode."""

    pairs: np.ndarray
    basis_indices: tuple


def _select_basis(inputs: np.ndarray, m: int, known: tuple = ((), ())):
    """Greedily pick m inputs maximizing the smallest singular value.

    Round j scores every input by the smallest singular value of the inputs
    chosen so far stacked over it, in one batched SVD, and picks the first
    best among the unchosen (chosen ones score -inf).  Returns the basis,
    empty when rank deficient, and each round's scores.  ``known`` may be
    what this returned for a prefix of ``inputs``: while its picks agree,
    only the rows beyond the prefix are scored, and when all m agree the
    prefix's rank decision, made on the same rows, is returned without
    another SVD.
    """
    k = inputs.shape[0]
    if k < m:
        return (), []
    known_basis, known_rounds = known
    picks = [int(np.argmax(r)) for r in known_rounds]
    chosen: list[int] = []
    rounds = []
    for j in range(m):
        reuse = j < len(picks) and chosen == picks[:j]
        start = known_rounds[j].shape[0] if reuse else 0
        stacked = np.empty((k - start, j + 1), dtype=np.intp)  # row indices
        stacked[:, :j] = chosen
        stacked[:, j] = np.arange(start, k)
        scores = np.linalg.svd(inputs[stacked], compute_uv=False)[:, -1]
        if reuse:
            scores = np.concatenate([known_rounds[j], scores])
        scores[chosen] = -np.inf
        chosen.append(int(np.argmax(scores)))
        rounds.append(scores)
    if chosen == picks:
        return known_basis, rounds
    sv = np.linalg.svd(inputs[chosen], compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= RANK_TOL * sv[0]:
        return (), rounds
    return tuple(chosen), rounds


def _slink_insert(pi: list, lam: list, dist: list) -> None:
    """Extend a pointer representation by one object (Sibson's SLINK step).

    ``dist`` holds the distances from the new object to objects ``0..n-1``
    and is used as scratch.  O(n) per inserted object.
    """
    n = len(pi)
    pi.append(n)
    lam.append(np.inf)
    for i in range(n):
        p, li, di = pi[i], lam[i], dist[i]
        if li >= di:
            if li < dist[p]:
                dist[p] = li
            lam[i] = di
            pi[i] = n
        elif di < dist[p]:
            dist[p] = di
    for i in range(n):
        if lam[i] >= lam[pi[i]]:
            pi[i] = n


def _partition(pi, lam, delta: float, n_modes: int) -> list[np.ndarray]:
    """Flat single-linkage clusters of a pointer representation.

    Object i joins ``pi[i]`` when ``lam[i]`` is at or below the cut, which
    merges strictly below ``delta``; the objects above it end their
    clusters.  With more than ``n_modes`` clusters the cut rises to the
    merge height that leaves ``n_modes``, logging each forced merge.
    Clusters come in order of their first member, each an index array in
    increasing order.
    """
    lam = np.array(lam)
    cut = math.nextafter(delta, 0.0)  # merge strictly below delta
    last = np.flatnonzero(lam > cut)  # the last object of each cluster
    if last.shape[0] > n_modes:
        heights = np.sort(lam[np.isfinite(lam)])
        forced_cut = max(cut, float(heights[lam.shape[0] - n_modes - 1]))
        for height in heights[(heights > cut) & (heights <= forced_cut)]:
            log.info(
                "forced merge at height %.6g, at or above separation delta %.6g",
                height, delta,
                extra={"event": "forced_merge", "height": float(height), "delta": delta},
            )
        cut = forced_cut
        last = np.flatnonzero(lam > cut)
    root = _roots(pi, lam, cut)
    return sorted((np.flatnonzero(root == r) for r in last.tolist()),
                  key=lambda members: members[0])


def _roots(pi, lam: np.ndarray, cut: float) -> np.ndarray:
    """Each object's cluster at ``cut``, named by the cluster's last object."""
    # pi[i] > i: pointer jumping settles every object on its cluster's last one
    root = np.where(lam <= cut, np.array(pi), np.arange(lam.shape[0]))
    while True:
        hop = root[root]
        if (hop == root).all():
            return root
        root = hop


def _make_cluster(points: np.ndarray, members: Sequence[int], known: tuple = ((), ())):
    """The cluster of ``points[members]`` and its basis round scores.

    ``known`` is passed to :func:`_select_basis`: the basis and round scores
    of a prefix of ``members``, if any.
    """
    pairs = points[members]
    pairs.setflags(write=False)
    m = pairs.shape[1] // 2
    basis, rounds = _select_basis(pairs[:, :m], m, known)
    return Cluster(pairs=pairs, basis_indices=basis), rounds


def cluster_pairs(points: np.ndarray, delta: float, n_modes: int) -> list[Cluster]:
    """Single-linkage clustering of the graph points ``[u | v]``, a ``(k, 2m)`` table.

    Clusters are merged while the nearest pair of clusters is closer than
    ``delta``; the resulting clusters are pairwise at least ``delta`` apart.
    If more than ``n_modes`` clusters remain, under-sampled modes are still
    fragmented, and the closest clusters keep merging until the count
    reaches ``n_modes`` (fragments rejoin as sampling fills in).
    Deterministic given the input order.
    """
    k = len(points)
    if not k:
        raise ValueError("no pairs to cluster")
    if delta <= 0:
        raise ValueError("separation delta must be positive")
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    # the pointer representation the stream builds, one object at a time
    dist = pairwise_distances(points, points)
    pi: list[int] = []
    lam: list[float] = []
    for n in range(k):
        _slink_insert(pi, lam, dist[n, :n].tolist())
    groups = _partition(pi, lam, delta, n_modes)
    return [_make_cluster(points, members)[0] for members in groups]


# ---------------------------------------------------------------------------
# Affine fitting


def _unidentifiable(cluster: Cluster) -> Optional[tuple[str, str]]:
    """Why :func:`fit_affine` cannot identify ``cluster``, as (message, detail); None if it can."""
    if not cluster.basis_indices:
        return "cluster lacks linearly independent basis inputs", "basis"
    if cluster.pairs.shape[0] == len(cluster.basis_indices):
        return "cluster has no pair beyond the basis to anchor the translation", "anchor"
    return None


def fit_affine(cluster: Cluster) -> AffineMap:
    """Fit the affine map of one cluster exactly.

    Differences from an anchor pair cancel the translation: with anchor
    ``(u_a, v_a)`` and basis pairs ``(u_b, v_b)``, the linear part maps each
    ``u_b - u_a`` to ``v_b - v_a`` and the translation is ``v_a - P u_a``.
    The deviation from identity is the minimum-norm least-squares solution:
    exact when the differences have full rank, and when they span a strict
    subspace (inputs confined to an affine subspace) it still reproduces
    consistent data exactly and leaves unobserved directions untouched.
    """
    reason = _unidentifiable(cluster)
    if reason is not None:
        message, detail = reason
        raise IdentificationError(message, detail=detail)
    m = cluster.pairs.shape[1] // 2
    inputs, effectives = cluster.pairs[:, :m], cluster.pairs[:, m:]
    basis = list(cluster.basis_indices)
    # anchor on the most distant extra pair to condition the difference fit
    gaps = pairwise_distances(inputs[basis], inputs).min(axis=0)
    gaps[basis] = -np.inf
    anchor = int(np.argmax(gaps))
    u_a, v_a = inputs[anchor], effectives[anchor]
    U_diff = inputs[basis] - u_a  # one row per basis pair
    V_diff = effectives[basis] - v_a
    deviation, *_ = np.linalg.lstsq(U_diff, V_diff - U_diff, rcond=RANK_TOL)
    linear = np.eye(m) + deviation.T
    translation = v_a - linear @ u_a
    return AffineMap(linear, translation)


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
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not (math.isfinite(self.identity_tol) and self.identity_tol >= 0):
            raise ValueError(
                f"identity_tol must be finite and non-negative, got {self.identity_tol}")
        if self.n_modes < 1:
            raise ValueError(f"modes must be at least 1, got {self.n_modes}")


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

    # Derived on first use: the snapshots of a stream are never queried.

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
        """``star_contains`` of the point ``coords`` (a list of floats).

        The last point asked and its answer are remembered, so a command's
        ``viabilize``, ``query`` and error bound classify it once.  Key and
        answer are stored as one tuple, so concurrent callers always read a
        matching pair; the memo is not a field, so ``replace`` drops it.
        """
        key = tuple(coords)
        last = self.__dict__.get("_last_containment")
        if last is not None and last[0] == key:
            return last[1]
        answer = star_contains(self.inner, self.outer, coords)
        self.__dict__["_last_containment"] = (key, answer)
        return answer


@dataclass(frozen=True)
class CdmReconstruction:
    """Full reconstruction state: modes plus the unaffected pairs' ``(k, 2m)`` table."""

    modes: tuple
    unaffected: np.ndarray
    separation: float
    mode_count: int
    input_dim: int


def _is_unaffected(point: np.ndarray, identity_tol: float) -> bool:
    # one norm per pair, so the stream and the batch decide bit for bit alike
    m = point.shape[0] // 2
    dev = np.linalg.norm(point[m:] - point[:m])
    return bool(dev <= identity_tol * (1.0 + np.linalg.norm(point[:m])))


def split_pairs(points: np.ndarray, identity_tol: float):
    """Partition a pair table into (affected, unaffected) tables by relative deviation."""
    mask = np.array([_is_unaffected(p, identity_tol) for p in points], dtype=bool)
    return points[~mask], points[mask]


def fit_residuals(affine: AffineMap, pairs: np.ndarray) -> np.ndarray:
    """Residuals ``|affine(u) - v|`` of a pair table, row by row: a slice scores like the whole."""
    m = pairs.shape[1] // 2
    gaps = (affine.translation + affine.linear @ u - v for u, v in zip(pairs[:, :m], pairs[:, m:]))
    return np.array([math.sqrt(g.dot(g)) for g in gaps])  # np.linalg.norm's arithmetic


def _mode_from_cluster(cluster: Cluster, unaffected_inputs: np.ndarray,
                       config: IdentificationConfig,
                       known: Optional[ModeReconstruction] = None) -> ModeReconstruction:
    """Bound, fit and score one cluster.

    ``known`` may be the mode of a cluster whose pairs are a prefix of this
    one's; when the fit reproduces its map exactly, its residuals are kept
    and only the new pairs are scored.
    """
    inputs = cluster.pairs[:, :cluster.pairs.shape[1] // 2]
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
        affine = fit_affine(cluster)
        reused = np.empty(0)
        if (known is not None and known.identified
                and np.array_equal(known.map.linear, affine.linear)
                and np.array_equal(known.map.translation, affine.translation)):
            reused = known.residuals
        fresh = fit_residuals(affine, cluster.pairs[reused.shape[0]:])
        residuals = np.concatenate([reused, fresh])
        residuals.setflags(write=False)  # snapshots of a stream share it
    except IdentificationError as exc:
        log.debug("cluster left unidentified: %s", exc)
        affine, residuals = None, None
    return ModeReconstruction(
        map=affine, inner=inner, outer=outer, pairs=cluster.pairs, residuals=residuals
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


def reconstruction_from_clusters(clusters: Sequence[Cluster], unaffected: np.ndarray,
                                 config: IdentificationConfig) -> CdmReconstruction:
    """The reconstruction with one mode per cluster and the ``(k, 2m)`` unaffected table.

    The batch build calls it after clustering and the reconstruction reader
    on each mode's pair table, so a file reads back only as built.
    """
    m = unaffected.shape[1] // 2
    return CdmReconstruction(
        modes=tuple(_mode_from_cluster(c, unaffected[:, :m], config) for c in clusters),
        unaffected=unaffected,
        separation=config.delta,
        mode_count=config.n_modes,
        input_dim=m,
    )


def build_reconstruction_from_pairs(pairs: Sequence[EffectivePair],
                                    config: IdentificationConfig) -> CdmReconstruction:
    """Cluster, fit, and bound degradation modes from recovered pairs."""
    if not pairs:
        raise ValueError("cannot build a reconstruction from zero pairs")
    m = pairs[0].dim
    table = np.array([(p.input, p.effective) for p in pairs]).reshape(len(pairs), 2 * m)
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

    ``push(pair)`` records a pair at the cost of clustering it: single
    linkage is kept in Sibson's pointer representation, updated in O(n) per
    affected pair, and the clusters whose membership changed get their
    basis; no star set is built and no map is fitted.  ``modes_identified``
    counts the current clusters that :func:`fit_affine` identifies.
    ``snapshot()`` returns the reconstruction of every pair pushed so far,
    equal to ``build_reconstruction_from_pairs`` on them: it bounds, fits
    and scores only the clusters whose membership changed since the last
    snapshot, reusing the residuals of a prefix of their pairs, and folds
    the unaffected pairs pushed since into the outer side of every other
    mode.  Lipschitz-slope warnings fire for the modes a snapshot builds.
    ``add(pair)`` is a push followed by a snapshot.
    """

    def __init__(self, config: IdentificationConfig):
        self.config = config
        self._dim: Optional[int] = None
        # Graph points [u | v] of the affected and unaffected pairs, grown by doubling.
        # Snapshots view the unaffected prefix: rows below the count are never
        # rewritten, and a full buffer is replaced by a copy, not resized in place.
        self._points = np.empty((0, 0))
        self._unaffected = np.empty((0, 0))
        self._n_unaffected = 0
        self._pi: list[int] = []  # one entry per affected pair
        self._lam: list[float] = []
        # (cluster, basis round scores) by member indices, in cluster order
        self._clusters: dict[tuple, tuple[Cluster, list]] = {}
        # the last snapshot's modes by member indices, and its unaffected count
        self._modes: dict[tuple, ModeReconstruction] = {}
        self._folded = 0

    def push(self, pair: EffectivePair) -> None:
        """Record one pair and re-cut the clusters it changes."""
        if self._dim is None:
            self._dim = pair.dim
            self._points = np.empty((8, 2 * pair.dim))
            self._unaffected = np.empty((8, 2 * pair.dim))
        elif pair.dim != self._dim:
            raise ValueError(f"pair dimension {pair.dim} != {self._dim}")
        point = np.concatenate([pair.input, pair.effective])
        if _is_unaffected(point, self.config.identity_tol):
            self._unaffected = _append_row(self._unaffected, self._n_unaffected, point)
            self._n_unaffected += 1
        else:
            n = len(self._pi)
            dist = pairwise_distances(point[None, :], self._points[:n])[0].tolist()
            self._points = _append_row(self._points, n, point)
            _slink_insert(self._pi, self._lam, dist)
            self._repartition()

    @property
    def modes_identified(self) -> int:
        """How many current clusters :func:`fit_affine` identifies."""
        return sum(_unidentifiable(c) is None for c, _ in self._clusters.values())

    def snapshot(self) -> CdmReconstruction:
        """The reconstruction of all pairs pushed so far."""
        if self._dim is None:
            raise ValueError("cannot build a reconstruction from zero pairs")
        cfg = self.config
        unaffected = self._unaffected[:self._n_unaffected]
        unaffected.setflags(write=False)
        folds = unaffected[self._folded:, :self._dim]
        modes = {}
        for key, (cluster, _) in self._clusters.items():
            mode = self._modes.get(key)
            if mode is None:
                mode = _mode_from_cluster(cluster, unaffected[:, :self._dim], cfg,
                                          _prefix_entry(self._modes, key))
                _warn_if_steep(mode.inner, cfg)
            else:
                outer = mode.outer
                for u in folds:
                    outer = outer.with_witness(u)
                if outer is not mode.outer:
                    mode = replace(mode, outer=outer)
            modes[key] = mode
        self._modes, self._folded = modes, self._n_unaffected
        return CdmReconstruction(
            modes=tuple(modes.values()),
            unaffected=unaffected,
            separation=cfg.delta,
            mode_count=cfg.n_modes,
            input_dim=self._dim,
        )

    def add(self, pair: EffectivePair) -> CdmReconstruction:
        """Record one pair and return the reconstruction of all pairs so far."""
        self.push(pair)
        return self.snapshot()

    def _repartition(self) -> None:
        """Re-cut the dendrogram; remake the clusters whose membership changed."""
        cfg = self.config
        points = self._points[:len(self._pi)]
        groups = _partition(self._pi, self._lam, cfg.delta, cfg.n_modes)
        clusters = {}
        for members in groups:
            key = tuple(members.tolist())
            entry = self._clusters.get(key)
            if entry is None:
                # a cluster that only gained pairs keeps the basis work that still holds
                prefix, known_rounds = _prefix_entry(self._clusters, key) or (None, ())
                known = (prefix.basis_indices, known_rounds) if prefix else ((), ())
                entry = _make_cluster(points, members, known)
            clusters[key] = entry
        self._clusters = clusters


def _prefix_entry(entries: dict, key: tuple):
    """The value of the entry whose key is a proper prefix of ``key``; None if none is."""
    for known, value in entries.items():
        if len(known) < len(key) and key[:len(known)] == known:
            return value
    return None


def _append_row(buffer: np.ndarray, n: int, row: np.ndarray) -> np.ndarray:
    """Write ``row`` at index ``n``, doubling the buffer when it is full."""
    if n == buffer.shape[0]:
        grown = np.empty((2 * n, buffer.shape[1]))
        grown[:n] = buffer
        buffer = grown
    buffer[n] = row
    return buffer


def build_reconstruction(samples: Sequence[ControlSample], model: SystemModel,
                         config: IdentificationConfig) -> CdmReconstruction:
    """End-to-end reconstruction from raw observations.

    Re-running on the same samples yields an identical reconstruction.
    """
    pairs = [
        EffectivePair(s.input, recover_effective_input(s, model)) for s in samples
    ]
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


_FLOAT64 = np.dtype(np.float64)


def _command(recon: CdmReconstruction, u) -> np.ndarray:
    """``u`` as a finite vector of the reconstruction's input dimension.

    A float64 ``ndarray`` of that shape is returned as it is, as the
    coercion below would return it.
    """
    if type(u) is np.ndarray and u.dtype is _FLOAT64 and u.shape == (recon.input_dim,):
        if not all(map(math.isfinite, u.tolist())):
            raise PreconditionError("command has non-finite components")
        return u
    try:
        raw = np.asarray(u)
        if raw.dtype.kind not in "biuf":  # strings would parse, complex would truncate
            raise TypeError(f"dtype {raw.dtype}")
        point = np.atleast_1d(np.asarray(raw, dtype=float))
    except (TypeError, ValueError) as exc:
        raise PreconditionError(f"command is not a vector of real numbers: {exc}") from None
    if point.shape != (recon.input_dim,):
        raise PreconditionError(
            f"command has shape {point.shape}, reconstruction expects ({recon.input_dim},)"
        )
    if not all(map(math.isfinite, point.tolist())):  # cheaper than numpy for short vectors
        raise PreconditionError("command has non-finite components")
    return point


def query(recon: CdmReconstruction, u) -> QueryResult:
    """Predict the effective input for ``u`` where the reconstruction can.

    Passthrough when ``u`` is provably outside every mode's affected set;
    the fitted mode image when ``u`` is provably inside exactly one
    identified mode; inconclusive otherwise.  A non-numeric, non-finite or
    wrong-dimension ``u`` raises :class:`PreconditionError`.
    """
    point = _command(recon, u)
    coords = point.tolist()
    inside = []
    outside_all = True
    for i, mode in enumerate(recon.modes):
        c = mode.containment(coords)
        if c is Containment.INSIDE_INNER:
            inside.append(i)
        if c is not Containment.OUTSIDE_OUTER:
            outside_all = False
    if len(inside) == 1 and recon.modes[inside[0]].identified:
        idx = inside[0]
        return QueryResult(
            kind=QueryKind.MAPPED,
            value=apply_affine(recon.modes[idx].map, point),
            mode_index=idx,
        )
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
    try:
        admissible = math.isfinite(l_p) and l_p > 0
    except TypeError:  # not a real number
        admissible = False
    if not admissible:
        raise ValueError(f"Lipschitz constant must be finite and positive, got {l_p}")
    point = _command(recon, u)
    coords = point.tolist()
    for mode in recon.modes:
        if mode.containment(coords) is not Containment.INSIDE_INNER:
            continue
        if not mode.identified:
            raise PreconditionError(
                "point lies in a detected but unidentified mode; no fit to bound"
            )
        gaps = mode.pairs[:, :recon.input_dim] - point
        dists = np.sqrt(np.add.reduce(gaps * gaps, axis=1))  # np.linalg.norm's arithmetic
        return float(np.min(mode.residuals + l_p * dists))
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
    cmd = _command(recon, u_cmd)
    coords = cmd.tolist()
    # query's PASSTHROUGH: INSIDE_INNER already implies not OUTSIDE_OUTER
    if all(mode.containment(coords) is Containment.OUTSIDE_OUTER for mode in recon.modes):
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
        if mode.containment(coords) is Containment.INSIDE_INNER:
            return candidate
    raise UnviableInputError(
        "commanded input is outside the reconstructed viable range", u_cmd=cmd
    )
