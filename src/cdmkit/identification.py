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
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import cdist

from .degradation import AffineMap, apply_affine
from .errors import IdentificationError, PreconditionError, UnviableInputError
from .geometry import (
    Containment,
    Side,
    StarSetApprox,
    estimate_mgf_lipschitz,
    star_contains,
)
from .simulation import ControlSample, SystemModel

log = logging.getLogger(__name__)

RANK_TOL = 1e-9  # relative singular-value cutoff of every rank decision


@dataclass(frozen=True)
class EffectivePair:
    """A commanded input and the effective input recovered for it."""

    input: np.ndarray
    effective: np.ndarray

    def __post_init__(self):
        u = np.atleast_1d(np.asarray(self.input, dtype=float))
        v = np.atleast_1d(np.asarray(self.effective, dtype=float))
        if u.shape != v.shape:
            raise ValueError("input and effective input dimensions disagree")
        u.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "input", u)
        object.__setattr__(self, "effective", v)

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
    """Degraded pairs believed to share one degradation mode."""

    pairs: tuple
    basis_indices: tuple

    @property
    def inputs(self) -> np.ndarray:
        return np.array([p.input for p in self.pairs])


def _select_basis(inputs: np.ndarray, m: int, known: Sequence = ()):
    """Greedily pick m inputs maximizing the smallest singular value.

    Round j scores every input by the smallest singular value of the inputs
    chosen so far stacked over it, in one batched SVD, and picks the first
    best among the unchosen (chosen ones score -inf).  Returns the basis,
    empty when rank deficient, and each round's scores.  ``known`` may hold
    the round scores of a prefix of ``inputs``: while its picks agree, only
    the rows beyond the prefix are scored.
    """
    k = inputs.shape[0]
    if k < m:
        return (), []
    chosen: list[int] = []
    rounds = []
    for j in range(m):
        reuse = j < len(known) and chosen == [int(np.argmax(r)) for r in known[:j]]
        start = known[j].shape[0] if reuse else 0
        stacked = np.concatenate([
            np.broadcast_to(inputs[chosen], (k - start, j, m)),
            inputs[start:, None, :],
        ], axis=1)
        scores = np.linalg.svd(stacked, compute_uv=False)[:, -1]
        if reuse:
            scores = np.concatenate([known[j], scores])
        scores[chosen] = -np.inf
        chosen.append(int(np.argmax(scores)))
        rounds.append(scores)
    sv = np.linalg.svd(inputs[chosen], compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= RANK_TOL * sv[0]:
        return (), rounds
    return tuple(chosen), rounds


def _pointer_from_linkage(tree: np.ndarray, k: int):
    """Pointer representation ``(pi, lam)`` of a single-linkage merge list.

    Each merge at height h links the last (largest-index) objects of its
    two clusters: the smaller one points at the larger with level h.  The
    partition at any cut then matches the merge list's (``_partition``).
    """
    pi = np.arange(k)
    lam = np.full(k, np.inf)
    last = list(range(k))
    for a, b, height, _ in tree:
        lo, hi = sorted((last[int(a)], last[int(b)]))
        pi[lo], lam[lo] = hi, height
        last.append(hi)
    return pi, lam


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


def _partition(pi, lam, delta: float, n_modes: int, force_merge: bool,
               points: np.ndarray) -> list[list[int]]:
    """Flat single-linkage clusters of a pointer representation.

    Object i joins ``pi[i]`` when ``lam[i]`` is at or below the cut, which
    merges strictly below ``delta``.  With more than ``n_modes`` clusters,
    ``force_merge`` raises the cut to the merge height that leaves
    ``n_modes`` (logging each forced merge); otherwise it raises.  Clusters
    come in order of their first member, members in index order.
    """
    lam = np.asarray(lam, dtype=float)
    k = lam.shape[0]
    heights = np.sort(lam[np.isfinite(lam)])
    cut = np.nextafter(delta, 0.0)  # merge strictly below delta
    n_clusters = k - int(np.sum(heights <= cut))
    if n_clusters > n_modes:
        if not force_merge:
            far = np.argwhere(cdist(points, points) >= delta)
            detail = tuple(far[0]) if far.size else None
            raise IdentificationError(
                f"{n_clusters} clusters remain at separation {delta} "
                f"with only {n_modes} modes allowed; next merge distance "
                f"{heights[k - n_clusters]:.6g}",
                detail=detail,
            )
        forced_cut = max(cut, float(heights[k - n_modes - 1]))
        for height in heights[(heights > cut) & (heights <= forced_cut)]:
            log.info(
                "forced merge at height %.6g, at or above separation delta %.6g",
                height, delta,
                extra={"event": "forced_merge", "height": float(height), "delta": delta},
            )
        cut = forced_cut
    # pi[i] > i: pointer jumping settles every object on its cluster's last one
    root = np.where(lam <= cut, np.asarray(pi), np.arange(k))
    while True:
        hop = root[root]
        if np.array_equal(hop, root):
            break
        root = hop
    _, first, label = np.unique(root, return_index=True, return_inverse=True)
    return [np.flatnonzero(label == c).tolist() for c in np.argsort(first)]


def _make_cluster(pairs: Sequence[EffectivePair], members: Sequence[int],
                  known: Sequence = ()):
    """The cluster of ``pairs[members]`` and its basis round scores."""
    cluster_pairs_ = tuple(pairs[i] for i in members)
    inputs = np.array([p.input for p in cluster_pairs_])
    basis, rounds = _select_basis(inputs, cluster_pairs_[0].dim, known)
    return Cluster(pairs=cluster_pairs_, basis_indices=basis), rounds


def cluster_pairs(pairs: Sequence[EffectivePair], delta: float, n_modes: int,
                  force_merge: bool = True) -> list[Cluster]:
    """Single-linkage clustering of (input, effective) graph points.

    Clusters are merged while the nearest pair of clusters is closer than
    ``delta``; the resulting clusters are pairwise at least ``delta`` apart.
    If more than ``n_modes`` clusters remain, under-sampled modes are still
    fragmented; with ``force_merge`` the closest clusters keep merging until
    the count reaches ``n_modes`` (fragments rejoin as sampling fills in),
    otherwise an error lists the closest offending pair.  Deterministic
    given the input order.
    """
    if not pairs:
        raise ValueError("no pairs to cluster")
    if delta <= 0:
        raise ValueError("separation delta must be positive")
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    points = np.array([np.concatenate([p.input, p.effective]) for p in pairs])
    k = points.shape[0]
    if k == 1:
        pi, lam = np.zeros(1, dtype=int), np.full(1, np.inf)
    else:
        pi, lam = _pointer_from_linkage(linkage(points, method="single"), k)
    groups = _partition(pi, lam, delta, n_modes, force_merge, points)
    return [_make_cluster(pairs, members)[0] for members in groups]


# ---------------------------------------------------------------------------
# Affine fitting


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
    if not cluster.basis_indices:
        raise IdentificationError(
            "cluster lacks linearly independent basis inputs",
            detail="basis",
        )
    m = cluster.pairs[0].dim
    basis = list(cluster.basis_indices)
    others = [i for i in range(len(cluster.pairs)) if i not in basis]
    if not others:
        raise IdentificationError(
            "cluster has no pair beyond the basis to anchor the translation",
            detail="anchor",
        )
    inputs = cluster.inputs
    # anchor on the most distant extra pair to condition the difference fit
    gaps = cdist(inputs[others], inputs[basis]).min(axis=1)
    anchor = others[int(np.argmax(gaps))]
    u_a, v_a = cluster.pairs[anchor].input, cluster.pairs[anchor].effective
    U_diff = np.column_stack([cluster.pairs[b].input - u_a for b in basis])
    V_diff = np.column_stack([cluster.pairs[b].effective - v_a for b in basis])
    deviation, *_ = np.linalg.lstsq(U_diff.T, (V_diff - U_diff).T, rcond=RANK_TOL)
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
    force_merge: bool = True

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
    that is checked here, once, so containment queries need not.
    """

    map: Optional[AffineMap]
    inner: StarSetApprox
    outer: StarSetApprox
    pairs: tuple
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
    def inputs(self) -> np.ndarray:
        """The pairs' inputs as one read-only ``(k, m)`` array."""
        inputs = np.array([p.input for p in self.pairs])
        inputs.setflags(write=False)
        return inputs

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


@dataclass(frozen=True)
class CdmReconstruction:
    """Full reconstruction state: modes plus the unaffected sample pool."""

    modes: tuple
    unaffected: tuple
    separation: float
    mode_count: int
    input_dim: int


def _is_unaffected(pair: EffectivePair, identity_tol: float) -> bool:
    dev = np.linalg.norm(pair.effective - pair.input)
    return bool(dev <= identity_tol * (1.0 + np.linalg.norm(pair.input)))


def split_pairs(pairs: Sequence[EffectivePair], identity_tol: float):
    """Partition pairs into (affected, unaffected) by relative deviation."""
    affected, unaffected = [], []
    for p in pairs:
        (unaffected if _is_unaffected(p, identity_tol) else affected).append(p)
    return affected, unaffected


def fit_residuals(affine: AffineMap, pairs: Sequence[EffectivePair]) -> np.ndarray:
    """Per-pair fit residuals ``|affine(u) - v|``."""
    gaps = (affine.translation + affine.linear @ p.input - p.effective for p in pairs)
    return np.array([math.sqrt(g.dot(g)) for g in gaps])  # np.linalg.norm's arithmetic


def _mode_from_cluster(cluster: Cluster, unaffected_inputs: np.ndarray,
                       config: IdentificationConfig,
                       known: Optional[ModeReconstruction] = None) -> ModeReconstruction:
    """Bound, fit and score one cluster.

    ``known`` may be the mode of a cluster whose pairs are a prefix of this
    one's; when the fit reproduces its map exactly, its residuals are kept
    and only the new pairs are scored.
    """
    center = cluster.inputs.mean(axis=0)
    inner = StarSetApprox.from_points(cluster.inputs, center, config.lipschitz, Side.INNER)
    if unaffected_inputs.size:
        outer = StarSetApprox.from_points(
            unaffected_inputs, center, config.lipschitz, Side.OUTER
        )
    else:
        outer = StarSetApprox(center, config.lipschitz, np.empty((0, center.shape[0])),
                              np.empty(0), Side.OUTER)
    if inner.n_samples >= 2:
        try:
            est = estimate_mgf_lipschitz(inner.directions, inner.radii)
        except ValueError:
            est = 0.0
        if est > config.lipschitz * (1.0 + 1e-9):
            warnings.warn(
                f"witness radii vary with slope {est:.3g}, above the assumed "
                f"Lipschitz constant {config.lipschitz:.3g}",
                RuntimeWarning,
                stacklevel=3,
            )
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


def build_reconstruction_from_pairs(pairs: Sequence[EffectivePair],
                                    config: IdentificationConfig) -> CdmReconstruction:
    """Cluster, fit, and bound degradation modes from recovered pairs."""
    if not pairs:
        raise ValueError("cannot build a reconstruction from zero pairs")
    m = pairs[0].dim
    affected, unaffected = split_pairs(pairs, config.identity_tol)
    unaffected_inputs = (
        np.array([p.input for p in unaffected]) if unaffected else np.empty((0, m))
    )
    modes = []
    if affected:
        for cluster in cluster_pairs(affected, config.delta, config.n_modes,
                                     force_merge=config.force_merge):
            modes.append(_mode_from_cluster(cluster, unaffected_inputs, config))
    return CdmReconstruction(
        modes=tuple(modes),
        unaffected=tuple(unaffected),
        separation=config.delta,
        mode_count=config.n_modes,
        input_dim=m,
    )


class Reconstructor:
    """Online reconstruction: one immutable snapshot per added pair.

    ``add(pair)`` returns the reconstruction of every pair added so far,
    equal to ``build_reconstruction_from_pairs`` on them, at the cost of the
    new pair rather than of a rebuild.  Single linkage is kept in Sibson's
    pointer representation, updated in O(n) per affected pair.  An
    unaffected pair appends one outer witness to every mode and reuses
    everything else; an affected pair rebuilds only the clusters whose
    membership changed.  When a snapshot cannot be built (too many clusters
    without ``force_merge``), ``add`` raises and keeps the pair; the next
    ``add`` covers it.
    """

    def __init__(self, config: IdentificationConfig):
        if config.delta <= 0:
            raise ValueError("separation delta must be positive")
        if config.n_modes < 1:
            raise ValueError("n_modes must be at least 1")
        self.config = config
        self._dim: Optional[int] = None
        self._affected: list[EffectivePair] = []
        self._points = np.empty((0, 0))  # graph points of the affected pairs, grown by doubling
        self._pi: list[int] = []
        self._lam: list[float] = []
        self._unaffected: list[EffectivePair] = []
        self._unaffected_inputs = np.empty((0, 0))  # grown by doubling
        # (mode, basis round scores) by member indices, in cluster order
        self._clusters: dict[tuple, tuple[ModeReconstruction, list]] = {}
        self._stale = False  # the last partition attempt failed

    def add(self, pair: EffectivePair) -> CdmReconstruction:
        """Record one pair and return the reconstruction of all pairs so far."""
        if self._dim is None:
            self._dim = pair.dim
            self._points = np.empty((8, 2 * pair.dim))
            self._unaffected_inputs = np.empty((8, pair.dim))
        elif pair.dim != self._dim:
            raise ValueError(f"pair dimension {pair.dim} != {self._dim}")
        if _is_unaffected(pair, self.config.identity_tol):
            self._unaffected_inputs = _append_row(
                self._unaffected_inputs, len(self._unaffected), pair.input)
            self._unaffected.append(pair)
            self._clusters = {
                key: (replace(mode, outer=mode.outer.with_witness(pair.input)), rounds)
                for key, (mode, rounds) in self._clusters.items()
            }
            if self._stale:
                self._repartition()
        else:
            n = len(self._affected)
            point = np.concatenate([pair.input, pair.effective])
            dist = cdist(point[None, :], self._points[:n])[0].tolist()
            self._points = _append_row(self._points, n, point)
            self._affected.append(pair)
            _slink_insert(self._pi, self._lam, dist)
            self._repartition()
        return CdmReconstruction(
            modes=tuple(mode for mode, _ in self._clusters.values()),
            unaffected=tuple(self._unaffected),
            separation=self.config.delta,
            mode_count=self.config.n_modes,
            input_dim=self._dim,
        )

    def _repartition(self) -> None:
        """Re-cut the dendrogram; rebuild the modes whose membership changed."""
        self._stale = True
        cfg = self.config
        groups = _partition(self._pi, self._lam, cfg.delta, cfg.n_modes,
                            cfg.force_merge, self._points[:len(self._affected)])
        unaffected_inputs = self._unaffected_inputs[:len(self._unaffected)]
        clusters = {}
        for members in groups:
            key = tuple(members)
            if key not in self._clusters:
                # a cluster that only gained the newest pair keeps what still holds
                known_mode, known_rounds = self._clusters.get(key[:-1], (None, ()))
                cluster, rounds = _make_cluster(self._affected, members, known_rounds)
                mode = _mode_from_cluster(cluster, unaffected_inputs, cfg, known_mode)
                clusters[key] = (mode, rounds)
            else:
                clusters[key] = self._clusters[key]
        self._clusters = clusters
        self._stale = False


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


def _command(recon: CdmReconstruction, u) -> np.ndarray:
    """``u`` as a finite vector of the reconstruction's input dimension."""
    point = np.atleast_1d(np.asarray(u, dtype=float))
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
    identified mode; inconclusive otherwise.  A non-finite or
    wrong-dimension ``u`` raises :class:`PreconditionError`.
    """
    point = _command(recon, u)
    coords = point.tolist()
    inside = []
    outside_all = True
    for i, mode in enumerate(recon.modes):
        c = star_contains(mode.inner, mode.outer, coords)
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
    the minimum over pairs is returned.
    """
    if l_p <= 0:
        raise ValueError("Lipschitz constant must be positive")
    point = np.atleast_1d(np.asarray(u, dtype=float))
    coords = point.tolist()
    for mode in recon.modes:
        if star_contains(mode.inner, mode.outer, coords) is not Containment.INSIDE_INNER:
            continue
        if not mode.identified:
            raise PreconditionError(
                "point lies in a detected but unidentified mode; no fit to bound"
            )
        dists = np.linalg.norm(mode.inputs - point, axis=1)
        return float(np.min(mode.residuals + l_p * dists))
    raise PreconditionError(
        "point is not certified inside any mode's inner approximation"
    )


def viabilize(recon: CdmReconstruction, u_cmd) -> np.ndarray:
    """Find an input whose degraded image equals the commanded input.

    Returns the command itself when it provably passes through unchanged;
    otherwise inverts each identified affine mode and returns the first
    solution certified inside that mode's affected set.  Non-invertible
    modes (e.g. constant maps) are skipped with a diagnostic.  A non-finite
    or wrong-dimension command raises :class:`PreconditionError`.
    """
    cmd = _command(recon, u_cmd)
    if query(recon, cmd).kind == QueryKind.PASSTHROUGH:
        return cmd.copy()
    for i, mode in enumerate(recon.modes):
        if not mode.identified:
            continue
        if mode.inverse is None:
            log.info("mode %d skipped during viabilization: linear part is singular", i)
            continue
        candidate = mode.inverse @ (cmd - mode.map.translation)
        if star_contains(mode.inner, mode.outer, candidate) is Containment.INSIDE_INNER:
            return candidate
    raise UnviableInputError(
        "commanded input is outside the reconstructed viable range", u_cmd=cmd
    )
