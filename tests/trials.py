"""Randomized multi-mode affine degradation instances with known ground truth.

Each trial builds a well-conditioned linear system, N affine modes on
widely separated ball regions, exact observations with m affinely
independent inputs plus one extra per mode, and a pool of provably
unaffected anchor inputs.  Geometry is scaled so that single-linkage
clustering at TRIAL_DELTA separates the modes with a wide margin.
"""

import numpy as np

from cdmkit.degradation import AffineMap, BallRegion, NModeCdm
from cdmkit.simulation import ControlSample, linear_system

TRIAL_DELTA = 15.0
TRIAL_LIPSCHITZ = 4.0


def make_trial(seed):
    """Return (model, ground-truth cdm, exact samples, m, N) for one seed."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    N = int(rng.integers(1, 4))
    n = m + int(rng.integers(0, 3))
    A = rng.uniform(-1, 1, (n, n))
    Q_, _ = np.linalg.qr(rng.uniform(-1, 1, (n, n)))
    B = Q_[:, :m] * rng.uniform(0.5, 2.0, m)
    model = linear_system(A, B)

    centers = [rng.uniform(-1, 1, m) + 30.0 * k * np.eye(1, m, 0).ravel() for k in range(N)]
    radii = rng.uniform(0.3, 0.6, N)
    modes, mode_samples = [], []
    for k in range(N):
        R = radii[k]
        while True:
            P = rng.uniform(-2, 2, (m, m))
            p = rng.uniform(-1, 1, m)
            qmap = AffineMap(P, p)
            pts = centers[k] + rng.uniform(-R, R, (m + 1, m)) * 0.57
            pts = pts[np.linalg.norm(pts - centers[k], axis=1) <= R]
            if len(pts) < m + 1:
                continue
            pts = pts[: m + 1]
            diffs = (pts[1:] - pts[0]).T
            if np.linalg.svd(diffs, compute_uv=False)[-1] < 0.05 * R:
                continue  # need affine independence for a unique fit
            if np.linalg.norm(pts.mean(0) - centers[k]) > R / 2:
                continue  # keep the witness centroid well inside the region
            if min(np.linalg.norm(qmap(u) - u) for u in pts) < 1e-3:
                continue  # every degraded sample must deviate detectably
            break
        modes.append((BallRegion(centers[k], R), qmap))
        mode_samples.append(pts)
    cdm = NModeCdm(tuple(modes))

    anchors = rng.uniform(-1, 1, (max(m, 2), m)) - 15.0  # far outside every region
    samples = []
    for u in np.vstack(mode_samples + [anchors]):
        x = rng.uniform(-1, 1, n)
        v = model.drift(x) + B @ cdm(u)
        samples.append(
            ControlSample(time=float(rng.uniform(0.0, 9.0)), state=x, velocity=v, input=u)
        )
    return model, cdm, samples, m, N


def in_region(region, u) -> bool:
    """Whether the ground-truth region holds the one input ``u``."""
    return bool(region.contains_rows(np.array(u, dtype=float, ndmin=2))[0])


def match_true_mode(cdm, mode):
    """Ground-truth (region, map) whose region holds the mode's first witness."""
    witness = mode.pairs[0, :mode.inner.dim]
    hits = [(region, q) for region, q in cdm.modes if in_region(region, witness)]
    assert len(hits) == 1, "recovered mode does not sit in exactly one true region"
    return hits[0]
