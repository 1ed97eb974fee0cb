"""The served path against a reference copy of its plainer earlier form.

The containment kernel (``geometry._classify``, ``_cone_bound`` and the two
gauge bounds) and the three served calls (``viabilize``, ``query`` and
``lipschitz_error_bound``) were tightened to do the same arithmetic with
less interpreter work around it.  The ``old_*`` functions below are the
earlier code, verbatim but for their names and for classifying a point
through ``old_classify`` where the served calls use a mode's memo.  Two
later changes are folded in: ``old_query`` maps by the earlier
``AffineMap.__call__`` arithmetic, a BLAS product, and ``old_viabilize``
inverts every command with NumPy's overflow warnings off and drops a
non-finite candidate, which is what its earlier per-mode overflow bound
chose between, with the same outcomes.  Every outcome must match them bit
for bit: the same containment, the same bound floats, the same returned
arrays and the same errors.  ``viabilize`` classifies no candidate its
mode cannot certify, which the reference still classifies.
"""

import logging
import math
import struct
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from cdmkit import geometry, identification, read_reconstruction
from cdmkit.degradation import AffineMap
from cdmkit.errors import PreconditionError, UnviableInputError
from cdmkit.geometry import (
    _NORMAL_MIN,
    Containment,
    Side,
    StarSetApprox,
    _coords,
    _norm,
    _polar,
    _UnitDirection,
)
from cdmkit.identification import CdmReconstruction, ModeReconstruction, QueryKind, QueryResult

log = logging.getLogger(__name__)

# ---------------------------------------------------------------------------
# Reference: the containment kernel


def old_query_direction(approx: StarSetApprox, direction) -> list:
    if type(direction) is _UnitDirection:
        return direction
    d = _coords(direction, approx.center.shape[0], "query direction")
    n = _norm(d)
    if not abs(n - 1.0) <= 1e-9:  # also rejects a non-finite direction
        raise ValueError(f"query direction must be a unit vector, |l| = {n}")
    return d if n == 1.0 else [x / n for x in d]  # x / 1.0 is x, bit for bit


def old_cone_bound(rows: list, l: list, lipschitz: float, inner: bool) -> float:
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


def old_mgf_outer_bound(approx: StarSetApprox, direction) -> float:
    if approx.side is not Side.OUTER:
        raise ValueError("outer bound requires an OUTER-side approximation")
    rows = approx.rows
    if not rows:
        raise ValueError("approximation has no witness samples")
    return old_cone_bound(rows, old_query_direction(approx, direction), approx.lipschitz, False)


def old_mgf_inner_bound(approx: StarSetApprox, direction) -> float:
    if approx.side is not Side.INNER:
        raise ValueError("inner bound requires an INNER-side approximation")
    rows = approx.rows
    if not rows:
        raise ValueError("approximation has no witness samples")
    return old_cone_bound(rows, old_query_direction(approx, direction), approx.lipschitz, True)


def old_classify(inner: StarSetApprox, outer: StarSetApprox, point: list) -> Containment:
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
    if inner.rows and r <= old_mgf_inner_bound(inner, l):
        return Containment.INSIDE_INNER
    if outer.rows and r > old_mgf_outer_bound(outer, l):
        return Containment.OUTSIDE_OUTER
    return Containment.INCONCLUSIVE


# ---------------------------------------------------------------------------
# Reference: the served calls

_FLOAT64 = np.dtype(np.float64)


def old_command(recon: CdmReconstruction, u) -> np.ndarray:
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


def old_query(recon: CdmReconstruction, u) -> QueryResult:
    point = old_command(recon, u)
    coords = point.tolist()
    inside = []
    outside_all = True
    for i, mode in enumerate(recon.modes):
        c = old_classify(mode.inner, mode.outer, coords)
        if c is Containment.INSIDE_INNER:
            inside.append(i)
        if c is not Containment.OUTSIDE_OUTER:
            outside_all = False
    if len(inside) == 1 and recon.modes[inside[0]].identified:
        idx = inside[0]
        q = recon.modes[idx].map
        return QueryResult(
            kind=QueryKind.MAPPED,
            value=q.translation + q.linear @ point,  # the earlier AffineMap.__call__
            mode_index=idx,
        )
    if not inside and outside_all:
        return QueryResult(kind=QueryKind.PASSTHROUGH, value=point.copy())
    return QueryResult(kind=QueryKind.INCONCLUSIVE)


def old_lipschitz_error_bound(recon: CdmReconstruction, u, l_p: float) -> float:
    try:
        admissible = math.isfinite(l_p) and l_p > 0
    except TypeError:  # not a real number
        admissible = False
    if not admissible:
        raise ValueError(f"Lipschitz constant must be finite and positive, got {l_p}")
    point = old_command(recon, u)
    coords = point.tolist()
    for mode in recon.modes:
        if old_classify(mode.inner, mode.outer, coords) is not Containment.INSIDE_INNER:
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


def old_viabilize(recon: CdmReconstruction, u_cmd) -> np.ndarray:
    cmd = old_command(recon, u_cmd)
    coords = cmd.tolist()
    # query's PASSTHROUGH: INSIDE_INNER already implies not OUTSIDE_OUTER
    if all(old_classify(mode.inner, mode.outer, coords) is Containment.OUTSIDE_OUTER
           for mode in recon.modes):
        return cmd.copy()
    for i, mode in enumerate(recon.modes):
        inverse = mode.inverse  # None for an unidentified mode too
        if inverse is None:
            if mode.identified:
                log.info("mode %d skipped during viabilization: linear part is singular", i)
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            candidate = inverse @ (cmd - mode.map.translation)
        coords = candidate.tolist()
        if not all(map(math.isfinite, coords)):  # overflowed
            continue
        if old_classify(mode.inner, mode.outer, coords) is Containment.INSIDE_INNER:
            return candidate
    raise UnviableInputError(
        "commanded input is outside the reconstructed viable range", u_cmd=cmd
    )


# ---------------------------------------------------------------------------
# Comparison


def exact(value):
    """A key equal for two values exactly when they agree bit for bit."""
    if isinstance(value, float):
        return "float", struct.pack("<d", value)
    if isinstance(value, np.ndarray):
        return "array", value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, QueryResult):
        return "result", value.kind, value.mode_index, exact(value.value)
    return type(value), value


def outcome(fn, *args):
    """``fn(*args)`` as a comparable key: its value, or the error it raised."""
    try:
        return exact(fn(*args))
    except UnviableInputError as exc:
        return UnviableInputError, str(exc), exact(exc.u_cmd)
    except (ValueError, TypeError, PreconditionError) as exc:
        return type(exc), str(exc)


def assert_same(new, old, *args):
    want = outcome(old, *args)
    assert outcome(new, *args) == want, (new.__name__, args, want)
    return want


# ---------------------------------------------------------------------------
# The containment kernel


@pytest.fixture(scope="module")
def bundled(heat_run):
    return read_reconstruction(heat_run[1].artifacts["reconstruction"])


def synthetic_pairs():
    """Star pairs beside the bundled modes: ties, other dimensions, far centers."""
    rng = np.random.default_rng(11)
    pairs = []
    # two witnesses symmetric about the y axis with equal radii: their cones tie on it
    tie = np.array([[0.6, 0.8], [-0.6, 0.8], [0.0, -1.0]])
    pairs.append((StarSetApprox(np.zeros(2), 1.0, tie, [1.0, 1.0, 0.5], Side.INNER),
                  StarSetApprox(np.zeros(2), 1.0, tie, [2.0, 2.0, 1.5], Side.OUTER)))
    for dim, center in ((2, [-1e308, 0.0]), (3, [0.5, -0.25, 2.0]), (1, [0.3])):
        dirs = rng.normal(size=(6, dim))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        radii = rng.uniform(0.1, 1.0, size=6)
        inner = StarSetApprox(np.array(center), 0.5, dirs, radii, Side.INNER)
        outer = StarSetApprox(np.array(center), 0.5, dirs, radii + 0.5, Side.OUTER)
        pairs.append((inner, outer))
    # an outer side without witnesses excludes nothing; an inner one of radius 0
    dirs = np.array([[1.0, 0.0], [0.0, 1.0]])
    pairs.append((StarSetApprox(np.zeros(2), 2.0, dirs, [0.0, 0.0], Side.INNER),
                  StarSetApprox(np.zeros(2), 2.0, np.empty((0, 2)), np.empty(0), Side.OUTER)))
    return pairs


def unit_directions(rng, k, dim):
    v = rng.normal(size=(k, dim))
    return (v / np.linalg.norm(v, axis=1)[:, None]).tolist()


def corpus(inner, outer, rng):
    """Points near the pair's boundaries, at its center and along its witnesses."""
    center = inner.center_coords
    dim = len(center)
    points = [list(center)]
    steps = [1.0 + k * 2.0**-52 for k in range(-3, 4)]
    for l in unit_directions(rng, 40, dim) + [d for _, d in inner.rows + outer.rows]:
        radii = [old_mgf_inner_bound(inner, l)] if inner.rows else []
        if outer.rows:
            radii.append(old_mgf_outer_bound(outer, l))
        radii += [r for r, _ in inner.rows + outer.rows]
        for r in radii:
            points += [[c + x * r * s for c, x in zip(center, l)] for s in steps]
        # offsets whose squares underflow or overflow, and the ones past float range
        for scale in (5e-324, 1e-300, 1e-170, 1e-160, 1e160, 1e200, 1e300, 1.7e308):
            points.append([c + x * scale for c, x in zip(center, l)])
            points.append([x * scale for x in l])
    points += [[math.nan] + center[1:], [math.inf] + center[1:], [-math.inf] * dim]
    return points


def test_classify_matches_the_reference_bit_for_bit(bundled):
    rng = np.random.default_rng(5)
    pairs = [(mode.inner, mode.outer) for mode in bundled.modes] + synthetic_pairs()
    seen = set()
    n = 0
    for inner, outer in pairs:
        for point in corpus(inner, outer, rng):
            seen.add(assert_same(geometry._classify, old_classify, inner, outer, point))
            n += 1
    assert n > 3000
    # every answer, and the non-finite point's error, occurs in the corpus
    assert {Containment.INSIDE_INNER, Containment.OUTSIDE_OUTER,
            Containment.INCONCLUSIVE} <= {key[1] for key in seen if key[0] is Containment}
    assert any(key[0] is ValueError for key in seen)


def reach_pairs():
    """Pairs about the origin whose witnesses lie along the axes.

    A point ``v * e`` on an axis has radius exactly ``v``, since
    ``sqrt(v * v) == v``, so it can sit at a side's reach and one ulp either
    side of it.  The pairs take every Lipschitz constant from 0 up, sides
    without witnesses, and inner radii of 0.
    """
    rng = np.random.default_rng(12)
    pairs = []
    for dim in (1, 2, 3):
        axes = np.vstack([np.eye(dim), -np.eye(dim)])
        for lipschitz in (0.0, 1e-3, 0.5, 1.0, 10.0):
            for k_in, k_out in ((0, 2), (2, 0), (1, 1), (2 * dim, 2 * dim), (dim, 2 * dim)):
                inner_r = rng.uniform(0.0, 1.0, size=k_in)
                inner_r[::3] = 0.0
                outer_r = rng.uniform(0.0, 2.0, size=k_out)
                pairs.append((
                    StarSetApprox(np.zeros(dim), lipschitz, axes[rng.permutation(2 * dim)[:k_in]],
                                  inner_r, Side.INNER),
                    StarSetApprox(np.zeros(dim), lipschitz, axes[rng.permutation(2 * dim)[:k_out]],
                                  outer_r, Side.OUTER)))
    return pairs


def test_classify_at_each_reach_matches_the_reference_bit_for_bit():
    seen = set()
    at_reach = 0
    pairs = reach_pairs()
    for inner, outer in pairs:
        dim = inner.dim
        radii = {r for r, _ in inner.rows + outer.rows}
        for v in radii:
            for r in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)):
                for k in range(dim):
                    for sign in (1.0, -1.0):
                        point = [0.0] * dim
                        point[k] = sign * r
                        assert r * r < _NORMAL_MIN or math.sqrt(r * r) == r  # radius r
                        at_reach += r in (inner.reach, outer.reach)
                        seen.add(assert_same(geometry._classify, old_classify,
                                             inner, outer, point))
    assert at_reach >= 2 * len(pairs)  # each pair has a side with witnesses
    assert {Containment.INSIDE_INNER, Containment.OUTSIDE_OUTER,
            Containment.INCONCLUSIVE} == {key[1] for key in seen}


def negative_zeros(point):
    return [-0.0 if x == 0.0 else x for x in point]


def signed_zeros(inner, outer):
    """Points whose zero components are ``-0.0``: at the center and along each witness."""
    center = inner.center_coords
    dim = len(center)
    points = [negative_zeros(center), [-0.0] * dim]
    points += [center[:k] + [-0.0] + center[k + 1:] for k in range(dim)]
    for r, d in inner.rows + outer.rows:
        for s in (1.0 - 2.0**-52, 1.0, 1.0 + 2.0**-52):
            points.append(negative_zeros([c + x * r * s for c, x in zip(center, d)]))
            points.append(negative_zeros([x * r * s for x in d]))
    return points


def far_points(inner, rng):
    """Points off the normal range of squared offsets, split by their direction's norm.

    Returns the points whose :func:`_polar` direction has norm exactly 1.0
    and those whose direction has another norm.
    """
    center = inner.center_coords
    dim = len(center)
    axes = [[float(j == k) for j in range(dim)] for k in range(dim)]
    exact, other = [], []
    for l in unit_directions(rng, 60, dim) + axes + [d for _, d in inner.rows]:
        for scale in (5e-324, 1e-300, 1e-170, 1e-160, 1e160, 1e200, 1e300, 1.7e308):
            for point in ([c + x * scale for c, x in zip(center, l)],
                          [x * scale for x in l], [-x * scale for x in l]):
                offset = [x - c for x, c in zip(point, center)]
                total = 0.0
                for x in offset:
                    total += x * x
                if (_NORMAL_MIN <= total < math.inf or not any(offset)
                        or not all(map(math.isfinite, point))):
                    continue  # not a far point
                _, direction = _polar(point, center, offset)
                (exact if _norm(direction) == 1.0 else other).append(point)
    return exact, other


def test_classify_at_signed_zeros_and_far_points_matches_the_reference_bit_for_bit(bundled):
    # the core's two passes: an offset of -0.0, the origin written as
    # [-0.0, ...], and far points whose polar direction is or is not
    # renormalized
    rng = np.random.default_rng(14)
    pairs = [(mode.inner, mode.outer) for mode in bundled.modes]
    pairs += synthetic_pairs() + reach_pairs()
    seen = set()
    negative_offsets = exact_far = other_far = 0
    for inner, outer in pairs:
        exact, other = far_points(inner, rng)
        exact_far += len(exact)
        other_far += len(other)
        for point in signed_zeros(inner, outer) + exact + other:
            negative_offsets += any(math.copysign(1.0, x - c) < 0.0 and x - c == 0.0
                                    for x, c in zip(point, inner.center_coords))
            seen.add(assert_same(geometry._classify, old_classify, inner, outer, point))
    assert negative_offsets > 100 and exact_far > 100 and other_far > 100
    assert {Containment.INSIDE_INNER, Containment.OUTSIDE_OUTER,
            Containment.INCONCLUSIVE} == {key[1] for key in seen}


def test_public_bounds_match_the_reference_bit_for_bit(bundled):
    rng = np.random.default_rng(6)
    stars = [star for mode in bundled.modes for star in (mode.inner, mode.outer)]
    stars += [star for pair in synthetic_pairs() for star in pair]
    kinds = set()
    for star in stars:
        dim = star.dim
        for l in unit_directions(rng, 30, dim) + [d for _, d in star.rows]:
            arr = np.array(l)
            for direction in (l, tuple(l), arr, _UnitDirection(l),
                              (arr * (1.0 + 1e-12)).tolist(), arr * (1.0 - 4e-10),
                              (arr * (1.0 + 2e-9)).tolist(), arr * 1e-3,
                              l + [0.0], [math.nan] * dim, "x"):
                for new, old in ((geometry.mgf_inner_bound, old_mgf_inner_bound),
                                 (geometry.mgf_outer_bound, old_mgf_outer_bound)):
                    kinds.add(assert_same(new, old, star, direction)[0])
    assert kinds == {"float", ValueError}


# ---------------------------------------------------------------------------
# The served calls


def commands(bundled, rng):
    """At least 10,000 seeded commands of every shape a caller may send."""
    out = [np.array([1.0, s]) for s in rng.random(6000)]  # the benchmark's stream
    out += list(rng.uniform(-0.5, 1.5, size=(2500, 2)))
    out += [[1.0, s] for s in rng.random(500)]
    out += [np.array([1.0, s], dtype=np.float32) for s in rng.random(200)]
    for mode in bundled.modes:  # at and just off each mode's center
        c = mode.inner.center
        out += [c.copy(), c + 1e-170, c - 1e-300, c * (1.0 + 2.0**-52)]
        out += [c + 1e-6 * d for d in rng.normal(size=(100, 2))]
    out += [np.array(u) for u in ([1e200, 1e200], [1e155, 0.5], [0.5, -1e300],
                                  [-1.7e308, 1.7e308], [1.0, math.nan], [math.inf, 0.5])]
    out += [[1, 0], np.array([1.0, 0.5, 0.0]), np.array(0.5), "1 0.5",
            np.array([1 + 0j, 0.5 + 0j]), [[1.0, 0.5]]]
    while len(out) < 10_000:
        out.append(rng.uniform(0.0, 1.0, size=2))
    return out


def test_served_commands_match_the_reference_bit_for_bit(bundled):
    rng = np.random.default_rng(7)
    seen = set()
    served = 0
    for u in commands(bundled, rng):
        viable = assert_same(identification.viabilize, old_viabilize, bundled, u)
        seen.add(viable[0])
        targets = [u]
        if viable[0] == "array":
            targets.append(old_viabilize(bundled, u))
        for target in targets:
            result = assert_same(identification.query, old_query, bundled, target)
            seen.add(result[1] if result[0] == "result" else result[0])
            for l_p in (3.0, 2):
                seen.add(assert_same(identification.lipschitz_error_bound,
                                     old_lipschitz_error_bound, bundled, target, l_p)[0])
        served += 1
    assert served >= 10_000
    assert {"array", UnviableInputError, PreconditionError, "float",
            QueryKind.MAPPED, QueryKind.PASSTHROUGH} <= seen


def test_served_commands_over_the_input_box_match_the_reference_bit_for_bit(bundled):
    # the heat model's whole input box [0, 10] x [0, 1], not only the line u0 = 1
    rng = np.random.default_rng(10)
    box = [np.array([p, s]) for p in np.linspace(0.0, 10.0, 41) for s in np.linspace(0.0, 1.0, 41)]
    box += list(rng.uniform([0.0, 0.0], [10.0, 1.0], size=(2000, 2)))
    seen = set()
    for u in box:
        viable = assert_same(identification.viabilize, old_viabilize, bundled, u)
        seen.add(viable[0])
        targets = [u] + ([old_viabilize(bundled, u)] if viable[0] == "array" else [])
        for target in targets:
            result = assert_same(identification.query, old_query, bundled, target)
            seen.add(result[1])
            seen.add(assert_same(identification.lipschitz_error_bound,
                                 old_lipschitz_error_bound, bundled, target, 3.0)[0])
    assert {"array", UnviableInputError, "float", PreconditionError,
            QueryKind.MAPPED, QueryKind.PASSTHROUGH} <= seen


@pytest.mark.parametrize("l_p", [3, 2.5, True, np.float32(3.3), np.float64(0.1), 10**30,
                                 np.array(2.0), Fraction(7, 3), Decimal("3"), 0.0, math.inf])
def test_error_bound_takes_any_lipschitz_constant_as_before(bundled, l_p):
    # a command and, where viable, its viabilized input: some are certified in a mode
    rng = np.random.default_rng(8)
    kinds = set()
    for s in rng.random(100):
        u = np.array([1.0, s])
        viable = outcome(old_viabilize, bundled, u)
        for target in [u] + ([old_viabilize(bundled, u)] if viable[0] == "array" else []):
            kinds.add(assert_same(identification.lipschitz_error_bound,
                                  old_lipschitz_error_bound, bundled, target, l_p)[0])
    # a rejected constant, or some points certified and scaled and some not
    assert kinds in ({ValueError}, {"float", PreconditionError}, {TypeError, PreconditionError})


def test_a_point_changed_in_place_is_classified_anew(bundled):
    # a mode remembers the last point it classified; a caller that changes
    # a component of its list after a call must get the changed point's answer
    changed = 0
    for mode in bundled.modes:
        center = mode.inner.center_coords
        coords = list(center)
        targets = [[c + x * r * f for c, x in zip(center, d)]
                   for r, d in mode.inner.rows + mode.outer.rows for f in (0.5, 1.5, 3.0)]
        for target in targets + targets[::-1]:
            for k, x in enumerate(target):
                before = mode.containment(coords)
                coords[k] = x
                after = mode.containment(coords)
                assert after is geometry._classify(mode.inner, mode.outer, coords)
                changed += after is not before
    assert changed >= 20


def test_each_point_is_classified_once_per_served_command(bundled, monkeypatch):
    # viabilize, query and the error bound share each mode's one-point memo,
    # so no (mode, point) pair is classified twice within one command
    index = {id(mode.inner): i for i, mode in enumerate(bundled.modes)}
    keys = []
    classify = identification._classify

    def recorded(inner, outer, point):
        keys.append((index[id(inner)], tuple(point)))
        return classify(inner, outer, point)

    monkeypatch.setattr(identification, "_classify", recorded)
    rng = np.random.default_rng(16)
    served = [np.array([1.0, s]) for s in rng.random(1500)]  # the benchmark's commands
    served += list(rng.uniform([0.0, 0.0], [10.0, 1.0], size=(1500, 2)))  # the input box
    kinds = set()
    for u in served:
        keys.clear()
        try:
            v = identification.viabilize(bundled, u)
        except UnviableInputError:
            kinds.add("unviable")
        else:
            kind = identification.query(bundled, v).kind
            kinds.add(kind)
            if kind == QueryKind.MAPPED:
                identification.lipschitz_error_bound(bundled, v, 3.0)
        assert keys and len(set(keys)) == len(keys), (u, keys)
    assert kinds == {"unviable", QueryKind.MAPPED, QueryKind.PASSTHROUGH}


# ---------------------------------------------------------------------------
# viabilize's pre-test: a candidate whose radius is past its mode's inner
# reach is not classified


def record_classify(monkeypatch, module, name: str) -> list:
    """Each ``(inner, point)`` that the classifier ``module.name`` is called with from now on."""
    calls = []
    classify = getattr(module, name)

    def recorded(inner, outer, point):
        calls.append((inner, list(point)))
        return classify(inner, outer, point)

    monkeypatch.setattr(module, name, recorded)
    return calls


def squared_offset(inner, point) -> float:
    total = 0.0
    for x, c in zip(point, inner.center_coords):
        total += (x - c) * (x - c)
    return total


def beyond_inner_reach(inner, point) -> bool:
    """Whether ``point``'s squared offset is a normal float and its radius exceeds the inner reach."""
    total = squared_offset(inner, point)
    return _NORMAL_MIN <= total < math.inf and math.sqrt(total) > inner.reach


def reach_reconstructions():
    """A reconstruction per reach pair: a gate mode, then the pair under three maps.

    The gate is unidentified and has no witnesses: it certifies nothing and
    excludes nothing, so every command goes on to the candidates.  The pair
    then serves under the identity, whose candidate is the command itself,
    under diagonal gains of 2 and 1/2, and under gains of 2**-1000, whose
    inverse overflows a large command.  A power-of-two gain keeps a radius
    exact.
    """
    for inner, outer in reach_pairs():
        dim = inner.dim
        origin, none, pairs = np.zeros(dim), np.empty((0, dim)), np.zeros((1, 2 * dim))
        modes = [ModeReconstruction(None, StarSetApprox(origin, 1.0, none, [], Side.INNER),
                                    StarSetApprox(origin, 1.0, none, [], Side.OUTER), pairs, None)]
        for gains in (np.ones(dim), 2.0 ** np.resize([1.0, -1.0], dim), np.full(dim, 2.0**-1000)):
            modes.append(ModeReconstruction(AffineMap(np.diag(gains), origin), inner, outer,
                                            pairs, np.zeros(1)))
        yield CdmReconstruction(tuple(modes), np.empty((0, 2 * dim)), 1.0, len(modes), dim)


def reach_commands(inner, outer):
    """Axis points at each witness radius and one ulp either side, and points whose squares
    underflow or overflow, along an axis and along the diagonal, with either zero's sign."""
    dim = inner.dim
    radii = {r for r, _ in inner.rows + outer.rows}
    radii = [r for v in radii for r in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))]
    radii += [5e-324, 1e-300, 1e-170, 1e-160, 1e160, 1e200, 1e300, 1.7e308]
    points = []
    for r in radii:
        for k in range(dim):
            for sign in (1.0, -1.0):
                point = [-0.0] * dim
                point[k] = sign * r
                points += [point, [abs(x) if x == 0.0 else x for x in point]]
        points.append([r] * dim)
    return points + [[0.0] * dim, [-0.0] * dim]


def test_viabilize_pre_test_matches_the_reference_bit_for_bit(monkeypatch):
    old_calls = record_classify(monkeypatch, sys.modules[__name__], "old_classify")
    new_calls = record_classify(monkeypatch, identification, "_classify")
    seen = set()
    at_reach = near_reach = skipped = far = 0
    for recon in reach_reconstructions():
        gate, inner = recon.modes[0].inner, recon.modes[1].inner
        near = {math.nextafter(inner.reach, -math.inf), math.nextafter(inner.reach, math.inf)}
        for point in reach_commands(inner, recon.modes[1].outer):
            old_calls.clear()
            new_calls.clear()
            seen.add(assert_same(identification.viabilize, old_viabilize, recon, point)[0])
            candidates = [p for i, p in old_calls if i is not gate]
            at_reach += sum(math.sqrt(squared_offset(inner, p)) == inner.reach for p in candidates)
            near_reach += sum(math.sqrt(squared_offset(inner, p)) in near for p in candidates)
            skipped += sum(beyond_inner_reach(inner, p) for p in candidates)
            far += sum(not _NORMAL_MIN <= squared_offset(inner, p) < math.inf
                       for i, p in new_calls if i is not gate)
            assert not [p for i, p in new_calls if i is not gate and beyond_inner_reach(i, p)]
    assert at_reach > 100 and near_reach > 100 and skipped > 1000 and far > 100
    assert seen == {"array", UnviableInputError}


def test_viabilize_classifies_no_candidate_beyond_its_modes_inner_reach(bundled, monkeypatch):
    calls = record_classify(monkeypatch, identification, "_classify")
    rng = np.random.default_rng(17)
    served = [np.array([1.0, s]) for s in rng.random(1500)]  # the benchmark's commands
    served += list(rng.uniform([0.0, 0.0], [10.0, 1.0], size=(1500, 2)))  # the input box
    classified = 0
    for u in served:
        for mode in bundled.modes:  # the command's own answers: only candidates are classified below
            mode.containment(u.tolist())
        calls.clear()
        try:
            identification.viabilize(bundled, u)
        except UnviableInputError:
            pass
        assert not [p for inner, p in calls if beyond_inner_reach(inner, p)], u
        classified += len(calls)
    assert classified > 300
    # an unviable command (1, s) classified itself and its three candidates, 4
    # or 5 points; now its candidates lie beyond their modes' inner reach
    counts = Counter()
    for s in rng.random(1500):
        calls.clear()
        try:
            identification.viabilize(bundled, np.array([1.0, s]))
        except UnviableInputError:
            counts[len(calls)] += 1
    assert sum(counts.values()) > 200 and set(counts) <= {1, 2}, counts
