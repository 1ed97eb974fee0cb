"""Acceptance suite: one test per promised behaviour, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criteria:

1. exact affine recovery on 100 randomized multi-mode instances (1e-8),
2. bundled heat-probe replication: both non-identity branch maps recovered
   to 1e-6 once every affected region holds three samples, with a
   non-increasing exact Hausdorff distance column per region,
3. inner/truth/outer sandwich at 1000 random inputs per reconstruction,
4. streaming refinement never loosens gauge bounds nor the error bound on
   a fixed grid,
5. the error bound dominates the true deviation of the piecewise response
   treated as a 3-Lipschitz degradation,
6. 1000 viabilization round trips at 1e-9,
7. distance-metric axioms, fattening characterization, heat conservation,
8. byte-identical artifacts for repeated runs of the bundled experiment.
"""

import pathlib
import time

import numpy as np
import pytest

import cdmkit as ck
from cdmkit.errors import PreconditionError
from cdmkit.geometry import (
    Containment,
    Side,
    StarSetApprox,
    hausdorff_distance,
    mgf_inner_bound,
    mgf_outer_bound,
    star_contains,
)
from cdmkit.identification import (
    IdentificationConfig,
    QueryKind,
    build_reconstruction,
    lipschitz_error_bound,
    query,
    viabilize,
)

from trials import TRIAL_DELTA, TRIAL_LIPSCHITZ, make_trial, match_true_mode

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
BUNDLED_CONFIG = REPO_ROOT / "configs" / "heat_electrosurgery.cfg"

BRANCH_TRUTHS = (
    (np.diag([1.0, 3.0]), np.array([0.0, 0.25])),
    (np.diag([1.0, -2.0]), np.array([0.0, 2.5])),
)


def report(criterion, ok, detail=""):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())


def non_increasing(col, tol=1e-12):
    col = np.asarray(col, dtype=float)
    return bool(np.all(col[1:] <= col[:-1] + tol))


@pytest.fixture(scope="module")
def trial_bank():
    """100 randomized instances with their reconstructions, plus wall time."""
    cfg = IdentificationConfig(delta=TRIAL_DELTA, n_modes=3, lipschitz=TRIAL_LIPSCHITZ)
    t0 = time.monotonic()
    bank = []
    for seed in range(100):
        model, cdm, samples, m, N = make_trial(seed)
        recon = build_reconstruction(samples, model, cfg)
        bank.append((model, cdm, recon, m, N))
    return bank, time.monotonic() - t0


@pytest.fixture(scope="module")
def heat(heat_run, heat_stream):
    """The session's bundled-experiment run, its stream, and its wall time."""
    config, result, elapsed = heat_run
    # the bundled repo config must be the one the session ran
    assert ck.parse_config(BUNDLED_CONFIG).schedule == config.schedule
    return config, result, heat_stream, elapsed


def test_criterion_1_exact_affine_recovery(trial_bank):
    bank, elapsed = trial_bank
    worst = 0.0
    dims = set()
    for model, cdm, recon, m, N in bank:
        dims.add(m)
        assert len(recon.modes) == N
        for mode in recon.modes:
            assert mode.identified
            _, truth = match_true_mode(cdm, mode)
            worst = max(
                worst,
                float(np.max(np.abs(mode.map.linear - truth.linear))),
                float(np.max(np.abs(mode.map.translation - truth.translation))),
            )
    ok = worst <= 1e-8 and elapsed < 5.0 and dims == {1, 2, 3, 4}
    report(1, ok, f"worst entrywise error {worst:.2e}, {elapsed:.2f}s for 100 trials")
    assert worst <= 1e-8
    assert elapsed < 5.0
    assert dims == {1, 2, 3, 4}


def test_criterion_2_heat_replication(heat):
    config, result, stream, elapsed = heat
    samples = result.samples

    assert len(config.regions) == 3  # three affected regions tracked

    # first observation index after which both non-identity regions hold >= 3
    u2 = np.array([s.input[1] for s in samples])
    shallow = np.cumsum(u2 < 0.25)
    deep = np.cumsum(u2 > 0.75)
    window = int(np.argmax((shallow >= 3) & (deep >= 3)))
    assert shallow[window] >= 3 and deep[window] >= 3

    def branch_errors(mode):
        return [
            max(
                float(np.max(np.abs(mode.map.linear - lin))),
                float(np.max(np.abs(mode.map.translation - trans))),
            )
            for lin, trans in BRANCH_TRUTHS
        ]

    first_both = None
    worst_fit = 0.0
    for k, recon in enumerate(stream):
        assert len(recon.modes) <= config.identification.n_modes
        found = set()
        for mode in recon.modes:
            if not mode.identified:
                continue
            errs = branch_errors(mode)
            best = int(np.argmin(errs))
            if errs[best] <= 1e-6:
                found.add(best)
            if first_both is not None:
                worst_fit = max(worst_fit, min(errs))
        if first_both is None and found == {0, 1}:
            first_both = k
    assert first_both is not None, "both branch maps must be recovered"
    assert first_both >= window  # identification needs the three-sample window
    assert worst_fit <= 1e-6  # and stays exact from then on

    hd = np.array([r.region_hausdorff for r in result.records])
    assert hd.shape == (len(result.records), len(config.regions))
    mono = all(non_increasing(hd[:, j], tol=0.0) for j in range(hd.shape[1]))
    ok = mono and elapsed < 10.0
    report(
        2,
        ok,
        f"branch maps exact from rebuild {first_both} (window at {window}), "
        f"max fit error {worst_fit:.2e}, run {elapsed:.2f}s",
    )
    assert mono
    assert elapsed < 10.0


def test_criterion_3_sandwich(trial_bank, heat):
    bank, _ = trial_bank
    config, result, _, _ = heat
    violations = 0
    checked = 0

    rng = np.random.default_rng(2024)
    for model, cdm, recon, m, N in bank:
        for mode in recon.modes:
            region, _ = match_true_mode(cdm, mode)
            draws = region.center + rng.uniform(-2.5, 2.5, (10, m)) * region.radius
            for u in draws:
                checked += 1
                c = star_contains(mode.inner, mode.outer, u)
                if c is Containment.INSIDE_INNER and not region.contains(u):
                    violations += 1
                if region.contains(u) and c is Containment.OUTSIDE_OUTER:
                    violations += 1

    cdm = config.cdm
    for mode in result.reconstruction.modes:
        witness = mode.pairs[0, :mode.inner.dim]
        region = next(reg for reg, _ in cdm.modes if reg.contains(witness))
        for s in rng.random(1000):
            u = np.array([1.0, s])
            checked += 1
            c = star_contains(mode.inner, mode.outer, u)
            if c is Containment.INSIDE_INNER and not region.contains(u):
                violations += 1
            if region.contains(u) and c is Containment.OUTSIDE_OUTER:
                violations += 1

    ok = violations == 0 and checked >= 1000
    report(3, ok, f"{checked} membership checks, {violations} violations")
    assert violations == 0


def test_criterion_4_monotone_refinement(heat):
    config, result, stream, _ = heat
    coords = np.array([s.input[1] for s in result.samples])
    L = config.identification.lipschitz

    # gauge bounds built about fixed region midpoints from the growing stream
    loosenings = 0
    prev_inner = {r: (0.0, 0.0) for r in config.regions}
    prev_outer = {r: (np.inf, np.inf) for r in config.regions}
    for k in range(1, len(coords) + 1):
        cs = coords[:k]
        for r in config.regions:
            lo, hi = r
            mid = (lo + hi) / 2.0
            inside = cs[(cs >= lo) & (cs <= hi)].reshape(-1, 1)
            outside = cs[(cs < lo) | (cs > hi)].reshape(-1, 1)
            if inside.size:
                inner = StarSetApprox.from_points(inside, [mid], L, Side.INNER)
                b = (mgf_inner_bound(inner, [1.0]), mgf_inner_bound(inner, [-1.0]))
                if b[0] < prev_inner[r][0] - 1e-12 or b[1] < prev_inner[r][1] - 1e-12:
                    loosenings += 1
                prev_inner[r] = b
            if outside.size:
                outer = StarSetApprox.from_points(outside, [mid], L, Side.OUTER)
                b = (mgf_outer_bound(outer, [1.0]), mgf_outer_bound(outer, [-1.0]))
                if b[0] > prev_outer[r][0] + 1e-12 or b[1] > prev_outer[r][1] + 1e-12:
                    loosenings += 1
                prev_outer[r] = b

    # error bound on a fixed 100-point grid: undefined counts as infinity
    grid = np.linspace(0.0, 1.0, 100)
    prev = np.full(grid.shape, np.inf)
    regressions = 0
    for recon in stream:
        cur = np.empty(grid.shape)
        for i, s in enumerate(grid):
            try:
                cur[i] = lipschitz_error_bound(recon, np.array([1.0, s]), 3.0)
            except PreconditionError:
                cur[i] = np.inf
        regressions += int(np.sum(~(cur <= prev + 1e-12)))
        prev = cur

    ok = loosenings == 0 and regressions == 0
    report(4, ok, f"{loosenings} bound loosenings, {regressions} grid regressions")
    assert loosenings == 0
    assert regressions == 0


def test_criterion_5_error_bound_validity(heat):
    config, result, _, _ = heat
    recon = result.reconstruction
    cdm = config.cdm
    grid = np.linspace(0.0, 1.0, 100)
    checked = violations = 0
    for s in grid:
        u = np.array([1.0, s])
        try:
            bound = lipschitz_error_bound(recon, u, 3.0)
        except PreconditionError:
            continue
        checked += 1
        predicted = query(recon, u)
        assert predicted.kind == QueryKind.MAPPED
        true_err = float(np.linalg.norm(np.asarray(cdm(u)) - predicted.value))
        if true_err > bound + 1e-12:
            violations += 1
    ok = violations == 0 and checked > 0
    report(5, ok, f"{checked} grid points inside inner approximations, "
                  f"{violations} bound violations")
    assert violations == 0
    assert checked > 0


def test_criterion_6_viabilization_round_trip(trial_bank):
    bank, _ = trial_bank
    rng = np.random.default_rng(77)
    worst = 0.0
    count = 0
    for model, cdm, recon, m, N in bank:
        for _ in range(10):
            if rng.random() < 0.5 and recon.modes:
                k = int(rng.integers(0, len(recon.modes)))
                mode = recon.modes[k]
                witness = mode.pairs[int(rng.integers(0, len(mode.pairs))), :m]
                w = mode.inner.center + 0.9 * (witness - mode.inner.center)
                u_cmd = mode.map(w)
            else:
                # far outside every region: provably unaffected, so commandable
                u_cmd = rng.uniform(-1.0, 1.0, m) - 60.0
                assert query(recon, u_cmd).kind == QueryKind.PASSTHROUGH
            u_v = viabilize(recon, u_cmd)
            worst = max(worst, float(np.linalg.norm(np.asarray(cdm(u_v)) - u_cmd)))
            count += 1
    ok = worst <= 1e-9 and count == 1000
    report(6, ok, f"{count} round trips, worst error {worst:.2e}")
    assert count == 1000
    assert worst <= 1e-9


def within_fattening(a, b, rho):
    """Each finite set lies within ``rho`` of some point of the other, by brute force."""
    dists = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
    return bool((dists.min(axis=1) <= rho).all() and (dists.min(axis=0) <= rho).all())


def test_criterion_7_geometry_and_conservation():
    rng = np.random.default_rng(55)

    def random_set():
        return rng.normal(size=(int(rng.integers(1, 7)), 2))

    axiom_failures = 0
    for _ in range(1000):
        a, b, c = random_set(), random_set(), random_set()
        dab = hausdorff_distance(a, b)
        if dab < 0 or dab != hausdorff_distance(b, a):
            axiom_failures += 1
        if hausdorff_distance(a, a) != 0.0:
            axiom_failures += 1
        if dab > hausdorff_distance(a, c) + hausdorff_distance(c, b) + 1e-12:
            axiom_failures += 1

    fattening_failures = 0
    for _ in range(1000):
        a, b = random_set(), random_set()
        d = hausdorff_distance(a, b)
        if not within_fattening(a, b, d + 1e-12):
            fattening_failures += 1
        if d > 1e-9 and within_fattening(a, b, d * (1 - 1e-9) - 1e-12):
            fattening_failures += 1

    sys = ck.HeatSystem(diffusivity=0.1, grid_points=101)
    x0 = np.concatenate([rng.random(sys.grid_points), [0.0]])
    schedule = ck.SamplingSchedule(rate=4.0, jitter=0.0, seed=0, horizon=1.0)
    samples = ck.integrate(sys.model(), None, x0, lambda t: np.zeros((len(t), 2)), schedule)
    w = np.full(sys.grid_points, sys.spacing)
    w[0] = w[-1] = sys.spacing / 2
    masses = [float(w @ s.state[: sys.grid_points]) for s in samples]
    drift = max(masses) - min(masses)

    ok = axiom_failures == 0 and fattening_failures == 0 and drift <= 1e-8
    report(
        7,
        ok,
        f"axiom failures {axiom_failures}, fattening failures {fattening_failures}, "
        f"mass drift {drift:.2e}/s",
    )
    assert axiom_failures == 0
    assert fattening_failures == 0
    assert drift <= 1e-8


def test_criterion_8_deterministic_artifacts(tmp_path):
    from cdmkit.cli import EXIT_OK, main

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(BUNDLED_CONFIG), "--output", str(out_a)]) == EXIT_OK
    assert main(["run", str(BUNDLED_CONFIG), "--output", str(out_b)]) == EXIT_OK
    identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("samples.csv", "reconstruction.txt", "convergence.csv")
    )
    report(8, identical, "samples, reconstruction, and convergence tables compared")
    assert identical
