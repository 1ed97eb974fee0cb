"""Tests for the simulator and the heat-conduction testbed."""

import ast
import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmkit import simulation
from cdmkit.degradation import AffineMap, IntervalRegion, NModeCdm, heat_example_cdm
from cdmkit.errors import PreconditionError
from cdmkit.experiment import parse_config, parse_config_text
from cdmkit.identification import build_reconstruction, recover_effective_input
from cdmkit.serialization import reconstruction_to_lines
from cdmkit.simulation import (
    ControlSample,
    HeatSystem,
    SamplingSchedule,
    SystemModel,
    integrate,
    linear_system,
    _BATCH_ROWS,
    _MAX_GRID_POINTS,
    _affine_steps,
    _heat_model,
    _step_matrix,
    _support,
    _supported_step_matrix,
    probe_signal,
)

from interval_loop import assert_batched_calls, assert_samples_identical, integrate_per_interval


def zero_signal(m):
    """The signal that commands zero on each of ``m`` channels at every time."""
    return lambda t: np.zeros((len(t), m))


def velocity(model, x, u):
    """``f(x) + g(x) u``: the right-hand side under the effective input ``u``."""
    return model.drift(x) + model.input_map(x) @ np.asarray(u, dtype=float)


def heat_rhs(sys, state, u):
    """Degradation-free right-hand side of the heat testbed."""
    return velocity(sys.model(), state, u)


class TestHeatSystem:
    def test_uniform_field_has_zero_laplacian(self):
        sys = HeatSystem(grid_points=51)
        state = np.full(sys.dim_state, 3.0)
        state[-1] = 0.0
        rhs = heat_rhs(sys, state, [0.0, 0.0])
        np.testing.assert_allclose(rhs[: sys.grid_points], 0.0, atol=1e-14)

    def test_source_row_gains_inverse_width(self):
        sys = HeatSystem(grid_points=101, epsilon=0.05)
        state = np.zeros(sys.dim_state)
        rhs = heat_rhs(sys, state, [1.0, 0.0])
        # nodes strictly inside the source carry the full 1/epsilon gain
        np.testing.assert_allclose(rhs[1:4], 1.0 / 0.05)

    def test_quadratic_profile_interior_laplacian(self):
        # central differences are exact on quadratics: rows equal 2 a
        sys = HeatSystem(diffusivity=0.1, grid_points=101)
        xi = np.linspace(0.0, 1.0, sys.grid_points)
        state = np.concatenate([xi**2, [0.0]])
        rhs = heat_rhs(sys, state, [0.0, 0.0])
        np.testing.assert_allclose(rhs[1 : sys.grid_points - 1], 2.0 * 0.1, atol=1e-10)

    def test_second_order_convergence(self):
        # halving the spacing cuts the truncation error on sin(pi x) by ~4x
        errors = []
        for g in (51, 101):
            sys = HeatSystem(diffusivity=1.0, grid_points=g)
            xi = np.linspace(0.0, 1.0, g)
            state = np.concatenate([np.sin(np.pi * xi), [0.0]])
            rhs = heat_rhs(sys, state, [0.0, 0.0])
            exact = -np.pi**2 * np.sin(np.pi * xi)
            errors.append(np.max(np.abs(rhs[1 : g - 1] - exact[1 : g - 1])))
        ratio = errors[0] / errors[1]
        assert 3.5 < ratio < 4.5

    def test_depth_row_is_unit_gain(self):
        sys = HeatSystem()
        state = np.zeros(sys.dim_state)
        rhs = heat_rhs(sys, state, [0.0, 0.7])
        np.testing.assert_allclose(rhs[-1], 0.7)

    def test_nonlinear_depth_variant(self):
        sys = HeatSystem(nonlinear_depth=True)
        state = np.zeros(sys.dim_state)
        state[sys.grid_points - 1] = 2.0  # boundary temperature drives the depth
        rhs = heat_rhs(sys, state, [0.0, 0.5])
        np.testing.assert_allclose(rhs[-1], 1.0)

    def test_source_mass_is_unit(self):
        for eps in (0.05, 0.033, 0.2):
            sys = HeatSystem(grid_points=101, epsilon=eps)
            mass = np.trapezoid(sys.source_profile(), dx=sys.spacing)
            np.testing.assert_allclose(mass, 1.0, atol=1e-12)

    def test_unresolvable_source_rejected(self):
        with pytest.raises(ValueError):
            HeatSystem(grid_points=11, epsilon=0.05)  # spacing 0.1 > width

    @pytest.mark.parametrize("field, value", [
        ("diffusivity", np.nan), ("diffusivity", np.inf), ("diffusivity", 0.0),
        ("epsilon", np.nan), ("epsilon", np.inf)])
    def test_non_finite_parameters_rejected(self, field, value):
        # comparisons with nan are false, so each check must fail on it
        with pytest.raises(ValueError):
            HeatSystem(grid_points=101, **{field: value})

    @pytest.mark.parametrize("grid_points", [2, _MAX_GRID_POINTS + 1, 1_000_000])
    def test_grid_points_outside_bounds_rejected(self, grid_points):
        with pytest.raises(ValueError, match=r"grid_points must lie in \[3, 2047\]"):
            HeatSystem(grid_points=grid_points, epsilon=0.5)

    def test_largest_grid_accepted(self):
        assert HeatSystem(grid_points=_MAX_GRID_POINTS).dim_state == _MAX_GRID_POINTS + 1

    def test_conservation_without_input(self):
        sys = HeatSystem(diffusivity=0.1, grid_points=101)
        rng = np.random.default_rng(1)
        x0 = np.concatenate([rng.random(sys.grid_points), [0.0]])
        schedule = SamplingSchedule(rate=2.0, jitter=0.0, seed=0, horizon=1.0)
        samples = integrate(sys.model(), None, x0, zero_signal(2), schedule)
        w = np.full(sys.grid_points, sys.spacing)
        w[0] = w[-1] = sys.spacing / 2
        masses = [float(w @ s.state[: sys.grid_points]) for s in samples]
        assert max(masses) - min(masses) <= 1e-8


SMALL_HEAT_SYSTEM = """\
[system]
kind = heat
diffusivity = 0.1
grid_points = 21
source_width = 0.1
nonlinear_depth = false

[cdm]
kind = heat-threemode

[signal]
kind = heat-probe

[sampling]
rate = 20.0
horizon = 1.0

[identification]
delta = 0.4
modes = 3
"""


class TestHeatModelMemo:
    """One model per distinct heat system, shared by every config of it."""

    def test_configs_parsed_from_one_file_share_the_model(self):
        path = Path(__file__).resolve().parents[1] / "configs" / "heat_electrosurgery.cfg"
        first, second = parse_config(path), parse_config(path)
        assert first is not second
        assert first.model() is second.model()
        assert first.model()._rk4_powers is second.model()._rk4_powers

    @pytest.mark.parametrize("line, changed", [
        ("diffusivity = 0.1", "diffusivity = 0.2"),
        ("grid_points = 21", "grid_points = 41"),
        ("source_width = 0.1", "source_width = 0.2"),
        ("nonlinear_depth = false", "nonlinear_depth = true")])
    def test_a_different_system_gets_its_own_model(self, line, changed):
        base = parse_config_text(SMALL_HEAT_SYSTEM)
        other = parse_config_text(SMALL_HEAT_SYSTEM.replace(line, changed))
        assert other.model() is not base.model()
        assert other.model() is parse_config_text(SMALL_HEAT_SYSTEM.replace(line, changed)).model()

    def test_memo_holds_a_fixed_number_of_models(self):
        size = _heat_model.cache_info().maxsize
        assert size is not None and size <= 16
        for g in range(11, 11 + size + 3):
            HeatSystem(grid_points=g, epsilon=0.1).model()
        assert _heat_model.cache_info().currsize == size

    @pytest.mark.parametrize("nonlinear_depth", [False, True])
    def test_shared_arrays_are_read_only(self, nonlinear_depth):
        model = HeatSystem(grid_points=21, epsilon=0.1, nonlinear_depth=nonlinear_depth).model()
        shared = [model.input_lo, model.input_hi]
        if not nonlinear_depth:
            shared += model._rk4_powers
            assert len(model._rk4_powers) == 6
        for array in shared:
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1.0


class TestProbeSignal:
    def test_endpoint_values(self):
        np.testing.assert_allclose(probe_signal(np.array([0.0, 0.15])),
                                   [[1.0, 0.0], [1.0, 1.0]], atol=1e-15)

    def test_period(self):
        t = np.array([0.02, 0.11, 0.27])
        np.testing.assert_allclose(probe_signal(t), probe_signal(t + 0.3))


class TestSamplingSchedule:
    def test_sample_count(self):
        sched = SamplingSchedule(rate=20.0, jitter=0.01, seed=3, horizon=1.0)
        assert len(sched.sample_times()) == 20

    def test_jitter_bound_enforced(self):
        with pytest.raises(ValueError):
            SamplingSchedule(rate=20.0, jitter=0.03, seed=0, horizon=1.0)

    @pytest.mark.parametrize("field", ["rate", "jitter", "horizon"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, field, value):
        kwargs = dict(rate=20.0, jitter=0.01, seed=0, horizon=1.0)
        with pytest.raises(ValueError, match=f"sampling {field} must be finite"):
            SamplingSchedule(**{**kwargs, field: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            SamplingSchedule(rate=20.0, jitter=0.01, seed=-1, horizon=1.0)

    def test_schedule_without_samples_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            SamplingSchedule(rate=0.5, horizon=1.0)
        assert len(SamplingSchedule(rate=0.5, horizon=2.0).sample_times()) == 1

    def test_times_ordered_and_nonnegative(self):
        sched = SamplingSchedule(rate=20.0, jitter=0.02499, seed=4, horizon=5.0)
        t = sched.sample_times()
        assert np.all(np.diff(t) > 0) and t[0] >= 0.0

    def test_deterministic(self):
        a = SamplingSchedule(rate=20.0, jitter=0.01, seed=5, horizon=2.0).sample_times()
        b = SamplingSchedule(rate=20.0, jitter=0.01, seed=5, horizon=2.0).sample_times()
        np.testing.assert_array_equal(a, b)

    def test_no_jitter_is_exact(self):
        t = SamplingSchedule(rate=4.0, jitter=0.0, seed=0, horizon=1.0).sample_times()
        np.testing.assert_allclose(t, [0.0, 0.25, 0.5, 0.75])


# names through which Python or NumPy hand out random numbers
RANDOM_NAMES = {"random", "default_rng", "RandomState", "Generator", "SeedSequence", "secrets"}


def random_uses(tree) -> list:
    """``(line, enclosing class)`` of each import, name or attribute in ``RANDOM_NAMES``."""
    uses = []

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            hit = any(part in RANDOM_NAMES for name in names for part in name.split("."))
        else:
            hit = getattr(node, "attr", getattr(node, "id", None)) in RANDOM_NAMES
        if hit:
            uses.append((node.lineno, cls))
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(tree, None)
    return uses


def test_only_the_sampling_schedule_draws_random_numbers():
    # the schedule's jitter is a model input; every quantity the package
    # computes from a model is exact, never a sampled estimate
    package = Path(__file__).resolve().parents[1] / "src" / "cdmkit"
    uses = {path.name: random_uses(ast.parse(path.read_text()))
            for path in sorted(package.glob("*.py"))}
    assert {(name, cls) for name, found in uses.items() for _, cls in found} == {
        ("simulation.py", "SamplingSchedule")}


class TestIntegrate:
    def test_zero_drift_zero_input(self):
        model = linear_system(np.zeros((2, 2)), np.eye(2))
        sched = SamplingSchedule(rate=10.0, jitter=0.0, seed=0, horizon=0.5)
        samples = integrate(model, None, [1.0, -1.0], zero_signal(2), sched)
        for s in samples:
            np.testing.assert_array_equal(s.state, [1.0, -1.0])
            np.testing.assert_array_equal(s.velocity, [0.0, 0.0])

    def test_exact_observation_identity(self):
        # velocity minus drift always lies in the input-matrix column space
        sys = HeatSystem(grid_points=51)
        model = sys.model()
        sched = SamplingSchedule(rate=10.0, jitter=0.005, seed=6, horizon=0.5)
        samples = integrate(model, heat_example_cdm(), np.zeros(model.dim_state),
                            probe_signal, sched)
        for s in samples:
            G = model.input_map(s.state)
            b = s.velocity - model.drift(s.state)
            _, res, *_ = np.linalg.lstsq(G, b, rcond=None)
            residual = np.linalg.norm(G @ np.linalg.lstsq(G, b, rcond=None)[0] - b)
            assert residual < 1e-10

    @pytest.mark.parametrize("limit", [-1.0, 0.0, np.nan, np.inf, -np.inf])
    def test_unusable_stability_limit_rejected(self, limit):
        with pytest.raises(ValueError, match="stability limit must be None or finite and positive"):
            linear_system([[1.0]], [[1.0]], stability_limit=limit)

    @pytest.mark.parametrize("limit", [1e-320, 1e-300])
    def test_step_count_beyond_an_index_names_the_interval(self, limit):
        # 0.1 / 1e-320 is inf and 0.1 / 1e-300 is finite but beyond any intp
        model = linear_system([[1.0]], [[1.0]], stability_limit=limit)
        sched = SamplingSchedule(rate=10.0, horizon=0.3)
        with pytest.raises(ValueError, match=r"sampling interval 1 \(0\.0 to 0\.1 s\) needs"):
            integrate(model, None, [1.0], zero_signal(1), sched)

    def test_linear_growth_accuracy(self):
        # x' = x with x0 = 1: compare against exp(t)
        model = linear_system([[1.0]], [[1.0]])
        sched = SamplingSchedule(rate=5.0, jitter=0.0, seed=0, horizon=1.0)
        samples = integrate(model, None, [1.0], zero_signal(1), sched)
        for s in samples:
            np.testing.assert_allclose(s.state[0], np.exp(s.time), rtol=1e-9)

    @pytest.mark.parametrize("nonlinear_depth", [False, True])
    def test_steps_stay_within_stability_limit(self, nonlinear_depth):
        # at 101 grid points the diffusion limit, 5e-4 s, is below the 1 ms cap
        sys = HeatSystem(grid_points=101, nonlinear_depth=nonlinear_depth)
        model = sys.model()
        limit = min(1e-3, sys.stability_limit)
        assert limit == sys.stability_limit < 1e-3
        calls = []

        def recording(t):
            calls.append(t.copy())
            return probe_signal(t)

        sched = SamplingSchedule(rate=20.0, jitter=0.01, seed=3, horizon=0.3)
        integrate(model, heat_example_cdm(), np.zeros(model.dim_state), recording, sched)
        # consecutive stage times are half a step apart (a step start and its
        # midpoint, a midpoint and the next start) or, at a sample time, equal
        # up to rounding: twice the widest gap is the longest step
        longest = 2.0 * np.diff(np.concatenate(calls)).max()
        assert 0.9 * limit < longest <= limit * (1.0 + 1e-9)

    @pytest.mark.parametrize("signal, received", [
        (lambda t: np.zeros(len(t)), r"\(\d+,\)"),
        (lambda t: np.zeros((len(t), 2)), r"\(\d+, 2\)"),
        (lambda t: np.zeros((1, 1)), r"\(1, 1\)"),
    ])
    def test_signal_of_wrong_shape_rejected(self, signal, received):
        model = linear_system([[1.0]], [[1.0]])
        sched = SamplingSchedule(rate=10.0, jitter=0.0, seed=0, horizon=0.5)
        with pytest.raises(ValueError, match=received + r".*expected \(\d+, 1\)"):
            integrate(model, None, [1.0], signal, sched)


class FixedTimes:
    """A schedule with the given sample times."""

    def __init__(self, *times):
        self.times = np.array(times, dtype=float)

    def sample_times(self):
        return self.times


def generic(model):
    """The same system without its matrices: integrated by generic RK4 steps."""
    return dataclasses.replace(model, a_matrix=None, b_matrix=None)


def assert_trajectories_agree(fast, reference, rtol=1e-10):
    assert [s.time for s in fast] == [s.time for s in reference]
    for field in ("state", "velocity"):
        a = np.array([getattr(s, field) for s in fast])
        b = np.array([getattr(s, field) for s in reference])
        scale = max(1.0, float(np.max(np.abs(b))))
        assert np.max(np.abs(a - b)) <= rtol * scale, field
    for sf, sr in zip(fast, reference):
        np.testing.assert_array_equal(sf.input, sr.input)


@st.composite
def linear_runs(draw):
    """A random linear system, degradation, input signal and jittered schedule."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # shift > 0 gives unstable systems, shift < 0 stable ones
    shift = draw(st.floats(-4.0, 2.0))
    A = rng.normal(size=(n, n)) * draw(st.floats(0.0, 3.0)) + shift * np.eye(n)
    B = rng.normal(size=(n, m))
    amp, freq, phase = rng.uniform(0.5, 2.0, m), rng.uniform(2.0, 20.0, m), rng.uniform(0, 6, m)

    def signal(t):
        return amp * np.sin(freq * t[:, None] + phase)

    cdm = None
    if draw(st.booleans()):
        # breakpoints inside the signal's range, so the active mode switches
        # between two stage times of a sub-step, not only at samples
        cut = sorted(rng.uniform(-0.6, 0.6, 2))
        cdm = NModeCdm(modes=(
            (IntervalRegion(0, -10.0, cut[0], closed_hi=False),
             AffineMap(rng.normal(size=(m, m)), rng.normal(size=m))),
            (IntervalRegion(0, cut[1], 10.0), AffineMap(rng.normal(size=(m, m)), rng.normal(size=m))),
        ))
    rate = draw(st.sampled_from([2.0, 5.0, 20.0]))
    schedule = SamplingSchedule(rate=rate, jitter=draw(st.floats(0.0, 0.49)) / rate,
                                seed=draw(st.integers(0, 100)), horizon=1.0)
    return linear_system(A, B), cdm, rng.normal(size=n), signal, schedule


def step_lengths(seed):
    """Sub-step lengths from far below to above the 1 ms cap, and 0."""
    rng = np.random.default_rng(seed)
    return [float(dt) for dt in [*np.geomspace(1e-9, 2e-3, 40), *rng.uniform(0.0, 1e-3, 40), 0.0]]


def sparse_matrix():
    """A random sparse ``A`` with negative entries, ``-0.0`` entries and an all-zero row."""
    rng = np.random.default_rng(7)
    A = np.where(rng.random((40, 40)) < 0.08, rng.normal(size=(40, 40)), 0.0)
    A[(A == 0.0) & (rng.random((40, 40)) < 0.3)] = -0.0
    A[11] = 0.0
    A[11, ::3] = -0.0
    assert (A < 0).any() and np.signbit(A[A == 0.0]).any()
    return A


def matrix_with_inf():
    """The 21-point heat ``A`` with one infinite entry."""
    A = HeatSystem(grid_points=21, epsilon=0.1).model().a_matrix.copy()
    A[3, 4] = np.inf
    return A


STEP_MATRIX_CASES = {
    **{f"heat_{g}": lambda g=g: HeatSystem(grid_points=g, epsilon=0.1).model().a_matrix
       for g in (21, 51, 101)},
    "dense": lambda: np.random.default_rng(3).normal(size=(30, 30)),
    "sparse": sparse_matrix,
    "inf": matrix_with_inf,
}


class TestLinearPropagator:
    """The precomputed RK4 step map against generic RK4 steps."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(linear_runs())
    def test_matches_generic_rk4(self, run):
        model, cdm, x0, signal, schedule = run
        fast = integrate(model, cdm, x0, signal, schedule)
        reference = integrate(generic(model), cdm, x0, signal, schedule)
        assert_trajectories_agree(fast, reference)

    def test_lambda_model_takes_generic_path(self):
        A, B = np.array([[0.0, 1.0], [-4.0, -0.1]]), np.array([[0.0], [1.0]])
        lam = SystemModel(dim_state=2, dim_input=1, drift=lambda x: A @ x,
                          input_map=lambda x: B)
        sched = SamplingSchedule(rate=10.0, jitter=0.02, seed=3, horizon=2.0)
        signal = lambda t: np.cos(3.0 * t)[:, None]
        fast = integrate(linear_system(A, B), None, [1.0, 0.0], signal, sched)
        assert_trajectories_agree(fast, integrate(lam, None, [1.0, 0.0], signal, sched))

    def test_bundled_heat_run_matches_generic(self, heat_run):
        config, result, _ = heat_run
        model = config.model()
        assert model.a_matrix is not None
        reference = integrate(generic(model), config.cdm, config.x0, config.signal,
                              config.schedule)
        states = np.array([s.state for s in result.samples])
        np.testing.assert_allclose(states, [s.state for s in reference], rtol=0, atol=1e-10)
        assert reconstruction_to_lines(result.reconstruction) == reconstruction_to_lines(
            build_reconstruction(reference, model, config.identification))

    def test_call_counts(self):
        counts = {"drift": 0, "cdm": 0}
        calls = []
        model = HeatSystem(grid_points=21, epsilon=0.1).model()
        base_cdm = heat_example_cdm()

        def drift(x):
            counts["drift"] += 1
            return model.drift(x)

        def cdm(U):
            counts["cdm"] += 1
            return base_cdm(U)

        def signal(t):
            calls.append(t.copy())
            return probe_signal(t)

        counted = dataclasses.replace(model, drift=drift)
        # 100 intervals of about 102 stage rows: several batches
        sched = SamplingSchedule(rate=20.0, jitter=0.01, seed=2, horizon=5.0)
        samples = integrate(counted, cdm, np.zeros(model.dim_state), signal, sched)
        # one signal and one cdm call per batch of whole intervals; the
        # batch also serves the observed velocities
        assert len(samples) == counts["drift"] == 100
        assert counts["cdm"] == len(calls) > 1
        assert_batched_calls(calls, model, sched)

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 101, 102])
    def test_buffered_steps_match_plain_loop(self, n):
        rng = np.random.default_rng(n)
        R = rng.normal(size=(n, n)) / np.sqrt(n)
        forcing = rng.normal(size=(60, n))
        x = rng.normal(size=n)
        reference = x.copy()
        for f in forcing:
            reference = R @ reference + f
        np.testing.assert_array_equal(_affine_steps(R, forcing, x).view(np.uint64),
                                      reference.view(np.uint64))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_buffered_step_matrix_matches_expression(self, seed):
        # the bundled heat model's A and a random one, over sub-step lengths
        # from far below to above the 1 ms cap, and the last buffers reused
        A = HeatSystem().model().a_matrix if seed == 0 else \
            np.random.default_rng(seed).normal(size=(102, 102))
        A2 = A @ A
        A3 = A2 @ A
        powers = (np.eye(A.shape[0]), A, A2, A3, A3 @ A)
        out, term = np.empty_like(A), np.empty_like(A)
        for dt in step_lengths(seed):
            want = (np.eye(A.shape[0]) + dt * A + dt**2 / 2.0 * A2 + dt**3 / 6.0 * A3
                    + dt**4 / 24.0 * powers[4])
            assert _step_matrix(dt, powers, out, term) is out
            np.testing.assert_array_equal(out.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("case", sorted(STEP_MATRIX_CASES))
    def test_supported_step_matrix_matches_expression(self, case):
        # the buffer is reused across the sweep, so stale entries would show
        A = STEP_MATRIX_CASES[case]()
        eye = np.eye(A.shape[0])
        with np.errstate(invalid="ignore", over="ignore"):
            A2 = A @ A
            A3 = A2 @ A
            A4 = A3 @ A
            step_matrix = _supported_step_matrix((eye, A, A2, A3, A4))
            for dt in step_lengths(A.shape[0]):
                want = eye + dt * A + dt**2 / 2.0 * A2 + dt**3 / 6.0 * A3 + dt**4 / 24.0 * A4
                np.testing.assert_array_equal(step_matrix(dt).view(np.uint64),
                                              want.view(np.uint64), err_msg=f"dt={dt!r}")

    def test_bundled_step_matrix_is_built_on_the_band(self, monkeypatch):
        # a silent fall-back to the dense sum would show in both counts
        model = HeatSystem().model()
        n = model.dim_state
        support = _support((np.eye(n), model.a_matrix, *model._rk4_powers[:3]))
        assert np.bincount(support // n, minlength=n).max() <= 9
        sizes = []

        def recording(dt, powers, out, term):
            sizes.append(out.size)
            return _step_matrix(dt, powers, out, term)

        monkeypatch.setattr(simulation, "_step_matrix", recording)
        integrate(model, None, np.zeros(n), probe_signal, SamplingSchedule(20.0, horizon=0.2))
        assert len(sizes) == 3 and set(sizes) == {support.size}

    def test_vanishing_interval_takes_no_step(self):
        # a sample 1e-300 s after the start is below any step: no step, no warning
        model = linear_system([[1.0]], [[1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            samples = integrate(model, None, [1.0], zero_signal(1), FixedTimes(1e-300, 0.1))
        assert samples[0].state[0] == 1.0
        np.testing.assert_allclose(samples[1].state[0], np.exp(0.1), rtol=1e-12)

    def test_nonlinear_depth_keeps_generic_path(self):
        sys = HeatSystem(grid_points=21, epsilon=0.1, nonlinear_depth=True)
        model = sys.model()
        assert model.a_matrix is None and model.b_matrix is None
        x = np.zeros(model.dim_state)
        x[sys.grid_points - 1] = 3.0
        np.testing.assert_allclose(model.input_map(x)[-1], [0.0, 3.0])

    def test_heat_stencil_matrix(self):
        sys = HeatSystem(grid_points=5, diffusivity=0.5, epsilon=0.25)
        A = sys.model().a_matrix
        c = 0.5 / sys.spacing**2
        expected = c * np.array([
            [-2, 2, 0, 0, 0, 0],
            [1, -2, 1, 0, 0, 0],
            [0, 1, -2, 1, 0, 0],
            [0, 0, 1, -2, 1, 0],
            [0, 0, 0, 2, -2, 0],
            [0, 0, 0, 0, 0, 0],
        ])
        np.testing.assert_array_equal(A, expected)
        assert not A.flags.writeable


def heat_args(schedule, nonlinear_depth=False):
    """``integrate`` arguments: a small heat model, the three-mode map and the probe signal."""
    sys = HeatSystem(grid_points=21, epsilon=0.1, nonlinear_depth=nonlinear_depth)
    return sys.model(), heat_example_cdm(), np.ones(sys.dim_state), probe_signal, schedule


RUNS = {
    "nonlinear_depth": lambda: heat_args(SamplingSchedule(20.0, 0.01, 4, 0.5),
                                         nonlinear_depth=True),
    "without_jitter": lambda: heat_args(SamplingSchedule(20.0, 0.0, 0, 1.0)),
    # 100 intervals of about 102 stage rows: batches split mid-horizon
    "split_batches": lambda: heat_args(SamplingSchedule(20.0, 0.01, 2, 5.0)),
    # 2,990 steps of 1 ms between the second and third sample: 5,982 rows
    "long_interval": lambda: heat_args(FixedTimes(0.0, 0.01, 3.0, 3.05, 3.1)),
    "vanishing_first_interval": lambda: (linear_system([[1.0]], [[1.0]]), None, [1.0],
                                         lambda t: np.sin(t)[:, None],
                                         FixedTimes(1e-300, 0.1)),
}


class TestBatchedIntegrate:
    """``integrate`` against the per-interval loop it replaced, bit for bit."""

    def test_bundled_heat_run(self, heat_run):
        config, result, _ = heat_run
        reference = integrate_per_interval(config.model(), config.cdm, config.x0,
                                           config.signal, config.schedule)
        assert_samples_identical(result.samples, reference)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(linear_runs())
    def test_linear_runs(self, run):
        assert_samples_identical(integrate(*run), integrate_per_interval(*run))

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_run(self, name):
        model, cdm, x0, signal, schedule = RUNS[name]()
        calls = []

        def recording(t):
            calls.append(t.copy())
            return signal(t)

        assert_samples_identical(integrate(model, cdm, x0, recording, schedule),
                                 integrate_per_interval(model, cdm, x0, signal, schedule))
        assert_batched_calls(calls, model, schedule)

    def test_long_interval_is_its_own_batch(self):
        model, cdm, x0, signal, schedule = RUNS["long_interval"]()
        calls = []
        integrate(model, cdm, x0, lambda t: calls.append(len(t)) or signal(t), schedule)
        assert calls == [23, 5982, 204] and 5982 > _BATCH_ROWS

    @pytest.mark.parametrize("times, message", [
        ([0.1, 0.05, 0.2], r"0\.05 at index 1 is earlier than sample time 0\.1 at index 0"),
        ([-0.1, 0.2], r"-0\.1 at index 0 is negative"),
        ([0.1, np.nan], r"nan at index 1 is not finite"),
        ([0.1, np.inf], r"inf at index 1 is not finite"),
        ([0.0, 0.1, -np.inf], r"-inf at index 2 is not finite"),
    ])
    def test_bad_sample_times_rejected(self, times, message):
        model = linear_system([[1.0]], [[1.0]])
        with pytest.raises(ValueError, match=message):
            integrate(model, None, [1.0], zero_signal(1), FixedTimes(*times))

    def test_repeated_sample_time_is_an_empty_interval(self):
        model = linear_system([[1.0]], [[1.0]])
        run = (model, None, [1.0], zero_signal(1), FixedTimes(0.0, 0.1, 0.1, 0.2))
        samples = integrate(*run)
        assert_samples_identical(samples, integrate_per_interval(*run))
        assert samples[1].state[0] == samples[2].state[0]


def observed(model, x, effective):
    """Exact observation at ``x`` whose recovered effective input is ``effective``."""
    x = np.asarray(x, dtype=float)
    return ControlSample(time=0.0, state=x, velocity=velocity(model, x, effective),
                         input=effective)


def assert_left_inverse(model, x, atol):
    """``recover_effective_input`` maps ``g(x) e_i`` back to ``e_i`` for every column."""
    for e in np.eye(model.dim_input):
        np.testing.assert_allclose(recover_effective_input(observed(model, x, e), model), e,
                                   atol=atol)


class TestPseudoInverse:
    """``recover_effective_input`` is a rank-checked left inverse of ``g(x)``."""

    def test_identity(self):
        model = linear_system(np.zeros((2, 2)), np.eye(2))
        assert_left_inverse(model, np.zeros(2), atol=1e-12)

    def test_single_column(self):
        # a gain of 2: the velocity 2 v recovers v
        model = linear_system([[0.0]], [[2.0]])
        sample = ControlSample(time=0.0, state=[0.0], velocity=[1.0], input=[0.0])
        np.testing.assert_allclose(recover_effective_input(sample, model), [0.5])

    def test_heat_left_inverse(self):
        model = HeatSystem(grid_points=101).model()
        assert_left_inverse(model, np.zeros(model.dim_state), atol=1e-10)

    def test_left_inverse_along_bundled_run(self, heat_run):
        # every state the bundled experiment visits recovers the degraded input
        config, result, _ = heat_run
        model = config.model()
        for s in result.samples:
            assert_left_inverse(model, s.state, atol=1e-10)
            np.testing.assert_allclose(recover_effective_input(s, model), config.cdm(s.input),
                                       atol=1e-10)

    def test_rank_deficient_rejected(self):
        model = linear_system(np.zeros((2, 2)), [[1.0, 1.0], [1.0, 1.0]])
        sample = observed(model, np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(PreconditionError) as err:
            recover_effective_input(sample, model)
        assert err.value.rank == 1
        assert err.value.singular_values is not None

    def test_overactuated_rejected(self):
        with pytest.raises(ValueError):
            linear_system([[1.0]], [[1.0, 2.0]])  # m=2 > n=1


class TestControlSample:
    def test_state_velocity_dims_must_agree(self):
        with pytest.raises(ValueError):
            ControlSample(time=0.0, state=np.zeros(2), velocity=np.zeros(3),
                          input=np.zeros(1))

    def test_time_must_be_finite(self):
        with pytest.raises(ValueError):
            ControlSample(time=np.nan, state=np.zeros(1), velocity=np.zeros(1),
                          input=np.zeros(1))
