"""Tests for the simulator and the heat-conduction testbed."""

import ast
import dataclasses
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path
from types import SimpleNamespace

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
    _support,
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

    @pytest.mark.parametrize("grid_points", [3, 4, 5, 7, 11, 101, 2047])
    def test_source_mass_is_unit(self, grid_points):
        # the cell-averaged profile has unit trapezoid mass for every width
        # the system accepts, so no check at construction needs to recompute it
        h = 1.0 / (grid_points - 1)
        widths = [*np.linspace(h, 1.0, 997).tolist(), *(e for e in (0.05, 0.033, 0.2) if e >= h)]
        for eps in widths:
            sys = HeatSystem(grid_points=grid_points, epsilon=eps)
            mass = np.trapezoid(sys.source_profile(), dx=sys.spacing)
            np.testing.assert_allclose(mass, 1.0, rtol=0, atol=1e-12, err_msg=f"epsilon={eps!r}")

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

    @pytest.mark.parametrize("grid_points", [101.5, 101.0, np.float64(51.0), "101", True])
    def test_grid_points_must_be_an_integer(self, grid_points):
        # 101.5 built a system whose model() raised an untyped TypeError, and
        # "101" failed inside the range comparison
        message = f"^grid_points must be an integer, got {re.escape(repr(grid_points))}$"
        with pytest.raises(ValueError, match=message):
            HeatSystem(grid_points=grid_points)

    def test_numpy_integer_grid_points_are_kept_as_an_int(self):
        sys = HeatSystem(grid_points=np.int64(21), epsilon=0.1)
        assert type(sys.grid_points) is int and sys == HeatSystem(grid_points=21, epsilon=0.1)
        assert sys.model().dim_state == 22

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

    @pytest.mark.parametrize("seed", [1.5, 3.0, True, "3", np.float64(2.0)])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # 1.5 failed in NumPy's generator with a TypeError, and True seeded 1
        with pytest.raises(ValueError, match="^sampling seed must be a non-negative integer, "
                                             f"got {re.escape(repr(seed))}$"):
            SamplingSchedule(rate=20.0, jitter=0.01, seed=seed, horizon=1.0)

    def test_numpy_integer_seed_draws_as_the_int(self):
        sched = SamplingSchedule(rate=20.0, jitter=0.01, seed=np.uint8(3), horizon=1.0)
        assert type(sched.seed) is int
        np.testing.assert_array_equal(
            sched.sample_times(),
            SamplingSchedule(rate=20.0, jitter=0.01, seed=3, horizon=1.0).sample_times())

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

    @pytest.mark.parametrize("limit", [-1.0, 0.0, np.nan, np.inf, -np.inf,
                                       1j, np.complex128(0.1), "0.1", np.array([0.1, 0.2])])
    def test_unusable_stability_limit_rejected(self, limit):
        with pytest.raises(ValueError, match="stability limit must be finite and positive"):
            linear_system([[1.0]], [[1.0]], stability_limit=limit)

    def test_stability_limit_is_kept_as_a_float(self):
        limit = linear_system([[1.0]], [[1.0]], stability_limit=np.float32(0.5)).stability_limit
        assert type(limit) is float and limit == 0.5

    @pytest.mark.parametrize("limit", [1e-320, 1e-300])
    def test_step_count_beyond_an_index_names_the_interval(self, limit):
        # 0.1 / 1e-320 is inf and 0.1 / 1e-300 is finite but beyond any intp
        model = linear_system([[1.0]], [[1.0]], stability_limit=limit)
        sched = SamplingSchedule(rate=10.0, horizon=0.3)
        with pytest.raises(ValueError, match=r"sampling interval 1 \(0\.0 to 0\.1 s\) needs"):
            integrate(model, None, [1.0], zero_signal(1), sched)

    def test_steps_over_the_cap_are_refused_before_any_stage_table(self, monkeypatch):
        # two intervals of 1e14 steps, each of which fits an index
        def no_table(*args):
            raise AssertionError("a stage table was built for steps over the cap")

        monkeypatch.setattr(simulation, "_stage_times", no_table)
        model = linear_system([[1.0]], [[1.0]], stability_limit=1e-15)
        sched = SamplingSchedule(rate=10.0, horizon=0.3)
        with pytest.raises(ValueError, match=r"^3 sample times need 2e\+14 integration steps, "
                                             r"more than the 1e\+08 one integrate call may take$"):
            integrate(model, None, [1.0], zero_signal(1), sched)

    @pytest.mark.parametrize("cap, refused", [(300, False), (299, True)])
    def test_the_step_cap_is_inclusive(self, monkeypatch, cap, refused):
        # 3 intervals of 0.1 s in steps of 1 ms
        monkeypatch.setattr(simulation, "_MAX_STEPS", cap)
        run = (linear_system([[1.0]], [[1.0]]), None, [1.0], zero_signal(1),
               FixedTimes(0.1, 0.2, 0.3))
        if refused:
            with pytest.raises(ValueError, match="need 300 integration steps, more than the"):
                integrate(*run)
        else:
            assert len(integrate(*run)) == 3

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
    "heat_bundled": lambda: HeatSystem().model().a_matrix,
    "dense_102": lambda: np.random.default_rng(1).normal(size=(102, 102)),
}
# the sweep seed of a case, where it is not the dimension of its A
STEP_MATRIX_SEEDS = {"heat_bundled": 0, "dense_102": 1}


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
        # a table, then row views of it made once and taken over prefixes
        # while the table is rewritten between calls; the last rewrite puts
        # -0.0, NaN and infinities in the final rows, where they reach the result
        rng = np.random.default_rng(n)
        R = rng.normal(size=(n, n)) / np.sqrt(n)
        forcing = rng.normal(size=(60, n))
        x = rng.normal(size=n)
        reference = x.copy()
        for f in forcing:
            reference = R @ reference + f
        np.testing.assert_array_equal(_affine_steps(R, forcing, x).view(np.uint64),
                                      reference.view(np.uint64))
        views = list(forcing)
        for k, special in ((60, False), (37, False), (60, True)):
            forcing[:] = rng.normal(size=forcing.shape)
            if special:
                forcing[-2, ::2] = -0.0
                forcing[-1] = np.resize([-0.0, np.nan, np.inf, -np.inf], n)
            x = rng.normal(size=n)
            reference = x.copy()
            for f in forcing[:k]:
                reference = R @ reference + f
            np.testing.assert_array_equal(_affine_steps(R, views[:k], x).view(np.uint64),
                                          reference.view(np.uint64), err_msg=f"{k} rows")

    def test_longer_interval_reallocates_the_forcing_rows(self):
        # step counts that grow past every earlier one reallocate the forcing
        # table, and shorter ones reuse it: a loop over the views of an
        # outgrown table would take too few or stale rows
        rng = np.random.default_rng(3)
        model = linear_system(rng.normal(size=(4, 4)), rng.normal(size=(4, 2)))
        A, B = model.a_matrix, model.b_matrix
        A2, A3, A4, AB, A2B, A3B = model._rk4_powers
        maps, advance = simulation._linear_rk4_advance(model)
        n_subs = [2, 5, 3, 9, 1, 9, 12, 4]
        dts = rng.uniform(1e-4, 1e-3, len(n_subs))
        x = rng.normal(size=4)
        reference = x.copy()
        for n_sub, dt, step_map in zip(n_subs, dts.tolist(), maps(dts)):
            E = rng.normal(size=(2 * n_sub + 1, 2))
            x = advance(x, step_map, E)
            R = np.eye(4) + dt * A + dt**2 / 2.0 * A2 + dt**3 / 6.0 * A3 + dt**4 / 24.0 * A4
            P0 = dt / 6.0 * (B + dt * AB + dt**2 / 2.0 * A2B + dt**3 / 4.0 * A3B)
            Ph = dt / 6.0 * (4.0 * B + 2.0 * dt * AB + dt**2 / 2.0 * A2B)
            P1 = dt / 6.0 * B
            for f in E[0:-1:2] @ P0.T + E[1::2] @ Ph.T + E[2::2] @ P1.T:
                reference = R @ reference + f
            np.testing.assert_array_equal(x.view(np.uint64), reference.view(np.uint64),
                                          err_msg=f"{n_sub} steps")

    @pytest.mark.parametrize("case", sorted(STEP_MATRIX_CASES))
    def test_step_matrix_matches_expression(self, case, monkeypatch):
        # each R that one advance hands to the mat-vec loop, over sub-step
        # lengths from far below to above the 1 ms cap and 0, taken as batches
        # of one to all of the lengths; the advance and its R are reused
        # across batches and the sweep, so stale entries would show
        A = STEP_MATRIX_CASES[case]()
        n = A.shape[0]
        eye = np.eye(n)
        seen = []
        monkeypatch.setattr(simulation, "_affine_steps",
                            lambda R, forcing, x: seen.append(R.copy()) or x)
        dts = step_lengths(STEP_MATRIX_SEEDS.get(case, n))
        with np.errstate(invalid="ignore", over="ignore"):
            A2 = A @ A
            A3 = A2 @ A
            A4 = A3 @ A
            maps, advance = simulation._linear_rk4_advance(linear_system(A, np.zeros((n, 1))))
            for batch in np.split(np.array(dts), [1, 3, 10, 41]):
                for dt, step_map in zip(batch.tolist(), maps(batch)):
                    advance(np.zeros(n), step_map, np.zeros((3, 1)))
                    want = eye + dt * A + dt**2 / 2.0 * A2 + dt**3 / 6.0 * A3 + dt**4 / 24.0 * A4
                    np.testing.assert_array_equal(seen.pop().view(np.uint64),
                                                  want.view(np.uint64), err_msg=f"dt={dt!r}")
            assert not seen

    @pytest.mark.parametrize("args", [lambda: block_diagonal_args(None), lambda: heat_args(None)],
                             ids=["block_diagonal", "heat"])
    def test_forcing_is_the_full_product(self, monkeypatch, args):
        # each forcing table one advance hands to the mat-vec loop is the
        # three full-width products summed, bit for bit: intervals whose inputs
        # hold NaN, infinities or negative values and -0.0 take turns with
        # plain ones, over step counts that grow and shrink, so an unreached
        # row left from an earlier interval would show
        model = args()[0]
        B = model.b_matrix
        _, _, _, AB, A2B, A3B = model._rk4_powers
        rng = np.random.default_rng(5)
        seen = []
        monkeypatch.setattr(simulation, "_affine_steps",
                            lambda R, forcing, x: seen.append(np.array(forcing)) or x)
        maps, advance = simulation._linear_rk4_advance(model)
        n_subs = [3, 1, 5, 2, 5, 1, 4, 4]
        dts = rng.uniform(1e-4, 1e-3, len(n_subs))
        for i, (n_sub, dt, step_map) in enumerate(zip(n_subs, dts.tolist(), maps(dts))):
            E = rng.normal(size=(2 * n_sub + 1, B.shape[1]))
            if i % 2 == 0:
                E[rng.integers(len(E))] = [np.nan, np.inf, -np.inf][i % 3]
                E[rng.integers(len(E))] = -0.0
                E[rng.integers(len(E))] = -np.abs(E[0])
            with np.errstate(invalid="ignore"):
                advance(np.zeros(model.dim_state), step_map, E)
                P0 = dt / 6.0 * (B + dt * AB + dt**2 / 2.0 * A2B + dt**3 / 4.0 * A3B)
                Ph = dt / 6.0 * (4.0 * B + 2.0 * dt * AB + dt**2 / 2.0 * A2B)
                P1 = dt / 6.0 * B
                want = E[0:-1:2] @ P0.T + E[1::2] @ Ph.T + E[2::2] @ P1.T
            np.testing.assert_array_equal(seen.pop().view(np.uint64), want.view(np.uint64),
                                          err_msg=f"interval {i}")

    def test_bundled_step_matrix_is_built_on_the_band(self, monkeypatch):
        # the spied support leaves out the diagonal, so a sum over the dense
        # matrix would show there; the support is found once per integrate
        model = HeatSystem().model()
        n = model.dim_state
        support = _support((np.eye(n), model.a_matrix, *model._rk4_powers[:3]))
        assert np.bincount(support // n, minlength=n).max() <= 9
        band = support[support % (n + 1) != 0]
        supports, seen = [], []

        def spied(powers):
            supports.append(_support(powers))
            return band

        monkeypatch.setattr(simulation, "_support", spied)
        monkeypatch.setattr(simulation, "_affine_steps",
                            lambda R, forcing, x: seen.append(R.copy()) or x)
        integrate(model, None, np.zeros(n), probe_signal, SamplingSchedule(20.0, horizon=0.2))
        assert len(supports) == 1 and np.array_equal(supports[0], support)
        off_band = np.ones(n * n, dtype=bool)
        off_band[band] = False
        assert len(seen) == 3
        for R in seen:
            assert R.reshape(-1)[band].any() and not R.reshape(-1)[off_band].any()

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


def heat_args(schedule, nonlinear_depth=False, cdm=None):
    """``integrate`` arguments: a small heat model, the three-mode map or ``cdm``, the probe."""
    sys = HeatSystem(grid_points=21, epsilon=0.1, nonlinear_depth=nonlinear_depth)
    return sys.model(), cdm or heat_example_cdm(), np.ones(sys.dim_state), probe_signal, schedule


def block_diagonal_args(schedule):
    """``integrate`` arguments: a linear system whose ``B`` reaches only its first block.

    Every command is negative, and the unreached rows start at ``-0.0``: the
    full forcing product gives their rows ``±0`` by the inputs' signs, which
    the product on the reached rows must reproduce.  The second block moves
    on its own; the last two rows have no dynamics at all.
    """
    rng = np.random.default_rng(11)
    A = np.zeros((7, 7))
    A[:3, :3] = rng.normal(size=(3, 3))
    A[3:5, 3:5] = rng.normal(size=(2, 2))
    B = np.zeros((7, 2))
    B[:3] = rng.normal(size=(3, 2))
    x0 = [*rng.normal(size=3), 1.0, -0.5, -0.0, -0.0]

    def signal(t):
        return -1.0 - np.column_stack([np.sin(3.0 * t), np.cos(7.0 * t)]) ** 2

    return linear_system(A, B), None, x0, signal, schedule


def non_finite_cdm(U):
    """The three-mode map, but ``+inf``, ``-inf`` and NaN where the depth rate nears 1."""
    E = heat_example_cdm()(U).copy()
    rate = U[:, 1]
    E[(rate > 0.99) & (rate <= 0.995), 0] = np.inf
    E[(rate > 0.995) & (rate <= 0.999), 1] = -np.inf
    E[rate > 0.999, 1] = np.nan
    return E


# single-step intervals (below 1 ms) between repeated sample times (no steps)
SINGLE_AND_ZERO_STEPS = FixedTimes(0.0, 0.0004, 0.0004, 0.0011, 0.0011, 0.0011, 0.0019, 0.0023,
                                   0.0023, 0.05, 0.0504, 0.0504)

RUNS = {
    "block_diagonal_negative": lambda: block_diagonal_args(SamplingSchedule(20.0, 0.01, 3, 1.0)),
    "block_diagonal_single_and_zero_steps": lambda: block_diagonal_args(SINGLE_AND_ZERO_STEPS),
    "non_finite_effective_inputs": lambda: heat_args(SamplingSchedule(20.0, 0.01, 5, 0.5),
                                                     cdm=non_finite_cdm),
    "single_and_zero_steps": lambda: heat_args(SINGLE_AND_ZERO_STEPS),
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

        with np.errstate(invalid="ignore" if name == "non_finite_effective_inputs" else "warn"):
            assert_samples_identical(integrate(model, cdm, x0, recording, schedule),
                                     integrate_per_interval(model, cdm, x0, signal, schedule))
        assert_batched_calls(calls, model, schedule)

    @pytest.mark.parametrize("grid_points, horizon, passes", [(21, 5.0, None), (101, 2.0, 12)])
    def test_step_maps_are_formed_once_per_interval(self, monkeypatch, grid_points, horizon,
                                                    passes):
        # _step_maps forms the maps of many intervals of one batch at once: all
        # of each batch of the 21-point model, and 12 at a time for the 101-point
        # one, each interval's once.  Each interval with steps makes one mat-vec
        # loop, on an (n_sub, dim_state) forcing table.
        model = HeatSystem(grid_points=grid_points, epsilon=0.1).model()
        schedule = SamplingSchedule(20.0, 0.01, 2, horizon)
        formed, loops, calls = [], [], []
        step_maps, affine_steps = simulation._step_maps, simulation._affine_steps
        monkeypatch.setattr(simulation, "_step_maps",
                            lambda dts, *args: formed.append(dts.copy()) or step_maps(dts, *args))
        monkeypatch.setattr(simulation, "_affine_steps", lambda R, forcing, x: loops.append(
            (len(forcing), forcing[0].shape[0])) or affine_steps(R, forcing, x))
        integrate(model, heat_example_cdm(), np.ones(model.dim_state),
                  lambda t: calls.append(len(t)) or probe_signal(t), schedule)
        _, n_subs, dts = simulation._interval_steps(schedule.sample_times(), model.stability_limit)
        batches = list(simulation._batches(n_subs.tolist()))
        assert len(calls) == len(batches)
        sizes = [len(d) for d in formed]
        if passes is None:
            assert len(batches) > 1 and sizes == [b - a for a, b in batches]
        else:
            ends = np.cumsum(sizes).tolist()
            assert max(sizes) == passes and {b for _, b in batches} <= set(ends)
            assert all(size == passes or end in {b for _, b in batches}
                       for size, end in zip(sizes, ends))
        np.testing.assert_array_equal(np.concatenate(formed).view(np.uint64), dts.view(np.uint64))
        assert loops == [(n, model.dim_state) for n in n_subs.tolist() if n]

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


@pytest.mark.parametrize("call, message", [
    (lambda: linear_system(np.ones((2, 3)), np.ones((2, 1))), "A must be square and B conformable"),
    (lambda: linear_system(np.eye(2), np.ones((3, 1))), "A must be square and B conformable"),
    (lambda: integrate(linear_system(np.eye(2), np.ones((2, 1))), lambda U: np.column_stack([U, U]),
                       np.zeros(2), zero_signal(1), SamplingSchedule(10.0)),
     "degradation map changed the input dimension"),
    (lambda: integrate(linear_system(np.eye(2), np.ones((2, 1))), None, np.zeros(3),
                       zero_signal(1), SamplingSchedule(10.0)),
     "initial state dimension mismatch"),
])
def test_mismatched_dimensions_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestControlSample:
    def test_state_velocity_dims_must_agree(self):
        with pytest.raises(ValueError):
            ControlSample(time=0.0, state=np.zeros(2), velocity=np.zeros(3),
                          input=np.zeros(1))

    def test_time_must_be_finite(self):
        with pytest.raises(ValueError):
            ControlSample(time=np.nan, state=np.zeros(1), velocity=np.zeros(1),
                          input=np.zeros(1))

    def test_keeps_a_read_only_copy_of_the_callers_arrays(self):
        x, v, u = np.ones(2), np.full(2, 2.0), np.full(1, 3.0)
        sample = ControlSample(time=0.0, state=x, velocity=v, input=u)
        for mine, kept in ((x, sample.state), (v, sample.velocity), (u, sample.input)):
            assert mine.flags.writeable and not kept.flags.writeable
            assert not np.shares_memory(mine, kept)
        x[0] = 9.0
        np.testing.assert_array_equal(sample.state, [1.0, 1.0])


@pytest.mark.parametrize("call, message", [
    (lambda: ControlSample(0.0, ["1"], ["2"], ["3"]), "state must be real numbers, got dtype <U1"),
    (lambda: ControlSample(0.0, [1.0], [2.0], ["3"]), "input must be real numbers, got dtype <U1"),
    (lambda: linear_system([["1"]], [["1"]]), "A must be real numbers, got dtype <U1"),
    (lambda: linear_system([[1.0]], [[1j]]), "B must be real numbers, got dtype complex128"),
    (lambda: integrate(linear_system([[0.0]], [[1.0]]), None, ["1"], zero_signal(1),
                       SamplingSchedule(10.0)),
     "initial state must be real numbers, got dtype <U1"),
])
def test_non_real_numbers_rejected(call, message):
    # a string would parse and a complex entry would lose its imaginary part
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def ones_signal(t):
    return np.ones((len(t), 1))


@pytest.mark.parametrize("call, message", [
    (lambda: SamplingSchedule(rate="20", horizon=1.0),
     "sampling rate must be finite and positive, got '20'"),
    (lambda: SamplingSchedule(rate=20.0, horizon=np.complex128(1.0)),
     "sampling horizon must be finite and positive, got (1+0j)"),
    (lambda: SamplingSchedule(rate=20.0, jitter=-0.01),
     "sampling jitter must be finite and non-negative, got -0.01"),
    (lambda: HeatSystem(diffusivity="0.1"), "diffusivity must be finite and positive, got '0.1'"),
    (lambda: probe_signal(["0.1"]), "probe times must be real numbers, got dtype <U3"),
    (lambda: integrate(linear_system([[0.0]], [[1.0]]), None, [0.0],
                       lambda t: np.full((len(t), 1), "1"), SamplingSchedule(10.0)),
     "input signal must be real numbers, got dtype <U1"),
    (lambda: integrate(linear_system([[0.0]], [[1.0]]), None, [0.0],
                       lambda t: np.full((len(t), 1), 1j), SamplingSchedule(10.0)),
     "input signal must be real numbers, got dtype complex128"),
    (lambda: integrate(linear_system([[0.0]], [[1.0]]), lambda U: U * 1j, [0.0], ones_signal,
                       SamplingSchedule(10.0)),
     "effective input must be real numbers, got dtype complex128"),
    (lambda: integrate(linear_system([[0.0]], [[1.0]]), None, [0.0], ones_signal,
                       SimpleNamespace(sample_times=lambda: ["0.1"])),
     "sample times must be real numbers, got dtype <U3"),
])
def test_tunables_and_call_time_numbers_are_real(call, message):
    # a numeric string would parse, and a complex value would lose its
    # imaginary part with a ComplexWarning
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("time, message", [
    (1j, "sample time must be real numbers, got dtype complex128"),
    ("1", "sample time must be real numbers, got dtype <U1"),
    ([1.0], "sample time must be one finite number, got [1.0]"),
    (np.array([0.5]), "sample time must be one finite number, got array([0.5])"),
    (np.inf, "sample time must be one finite number, got inf"),
    (-math.inf, "sample time must be one finite number, got -inf"),
    (math.nan, "sample time must be one finite number, got nan"),
    (np.float64(np.nan), "sample time must be one finite number, got np.float64(nan)"),
    (np.float64(-np.inf), "sample time must be one finite number, got np.float64(-inf)"),
    (np.array(np.nan), "sample time must be one finite number, got array(nan)"),
    (np.array(np.inf), "sample time must be one finite number, got array(inf)"),
])
def test_sample_time_is_one_finite_real_number(time, message):
    # write_samples would write a complex time as a row that read_samples rejects
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ControlSample(time=time, state=[0.0], velocity=[0.0], input=[0.0])


@pytest.mark.parametrize("time, value", [
    (0.5, 0.5), (-0.0, -0.0), (np.float64(0.5), 0.5), (np.float32(0.1), 0.10000000149011612),
    (2, 2.0), (np.int64(3), 3.0), (2**70, 1.1805916207174113e+21), (True, 1.0),
    (np.array(0.25), 0.25),
])
def test_sample_time_becomes_a_python_float(time, value):
    sample = ControlSample(time=time, state=[0.0], velocity=[0.0], input=[0.0])
    assert type(sample.time) is float
    assert sample.time == value and math.copysign(1.0, sample.time) == math.copysign(1.0, value)


def test_system_model_keeps_a_read_only_copy_of_the_input_box():
    lo, hi = np.zeros(2), np.ones(2)
    model = linear_system(np.eye(2), np.eye(2), input_lo=lo, input_hi=hi)
    for mine, kept in ((lo, model.input_lo), (hi, model.input_hi)):
        assert mine.flags.writeable and not kept.flags.writeable
        assert not np.shares_memory(mine, kept)
    lo[0] = -5.0
    np.testing.assert_array_equal(model.input_lo, [0.0, 0.0])
    assert linear_system(np.eye(2), np.eye(2)).input_lo is None
    heat = HeatSystem().model()
    np.testing.assert_array_equal(heat.input_hi, [10.0, 1.0])
    assert not heat.input_lo.flags.writeable and not heat.input_hi.flags.writeable


def test_steps_over_the_cap_are_a_typed_error_under_an_address_limit():
    # the address limit holds in the child only; at 2e14 steps a table of every stage
    # time would need some 3 PiB
    pytest.importorskip("resource")
    script = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
        import numpy as np
        from cdmkit.simulation import SamplingSchedule, integrate, linear_system
        model = linear_system([[1.0]], [[1.0]], stability_limit=1e-15)
        try:
            integrate(model, None, [1.0], lambda t: np.zeros((len(t), 1)),
                      SamplingSchedule(rate=10.0, horizon=0.3))
        except ValueError as exc:
            print(exc)
    """)
    src = str(Path(simulation.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src,
                                            "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("3 sample times need 2e+14 integration steps, more than the 1e+08 "
                           "one integrate call may take\n")
