"""Forward simulation of nominal and degraded control-affine systems.

Systems have the form ``x' = f(x) + g(x) u``; a degraded system applies a
degradation map to the input first, ``x' = f(x) + g(x) P(u)``.  The module
includes a one-dimensional heat-conduction testbed (insulated slab with a
boundary heat source and a probe-depth channel), a jittered sampling
schedule, and a fixed-step fourth-order integrator that emits exact
state/velocity/input observations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .geometry import _frozen, _integer, _positive


@dataclass(frozen=True)
class ControlSample:
    """One observation of the running system."""

    time: float
    state: np.ndarray
    velocity: np.ndarray
    input: np.ndarray

    def __post_init__(self):
        if type(self.time) is not float or not math.isfinite(self.time):
            time = _frozen(self.time, "sample time", ndmin=0)
            if time.ndim or not np.isfinite(time):
                raise ValueError(f"sample time must be one finite number, got {self.time!r}")
            object.__setattr__(self, "time", float(time))
        for name in ("state", "velocity", "input"):
            object.__setattr__(self, name, _frozen(getattr(self, name), name))
        if self.state.shape != self.velocity.shape:
            raise ValueError("state and velocity dimensions disagree")


@dataclass(frozen=True)
class SystemModel:
    """Control-affine system: drift ``f(x)`` and input matrix ``g(x)``.

    ``input_map(x)`` returns the (n, m) matrix of input gains at a state;
    it must have full column rank wherever the system is observed.
    ``stability_limit`` optionally caps the explicit integration step; it
    must be finite and positive.
    ``input_lo``/``input_hi`` optionally bound the commands; each is kept
    as a read-only copy.
    ``a_matrix``/``b_matrix`` are set on linear systems ``x' = A x + B u``
    (see :func:`linear_system`) and must agree with ``drift``/``input_map``;
    :func:`integrate` advances such a system with a precomputed step map.
    """

    dim_state: int
    dim_input: int
    drift: Callable[[np.ndarray], np.ndarray]
    input_map: Callable[[np.ndarray], np.ndarray]
    input_lo: Optional[np.ndarray] = None
    input_hi: Optional[np.ndarray] = None
    stability_limit: Optional[float] = None
    a_matrix: Optional[np.ndarray] = None
    b_matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dim_input > self.dim_state:
            raise ValueError("system must not be overactuated (m <= n)")
        if self.stability_limit is not None:
            object.__setattr__(self, "stability_limit",
                               _positive(self.stability_limit, "stability limit"))
        for name in ("input_lo", "input_hi"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _frozen(getattr(self, name), name))

    @cached_property
    def _rk4_powers(self) -> tuple:
        """``A^2, A^3, A^4, A B, A^2 B, A^3 B`` of a linear system, formed on first use.

        Every :func:`integrate` call on this model shares them, and so does
        every config of one heat system (:meth:`HeatSystem.model`), so the
        arrays are read-only.
        """
        A, B = self.a_matrix, self.b_matrix
        A2 = A @ A
        A3 = A2 @ A
        AB = A @ B
        A2B = A @ AB
        powers = A2, A3, A3 @ A, AB, A2B, A @ A2B
        for power in powers:
            power.setflags(write=False)
        return powers


def linear_system(a_matrix, b_matrix, **kwargs) -> SystemModel:
    """Constant-coefficient system ``x' = A x + B u``."""
    A = _frozen(a_matrix, "A", ndmin=2)
    B = _frozen(b_matrix, "B")
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    if A.shape[0] != A.shape[1] or B.shape[0] != A.shape[0]:
        raise ValueError("A must be square and B conformable")
    return SystemModel(
        dim_state=A.shape[0],
        dim_input=B.shape[1],
        drift=lambda x: A @ x,
        input_map=lambda x: B,
        a_matrix=A,
        b_matrix=B,
        **kwargs,
    )


def _effective_inputs(cdm, U: np.ndarray) -> np.ndarray:
    """``cdm(U)`` (``U`` without a map) for a ``(k, m)`` array ``U`` of commands.

    ``cdm`` maps the rows of a ``(k, m)`` array and is called once per batch.
    """
    if cdm is None:
        return U
    E = _frozen(cdm(U), "effective input")
    if E.shape != U.shape:
        raise ValueError("degradation map changed the input dimension")
    return E


def _velocity(model: SystemModel, x, e) -> np.ndarray:
    """``f(x) + g(x) e`` for the effective input ``e``."""
    return model.drift(x) + model.input_map(x) @ e


# The heat model keeps A, A^2, A^3 and A^4 as dense (G + 1) x (G + 1) float
# arrays: at 2,047 grid points they take 4 x 32 MiB = 128 MiB.
_MAX_GRID_POINTS = 2047


@dataclass(frozen=True)
class HeatSystem:
    """Insulated 1-D slab with a boundary heat source and a depth channel.

    The temperature field z on a uniform grid over [0, 1] follows
    ``z' = a z_xx + q(xi) u_0`` with mirror (zero-flux) boundaries, where the
    source profile ``q`` is a unit-mass indicator of width ``epsilon``.  An
    extra scalar state (probe depth) integrates the second input channel:
    ``d' = u_1``.  With ``nonlinear_depth`` the depth channel is instead
    driven by ``z(1) * u_1`` (exploratory variant; the input matrix then
    depends on the state).
    """

    diffusivity: float = 0.1
    grid_points: int = 101
    epsilon: float = 0.05
    nonlinear_depth: bool = False

    def __post_init__(self):
        object.__setattr__(self, "grid_points", _integer(self.grid_points, "grid_points"))
        if not 3 <= self.grid_points <= _MAX_GRID_POINTS:
            raise ValueError(f"grid_points must lie in [3, {_MAX_GRID_POINTS}], "
                             f"got {self.grid_points}")
        _positive(self.diffusivity, "diffusivity")
        h = self.spacing
        if not h <= self.epsilon <= 1.0:
            raise ValueError(
                f"source width {self.epsilon} must lie in [grid spacing {h}, 1]"
            )

    @property
    def spacing(self) -> float:
        return 1.0 / (self.grid_points - 1)

    @property
    def dim_state(self) -> int:
        return self.grid_points + 1

    @property
    def stability_limit(self) -> float:
        """Largest explicit step for the diffusion operator, h^2 / (2 a)."""
        return self.spacing**2 / (2.0 * self.diffusivity)

    def source_profile(self) -> np.ndarray:
        """Unit-mass source of width ``epsilon`` at the left boundary.

        Cell-averaged indicator: node i carries the fraction of its grid
        cell covered by [0, epsilon], scaled to 1/epsilon.  The trapezoid
        integral over the grid is then exactly 1 for any width (a pointwise
        sampled sharp indicator misses by half a cell at the edge).
        """
        h = self.spacing
        xi = np.linspace(0.0, 1.0, self.grid_points)
        cell_lo = np.clip(xi - h / 2.0, 0.0, 1.0)
        cell_hi = np.clip(xi + h / 2.0, 0.0, 1.0)
        overlap = np.clip(np.minimum(cell_hi, self.epsilon) - cell_lo, 0.0, None)
        return overlap / (cell_hi - cell_lo) / self.epsilon

    def model(self) -> SystemModel:
        """The system model, shared by every equal ``HeatSystem`` in the process.

        The 8 most recently used distinct systems keep one model each, so
        configs parsed from one ``[system]`` block share its step-map
        powers.  Its arrays are read-only.
        """
        return _heat_model(self)


@functools.lru_cache(maxsize=8)
def _heat_model(system: HeatSystem) -> SystemModel:
    """:meth:`HeatSystem.model`, built once per distinct system value."""
    G = system.grid_points
    # mirror-boundary (zero-flux) Laplacian on the temperature rows;
    # the depth row has no drift
    A = np.zeros((G + 1, G + 1))
    rows = np.arange(1, G - 1)
    A[rows, rows - 1] = A[rows, rows + 1] = 1.0
    A[rows, rows] = -2.0
    A[0, 0] = A[G - 1, G - 1] = -2.0
    A[0, 1] = A[G - 1, G - 2] = 2.0
    A *= system.diffusivity / system.spacing**2
    B = np.zeros((G + 1, 2))
    B[:G, 0] = system.source_profile()
    B[G, 1] = 1.0
    common = dict(input_lo=[0.0, 0.0], input_hi=[10.0, 1.0], stability_limit=system.stability_limit)
    if not system.nonlinear_depth:
        return linear_system(A, B, **common)

    def input_map(x):
        g = B.copy()
        g[G, 1] = x[G - 1]
        return g

    return SystemModel(dim_state=G + 1, dim_input=2, drift=lambda x: A @ x,
                       input_map=input_map, **common)


def probe_signal(t):
    """Bundled probe command at each time of ``t``: a ``(k, 2)`` array.

    Unit source power and a raised-cosine depth rate that sweeps [0, 1]
    with period 0.3 s.
    """
    t = _frozen(t, "probe times", ndmin=0)
    return np.column_stack([np.ones_like(t), 0.5 * (1.0 - np.cos(20.0 * np.pi * t / 3.0))])


@dataclass(frozen=True)
class SamplingSchedule:
    """Nominally periodic observation times with uniform jitter."""

    rate: float
    jitter: float = 0.0
    seed: int = 0
    horizon: float = 1.0

    def __post_init__(self):
        for name in ("rate", "horizon"):
            _positive(getattr(self, name), f"sampling {name}")
        _positive(self.jitter, "sampling jitter", or_zero=True)
        if self.jitter >= 0.5 / self.rate:
            raise ValueError("jitter must lie in [0, 1/(2 rate)) to keep samples ordered")
        object.__setattr__(self, "seed", _integer(self.seed, "sampling seed", least=0))
        if self._count() < 1:
            raise ValueError(f"rate {self.rate} over horizon {self.horizon} gives no samples")

    def _count(self) -> int:
        count = np.floor(self.rate * self.horizon + 1e-9)
        # the largest intp, as a float, is the first count that does not convert
        if not count < float(np.iinfo(np.intp).max):
            raise ValueError(f"rate {self.rate} over horizon {self.horizon} gives {float(count)!r} "
                             "samples; a sample count must be finite and fit an index")
        return int(count)

    def _step_bound(self, stability_limit: Optional[float]) -> float:
        """An upper bound on the RK4 steps of all intervals of :meth:`sample_times`, undrawn.

        A drawn time is ``max(i / rate + eta, 0)`` with ``|eta| <= jitter``, so
        an interval spans at most ``1 / rate + 2 jitter``, and :func:`_interval_steps`
        gives it at most ``span / limit + 1`` steps.  The drawn times are each
        within an ulp of their exact value, ``horizon + 1 / rate`` at most, and
        their difference rounds once more: 8 ulps of that covers the span's
        rounding.  The relative 1e-9 covers this bound's own few roundings, each
        within 2**-53.
        """
        span = 1.0 / self.rate + 2.0 * self.jitter + 8.0 * math.ulp(self.horizon + 1.0 / self.rate)
        return self._count() * (span / _step_limit(stability_limit) + 1.0) * (1.0 + 1e-9)

    def _check_steps(self, stability_limit: Optional[float]) -> None:
        """Raise ``ValueError`` unless the samples and their RK4 steps are within ``_MAX_STEPS``.

        The times are drawn only when :meth:`_step_bound`, which needs no
        draw, cannot prove the cap.
        """
        count, what = self._count(), "samples"
        if count <= _MAX_STEPS and self._step_bound(stability_limit) > _MAX_STEPS:
            _, n_subs, _ = _interval_steps(self.sample_times(), stability_limit)
            count, what = n_subs.sum(dtype=np.float64), "integration steps"  # a float sum cannot wrap
        if count > _MAX_STEPS:
            raise ValueError(f"rate {self.rate} over horizon {self.horizon} gives {count:.6g} "
                             f"{what}, more than the {_MAX_STEPS:.0e} a config may ask for")

    def sample_times(self) -> np.ndarray:
        count = self._count()
        base = np.arange(count) / self.rate
        if self.jitter == 0.0:
            return base
        rng = np.random.default_rng(self.seed)
        eta = rng.uniform(-self.jitter, self.jitter, size=count)
        return np.maximum(base + eta, 0.0)


# The most integration steps one integrate call takes, and the most samples and steps a config
# may ask for: some 300 times the 3.2e5 steps of the bundled config at horizon 160.
_MAX_STEPS = 10**8

# Padded stage rows a batch of intervals may hold (see _batches); it bounds
# the batch arrays, so memory stays flat as the horizon grows.
_BATCH_ROWS = 4096


def _batches(n_subs: list[int]):
    """Split the intervals into runs ``(start, stop)`` of at most ``_BATCH_ROWS`` padded rows.

    An interval of ``n`` sub-steps takes ``2 n + 2`` rows; a run of ``k``
    intervals whose longest has ``n`` sub-steps takes ``k (2 n + 2)`` in
    the padded table of :func:`_stage_times`.  An interval longer than the
    bound is a run of its own.
    """
    start, width = 0, 0
    for i, n in enumerate(n_subs):
        width = max(width, 2 * n + 2)
        if i > start and (i + 1 - start) * width > _BATCH_ROWS:
            yield start, i
            start, width = i, 2 * n + 2
    if start < len(n_subs):
        yield start, len(n_subs)


def _stage_times(starts, dts, n_subs, tks) -> np.ndarray:
    """The times at which a run of intervals needs its input, interval after interval.

    Interval ``i`` takes ``n_subs[i]`` RK4 steps of length ``dts[i]`` from
    ``starts[i]``.  Its times are the step starts and midpoints in turn
    (the last start ends the final step), then the sample time ``tks[i]``;
    with no steps only ``tks[i]`` is left.  Each interval is one row of a
    padded table whose starts are summed one step at a time along the row,
    so each time is the float a step-by-step RK4 loop would use.
    """
    k, width = len(starts), int(n_subs.max()) + 1
    steps = np.where(np.arange(1, width) <= n_subs[:, None], dts[:, None], 0.0)
    step_starts = np.cumsum(np.column_stack([starts, steps]), axis=1)
    table = np.empty((k, 2 * width))
    table[:, 0::2] = step_starts
    table[:, 1:-1:2] = step_starts[:, :-1] + (0.5 * dts)[:, None]
    last = 2 * n_subs + 1
    table[np.arange(k), last] = tks
    col = np.arange(2 * width)
    # an interval without steps keeps only its sample time
    used = (col >= (n_subs == 0)[:, None]) & (col <= last[:, None])
    return table[used]


def _rk4_advance(model: SystemModel):
    """Generic path: classical RK4 steps, ``advance(x, dt, E)``.

    ``E`` is one interval's slice of its batch's effective inputs: those
    at the interval's step starts and midpoints in turn (the order of
    :func:`_stage_times`), without the one at its sample time.  The step
    map an interval hands it is its step length ``dt``.
    """

    def advance(x, dt, E):
        for i in range(0, E.shape[0] - 1, 2):
            k1 = _velocity(model, x, E[i])
            k2 = _velocity(model, x + 0.5 * dt * k1, E[i + 1])
            k3 = _velocity(model, x + 0.5 * dt * k2, E[i + 1])
            k4 = _velocity(model, x + dt * k3, E[i + 2])
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return x

    return advance


def _affine_steps(R: np.ndarray, forcing, x: np.ndarray) -> np.ndarray:
    """``x = R @ x + f`` for each float row ``f`` of the sequence ``forcing``, in place in ``x``.

    Each step is one dense BLAS mat-vec on ``R``.  The products go to one
    scratch buffer, so the loop allocates nothing; ``R.dot`` and ``np.add``
    are bound once and given their outputs by position, which skips NumPy's
    per-call dispatch.  ``forcing`` may be a list of row views made in
    advance, which spares the loop a new view per step.  The floats are
    those of ``R @ x + f``.
    """
    y = np.empty_like(x)
    dot, add = R.dot, np.add
    for f in forcing:
        dot(x, y)
        add(y, f, x)
    return x


def _support(powers: tuple) -> np.ndarray:
    """The flat indices of the entries where any of ``powers`` is nonzero (NaN and inf count)."""
    return np.flatnonzero(np.logical_or.reduce([p.reshape(-1) != 0 for p in powers]))


def _step_maps(dts: np.ndarray, band: tuple, inputs: tuple, entries: np.ndarray,
               term: np.ndarray):
    """``R``'s band entries and ``P0``, ``Ph``, ``P1`` for each step length of ``dts``, in one pass.

    ``band`` holds ``I, A, ..., A^4`` on ``R``'s band and ``inputs`` holds
    ``B, 4 B, A B, A^2 B, A^3 B`` on the forced rows.  The scalars of each
    interval are Python floats, as a loop over the intervals forms them,
    and each entry is that loop's elementwise expression in the same order,
    broadcast over the intervals, so it has that loop's bits.  The band
    entries go to the first rows of ``entries``, with ``term`` as scratch.
    Returns one ``(band entries, P0, Ph, P1)`` per interval.
    """
    d1, d2, d3, d4, sixth, d3q, d2x = np.array(
        [(dt, dt**2 / 2.0, dt**3 / 6.0, dt**4 / 24.0, dt / 6.0, dt**3 / 4.0, 2.0 * dt)
         for dt in dts.tolist()]).T[:, :, None]
    I_s, A_s, A2_s, A3_s, A4_s = band
    entries, term = entries[:dts.shape[0]], term[:dts.shape[0]]
    np.add(I_s, np.multiply(d1, A_s, out=entries), out=entries)
    for d, power in ((d2, A2_s), (d3, A3_s), (d4, A4_s)):
        np.add(entries, np.multiply(d, power, out=term), out=entries)
    B, B4, AB, A2B, A3B = inputs
    d1, d2, sixth, d3q, d2x = (c[:, :, None] for c in (d1, d2, sixth, d3q, d2x))
    P0 = sixth * (B + d1 * AB + d2 * A2B + d3q * A3B)
    Ph = sixth * (B4 + d2x * AB + d2 * A2B)
    P1 = sixth * B
    return zip(entries, P0, Ph, P1)


# Floats of step maps that one _step_maps pass forms at most: it takes as
# many intervals at once as fit (at least one; 12 of the bundled heat model,
# each 890 band entries and 66 entries of P), so its arrays stay under 0.2 MB
# and do not grow with the intervals of a batch, a dense A or a dense B.
_MAP_ENTRIES = 12_288


def _linear_rk4_advance(model: SystemModel):
    """Linear path: the exact step map of RK4 on ``x' = A x + B e(t)``.

    With ``H = dt A`` one RK4 step is ``x+ = R x + P0 e(t) + Ph e(t + dt/2)
    + P1 e(t + dt)``, where ``R = I + H + H^2/2 + H^3/6 + H^4/24``,
    ``P0 = dt/6 (I + H + H^2/2 + H^3/4) B``, ``Ph = dt/6 (4I + 2H + H^2/2) B``
    and ``P1 = dt/6 B``.  The powers of ``A`` are formed once per model
    (``SystemModel._rk4_powers``); ``R`` and the ``P`` are scalar-weighted
    sums of them, so no matrix product runs inside the step loop.

    Returns ``(maps, advance)``.  ``maps(dts)`` yields the step map of each
    step length of a batch: they are formed for many intervals at once
    (:func:`_step_maps`, up to ``_MAP_ENTRIES`` floats of them), and each is
    valid until the next is drawn.  ``advance(x, step_map, E)`` takes one
    interval's steps; ``E`` is its slice of the batch's effective inputs,
    as for :func:`_rk4_advance`.

    ``R`` is summed only on the support of ``I, A, ..., A^4``
    (:func:`_support`), found once per advance, and written into one dense
    ``R`` that stays zero elsewhere: there every term is ``±0`` and the
    identity's is ``+0``, so for ``dt >= 0`` ``R`` is the dense sum bit for
    bit.  Each sub-step is one dense BLAS mat-vec on it
    (:func:`_affine_steps`), over row views of one forcing table that are
    made when the table is allocated and see every write to it.  The table
    is full width, but its three products run only on the rows where an
    entry of ``B, AB, A^2 B, A^3 B`` is other than ``+0`` and on one
    unreached row.  Every unreached row's ``P`` are ``+0``, so the product
    gives each of them what it gives that row: ``±0`` by the signs of the
    inputs, NaN where an input is not finite.  The table holds ``+0`` there
    and takes that row's value only where it is not ``+0``.
    """
    A, B = model.a_matrix, model.b_matrix
    A2, A3, A4, AB, A2B, A3B = model._rk4_powers
    n = A.shape[0]
    powers = (np.eye(n), A, A2, A3, A4)
    support = _support(powers)
    band = tuple(p.take(support) for p in powers)
    # the rows where an entry of B, AB, A^2 B or A^3 B has a bit set (-0 and NaN count)
    reached = np.logical_or.reduce([(p.view(np.uint64) != 0).any(axis=1)
                                    for p in (B, AB, A2B, A3B)])
    rows, rest = np.flatnonzero(reached), np.flatnonzero(~reached)
    # at least two columns where the full product has them, so NumPy hands
    # each product to the same kind of BLAS call
    forced = np.concatenate([rows, rest[:max(1, 2 - rows.size)]])
    inputs = tuple(p[forced] for p in (B, 4.0 * B, AB, A2B, A3B))
    chunk = max(1, _MAP_ENTRIES // (support.size + 3 * inputs[0].size))
    entries, term = np.empty((chunk, support.size)), np.empty((chunk, support.size))
    R = np.zeros(A.shape)
    R_flat = R.reshape(-1)
    table = np.zeros((0, n))
    table_rows: list = []  # a view of each row of the table
    dirty = False  # whether an unreached column of the table may hold other than +0

    def maps(dts):
        for start in range(0, dts.shape[0], chunk):
            yield from _step_maps(dts[start:start + chunk], band, inputs, entries, term)

    def advance(x, step_map, E):
        nonlocal table, table_rows, dirty
        band_entries, P0, Ph, P1 = step_map
        R_flat[support] = band_entries
        product = E[0:-1:2] @ P0.T
        product += E[1::2] @ Ph.T
        product += E[2::2] @ P1.T
        k = product.shape[0]
        if k > table.shape[0]:
            table, dirty = np.zeros((k, n)), False
            table_rows = list(table)
        forcing = table[:k]
        forcing[:, rows] = product[:, :rows.size]
        if rest.size:
            unreached = product[:, rows.size]
            if unreached.tobytes().count(0) < unreached.nbytes:  # a byte of some entry is set
                forcing[:, rest] = unreached[:, None]
                dirty = True
            elif dirty:
                table[:, rest] = 0.0
                dirty = False
        return _affine_steps(R, table_rows[:k], x)

    return maps, advance


def _commands(input_signal, times: np.ndarray, dim_input: int) -> np.ndarray:
    """The signal's ``(k, m)`` command rows at the ``k`` times, as a C-ordered float array."""
    U = np.ascontiguousarray(_frozen(input_signal(times), "input signal"))
    expected = (times.shape[0], dim_input)
    if U.shape != expected:
        raise ValueError(f"input signal returned shape {U.shape} for {times.shape[0]} "
                         f"times; expected {expected}")
    return U


def _checked_times(times) -> np.ndarray:
    """The sample times as a float array; ``ValueError`` at the first bad one.

    A time is bad when it is not finite, negative, or earlier than the one
    before it (equal times are an empty interval).
    """
    times = _frozen(times, "sample times")
    previous = np.concatenate([[0.0], times[:-1]])
    bad = np.flatnonzero(~np.isfinite(times) | (times < previous))
    if bad.size:
        i = int(bad[0])
        t = float(times[i])
        if not math.isfinite(t):
            why = "is not finite"
        elif t < 0.0:
            why = "is negative"
        else:
            why = f"is earlier than sample time {float(times[i - 1])!r} at index {i - 1}"
        raise ValueError(f"sample time {t!r} at index {i} {why}")
    return times


def _step_limit(stability_limit: Optional[float]) -> float:
    """The longest RK4 step: 1 ms, or the stability limit if that is shorter."""
    return min(1e-3, stability_limit) if stability_limit else 1e-3


def _interval_steps(times: np.ndarray, stability_limit: Optional[float]):
    """The RK4 steps of each sampling interval, as ``(starts, n_subs, dts)``.

    Interval ``i`` runs from ``starts[i]`` (0 for the first) to ``times[i]``
    in ``n_subs[i]`` steps of ``dts[i]`` s, each at most 1 ms and at most
    ``stability_limit``.  A step count that is not finite or does not fit
    an index raises ``ValueError`` naming the interval.
    """
    limit = _step_limit(stability_limit)
    starts = np.concatenate([[0.0], times[:-1]])
    spans = times - starts
    with np.errstate(over="ignore"):
        counts = np.ceil(spans / limit - 1e-12)
    # the largest intp, as a float, is the first count that does not convert
    bad = np.flatnonzero(~(counts < float(np.iinfo(np.intp).max)))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"sampling interval {i} ({float(starts[i])!r} to {float(times[i])!r} s) "
                         f"needs {float(counts[i])!r} steps of at most {float(limit)!r} s; a step "
                         "count must be finite and fit an index")
    n_subs = counts.astype(np.intp)
    dts = np.where(n_subs > 0, spans / np.maximum(n_subs, 1), 0.0)
    return starts, n_subs, dts


def integrate(model: SystemModel, cdm, x0, input_signal,
              schedule: SamplingSchedule) -> list[ControlSample]:
    """Simulate the degraded system and emit jittered observations.

    ``cdm`` (or None for no degradation) maps a ``(k, m)`` array of
    commands row-wise.  ``input_signal`` maps a 1-D array of ``k`` times to
    the ``(k, m)`` array of the commands at those times.  Fixed-step
    fourth-order integration; the step never exceeds 1 ms or the model's
    stability limit.  The sampling intervals are taken in batches of whole
    intervals, each within a private bound on stage rows unless one
    interval alone exceeds it.  Each batch makes one signal call and one
    ``cdm`` call, on the RK4 stage times and sample times of all its
    intervals, so a signal may receive times spanning several intervals.
    Linear models (``a_matrix``/``b_matrix`` set) advance by the
    precomputed RK4 step map; others by generic RK4 steps.  Both give the
    classical RK4 solution.  Observed velocities are the exact right-hand
    side at the sampled state.  Sample times that are not finite, negative
    or decreasing raise ``ValueError``, and so does an interval whose step
    count is not finite (a tiny stability limit, see :func:`_interval_steps`)
    and a schedule that needs more than ``_MAX_STEPS`` steps in all, before
    any stage table is allocated.
    Deterministic for a fixed schedule seed.
    """
    # maps(dts) gives the step map of each interval of a batch, for advance
    if model.a_matrix is None:
        maps, advance = np.asarray, _rk4_advance(model)  # a generic step map is the step length
    else:
        maps, advance = _linear_rk4_advance(model)

    times = _checked_times(schedule.sample_times())
    x = _frozen(x0, "initial state").copy()
    if x.shape[0] != model.dim_state:
        raise ValueError("initial state dimension mismatch")
    starts, n_subs, dts = _interval_steps(times, model.stability_limit)
    total = n_subs.sum(dtype=np.float64)  # a float sum cannot wrap
    if total > _MAX_STEPS:
        raise ValueError(f"{times.shape[0]} sample times need {total:.6g} integration steps, "
                         f"more than the {_MAX_STEPS:.0e} one integrate call may take")
    n_list = n_subs.tolist()
    samples = []
    for a, b in _batches(n_list):
        U = _commands(input_signal, _stage_times(starts[a:b], dts[a:b], n_subs[a:b], times[a:b]),
                      model.dim_input)
        E = _effective_inputs(cdm, U)
        end = 0
        for n_sub, step_map, tk in zip(n_list[a:b], maps(dts[a:b]), times[a:b]):
            begin, end = end, end + (2 * n_sub + 2 if n_sub else 1)
            if n_sub:
                x = advance(x, step_map, E[begin:end - 1])
            samples.append(ControlSample(time=float(tk), state=x,
                                         velocity=_velocity(model, x, E[end - 1]),
                                         input=U[end - 1]))
    return samples
