"""The per-interval simulation loop that batched ``integrate`` replaced, kept as a reference.

It makes one ``stage_times``, one signal call and one ``cdm`` call per
sampling interval.  Linear models advance by its own dense step map
(:func:`dense_linear_advance`), other models by the package's generic RK4
path, so ``integrate`` must reproduce it bit for bit.
"""

import numpy as np

from cdmkit.simulation import (
    ControlSample,
    _BATCH_ROWS,
    _commands,
    _effective_inputs,
    _rk4_advance,
    _velocity,
)


def dense_linear_advance(model):
    """The RK4 step map with ``R`` summed over every entry and ``np.dot``/``np.add`` steps."""
    A, B = model.a_matrix, model.b_matrix
    A2, A3, A4, AB, A2B, A3B = model._rk4_powers
    eye = np.eye(A.shape[0])

    def advance(x, dt, E):
        R = eye + dt * A + dt**2 / 2.0 * A2 + dt**3 / 6.0 * A3 + dt**4 / 24.0 * A4
        P0 = dt / 6.0 * (B + dt * AB + dt**2 / 2.0 * A2B + dt**3 / 4.0 * A3B)
        Ph = dt / 6.0 * (4.0 * B + 2.0 * dt * AB + dt**2 / 2.0 * A2B)
        P1 = dt / 6.0 * B
        forcing = E[0:-1:2] @ P0.T + E[1::2] @ Ph.T + E[2::2] @ P1.T
        y = np.empty_like(x)
        for f in forcing:
            np.dot(R, x, out=y)
            np.add(y, f, out=x)
        return x

    return advance


def stage_times(t, dt, n_sub: int, tk):
    """RK4 stage times of one interval: starts and midpoints in turn, then ``tk``."""
    if n_sub == 0:
        return np.array([tk])
    starts = np.cumsum(np.concatenate([[t], np.full(n_sub, dt)]))
    times = np.empty(2 * n_sub + 2)
    times[0:-1:2] = starts
    times[1:-1:2] = starts[:-1] + 0.5 * dt
    times[-1] = tk
    return times


def intervals(model, schedule):
    """``(t, dt, n_sub, tk)`` of each sampling interval."""
    limit = min(1e-3, model.stability_limit) if model.stability_limit else 1e-3
    t = 0.0
    for tk in schedule.sample_times():
        span = tk - t
        n_sub = int(np.ceil(span / limit - 1e-12))
        dt = span / n_sub if n_sub > 0 else 0.0
        yield t, dt, n_sub, tk
        t = tk


def integrate_per_interval(model, cdm, x0, input_signal, schedule):
    """``integrate`` as one signal and one ``cdm`` call per sampling interval."""
    advance = _rk4_advance(model) if model.a_matrix is None else dense_linear_advance(model)
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    samples = []
    for t, dt, n_sub, tk in intervals(model, schedule):
        U = _commands(input_signal, stage_times(t, dt, n_sub, tk), model.dim_input)
        E = _effective_inputs(cdm, U)
        if n_sub > 0:
            x = advance(x, dt, E[:-1])
        samples.append(ControlSample(time=float(tk), state=x.copy(),
                                     velocity=_velocity(model, x, E[-1]), input=U[-1].copy()))
    return samples


def assert_samples_identical(got, want):
    """Equal times and bit-identical states, velocities and inputs."""
    assert [s.time for s in got] == [s.time for s in want]
    for field in ("state", "velocity", "input"):
        a = np.array([getattr(s, field) for s in got])
        b = np.array([getattr(s, field) for s in want])
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64), err_msg=field)


def assert_batched_calls(calls, model, schedule):
    """``calls``, the time arrays a signal received, are batches of whole intervals.

    Each batch holds at most ``_BATCH_ROWS`` times unless it is a single
    interval, and together they are the per-interval stage times element
    for element.
    """
    per_interval = [stage_times(*iv) for iv in intervals(model, schedule)]
    sizes = [len(t) for t in per_interval]
    ends = np.cumsum(sizes).tolist()
    cuts = np.cumsum([len(c) for c in calls]).tolist()
    assert all(len(c) for c in calls)
    assert set(cuts) <= set(ends) and cuts[-1] == ends[-1]
    for lo, hi in zip([0, *cuts], cuts):
        assert hi - lo <= _BATCH_ROWS or hi - lo == sizes[ends.index(hi)]
    np.testing.assert_array_equal(np.concatenate(calls).view(np.uint64),
                                  np.concatenate(per_interval).view(np.uint64))
