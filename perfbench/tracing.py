"""Spans around cdmkit's public functions, installed from outside the package.

``Tracer.installed()`` replaces each traced function, in every ``cdmkit``
module that binds it, by a wrapper that records a span ``(name, start, end,
parent)``.  Spans stay in memory; ``Tracer.dump`` writes them out when the
run ends.  A function that no longer exists is listed in ``Tracer.absent``
so that its metrics are reported as absent instead of failing the run.
``wrapper_costs`` measures what one wrapped call costs, from which the
tracing overhead of a pass is estimated.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import sys
import time
from collections import defaultdict

perf = time.perf_counter

# span name -> (module, public function)
FUNCTIONS = {
    "experiment.parse_config": ("cdmkit.experiment", "parse_config"),
    "experiment.run_experiment": ("cdmkit.experiment", "run_experiment"),
    "experiment.separation_check": ("cdmkit.experiment", "validate_ground_truth_separation"),
    "identification.recover": ("cdmkit.identification", "recover_effective_input"),
    "identification.build": ("cdmkit.identification", "build_reconstruction_from_pairs"),
    "identification.batch_build": ("cdmkit.identification", "build_reconstruction"),
    "identification.split": ("cdmkit.identification", "split_pairs"),
    "identification.cluster": ("cdmkit.identification", "cluster_pairs"),
    "identification.fit": ("cdmkit.identification", "fit_affine"),
    "identification.query": ("cdmkit.identification", "query"),
    "identification.viabilize": ("cdmkit.identification", "viabilize"),
    "identification.error_bound": ("cdmkit.identification", "lipschitz_error_bound"),
    "geometry.inner_bound": ("cdmkit.geometry", "mgf_inner_bound"),
    "geometry.outer_bound": ("cdmkit.geometry", "mgf_outer_bound"),
    "serialization.write_samples": ("cdmkit.serialization", "write_samples"),
    "serialization.write_reconstruction": ("cdmkit.serialization", "write_reconstruction"),
    "serialization.read_reconstruction": ("cdmkit.serialization", "read_reconstruction"),
}
INTEGRATE = ("cdmkit.simulation", "integrate")
STREAM = ("cdmkit.experiment", "stream_reconstructions")
STAR_BUILD = ("cdmkit.geometry", "StarSetApprox", "from_points")


class _TimedCdm:
    """Degradation map proxy that counts and times every application."""

    def __init__(self, cdm, counts):
        self._cdm = cdm
        self._counts = counts

    def __call__(self, u):
        t0 = perf()
        try:
            return self._cdm(u)
        finally:
            self._counts["degradation.cdm_s"] += perf() - t0
            self._counts["degradation.cdm_calls"] += 1

    def __getattr__(self, name):
        return getattr(self._cdm, name)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or None); None while open
        self.counts = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _open(self) -> tuple[int, object]:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, name, parent, start, keep=True):
        self._stack.pop()
        if keep:
            self.spans[idx] = (name, start, perf(), parent)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent = self._open()
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, name, parent, start)

        return traced

    def _wrap_stream(self, fn):
        """Generator wrapper: one ``experiment.stream_step`` span per yielded step."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            steps = fn(*args, **kwargs)
            while True:
                idx, parent = self._open()
                start = perf()
                try:
                    item = next(steps)
                except StopIteration:
                    self._close(idx, None, parent, start, keep=False)
                    return
                except BaseException:
                    self._close(idx, "experiment.stream_step", parent, start)
                    raise
                self._close(idx, "experiment.stream_step", parent, start)
                yield item

        return traced

    def count_drift(self, drift):
        counts = self.counts

        def counted(x):
            counts["simulation.drift_calls"] += 1
            return drift(x)

        return counted

    def _wrap_integrate(self, fn):
        """Integrate with a counting ``model.drift`` and a timed degradation map."""
        inner = self.wrap("simulation.integrate", fn)
        counts = self.counts

        @functools.wraps(fn)
        def traced(model, cdm, *args, **kwargs):
            if dataclasses.is_dataclass(model) and callable(getattr(model, "drift", None)):
                counts.setdefault("simulation.drift_calls", 0)
                model = dataclasses.replace(model, drift=self.count_drift(model.drift))
            if cdm is not None:
                counts.setdefault("degradation.cdm_calls", 0)
                counts.setdefault("degradation.cdm_s", 0.0)
                cdm = _TimedCdm(cdm, counts)
            return inner(model, cdm, *args, **kwargs)

        return traced

    # -- installation ------------------------------------------------------

    def _rebind(self, original, replacement):
        """Point every cdmkit module binding of ``original`` at ``replacement``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "cdmkit" and not mod_name.startswith("cdmkit."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def _install(self, name, module, attr, make_wrapper):
        original = getattr(sys.modules.get(module), attr, None)
        if not callable(original):
            self.absent.append(name)
            return
        self._rebind(original, make_wrapper(original))

    @contextlib.contextmanager
    def installed(self):
        for name, (module, attr) in FUNCTIONS.items():
            self._install(name, module, attr, functools.partial(self.wrap, name))
        self._install("simulation.integrate", *INTEGRATE, self._wrap_integrate)
        self._install("experiment.stream_step", *STREAM, self._wrap_stream)
        module, cls_name, attr = STAR_BUILD
        cls = getattr(sys.modules.get(module), cls_name, None)
        raw = vars(cls).get(attr) if isinstance(cls, type) else None
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap("geometry.star_build", raw.__func__)))
            self._undo.append((cls, attr, raw))
        else:
            self.absent.append("geometry.star_build")
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._undo):
                setattr(owner, attr, original)
            self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def spans_within(self, idx) -> int:
        """Closed spans that lie inside span ``idx``, counting it too."""
        _, start, end, _ = self.spans[idx]
        return sum(1 for _, s in self.closed() if start <= s[1] and s[2] <= end)

    def closed(self):
        """(index, span) for every recorded span."""
        return [(i, s) for i, s in enumerate(self.spans) if s is not None]

    def durations(self, name, parent_name=None) -> list[float]:
        """Durations of spans called ``name``, optionally only under ``parent_name``."""
        out = []
        for _, (n, start, end, parent) in self.closed():
            if n != name:
                continue
            if parent_name is not None:
                if parent is None or self.spans[parent] is None or self.spans[parent][0] != parent_name:
                    continue
            out.append(end - start)
        return out

    def self_times(self) -> dict[int, float]:
        """Span duration minus the durations of its direct child spans."""
        own = {i: end - start for i, (_, start, end, _) in self.closed()}
        for i, (_, start, end, parent) in self.closed():
            if parent is not None and parent in own:
                own[parent] -= end - start
        return own

    def child_sums(self, root_name, child_name) -> dict[int, float]:
        """For each ``root_name`` span index, the summed duration of its ``child_name`` descendants."""
        roots = {i: 0.0 for i, s in self.closed() if s[0] == root_name}
        for _, (n, start, end, parent) in self.closed():
            if n != child_name:
                continue
            while parent is not None and parent not in roots:
                parent = self.spans[parent][3] if self.spans[parent] is not None else None
            if parent is not None:
                roots[parent] += end - start
        return roots

    def dump(self, path, extra=None) -> None:
        spans = [
            {"id": i, "name": n, "start": start, "end": end, "parent": parent}
            for i, (n, start, end, parent) in self.closed()
        ]
        with open(path, "w") as fh:
            json.dump({"spans": spans, "counts": dict(self.counts),
                       "absent": self.absent, **(extra or {})}, fh)


def _noop(x):
    return x


def wrapper_costs(calls: int = 20000, repeats: int = 9) -> dict[str, list[float]]:
    """Seconds each kind of wrapper adds to one call, measured ``repeats`` times.

    Each repeat times ``calls`` calls of a no-op, bare and then wrapped: by a
    span (``span``), by the ``model.drift`` counter (``drift``) and by the
    degradation-map proxy (``cdm``).  The tracing overhead of a pass is its
    number of wrapped calls of each kind times the median cost.
    """
    costs = {"span": [], "drift": [], "cdm": []}
    for _ in range(repeats):
        tracer = Tracer()
        wrapped = {"span": tracer.wrap("calibration", _noop),
                   "drift": tracer.count_drift(_noop),
                   "cdm": _TimedCdm(_noop, tracer.counts)}
        for kind, fn in wrapped.items():
            t0 = perf()
            for _ in range(calls):
                _noop(0.0)
            t1 = perf()
            for _ in range(calls):
                fn(0.0)
            t2 = perf()
            costs[kind].append(((t2 - t1) - (t1 - t0)) / calls)
    return costs
