"""Benchmark-side tracing: spans around calls into each layer.

:class:`Tracer` wraps public functions and methods of the program while it
is installed and records one span ``(layer, start, end)`` per outermost
call of each layer on each thread.  Nothing inside the program changes;
uninstalling restores every original.

The helpers at the bottom read the program's own per-job trace trees
(``Job.trace()`` and the service's ``GET /v1/jobs/{id}/trace``) to split a
job's wall time into queue wait, engine time and runtime self time.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple


class Span:
    __slots__ = ("layer", "start", "end")

    def __init__(self, layer: str, start: float) -> None:
        self.layer = layer
        self.start = start
        self.end: Optional[float] = None


class Tracer:
    """Record spans around calls into the program's layers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if any(span.layer == layer for span in stack):
                return fn(*args, **kwargs)  # nested call of the same layer
            span = Span(layer, time.perf_counter())
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)

        return traced

    # -- installing ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap_function(self, layer: str, module, name: str) -> None:
        """Wrap ``module.name`` and every module attribute bound to it."""
        original = getattr(module, name)
        traced = self._wrap(layer, original)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    self._patch(mod, attr, traced)

    def wrap_methods(self, layer: str, cls, names: Iterable[str]) -> None:
        """Wrap the named methods defined on ``cls``."""
        for name in names:
            self._patch(cls, name, self._wrap(layer, cls.__dict__[name]))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (in reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        install_layer_spans(self)
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- reading ---------------------------------------------------------

    def busy_s(self, layer: str) -> float:
        """Summed duration of the layer's outermost spans."""
        return sum(s.end - s.start for s in self.spans if s.layer == layer)

    def calls(self, layer: str) -> int:
        """Number of outermost calls into the layer."""
        return sum(1 for s in self.spans if s.layer == layer)


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public entry points of the layers the benchmark reports."""
    from repro.circuits import qasm
    from repro.core import filtering
    from repro.core.injector import AssertionInjector
    from repro.devices.device import DeviceModel
    from repro.noise.trajectories import TrajectorySimulator
    from repro.simulators.density_matrix import DensityMatrixSimulator
    from repro.simulators.stabilizer import StabilizerSimulator
    from repro.transpiler import passes

    injector_api = [
        name for name, value in vars(AssertionInjector).items()
        if callable(value) and not name.startswith("_")
    ]
    tracer.wrap_function("circuits.qasm", qasm, "circuit_to_qasm")
    tracer.wrap_function("core.filtering", filtering, "evaluate_assertions")
    tracer.wrap_function("transpiler", passes, "transpile_for_device")
    tracer.wrap_methods("core.injector", AssertionInjector, injector_api)
    tracer.wrap_methods("devices.noise_model", DeviceModel, ["noise_model"])
    tracer.wrap_methods("simulators.density_matrix", DensityMatrixSimulator, ["run"])
    tracer.wrap_methods("simulators.stabilizer", StabilizerSimulator, ["run"])
    tracer.wrap_methods("noise.trajectories", TrajectorySimulator, ["run"])


def probe_layers() -> None:
    """Call every traced layer once with tiny inputs.

    The traced run does this after its traced rounds, with the tracer
    on, so that each per-layer time is measured on every workload
    instead of reading a constant 0 where the workload skips a layer.
    The probe is the same on every workload, a small fixed offset.
    """
    from repro.circuits.library import ghz_state
    from repro.circuits.qasm import circuit_to_qasm
    from repro.core.filtering import evaluate_assertions
    from repro.core.injector import AssertionInjector
    from repro.devices.backend import (
        NoisyDeviceBackend,
        StabilizerBackend,
        TrajectoryDeviceBackend,
    )
    from repro.devices.ibmqx4 import ibmqx4

    injector = AssertionInjector(ghz_state(2))
    injector.assert_entangled([0, 1])
    injector.measure_program()
    circuit_to_qasm(injector.circuit)
    device = ibmqx4()
    for backend in (StabilizerBackend(), NoisyDeviceBackend(device, cache=False),
                    TrajectoryDeviceBackend(device, cache=False)):
        counts = backend.run(injector.circuit, shots=16, seed=1).counts
        evaluate_assertions(counts, injector.records)


# ----------------------------------------------------------------------
# Program trace trees
# ----------------------------------------------------------------------


def _chunks(node: dict) -> Iterable[dict]:
    for child in node.get("children", ()):
        if child["name"] == "chunk":
            yield child
        yield from _chunks(child)


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class TreeSplit:
    """One job's trace tree split into queue wait, engine and self time.

    Engine intervals are placed at the end of each chunk span: the worker
    reports only its duration (its clock shares no epoch with ours), and
    the chunk span closes when the result is back.  So the engine start
    is ``chunk end - worker wall``, and the queue wait is the time from
    the root's start to the first engine start.
    """

    __slots__ = ("wall_s", "queue_wait_s", "self_s", "chunks", "engine_s",
                 "process_engine_s")

    def __init__(self, tree: dict) -> None:
        intervals = []
        self.engine_s = 0.0
        self.process_engine_s: Dict[str, float] = {}
        for chunk in _chunks(tree):
            attrs = chunk["attrs"]
            worker = attrs.get("worker_wall_s")
            if worker is None or chunk["duration_s"] is None:
                continue
            end = chunk["start_s"] + chunk["duration_s"]
            intervals.append((end - worker, end))
            self.engine_s += worker
            if attrs.get("executor") == "process":
                engine = attrs.get("engine", "")
                self.process_engine_s[engine] = (
                    self.process_engine_s.get(engine, 0.0) + worker
                )
        self.chunks = len(intervals)
        self.wall_s = tree["duration_s"] or 0.0
        first = min((start for start, _ in intervals), default=self.wall_s)
        self.queue_wait_s = max(0.0, first - tree["start_s"])
        self.self_s = max(0.0, self.wall_s - _union_length(intervals))
