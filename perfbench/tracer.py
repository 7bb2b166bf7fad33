"""In-memory span tracer for the traced benchmark run.

The benchmark's traced run wraps public functions and methods of the
program with ``setattr`` and records one span per call: layer name,
start, end, parent span, op id and thread. Spans stay in memory and are
written out when the run ends. A layer's self time is its spans'
duration minus the part of each span that its child spans cover.

Spans on a thread with no open span (the daemon's dispatcher thread)
take the driver's current chunk span as their parent, so every span of
a chunk hangs off that chunk's root; the root's self time is the time no
wrapped layer accounts for.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Layer name of the per-chunk root span (its self time is unattributed).
ROOT = "chunk"


def layer_targets() -> List[Tuple[str, object, str]]:
    """``(layer, holder, attribute)`` for every wrapped entry point.

    ``holder`` is a class (method or classmethod) or a module (function);
    a module function is rebound in every loaded module that imported it
    by name, since callers look it up there.
    """
    from repro import reduction
    from repro.campaigns import runner
    from repro.linalg import gram_schmidt
    from repro.linalg.reduction_service import ReductionService
    from repro.service import batch
    from repro.service.daemon import ReductionDaemon
    from repro.vectorized.backends.numpy_backend import NumpyKernels
    from repro.vectorized.base import VectorizedEngine
    from repro.vectorized.batched import (
        BatchedEngine,
        BatchedErrorHistory,
        BatchedMassProbe,
    )
    from repro.vectorized.engines import (
        VectorPushCancelFlow,
        VectorPushFlow,
        VectorPushSum,
    )
    from repro.vectorized.hardened import VectorPushCancelFlowHardened
    from repro.vectorized.topology_arrays import TopologyArrays

    kernel = "vectorized.backends.kernel."
    return [
        ("service.admission", ReductionDaemon, "submit"),
        ("service.batch", batch, "execute_group"),
        ("vectorized.batched.build", BatchedEngine, "__init__"),
        ("vectorized.batched.step", BatchedEngine, "step"),
        ("vectorized.batched.stop", BatchedEngine, "estimates"),
        ("topology.arrays", TopologyArrays, "from_topology"),
        (kernel + "push_sum", NumpyKernels, "push_sum_round"),
        (kernel + "push_flow", NumpyKernels, "push_flow_round"),
        (kernel + "pcf", NumpyKernels, "pcf_round"),
        (kernel + "pcf_hardened", NumpyKernels, "pcf_hardened_round"),
        ("vectorized.engine_init", VectorPushSum, "__init__"),
        ("vectorized.engine_init", VectorPushFlow, "__init__"),
        ("vectorized.engine_init", VectorPushCancelFlow, "__init__"),
        ("vectorized.engine_init", VectorPushCancelFlowHardened, "__init__"),
        ("vectorized.single.step", VectorizedEngine, "step"),
        ("reduction", reduction, "run_reduction"),
        ("linalg.service", ReductionService, "all_reduce_sum"),
        ("linalg.dmgs", gram_schmidt, "dmgs"),
        ("campaigns.runner", runner, "run_campaign"),
        ("campaigns.observers", BatchedErrorHistory, "on_round_end"),
        ("campaigns.observers", BatchedMassProbe, "on_round_end"),
    ]


class Tracer:
    """Records spans of wrapped calls while installed."""

    def __init__(self) -> None:
        #: ``[layer, start, end, parent span or None, op id, thread id]``
        self.spans: List[list] = []
        self.op = -1
        self._root: Optional[list] = None
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_root(self) -> None:
        self._root = [ROOT, time.perf_counter(), 0.0, None, self.op,
                      threading.get_ident()]
        self.spans.append(self._root)

    def end_root(self) -> None:
        self._root[2] = time.perf_counter()
        self._root = None

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = [layer, 0.0, 0.0, stack[-1] if stack else tracer._root,
                    tracer.op, threading.get_ident()]
            tracer.spans.append(span)
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        for layer, holder, attr in layer_targets():
            if isinstance(holder, type):
                raw = holder.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(layer, raw.__func__))
                else:
                    wrapped = self._wrap(layer, raw)
                self._patches.append((holder, attr, raw))
                setattr(holder, attr, wrapped)
                continue
            original = getattr(holder, attr)
            wrapped = self._wrap(layer, original)
            for module in list(sys.modules.values()):
                if getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Self time per layer, summed over every recorded span."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[id(span[3])].append((span[1], span[2]))
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            start, end = span[1], span[2]
            covered = 0.0
            reach = start
            # Children of one thread nest without overlap; children from
            # other threads may overlap them, so take the union.
            for c_start, c_end in sorted(children.get(id(span), ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            totals[span[0]] += (end - start) - covered
        return dict(totals)

    def write(self, path) -> None:
        """Write the spans as JSON (parents as indices into the list)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            [s[0], s[1], s[2], -1 if s[3] is None else index[id(s[3])], s[4], s[5]]
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"fields": ["layer", "start", "end", "parent", "op", "thread"],
                       "spans": rows}, fh)
