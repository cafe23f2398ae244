"""In-memory span tracer that times the package's layers from outside.

The benchmark never edits the program: a :class:`Tracer` replaces a fixed
list of public functions and methods with thin wrappers that record one span
per call (name, start, end, parent) and a few exact counts, and puts every
original back in :meth:`Tracer.restore`.  Some functions are imported by name
into the modules that call them (``solve`` into ``repro.circuit.routing``,
the rounding functions into ``repro.circuit.algorithm``), so a function is
replaced in every loaded ``repro`` module that holds it, not only where it
is defined.

Spans stay in memory; :meth:`Tracer.write_chrome_trace` writes them once, as
Chrome trace-event JSON (opens in Perfetto), using the standard library only.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layer span name -> per-layer self-time metric
LAYER_METRICS = {
    "lp.solve": "lp.solve_s",
    "lp.build": "lp.build_s",
    "circuit.round": "circuit.round_s",
    "baselines.plan": "baselines.plan_s",
    "baselines.route": "baselines.route_s",
    "baselines.order": "baselines.order_s",
    "sim.run": "sim.run_s",
    "sim.stream": "sim.stream_s",
    "workloads.generate": "workloads.generate_s",
    "analysis.engine": "analysis.engine_s",
    "analysis.store_put": "analysis.store_put_s",
    "analysis.report": "analysis.report_s",
}

#: exact counts the wrappers record (see ``_count_*`` below)
COUNT_METRICS = (
    "lp.solve_calls",
    "lp.iterations",
    "lp.rows",
    "lp.cols",
    "lp.nnz",
    "analysis.store_records",
)


class TracerTargetMissing(RuntimeError):
    """A layer boundary the tracer wraps is gone from the package.

    Raised rather than skipped: a skipped boundary would read 0 and its time
    would land, unnoticed, in the self time of whichever span encloses it.
    """


class Span:
    """One timed call: ``parent`` is the index of the enclosing span or -1."""

    __slots__ = ("name", "start", "end", "parent", "child_ns")

    def __init__(self, name: str, start: int, parent: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_ns = 0

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.child_ns


def _count_solve(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    lp = args[0] if args else kwargs["lp"]
    tracer.counts["lp.solve_calls"] += 1
    tracer.counts["lp.iterations"] += int(getattr(result, "iterations", 0) or 0)
    if lp.num_variables == 0:
        return
    # ``solve`` already assembled the matrices; this reads the model's cache.
    a_ub, _b_ub, a_eq, _b_eq = lp.matrices()
    matrices = [m for m in (a_ub, a_eq) if m is not None]
    tracer.counts["lp.rows"] += sum(int(m.shape[0]) for m in matrices)
    tracer.counts["lp.cols"] += int(lp.num_variables)
    tracer.counts["lp.nnz"] += sum(int(m.nnz) for m in matrices)


def _count_put(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["analysis.store_records"] += 1


class Tracer:
    """Span recorder plus the wrap/restore bookkeeping.

    Single-threaded by design: the benchmark runs the serial engine, so the
    open-span stack is one list.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter({name: 0 for name in COUNT_METRICS})
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording
    def call(
        self,
        name: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        after: Optional[Callable] = None,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = Span(name, time.perf_counter_ns(), parent)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].child_ns += span.duration_ns
        if after is not None:
            after(self, args, kwargs, result)
        return result

    # -------------------------------------------------------------- patching
    def _wrapper(self, name: str, original: Callable, after: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return tracer.call(name, original, args, kwargs, after)

        return traced

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap_method(
        self, cls: type, attr: str, name: str, after: Optional[Callable] = None
    ) -> None:
        """Trace ``cls.attr`` (a plain method defined on ``cls`` itself)."""
        if attr not in cls.__dict__:
            raise TracerTargetMissing(f"{cls.__module__}.{cls.__qualname__}.{attr}")
        self._patch(cls, attr, self._wrapper(name, cls.__dict__[attr], after))

    def wrap_function(
        self, module: Any, attr: str, name: str, after: Optional[Callable] = None
    ) -> None:
        """Trace ``module.attr`` in every loaded ``repro`` module holding it."""
        if attr not in vars(module):
            raise TracerTargetMissing(f"{module.__name__}.{attr}")
        original = vars(module)[attr]
        wrapper = self._wrapper(name, original, after)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def install(self) -> "Tracer":
        """Wrap every layer boundary the benchmark reports on.

        A target the package no longer has raises
        :class:`TracerTargetMissing`, which fails the traced run.
        """
        import repro.analysis as analysis
        import repro.circuit.algorithm as algorithm
        import repro.lp.solver as solver
        from repro.analysis.runstore import RunStore
        from repro.baselines.pipeline import PipelineScheme
        from repro.baselines.stages import ORDERERS, ROUTERS
        from repro.circuit.given_paths import GivenPathsLP
        from repro.circuit.routing import RoutingLP, RoutingRelaxation
        from repro.sim.simulator import FlowLevelSimulator
        from repro.sim.streaming import StreamingScheduler
        from repro.workloads.generator import CoflowGenerator

        self.wrap_function(solver, "solve", "lp.solve", _count_solve)
        self.wrap_method(RoutingLP, "build", "lp.build")
        self.wrap_method(GivenPathsLP, "build", "lp.build")
        self.wrap_method(RoutingRelaxation, "decompositions", "circuit.round")
        self.wrap_function(algorithm, "thickest_paths", "circuit.round")
        self.wrap_function(algorithm, "round_paths", "circuit.round")
        self.wrap_method(PipelineScheme, "plan", "baselines.plan")
        for router in ROUTERS.values():
            self.wrap_method(router, "route", "baselines.route")
        for orderer in ORDERERS.values():
            self.wrap_method(orderer, "order", "baselines.order")
        self.wrap_method(FlowLevelSimulator, "run", "sim.run")
        for attr in ("submit", "advance", "finish"):
            self.wrap_method(StreamingScheduler, attr, "sim.stream")
        self.wrap_method(CoflowGenerator, "instance", "workloads.generate")
        self.wrap_method(RunStore, "put", "analysis.store_put", _count_put)
        self.wrap_function(analysis, "export_artifacts", "analysis.report")
        self.wrap_function(analysis, "run_spec", "analysis.engine")
        return self

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --------------------------------------------------------------- reports
    def layer_seconds(self) -> Dict[str, float]:
        """Self time per layer metric, in seconds (0.0 for unvisited layers)."""
        totals = {metric: 0 for metric in LAYER_METRICS.values()}
        for span in self.spans:
            totals[LAYER_METRICS[span.name]] += span.self_ns
        return {metric: ns / 1e9 for metric, ns in totals.items()}

    def visited(self) -> List[str]:
        """Names of the layer spans entered at least once, sorted."""
        return sorted({span.name for span in self.spans})

    def covered_seconds(self, start_ns: int, end_ns: int) -> float:
        """Time in ``[start_ns, end_ns]`` spent inside a layer's own work.

        That is the time under top-level spans minus the self time of
        ``run_spec``: it is the sweeps' outermost span, so without the
        subtraction time that slipped out of every inner layer (an LP
        solved without ``solve``, say) would still count as covered.
        """
        covered = 0
        for span in self.spans:
            if span.parent == -1:
                covered += max(0, min(span.end, end_ns) - max(span.start, start_ns))
            if span.name == "analysis.engine":
                covered -= span.self_ns
        return covered / 1e9

    def write_chrome_trace(self, path: Path) -> None:
        """Write complete ('X') trace events, microsecond timestamps."""
        origin = self.spans[0].start if self.spans else 0
        events = [
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start - origin) / 1000.0,
                "dur": span.duration_ns / 1000.0,
                "pid": 1,
                "tid": 1,
                "args": {"parent": span.parent, "self_us": span.self_ns / 1000.0},
            }
            for span in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
