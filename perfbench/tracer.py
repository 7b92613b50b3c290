"""In-memory span tracing around the program's public layer functions.

The benchmark never edits the program: :func:`instrument` replaces the
binding each caller looks up (a module global such as
``repro.sim.simulator.execute_trace``, or a class attribute such as
``SetAssociativeCache.run_budget_rows``) with a wrapper that records one
span per call.  Spans live in memory as ``[name, start, end, parent,
cell, nested]`` rows and are written once, at the end, as Chrome
trace-event JSON (open it in Perfetto or ``chrome://tracing``).

The serial engine runs every layer on one thread, so a plain stack
gives each span its parent.  A span's self time is its duration minus
the durations of its direct children (children of one span never
overlap on one thread).
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path
from typing import Callable

#: Span name -> (per-layer count metric or None, busy metric or None).
#: Counts and busy time take outermost spans only, so a scheduler whose
#: ``prepare`` calls its parent's ``prepare`` is counted once.
SPAN_METRICS = {
    "cache.budget": ("cache.budget_calls", "cache.budget_busy_s"),
    "sim.trace.rows": (None, "sim.trace.rows_busy_s"),
    "cache.execute": ("cache.executes", "cache.execute_busy_s"),
    "cache.analyze": ("cache.analyses", "cache.analyze_busy_s"),
    "cache.warm_adjust": ("cache.warm_adjusts", "cache.warm_adjust_busy_s"),
    "sim.qplan.compile": ("sim.qplan.compiles", "sim.qplan.compile_busy_s"),
    "sim.qplan.run": ("sim.qplan.quanta", "sim.qplan.run_busy_s"),
    "sim.contention": ("sim.contention.charges", "sim.contention.busy_s"),
    "sim.simulator": ("sim.simulator.runs", "sim.simulator.busy_s"),
    "workloads": ("workloads.builds", "workloads.busy_s"),
    "sharing": ("sharing.matrices", "sharing.busy_s"),
    "memory": (None, "memory.busy_s"),
    "sched": ("sched.prepares", None),
    "sim.trace.build": ("sim.trace.builds", "sim.trace.busy_s"),
    "campaign.executor": ("campaign.executor.cells", "campaign.executor.busy_s"),
    "api.engine": (None, None),
}

#: Span name -> self-time metric.
SELF_METRICS = {
    "sim.simulator": "sim.simulator.self_s",
    "sched": "sched.busy_s",
    "api.engine": "api.engine.self_s",
}


class SpanRecorder:
    """Spans of one traced run, kept in memory until :func:`write_chrome`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter[str] = Counter()
        self.cell: str | None = None
        self._stack: list[int] = []
        self._active: Counter[str] = Counter()

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        nested = self._active[name] > 0
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.cell, nested])
        self._stack.append(index)
        self._active[name] += 1
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._active[span[0]] -= 1

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_result: Callable[[object], None] | None = None,
        cell_of: Callable[[tuple], str] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``on_result`` sees each call's return value; ``cell_of`` names the
        cell that the call's spans, and those nested in it, belong to.
        """
        original = getattr(owner, attr)
        recorder = self

        def traced(*args: object, **kwargs: object) -> object:
            outer_cell = recorder.cell
            if cell_of is not None:
                recorder.cell = cell_of(args)
            index = recorder.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(index)
                recorder.cell = outer_cell
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, traced)

    # -- derived metrics -----------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Counts, busy and self times per layer, from the recorded spans."""
        metrics: dict[str, float] = {}
        for count_name, busy_name in SPAN_METRICS.values():
            for metric in (count_name, busy_name):
                if metric is not None:
                    metrics[metric] = 0
        for metric in SELF_METRICS.values():
            metrics[metric] = 0.0
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _cell, _nested in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        simulated_cells: set[int] = set()
        for index, (name, start, end, parent, _cell, nested) in enumerate(self.spans):
            duration = end - start
            count_name, busy_name = SPAN_METRICS[name]
            if not nested:
                if count_name is not None:
                    metrics[count_name] += 1
                if busy_name is not None:
                    metrics[busy_name] += duration
            if name in SELF_METRICS:
                metrics[SELF_METRICS[name]] += duration - child_time[index]
            if name == "sim.simulator":
                cell_span = self._ancestor(index, "campaign.executor")
                if cell_span is not None:
                    simulated_cells.add(cell_span)
        metrics["campaign.executor.memo_hits"] = (
            metrics["campaign.executor.cells"] - len(simulated_cells)
        )
        metrics["cache.budget_accesses"] = self.counters["cache.budget_accesses"]
        busy = metrics["cache.budget_busy_s"]
        metrics["cache.budget_maccess_per_s"] = (
            metrics["cache.budget_accesses"] / busy / 1e6 if busy else 0.0
        )
        return metrics

    def _ancestor(self, index: int, name: str) -> int | None:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return parent
            parent = self.spans[parent][3]
        return None

    def add(
        self, name: str, start: float, end: float, parent: int = -1,
        cell: str | None = None,
    ) -> int:
        """Record a span measured elsewhere (the serve client's phases)."""
        self.spans.append([name, start, end, parent, cell, False])
        return len(self.spans) - 1


def write_chrome(path: Path, recorders: list[SpanRecorder]) -> None:
    """Write every span as a Chrome trace-event ``X`` (complete) event.

    Each recorder becomes one thread row (``tid`` 1, 2, ...).
    """
    origin = min(
        (span[1] for recorder in recorders for span in recorder.spans),
        default=0.0,
    )
    events = [
        {
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "X",
            "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "pid": 1,
            "tid": thread,
            "args": {"span": index, "parent": parent, "cell": cell},
        }
        for thread, recorder in enumerate(recorders, start=1)
        for index, (name, start, end, parent, cell, _nested) in enumerate(
            recorder.spans
        )
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def instrument(recorder: SpanRecorder) -> None:
    """Wrap every layer's public function for the rest of this process."""
    import repro.api.engine as engine
    import repro.api.registries  # noqa: F401  (registers every scheduler)
    import repro.cache.memo as memo
    import repro.campaign.executor as executor
    import repro.sched.locality as locality
    import repro.sched.locality_mapping as locality_mapping
    import repro.sim.contention as contention
    import repro.sim.simulator as simulator
    from repro.cache.sa_cache import SetAssociativeCache
    from repro.sched.base import Scheduler
    from repro.sim.trace import ProcessTrace

    def count_accesses(result: object) -> None:
        # run_budget_rows returns (next_index, cycles_used, hits, misses).
        _next, _used, hits, misses = result  # type: ignore[misc]
        recorder.counters["cache.budget_accesses"] += hits + misses

    wrap = recorder.wrap
    wrap(SetAssociativeCache, "run_budget_rows", "cache.budget",
         on_result=count_accesses)
    wrap(ProcessTrace, "budget_rows", "sim.trace.rows")
    wrap(simulator, "execute_trace", "cache.execute")
    wrap(memo, "analyze_trace", "cache.analyze")
    wrap(memo, "warm_adjust", "cache.warm_adjust")
    wrap(simulator, "compile_quantum_plan", "sim.qplan.compile")
    wrap(simulator, "run_plan_quantum", "sim.qplan.run")
    for model in (contention.BusContention, contention.NocContention):
        wrap(model, "delay_cycles", "sim.contention")
    wrap(simulator.MPSoCSimulator, "run_plan", "sim.simulator")
    wrap(executor, "build_campaign_workload", "workloads")
    wrap(locality, "sharing_matrix_for", "sharing")
    wrap(locality_mapping, "sharing_matrix_for", "sharing")
    wrap(locality_mapping, "select_relayout", "memory")
    seen: set[type] = set()
    pending = list(Scheduler.__subclasses__())
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        if "prepare" in vars(cls):
            wrap(cls, "prepare", "sched")
    wrap(simulator, "build_trace", "sim.trace.build")
    wrap(executor, "execute_run", "campaign.executor",
         cell_of=lambda args: args[0].cell_key())
    wrap(engine.Engine, "run_campaign", "api.engine")
