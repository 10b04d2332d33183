"""Span tracing around calls into each layer's public functions.

The program itself carries no instrumentation: :class:`Tracer` replaces the
public functions and methods listed in :data:`FUNCTION_LAYERS` and
:data:`METHOD_LAYERS` with wrappers that record a span (name, start, end,
parent, thread) and restores the originals on :meth:`Tracer.uninstall`.
Module functions are replaced in every ``repro.*`` module that imported
them by name, so call sites that bound the function at import time are
traced too.  Spans stay in memory and are written once, at the end, as
Chrome trace-event JSON.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter_ns

#: Module function -> span name.
FUNCTION_LAYERS = {
    ("repro.api", "compile"): "api.compile",
    ("repro.circuits.library.registry", "get_benchmark"): "circuits.build",
    ("repro.circuits.random", "generate"): "circuits.build",
    ("repro.serve.daemon", "build_circuit"): "circuits.build",
    ("repro.circuits.qasm", "loads"): "circuits.qasm_parse",
    ("repro.circuits.scheduling", "preprocess"): "circuits.preprocess",
    ("repro.core.placement.initial", "sa_placement"): "core.placement.sa",
    ("repro.core.placement.gate_placement", "place_gates"): "core.placement.gate_placement",
    ("repro.core.placement.storage_placement", "place_returning_qubits"): "core.placement.storage_placement",
    ("repro.core.placement.reuse", "find_reuse_matching"): "core.placement.reuse",
    ("repro.core.routing.jobs", "build_jobs"): "core.routing.build_jobs",
    ("repro.zair.interpret", "interpret_program"): "zair.interpret",
    ("repro.zair.validation", "validate_program"): "zair.validate",
}

#: (module, class, method) -> span name.
METHOD_LAYERS = {
    ("repro.core.placement.dynamic", "DynamicPlacer", "run"): "core.placement.dynamic",
    ("repro.core.scheduling.scheduler", "Scheduler", "run"): "core.scheduling.run",
    ("repro.baselines.monolithic.enola", "EnolaCompiler", "compile"): "baselines.enola",
    ("repro.baselines.monolithic.atomique", "AtomiqueCompiler", "compile"): "baselines.atomique",
    ("repro.baselines.zoned.nalac", "NALACCompiler", "compile"): "baselines.nalac",
    ("repro.baselines.superconducting.transpiler", "SuperconductingCompiler", "compile"): "baselines.sc",
    ("repro.baselines.ideal", "IdealBound", "compile"): "baselines.ideal",
    ("repro.api.parallel", "CompileService", "compile_batch"): "api.compile_batch",
    ("repro.api.parallel", "CompileService", "cache_key"): "api.cache_key",
    ("repro.serve.diskcache", "DiskCompileCache", "get"): "serve.diskcache_get",
    ("repro.serve.diskcache", "DiskCompileCache", "put"): "serve.diskcache_put",
    ("repro.serve.daemon", "ServeDaemon", "handle"): "serve.handle",
}

_CURRENT: contextvars.ContextVar[int] = contextvars.ContextVar("perfbench_span", default=-1)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        #: One list per span: [name, start_ns, end_ns, parent, thread_id].
        self.spans: list[list] = []
        #: Work counts recorded at the same boundaries as the spans.
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def open(self, name: str, parent: int | None = None, start: int | None = None) -> int:
        record = [
            name,
            perf_counter_ns() if start is None else start,
            0,
            _CURRENT.get() if parent is None else parent,
            threading.get_ident(),
        ]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span named ``name`` around the ``with`` body."""
        index = self.open(name)
        token = _CURRENT.set(index)
        try:
            yield index
        finally:
            self.close(index)
            _CURRENT.reset(token)

    def _nested_in_same(self, name: str) -> bool:
        parent = _CURRENT.get()
        return parent >= 0 and self.spans[parent][0] == name

    def wrap(self, name: str, fn, on_call=None):
        tracer = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                index = tracer.open(name)
                token = _CURRENT.set(index)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.close(index)
                    _CURRENT.reset(token)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._nested_in_same(name):
                return fn(*args, **kwargs)
            index = tracer.open(name)
            token = _CURRENT.set(index)
            try:
                if on_call is None:
                    return fn(*args, **kwargs)
                return on_call(fn, args, kwargs)
            finally:
                tracer.close(index)
                _CURRENT.reset(token)

        return traced

    # -- work counts at layer boundaries ---------------------------------------

    def _count_sa(self, fn, args, kwargs):
        inner = kwargs.get("on_result")

        def on_result(result):
            self.counts["sa.iterations"] += result.iterations
            if inner is not None:
                inner(result)

        kwargs["on_result"] = on_result
        return fn(*args, **kwargs)

    def _count_preprocess(self, fn, args, kwargs):
        staged = fn(*args, **kwargs)
        self.counts["stages"] += staged.num_rydberg_stages
        self.counts["stage_gates"] += staged.num_2q_gates
        return staged

    def _count_dynamic(self, fn, args, kwargs):
        self.counts["dynamic.stages"] += len(args[1] if len(args) > 1 else kwargs["stage_pairs"])
        return fn(*args, **kwargs)

    def _count_jobs(self, fn, args, kwargs):
        jobs = fn(*args, **kwargs)
        self.counts["jobs"] += len(jobs)
        return jobs

    def _count_instructions(self, fn, args, kwargs):
        program = args[0] if args else kwargs["program"]
        self.counts["instructions"] += len(program.instructions)
        return fn(*args, **kwargs)

    def _traced_thunk(self, thunk):
        """Wrap a daemon compile thunk: queue wait until it runs, then its run."""
        parent, created = _CURRENT.get(), perf_counter_ns()

        def traced_thunk():
            self.close(self.open("serve.queue_wait", parent=parent, start=created))
            index = self.open("serve.compile", parent=parent)
            token = _CURRENT.set(index)
            try:
                return thunk()
            finally:
                self.close(index)
                _CURRENT.reset(token)

        return traced_thunk

    def _with_pass_hooks(self, pipeline):
        """Open a span in each ZAC pass's pre hook and close it in the post hook."""
        open_spans: list[tuple[int, contextvars.Token]] = []

        def pre(pass_obj, _ctx):
            index = self.open(f"core.pipeline.{pass_obj.name}")
            open_spans.append((index, _CURRENT.set(index)))

        def post(_pass_obj, _ctx):
            index, token = open_spans.pop()
            self.close(index)
            _CURRENT.reset(token)

        return pipeline.add_pre_hook(pre).add_post_hook(post)

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "core.placement.sa": self._count_sa,
            "circuits.preprocess": self._count_preprocess,
            "core.placement.dynamic": self._count_dynamic,
            "core.routing.build_jobs": self._count_jobs,
            "zair.interpret": self._count_instructions,
        }
        for (module_name, attr), name in FUNCTION_LAYERS.items():
            original = getattr(importlib.import_module(module_name), attr)
            self._replace_everywhere(original, self.wrap(name, original, hooks.get(name)))
        for (module_name, cls_name, attr), name in METHOD_LAYERS.items():
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            self._set(cls, attr, self.wrap(name, original, hooks.get(name)))
        default_pipeline = importlib.import_module("repro.core.pipeline").default_pipeline
        self._replace_everywhere(
            default_pipeline,
            functools.wraps(default_pipeline)(
                lambda *a, **k: self._with_pass_hooks(default_pipeline(*a, **k))
            ),
        )
        daemon = importlib.import_module("repro.serve.daemon").ServeDaemon
        compile_thunk = daemon.__dict__["_compile_thunk"]
        self._set(
            daemon,
            "_compile_thunk",
            functools.wraps(compile_thunk)(
                lambda *a, **k: self._traced_thunk(compile_thunk(*a, **k))
            ),
        )

    def _set(self, owner, attr: str, value) -> None:
        # A class keeps its own attribute (not an inherited or bound one).
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, replacement) -> None:
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Total self time (ns) and call count per span name."""
        child_time: dict[int, int] = defaultdict(int)
        for _name, begin, end, parent, _tid in self.spans:
            if parent >= 0:
                child_time[parent] += end - begin
        totals: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for index, (name, begin, end, _parent, _tid) in enumerate(self.spans):
            totals[name] += end - begin - child_time[index]
            calls[name] += 1
        return totals, calls

    def coverage(self, begin: int, end: int, start: int = 0) -> float:
        """Share of ``[begin, end]`` covered by root spans on any thread."""
        intervals = sorted(
            (max(b, begin), min(e, end))
            for _name, b, e, parent, _tid in self.spans[start:]
            if parent < 0 and e > begin and b < end
        )
        covered, reach = 0, begin
        for b, e in intervals:
            if e > reach:
                covered += e - max(b, reach)
                reach = e
        return covered / (end - begin) if end > begin else 0.0

    def write_chrome_trace(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0
        events = [
            {
                "name": name,
                "cat": name.rsplit(".", 1)[0],
                "ph": "X",
                "ts": (begin - origin) / 1000.0,
                "dur": (end - begin) / 1000.0,
                "pid": 0,
                "tid": tid,
                "args": {"id": index, "parent": parent},
            }
            for index, (name, begin, end, parent, tid) in enumerate(self.spans)
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)

