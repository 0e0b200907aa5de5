"""Per-layer spans recorded from outside the simulator.

During a traced run the benchmark swaps a timing wrapper in for each
public function named in :data:`LAYERS`, at class (or module) level and
before any kernel is built, so bound methods captured at construction
(resume hooks, the eevdf ``charge`` hook, the wheel's ``pop_next``)
resolve to the wrappers too.  :func:`uninstall` puts every original
back; :func:`installed` lists any wrapper still present, and the
benchmark refuses to start a timed iteration while that list is
non-empty.

Each wrapped call is a span.  Self time is the span's duration minus
the part of it its child spans cover.  Wrapped calls nest strictly (a
call stack), so the live accumulator subtracts each child's duration
from its parent; :func:`self_times` does the same arithmetic from a
list of recorded spans with overlapping children merged, and the
self-test holds the two equal on nested and back-to-back children.

Hot layers are called millions of times per run, so only the coarse
spans in :data:`KEPT` are stored whole (name, start, end, parent, run
id); every span, kept or not, is folded into per-name counters.
"""

import importlib
import sys
import time
import types

#: (span name, module, class or None for a module function, attributes).
#: A name may cover several callables; an attribute a class does not
#: define itself (``RunQueue`` has no ``charge``) is skipped.
LAYERS = [
    ("sim.scheduler.pick_for_core", "repro.sim.scheduler",
     ("RunQueue", "EevdfRunQueue"), ("pick_for_core",)),
    ("sim.scheduler.push", "repro.sim.scheduler",
     ("RunQueue", "EevdfRunQueue"), ("push",)),
    ("sim.scheduler.push_front", "repro.sim.scheduler",
     ("RunQueue", "EevdfRunQueue"), ("push_front",)),
    ("sim.scheduler.charge", "repro.sim.scheduler",
     ("RunQueue", "EevdfRunQueue"), ("charge",)),
    ("sim.timerwheel.insert", "repro.sim.timerwheel", ("TimerWheel",),
     ("insert",)),
    ("sim.timerwheel.pop_next", "repro.sim.timerwheel", ("TimerWheel",),
     ("pop_next",)),
    ("sim.timer.cancel", "repro.sim.kernel", ("_Timer",), ("cancel",)),
    ("sim.futex.wake", "repro.sim.kernel", ("Kernel",), ("futex_wake",)),
    ("sim.futex.add", "repro.sim.futex", ("WaitQueueTable",), ("add",)),
    ("sim.kernel.run", "repro.sim.kernel", ("Kernel",), ("run",)),
    ("sim.kernel.spawn", "repro.sim.kernel", ("Kernel",), ("spawn",)),
    ("core.penalty_armer.arm", "repro.sim.kernel", ("PenaltyArmer",),
     ("arm",)),
    ("core.runtime.update_pbox", "repro.core.runtime", ("PBoxRuntime",),
     ("update_pbox",)),
    ("core.runtime.activate_pbox", "repro.core.runtime", ("PBoxRuntime",),
     ("activate_pbox",)),
    ("core.runtime.freeze_pbox", "repro.core.runtime", ("PBoxRuntime",),
     ("freeze_pbox",)),
    ("core.runtime.bind_pbox", "repro.core.runtime", ("PBoxRuntime",),
     ("bind_pbox",)),
    ("core.runtime.unbind_pbox", "repro.core.runtime", ("PBoxRuntime",),
     ("unbind_pbox",)),
    ("core.manager.update", "repro.core.manager", ("PBoxManager",),
     ("update",)),
    ("core.manager.activate", "repro.core.manager", ("PBoxManager",),
     ("activate",)),
    ("core.manager.freeze", "repro.core.manager", ("PBoxManager",),
     ("freeze",)),
    ("core.manager.take_action", "repro.core.manager", ("PBoxManager",),
     ("take_action",)),
    ("core.manager.scan", "repro.core.manager", ("PBoxManager",),
     ("scan",)),
    ("core.manager.resume_hook", "repro.core.manager", ("PBoxManager",),
     ("_resume_hook",)),
    # The sharded facade: every routed entry point, so its self time is
    # the routing cost with the shards' own work subtracted.
    ("core.shards", "repro.core.shards", ("ShardedPBoxManager",),
     ("_resume_hook", "create", "release", "activate", "freeze", "bind",
      "unbind", "get", "update", "contended", "scan", "inject_penalty",
      "is_task_deferred", "shard")),
    ("core.penalty.decide", "repro.core.penalty",
     ("AdaptivePenalty", "FixedPenalty"), ("decide",)),
    ("obs.tracepoint", "repro.obs.tracepoints", ("Tracepoint",), ("fire",)),
    # Off-bus telemetry feed and end-of-run flush; bus handlers of every
    # subscriber are wrapped as they subscribe (see SUBSCRIBERS).
    ("obs.telemetry", "repro.obs.telemetry", ("TelemetryPipeline",),
     ("record_request", "finalize")),
    ("obs.fold", "repro.obs.critpath", ("CritPathTracer",),
     ("to_json_dict",)),
    ("obs.fold", "repro.obs.attribution", ("AttributionProfiler",),
     ("to_dict",)),
    ("obs.fold", "repro.obs.telemetry", ("TelemetryPipeline",),
     ("snapshot", "to_json_dict")),
    ("runner.execute_spec", "repro.runner.runner", None, ("execute_spec",)),
    ("workloads.generate_trace", "repro.workloads.traces", None,
     ("generate_trace",)),
]

#: Subscriber classes whose bus handlers are timed under ``obs.<label>``:
#: while ``attach`` runs, every function it subscribes is wrapped.
SUBSCRIBERS = [
    ("obs.telemetry", "repro.obs.telemetry", "TelemetryPipeline"),
    ("obs.critpath", "repro.obs.critpath", "CritPathTracer"),
    ("obs.breach", "repro.obs.telemetry", "BreachExplainer"),
    ("obs.attribution", "repro.obs.attribution", "AttributionProfiler"),
    ("obs.spans", "repro.obs.spans", "SpanRecorder"),
]

#: Spans stored whole; all others only feed the per-name counters.
KEPT = frozenset({
    "bench.iteration", "runner.execute_spec", "cases.build", "scale.build",
    "sim.kernel.run", "workloads.generate_trace", "obs.fold",
})

#: Span names that start a new run id (one job, or one workload run).
RUN_ROOTS = frozenset({"bench.iteration", "runner.execute_spec"})

#: Spans whose integer return values are summed (threads woken).
RETURN_SUMS = frozenset({"sim.futex.wake"})


class Tracer:
    """Span stack plus per-name counters.

    Each counter is ``[calls, total_ns, self_ns, returned]``, where
    ``returned`` sums the return values of the spans in
    :data:`RETURN_SUMS`.

    ``keep`` is the set of names stored whole (``None`` keeps every
    span, which only the self-test does).  ``clock`` returns integer
    nanoseconds.
    """

    def __init__(self, keep=KEPT, clock=time.perf_counter_ns):
        self.keep = keep
        self.clock = clock
        self.counters = {}
        self.spans = []      # [name, start_ns, end_ns, parent index, run id]
        self.failed = {}     # span name -> calls that raised
        self._stack = []     # open frames: [child_ns]
        self._kept_open = []
        self._run_id = 0

    def counter(self, name):
        entry = self.counters.get(name)
        if entry is None:
            entry = self.counters[name] = [0, 0, 0, 0]
        return entry

    def reset(self):
        """Clear every counter and span (the wrappers stay bound)."""
        for entry in self.counters.values():
            entry[0] = entry[1] = entry[2] = entry[3] = 0
        self.spans.clear()
        self.failed.clear()

    def _run(self, name, entry, kept, fn, args, kwargs):
        index = -1
        if kept:
            if name in RUN_ROOTS:
                self._run_id += 1
            parent = self._kept_open[-1] if self._kept_open else -1
            index = len(self.spans)
            self.spans.append([name, 0, 0, parent, self._run_id])
            self._kept_open.append(index)
        stack = self._stack
        frame = [0]
        stack.append(frame)
        clock = self.clock
        start = clock()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.failed[name] = self.failed.get(name, 0) + 1
            raise
        finally:
            end = clock()
            elapsed = end - start
            stack.pop()
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - frame[0]
            if stack:
                stack[-1][0] += elapsed
            if kept:
                span = self.spans[index]
                span[1] = start
                span[2] = end
                self._kept_open.pop()

    def _kept(self, name):
        return self.keep is None or name in self.keep

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` from the benchmark as one span."""
        return self._run(name, self.counter(name), self._kept(name), fn,
                         args, kwargs)

    def wrap(self, name, fn):
        """A function that runs ``fn`` as a span called ``name``."""
        run = self._run
        entry = self.counter(name)
        kept = self._kept(name)

        if name in RETURN_SUMS:
            def wrapper(*args, **kwargs):
                result = run(name, entry, kept, fn, args, kwargs)
                entry[3] += result
                return result
        else:
            def wrapper(*args, **kwargs):
                return run(name, entry, kept, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper._simbench_span = name
        return wrapper


def self_times(spans):
    """``{name: self_ns}`` from ``[name, start, end, parent, run]`` spans.

    A span's self time is its duration minus the union of its direct
    children's intervals (clipped to the span), so overlapping or
    back-to-back children are never subtracted twice.
    """
    children = {}
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(index)
    totals = {}
    for index, (name, start, end, _parent, _run) in enumerate(spans):
        covered = 0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2])
                             for c in children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[name] = totals.get(name, 0) + (end - start) - covered
    return totals


# ----------------------------------------------------------------------
# Installing and removing the wrappers
# ----------------------------------------------------------------------

#: (owner object, attribute, original value) for everything swapped in.
_PATCHES = []


def _patch(owner, attr, value):
    _PATCHES.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, value)


def _patch_module_function(tracer, name, module, attr):
    """Wrap a module function everywhere it was imported by name."""
    original = getattr(module, attr)
    wrapper = tracer.wrap(name, original)
    for loaded in list(sys.modules.values()):
        if loaded is not None and loaded.__dict__.get(attr) is original:
            _patch(loaded, attr, wrapper)


def install(tracer, case_classes=()):
    """Swap every layer wrapper in; returns ``tracer`` for chaining."""
    if _PATCHES:
        raise RuntimeError("layer wrappers are already installed")
    for name, module_name, classes, attrs in LAYERS:
        module = importlib.import_module(module_name)
        for attr in attrs:
            if classes is None:
                _patch_module_function(tracer, name, module, attr)
                continue
            for class_name in classes:
                cls = getattr(module, class_name)
                original = cls.__dict__.get(attr)
                if original is None:
                    continue
                if not isinstance(original, types.FunctionType):
                    raise TypeError("%s.%s is not a plain method"
                                    % (class_name, attr))
                _patch(cls, attr, tracer.wrap(name, original))
    for cls in case_classes:
        if "build" in cls.__dict__:
            _patch(cls, "build", tracer.wrap("cases.build",
                                             cls.__dict__["build"]))
    _install_subscriber_hooks(tracer)
    return tracer


def _install_subscriber_hooks(tracer):
    from repro.obs.tracepoints import Tracepoint

    owners = []
    subscribe = Tracepoint.__dict__["subscribe"]

    def traced_subscribe(self, fn):
        if owners:
            fn = tracer.wrap(owners[-1], fn)
        return subscribe(self, fn)

    traced_subscribe._simbench_span = "obs.subscribe"
    _patch(Tracepoint, "subscribe", traced_subscribe)
    for label, module_name, class_name in SUBSCRIBERS:
        cls = getattr(importlib.import_module(module_name), class_name)
        attach = cls.__dict__["attach"]

        def owned_attach(self, *args, _attach=attach, _label=label,
                         **kwargs):
            owners.append(_label)
            try:
                return _attach(self, *args, **kwargs)
            finally:
                owners.pop()

        owned_attach._simbench_span = label
        _patch(cls, "attach", owned_attach)


def uninstall():
    """Restore every original, newest patch first."""
    while _PATCHES:
        owner, attr, original = _PATCHES.pop()
        setattr(owner, attr, original)


def installed(case_classes=()):
    """Every layer attribute that is not its original right now.

    Reads the patch log and also scans each owner for a value marked as
    a wrapper, so a wrapper that escaped the log is still reported.
    """
    from repro.obs.tracepoints import Tracepoint

    found = {"%s.%s" % (owner.__name__, attr)
             for owner, attr, _original in _PATCHES}
    owners = [(Tracepoint, ("subscribe",))]
    owners += [(cls, ("build",)) for cls in case_classes]
    for _name, module_name, class_name in SUBSCRIBERS:
        module = sys.modules.get(module_name)
        if module is not None:
            owners.append((getattr(module, class_name), ("attach",)))
    for _name, module_name, classes, attrs in LAYERS:
        module = sys.modules.get(module_name)
        if module is None:
            continue
        if classes is None:
            owners += [(loaded, attrs) for loaded in list(sys.modules.values())
                       if loaded is not None]
        else:
            owners += [(getattr(module, c), attrs) for c in classes]
    for owner, attrs in owners:
        for attr in attrs:
            if hasattr(owner.__dict__.get(attr), "_simbench_span"):
                found.add("%s.%s" % (owner.__name__, attr))
    return sorted(found)
