"""The benchmark's workloads.

Each workload is a closed loop with one client: :meth:`iterate` runs
one complete simulation job graph and returns only after it finishes.
Every iteration starts from ``reset_thread_ids()`` so repetitions of
one seed are bit-identical, and returns a fingerprint of its simulated
output that the benchmark compares across repetitions and between the
timed and the traced run.

Why these (each stresses layers the others leave idle):

- ``sweep``: the To/Ti/pBox job graph of ``repro sweep`` over c1-c20 on
  small 4-core kernels; the work is in ``core`` and the app models.
- ``scale-cfs-10k``: 10,000 threads on 1,250 cores under cfs, six
  families, manager on; kernel dispatch, timer wheel, batched futex
  wakes and the sharded manager at 1,000 pBoxes.
- ``scale-eevdf-1k``: the same scenario at 1,000 threads under eevdf,
  whose ``pick_for_core`` scans the run queue on every pick.
  ``scale-cfs-10k`` is its control, where pick changes predict nothing.
  It is not in BENCHMARK.json: a seed settles the scenario into one of
  two run-queue regimes, and the slow one takes about a third longer,
  so its time swings with the seed far beyond any bound the benchmark
  could hold.  ``sweep`` still exercises the eevdf pick through c20.
- ``observed-c5``: c5 under pBox with every subscriber ``repro why`` and
  ``repro profile`` attach, then their output folds; the only workload
  that exercises ``obs``.
"""

import hashlib
import json
import time

from repro.cases import Solution, get_case, run_case
from repro.cases.registry import ALL_CASES
from repro.runner.sweep import run_sweep
from repro.scale.scenario import (
    EXTENDED_APP_KINDS,
    ScaleSpec,
    build_scale_scenario,
)
from repro.sim.thread import reset_thread_ids

import stats

#: Simulated seconds per sweep job.  ``repro sweep`` defaults to 6 s; a
#: 6 s sweep takes ~42 s of host time, too long to repeat in one run.
SWEEP_DURATION_S = 3

#: The Table 3 cases the paper's 86.3% / 15-of-16 figures cover.
TABLE3_CASES = tuple("c%d" % i for i in range(1, 17))

#: Kernel event budget per scale point (``repro scale``'s default).
SCALE_EVENT_BUDGET = 120_000

#: Virtual-time slices of one ``Kernel.run``; the host-speed calibration
#: may sample between slices.  Stepping a kernel to successive horizons
#: processes the same events in the same order as one call (``repro
#: watch`` and the checkpoint supervisor step it the same way), and the
#: fingerprint check would catch any difference.
RUN_SLICES = 16

OBSERVED_CASE = "c5"
OBSERVED_DURATION_S = 6      # ``repro why`` / ``repro profile`` default
WHY_SLOWEST = 5              # ``repro why --slowest`` default


def timer_arms(kernel):
    """Timers armed so far, read without consuming ``kernel._seq``."""
    text = repr(kernel._seq)          # "count(N)"
    return int(text[text.index("(") + 1:-1])


def fingerprint(document):
    """sha256 of the canonical JSON form of ``document``."""
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


class Iteration:
    """What one closed-loop run of a workload measured and produced."""

    def __init__(self):
        self.setup_s = 0.0       # iteration start -> first simulated event
        self.wall_s = 0.0        # the whole iteration, less calibration
        self.run_s = 0.0         # host time inside Kernel.run
        self.events = 0          # timers armed during Kernel.run
        self.attempted = 1       # jobs (sweep) or runs (otherwise)
        self.failed = 0
        self.problems = []       # failed output checks, human-readable
        self.fingerprint = None
        self.deterministic = {}  # simulated-result metrics of this workload
        self.job_walls = []      # sweep only: host seconds per job
        self.layer_counts = {}   # counters read from the simulator
        self.tracer_counters = None  # traced runs: per-span counters
        self.spans = []          # traced runs: the spans kept whole
        self.calibration_s = None  # median host-speed loop time in it
        self.scale = 1.0         # calibrate.REFERENCE_S / calibration_s


class _TimedRun:
    """Drive ``Kernel.run`` in slices, sampling host speed between them,
    and account the host time and events inside ``Kernel.run``."""

    def __init__(self, speed):
        self.speed = speed
        self.first_start = None
        self.run_s = 0.0
        self.events = 0

    def run(self, kernel, until_us):
        before = timer_arms(kernel)
        begin_us = kernel.now_us
        if self.first_start is None:
            self.first_start = time.perf_counter()
        try:
            for step in range(1, RUN_SLICES + 1):
                self.speed.maybe_sample()
                start = time.perf_counter()
                kernel.run(until_us=begin_us + (until_us - begin_us) * step
                           // RUN_SLICES)
                self.run_s += time.perf_counter() - start
        finally:
            self.events += timer_arms(kernel) - before


class _JobMeter(_TimedRun):
    """Meter every sweep job: ``execute_spec`` looks ``run_case`` up in
    ``repro.cases`` per call, so swapping that one attribute lets the
    benchmark drive each job's ``Kernel.run`` (through ``run_case``'s
    documented ``driver`` hook, which replaces exactly that one call)
    and read its event count.  One extra call per job, none per event.
    """

    def __init__(self, speed):
        super().__init__(speed)
        self.raised = 0
        self.job_walls = []
        self.envs = []

    def __enter__(self):
        import repro.cases

        self._module = repro.cases
        self._original = repro.cases.run_case
        repro.cases.run_case = self._run_case
        return self

    def __exit__(self, *_exc):
        self._module.run_case = self._original

    def _drive(self, env):
        self.envs.append(env)
        self.run(env.kernel, env.duration_us)

    def _run_case(self, *args, **kwargs):
        start = time.perf_counter()
        spent = self.speed.spent_s
        try:
            return self._original(*args, driver=self._drive, **kwargs)
        except BaseException:
            self.raised += 1
            raise
        finally:
            self.job_walls.append(time.perf_counter() - start
                                  - (self.speed.spent_s - spent))


def _layer_counts(kernel, manager):
    """Counters the simulator keeps itself, for one kernel and manager."""
    budget = getattr(manager, "penalty_budget", None)
    return {
        "sim.kernel.context_switches": kernel.stats["context_switches"],
        "core.penalty_armer.armed": kernel.penalty_armer.stats["armed"],
        "core.penalty_armer.batched": kernel.penalty_armer.stats["batched"],
        "core.manager.scan_evaluated": manager.scan_stats["evaluated"],
        "core.manager.detections": manager.stats["detections"],
        "core.manager.penalties_applied":
        manager.stats["penalties_applied"],
        "core.budget.denied": budget.stats["denied"] if budget else 0,
    }


class Workload:
    """Base: ``name``, ``why``, :meth:`definition` and :meth:`iterate`."""

    name = None
    why = None

    def definition(self):
        """The parameters that fix this workload's inputs."""
        raise NotImplementedError

    def iterate(self, seed, speed, tracer=None):
        """Run one iteration, sampling host speed into ``speed``;
        ``tracer`` (traced runs only) times the calls made from here."""
        raise NotImplementedError


def _span(tracer, name, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.span(name, fn, *args, **kwargs)


class SweepWorkload(Workload):
    name = "sweep"
    why = ("To/Ti/pBox job graph of repro sweep over c1-c20: core and the "
           "app models on small kernels")

    def definition(self):
        return {"call": "repro.runner.run_sweep(jobs=1, use_cache=False)",
                "cases": sorted(ALL_CASES, key=lambda c: int(c[1:])),
                "solutions": ["pbox"], "duration_s": SWEEP_DURATION_S}

    def iterate(self, seed, speed, tracer=None):
        it = Iteration()
        start = time.perf_counter()
        with _JobMeter(speed) as meter:
            result = run_sweep(seeds=(seed,), duration_s=SWEEP_DURATION_S,
                               jobs=1, use_cache=False)
        it.wall_s = time.perf_counter() - start - speed.spent_s
        it.setup_s = meter.first_start - start
        it.run_s, it.events = meter.run_s, meter.events
        it.job_walls = meter.job_walls
        for env in meter.envs:
            counts = _layer_counts(env.kernel, env.runtime.manager)
            for name, value in counts.items():
                it.layer_counts[name] = it.layer_counts.get(name, 0) + value
        legs = []
        ratios = {}
        for (case_id, _seed), ev in sorted(result.evaluations.items()):
            runs = [("to", ev.baseline), ("ti", ev.interference)]
            runs += [(s.value, r) for s, r in ev.solution_runs.items()]
            for leg, job in runs:
                legs.append((case_id, leg, job.raw))
                if job.raw["victim_samples"] <= 0:
                    it.problems.append("%s %s: no victim samples"
                                       % (case_id, leg))
            ratios[case_id] = stats.reduction_ratio(
                ev.ti_us, ev.ts_us(Solution.PBOX), ev.to_us)
        it.attempted = result.stats["total"]
        it.failed = meter.raised + sum(1 for _c, _l, raw in legs
                                       if raw["victim_samples"] <= 0)
        it.fingerprint = fingerprint(legs)
        table3 = [ratios[c] for c in TABLE3_CASES if c in ratios]
        pct, mitigated = stats.mitigation(table3)
        it.deterministic = {"mitigation_pct": pct,
                            "cases_mitigated": mitigated}
        return it


class ScaleWorkload(Workload):
    """One ``repro scale`` point: manager on, six families."""

    def __init__(self, name, threads, sched, why):
        self.name = name
        self.threads = threads
        self.sched = sched
        self.why = why

    def spec(self, seed):
        return ScaleSpec(self.threads, seed=seed, manager_enabled=True,
                         event_budget=SCALE_EVENT_BUDGET, sched=self.sched,
                         families=EXTENDED_APP_KINDS)

    def definition(self):
        spec = self.spec(1)
        return {"call": "build_scale_scenario(ScaleSpec(...)), then "
                        "Kernel.run to the spec's horizon",
                "threads": spec.threads, "tenants": spec.tenants,
                "cores": spec.cores, "sched": spec.sched,
                "families": list(spec.families),
                "event_budget": SCALE_EVENT_BUDGET,
                "duration_virtual_us": spec.duration_us, "manager": "on"}

    def iterate(self, seed, speed, tracer=None):
        it = Iteration()
        reset_thread_ids()
        start = time.perf_counter()
        spec = self.spec(seed)
        scenario = _span(tracer, "scale.build", build_scale_scenario, spec)
        timed = _TimedRun(speed)
        timed.run(scenario.kernel, spec.duration_us)
        it.wall_s = time.perf_counter() - start - speed.spent_s
        it.setup_s = timed.first_start - start
        it.run_s, it.events = timed.run_s, timed.events
        manager = scenario.manager
        by_family = scenario.requests_by_family()
        idle = [f for f in spec.families if by_family.get(f, 0) <= 0]
        if idle:
            it.failed = 1
            it.problems.append("families without completed requests: %s"
                               % idle)
        it.fingerprint = fingerprint({
            "events": timer_arms(scenario.kernel), "run_events": it.events,
            "requests": scenario.total_requests(),
            "family_requests": by_family,
            "manager": manager.stats, "scan": manager.scan_stats,
            "shards": manager.shard_count})
        it.layer_counts = _layer_counts(scenario.kernel, manager)
        it.deterministic = {"sim_goodput_rps": scenario.total_requests()
                            / (spec.duration_us / 1e6)}
        return it


class ObservedWorkload(Workload):
    name = "observed-c5"
    why = ("c5 under pBox with every repro why/profile subscriber and their "
           "output folds: the only workload that runs obs")

    def definition(self):
        return {"case": OBSERVED_CASE, "solution": "pbox",
                "duration_s": OBSERVED_DURATION_S,
                "subscribers": ["TelemetryPipeline", "CritPathTracer",
                                "BreachExplainer", "AttributionProfiler",
                                "SpanRecorder(record_slices=True)"],
                "folds": ["CritPathTracer.to_json_dict",
                          "AttributionProfiler.to_dict",
                          "TelemetryPipeline.snapshot"]}

    def iterate(self, seed, speed, tracer=None):
        from repro.cli import WHY_TRACER_BUDGET, _case_evaluator
        from repro.obs import (
            AttributionProfiler,
            BreachExplainer,
            CritPathTracer,
            SpanRecorder,
            TelemetryPipeline,
        )

        it = Iteration()
        reset_thread_ids()
        start = time.perf_counter()
        case = get_case(OBSERVED_CASE)
        # The exact stack ``repro why`` and ``repro profile`` attach.
        critpath = CritPathTracer(slowest=max(WHY_SLOWEST, 8))
        pipeline = TelemetryPipeline()
        pipeline.evaluator = _case_evaluator(case)
        explainer = BreachExplainer(critpath)
        profiler = AttributionProfiler()
        recorder = SpanRecorder(record_slices=True)

        def observer(env):
            env.telemetry = pipeline
            pipeline.attach(env.kernel.trace, manager=env.runtime.manager)
            critpath.attach(env.kernel.trace)
            explainer.attach(env.kernel.trace)
            profiler.attach(env.kernel.trace)
            recorder.attach(env.kernel.trace)

        timed = _TimedRun(speed)
        run = run_case(case, Solution.PBOX, seed=seed,
                       duration_s=OBSERVED_DURATION_S, observer=observer,
                       driver=lambda env: timed.run(env.kernel,
                                                    env.duration_us))
        why = _span(tracer, "obs.fold", critpath.to_json_dict,
                    budget_bytes=WHY_TRACER_BUDGET, slowest=WHY_SLOWEST)
        why["explanations"] = explainer.explanations[-20:]
        blame = _span(tracer, "obs.fold", profiler.to_dict)
        telemetry = _span(tracer, "obs.fold", pipeline.snapshot)
        it.wall_s = time.perf_counter() - start - speed.spent_s
        it.setup_s = timed.first_start - start
        it.run_s, it.events = timed.run_s, timed.events

        if why["completed"] <= 0:
            it.problems.append("no traced request completed")
        for trace in critpath.slowest():
            if sum(trace.buckets.values()) != trace.latency_us:
                it.problems.append("request %d: segments sum to %d, "
                                   "latency %d" % (
                                       trace.rid, sum(trace.buckets.values()),
                                       trace.latency_us))
        if not profiler.matrix.cells:
            it.problems.append("blame matrix is empty")
        it.failed = 1 if it.problems else 0
        it.fingerprint = fingerprint({"why": why, "blame": blame,
                                      "telemetry": telemetry})
        it.layer_counts = _layer_counts(run.env.kernel, run.manager)
        return it


WORKLOADS = {w.name: w for w in (
    SweepWorkload(),
    ScaleWorkload(
        "scale-cfs-10k", 10_000, "cfs",
        "10k threads on 1,250 cores under cfs, six families, manager on: "
        "dispatch, timer wheel, futex wakes, sharded manager"),
    ScaleWorkload(
        "scale-eevdf-1k", 1_000, "eevdf",
        "1k threads on 125 cores under eevdf, six families: the linear "
        "pick_for_core; scale-cfs-10k is its control"),
    ObservedWorkload(),
)}
