"""Simulator benchmark: host cost and simulated result of one workload.

Run from the repository root::

    python3 simbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats the workload (a closed loop, one client) for about
``--seconds`` of host time with no wrapper installed and prints the
end-to-end metrics, with host times scaled by host speed (see
``calibrate.py``).  ``--trace 1`` runs one untraced iteration, then
wraps the public functions of every layer (see ``layers.py``) and
repeats the workload traced to print the per-layer metrics.  Both modes
check the simulated output of every iteration, print provenance, write
a report under ``.simbench/`` and end with one JSON line.  The exit code
is non-zero when any check failed.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import calibrate  # noqa: E402
import layers  # noqa: E402
import selftest  # noqa: E402
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".simbench")

WORKLOAD_NAMES = ("sweep", "scale-cfs-10k", "scale-eevdf-1k", "observed-c5")

#: The paper's Figure 11 result for pBox over c1-c16 (EXPERIMENTS.md).
PAPER_MITIGATION_PCT = 86.3
PAPER_CASES_MITIGATED = 15

#: End-to-end metrics every workload reports (BENCHMARK.json gates these).
E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "events_per_s": "events/s",
    "peak_rss_mb": "MiB",
}

#: Simulated-result metrics, printed and recorded where they apply, and
#: the share of failed jobs or runs.  The first three depend on the seed
#: and exist on only some workloads, and ``failed_frac`` is 0 on a good
#: run, so none is in BENCHMARK.json (``failed`` and ``attempted`` carry
#: the failures); the simulated fingerprint pins the others exactly.
RESULT_UNITS = {
    "mitigation_pct": "%", "cases_mitigated": "count",
    "sim_goodput_rps": "req/sim-s", "failed_frac": "ratio",
}

#: Per-layer metrics read from span counters: name -> (span, field).
SPAN_METRICS = {}
for _span_name in (
        "sim.scheduler.pick_for_core", "sim.scheduler.push",
        "sim.scheduler.push_front", "sim.scheduler.charge",
        "sim.timerwheel.insert", "sim.timerwheel.pop_next", "sim.futex.wake",
        "core.runtime.update_pbox", "core.runtime.activate_pbox",
        "core.runtime.freeze_pbox", "core.runtime.bind_pbox",
        "core.runtime.unbind_pbox", "core.manager.update",
        "core.manager.activate", "core.manager.freeze",
        "core.manager.take_action", "core.manager.scan",
        "core.manager.resume_hook", "core.shards", "core.penalty.decide",
        "runner.execute_spec", "workloads.generate_trace"):
    SPAN_METRICS[_span_name + ".calls"] = (_span_name, "calls")
    SPAN_METRICS[_span_name + ".self_s"] = (_span_name, "self_s")
for _span_name in ("sim.timer.cancel", "sim.futex.add", "sim.kernel.spawn",
                   "core.penalty_armer.arm"):
    SPAN_METRICS[_span_name + ".calls"] = (_span_name, "calls")
for _span_name in ("sim.kernel.run", "obs.tracepoint", "obs.telemetry",
                   "obs.critpath", "obs.breach", "obs.attribution",
                   "obs.spans", "obs.fold", "cases.build"):
    SPAN_METRICS[_span_name + ".self_s"] = (_span_name, "self_s")
SPAN_METRICS["obs.tracepoint.fires"] = ("obs.tracepoint", "calls")
SPAN_METRICS["runner.execute_spec.failed"] = ("runner.execute_spec",
                                              "failed")
SPAN_METRICS["scale.build.total_s"] = ("scale.build", "total_s")

#: Per-layer metrics derived from simulator counters and ratios.
DERIVED_UNITS = {
    "sim.timer.cancelled_frac": "ratio", "sim.futex.woken": "threads/wake",
    "sim.kernel.events": "count", "sim.kernel.context_switches": "count",
    "core.manager.scan_evaluated": "count",
    "core.manager.detections": "count",
    "core.manager.penalties_applied": "count",
    "core.manager.penalties_per_detection": "ratio",
    "core.penalty_armer.batched_frac": "ratio",
    "core.budget.denied": "count", "bench.import_s": "s",
    "bench.tracing_overhead_frac": "ratio",
}


def per_layer_units():
    """Every per-layer metric name with its unit."""
    units = dict(DERIVED_UNITS)
    for name, (_span, field) in SPAN_METRICS.items():
        units[name] = "s" if field.endswith("_s") else "count"
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def provenance(args, workload, code_fingerprint):
    """Who produced a result: commit, host, interpreter and inputs."""
    commit, dirty = None, None
    # Look at this checkout only: no parent repository, no user config.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
        if top.returncode == 0:
            commit = top.stdout.strip()
            status = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain", "--", "src"],
                capture_output=True, text=True, env=env, timeout=10)
            dirty = bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit, "dirty": dirty,
        "code_fingerprint": code_fingerprint,
        "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpu_model": cpu_model,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "workload": {"name": workload.name, "why": workload.why,
                     "definition": workload.definition()},
    }


class Run:
    """Accumulates iterations, checks and counts for one invocation."""

    def __init__(self, workload, seed, case_classes):
        self.workload = workload
        self.seed = seed
        self.case_classes = case_classes
        self.iterations = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None
        self.speed = calibrate.HostSpeed()

    def iterate(self, speed, tracer=None):
        """One iteration; a raise or a failed check counts as a failure."""
        if tracer is None:
            leftover = layers.installed(self.case_classes)
            if leftover:
                raise RuntimeError("layer wrappers still installed before "
                                   "a timed iteration: %s" % leftover)
        try:
            if tracer is None:
                it = self.workload.iterate(self.seed, speed)
            else:
                it = tracer.span("bench.iteration", self.workload.iterate,
                                 self.seed, speed, tracer)
        except Exception as exc:  # noqa: BLE001 -- counted and reported
            self.attempted += 1
            self.failed += 1
            self.problems.append("iteration raised %s: %s"
                                 % (type(exc).__name__, exc))
            return None
        if self.reference is None:
            self.reference = it.fingerprint
        elif it.fingerprint != self.reference:
            it.problems.append("simulated output differs from the first "
                               "iteration (%s != %s)"
                               % (it.fingerprint[:12], self.reference[:12]))
            it.failed = it.attempted
        self.attempted += it.attempted
        self.failed += it.failed
        self.problems.extend(it.problems)
        self.iterations.append(it)
        return it

    def loop(self, seconds, tracer=None, minimum=1):
        """Repeat until another iteration would overrun ``seconds``, but
        at least ``minimum`` times.

        Host speed is sampled during each iteration and once after it,
        and the iteration's times are scaled by it (see ``calibrate.py``).
        The previous iteration's garbage is collected first, so neither
        an iteration's time nor the process's peak memory depends on
        when the collector last ran.
        """
        start = time.perf_counter()
        done = []
        speed = self.speed
        while True:
            gc.collect()
            speed.begin()
            it = self.iterate(speed, tracer)
            if it is None:
                return done
            speed.sample()
            it.calibration_s = statistics.median(speed.samples)
            it.scale = speed.scale
            done.append(it)
            if tracer is not None:
                it.tracer_counters = snapshot_counters(tracer)
                it.spans = list(tracer.spans)
                tracer.reset()
            elapsed = time.perf_counter() - start
            typical = statistics.median(w.wall_s for w in done)
            if len(done) >= minimum and elapsed + typical > seconds:
                return done


def snapshot_counters(tracer):
    """Per-span ``{calls, self_s, total_s, failed, returned}``."""
    out = {}
    for name, (calls, total_ns, self_ns, returned) in \
            tracer.counters.items():
        out[name] = {"calls": calls, "total_s": total_ns / 1e9,
                     "self_s": self_ns / 1e9,
                     "failed": tracer.failed.get(name, 0),
                     "returned": returned}
    return out


def end_to_end(timed, startup_s, peak_rss_mb):
    """The end-to-end metrics with their timing summaries.

    ``setup_s`` is the process's start-up (imports and code fingerprint)
    plus an iteration's time to its first simulated event.
    """
    timings = {
        "setup_s": [(startup_s + it.setup_s) * it.scale for it in timed],
        "wall_s": [it.wall_s * it.scale for it in timed],
        "events_per_s": [it.events / (it.run_s * it.scale) for it in timed
                         if it.run_s > 0],
    }
    metrics = {name: statistics.median(values)
               for name, values in timings.items()}
    metrics["peak_rss_mb"] = peak_rss_mb
    summaries = {name: stats.summary(values)
                 for name, values in timings.items()}
    job_walls = [w * it.scale for it in timed for w in it.job_walls]
    if job_walls:
        summaries["job_wall_s"] = stats.summary(job_walls)
    return metrics, summaries


def per_layer(traced, untraced, import_s):
    """Per-layer metrics (median over traced iterations) and noise marks.

    Span times are scaled by their iteration's host-speed calibration,
    like the end-to-end times; ``bench.import_s`` is raw.
    """
    untraced_wall = statistics.median(it.wall_s * it.scale for it in untraced)
    rows = {name: [] for name in per_layer_units()}
    for it in traced:
        counters = it.tracer_counters
        counts = it.layer_counts
        values = {}
        for name, (span, field) in SPAN_METRICS.items():
            values[name] = counters.get(span, {}).get(field, 0)
            if field.endswith("_s"):
                values[name] *= it.scale
        cancels = values["sim.timer.cancel.calls"]
        wakes = counters.get("sim.futex.wake", {})
        detections = counts.get("core.manager.detections", 0)
        applied = counts.get("core.manager.penalties_applied", 0)
        armed = counts.get("core.penalty_armer.armed", 0)
        values.update({
            "sim.timer.cancelled_frac":
            cancels / it.events if it.events else 0.0,
            "sim.futex.woken": (wakes.get("returned", 0) / wakes["calls"]
                                if wakes.get("calls") else 0.0),
            "sim.kernel.events": it.events,
            "sim.kernel.context_switches":
            counts.get("sim.kernel.context_switches", 0),
            "core.manager.scan_evaluated":
            counts.get("core.manager.scan_evaluated", 0),
            "core.manager.detections": detections,
            "core.manager.penalties_applied": applied,
            "core.manager.penalties_per_detection":
            applied / detections if detections else 0.0,
            "core.penalty_armer.batched_frac":
            counts.get("core.penalty_armer.batched", 0) / armed
            if armed else 0.0,
            "core.budget.denied": counts.get("core.budget.denied", 0),
            "bench.import_s": import_s,
            "bench.tracing_overhead_frac":
            it.wall_s * it.scale / untraced_wall - 1.0,
        })
        for name in rows:
            rows[name].append(values[name])
    units = per_layer_units()
    metrics = {name: (statistics.median_low if units[name] == "count"
                      else statistics.median)(values)
               for name, values in rows.items()}
    noisy = sorted(name for name, values in rows.items()
                   if stats.noise_over_signal(values))
    return metrics, noisy, rows


def reference_lines(workload_name, result):
    """The model's error against the paper, where the paper has a value."""
    if workload_name == "sweep":
        return [
            "mitigation_pct %.2f%% vs paper %.1f%% (c1-c16 mean r): "
            "model error %+.2f points"
            % (result["mitigation_pct"], PAPER_MITIGATION_PCT,
               result["mitigation_pct"] - PAPER_MITIGATION_PCT),
            "cases_mitigated %d vs paper %d of 16: model error %+d"
            % (result["cases_mitigated"], PAPER_CASES_MITIGATED,
               result["cases_mitigated"] - PAPER_CASES_MITIGATED),
        ]
    if workload_name.startswith("scale-"):
        return ["sim_goodput_rps has no paper reference: scale-* results "
                "are unvalidated"]
    return []


def describe(summary):
    """``median of n=...; pXX value`` for a timing summary."""
    tail = ("p%g %s" % (summary["tail_pct"], fmt(summary["tail"]))
            if summary["tail_pct"] else
            "no percentile has 10 samples beyond it")
    return "median of n=%d; %s" % (summary["n"], tail)


def fmt(value):
    return ("%.6g" % value) if isinstance(value, float) else str(value)


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workloads
        from repro.cases import get_case
        from repro.cases.registry import ALL_CASES
        from repro.runner.cache import code_fingerprint
    except ImportError as exc:
        sys.stderr.write("simbench: cannot import the simulator from %s: "
                         "%s\n" % (os.path.join(ROOT, "src"), exc))
        return 2
    import_s = time.perf_counter() - PROCESS_START
    # Part of set-up: ``run_sweep`` fingerprints the code on first use.
    code = code_fingerprint()
    startup_s = time.perf_counter() - PROCESS_START

    case_classes = sorted({type(get_case(c)) for c in ALL_CASES},
                          key=lambda cls: cls.__name__)
    workload = workloads.WORKLOADS[args.workload]
    info = provenance(args, workload, code)
    print("provenance: %s" % json.dumps(info, sort_keys=True))
    self_failures = selftest.run_all()
    for failure in self_failures:
        print("self-test FAILED: %s" % failure)

    run = Run(workload, args.seed, case_classes)
    report = {"provenance": info, "self_test_failures": self_failures}
    if args.trace == 0:
        timed = run.loop(args.seconds)
        peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024.0)
        metrics, summaries = ({}, {}) if not timed else end_to_end(
            timed, startup_s, peak_rss_mb)
        print("%s seed %d: %d timed iteration(s)"
              % (workload.name, args.seed, len(timed)))
        for name, value in sorted(metrics.items()):
            line = "  %-18s %-12s %s" % (name, fmt(value), E2E_UNITS[name])
            if name in summaries:
                line += "  (%s)" % describe(summaries[name])
            print(line)
        if "job_wall_s" in summaries:
            jobs = summaries["job_wall_s"]
            print("  %-18s %-12s s  (%s)" % (
                "sweep job wall", fmt(jobs["median"]), describe(jobs)))
        if timed:
            print("  times are scaled by host speed: calibration loop median "
                  "%s s, raw wall median %s s"
                  % (fmt(statistics.median(it.calibration_s for it in timed)),
                     fmt(statistics.median(it.wall_s for it in timed))))
        report.update({"metrics": metrics, "timings": summaries,
                       "iterations": [
                           {"setup_s": it.setup_s, "wall_s": it.wall_s,
                            "run_s": it.run_s, "events": it.events,
                            "calibration_s": it.calibration_s}
                           for it in timed]})
        units = E2E_UNITS
    else:
        baseline = run.loop(0)
        tracer = layers.Tracer()
        layers.install(tracer, case_classes)
        try:
            remaining = args.seconds - sum(it.wall_s for it in baseline)
            # Two traced iterations at least, so every per-layer time
            # has a spread to compare with its value.
            traced = run.loop(remaining, tracer, minimum=2) \
                if baseline else []
        finally:
            layers.uninstall()
        leftover = layers.installed(case_classes)
        if leftover:
            run.problems.append("wrappers left installed: %s" % leftover)
            run.failed += 1
        metrics, noisy, rows = ({}, [], {}) if not traced else per_layer(
            traced, baseline, import_s)
        print("%s seed %d traced: %d traced iteration(s), tracing overhead "
              "%s" % (workload.name, args.seed, len(traced),
                      fmt(metrics.get("bench.tracing_overhead_frac", 0.0))))
        units = per_layer_units()
        for name in sorted(metrics):
            mark = "  noise > signal" if name in noisy else ""
            print("  %-42s %-12s %s%s" % (name, fmt(metrics[name]),
                                          units[name], mark))
        report.update({"metrics": metrics, "noise_over_signal": noisy,
                       "per_iteration": rows,
                       "kept_spans": [it.spans for it in traced]})

    correct = not run.problems and not self_failures and bool(metrics)
    for problem in run.problems:
        print("CHECK FAILED: %s" % problem)
    failed_frac = run.failed / run.attempted if run.attempted else 1.0
    result = dict(run.iterations[0].deterministic) if run.iterations else {}
    result["failed_frac"] = failed_frac
    print("simulated result (seed %d, fingerprint %s):"
          % (args.seed, run.reference))
    for name, value in sorted(result.items()):
        print("  %-18s %-12s %s" % (name, fmt(value),
                                    RESULT_UNITS[name]))
    for line in reference_lines(workload.name, result):
        print("  " + line)
    print("  (%d failed of %d attempted)" % (run.failed, run.attempted))
    report.update({"problems": run.problems, "attempted": run.attempted,
                   "failed": run.failed, "simulated_result": result,
                   "fingerprint": run.reference})
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json"
                        % (workload.name, args.seed, args.trace))
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True, default=str)
        handle.write("\n")
    print("wrote %s" % os.path.relpath(path, ROOT))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed if run.attempted else 1,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
