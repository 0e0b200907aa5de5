"""Self-tests of the benchmark's own arithmetic and wrapper hygiene.

``run.py`` runs these before every measurement; run them alone with
``python3 simbench/selftest.py`` from the repository root.
"""

import os
import sys


def _fake_clock(ticks):
    ticks = iter(ticks)
    return lambda: next(ticks)


def check_self_time():
    """Nested and back-to-back children, live and from recorded spans."""
    import layers

    # outer [0, 100]: a [10, 30] then b [30, 70] back to back; b holds a
    # nested grandchild g [40, 55].  Clock reads happen in call order.
    tracer = layers.Tracer(keep=None,
                           clock=_fake_clock([0, 10, 30, 30, 40, 55, 70,
                                              100]))
    g = tracer.wrap("g", lambda: None)
    b = tracer.wrap("b", lambda: g())
    a = tracer.wrap("a", lambda: None)

    def outer():
        a()
        b()

    tracer.span("outer", outer)
    live = {name: entry[2] for name, entry in tracer.counters.items()}
    expected = {"outer": 100 - 20 - 40, "a": 20, "b": 40 - 15, "g": 15}
    failures = []
    if live != expected:
        failures.append("live self time %s != %s" % (live, expected))
    offline = layers.self_times(tracer.spans)
    if offline != expected:
        failures.append("span self time %s != %s" % (offline, expected))
    # Overlapping children (as concurrent spans would record) count once.
    spans = [["p", 0, 100, -1, 1], ["c", 10, 50, 0, 1],
             ["c", 40, 60, 0, 1], ["c", 60, 70, 0, 1]]
    merged = layers.self_times(spans)
    if merged != {"p": 40, "c": 70}:
        failures.append("overlap self time %s != {'p': 40, 'c': 70}"
                        % merged)
    return failures


def check_percentile_rule():
    import stats

    failures = []
    cases = {19: None, 20: (50.0, 10), 100: (90.0, 90), 1000: (99.0, 990)}
    for count, expected in cases.items():
        found = stats.tail(list(range(1, count + 1)))
        if found != expected:
            failures.append("tail of %d samples is %s, expected %s"
                            % (count, found, expected))
    if stats.noise_over_signal([1.0]) or \
            not stats.noise_over_signal([1.0, 10.0, 1.0, 10.0]) or \
            stats.noise_over_signal([9.9, 10.0, 10.1]):
        failures.append("noise > signal marks the wrong samples")
    return failures


def check_mitigation():
    """``stats`` agrees with ``SweepEvaluation.reduction_ratio``."""
    from repro.cases import Solution
    from repro.runner.sweep import JobResult, SweepEvaluation

    import stats

    fixture = {  # case: (To, Ti, Ts) victim mean latency, us
        "c1": (100.0, 300.0, 120.0),
        "c2": (100.0, 200.0, 210.0),
        "c3": (50.0, 50.0, 40.0),
        "c4": (10.0, 1010.0, 10.0),
    }
    ours, theirs = [], []
    for case_id, (to_us, ti_us, ts_us) in sorted(fixture.items()):
        evaluation = SweepEvaluation(
            case_id, 1, JobResult({"victim_mean_us": to_us}),
            JobResult({"victim_mean_us": ti_us}),
            {Solution.PBOX: JobResult({"victim_mean_us": ts_us})})
        theirs.append(evaluation.reduction_ratio(Solution.PBOX))
        ours.append(stats.reduction_ratio(ti_us, ts_us, to_us))
    failures = []
    if ours != theirs:
        failures.append("reduction ratios %s != %s" % (ours, theirs))
    pct, mitigated = stats.mitigation(ours)
    expected = 100.0 * (0.9 - 0.1 + 0.0 + 1.0) / 4
    if abs(pct - expected) > 1e-9 or mitigated != 2:
        failures.append("mitigation (%r, %d) != (%r, 2)"
                        % (pct, mitigated, expected))
    return failures


def check_wrappers_removed():
    """Installing then removing the wrappers restores every original."""
    import layers
    from repro.sim.kernel import Kernel

    original = Kernel.__dict__["run"]
    failures = []
    layers.install(layers.Tracer())
    try:
        if not layers.installed():
            failures.append("installed() saw no wrapper while installed")
    finally:
        layers.uninstall()
    leftover = layers.installed()
    if leftover:
        failures.append("wrappers left after uninstall: %s" % leftover)
    if Kernel.__dict__["run"] is not original:
        failures.append("Kernel.run is not the original after uninstall")
    return failures


CHECKS = (check_self_time, check_percentile_rule, check_mitigation,
          check_wrappers_removed)


def run_all():
    """Every check's failure messages (empty when all pass)."""
    failures = []
    for check in CHECKS:
        failures.extend("%s: %s" % (check.__name__, message)
                        for message in check())
    return failures


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    sys.path.insert(0, here)
    problems = run_all()
    for problem in problems:
        print("FAILED %s" % problem)
    print("%d check(s), %d failure(s)" % (len(CHECKS), len(problems)))
    sys.exit(1 if problems else 0)
