"""Aggregate the benchmark outputs in ``results/`` into one report.

The benchmarks each write a tab-separated table; this module stitches
them into a single markdown document (the "evaluation section" of the
reproduction), used by ``python -m repro`` consumers and CI logs.  It
is intentionally forgiving: missing result files are reported as "not
yet generated", and a file that exists but cannot be rendered (an
older schema, a truncated write, hand-edited JSON) degrades to a
one-line "section skipped" note rather than failing the whole report.
"""

import os

#: The expected result files, in the paper's presentation order.
SECTIONS = [
    ("fig01_undo_motivation.txt", "Figure 1 — UNDO purge motivation"),
    ("fig02_bufferpool_motivation.txt", "Figure 2 — buffer-pool backup"),
    ("fig03_tickets_motivation.txt", "Figure 3 — tickets motivation"),
    ("tab03_interference_levels.txt", "Table 3 — interference levels"),
    ("fig11_mitigation.txt", "Figure 11 — mitigation vs baselines"),
    ("fig12_tail_latency.txt", "Figure 12 — tail latency"),
    ("fig13_penalty_actions.txt", "Figure 13 — penalty actions"),
    ("fig14_penalty_lengths.txt", "Figure 14 — penalty lengths"),
    ("tab04_fixed_vs_adaptive.txt", "Table 4 — fixed vs adaptive"),
    ("fig15_rule_sensitivity.txt", "Figure 15 — rule sensitivity"),
    ("fig16_overhead.txt", "Figure 16 — overhead"),
    ("tab05_analyzer.txt", "Table 5 — static analyzer"),
    ("sec68_mistake_tolerance.txt", "Section 6.8 — mistake tolerance"),
    ("ablations.txt", "Ablations — design-choice costs"),
    ("obs_overhead.txt", "Observability — tracing overhead"),
]

#: Metrics-registry snapshot (``python -m repro metrics <case> --json``)
#: rendered as its own report section.
METRICS_SNAPSHOT = "obs_metrics.json"

#: Attribution snapshot written by ``benchmarks/test_profile_overhead.py``
#: (profiler overhead plus per-case blame summaries).
ATTRIBUTION_SNAPSHOT = "BENCH_attribution.json"

#: Machine-readable sweep output (``python -m repro sweep``).
SWEEP_SNAPSHOT = "SWEEP.json"

#: Machine-readable chaos output (``python -m repro chaos``).
CHAOS_SNAPSHOT = "CHAOS.json"

#: Machine-readable scalability sweep (``python -m repro scale``).
SCALE_SNAPSHOT = "SCALE.json"

#: Per-request critical-path summary (``python -m repro why``).
WHY_SNAPSHOT = "WHY.json"


def load_section(results_dir, filename):
    """Return the file's lines, or None if it has not been generated."""
    path = os.path.join(results_dir, filename)
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return handle.read().rstrip("\n").splitlines()


def _as_markdown_table(lines):
    """Convert a tab-separated block into a markdown table.

    Comment lines (``#``) become prose; the first non-comment line is
    the header row.
    """
    output = []
    header_done = False
    for line in lines:
        if line.startswith("#"):
            output.append(line.lstrip("# ").rstrip())
            continue
        if not line.strip():
            output.append("")
            continue
        cells = line.split("\t")
        output.append("| " + " | ".join(cells) + " |")
        if not header_done:
            output.append("|" + "---|" * len(cells))
            header_done = True
    return output


def _section_skipped(filename, exc):
    """The degraded one-liner for an unrenderable results artifact."""
    return ["*(section skipped: `results/%s` could not be rendered "
            "(%s: %s) — regenerate it with the current tools)*"
            % (filename, type(exc).__name__, exc)]


def _load_safely(loader, results_dir, filename):
    """Run ``loader``; degrade render errors to a skip note.

    ``None`` (file absent) passes through untouched.  Anything the
    renderers raise on a malformed or older-schema artifact -- missing
    keys, wrong value shapes, truncated JSON -- becomes the one-line
    skip note instead of a crashed report.
    """
    import json

    try:
        return loader(results_dir)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError,
            json.JSONDecodeError, OSError) as exc:
        return _section_skipped(filename, exc)


#: The JSON-backed sections appended after the tab-separated tables:
#: (title, renderer, artifact filename, regeneration hint).  Renderers
#: are wrapped in lambdas because they are defined below.
JSON_SECTIONS = [
    ("Observability — unified metrics registry",
     lambda d: _load_metrics_section(d), METRICS_SNAPSHOT,
     "run `python -m repro metrics` with `--json results/%s`"),
    ("Observability — contention attribution",
     lambda d: _load_attribution_section(d), ATTRIBUTION_SNAPSHOT,
     "run `PYTHONPATH=src python -m pytest "
     "benchmarks/test_profile_overhead.py`"),
    ("Sweep — registry-wide To/Ti/Ts summary",
     lambda d: _load_sweep_section(d), SWEEP_SNAPSHOT,
     "run `python -m repro sweep`"),
    ("Chaos — fault injection & invariants",
     lambda d: _load_chaos_section(d), CHAOS_SNAPSHOT,
     "run `python -m repro chaos`"),
    ("Scale — multi-tenant kernel scalability",
     lambda d: _load_scale_section(d), SCALE_SNAPSHOT,
     "run `python -m repro scale --telemetry`"),
    ("Why — per-request critical-path decomposition",
     lambda d: _load_why_section(d), WHY_SNAPSHOT,
     "run `python -m repro why c5`"),
]


def generate_report(results_dir="results"):
    """Build the markdown report string from ``results_dir``."""
    parts = [
        "# pBox reproduction — generated evaluation report",
        "",
        "Regenerate any section with its benchmark target; see",
        "EXPERIMENTS.md for the paper-vs-measured commentary.",
        "",
    ]
    missing = []
    for filename, title in SECTIONS:
        lines = load_section(results_dir, filename)
        parts.append("## %s" % title)
        parts.append("")
        if lines is None:
            parts.append("*(not yet generated — run the matching "
                         "benchmark under `benchmarks/`)*")
            missing.append(filename)
        else:
            parts.extend(_as_markdown_table(lines))
        parts.append("")
    for title, loader, filename, hint in JSON_SECTIONS:
        parts.append("## %s" % title)
        parts.append("")
        lines = _load_safely(loader, results_dir, filename)
        if lines is None:
            parts.append("*(not yet generated — %s)*"
                         % (hint % filename if "%s" in hint else hint))
            missing.append(filename)
        else:
            parts.extend(lines)
        parts.append("")
    if missing:
        parts.append("---")
        parts.append("%d of %d sections missing."
                     % (len(missing), len(SECTIONS) + len(JSON_SECTIONS)))
    return "\n".join(parts)


def _load_metrics_section(results_dir):
    """Render the saved metrics-registry snapshot, or None if absent."""
    path = os.path.join(results_dir, METRICS_SNAPSHOT)
    if not os.path.exists(path):
        return None
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry.load_json(path)
    return _as_markdown_table(registry.format_table())


def _load_attribution_section(results_dir):
    """Render the attribution benchmark snapshot, or None if absent."""
    path = os.path.join(results_dir, ATTRIBUTION_SNAPSHOT)
    if not os.path.exists(path):
        return None
    import json

    with open(path) as handle:
        snapshot = json.load(handle)
    lines = []
    overhead = snapshot.get("overhead", {})
    if overhead:
        lines.append(
            "Profiler overhead: %.1f%% attached, %.1f%% detached "
            "(guard: <5%% attached)." % (
                100.0 * overhead.get("attached_ratio", 0),
                100.0 * overhead.get("detached_ratio", 0),
            )
        )
        lines.append("")
    cases = snapshot.get("cases", {})
    if cases:
        lines.append("| case | victim p95 (ms) | blamed on top aggressor "
                     "| top aggressor | unattributed (ms) | actions | "
                     "penalty (ms) | recovered est. (ms) |")
        lines.append("|---|---|---|---|---|---|---|---|")
        for case_id in sorted(cases):
            entry = cases[case_id]
            recovered = entry.get("recovered_est_us")
            # Older snapshots predate the unattributed column; degrade
            # to n/a instead of skipping the whole section.
            unattributed = entry.get("unattributed_us")
            lines.append("| %s | %.2f | %.0f%% | %s | %s | %d | %.2f | "
                         "%s |" % (
                             case_id,
                             entry.get("victim_p95_us", 0) / 1_000,
                             100.0 * entry.get("top_share", 0),
                             entry.get("top_aggressor", "?"),
                             ("n/a" if unattributed is None
                              else "%.2f" % (unattributed / 1_000)),
                             entry.get("actions", 0),
                             entry.get("penalty_us", 0) / 1_000,
                             ("n/a" if recovered is None
                              else "%.2f" % (recovered / 1_000)),
                         ))
    return lines


def _load_why_section(results_dir):
    """Render the ``repro why`` snapshot, or None if absent."""
    path = os.path.join(results_dir, WHY_SNAPSHOT)
    if not os.path.exists(path):
        return None
    import json

    with open(path) as handle:
        snapshot = json.load(handle)
    tenants = snapshot.get("tenants", {})
    lines = [
        "`repro why %s`: %s requests traced; latency decomposed into "
        "exactly-summing critical-path segments (%s)." % (
            snapshot.get("target", "?"),
            "{:,}".format(snapshot.get("completed", 0)),
            ", ".join(snapshot.get("segments", [])),
        ),
        "",
        "| tenant | requests | dominant segment | segment totals (ms) |",
        "|---|---|---|---|",
    ]
    for tenant in sorted(tenants):
        entry = tenants[tenant]
        totals = entry.get("totals_us", {})
        nonzero = sorted(((seg, us) for seg, us in totals.items() if us),
                         key=lambda item: -item[1])
        dominant = nonzero[0][0] if nonzero else "idle"
        shown = ", ".join("%s %.2f" % (seg, us / 1_000)
                          for seg, us in nonzero[:4]) or "none"
        lines.append("| %s | %s | %s | %s |" % (
            tenant, "{:,}".format(entry.get("requests", 0)),
            dominant, shown))
    slowest = []
    for tenant in sorted(tenants):
        slowest.extend(tenants[tenant].get("slowest", []))
    slowest.sort(key=lambda t: -t.get("latency_us", 0))
    if slowest:
        lines.append("")
        lines.append("| slowest rid | tenant | latency (ms) | "
                     "critical path |")
        lines.append("|---|---|---|---|")
        for trace in slowest[:10]:
            path_cells = ", ".join(
                "%s %.2f" % (seg.get("kind", "?"),
                             seg.get("dur_us", 0) / 1_000)
                for seg in trace.get("critical_path", [])[:3])
            lines.append("| %d | %s | %.2f | %s |" % (
                trace.get("rid", 0), trace.get("tenant", "?"),
                trace.get("latency_us", 0) / 1_000, path_cells or "n/a"))
    explanations = snapshot.get("explanations", [])
    if explanations:
        lines.append("")
        lines.append("%d SLO breach(es) explained; last: tenant %s at "
                     "%.2fs." % (
                         len(explanations),
                         explanations[-1].get("tenant", "?"),
                         explanations[-1].get("at_us", 0) / 1e6))
    return lines


def _load_sweep_section(results_dir):
    """Render the ``repro sweep`` snapshot, or None if absent."""
    path = os.path.join(results_dir, SWEEP_SNAPSHOT)
    if not os.path.exists(path):
        return None
    import json

    with open(path) as handle:
        snapshot = json.load(handle)
    solutions = snapshot.get("solutions", [])
    jobs = snapshot.get("jobs", {})
    lines = []
    if jobs:
        lines.append(
            "%d jobs (%d executed, %d cache hits) over %d worker(s) in "
            "%.2fs; duration %ss, seeds %s." % (
                jobs.get("total", 0), jobs.get("executed", 0),
                jobs.get("cache_hits", 0), jobs.get("workers", 1),
                jobs.get("wall_s", 0.0), snapshot.get("duration_s", "?"),
                ",".join(str(s) for s in snapshot.get("seeds", [])),
            )
        )
        lines.append("")
    header = ["case", "To (ms)", "Ti (ms)", "p"]
    header += ["r(%s)" % s for s in solutions]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    for case_id in sorted(snapshot.get("cases", {}),
                          key=lambda cid: int(cid[1:])):
        seeds = snapshot["cases"][case_id]["seeds"]
        for seed in sorted(seeds, key=int):
            entry = seeds[seed]
            row = [
                case_id if len(seeds) == 1 else "%s/s%s" % (case_id, seed),
                "%.2f" % (entry["to_us"] / 1_000),
                "%.2f" % (entry["ti_us"] / 1_000),
                "%.2f" % entry["interference_level"],
            ]
            for solution in solutions:
                sol = entry["solutions"].get(solution)
                row.append("%+.2f" % sol["reduction_ratio"]
                           if sol else "n/a")
            lines.append("| " + " | ".join(row) + " |")
    return lines


def _load_chaos_section(results_dir):
    """Render the ``repro chaos`` snapshot, or None if absent."""
    path = os.path.join(results_dir, CHAOS_SNAPSHOT)
    if not os.path.exists(path):
        return None
    import json

    with open(path) as handle:
        snapshot = json.load(handle)
    summary = snapshot.get("summary", {})
    lines = [
        "%d chaos runs (faults: %s; seeds %s; duration %ss): %d faults "
        "fired, %d crashes contained, %d watchdog recoveries, %d stale "
        "repairs, %d deadlocks — **%d invariant violations**." % (
            summary.get("runs", 0),
            ",".join(snapshot.get("faults", [])),
            ",".join(str(s) for s in snapshot.get("seeds", [])),
            snapshot.get("duration_s", "?"),
            summary.get("faults_fired", 0),
            summary.get("crashes_contained", 0),
            summary.get("watchdog_recoveries", 0),
            summary.get("stale_repairs", 0),
            summary.get("deadlocks", 0),
            summary.get("violations", 0),
        ),
        "",
        "| case | runs | violations | faults fired | crashes | "
        "recoveries | errors |",
        "|---|---|---|---|---|---|---|",
    ]
    for case_id in sorted(snapshot.get("cases", {}),
                          key=lambda cid: int(cid[1:])):
        runs = violations = fired = crashes = recoveries = errors = 0
        for kinds in snapshot["cases"][case_id].values():
            for entry in kinds.values():
                # Schema 2 entries are count summaries + digest.
                runs += 1
                violations += entry.get("violations", 0)
                fired += entry.get("faults_fired", 0)
                crashes += entry.get("crashes", 0)
                recoveries += (entry.get("recoveries", 0)
                               + entry.get("stale_repairs", 0))
                if entry.get("error"):
                    errors += 1
        lines.append("| %s | %d | %d | %d | %d | %d | %d |" % (
            case_id, runs, violations, fired, crashes, recoveries, errors))
    return lines


def _load_scale_section(results_dir):
    """Render the ``repro scale`` snapshot, or None if absent."""
    path = os.path.join(results_dir, SCALE_SNAPSHOT)
    if not os.path.exists(path):
        return None
    import json

    with open(path) as handle:
        snapshot = json.load(handle)
    lines = []
    guard = snapshot.get("throughput_guard")
    if guard:
        lines.append(
            "A/B vs the pre-PR kernel at %s threads: **%.2fx** event "
            "throughput (%s vs %s events/s on the identical %s-event "
            "stream; floor %.0fx)." % (
                "{:,}".format(guard.get("threads", 0)),
                guard.get("speedup", 0.0),
                "{:,}".format(guard.get("new_events_per_sec", 0)),
                "{:,}".format(guard.get("legacy_events_per_sec", 0)),
                "{:,}".format(guard.get("events", 0)),
                guard.get("floor", 0.0),
            )
        )
        lines.append("")
    sched = snapshot.get("sched")
    families = snapshot.get("families")
    if sched or families:
        # Schema-4 documents carry the scheduler/family axes; older
        # snapshots simply skip this paragraph.
        bits = []
        if sched:
            bits.append("scheduler policy **%s**" % sched)
        if families:
            bits.append("tenant families %s (round-robin across tenants)"
                        % ", ".join("`%s`" % f for f in families))
        lines.append("Sweep ran under %s." % " with ".join(bits))
        lines.append("")
    lines.append("| threads | tenants | pBoxes | cores | virtual (ms) | "
                 "events/s | requests | manager cost/event (us) | "
                 "manager overhead | shards | scans |")
    lines.append("|---|---|---|---|---|---|---|---|---|---|---|")
    for point in snapshot.get("points", []):
        manager = point.get("manager", {})
        lines.append(
            "| %s | %d | %d | %d | %.0f | %s | %s | %.3f | %.1f%% "
            "| %d | %s |" % (
                "{:,}".format(point.get("threads", 0)),
                point.get("tenants", 0),
                point.get("pboxes", 0),
                point.get("cores", 0),
                point.get("duration_virtual_ms", 0.0),
                "{:,}".format(point.get("events_per_sec", 0)),
                "{:,}".format(point.get("requests", 0)),
                manager.get("cost_per_event_us", 0.0),
                100.0 * manager.get("overhead_frac", 0.0),
                manager.get("shards", 0),
                "{:,}".format(manager.get("scans", 0)),
            ))
    family_lines = _scale_family_lines(snapshot)
    if family_lines:
        lines.append("")
        lines.extend(family_lines)
    telemetry_lines = _scale_telemetry_lines(snapshot)
    if telemetry_lines:
        lines.append("")
        lines.extend(telemetry_lines)
    return lines


def _scale_family_lines(snapshot):
    """Per-family request rows for schema-4 scale documents."""
    points = [p for p in snapshot.get("points", [])
              if p.get("family_requests")]
    if not points:
        return []
    families = sorted({family for point in points
                       for family in point["family_requests"]})
    lines = ["Requests completed per tenant family (manager on):", ""]
    lines.append("| threads | %s |" % " | ".join(families))
    lines.append("|---|%s|" % "|".join("---" for _ in families))
    for point in points:
        counts = point["family_requests"]
        lines.append("| %s | %s |" % (
            "{:,}".format(point.get("threads", 0)),
            " | ".join("{:,}".format(counts.get(family, 0))
                       for family in families)))
    return lines


def _scale_telemetry_lines(snapshot):
    """Per-tenant SLO telemetry rows for schema-2 scale documents."""
    rows = []
    for point in snapshot.get("points", []):
        telemetry = point.get("telemetry")
        if not telemetry:
            continue
        totals = telemetry.get("totals", {})
        dropped = telemetry.get("dropped", {})
        windows = telemetry.get("windows", {}).get("rows", [])
        peak_active = max((row[9] for row in windows), default=0)
        rows.append("| %s | %s | %s | %d | %d | %d | %d |" % (
            "{:,}".format(point.get("threads", 0)),
            "{:,}".format(totals.get("requests", 0)),
            "{:,}".format(totals.get("bad", 0)),
            totals.get("breaches", 0),
            totals.get("recovers", 0),
            peak_active,
            dropped.get("tenants_recorded", 0),
        ))
    if not rows:
        return []
    lines = [
        "Per-tenant SLO telemetry (schema 2, `--telemetry`): sketches, "
        "windowed series and burn-rate breach events per point.",
        "",
        "| threads | requests | bad | breaches | recovers | "
        "peak active set | tenants |",
        "|---|---|---|---|---|---|---|",
    ]
    lines.extend(rows)
    return lines


def write_report(results_dir="results", output_path=None):
    """Generate and write the report; returns the output path."""
    output_path = output_path or os.path.join(results_dir, "REPORT.md")
    report = generate_report(results_dir)
    with open(output_path, "w") as handle:
        handle.write(report + "\n")
    return output_path
