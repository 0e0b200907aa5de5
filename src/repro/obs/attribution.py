"""Contention attribution: wait-for graphs and per-pBox blame.

The tracepoint bus (PR 1) says *what happened*; this module answers the
question an operator actually asks during an interference incident:
**which pBox/resource is to blame, and for how much of my victim's
latency?**  Three structures, all maintained online from tracepoints by
:class:`AttributionProfiler`:

- a virtual-time **wait-for graph** over pBoxes and threads, keyed by
  the resource each wait blocks on, with cycle detection surfaced as
  warnings (a transient A-waits-B-waits-A loop is exactly what an
  operator wants flagged before it becomes a deadlock);
- a **blame matrix** attributing every victim wait interval to the
  holder's pBox: one cell per (aggressor pBox, resource, victim pBox)
  with total and p95 blamed time.  Intervals are *split when the holder
  changes mid-wait*, so a wait served by two successive holders charges
  each for its own share;
- **penalty attribution**: Algorithm 1 detections and the penalties
  they cause are folded back into the matrix, so a report can say
  "penalties on X recovered an estimated Y ms of blamed wait"
  (rate-before vs rate-after the first action).

Everything is computed in virtual microseconds and costs nothing when
the profiler is not attached (the usual tracepoint guarantee).
"""

from repro.obs.metrics import Histogram
from repro.obs.tracepoints import key_label

#: Aggressor label used when no holder or releaser could be identified.
UNKNOWN = "<unknown>"


class WaitForGraph:
    """A directed wait-for graph with online cycle detection.

    Nodes are opaque hashables (the profiler uses ``("pbox", psid)`` and
    ``("thread", tid)``).  An edge ``waiter -> holder`` labeled with a
    resource means "waiter is blocked on resource, currently held by
    holder".  Each edge insertion runs a DFS from the holder back to the
    waiter; a hit records a cycle warning (deduplicated by node set).
    """

    def __init__(self, max_warnings=32):
        self.max_warnings = max_warnings
        self._edges = {}          # waiter -> {holder: (resource, since_us)}
        self.cycle_warnings = []  # [{"nodes", "resources", "at_us"}]
        self._seen_cycles = set()

    def add_wait(self, waiter, holder, resource, now_us):
        """Add (or refresh) the edge ``waiter -> holder``."""
        if waiter == holder:
            return
        self._edges.setdefault(waiter, {})[holder] = (resource, now_us)
        cycle = self._find_cycle(waiter)
        if cycle is not None:
            self._record_cycle(cycle, now_us)

    def clear_waits(self, waiter, resource=None):
        """Drop ``waiter``'s outgoing edges (optionally one resource's)."""
        targets = self._edges.get(waiter)
        if targets is None:
            return
        if resource is None:
            del self._edges[waiter]
            return
        for holder in [h for h, (res, _) in targets.items()
                       if res == resource]:
            del targets[holder]
        if not targets:
            del self._edges[waiter]

    def edges(self):
        """Snapshot: ``[(waiter, holder, resource, since_us), ...]``."""
        out = []
        for waiter, targets in self._edges.items():
            for holder, (resource, since) in targets.items():
                out.append((waiter, holder, resource, since))
        return out

    def waiting_on(self, waiter):
        """Current holders ``waiter`` is blocked behind."""
        return list(self._edges.get(waiter, ()))

    def _find_cycle(self, start):
        """Path ``start -> ... -> start`` following edges, or ``None``."""
        stack = [(start, [start])]
        visited = set()
        while stack:
            node, path = stack.pop()
            for succ in self._edges.get(node, ()):
                if succ == start:
                    return path
                if succ in visited:
                    continue
                visited.add(succ)
                stack.append((succ, path + [succ]))
        return None

    def _record_cycle(self, cycle, now_us):
        signature = frozenset(cycle)
        if signature in self._seen_cycles:
            return
        self._seen_cycles.add(signature)
        if len(self.cycle_warnings) >= self.max_warnings:
            return
        resources = []
        for index, node in enumerate(cycle):
            succ = cycle[(index + 1) % len(cycle)]
            edge = self._edges.get(node, {}).get(succ)
            resources.append(None if edge is None else edge[0])
        self.cycle_warnings.append(
            {"nodes": list(cycle), "resources": resources, "at_us": now_us}
        )

    def __repr__(self):
        return "WaitForGraph(edges=%d, cycles=%d)" % (
            len(self.edges()), len(self.cycle_warnings)
        )


class BlameCell:
    """One (aggressor, resource, victim) cell of the blame matrix."""

    __slots__ = ("aggressor", "resource", "victim", "total_us", "waits",
                 "hist", "actions", "penalty_us")

    def __init__(self, aggressor, resource, victim):
        self.aggressor = aggressor
        self.resource = resource
        self.victim = victim
        self.total_us = 0
        self.waits = 0
        self.hist = Histogram("blame")
        self.actions = 0
        self.penalty_us = 0

    def p95_us(self):
        """p95 of the blamed intervals (bucket upper bound), or 0."""
        if self.hist.count == 0:
            return 0
        return self.hist.percentile(95)

    def __repr__(self):
        return "BlameCell(%r -> %r via %r: %dus/%d waits)" % (
            self.aggressor, self.victim, self.resource,
            self.total_us, self.waits,
        )


class BlameMatrix:
    """Per-(aggressor pBox x resource x victim pBox) interference matrix.

    ``record_wait`` charges one blamed interval; ``record_action``
    registers an Algorithm 1 penalty against the aggressor, which also
    anchors the before/after split used by :meth:`recovered_us`.
    """

    def __init__(self):
        self.cells = {}            # (aggressor, resource, victim) -> cell
        self.unknown_us = 0        # blamed time with no identifiable holder
        self.first_us = None       # observation window bounds
        self.last_us = None
        self._penalty_until = {}   # aggressor -> end of its penalty window
        self._penalty_span = {}    # aggressor -> total penalized time
        self._during_us = {}       # aggressor -> blamed us inside penalties
        self._outside_us = {}      # aggressor -> blamed us outside penalties

    def note_time(self, now_us):
        """Extend the observation window to include ``now_us``."""
        if self.first_us is None or now_us < self.first_us:
            self.first_us = now_us
        if self.last_us is None or now_us > self.last_us:
            self.last_us = now_us

    def cell(self, aggressor, resource, victim):
        """Get or create one cell."""
        slot = (aggressor, resource, victim)
        cell = self.cells.get(slot)
        if cell is None:
            cell = self.cells[slot] = BlameCell(aggressor, resource, victim)
        return cell

    def record_wait(self, aggressor, resource, victim, start_us, end_us):
        """Blame ``victim``'s wait ``[start_us, end_us)`` on ``aggressor``."""
        duration = end_us - start_us
        if duration <= 0:
            return
        self.note_time(start_us)
        self.note_time(end_us)
        cell = self.cell(aggressor, resource, victim)
        cell.total_us += duration
        cell.waits += 1
        cell.hist.record(duration)
        until = self._penalty_until.get(aggressor, 0)
        during = min(duration, max(0, min(end_us, until) - start_us))
        self._during_us[aggressor] = (
            self._during_us.get(aggressor, 0) + during
        )
        self._outside_us[aggressor] = (
            self._outside_us.get(aggressor, 0) + duration - during
        )

    def record_unknown(self, duration_us):
        """Count blamed time whose aggressor could not be identified."""
        if duration_us > 0:
            self.unknown_us += duration_us

    def record_action(self, aggressor, resource, victim, length_us, now_us):
        """Register a penalty action scheduled against ``aggressor``."""
        self.note_time(now_us)
        cell = self.cell(aggressor, resource, victim)
        cell.actions += 1
        cell.penalty_us += length_us

    def record_penalty(self, aggressor, delay_us, now_us):
        """Extend ``aggressor``'s penalty window by a delivered delay.

        Consecutive penalties stack: a delay delivered while a previous
        window is still open extends it rather than overlapping it.
        """
        self.note_time(now_us)
        start = max(now_us, self._penalty_until.get(aggressor, 0))
        self._penalty_until[aggressor] = start + delay_us
        self._penalty_span[aggressor] = (
            self._penalty_span.get(aggressor, 0) + delay_us
        )

    # -- aggregation -----------------------------------------------------

    def rows(self):
        """Cells sorted by total blamed time, descending."""
        return sorted(self.cells.values(),
                      key=lambda cell: (-cell.total_us, str(cell.resource)))

    def total_us(self):
        """Sum of all blamed time (excluding unknown)."""
        return sum(cell.total_us for cell in self.cells.values())

    def victim_total_us(self, victim):
        """All blamed wait time suffered by ``victim``."""
        return sum(cell.total_us for cell in self.cells.values()
                   if cell.victim == victim)

    def aggressor_total_us(self, aggressor):
        """All blamed wait time caused by ``aggressor``."""
        return sum(cell.total_us for cell in self.cells.values()
                   if cell.aggressor == aggressor)

    def aggressor_share(self, victim):
        """``{aggressor: fraction}`` of ``victim``'s blamed wait time."""
        total = self.victim_total_us(victim)
        if total <= 0:
            return {}
        shares = {}
        for cell in self.cells.values():
            if cell.victim == victim:
                shares[cell.aggressor] = (
                    shares.get(cell.aggressor, 0) + cell.total_us
                )
        return {agg: us / total for agg, us in shares.items()}

    def recovered_us(self, aggressor):
        """Estimated blamed wait recovered by penalizing ``aggressor``.

        While the aggressor serves a penalty it cannot hold resources,
        so victims accrue (almost) no blamed wait.  The estimate scales
        the blame accrual rate observed *outside* penalty windows over
        the penalized time and subtracts what little was still blamed
        inside: ``rate_outside * penalized_span - blamed_inside``.
        Returns ``None`` when no penalty was delivered or the
        observation window is degenerate.
        """
        penalized = self._penalty_span.get(aggressor, 0)
        if (penalized <= 0 or self.first_us is None
                or self.last_us is None):
            return None
        span = self.last_us - self.first_us
        outside_span = span - penalized
        if outside_span <= 0:
            return None
        rate = self._outside_us.get(aggressor, 0) / outside_span
        return max(0.0, rate * penalized - self._during_us.get(aggressor, 0))

    def to_dict(self, labels=None):
        """JSON-serializable snapshot (labels map psid -> display name)."""
        labels = labels or {}

        def label(who):
            if who == UNKNOWN:
                return UNKNOWN
            return labels.get(who, "pbox-%s" % (who,))

        cells = []
        for cell in self.rows():
            cells.append({
                "aggressor": label(cell.aggressor),
                "aggressor_psid": (None if cell.aggressor == UNKNOWN
                                   else cell.aggressor),
                "resource": cell.resource,
                "victim": label(cell.victim),
                "victim_psid": cell.victim,
                "blamed_us": cell.total_us,
                "waits": cell.waits,
                "p95_us": cell.p95_us(),
                "actions": cell.actions,
                "penalty_us": cell.penalty_us,
            })
        aggressors = sorted(
            {cell.aggressor for cell in self.cells.values()},
            key=str,
        )
        summary = []
        for aggressor in aggressors:
            recovered = self.recovered_us(aggressor)
            summary.append({
                "aggressor": label(aggressor),
                "aggressor_psid": (None if aggressor == UNKNOWN
                                   else aggressor),
                "blamed_us": self.aggressor_total_us(aggressor),
                "recovered_est_us": recovered,
            })
        return {
            "window_us": [self.first_us, self.last_us],
            "total_blamed_us": self.total_us(),
            "unknown_us": self.unknown_us,
            "cells": cells,
            "aggressors": summary,
        }


class _OpenWait:
    """One victim pBox's in-progress wait on a resource."""

    __slots__ = ("victim", "resource", "start_us", "seg_start_us", "holders")

    def __init__(self, victim, resource, now_us, holders):
        self.victim = victim
        self.resource = resource
        self.start_us = now_us
        self.seg_start_us = now_us
        self.holders = holders     # tuple of psids at segment start


class AttributionProfiler:
    """Bus subscriber maintaining blame matrix + wait-for graphs.

    Attach with :meth:`attach`; everything is rebuilt from tracepoints,
    with no access to kernel or manager internals:

    - pBox-level holder tracking comes from ``pbox.event`` HOLD/UNHOLD;
    - victim waits come from PREPARE -> ENTER windows, split into
      segments whenever the holder set of the contended resource
      changes (so each holder is charged exactly for its tenure);
    - thread-level wait edges come from ``futex.wait`` (which names the
      registered owners of the key) and are cleared on ``futex.wake``;
    - penalties come from ``pbox.detect`` / ``pbox.action`` /
      ``pbox.penalty``.

    Like ``perf record`` / ``perf report``, the attached cost is kept
    off the simulation's critical path: each firing only appends the
    raw record to a log, and the analysis replays the log on the first
    query (any access to :attr:`matrix`, the graphs, :attr:`stats`, or
    a report method).  Replay order equals firing order, so the results
    are identical to online processing.
    """

    def __init__(self, max_cycle_warnings=32):
        self._matrix = BlameMatrix()
        self._pbox_graph = WaitForGraph(max_warnings=max_cycle_warnings)
        self._thread_graph = WaitForGraph(max_warnings=max_cycle_warnings)
        self._pbox_names = {}      # psid -> display name
        self._thread_pbox = {}     # tid -> psid (creation-time binding)
        self._stats = {
            "events": 0,
            "waits_recorded": 0,
            "segments": 0,
            "abandoned_waits": 0,
            "detections": 0,
            "actions": 0,
            "penalties": 0,
            "penalty_us": 0,
            "unknown_thread_waits": 0,
        }
        self._holders = {}         # resource -> {psid: hold count}
        self._last_release = {}    # resource -> (psid, time_us)
        self._open = {}            # (victim psid, resource) -> _OpenWait
        self._pending = []         # raw record log, tag-first tuples
        self._key_labels = {}      # resource key -> cached display label
        self._recorders = None     # built per attach(), see _make_recorders
        self._replay = {
            "pbox.event": self._replay_state_event,
            "futex.wait": self._replay_futex_wait,
            "futex.wake": self._replay_futex_wake,
            "pbox.create": self._replay_create,
            "pbox.release": self._replay_release,
            "pbox.activate": self._replay_activate,
            "pbox.detect": self._replay_detect,
            "pbox.action": self._replay_action,
            "pbox.penalty": self._replay_penalty,
        }
        self._bus = None

    # -- wiring ----------------------------------------------------------

    def attach(self, bus):
        """Subscribe to every tracepoint this profiler understands."""
        if self._recorders is None:
            self._recorders = self._make_recorders()
        for name, recorder in self._recorders.items():
            bus.subscribe(name, recorder)
        self._bus = bus
        return self

    def detach(self):
        """Unsubscribe from the bus (the recorded log stays queryable)."""
        if self._bus is None:
            return
        for name, recorder in self._recorders.items():
            self._bus.unsubscribe(name, recorder)
        self._bus = None

    def _make_recorders(self):
        """Build the fire-time recorder closures.

        These are the profiler's entire attached cost, so they are
        tuned hard: locals prebound as default arguments, and every
        high-volume record flattened to a tuple of atomics (ints and
        interned-ish strings).  Flattening matters twice over -- the
        per-fire kwargs dict dies immediately (keeping CPython's dict
        freelist effective), and the retained tuples become invisible
        to the cyclic GC, whose full collections would otherwise crawl
        the whole log.  Rare points just keep their fields dict.
        """
        append = self._pending.append
        labels = self._key_labels

        def record_state_event(_name, now, fields, append=append,
                               labels=labels, key_label=key_label):
            key = fields.get("key")
            label = labels.get(key)
            if label is None:
                label = labels[key] = key_label(key)
            # ``_value_`` is the member's plain instance attribute; the
            # public ``.value`` is a Python-level descriptor call.
            append(("pbox.event", now, fields["pbox"].psid, label,
                    fields["event"]._value_))

        def record_futex_wait(_name, now, fields, append=append,
                              labels=labels, key_label=key_label):
            key = fields.get("key")
            label = labels.get(key)
            if label is None:
                label = labels[key] = key_label(key)
            holders = fields.get("holders")
            append(("futex.wait", now, fields["tid"], label,
                    tuple(holders) if holders else ()))

        def record_futex_wake(_name, now, fields, append=append):
            woken = fields.get("woken")
            append(("futex.wake", now, tuple(woken) if woken else ()))

        def record_fields(name, now, fields, append=append):
            append((name, now, fields))

        return {
            "pbox.event": record_state_event,
            "futex.wait": record_futex_wait,
            "futex.wake": record_futex_wake,
            "pbox.create": record_fields,
            "pbox.release": record_fields,
            "pbox.activate": record_fields,
            "pbox.detect": record_fields,
            "pbox.action": record_fields,
            "pbox.penalty": record_fields,
        }

    def _drain(self):
        """Replay the raw log through the analysis handlers.

        The log list is cleared in place, never rebound: the recorder
        closures hold a direct reference to its ``append``.
        """
        pending = self._pending
        if not pending:
            return
        replay = self._replay
        for rec in pending:
            replay[rec[0]](rec)
        del pending[:]

    # -- lazily computed views -------------------------------------------

    @property
    def matrix(self):
        """The blame matrix (replays any pending records first)."""
        self._drain()
        return self._matrix

    @property
    def pbox_graph(self):
        """pBox-level wait-for graph (replays pending records first)."""
        self._drain()
        return self._pbox_graph

    @property
    def thread_graph(self):
        """Thread-level wait-for graph (replays pending records first)."""
        self._drain()
        return self._thread_graph

    @property
    def pbox_names(self):
        """``{psid: name}`` seen so far (replays pending records first)."""
        self._drain()
        return self._pbox_names

    @property
    def thread_pbox(self):
        """``{tid: psid}`` creation-time bindings (replays first)."""
        self._drain()
        return self._thread_pbox

    @property
    def stats(self):
        """Event-processing counters (replays pending records first)."""
        self._drain()
        return self._stats

    # -- labels ----------------------------------------------------------

    def label(self, psid):
        """Display name of a pBox (or UNKNOWN)."""
        if psid == UNKNOWN:
            return UNKNOWN
        name = self._pbox_names.get(psid)
        if name is None:
            return "pbox-%s" % (psid,)
        return "%s (pbox %s)" % (name, psid)

    def _node_label(self, node):
        kind, ident = node
        if kind == "pbox":
            return self.label(ident)
        return "thread-%s" % (ident,)

    # -- pBox lifecycle --------------------------------------------------

    def _replay_create(self, rec):
        _, now, fields = rec
        psid = fields["psid"]
        name = fields.get("name")
        if name:
            self._pbox_names[psid] = name
        tid = fields.get("tid")
        if tid is not None:
            self._thread_pbox[tid] = psid
        self._matrix.note_time(now)

    def _replay_release(self, rec):
        _, now, fields = rec
        psid = fields["psid"]
        self._drop_open_waits(psid)
        for holders in self._holders.values():
            holders.pop(psid, None)
        self._pbox_graph.clear_waits(("pbox", psid))
        self._matrix.note_time(now)

    def _replay_activate(self, rec):
        # A pBox starting a new activity is by definition not waiting;
        # mirror the manager's cleanup of stale PREPAREs.
        self._drop_open_waits(rec[2]["psid"])

    def _drop_open_waits(self, psid):
        for slot in [slot for slot in self._open if slot[0] == psid]:
            del self._open[slot]
            self._stats["abandoned_waits"] += 1
        self._pbox_graph.clear_waits(("pbox", psid))

    # -- state events: waits, holds, splitting ---------------------------

    def _replay_state_event(self, rec):
        _, now, psid, resource, event = rec
        self._stats["events"] += 1
        self._matrix.note_time(now)
        if event == "prepare":
            slot = (psid, resource)
            if slot in self._open:
                # Duplicate PREPARE: the matching ENTER was missed.
                del self._open[slot]
                self._stats["abandoned_waits"] += 1
            holders = self._holder_snapshot(resource, exclude=psid)
            self._open[slot] = _OpenWait(psid, resource, now, holders)
            for holder in holders:
                self._pbox_graph.add_wait(("pbox", psid), ("pbox", holder),
                                          resource, now)
        elif event == "enter":
            wait = self._open.pop((psid, resource), None)
            if wait is not None:
                self._close_segment(wait, now)
                self._stats["waits_recorded"] += 1
            self._pbox_graph.clear_waits(("pbox", psid), resource)
        elif event == "hold":
            holders = self._holders.setdefault(resource, {})
            holders[psid] = holders.get(psid, 0) + 1
            self._resegment(resource, now)
        elif event == "unhold":
            holders = self._holders.get(resource)
            if holders and psid in holders:
                holders[psid] -= 1
                if holders[psid] <= 0:
                    del holders[psid]
                if not holders:
                    del self._holders[resource]
            self._last_release[resource] = (psid, now)
            self._resegment(resource, now)

    def _holder_snapshot(self, resource, exclude=None):
        holders = self._holders.get(resource)
        if not holders:
            return ()
        return tuple(psid for psid in holders if psid != exclude)

    def _resegment(self, resource, now):
        """The holder set of ``resource`` changed: split open waits."""
        for wait in self._open.values():
            if wait.resource != resource:
                continue
            self._close_segment(wait, now)
            wait.seg_start_us = now
            wait.holders = self._holder_snapshot(resource,
                                                 exclude=wait.victim)
            for holder in wait.holders:
                self._pbox_graph.add_wait(("pbox", wait.victim),
                                          ("pbox", holder), resource, now)

    def _close_segment(self, wait, now):
        """Attribute one segment of ``wait`` ending at ``now``."""
        duration = now - wait.seg_start_us
        if duration <= 0:
            return
        self._stats["segments"] += 1
        holders = wait.holders
        if holders:
            share = duration / len(holders)
            for holder in holders:
                self._matrix.record_wait(holder, wait.resource, wait.victim,
                                         wait.seg_start_us,
                                         wait.seg_start_us + share)
            return
        releaser = self._last_release.get(wait.resource)
        if releaser is not None and releaser[0] != wait.victim:
            # Nobody holds the resource, but someone released it while
            # (or just before) we waited: the paper's last-releaser rule.
            self._matrix.record_wait(releaser[0], wait.resource, wait.victim,
                                     wait.seg_start_us, now)
        else:
            self._matrix.record_unknown(duration)

    # -- detection / penalty attribution ---------------------------------

    def _replay_detect(self, rec):
        self._stats["detections"] += 1
        self._matrix.note_time(rec[1])

    def _replay_action(self, rec):
        _, now, fields = rec
        self._stats["actions"] += 1
        self._matrix.record_action(
            fields["noisy"].psid, key_label(fields.get("key")),
            fields["victim"].psid, fields["length_us"], now,
        )

    def _replay_penalty(self, rec):
        _, now, fields = rec
        self._stats["penalties"] += 1
        self._stats["penalty_us"] += fields["delay_us"]
        self._matrix.record_penalty(fields["pbox"].psid,
                                    fields["delay_us"], now)

    # -- thread-level wait edges -----------------------------------------

    def _replay_futex_wait(self, rec):
        _, now, tid, resource, holders = rec
        # A thread starting a new wait is no longer in any earlier one
        # (covers wakeups that bypass futex.wake, e.g. timeouts).
        self._thread_graph.clear_waits(("thread", tid))
        if not holders:
            self._stats["unknown_thread_waits"] += 1
            return
        for holder_tid in holders:
            self._thread_graph.add_wait(("thread", tid),
                                        ("thread", holder_tid),
                                        resource, now)

    def _replay_futex_wake(self, rec):
        for tid in rec[2] or ():
            self._thread_graph.clear_waits(("thread", tid))

    # -- reporting -------------------------------------------------------

    def cycle_warnings(self):
        """All recorded wait-for cycles (pBox level, then thread level)."""
        warnings = []
        for graph, level in ((self.pbox_graph, "pbox"),
                             (self.thread_graph, "thread")):
            for warning in graph.cycle_warnings:
                nodes = warning["nodes"]
                warnings.append({
                    "level": level,
                    "at_us": warning["at_us"],
                    "nodes": [self._node_label(node) for node in nodes],
                    "resources": warning["resources"],
                })
        return warnings

    def to_dict(self):
        """JSON-serializable snapshot of everything the profiler knows."""
        labels = {psid: self.label(psid) for psid in self.pbox_names}
        data = self.matrix.to_dict(labels=labels)
        data["cycles"] = self.cycle_warnings()
        data["stats"] = dict(self.stats)
        return data

    def format_report(self, top=20):
        """Human-readable attribution report for the CLI."""
        lines = ["contention attribution", "======================"]
        rows = self.matrix.rows()
        total = self.matrix.total_us()
        if not rows:
            lines.append("(no blamed wait time recorded)")
        else:
            lines.append("blame matrix (top %d of %d cells):"
                         % (min(top, len(rows)), len(rows)))
            lines.append("  %-28s %-26s %-28s %10s %6s %10s %7s %10s" % (
                "aggressor pbox", "resource", "victim pbox",
                "blamed ms", "waits", "p95 ms", "actions", "penalty ms",
            ))
            for cell in rows[:top]:
                lines.append(
                    "  %-28s %-26s %-28s %10.2f %6d %10.2f %7d %10.2f" % (
                        self.label(cell.aggressor), cell.resource,
                        self.label(cell.victim),
                        cell.total_us / 1_000, cell.waits,
                        cell.p95_us() / 1_000, cell.actions,
                        cell.penalty_us / 1_000,
                    )
                )
            lines.append("  total blamed: %.2f ms (+ %.2f ms unattributed)"
                         % (total / 1_000, self.matrix.unknown_us / 1_000))
            aggressors = sorted(
                {cell.aggressor for cell in rows},
                key=lambda agg: -self.matrix.aggressor_total_us(agg),
            )
            lines.append("per-aggressor summary:")
            for aggressor in aggressors:
                blamed = self.matrix.aggressor_total_us(aggressor)
                recovered = self.matrix.recovered_us(aggressor)
                note = ("no penalty taken" if recovered is None
                        else "penalties recovered an estimated %.2f ms "
                             "of blamed wait" % (recovered / 1_000))
                lines.append("  %-28s blamed %10.2f ms   %s"
                             % (self.label(aggressor), blamed / 1_000, note))
        cycles = self.cycle_warnings()
        if cycles:
            lines.append("wait-for cycle warnings:")
            for warning in cycles[:10]:
                lines.append("  [%s @%dus] %s" % (
                    warning["level"], warning["at_us"],
                    " -> ".join(str(n) for n in warning["nodes"]),
                ))
        else:
            lines.append("wait-for graph: no cycles observed")
        return "\n".join(lines)

    def __repr__(self):
        return ("AttributionProfiler(cells=%d, blamed_us=%d, "
                "open_waits=%d)") % (
            len(self.matrix.cells), self.matrix.total_us(), len(self._open),
        )
