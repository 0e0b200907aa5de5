"""Span reconstruction: from tracepoint firings to timelines.

A :class:`SpanRecorder` subscribes to the tracepoint bus and rebuilds
what a kernel tracer like Perfetto would show for a real run:

- **thread tracks** (one per SimThread): running slices, futex waits,
  timed sleeps, cgroup throttling, injected penalty delays;
- **pBox lanes** (one per psid): activity windows (activate -> freeze),
  per-resource defer and hold spans, detection/action instants, and
  penalty spans;
- **flow events** linking each Algorithm 1 detection to the penalty it
  eventually caused (the manager threads a flow id from ``pbox.detect``
  through ``pbox.action`` to ``pbox.penalty``).

All timestamps are virtual microseconds, which maps 1:1 onto the
Chrome trace-event ``ts`` field (see :mod:`repro.obs.export`).
"""

from repro.obs.tracepoints import key_label

#: Track kinds; the exporter maps these to Chrome pids.
THREAD_TRACK = "thread"
PBOX_TRACK = "pbox"


class SpanRecorder:
    """Rebuilds spans, instants and flows from bus tracepoints.

    Parameters
    ----------
    max_events:
        Hard cap on recorded primitives.  Once reached, recording stops
        and ``truncated`` is set -- the exporter surfaces this rather
        than silently dropping the tail.
    record_slices:
        Record every CPU slice as a span.  Slices dominate event volume
        on long runs; disable to keep only waits/pBox activity.
    """

    def __init__(self, max_events=500_000, record_slices=True):
        self.max_events = max_events
        self.record_slices = record_slices
        self.spans = []        # (track, tid, name, cat, start_us, dur_us, args)
        self.instants = []     # (track, tid, name, cat, ts_us, args)
        self.flow_starts = []  # (track, tid, flow_id, ts_us)
        self.flow_ends = []    # (track, tid, flow_id, ts_us)
        self.thread_names = {}
        self.pbox_ids = set()
        self.truncated = False
        self._bus = None
        self._open = {}        # (track, tid, slot) -> (name, cat, start, args)
        self._seen_flows = set()
        # Fire-time caches: the cap test counts appends instead of
        # summing four lengths, each resource key renders its label and
        # slot names once, and each core shares one ``{"core": i}``
        # span-args dict (consumers copy args; see export._clean_args).
        self._emitted = 0
        self._vres_slots = {}  # key -> (defer slot, name, hold slot, name)
        self._futex_names = {}  # key -> "futex:<label>"
        self._core_args = {}   # core -> {"core": core}

    # -- wiring ----------------------------------------------------------

    def attach(self, bus):
        """Subscribe to every tracepoint this recorder understands."""
        handlers = {
            "sched.switch": self._on_switch,
            "sched.switchout": self._on_switchout,
            "sched.enqueue": self._on_enqueue,
            "sched.sleep": self._on_sleep,
            "futex.wait": self._on_futex_wait,
            "cgroup.throttle": self._on_throttle,
            "cgroup.unthrottle": self._on_unthrottle,
            "penalty.inject": self._on_penalty_inject,
            "pbox.create": self._on_pbox_create,
            "pbox.activate": self._on_activate,
            "pbox.freeze": self._on_freeze,
            "pbox.event": self._on_pbox_event,
            "pbox.detect": self._on_detect,
            "pbox.action": self._on_action,
            "pbox.penalty": self._on_penalty,
            "pool.enqueue": self._on_pool_enqueue,
            "pool.dispatch": self._on_pool_dispatch,
            "req.begin": self._on_req_begin,
            "req.end": self._on_req_end,
            "req.serve": self._on_req_serve,
            "req.done": self._on_req_done,
        }
        self._handlers = handlers
        for name, handler in handlers.items():
            bus.subscribe(name, handler)
        self._bus = bus
        return self

    def detach(self):
        """Unsubscribe from the bus."""
        if self._bus is None:
            return
        for name, handler in self._handlers.items():
            self._bus.unsubscribe(name, handler)
        self._bus = None

    @property
    def event_count(self):
        """Total primitives recorded so far."""
        return (len(self.spans) + len(self.instants)
                + len(self.flow_starts) + len(self.flow_ends))

    # -- primitive emission ----------------------------------------------

    def _room(self):
        """Claim one primitive; False (and ``truncated``) at the cap."""
        if self._emitted >= self.max_events:
            self.truncated = True
            return False
        self._emitted += 1
        return True

    def _span(self, track, tid, name, cat, start, end, args=None):
        if self._room():
            self.spans.append((track, tid, name, cat, start,
                               end - start if end > start else 0, args))

    def _instant(self, track, tid, name, cat, ts, args=None):
        if self._room():
            self.instants.append((track, tid, name, cat, ts, args))

    def _close_span(self, track, tid, slot, end):
        # The hot close path: _room() and _span() inlined.
        opened = self._open.pop((track, tid, slot), None)
        if opened is None:
            return
        if self._emitted >= self.max_events:
            self.truncated = True
            return
        self._emitted += 1
        name, cat, start, args = opened
        self.spans.append((track, tid, name, cat, start,
                           end - start if end > start else 0, args))

    # -- scheduler / kernel ----------------------------------------------

    def _on_switch(self, _name, now, fields):
        tid = fields["tid"]
        names = self.thread_names
        if tid not in names:
            names[tid] = fields.get("name") or "thread-%d" % tid
        if self.record_slices:
            core = fields.get("core")
            args = self._core_args.get(core)
            if args is None:
                args = self._core_args[core] = {"core": core}
            self._open[(THREAD_TRACK, tid, "run")] = (
                "running", "sched", now, args)

    def _on_switchout(self, _name, now, fields):
        self._close_span(THREAD_TRACK, fields["tid"], "run", now)

    def _on_enqueue(self, _name, now, fields):
        self._close_span(THREAD_TRACK, fields["tid"], "wait", now)

    def _on_sleep(self, _name, now, fields):
        self._open[(THREAD_TRACK, fields["tid"], "wait")] = (
            "sleep", "sched", now, {"us": fields.get("us")})

    def _on_futex_wait(self, _name, now, fields):
        key = fields.get("key")
        name = self._futex_names.get(key)
        if name is None:
            name = self._futex_names[key] = "futex:%s" % key_label(key)
        self._open[(THREAD_TRACK, fields["tid"], "wait")] = (
            name, "futex", now, None)

    def _on_throttle(self, _name, now, fields):
        self._open[(THREAD_TRACK, fields["tid"], "wait")] = (
            "throttled:%s" % fields.get("group"), "cgroup", now, None)

    def _on_unthrottle(self, _name, now, fields):
        for tid in fields["tids"]:
            self._close_span(THREAD_TRACK, tid, "wait", now)

    def _on_penalty_inject(self, _name, now, fields):
        self._span(THREAD_TRACK, fields["tid"], "pbox penalty", "penalty",
                   now, now + fields["delay_us"],
                   {"psid": fields.get("psid")})

    # -- pBox lanes ------------------------------------------------------

    def _on_pbox_create(self, _name, _now, fields):
        self.pbox_ids.add(fields["psid"])

    def _on_activate(self, _name, now, fields):
        psid = fields["psid"]
        self.pbox_ids.add(psid)
        self._open[(PBOX_TRACK, psid, "activity")] = (
            "activity", "pbox", now, None)

    def _on_freeze(self, _name, now, fields):
        psid = fields["psid"]
        args = {"defer_us": fields.get("defer_us"),
                "exec_us": fields.get("exec_us")}
        opened = self._open.pop((PBOX_TRACK, psid, "activity"), None)
        if opened is None:
            return
        name, cat, start, _ = opened
        self._span(PBOX_TRACK, psid, name, cat, start, now, args)

    def _on_pbox_event(self, _name, now, fields):
        psid = fields["pbox"].psid
        self.pbox_ids.add(psid)
        key = fields.get("key")
        slots = self._vres_slots.get(key)
        if slots is None:
            label = key_label(key)
            slots = self._vres_slots[key] = (
                ("defer", label), "defer:%s" % label,
                ("hold", label), "hold:%s" % label)
        # ``_value_`` is the member's plain attribute; ``.value`` is a
        # Python-level descriptor call on every state event.
        event = fields["event"]._value_
        if event == "prepare":
            self._open[(PBOX_TRACK, psid, slots[0])] = (
                slots[1], "vres", now, None)
        elif event == "enter":
            self._close_span(PBOX_TRACK, psid, slots[0], now)
        elif event == "hold":
            self._open[(PBOX_TRACK, psid, slots[2])] = (
                slots[3], "vres", now, None)
        elif event == "unhold":
            self._close_span(PBOX_TRACK, psid, slots[2], now)

    def _on_detect(self, _name, now, fields):
        noisy = fields["noisy"]
        victim = fields["victim"]
        args = {"victim": victim.psid, "key": key_label(fields.get("key"))}
        self._instant(PBOX_TRACK, noisy.psid, "detect", "pbox", now, args)
        flow = fields.get("flow")
        if flow is not None and self._room():
            self.flow_starts.append((PBOX_TRACK, noisy.psid, flow, now))
            self._seen_flows.add(flow)

    def _on_action(self, _name, now, fields):
        noisy = fields["noisy"]
        args = {"victim": fields["victim"].psid,
                "length_us": fields["length_us"],
                "key": key_label(fields.get("key"))}
        self._instant(PBOX_TRACK, noisy.psid, "action", "pbox", now, args)

    def _on_penalty(self, _name, now, fields):
        pbox = fields["pbox"]
        psid = pbox.psid
        delay = fields["delay_us"]
        self._span(PBOX_TRACK, psid, "penalty", "penalty", now,
                   now + delay, {"mode": fields.get("mode")})
        flow = fields.get("flow")
        if flow is not None and flow in self._seen_flows and self._room():
            self.flow_ends.append((PBOX_TRACK, psid, flow, now))

    # -- event-driven pools ----------------------------------------------

    def _on_pool_enqueue(self, _name, now, fields):
        psid = fields.get("psid")
        if psid is not None and psid >= 0:
            self.pbox_ids.add(psid)
            self._open[(PBOX_TRACK, psid, "queued")] = (
                "queued:%s" % fields.get("pool"), "pool", now, None)

    def _on_pool_dispatch(self, _name, now, fields):
        psid = fields.get("psid")
        if psid is not None and psid >= 0:
            self._close_span(PBOX_TRACK, psid, "queued", now)

    # -- request lanes ---------------------------------------------------

    def _on_req_begin(self, _name, now, fields):
        tid = fields["tid"]
        rid = fields["rid"]
        self._open[(THREAD_TRACK, tid, "req")] = (
            "req %d" % rid, "req", now,
            {"rid": rid, "tenant": fields.get("tenant")})
        # Flow start: paired with the worker-side req.serve when the
        # request runs on an event-driven pool (dedicated-thread
        # requests stay unpaired and are filtered by the exporter).
        if self._room():
            self.flow_starts.append((THREAD_TRACK, tid, "req-%d" % rid, now))

    def _on_req_end(self, _name, now, fields):
        self._close_span(THREAD_TRACK, fields["tid"], "req", now)

    def _on_req_serve(self, _name, now, fields):
        tid = fields["tid"]
        rid = fields["rid"]
        self._open[(THREAD_TRACK, tid, ("serve", rid))] = (
            "serve %d" % rid, "req", now,
            {"rid": rid, "pool": fields.get("pool"),
             "queued_us": fields.get("queued_us")})
        if self._room():
            self.flow_ends.append((THREAD_TRACK, tid, "req-%d" % rid, now))

    def _on_req_done(self, _name, now, fields):
        self._close_span(THREAD_TRACK, fields["tid"],
                         ("serve", fields["rid"]), now)

    # -- introspection ---------------------------------------------------

    def paired_flows(self):
        """Flow ids that have both a start (detect) and an end (penalty)."""
        started = {flow for _, _, flow, _ in self.flow_starts}
        ended = {flow for _, _, flow, _ in self.flow_ends}
        return started & ended

    def __repr__(self):
        return ("SpanRecorder(spans=%d, instants=%d, flows=%d/%d, "
                "truncated=%s)") % (
            len(self.spans), len(self.instants), len(self.flow_starts),
            len(self.flow_ends), self.truncated,
        )
