"""Tests for the span recorder and Chrome trace-event exporter."""

import hashlib
import json
from types import SimpleNamespace

import pytest

from repro.cases import Solution, get_case, run_case
from repro.core import IsolationRule, PBoxManager, StateEvent
from repro.core.trace import PBoxTracer
from repro.obs import (
    FoldedProfile,
    SpanRecorder,
    chrome_trace,
    chrome_trace_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.sim import Kernel, Sleep
from repro.sim.thread import reset_thread_ids


def run_interference_scenario():
    """Two pBoxes, one detection -> penalty chain, spans recorded."""
    kernel = Kernel(cores=4)
    recorder = SpanRecorder()
    recorder.attach(kernel.trace)
    manager = PBoxManager(kernel)
    rule = IsolationRule(isolation_level=50)

    def noisy():
        pbox = manager.create(rule)
        manager.activate(pbox)
        manager.update(pbox, "res", StateEvent.HOLD)
        yield Sleep(us=50_000)
        manager.update(pbox, "res", StateEvent.UNHOLD)
        manager.freeze(pbox)
        yield Sleep(us=1_000)

    def victim():
        yield Sleep(us=1_000)
        pbox = manager.create(rule)
        manager.activate(pbox)
        manager.update(pbox, "res", StateEvent.PREPARE)
        yield Sleep(us=60_000)
        manager.update(pbox, "res", StateEvent.ENTER)
        manager.freeze(pbox)

    kernel.spawn(noisy, name="noisy")
    kernel.spawn(victim, name="victim")
    kernel.run(until_us=300_000)
    return recorder, manager


def test_recorder_builds_thread_and_pbox_tracks():
    recorder, manager = run_interference_scenario()
    assert set(recorder.thread_names.values()) >= {"noisy", "victim"}
    assert recorder.pbox_ids == {1, 2}
    assert manager.stats["detections"] >= 1
    span_names = {name for _track, _tid, name, *_rest in recorder.spans}
    assert "running" in span_names            # CPU slices
    assert "activity" in span_names           # activate -> freeze
    assert any(name.startswith("hold:") for name in span_names)
    assert any(name.startswith("defer:") for name in span_names)
    assert "pbox penalty" in span_names       # injected delay


def test_recorder_pairs_detection_and_penalty_flows():
    recorder, _manager = run_interference_scenario()
    assert len(recorder.flow_starts) >= 1
    assert len(recorder.paired_flows()) >= 1
    instant_names = {name for _t, _tid, name, *_rest in recorder.instants}
    assert {"detect", "action"} <= instant_names


def test_exporter_event_schema():
    recorder, _manager = run_interference_scenario()
    events = chrome_trace_events(recorder)
    summary = validate_chrome_trace(events)
    assert summary["by_phase"]["M"] >= 4  # 2 processes + threads + pboxes
    assert summary["by_phase"]["X"] > 0
    assert summary["by_phase"]["i"] >= 2
    assert summary["flows_paired"] >= 1
    for event in events:
        assert set(event) >= {"ph", "pid", "tid"}
        if event["ph"] == "X":
            assert event["ts"] >= 0 and event["dur"] >= 0
        if event["ph"] in ("s", "f"):
            assert event["cat"] == "pbox-flow"
    # Flow starts and finishes use matched ids, finishes bind to the
    # enclosing slice (bp: "e").
    starts = {e["id"] for e in events if e["ph"] == "s"}
    ends = {e["id"] for e in events if e["ph"] == "f"}
    assert starts == ends
    assert all(e.get("bp") == "e" for e in events if e["ph"] == "f")


def test_exporter_trace_object_and_file_roundtrip(tmp_path):
    recorder, _manager = run_interference_scenario()
    obj = chrome_trace(recorder, case_id="manual")
    assert obj["otherData"]["case"] == "manual"
    assert obj["displayTimeUnit"] == "ms"
    path = write_chrome_trace(recorder, str(tmp_path / "t.json"),
                              case_id="manual")
    with open(path) as handle:
        loaded = json.load(handle)
    assert validate_chrome_trace(loaded)["events"] == len(obj["traceEvents"])


def test_exporter_drops_unpaired_flow_events():
    # A detection whose penalty never landed leaves a dangling flow
    # start; the exporter must omit it so Perfetto's importer (which
    # rejects finishes without starts and warns on the reverse) always
    # gets matched pairs.
    recorder, _manager = run_interference_scenario()
    recorder.flow_starts.append(("thread", 1, "dangling-flow", 123))
    events = chrome_trace_events(recorder)
    flow_ids = [e["id"] for e in events if e["ph"] in ("s", "f")]
    assert "dangling-flow" not in flow_ids
    assert validate_chrome_trace(events)["flows_paired"] >= 1


def test_flow_pairs_share_id_and_are_causally_ordered():
    recorder, _manager = run_interference_scenario()
    events = chrome_trace_events(recorder)
    starts = {e["id"]: e for e in events if e["ph"] == "s"}
    ends = {e["id"]: e for e in events if e["ph"] == "f"}
    assert starts and set(starts) == set(ends)
    for flow, start in starts.items():
        end = ends[flow]
        assert start["name"] == end["name"] == "detection->penalty"
        # Detection happens at or before the penalty it caused.
        assert start["ts"] <= end["ts"]


def test_validate_rejects_malformed_traces():
    with pytest.raises(ValueError):
        validate_chrome_trace("nope")
    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": "nope"})
    with pytest.raises(ValueError):
        validate_chrome_trace([{"ph": "X", "pid": 1, "tid": 1,
                                "name": "a", "ts": 0}])  # missing dur
    with pytest.raises(ValueError):
        validate_chrome_trace([{"ph": "i", "pid": 1, "tid": 1,
                                "name": "a"}])  # missing ts
    with pytest.raises(ValueError):
        # Flow finish without a start.
        validate_chrome_trace([
            {"ph": "f", "pid": 1, "tid": 1, "name": "fl", "ts": 0, "id": 9},
        ])


def test_recorder_truncates_at_cap():
    recorder = SpanRecorder(max_events=5)
    for index in range(10):
        recorder._span("thread", 1, "s%d" % index, "test", index, index + 1)
    assert recorder.truncated is True
    assert recorder.event_count == 5
    obj = chrome_trace(recorder)
    assert "truncated" in obj["otherData"]


def test_recorder_truncates_flow_appends_at_cap():
    # Flow starts count toward the cap too: req.begin appends one per
    # request, pbox.detect an instant plus a flow start.
    kernel = Kernel(cores=1)
    recorder = SpanRecorder(max_events=4).attach(kernel.trace)
    begin = kernel.trace.point("req.begin")
    detect = kernel.trace.point("pbox.detect")
    noisy, victim = SimpleNamespace(psid=1), SimpleNamespace(psid=2)
    for rid in range(2):
        begin.fire(rid, tid=7, rid=rid)
    assert recorder.truncated is False
    detect.fire(10, noisy=noisy, victim=victim, key="res", flow=1)
    assert recorder.truncated is False
    assert recorder.event_count == 4     # 2 req flows + instant + flow
    detect.fire(11, noisy=noisy, victim=victim, key="res", flow=2)
    begin.fire(12, tid=7, rid=9)
    assert recorder.truncated is True
    assert recorder.event_count == recorder.max_events
    assert len(recorder.flow_starts) == 3
    assert recorder.paired_flows() == set()


#: sha256 of the canonical JSON of c5's Chrome trace events and of its
#: folded profile lines (pBox, seed 1, 2 s, CPU slices recorded).  They
#: pin the recorder's whole output: any change to what it records, or
#: in what order, moves them.
C5_CHROME_EVENTS_SHA256 = (
    "bc12a9febe83792ec6de4403e7edc5a987d036af244734f60fa0f6b23b8a8ccd")
C5_FOLDED_LINES_SHA256 = (
    "c798849ed8242937ddbc0842bb5cfa3c164b19e491bec961aada90964e2b1b13")


def _sha256_json(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_recorder_output_pinned_on_c5():
    reset_thread_ids()   # tids appear in the trace; start from 1
    recorder = SpanRecorder(record_slices=True)
    run_case(get_case("c5"), Solution.PBOX, duration_s=2, seed=1,
             observer=lambda env: recorder.attach(env.kernel.trace))
    assert recorder.truncated is False
    assert _sha256_json(chrome_trace_events(recorder)) \
        == C5_CHROME_EVENTS_SHA256
    folded = list(FoldedProfile.from_recorder(recorder).folded_lines())
    assert _sha256_json(folded) == C5_FOLDED_LINES_SHA256


def test_recorder_detach_stops_recording():
    kernel = Kernel(cores=1)
    recorder = SpanRecorder()
    recorder.attach(kernel.trace)
    recorder.detach()
    assert not any(kernel.trace.enabled(n) for n in kernel.trace.names())


def test_recorder_and_tracer_coexist_on_one_bus():
    kernel = Kernel(cores=4)
    recorder = SpanRecorder().attach(kernel.trace)
    tracer = PBoxTracer()
    manager = PBoxManager(kernel, tracer=tracer)
    rule = IsolationRule(isolation_level=50)

    def body():
        pbox = manager.create(rule)
        manager.activate(pbox)
        manager.update(pbox, "k", StateEvent.HOLD)
        yield Sleep(us=1_000)
        manager.update(pbox, "k", StateEvent.UNHOLD)
        manager.freeze(pbox)

    kernel.spawn(body, name="t")
    kernel.run(until_us=10_000)
    assert tracer.event_counts["hold"] == 1
    assert recorder.pbox_ids == {1}
