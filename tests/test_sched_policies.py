"""Scheduler-seam registry and EEVDF property tests.

The cfs policy is pinned bit for bit by the golden corpus itself
(tests/test_golden_traces.py replays every case through the one
dispatch path, ``RunQueue.pick_for_core``).  This file covers the
policy registry and the eevdf policy, which must honor its invariants
under arbitrary schedules.  The queue-level hypothesis suite drives
push / pick / charge interleavings and pins: virtual clocks never move
backwards, per-thread eligibility/deadline stamps are monotone, picking
is work-conserving (a non-empty feasible queue always yields a thread),
and no thread starves (every continuously-runnable thread is served
within a bounded number of picks).  A full-kernel run re-checks
starvation end to end, and the committed c18/c20 golden pair proves the
policy actually diverges from cfs on a contended case (a pin of a
policy whose schedule never differs would be vacuous).
"""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.kernel import Kernel
from repro.sim.scheduler import (
    Core,
    EevdfRunQueue,
    SCHED_POLICIES,
    make_run_queue,
)
from repro.sim.syscalls import Compute, Sleep
from repro.sim.thread import ThreadState

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _load_golden(case_id):
    with open(os.path.join(GOLDEN_DIR, "%s.json" % case_id)) as handle:
        return json.load(handle)


def test_policy_registry_capabilities():
    assert sorted(SCHED_POLICIES) == ["cfs", "eevdf"]
    with pytest.raises(ValueError):
        make_run_queue("o1-lottery")


def test_eevdf_pin_diverges_from_cfs():
    """The c18/c20 pair differ only in (sched, cores) -- and in digest.

    c20 exists to lock the EEVDF schedule down; that is only a real
    pin because the schedule differs from what cfs produces.  The
    corpus documents carry distinct digests, which this asserts so a
    future change that silently degenerates eevdf into FIFO (it
    happened during development: without the place_entity rule the
    virtual clock outruns every vruntime and deadlines follow arrival
    order exactly) turns the golden pair into a loud failure here.
    """
    cfs_doc = _load_golden("c18")
    eevdf_doc = _load_golden("c20")
    assert eevdf_doc["digest"] != cfs_doc["digest"]


# ---------------------------------------------------------------------------
# EEVDF queue-level invariants under hypothesis.


class _FakeThread:
    """The thread-field slice the scheduler protocol is allowed to read."""

    __slots__ = ("tid", "state", "affinity", "demoted_until_us",
                 "vruntime_us", "v_eligible_us", "v_deadline_us")

    def __init__(self, tid):
        self.tid = tid
        self.state = ThreadState.NEW
        self.affinity = None
        self.demoted_until_us = 0
        self.vruntime_us = 0
        self.v_eligible_us = 0
        self.v_deadline_us = 0

    def __repr__(self):
        return "F%d" % self.tid


#: One scripted step: either push thread ``i`` (if not queued) or pick
#: a thread and charge it ``ran_us`` of service, re-queueing it.
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 5)),
        st.tuples(st.just("pick"), st.integers(1, 2_000)),
    ),
    min_size=1, max_size=200,
)


@settings(max_examples=80, deadline=None)
@given(steps=_STEPS)
def test_eevdf_clocks_and_stamps_are_monotone(steps):
    """vtime, per-thread vruntime, and per-thread stamps never regress,
    and picking is work-conserving on an unconstrained queue."""
    queue = EevdfRunQueue(slice_us=1_000)
    core = Core(0)
    threads = {i: _FakeThread(i) for i in range(6)}
    queued = set()
    last_stamp = {}
    for op, arg in steps:
        vtime_before = queue.vtime_us
        if op == "push":
            if arg in queued:
                continue
            thread = threads[arg]
            vruntime_before = thread.vruntime_us
            queue.push(thread)
            queued.add(arg)
            assert thread.vruntime_us >= vruntime_before
            stamp = (thread.v_eligible_us, thread.v_deadline_us)
            previous = last_stamp.get(arg)
            if previous is not None:
                assert stamp >= previous, (
                    "re-push moved thread %d's stamps backwards" % arg)
            last_stamp[arg] = stamp
            assert thread.v_deadline_us == \
                thread.v_eligible_us + queue.slice_us
        else:
            picked = queue.pick_for_core(core)
            if not queued:
                assert picked is None
                continue
            # Work conservation: every queued thread is feasible here.
            assert picked is not None
            queued.discard(picked.tid)
            queue.charge(picked, arg)
            assert picked.vruntime_us >= picked.v_eligible_us
        assert queue.vtime_us >= vtime_before, "virtual clock regressed"


@settings(max_examples=40, deadline=None)
@given(population=st.integers(2, 8), ran_us=st.integers(1, 1_500),
       rounds=st.integers(30, 120))
def test_eevdf_no_starvation_uniform_service(population, ran_us, rounds):
    """Under homogeneous slices, every thread is served every window.

    Each pick charges the same service amount and immediately re-queues
    the thread (the saturated-CPU steady state with equal demand --
    what the kernel produces, since it charges actual CPU consumed,
    capped by one quantum).  A waiting thread's deadline is fixed while
    everyone else's grows with service, so any window of ``2 *
    population`` consecutive picks must serve every thread at least
    once; pick-count starvation would mean the deadline ordering broke.
    """
    queue = EevdfRunQueue(slice_us=1_000)
    core = Core(0)
    threads = [_FakeThread(i) for i in range(population)]
    for thread in threads:
        queue.push(thread)
    window = []
    for _ in range(rounds):
        picked = queue.pick_for_core(core)
        assert picked is not None
        queue.charge(picked, ran_us)
        queue.push(picked)
        window.append(picked.tid)
        if len(window) >= 2 * population:
            recent = set(window[-2 * population:])
            assert recent == set(range(population)), (
                "threads %s starved over a %d-pick window"
                % (sorted(set(range(population)) - recent),
                   2 * population))


@settings(max_examples=60, deadline=None)
@given(population=st.integers(2, 8),
       charges=st.lists(st.integers(1, 1_500), min_size=20, max_size=120))
def test_eevdf_service_lag_is_bounded(population, charges):
    """Heterogeneous service keeps vruntime spread bounded (no
    starvation in service units).

    With per-pick service amounts chosen adversarially, pick *counts*
    are legitimately uneven (EEVDF equalizes service, not picks), but
    the service spread may not diverge: the picked thread always holds
    the globally minimum eligible stamp, so after its charge it can
    overshoot the laggard by at most one charge; the place rule keeps
    re-entering threads pinned to the virtual clock.  Unbounded spread
    is exactly what starvation looks like in service units.
    """
    queue = EevdfRunQueue(slice_us=1_000)
    core = Core(0)
    threads = [_FakeThread(i) for i in range(population)]
    for thread in threads:
        queue.push(thread)
    bound = max(charges) + queue.slice_us
    for ran_us in charges:
        picked = queue.pick_for_core(core)
        assert picked is not None
        queue.charge(picked, ran_us)
        queue.push(picked)
        spread = max(t.vruntime_us for t in threads) \
            - min(t.vruntime_us for t in threads)
        assert spread <= bound, (
            "service spread %d exceeded bound %d: some thread is "
            "falling ever further behind" % (spread, bound))


def test_eevdf_latecomer_leapfrogs_overserved_thread():
    """A fresh thread outranks one that ran past its fair share.

    Divergence from FIFO needs run-queue contention: with a competitor
    queued, the virtual clock advances at half the hog's service rate,
    so the hog's re-push stamps land a full slice *ahead* of the clock
    while a latecomer is placed *at* the clock with an earlier
    deadline.  (A lone runner accrues zero lag -- the clock tracks it
    at full rate -- which is why the c20 golden pins a saturated
    3-core case.)
    """
    queue = EevdfRunQueue(slice_us=1_000)
    core = Core(0)
    hog, waiter, latecomer = (_FakeThread(i) for i in range(3))
    queue.push(hog)
    queue.push(waiter)
    picked = queue.pick_for_core(core)
    assert picked is hog  # deadline tie -> arrival order
    queue.charge(hog, 1_000)
    queue.push(hog)  # hog now a full slice ahead of the virtual clock
    queue.push(latecomer)
    order = [queue.pick_for_core(core).tid for _ in range(3)]
    assert order.index(latecomer.tid) < order.index(hog.tid), (
        "expected the latecomer to be served before the over-served "
        "hog, got pick order %s" % order)


def test_eevdf_demoted_threads_yield_to_normal_ones():
    queue = EevdfRunQueue(slice_us=1_000)
    core = Core(0)
    demoted, normal = _FakeThread(0), _FakeThread(1)
    queue.push(demoted)
    queue.push(normal)
    demoted.demoted_until_us = 10 ** 9  # demoted far past _now() == 0
    assert queue.pick_for_core(core) is normal
    assert queue.pick_for_core(core) is demoted  # fallback when alone
    assert queue.pick_for_core(core) is None


def test_eevdf_respects_affinity_and_reservation():
    queue = EevdfRunQueue(slice_us=1_000)
    pinned = _FakeThread(0)
    pinned.affinity = {1}
    queue.push(pinned)
    core0, core1 = Core(0), Core(1)
    assert queue.pick_for_core(core0) is None
    assert queue.pick_for_core(core1) is pinned
    reserved_core = Core(0)
    reserved_core.reserved_for = "tenant-x"
    outsider = _FakeThread(1)
    queue.push(outsider)
    assert queue.pick_for_core(reserved_core) is None
    assert queue.pick_for_core(core0) is outsider


# ---------------------------------------------------------------------------
# Full-kernel EEVDF: end-to-end starvation check on a saturated core.


def test_eevdf_full_kernel_serves_every_thread():
    """On one eevdf core, compute hogs cannot starve periodic sleepers."""
    kernel = Kernel(cores=1, seed=7, sched="eevdf")
    progress = {"hog": 0, "sleeper": 0}

    def hog():
        for _ in range(200):
            yield Compute(us=900)
            progress["hog"] += 1

    def sleeper():
        for _ in range(50):
            yield Sleep(us=500)
            yield Compute(us=100)
            progress["sleeper"] += 1

    kernel.spawn(hog, name="hog-a")
    kernel.spawn(hog, name="hog-b")
    kernel.spawn(sleeper, name="sleeper")
    kernel.run(until_us=150_000)
    assert progress["hog"] > 0
    assert progress["sleeper"] >= 40, (
        "the sleeper made only %d/50 iterations by 150ms on a "
        "saturated eevdf core -- it is being starved"
        % progress["sleeper"])


def test_eevdf_full_kernel_deterministic():
    """Same seed + sched -> byte-identical final kernel state."""

    def build_and_run():
        kernel = Kernel(cores=2, seed=3, sched="eevdf")
        done = []

        def worker(i):
            def body():
                for _ in range(20 + i):
                    yield Compute(us=150 + 17 * i)
                    yield Sleep(us=40)
                done.append(i)
            return body

        for i in range(6):
            kernel.spawn(worker(i), name="w%d" % i)
        kernel.run(until_us=100_000)
        return done, kernel.now_us, dict(kernel.stats), \
            kernel.run_queue.snapshot_state()["vtime_us"]

    assert build_and_run() == build_and_run()
