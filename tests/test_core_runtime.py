"""Unit tests for the user-level pBox runtime library (Section 5)."""

from repro.core import (
    BindFlag,
    IsolationRule,
    OperationCosts,
    PBoxManager,
    PBoxRuntime,
    StateEvent,
)
from repro.sim import Compute, Kernel, Now, Sleep


def make_runtime(**kwargs):
    kernel = Kernel(cores=2)
    manager = PBoxManager(kernel)
    runtime = PBoxRuntime(manager, costs=OperationCosts.zero(), **kwargs)
    return kernel, manager, runtime


def test_create_binds_current_thread():
    kernel, manager, runtime = make_runtime()
    rule = IsolationRule(isolation_level=50)
    out = {}

    def body():
        psid = runtime.create_pbox(rule)
        out["psid"] = psid
        out["current"] = runtime.get_current_pbox()
        yield Compute(us=10)

    kernel.spawn(body)
    kernel.run()
    assert out["psid"] == out["current"] > 0


def test_hold_unhold_matching_saves_syscalls():
    kernel, manager, runtime = make_runtime()
    rule = IsolationRule(isolation_level=50)

    def body():
        runtime.create_pbox(rule)
        runtime.activate_pbox()
        runtime.update_pbox("res", StateEvent.HOLD)
        runtime.update_pbox("res", StateEvent.HOLD)      # redundant
        runtime.update_pbox("res", StateEvent.UNHOLD)
        runtime.update_pbox("res", StateEvent.UNHOLD)    # redundant
        runtime.freeze_pbox()
        yield Compute(us=10)

    kernel.spawn(body)
    kernel.run()
    assert runtime.stats["update_calls"] == 4
    assert runtime.stats["update_syscalls"] == 2
    assert runtime.stats["saved_syscalls"] == 2
    assert runtime.syscall_savings() == 0.5


def test_update_outside_active_activity_is_not_traced():
    kernel, manager, runtime = make_runtime()
    rule = IsolationRule(isolation_level=50)
    out = {}

    def body():
        psid = runtime.create_pbox(rule)
        # Not activated: PREPARE/ENTER must not accumulate defer.
        runtime.update_pbox("res", StateEvent.PREPARE)
        yield Sleep(us=1_000)
        runtime.update_pbox("res", StateEvent.ENTER)
        out["defer"] = manager.get(psid).defer_time_us
        yield Compute(us=10)

    kernel.spawn(body)
    kernel.run()
    assert out["defer"] == 0


def test_call_filter_drops_updates():
    kernel, manager, runtime = make_runtime(
        call_filter=lambda key, event: False
    )
    rule = IsolationRule(isolation_level=50)

    def body():
        runtime.create_pbox(rule)
        runtime.activate_pbox()
        runtime.update_pbox("res", StateEvent.HOLD)
        yield Compute(us=10)

    kernel.spawn(body)
    kernel.run()
    assert runtime.stats["update_syscalls"] == 0
    assert manager.stats["events"] == 0


def test_disabled_runtime_is_noop():
    kernel, manager, runtime = make_runtime(enabled=False)
    rule = IsolationRule(isolation_level=50)
    out = {}

    def body():
        out["psid"] = runtime.create_pbox(rule)
        runtime.update_pbox("res", StateEvent.HOLD)
        yield Compute(us=10)

    kernel.spawn(body)
    kernel.run()
    assert out["psid"] == -1
    assert manager.pboxes() == []


def test_lazy_unbind_rebind_same_pbox_skips_syscalls():
    kernel, manager, runtime = make_runtime()
    rule = IsolationRule(isolation_level=50)
    out = {}

    def body():
        psid = runtime.create_pbox(rule)
        runtime.activate_pbox()
        runtime.unbind_pbox("conn-1", BindFlag.SHARED_THREAD)
        # Tracing is paused while detached.
        runtime.update_pbox("res", StateEvent.PREPARE)
        rebound = runtime.bind_pbox("conn-1", BindFlag.SHARED_THREAD)
        out["rebound"] = rebound
        out["psid"] = psid
        yield Compute(us=10)

    kernel.spawn(body)
    kernel.run()
    assert out["rebound"] == out["psid"]
    assert runtime.stats["lazy_rebinds"] == 1
    assert manager.stats["events"] == 0  # the detached PREPARE was dropped


def test_bind_transfers_pbox_across_threads():
    kernel, manager, runtime = make_runtime()
    rule = IsolationRule(isolation_level=50)
    out = {}

    def producer():
        psid = runtime.create_pbox(rule)
        out["psid"] = psid
        runtime.unbind_pbox("conn-9", BindFlag.SHARED_THREAD)
        yield Compute(us=10)

    def worker():
        yield Sleep(us=1_000)
        psid = runtime.bind_pbox("conn-9", BindFlag.SHARED_THREAD)
        out["bound"] = psid
        out["current"] = runtime.get_current_pbox()
        yield Compute(us=10)

    kernel.spawn(producer)
    kernel.spawn(worker)
    kernel.run()
    assert out["bound"] == out["psid"]
    assert out["current"] == out["psid"]
    assert runtime.stats["lazy_rebinds"] == 0
    pbox = manager.get(out["psid"])
    assert pbox.shared_thread is True


def test_bind_unknown_key_returns_minus_one():
    kernel, manager, runtime = make_runtime()
    out = {}

    def body():
        out["psid"] = runtime.bind_pbox("nope")
        yield Compute(us=10)

    kernel.spawn(body)
    kernel.run()
    assert out["psid"] == -1


def test_operation_costs_charged_to_thread():
    kernel = Kernel(cores=1)
    manager = PBoxManager(kernel)
    # 1 us per create so the charge is visible in integer microseconds.
    costs = OperationCosts(create_ns=1_000, activate_ns=0, freeze_ns=0,
                           release_ns=0, bind_ns=0, unbind_ns=0,
                           update_ns=0, update_contended_ns=0, library_ns=0)
    runtime = PBoxRuntime(manager, costs=costs)
    rule = IsolationRule(isolation_level=50)
    out = {}

    def body():
        runtime.create_pbox(rule)
        yield Sleep(us=100)
        out["t"] = yield Now()

    kernel.spawn(body)
    kernel.run()
    # 1 us of charged compute + 100 us sleep.
    assert out["t"] == 101


def test_fractional_costs_accumulate():
    kernel = Kernel(cores=1)
    manager = PBoxManager(kernel)
    costs = OperationCosts(create_ns=0, activate_ns=0, freeze_ns=0,
                           release_ns=0, bind_ns=0, unbind_ns=0,
                           update_ns=400, update_contended_ns=400,
                           library_ns=0)
    runtime = PBoxRuntime(manager, costs=costs)
    rule = IsolationRule(isolation_level=50)
    out = {}

    def body():
        runtime.create_pbox(rule)
        runtime.activate_pbox()
        # 5 x 400 ns = 2 us of charged overhead.
        for i in range(5):
            runtime.update_pbox("k%d" % i, StateEvent.HOLD)
        yield Sleep(us=100)
        out["t"] = yield Now()

    kernel.spawn(body)
    kernel.run()
    assert out["t"] == 102


def test_sub_microsecond_residue_carries_per_thread():
    """Charges below 1 us carry on the charged thread, not in a map."""
    kernel = Kernel(cores=2)
    manager = PBoxManager(kernel)
    costs = OperationCosts(create_ns=600, activate_ns=0, freeze_ns=0,
                           release_ns=0, bind_ns=0, unbind_ns=0,
                           update_ns=0, update_contended_ns=0, library_ns=0)
    runtime = PBoxRuntime(manager, costs=costs)
    rule = IsolationRule(isolation_level=50)
    seen = {}

    def twice():
        thread = kernel.current_thread
        runtime.create_pbox(rule)
        seen["after_one"] = (thread.overhead_us, thread.pbox_residue_ns)
        runtime.create_pbox(rule)
        seen["twice"] = (thread.overhead_us, thread.pbox_residue_ns)
        yield Compute(us=1)

    def once():
        thread = kernel.current_thread
        runtime.create_pbox(rule)
        seen["once"] = (thread.overhead_us, thread.pbox_residue_ns)
        yield Compute(us=1)

    kernel.spawn(twice, name="twice")
    kernel.spawn(once, name="once")
    kernel.run()
    assert seen["after_one"] == (0, 600)
    # 2 x 600 ns = 1 us charged, 200 ns carried to the next charge.
    assert seen["twice"] == (1, 200)
    # The other thread's residue starts from zero: residues never mix.
    assert seen["once"] == (0, 600)
