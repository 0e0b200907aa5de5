"""Tests for isolation rules and the per-pBox interference metrics."""

import copy
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import IsolationRule, PBoxManager, StateEvent
from repro.core.pbox import ActivityRecord, PBox
from repro.core.rules import Metric, RuleType
from repro.sim import Kernel, Sleep


def make_pbox(records, level=50, metric=Metric.AVERAGE):
    rule = IsolationRule(isolation_level=level, metric=metric)
    pbox = PBox(1, rule)
    for defer_us, exec_us in records:
        pbox.history.append(ActivityRecord(defer_us, exec_us))
    return pbox


def test_rule_validation():
    with pytest.raises(ValueError):
        IsolationRule(isolation_level=0)
    with pytest.raises(ValueError):
        IsolationRule(isolation_level=-10)
    rule = IsolationRule(isolation_level=30)
    assert rule.rule_type is RuleType.RELATIVE
    assert rule.goal == pytest.approx(0.3)


def test_goal_defer_ratio_examples():
    # lambda = 1 (100% worse) corresponds to spending half the time deferred.
    assert IsolationRule(100).goal_defer_ratio == pytest.approx(0.5)
    assert IsolationRule(50).goal_defer_ratio == pytest.approx(1 / 3)


def test_average_interference_level():
    pbox = make_pbox([(100, 400), (300, 600)])
    # total defer 400, total exec 1000 -> 400/600.
    assert pbox.average_interference_level() == pytest.approx(400 / 600)


def test_average_interference_zero_without_defer():
    pbox = make_pbox([(0, 1_000), (0, 500)])
    assert pbox.average_interference_level() == 0.0


def test_max_interference_level_picks_worst_activity():
    pbox = make_pbox([(100, 1_000), (450, 500), (10, 1_000)])
    # Worst activity: 450/(500-450) = 9.
    assert pbox.max_interference_level() == pytest.approx(9.0)


def test_max_interference_inf_when_fully_deferred():
    pbox = make_pbox([(500, 500)])
    assert pbox.max_interference_level() == float("inf")


def test_tail_interference_level():
    records = [(0, 1_000)] * 19 + [(900, 1_000)]
    pbox = make_pbox(records)
    # p95 over 20 activities lands on the one bad record: 900/100 = 9.
    assert pbox.tail_interference_level() == pytest.approx(9.0)


def test_tail_interference_empty_history():
    pbox = make_pbox([])
    assert pbox.tail_interference_level() == 0.0


def test_defer_ratio_lifetime():
    pbox = make_pbox([])
    pbox.total_defer_us = 250
    pbox.total_exec_us = 1_000
    assert pbox.defer_ratio() == pytest.approx(0.25)
    empty = make_pbox([])
    assert empty.defer_ratio() == 0.0


@pytest.mark.parametrize("metric", [Metric.AVERAGE, Metric.TAIL, Metric.MAX])
def test_pbox_level_detection_honours_metric(metric):
    """The freeze-time detector reads the rule's configured metric."""
    kernel = Kernel(cores=4)
    manager = PBoxManager(kernel)
    rule = IsolationRule(isolation_level=50, metric=metric)
    boxes = {}

    def noisy():
        pbox = manager.create(IsolationRule(isolation_level=50))
        boxes["noisy"] = pbox
        manager.activate(pbox)
        for _ in range(6):
            manager.update(pbox, "res", StateEvent.HOLD)
            yield Sleep(us=9_000)
            manager.update(pbox, "res", StateEvent.UNHOLD)
            yield Sleep(us=500)
        manager.freeze(pbox)

    def victim():
        pbox = manager.create(rule)
        boxes["victim"] = pbox
        for _ in range(6):
            manager.activate(pbox)
            yield Sleep(us=200)
            manager.update(pbox, "res", StateEvent.PREPARE)
            yield Sleep(us=8_000)
            manager.update(pbox, "res", StateEvent.ENTER)
            manager.freeze(pbox)

    kernel.spawn(noisy, name="noisy")
    kernel.spawn(victim, name="victim")
    kernel.run(until_us=500_000)
    # Under every metric this extreme pattern crosses 90% of the goal,
    # so the noisy pBox accumulates penalties.
    assert boxes["noisy"].penalties_received >= 1


def test_history_window_bounded():
    pbox = make_pbox([])
    for i in range(200):
        pbox.history.append(ActivityRecord(i, 1_000))
    assert len(pbox.history) == PBox.HISTORY_WINDOW
    # Oldest records were evicted: the first remaining defer is 200-64.
    assert pbox.history[0].defer_us == 200 - PBox.HISTORY_WINDOW


def naive_average_interference(history):
    """Reference: two full sums over the window on every call."""
    td = sum(rec.defer_us for rec in history)
    te = sum(rec.exec_us for rec in history)
    if td <= 0:
        return 0.0
    if te <= td:
        return float("inf")
    return td / (te - td)


@st.composite
def activity_sequences(draw):
    """Activity records (defer, exec, via_freeze) overflowing the window.

    Per-sequence bounds of 0 reach both edges of the level formula: no
    defer at all (level 0.0) and defer >= exec (level inf).
    """
    defer_max = draw(st.sampled_from([0, 10, 1_000, 100_000]))
    exec_max = draw(st.sampled_from([0, 10, 1_000, 100_000]))
    return draw(st.lists(
        st.tuples(st.integers(0, defer_max), st.integers(0, exec_max),
                  st.booleans()),
        min_size=PBox.HISTORY_WINDOW + 1,
        max_size=3 * PBox.HISTORY_WINDOW))


@settings(max_examples=60, deadline=None)
@given(activity_sequences())
@example([(0, 1_000, True)] * (PBox.HISTORY_WINDOW + 5))
@example([(500, 0, False)] * (PBox.HISTORY_WINDOW + 5))
@example([(700, 500, True), (0, 900, False)] * PBox.HISTORY_WINDOW)
def test_running_sum_window_matches_naive_sums(records):
    """The O(1) window level equals the two-sum reference at every step.

    Records arrive both through ``PBoxManager.freeze`` and by direct
    ``history.append``; the running sums must track evictions exactly.
    """
    kernel = Kernel(cores=1)
    manager = PBoxManager(kernel)
    pbox = manager.create(IsolationRule(isolation_level=50))
    for defer_us, exec_us, via_freeze in records:
        if via_freeze:
            manager.activate(pbox)
            pbox.defer_time_us = defer_us
            kernel.clock.advance_to(kernel.now_us + exec_us)
            manager.freeze(pbox)
        else:
            pbox.history.append(ActivityRecord(defer_us, exec_us))
        assert pbox.history[-1].defer_us == defer_us
        assert pbox.history[-1].exec_us == exec_us
        assert (pbox.average_interference_level()
                == naive_average_interference(pbox.history))
    assert len(pbox.history) == PBox.HISTORY_WINDOW


def test_history_window_copies_keep_sums():
    pbox = make_pbox([(i, 1_000 + i) for i in range(100)])
    expected = naive_average_interference(pbox.history)
    for clone in (copy.copy(pbox.history), copy.deepcopy(pbox.history),
                  pickle.loads(pickle.dumps(pbox.history))):
        assert clone.maxlen == PBox.HISTORY_WINDOW
        assert (clone.defer_sum, clone.exec_sum) == (
            pbox.history.defer_sum, pbox.history.exec_sum)
        holder = make_pbox([])
        holder.history = clone
        assert holder.average_interference_level() == expected
    pbox.history.clear()
    assert pbox.average_interference_level() == 0.0
    assert (pbox.history.defer_sum, pbox.history.exec_sum) == (0, 0)


def test_history_window_rejects_unsummed_mutators():
    pbox = make_pbox([(10, 100), (20, 200)])
    for mutate in (lambda h: h.pop(), lambda h: h.popleft(),
                   lambda h: h.appendleft(ActivityRecord(1, 2)),
                   lambda h: h.__setitem__(0, ActivityRecord(1, 2))):
        with pytest.raises(TypeError):
            mutate(pbox.history)
    assert (pbox.history.defer_sum, pbox.history.exec_sum) == (30, 300)
