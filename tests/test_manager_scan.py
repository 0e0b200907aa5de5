"""Freeze-time detection accounting and penalty-armer batching.

The manager runs pBox-level detection inline at the end of each
activity, on exactly the frozen pBox; ``scan_stats`` counts those
passes.  Also covered here: the :class:`PenaltyArmer` batching
semantics the penalty path arms through.
"""

from repro.core import IsolationRule, PBoxManager
from repro.sim import Kernel, Sleep


def _frozen_once(**kwargs):
    """Manager (built with ``kwargs``) after one pBox's first freeze."""
    kernel = Kernel(cores=2)
    manager = PBoxManager(kernel, **kwargs)
    rule = IsolationRule(isolation_level=50)

    def driver():
        pbox = manager.create(rule)
        manager.activate(pbox)
        yield Sleep(us=10)
        manager.freeze(pbox)

    kernel.spawn(driver)
    kernel.run(until_us=100)
    return manager


# -- freeze-time detection --------------------------------------------------

def test_freeze_runs_detection_inline():
    assert _frozen_once().scan_stats == {"scans": 1, "evaluated": 1}
    # A disabled manager's freeze evaluates nothing.
    assert _frozen_once(enabled=False).scan_stats == {
        "scans": 0, "evaluated": 0}


# -- PenaltyArmer batching --------------------------------------------------

def test_armer_batches_same_expiry_into_one_dispatch():
    kernel = Kernel(cores=1)
    fired = []
    for index in range(4):
        kernel.penalty_armer.arm(500, lambda index=index: fired.append(index))
    kernel.run(until_us=1_000)
    assert fired == [0, 1, 2, 3]                      # arm order preserved
    assert kernel.penalty_armer.stats == {
        "armed": 4, "batched": 3, "dispatches": 1}


def test_armer_entries_cancel_independently():
    kernel = Kernel(cores=1)
    fired = []
    kept = kernel.penalty_armer.arm(500, lambda: fired.append("kept"))
    dropped = kernel.penalty_armer.arm(500, lambda: fired.append("dropped"))
    dropped.cancel()
    kernel.run(until_us=1_000)
    assert fired == ["kept"]
    assert kept.cancelled is False


def test_armer_burns_seq_for_batched_entries():
    """Joining a bucket consumes a kernel seq, exactly like post().

    This is what keeps batched arming bit-identical to unbatched: every
    later timer keeps the tie-break rank it would have had, and event
    accounting (``next(kernel._seq)`` probes) sees the same count.
    """
    kernel = Kernel(cores=1)
    before = next(kernel._seq)
    kernel.penalty_armer.arm(500, lambda: None)   # posts a dispatch timer
    kernel.penalty_armer.arm(500, lambda: None)   # joins: burns one seq
    after = next(kernel._seq)
    # One post + one burn + the two probes themselves.
    assert after - before == 3
