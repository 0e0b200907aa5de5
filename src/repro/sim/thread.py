"""Simulated threads.

A :class:`SimThread` wraps a generator function (the thread body) plus the
scheduling state the kernel needs: run state, cgroup membership, core
affinity, accumulated CPU time, and the pBox bookkeeping slot that the
manager hangs per-thread data off (mirroring the ``task_struct`` field the
kernel patch adds).
"""

import enum
import itertools


class ThreadState(enum.Enum):
    """Lifecycle states of a simulated thread."""

    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"      # waiting on a futex
    SLEEPING = "sleeping"    # timed sleep
    THROTTLED = "throttled"  # cgroup bandwidth exhausted
    EXITED = "exited"


_EXITED = ThreadState.EXITED

_ids = itertools.count(1)


def reset_thread_ids():
    """Reset the global thread-id counter (test isolation helper)."""
    global _ids
    _ids = itertools.count(1)


class SimThread:
    """A kernel-schedulable thread backed by a generator.

    Parameters
    ----------
    body:
        A generator (already instantiated) or a zero-argument callable
        returning one.  The generator yields syscall objects.
    name:
        Debug name; shows up in reprs and traces.
    cgroup:
        Optional :class:`~repro.sim.cgroup.Cgroup` for CPU bandwidth
        accounting.  ``None`` means the unconstrained root group.
    affinity:
        Optional set of core indices the thread may run on (used by the
        DARC baseline).  ``None`` means any core.
    """

    def __init__(self, body, name=None, cgroup=None, affinity=None):
        self.tid = next(_ids)
        self.name = name or ("thread-%d" % self.tid)
        if callable(body) and not hasattr(body, "send"):
            body = body()
        if not hasattr(body, "send"):
            raise TypeError("thread body must be a generator")
        self.body = body
        self.state = ThreadState.NEW
        self.cgroup = cgroup
        self.affinity = affinity
        self.return_value = None

        # Scheduling bookkeeping (owned by the kernel/scheduler).
        self.pending_compute_us = 0
        self.cpu_time_us = 0          # total CPU consumed
        self.wakeup_event = None      # cancellable timer for sleeps/timeouts
        self.wait_key = None          # futex key while BLOCKED
        self.blocked_since_us = 0     # when the current futex wait began
        self.joiners = []             # threads blocked in Join on us
        self.started_at_us = None
        self.exited_at_us = None

        # Extra compute injected before the next resume; used to model the
        # per-call overhead of pBox operations without littering app code.
        self.overhead_us = 0
        # Sub-microsecond remainder of pBox runtime charges, carried to
        # this thread's next charge (repro.core.runtime).
        self.pbox_residue_ns = 0

        # Priority-penalty extension: while demoted, the scheduler only
        # runs this thread when no normal thread is runnable.
        self.demoted_until_us = 0

        # EEVDF scheduler policy state (sim.scheduler.EevdfRunQueue):
        # cumulative virtual runtime plus the eligible/deadline stamps
        # of the thread's current queue residency.  The FIFO policy
        # never reads or writes them, so the default path is unchanged.
        self.vruntime_us = 0
        self.v_eligible_us = 0
        self.v_deadline_us = 0

        # Slot for the pBox runtime: the pbox currently bound to this
        # thread (the paper binds a pBox to the creating thread).
        self.pbox = None

    @property
    def alive(self):
        """True until the thread body returns or raises StopIteration."""
        return self.state is not _EXITED

    def __repr__(self):
        return "SimThread(tid=%d, name=%r, state=%s)" % (
            self.tid,
            self.name,
            self.state.value,
        )
