"""Event-driven application support: pBox-aware task queues.

Event-driven servers (Varnish, Memcached) multiplex many connections
over a pool of worker threads.  Section 5 of the paper describes how
pBox supports them:

- ownership transfer: workers bind/unbind the connection's pBox around
  each task (with the lazy-unbind optimization);
- kernel-queue tracing: these applications "commonly leverage kernel-
  level queues for task management (accept, epoll)", so the patched
  kernel traces state events at the queue itself without update_pbox
  calls in application code;
- shared-thread penalties: delaying a worker thread would punish every
  connection sharing it, so the manager instead defers the noisy pBox's
  queued tasks (they are put back onto the queue until the penalty
  window passes).

:class:`PBoxWorkerPool` implements all three on top of the simulator's
:class:`~repro.sim.primitives.TaskQueue`.  The pool itself is the
virtual resource: a queued task is *deferred by* the pool (PREPARE at
enqueue, ENTER at dispatch), and a running task *holds* one worker
(HOLD at dispatch, UNHOLD at completion).
"""

from repro.apps.base import Connection
from repro.core.events import StateEvent
from repro.core.runtime import BindFlag
from repro.sim.primitives import TaskQueue
from repro.sim.syscalls import FutexWait

# Bound once: the pool reports four state events per task.
_PREPARE = StateEvent.PREPARE
_ENTER = StateEvent.ENTER
_HOLD = StateEvent.HOLD
_UNHOLD = StateEvent.UNHOLD
_SHARED_THREAD = BindFlag.SHARED_THREAD


class Task:
    """One queued unit of work: a request on behalf of a connection.

    ``rid`` carries the submitting client's request id (from
    ``kernel.active_requests``) so worker-side ``req.serve`` /
    ``req.done`` events join the client's ``req.begin``/``req.end``
    timeline; None when the submitter is not a traced request.
    """

    __slots__ = ("connection", "request", "enqueued_at_us", "done",
                 "finished_at_us", "rid")

    def __init__(self, connection, request, enqueued_at_us, rid=None):
        self.connection = connection
        self.request = request
        self.enqueued_at_us = enqueued_at_us
        self.done = False
        self.finished_at_us = None
        self.rid = rid


class PBoxWorkerPool:
    """A worker pool fed by a pBox-aware kernel task queue.

    Parameters
    ----------
    kernel, runtime:
        The simulated kernel and the application's pBox runtime.
    workers:
        Number of worker threads (the Varnish/Memcached thread pool).
    handler:
        Generator function ``handler(task)`` performing the actual work;
        supplied by the application model.
    """

    def __init__(self, kernel, runtime, workers, handler, name="pool"):
        self.kernel = kernel
        self.runtime = runtime
        self.manager = runtime.manager
        self.workers = workers
        self.handler = handler
        self.name = name
        self.queue = TaskQueue(
            kernel,
            name="%s-queue" % name,
            admission=self._admission,
        )
        self.tasks_processed = 0
        self._worker_threads = []
        self._tp_enqueue = kernel.trace.point("pool.enqueue")
        self._tp_dispatch = kernel.trace.point("pool.dispatch")
        self._tp_complete = kernel.trace.point("pool.complete")
        self._tp_serve = kernel.trace.point("req.serve")
        self._tp_done = kernel.trace.point("req.done")

    # ------------------------------------------------------------------
    # Kernel-side state-event tracing (Section 5)
    # ------------------------------------------------------------------

    def _pbox_of(self, task):
        psid = task.connection.psid
        if psid is None or not self.runtime.enabled:
            return None
        return self.manager.get(psid)

    def _admission(self, task):
        pbox = self._pbox_of(task)
        if pbox is None:
            return True
        return not self.manager.is_task_deferred(pbox)

    def submit(self, connection, request):
        """Enqueue a request; returns the Task (wait on it with ``wait``).

        The kernel queue activates the connection's pBox and records the
        PREPARE event transparently -- no update_pbox call needed in the
        application (the paper's patched accept/epoll behaviour).
        """
        submitter = self.kernel.current_thread
        rid = (self.kernel.active_requests.get(submitter.tid)
               if submitter is not None else None)
        task = Task(connection, request, self.kernel.now_us, rid=rid)
        pbox = self._pbox_of(task)
        if pbox is not None:
            self.manager.activate(pbox)
            self.manager.update(pbox, self, _PREPARE)
        self.queue.put(task)
        if self._tp_enqueue.active:
            self._tp_enqueue.fire(
                self.kernel.now_us, pool=self.name,
                psid=connection.psid, depth=len(self.queue),
            )
        return task

    def wait(self, task):
        """Block the submitting client until the task completes."""
        while not task.done:
            yield FutexWait(task)

    def start(self, spawn=None):
        """Spawn the worker threads.

        ``spawn(body, name)`` may be provided to route thread creation
        through a case harness; defaults to ``kernel.spawn``.
        """
        spawn = spawn or (lambda body, name: self.kernel.spawn(body, name=name))
        for index in range(self.workers):
            thread = spawn(self._worker_body, "%s-worker-%d" % (self.name, index))
            self._worker_threads.append(thread)
        return self._worker_threads

    def _worker_body(self):
        while True:
            task = yield from self.queue.get()
            dispatched_at = self.kernel.now_us
            if self._tp_dispatch.active:
                self._tp_dispatch.fire(
                    dispatched_at, pool=self.name, psid=task.connection.psid,
                    queued_us=dispatched_at - task.enqueued_at_us,
                )
            if task.rid is not None and self._tp_serve.active:
                self._tp_serve.fire(
                    dispatched_at, rid=task.rid,
                    tid=self.kernel.current_thread.tid, pool=self.name,
                    queued_us=dispatched_at - task.enqueued_at_us,
                )
            pbox = self._pbox_of(task)
            if pbox is not None:
                self.manager.update(pbox, self, _ENTER)
                self.manager.update(pbox, self, _HOLD)
            # Ownership transfer: bind the connection's pBox to this
            # worker for the duration of the task (lazy unbind applies
            # when the same worker processes the same connection again).
            bound = self.runtime.bind_pbox(
                task.connection.bind_key, _SHARED_THREAD
            )
            yield from self.handler(task)
            if bound != -1:
                self.runtime.unbind_pbox(
                    task.connection.bind_key, _SHARED_THREAD
                )
            if pbox is not None:
                self.manager.update(pbox, self, _UNHOLD)
                self.manager.freeze(pbox)
            task.done = True
            task.finished_at_us = self.kernel.now_us
            self.tasks_processed += 1
            if self._tp_complete.active:
                self._tp_complete.fire(
                    task.finished_at_us, pool=self.name,
                    psid=task.connection.psid,
                    service_us=task.finished_at_us - dispatched_at,
                )
            if task.rid is not None and self._tp_done.active:
                self._tp_done.fire(
                    task.finished_at_us, rid=task.rid,
                    tid=self.kernel.current_thread.tid, pool=self.name,
                    service_us=task.finished_at_us - dispatched_at,
                )
            self.kernel.futex_wake(task, n=1 << 30)

    def __repr__(self):
        return "PBoxWorkerPool(name=%r, workers=%d)" % (self.name, self.workers)


class EventDrivenConnection(Connection):
    """A connection whose requests run on a shared worker pool.

    The connection's pBox is created by the client thread and parked
    immediately (unbind with the SHARED_THREAD flag); workers bind it
    around each task.  Subclasses provide ``pool`` via the app object.
    """

    @property
    def bind_key(self):
        """The ownership-transfer key for bind/unbind (Section 4.1)."""
        return self

    @property
    def pool(self):
        """The worker pool serving this connection."""
        return self.app.pool

    def open(self):
        """Create the pBox and park it under ``bind_key``."""
        self.psid = self.runtime.create_pbox(self.app.config.make_rule())
        if self.psid != -1:
            self.runtime.unbind_pbox(self.bind_key, _SHARED_THREAD)
        return
        yield  # pragma: no cover - keeps this a generator

    def execute(self, request):
        """Submit the request to the pool and wait for completion.

        Unlike the dedicated-thread base class, activation/freeze happen
        at the kernel queue (submit) and in the worker (completion).
        """
        task = self.pool.submit(self, request)
        yield from self.pool.wait(task)
        return task

    def close(self):
        """Release the parked pBox."""
        if self.psid is not None and self.psid != -1:
            self.runtime.release_pbox(self.psid)
        self.psid = None
        return
        yield  # pragma: no cover - keeps this a generator
