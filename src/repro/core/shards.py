"""Per-tenant manager shards behind one manager-shaped facade.

At the scale sweep's top end one :class:`~repro.core.manager.PBoxManager`
supervises a thousand pBoxes: every map it keeps (competitor entries,
holder index, last-releaser, heal trends) is a single process-wide dict,
and the working set the detection pipeline touches grows with the whole
application even though each tenant's contention is private to its own
resource keys.  :class:`ShardedPBoxManager` splits that state per
tenant: each shard is a full, unmodified ``PBoxManager`` whose maps
only ever contain its own tenant's pBoxes and keys, so per-event cost
is paid against tenant-sized state (docs/PERFORMANCE.md has the cost
model).  ROADMAP item 2 (per-process kernel shards) gets its seam here:
a shard is exactly the manager state that would move into a process.

What shards share -- the application-global pieces:

- the **psid allocator**, so psids stay unique and creation-ordered
  across shards (golden traces render pBoxes by psid);
- one **resume-hook router** on the kernel: penalties are delivered by
  the owning shard, looked up through the pBox itself (O(1), no
  broadcast over shards).

Sharding is sound when resource keys are shard-local -- true by
construction in the scale scenario (every tenant contends on its own
server instance's objects).  A key shared across shards would split its
competitor entries and blind cross-shard detection; route such keys to
one shard via ``shard_of``.
"""

import itertools
import re

from repro.core.manager import PBoxManager

#: Scale-harness thread naming (``t3-oltp``): the tenant prefix is the
#: shard key.  Kept in sync with ``repro.obs.telemetry.tenant_of`` but
#: defined locally -- core must not depend on the observability layer.
_TENANT_RE = re.compile(r"^(t\d+)-")

#: Shard for threads with no tenant prefix (case runs, helpers).
DEFAULT_SHARD = "_shared"


def tenant_shard(thread):
    """Default ``shard_of``: the thread's tenant prefix, else shared."""
    name = getattr(thread, "name", None)
    if isinstance(name, str):
        match = _TENANT_RE.match(name)
        if match:
            return match.group(1)
    return DEFAULT_SHARD


class ShardedPBoxManager:
    """Manager facade routing each pBox to its tenant's shard.

    Drop-in for ``PBoxManager`` everywhere the harness touches one
    (runtime, scenario builders, telemetry, fault injector, golden
    stats): with a single shard it is behaviorally identical to a plain
    manager -- the golden corpus replays bit-identically through it.

    Parameters
    ----------
    kernel:
        The simulated kernel; the facade registers the one resume-hook
        router (shards register none).
    shard_of:
        ``shard_of(thread) -> key`` mapping a pBox's thread to its
        shard; defaults to :func:`tenant_shard`.
    manager_kwargs:
        Forwarded to every shard's ``PBoxManager`` (penalty_engine,
        ablation switches, ...).  A shared ``penalty_engine`` instance
        is fine: its adaptation state is keyed by (noisy psid, key),
        which never collides across shards.
    """

    def __init__(self, kernel, shard_of=None, enabled=True,
                 **manager_kwargs):
        self.kernel = kernel
        self.enabled = enabled
        self.shard_of = shard_of or tenant_shard
        self._manager_kwargs = manager_kwargs
        self._psid_alloc = itertools.count(1)
        self._shards = {}        # shard key -> PBoxManager
        self._pbox_shard = {}    # psid -> shard (release prunes)
        self._shard_patches = []
        kernel.add_resume_hook(self._resume_hook)

    # -- shard plumbing --------------------------------------------------

    def shard(self, key):
        """The shard for ``key``, created on first use."""
        shard = self._shards.get(key)
        if shard is None:
            shard = PBoxManager(
                self.kernel, enabled=self.enabled,
                psid_alloc=self._psid_alloc,
                register_resume_hook=False,
                **self._manager_kwargs)
            for patch in self._shard_patches:
                patch(shard)
            self._shards[key] = shard
        return shard

    def add_shard_patch(self, patch):
        """Apply ``patch(shard)`` to every current and future shard.

        The A/B throughput guard uses this to rebind shard internals to
        their legacy implementations before any tenant is built.
        """
        self._shard_patches.append(patch)
        for shard in self._shards.values():
            patch(shard)

    @property
    def shard_count(self):
        return len(self._shards)

    def _resume_hook(self, thread):
        """Route penalty delivery to the pBox's owning shard."""
        pbox = thread.pbox
        if pbox is None:
            return 0
        shard = self._pbox_shard.get(pbox.psid)
        if shard is None:
            return 0
        return shard._resume_hook(thread)

    # -- lifecycle (routed) ----------------------------------------------

    def create(self, rule, thread=None):
        if thread is None:
            thread = self.kernel.current_thread
        shard = self.shard(self.shard_of(thread))
        pbox = shard.create(rule, thread=thread)
        self._pbox_shard[pbox.psid] = shard
        return pbox

    def release(self, pbox):
        shard = self._pbox_shard.pop(pbox.psid, None)
        if shard is not None:
            shard.release(pbox)

    def activate(self, pbox):
        self._pbox_shard[pbox.psid].activate(pbox)

    def freeze(self, pbox):
        self._pbox_shard[pbox.psid].freeze(pbox)

    def bind(self, pbox, thread, shared=False):
        self._pbox_shard[pbox.psid].bind(pbox, thread, shared=shared)

    def unbind(self, pbox):
        self._pbox_shard[pbox.psid].unbind(pbox)

    def get(self, psid):
        shard = self._pbox_shard.get(psid)
        return None if shard is None else shard.get(psid)

    def pboxes(self):
        """Snapshot of live pBoxes across shards, in psid order."""
        boxes = []
        for shard in self._shards.values():
            boxes.extend(shard.pboxes())
        boxes.sort(key=lambda pbox: pbox.psid)
        return boxes

    # -- event pipeline (routed) -----------------------------------------

    def update(self, pbox, key, event):
        self._pbox_shard[pbox.psid].update(pbox, key, event)

    def contended(self, key, pbox=None):
        """Contention check for the library cost model.

        With the pBox in hand the question is answered by its shard
        alone (keys are shard-local); without one, fall back to asking
        every shard -- correct, but O(shards), so hot callers pass the
        pBox.
        """
        if pbox is not None:
            shard = self._pbox_shard.get(pbox.psid)
            return shard is not None and shard.contended(key, pbox)
        return any(shard.contended(key) for shard in self._shards.values())

    def drain_active(self):
        active = set()
        for shard in self._shards.values():
            active |= shard.drain_active()
        return active

    # -- penalties (routed) ----------------------------------------------

    def inject_penalty(self, pbox, delay_us):
        self._pbox_shard[pbox.psid].inject_penalty(pbox, delay_us)

    def is_task_deferred(self, pbox):
        shard = self._pbox_shard.get(pbox.psid)
        return shard is not None and shard.is_task_deferred(pbox)

    make_queue_admission = PBoxManager.make_queue_admission

    # -- aggregate views -------------------------------------------------

    @property
    def stats(self):
        """Shard stats summed into one plain dict (golden pins this)."""
        total = None
        for key in sorted(self._shards):
            shard_stats = self._shards[key].stats
            if total is None:
                total = dict(shard_stats)
            else:
                for name, value in shard_stats.items():
                    total[name] += value
        if total is None:
            # No shard yet: a fresh PBoxManager's zeroed stats dict.
            total = dict(PBoxManager(
                self.kernel, enabled=False,
                register_resume_hook=False).stats)
        return total

    @property
    def scan_stats(self):
        """Shard detection counters summed into one plain dict."""
        total = {"scans": 0, "evaluated": 0}
        for shard in self._shards.values():
            for name, value in shard.scan_stats.items():
                total[name] += value
        return total

    @property
    def competitor_map(self):
        """Merged read-only view (debugging; hot paths use contended)."""
        merged = {}
        for key in sorted(self._shards):
            merged.update(self._shards[key].competitor_map)
        return merged

    def snapshot_state(self, label=repr):
        """JSON-safe walk of every shard (checkpoint walker).

        Shards are walked in sorted-key order; the psid -> shard routing
        map is rendered as psid -> shard key (the shard object itself is
        identity, not state).  Like the plain manager's walker this is
        pure observation -- nothing is allocated, fired, or consumed.
        """
        shard_keys = {id(shard): key for key, shard in self._shards.items()}
        return {
            "enabled": self.enabled,
            "shards": [(key, self._shards[key].snapshot_state(label))
                       for key in sorted(self._shards)],
            "pbox_shard": sorted(
                (psid, shard_keys[id(shard)])
                for psid, shard in self._pbox_shard.items()),
        }

    def __repr__(self):
        return "ShardedPBoxManager(shards=%d, pboxes=%d)" % (
            len(self._shards), len(self._pbox_shard))
