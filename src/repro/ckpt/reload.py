"""Rule hot-reload at checkpoint barriers.

Swapping isolation rules without a restart is the live-operations half
of the checkpoint story: operators tighten or relax a tenant's
isolation level while the run keeps going.  The safety contract is the
same as the checkpoint's -- a reload only happens at a quiescent
barrier -- plus one penalty-lifetime invariant: **no penalty outlives
the rule that armed it**.  A reload that changes a pBox's rule flushes
that pBox's penalty machinery:

- a pending (not yet delivered) delay penalty is dropped;
- an open shared-thread defer window is clamped to *now*;
- a priority-mode demotion is lifted;
- the heal trends and safe-mode cooldowns keyed by the pBox are
  dropped (they model the *old* rule's effectiveness).

Reloading a rule set identical to the current one is a pure no-op: no
epoch bump, no flush, nothing observable -- the golden no-op test runs
a reload barrier every cadence and asserts the corpus digest does not
move.
"""

from repro.core.rules import IsolationRule


class ReloadResult:
    """Outcome of one :meth:`RuleReloader.reload` call."""

    def __init__(self, epoch, changed_psids, noop, at_us):
        self.epoch = epoch
        self.changed_psids = list(changed_psids)
        self.noop = noop
        self.at_us = at_us

    def __repr__(self):
        return "ReloadResult(epoch=%d, changed=%d, noop=%s, at_us=%d)" % (
            self.epoch, len(self.changed_psids), self.noop, self.at_us)


class RuleReloader:
    """Swap isolation rules on a live manager at a checkpoint barrier.

    Works against a plain :class:`~repro.core.manager.PBoxManager` or a
    :class:`~repro.core.shards.ShardedPBoxManager` (shards are walked
    in sorted-key order).  ``epoch`` counts effective (non-no-op)
    reloads; ``history`` records every call.
    """

    def __init__(self, manager):
        self.manager = manager
        self.epoch = 0
        self.history = []
        self._changed_at = {}   # psid -> virtual time of last rule change

    # -- plumbing --------------------------------------------------------

    def _shards(self):
        shards = getattr(self.manager, "_shards", None)
        if shards is None:
            return [self.manager]
        return [shards[key] for key in sorted(shards)]

    @staticmethod
    def _rule_for(new_rule, pbox):
        """Resolve the requested rule for one pBox.

        ``new_rule`` may be an :class:`IsolationRule` (applied to every
        pBox), a ``to_dict`` payload, or a callable
        ``(pbox) -> rule | dict | None`` (None leaves the pBox alone).
        """
        if callable(new_rule) and not isinstance(new_rule, IsolationRule):
            new_rule = new_rule(pbox)
            if new_rule is None:
                return None
        if isinstance(new_rule, dict):
            return IsolationRule.from_dict(new_rule)
        return new_rule

    # -- the reload ------------------------------------------------------

    def reload(self, new_rule, now_us=None):
        """Apply ``new_rule`` across all live pBoxes; returns the result.

        Identical rules are recognized with
        :meth:`~repro.core.rules.IsolationRule.same_as` and skipped;
        when every pBox skips, the whole call is a pure no-op (no epoch
        bump, no state touched).  Call this from a checkpoint barrier:
        the kernel is quiescent there, so the flush cannot race a
        penalty mid-delivery.
        """
        if now_us is None:
            now_us = self.manager.kernel.now_us
        changed = []
        for shard in self._shards():
            for psid in sorted(shard._pboxes):
                pbox = shard._pboxes[psid]
                rule = self._rule_for(new_rule, pbox)
                if rule is None or rule.same_as(pbox.rule):
                    continue
                changed.append((shard, pbox, rule))
        if not changed:
            result = ReloadResult(self.epoch, [], True, now_us)
            self.history.append(result)
            return result
        self.epoch += 1
        for shard, pbox, rule in changed:
            pbox.rule = rule
            self._flush(shard, pbox, now_us)
            self._changed_at[pbox.psid] = now_us
        result = ReloadResult(
            self.epoch, sorted(pbox.psid for _, pbox, _ in changed),
            False, now_us)
        self.history.append(result)
        return result

    @staticmethod
    def _flush(shard, pbox, now_us):
        """Retire every penalty armed under the pBox's previous rule."""
        if pbox.pending_penalty_us > 0:
            pbox.pending_penalty_us = 0
            pbox.pending_penalty_flow = None
        if pbox.penalty_until_us > now_us:
            pbox.penalty_until_us = now_us
        thread = pbox.thread
        if thread is not None and thread.demoted_until_us:
            # 0, not now_us: the scheduler's fast path truth-tests the
            # field (``not head.demoted_until_us``), so any non-zero
            # value keeps the thread on the slow path.
            thread.demoted_until_us = 0
        shard._safe_until.pop(pbox.psid, None)
        stale_pairs = [pair for pair in shard._heal_trend
                       if pbox.psid in pair]
        for pair in stale_pairs:
            del shard._heal_trend[pair]

    # -- the invariant ---------------------------------------------------

    def check_invariant(self):
        """No penalty outlives the rule that armed it; returns violations.

        For every pBox whose rule was changed by a reload, any pending
        penalty must have been queued at or after the change (the flush
        dropped everything older; new arms stamp ``pending_since_us``
        with the current time).  Returns a list of human-readable
        violation strings -- empty means the invariant holds.
        """
        violations = []
        for shard in self._shards():
            for psid in sorted(shard._pboxes):
                changed_at = self._changed_at.get(psid)
                if changed_at is None:
                    continue
                pbox = shard._pboxes[psid]
                if pbox.pending_penalty_us > 0 \
                        and pbox.pending_since_us < changed_at:
                    violations.append(
                        "pbox %d: pending penalty of %dus queued at "
                        "t=%dus predates the rule change at t=%dus"
                        % (psid, pbox.pending_penalty_us,
                           pbox.pending_since_us, changed_at))
        return violations
