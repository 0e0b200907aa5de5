"""Rule hot-reload at checkpoint barriers.

Three contracts:

- reloading a rule set identical to the live one is a *pure no-op*: the
  golden digest of a run that reloads at every barrier equals the
  committed corpus digest, and the epoch never moves;
- an effective reload flushes every penalty armed under the old rule
  (pending delay dropped, defer window clamped, demotion lifted) -- asserted both at the unit level against a stub
  shard and end-to-end under a penalty-injecting chaos cocktail;
- the penalty-lifetime invariant -- no penalty outlives the rule that
  armed it -- holds at every barrier and at the end of the chaos run.
"""

import json
import os

import pytest

from repro.ckpt import RuleReloader, checkpoint_run
from repro.core.rules import IsolationRule, Metric, RuleType

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
CASE_ID = "c1"


def _load_golden(case_id):
    with open(os.path.join(GOLDEN_DIR, case_id + ".json")) as handle:
        return json.load(handle)


# -- rule payload plumbing ------------------------------------------------

def test_rule_dict_roundtrip_and_same_as():
    rule = IsolationRule(isolation_level=30, metric=Metric.TAIL)
    rebuilt = IsolationRule.from_dict(rule.to_dict())
    assert rebuilt.same_as(rule)
    assert rebuilt is not rule
    assert not rebuilt.same_as(IsolationRule(isolation_level=31,
                                             metric=Metric.TAIL))
    assert not rebuilt.same_as(IsolationRule(isolation_level=30))
    assert rule.to_dict() == {"isolation_level": 30,
                              "rule_type": RuleType.RELATIVE.value,
                              "metric": Metric.TAIL.value}


# -- unit-level flush against a stub shard --------------------------------

class _StubKernel:
    def __init__(self, now_us):
        self.now_us = now_us


class _StubThread:
    def __init__(self):
        self.demoted_until_us = 900_000


class _StubPBox:
    def __init__(self, psid, rule):
        self.psid = psid
        self.rule = rule
        self.thread = _StubThread()
        self.pending_penalty_us = 4_000
        self.pending_penalty_flow = 17
        self.pending_since_us = 100_000
        self.penalty_until_us = 999_000


class _StubShard:
    def __init__(self, pboxes, now_us):
        self.kernel = _StubKernel(now_us)
        self._pboxes = {pbox.psid: pbox for pbox in pboxes}
        self._safe_until = {pbox.psid: now_us + 50_000 for pbox in pboxes}
        self._heal_trend = {(pbox.psid, "key"): object() for pbox in pboxes}


def test_effective_reload_flushes_old_rule_penalties():
    pbox = _StubPBox(1, IsolationRule(isolation_level=50))
    shard = _StubShard([pbox], now_us=500_000)
    reloader = RuleReloader(shard)

    result = reloader.reload(IsolationRule(isolation_level=30))
    assert not result.noop
    assert result.changed_psids == [1]
    assert reloader.epoch == 1
    assert pbox.rule.isolation_level == 30
    # Penalty machinery of the old rule is fully retired:
    assert pbox.pending_penalty_us == 0
    assert pbox.pending_penalty_flow is None
    assert pbox.penalty_until_us == 500_000
    assert pbox.thread.demoted_until_us == 0
    assert pbox.psid not in shard._safe_until
    assert not shard._heal_trend
    assert reloader.check_invariant() == []


def test_identical_reload_is_pure_noop():
    pbox = _StubPBox(1, IsolationRule(isolation_level=50))
    shard = _StubShard([pbox], now_us=500_000)
    reloader = RuleReloader(shard)

    result = reloader.reload(IsolationRule(isolation_level=50))
    assert result.noop
    assert reloader.epoch == 0
    # Nothing was flushed:
    assert pbox.pending_penalty_us == 4_000
    assert pbox.thread.demoted_until_us == 900_000
    assert pbox.psid in shard._safe_until

    # A callable returning None skips the pBox entirely.
    result = reloader.reload(lambda pbox: None)
    assert result.noop
    assert len(reloader.history) == 2


def test_invariant_flags_stale_pending_penalty():
    pbox = _StubPBox(1, IsolationRule(isolation_level=50))
    shard = _StubShard([pbox], now_us=500_000)
    reloader = RuleReloader(shard)
    reloader.reload(IsolationRule(isolation_level=30))
    # Simulate a buggy flush: a penalty queued *before* the change.
    pbox.pending_penalty_us = 2_000
    pbox.pending_since_us = 100_000
    violations = reloader.check_invariant()
    assert len(violations) == 1
    assert "predates the rule change" in violations[0]
    # A penalty armed after the change is legitimate.
    pbox.pending_since_us = 600_000
    assert reloader.check_invariant() == []


# -- end-to-end: barriers on a live run -----------------------------------

@pytest.mark.slow
def test_noop_reload_barriers_preserve_golden_digest():
    golden = _load_golden(CASE_ID)
    reloaders = []

    def barrier(env, t_us):
        if not reloaders:
            reloaders.append(RuleReloader(env.runtime.manager))
        result = reloaders[0].reload(lambda pbox: pbox.rule.to_dict(),
                                     now_us=t_us)
        assert result.noop

    outcome = checkpoint_run(CASE_ID, duration_s=golden["duration_s"],
                             seed=golden["seed"], barriers=[barrier])
    assert outcome["document"]["digest"] == golden["digest"]
    assert outcome["document"]["stats"] == golden["stats"]
    assert reloaders[0].epoch == 0
    assert len(reloaders[0].history) == len(outcome["driver"].checkpoints)


@pytest.mark.slow
def test_live_reloads_never_leak_penalties():
    """Alternating reloads under penalty misfires: invariant holds."""
    golden = _load_golden(CASE_ID)
    reloaders = []
    observed_pending = []

    def barrier(env, t_us):
        if not reloaders:
            reloaders.append(RuleReloader(env.runtime.manager))
        reloader = reloaders[0]
        for shard in reloader._shards():
            for psid in sorted(shard._pboxes):
                if shard._pboxes[psid].pending_penalty_us > 0:
                    observed_pending.append((t_us, psid))
        level = 30 if (t_us // 250_000) % 2 else 80
        result = reloader.reload(IsolationRule(isolation_level=level),
                                 now_us=t_us)
        assert not result.noop
        assert reloader.check_invariant() == []

    outcome = checkpoint_run(
        CASE_ID, duration_s=golden["duration_s"], seed=golden["seed"],
        faults="penalty_misfire", barriers=[barrier])
    reloader = reloaders[0]
    assert reloader.epoch == len(reloader.history)
    assert reloader.epoch >= 2
    assert reloader.check_invariant() == []
    assert outcome["harness"].suite.violations == []
    # Non-vacuous: at least one barrier actually saw a pending penalty
    # for the flush to retire (the misfire cocktail guarantees arms).
    assert observed_pending, \
        "no barrier observed a pending penalty; the flush leg is vacuous"
