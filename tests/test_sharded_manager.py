"""ShardedPBoxManager: routing, aggregation, and golden equivalence.

The facade must be a drop-in for a plain manager: the whole committed
golden corpus replays bit-identically through it (every registry case,
compared against ``tests/golden/`` -- the corpus itself is *not*
regenerated for the sharded manager, that is the point).  On top of
that, routing and aggregation have direct unit coverage: tenant-named
threads land in tenant shards, psids stay globally ordered, and stats
and drained psid sets combine across shards.
"""

import json
import os

import pytest

from repro.core import IsolationRule, ShardedPBoxManager, StateEvent
from repro.core.shards import DEFAULT_SHARD, tenant_shard
from repro.obs.golden import first_divergence, run_golden_case
from repro.sim import Kernel, Sleep

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _spawn_named(kernel, manager, names):
    """One pBox per thread name; returns name -> pbox."""
    rule = IsolationRule(isolation_level=50)
    made = {}

    def body(name):
        def run():
            made[name] = manager.create(rule)
            yield Sleep(us=10)
        return run

    for name in names:
        kernel.spawn(body(name), name=name)
    kernel.run(until_us=100)
    return made


# -- routing ----------------------------------------------------------------

def test_tenant_shard_key_extraction():
    class _T:
        def __init__(self, name):
            self.name = name

    assert tenant_shard(_T("t3-oltp")) == "t3"
    assert tenant_shard(_T("t12-cv7")) == "t12"
    assert tenant_shard(_T("client")) == DEFAULT_SHARD
    assert tenant_shard(None) == DEFAULT_SHARD


def test_create_routes_by_tenant_and_psids_stay_global():
    kernel = Kernel(cores=2)
    manager = ShardedPBoxManager(kernel)
    made = _spawn_named(kernel, manager,
                        ["t0-oltp", "t1-oltp", "t0-batch", "helper"])
    assert manager.shard_count == 3          # t0, t1, _shared
    # psids are unique and creation-ordered across shards.
    psids = sorted(pbox.psid for pbox in made.values())
    assert psids == [1, 2, 3, 4]
    assert [p.psid for p in manager.pboxes()] == psids
    for name, pbox in made.items():
        assert manager.get(pbox.psid) is pbox


def test_events_stay_shard_local():
    kernel = Kernel(cores=2)
    manager = ShardedPBoxManager(kernel)
    made = _spawn_named(kernel, manager, ["t0-oltp", "t1-oltp"])
    a, b = made["t0-oltp"], made["t1-oltp"]
    manager.activate(a)
    manager.update(a, "lock", StateEvent.PREPARE)
    # Same key name in another tenant: different shard, no crosstalk.
    assert manager.contended("lock", a)
    assert not manager.contended("lock", b)
    assert manager.contended("lock")         # shard-blind fallback
    shard_a = manager._pbox_shard[a.psid]
    shard_b = manager._pbox_shard[b.psid]
    assert "lock" in shard_a.competitor_map
    assert "lock" not in shard_b.competitor_map


def test_release_prunes_routing():
    kernel = Kernel(cores=2)
    manager = ShardedPBoxManager(kernel)
    made = _spawn_named(kernel, manager, ["t0-oltp"])
    pbox = made["t0-oltp"]
    manager.release(pbox)
    assert manager.get(pbox.psid) is None
    assert pbox.psid not in manager._pbox_shard
    manager.release(pbox)                    # idempotent


# -- aggregation ------------------------------------------------------------

def test_stats_sum_across_shards_and_match_plain_shape():
    kernel = Kernel(cores=2)
    manager = ShardedPBoxManager(kernel)
    empty = manager.stats                    # no shard yet: zeroed dict
    assert empty["events"] == 0
    made = _spawn_named(kernel, manager, ["t0-oltp", "t1-oltp"])
    for pbox in made.values():
        manager.activate(pbox)
        manager.update(pbox, "k", StateEvent.HOLD)
        manager.update(pbox, "k", StateEvent.UNHOLD)
        manager.freeze(pbox)
    stats = manager.stats
    assert isinstance(stats, dict)
    assert set(stats) == set(empty)          # no new keys (golden pins)
    assert stats["events"] == 4              # 2 events per shard, summed
    scan = manager.scan_stats
    assert scan["scans"] == 2 and scan["evaluated"] == 2


def test_drain_active_unions_all_shards():
    kernel = Kernel(cores=2)
    manager = ShardedPBoxManager(kernel)
    made = _spawn_named(kernel, manager, ["t0-oltp", "t1-oltp"])
    for pbox in made.values():
        manager.update(pbox, "k", StateEvent.HOLD)
    psids = {p.psid for p in made.values()}
    assert manager.drain_active() == psids   # union over shards
    assert manager.drain_active() == set()


def test_shard_patch_applies_to_existing_and_future_shards():
    kernel = Kernel(cores=2)
    manager = ShardedPBoxManager(kernel)
    _spawn_named(kernel, manager, ["t0-oltp"])
    patched = []
    manager.add_shard_patch(lambda shard: patched.append(shard))
    assert len(patched) == 1                 # existing shard
    _spawn_named(kernel, manager, ["t1-oltp"])
    assert len(patched) == 2                 # lazily created one too


# -- golden equivalence -----------------------------------------------------

def _corpus_case_ids():
    return sorted(
        (name[:-5] for name in os.listdir(GOLDEN_DIR)
         if name.endswith(".json")),
        key=lambda cid: int(cid[1:]),
    )


def _sharded_factory(kernel, enabled, penalty_engine):
    return ShardedPBoxManager(kernel, enabled=enabled,
                              penalty_engine=penalty_engine)


@pytest.mark.parametrize("case_id", _corpus_case_ids())
def test_corpus_replays_bit_identical_through_facade(case_id):
    """Every committed golden document survives the sharded manager.

    Case threads carry no tenant prefix, so the whole case lands in the
    ``_shared`` shard -- the facade must then be byte-for-byte the plain
    manager: same tracepoint stream, same checkpoint chain, same pinned
    stats, against the corpus committed *before* sharding existed.
    """
    with open(os.path.join(GOLDEN_DIR, "%s.json" % case_id)) as handle:
        golden = json.load(handle)
    actual = run_golden_case(case_id, golden["duration_s"], golden["seed"],
                             manager_factory=_sharded_factory)
    assert first_divergence(golden, actual) is None, (
        "sharded manager diverged from the committed golden for %s"
        % case_id)
