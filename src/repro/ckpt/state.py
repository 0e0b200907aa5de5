"""Canonical state walks: the checkpoint's view of the simulation.

A *walk* is a JSON-safe, deterministically-ordered rendering of every
piece of observable simulation state: the kernel (clock, run queues,
timer wheel entries, futex waiters, cgroups, per-thread accounting, RNG
stream fingerprints, penalty-armer buckets) and the complete pBox layer
(manager or sharded facade, pBoxes, heal trends, pending penalties).

Walker purity rule
------------------

Walking MUST NOT perturb the run: no tracepoint fires, no RNG draw, no
``itertools.count`` tick (the kernel's ``_seq``/``_req_seq`` and the
manager's flow-id counter are skipped entirely -- a count cannot be
read without advancing it, and replay reconstructs them exactly while
the trace digest pins the orderings they feed).  Every ``snapshot_state``
method this module composes obeys the rule; the restore-equality suite
checkpoints mid-run and asserts the final golden digest does not move,
which would catch any violation.
"""

import hashlib
import json

from repro.obs.golden import canonical_value

#: Schema version of state walks (bump when any walker changes shape;
#: stored checkpoints from other schemas must be rejected, never
#: reinterpreted).  Schema 2 drops three manager-walk keys -- the scan
#: mode, the detection dirty set and the shared penalty budget -- with
#: the mechanisms they rendered.
STATE_SCHEMA = 2


def walk_state(kernel, manager):
    """Full canonical walk of one simulation's state.

    ``manager`` may be a :class:`~repro.core.manager.PBoxManager`, a
    :class:`~repro.core.shards.ShardedPBoxManager`, or ``None`` (a run
    without the pBox layer).  Resource keys are rendered with the
    golden corpus's :func:`~repro.obs.golden.canonical_value`, so walk
    text is stable across processes exactly like trace text.
    """
    return {
        "schema": STATE_SCHEMA,
        "kernel": kernel.snapshot_state(label=canonical_value),
        "manager": (None if manager is None
                    else manager.snapshot_state(label=canonical_value)),
    }


def canonical_json(obj):
    """Canonical JSON text: sorted keys, no whitespace, exact floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def state_digest(walk):
    """SHA-256 over the canonical JSON of a walk.

    Tuples serialize as JSON arrays, so a walk that round-tripped
    through disk (tuples become lists) digests identically to a fresh
    one.
    """
    return hashlib.sha256(canonical_json(walk).encode()).hexdigest()


def first_difference(expected, actual, path="$"):
    """Human-readable locator of the first divergence between two walks.

    Returns ``(path, expected_repr, actual_repr)`` or ``None`` when the
    structures are equal.  Lists and tuples compare as sequences (a
    JSON round trip turns tuples into lists); dicts compare by sorted
    key.  Used to turn a state-digest mismatch into an actionable
    message instead of two opaque hashes.
    """
    if isinstance(expected, (list, tuple)) and isinstance(actual,
                                                          (list, tuple)):
        if len(expected) != len(actual):
            return (path + ".len", repr(len(expected)), repr(len(actual)))
        for index, (exp, act) in enumerate(zip(expected, actual)):
            found = first_difference(exp, act, "%s[%d]" % (path, index))
            if found is not None:
                return found
        return None
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual), key=str):
            if key not in expected:
                return ("%s.%s" % (path, key), "<absent>",
                        repr(actual[key])[:120])
            if key not in actual:
                return ("%s.%s" % (path, key), repr(expected[key])[:120],
                        "<absent>")
            found = first_difference(expected[key], actual[key],
                                     "%s.%s" % (path, key))
            if found is not None:
                return found
        return None
    if expected != actual:
        return (path, repr(expected)[:120], repr(actual)[:120])
    return None
