"""Host-speed calibration: a short fixed loop timed during every iteration.

The benchmark shares its host with other work, and that host's speed
drifts by tens of percent within seconds to minutes.  Every host time
the benchmark reports is therefore scaled by ``REFERENCE_S / median
loop time``, with the loop timed between slices of the iteration it
scales (about every :data:`SAMPLE_EVERY_S` of host time) and its own
time left out of the iteration's.

The loop chases pointers through a ring of objects a few MiB large,
updating slots, a dict and a heap: like the simulator, it is bound by
memory latency more than by arithmetic.  On the 2-CPU host the bounds
were set on, its time tracked the workloads' with a correlation of
0.84-0.88, where a loop over a cache-sized working set tracked them
worse than no scaling at all.  It imports nothing from the simulator,
so no change to the simulator can move it.  Raw times are recorded
beside the scaled ones.
"""

import heapq
import random
import statistics
import time

#: Scaled times read as seconds on a host whose loop takes this long
#: (about what the loop takes on the 2-CPU host the bounds were set on).
REFERENCE_S = 0.02

RING_CELLS = 60_000
LOOP_STEPS = 9_000

#: Host seconds of workload between two calibration samples.
SAMPLE_EVERY_S = 0.5


class _Cell:
    __slots__ = ("next", "value", "hits")


def _ring(count, seed=7):
    """``count`` cells linked in one shuffled cycle."""
    cells = [_Cell() for _ in range(count)]
    order = list(range(count))
    random.Random(seed).shuffle(order)
    for here, there in zip(order, order[1:] + order[:1]):
        cells[here].next = cells[there]
        cells[here].value = here
        cells[here].hits = 0
    return cells[0]


def loop(start, steps=LOOP_STEPS):
    """The calibration work; returns a checksum so nothing is elided."""
    cell = start
    heap = []
    table = {}
    acc = 0
    for i in range(steps):
        cell = cell.next.next.next
        cell.hits += 1
        key = cell.value & 4095
        table[key] = table.get(key, 0) + cell.hits
        heapq.heappush(heap, (cell.value & 1023, i))
        if len(heap) > 512:
            acc += heapq.heappop(heap)[1]
    return acc


class HostSpeed:
    """The calibration ring plus the samples of the current iteration."""

    def __init__(self):
        self._start = _ring(RING_CELLS)
        self.begin()

    def begin(self):
        """Start a new iteration's samples."""
        self.samples = []
        self.spent_s = 0.0       # host time the samples themselves took
        self._last = None

    def sample(self):
        start = time.perf_counter()
        loop(self._start)
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent_s += end - start
        self._last = end

    def maybe_sample(self):
        """Sample when :data:`SAMPLE_EVERY_S` has passed since the last."""
        if self._last is None or \
                time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    @property
    def scale(self):
        """Factor from raw host seconds to scaled seconds."""
        return REFERENCE_S / statistics.median(self.samples)
