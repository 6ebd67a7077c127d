"""Host-speed sampling with a fixed pure-Python reference loop.

The 2-core host this benchmark was tuned on switches each core between a
fast and a slow state every second or so, independently per core (the
loop below takes about 0.29 or 0.49 ms in the two), while CPU time tracks
wall time.  Raw wall-clock medians therefore drift between batches of
identical code, and bracketing a 2-second operation with one loop before
and one after does not help, because the state changes during it.

So the benchmark pins itself to one core and a ``Sampler`` thread runs
:func:`ref_work` on that core every ``PERIOD_S``.  While it runs it holds
the interpreter lock and the core, so the operation being timed pauses;
child processes started by the benchmark inherit the pin and are
preempted the same way.  An interval [a, b] of an operation is reported as

    sum over the pieces of [a, b] between samples:
        piece length * NOMINAL_S / (median loop time of the nearby samples)

with the samples' own time left out.  The result keeps its unit (seconds
at the nominal reference speed).  The loop mixes what hermrank's hot
paths do in the interpreter -- 64-bit shift/XOR products, small-int tuple
arithmetic mod q, list indexing and short calls -- and imports nothing
from hermrank, so a change to the code under test cannot move it.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import statistics
import threading
import time

#: Seconds one call of ref_work takes on the reference host (2-core x86-64
#: VM, CPython 3.11) in its slow state.  Changing it rescales every
#: normalised time, so it is a constant of the benchmark, not a setting.
NOMINAL_S = 0.0004
#: Time between two samples; a sample costs about 1/60 of the core.
PERIOD_S = 0.025

_MASK = (1 << 64) - 1
_ROUNDS = 35


def _clmul(a: int, b: int) -> int:
    r = 0
    while a:
        if a & 1:
            r ^= b
        a >>= 1
        b <<= 1
    return r


def _tuple_mac(x: tuple, y: tuple, q: int) -> tuple:
    return tuple((u * 2 + v) % q for u, v in zip(x, y))


def ref_work() -> int:
    """One fixed unit of interpreter work; returns a checksum."""
    z = 0x9E3779B97F4A7C15
    vec = tuple(range(38))
    table = [(i * 7919) & 0xFFFF for i in range(256)]
    out = 0
    for i in range(_ROUNDS):
        z = ((z ^ (z >> 31)) * 0xBF58476D1CE4E5B9) & _MASK
        out ^= _clmul(z & 0xFFFF, (z >> 20) & 0xFFFFFFFF) & _MASK
        vec = _tuple_mac(vec, vec[::-1], 3 + (i & 3) * 2)
        for k in range(0, 256, 16):
            out += table[(k + (z & 15)) & 255]
        out ^= sum(vec)
    return out


class Sampler:
    """Reference samples taken every PERIOD_S by a thread pinned to one core.

    ``start`` returns once the thread has its first samples; ``stop`` lets
    it take a last one, so every interval in between has samples on both
    sides.
    """

    def __init__(self, core: int):
        self.starts: list = []
        self.ends: list = []
        self.durs: list = []
        self._core = core
        self._ready = threading.Event()
        self._halt = threading.Event()
        self._thread = threading.Thread(target=self._loop, name=f"ref-sampler-{core}", daemon=True)

    def _sample(self) -> None:
        t0 = time.perf_counter()
        ref_work()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.durs.append(t1 - t0)

    def _loop(self) -> None:
        os.sched_setaffinity(0, {self._core})
        for _ in range(3):
            self._sample()
        self._ready.set()
        while not self._halt.wait(PERIOD_S):
            self._sample()
        self._sample()

    def start(self) -> "Sampler":
        self._thread.start()
        self._ready.wait()
        return self

    def stop(self) -> None:
        self._halt.set()
        self._thread.join()

    def covers(self, a: float, b: float) -> bool:
        return self.starts[0] <= a and b <= self.ends[-1]

    def _factor(self, k: int) -> float:
        """NOMINAL_S over the median of the samples around the gap before
        sample k."""
        return NOMINAL_S / statistics.median(self.durs[max(0, k - 2): k + 2])

    def norm(self, a: float, b: float) -> float:
        """Seconds of [a, b] outside the samples, at the nominal speed."""
        starts, ends = self.starts, self.ends
        k = bisect.bisect_right(ends, a)
        total, cur = 0.0, a
        while cur < b:
            if k < len(starts) and starts[k] < b:
                if starts[k] > cur:
                    total += (starts[k] - cur) * self._factor(k)
                cur = max(cur, ends[k])
                k += 1
            else:
                total += (b - cur) * self._factor(k)
                cur = b
        return total


class Session:
    """Times operations one at a time and normalises them with Samplers.

    The calling thread is pinned to the first core the process may use,
    next to the main sampler; child processes inherit that pin.  Inside
    ``all_cores()`` the thread may use every core and a sampler runs on
    each, for commands that start workers of their own; their operations
    are normalised by the mean over the cores.

    ``ops`` collects one record per operation: kind, trial, start and end
    on the perf_counter clock, raw seconds and the tracer span (or None).
    ``finish`` stops the samplers and fills in the normalised ``norm``.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops: list = []
        self._cores = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self._cores[0]})
        self._main = Sampler(self._cores[0]).start()
        self._wide: list = []

    @contextlib.contextmanager
    def all_cores(self):
        others = [Sampler(c).start() for c in self._cores[1:]]
        os.sched_setaffinity(0, set(self._cores))
        mark = len(self.ops)
        try:
            yield
        finally:
            os.sched_setaffinity(0, {self._cores[0]})
            for s in others:
                s.stop()
            self._wide.append((mark, len(self.ops), others))

    def run(self, kind: str, fn, *args, trial=None, traced=False):
        span = self.tracer.open("op." + kind, trial) if traced else None
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            if span is not None:
                self.tracer.close(span)
            self.record(kind, trial, t0, t1, span, traced)

    def record(self, kind, trial, t0, t1, span=None, traced=False) -> dict:
        op = {"kind": kind, "trial": trial, "t0": t0, "t1": t1, "raw": t1 - t0,
              "span": span, "traced": traced}
        self.ops.append(op)
        return op

    def finish(self) -> None:
        self._main.stop()
        for op in self.ops:
            op["norm"] = self.norm(op["t0"], op["t1"])
        for first, last, others in self._wide:
            for op in self.ops[first:last]:
                a, b = op["t0"], op["t1"]
                op["norm"] = statistics.mean([op["norm"]] + [s.norm(a, b) for s in others if s.covers(a, b)])

    def norm(self, a: float, b: float) -> float:
        """Normalised seconds of [a, b] on the main core."""
        return self._main.norm(a, b)

    def ref_ms(self) -> float:
        """Median reference loop time on the main core, for the raw figures."""
        return statistics.median(self._main.durs) * 1e3

    def norms(self, kind: str, traced=False) -> list:
        return [o["norm"] for o in self.ops if o["kind"] == kind and o["traced"] == traced]

    def raws(self, kind: str, traced=False) -> list:
        return [o["raw"] for o in self.ops if o["kind"] == kind and o["traced"] == traced]
