"""Host-speed calibration for the benchmark's timings.

The benchmark's reference host (2 vCPUs of a shared Xeon) changes speed
by up to half within seconds, and a fixed pure-Python loop slows down
with it. So while the benchmark times something it also runs a short,
fixed slice of work every ``INTERVAL_S`` seconds, from a ``SIGALRM``
handler, and reports the time in *reference seconds*: the measured
seconds, less the time the slices took, scaled by ``REFERENCE_S`` over
the lower quartile of the slice times. A change to the program moves
the reported time as much as it moves the measured one; a change in the
host's speed moves the slices too and cancels out.

The slice imports nothing from the program, so no change to the program
can move it. Its parts are interpreted integer arithmetic, a walk over
links scattered through a megabyte (the simulator's pointer chasing
through a large heap), and modular exponentiation with a 2048-bit
modulus (the DoH handshakes). It allocates almost nothing: how long an
allocation takes depends on the state of the program's heap at the
moment the slice interrupts it, and slices that allocated tracked the
program worse than these.

The campaign and the sharded fleet run their worlds in forked worker
processes, and a slice in the parent, which mostly waits, shares a core
with a worker and measures the contention, not the host. So a probe
with a spill directory also starts in every process forked while it is
active (interval timers are not inherited across ``fork``), and its
workers' slices count with its own. The lower quartile of the slice
times keeps the parent's contended slices out of the estimate.
"""

from __future__ import annotations

import array
import gc
import os
import random
import signal
import statistics
import time
from pathlib import Path
from typing import List, Optional

#: Seconds between slices.
INTERVAL_S = 0.05

#: About the lower quartile of the slice's time, in seconds, while a
#: workload runs on the reference host (2-vCPU Intel Xeon at 2.1 GHz,
#: Python 3.11.7) in one of its fast periods. Reference seconds are
#: seconds at that speed.
REFERENCE_S = 0.0023

#: The 2048-bit MODP group of RFC 3526, the size the DoH handshakes use.
_MODULUS = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16)


def _cycle(size: int) -> array.array:
    """A random permutation of ``range(size)`` with one cycle (Sattolo's
    algorithm), so that following it visits every entry."""
    order = list(range(size))
    rng = random.Random(0)
    for index in range(size - 1, 0, -1):
        other = rng.randrange(index)
        order[index], order[other] = order[other], order[index]
    return array.array("i", order)


#: 1 MiB of ``int32`` links, more than a core's L1 and L2 caches hold.
_LINKS = _cycle(1 << 18)


def _walk(count: int) -> None:
    index = 0
    for _ in range(count):
        index = _LINKS[index]


def _arith(count: int) -> None:
    total = 0
    for index in range(count):
        total = (total + index * index) % 1000003


def _modexp(count: int) -> None:
    value = 2
    for exponent in range(count):
        value = pow(value, (1 << 64) + exponent, _MODULUS)


#: Each part's work, sized so that the parts take similar shares of the
#: slice on the reference host.
_PARTS = ((_arith, 7000), (_walk, 10000), (_modexp, 1))


def slice_s() -> float:
    """Seconds one slice takes now. The cyclic garbage collector is
    paused meanwhile, so that no collection of the program's heap is
    timed as part of a slice."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for part, count in _PARTS:
            part(count)
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


class SpeedProbe:
    """Runs a slice every ``INTERVAL_S`` seconds of wall time while
    active. Use as a context manager around what is being timed, in the
    main thread.

    With a ``spill`` directory, every process forked while the probe is
    active probes itself too, and appends its slice times to a file of
    its own there (a forked worker may end with ``os._exit``, so each
    time is written as it is taken)."""

    def __init__(self, spill: Optional[Path] = None) -> None:
        self.spill = spill
        self.slices: List[float] = []
        self._fd: Optional[int] = None

    def _tick(self, signum, frame) -> None:
        took = slice_s()
        if self._fd is None:
            self.slices.append(took)
        else:
            os.write(self._fd, b"%.9f\n" % took)

    def __enter__(self) -> "SpeedProbe":
        global _ACTIVE
        if self.spill is not None:
            self.spill.mkdir(parents=True, exist_ok=True)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        _ACTIVE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        _ACTIVE = None
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _start_in_child(self) -> None:
        # The child has its own copy of the probe, and of the handler
        # bound to it; interval timers are not inherited.
        path = self.spill / f"slices-{os.getpid()}"
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def worker_slices(self) -> List[float]:
        """The slice times forked workers wrote."""
        if self.spill is None:
            return []
        return [float(line) for path in sorted(self.spill.glob("slices-*"))
                for line in path.read_text().split()]

    def reference_s(self, measured_s: float) -> float:
        """``measured_s``, timed while the probe was active, in reference
        seconds. The slices of this process and of its workers count
        alike; with none yet (under ``INTERVAL_S``), one is taken now.
        Only this process's slices are subtracted: they stop the clock's
        process, while a worker's slice delays one worker among several."""
        slices = self.slices + self.worker_slices() or [slice_s()]
        program_s = measured_s - sum(self.slices)
        return program_s * REFERENCE_S / lower_quartile(slices)


#: The probe active in this process, if any.
_ACTIVE: Optional[SpeedProbe] = None


def _after_fork_in_child() -> None:
    if _ACTIVE is not None and _ACTIVE.spill is not None:
        _ACTIVE._start_in_child()


os.register_at_fork(after_in_child=_after_fork_in_child)


def lower_quartile(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4)[0]
