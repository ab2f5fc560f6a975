"""Timings scaled to a reference host speed.

The benchmark runs on a shared virtual machine whose speed changes by up
to 1.8x, in phases that last from a fraction of a second to minutes: the
fixed loop of host.calib_ms takes 14 ms in a fast phase and 26 ms in a
slow one.  Raw wall times then spread more from run to run than any bound
a change could be judged by, and a calibration taken only before and
after a campaign misses the phases that change during it.

While a Clock is running, an interval timer interrupts the process every
PERIOD_S and runs a short fixed computation, the sample, timed in thread
CPU time.  A timed call is scaled to the time it would take on a host
where the sample takes REF_S: its running time times the mean of
REF_S / sample over the samples taken during it (or the MIN_SAMPLES
nearest ones, for a call shorter than that).  The sample is the
benchmark's own code, so a change to numsgp moves a scaled time as much
as a raw one.

In busy hours the hypervisor takes a fifth or more of the CPU time to run
other machines.  Thread CPU time leaves that stolen time out, so the
running time of a call that runs in this process is its thread CPU time,
less the samples taken inside it.

A jobs-2 campaign does its work in forked workers, which the main
process's samples do not see.  Each process forked while a Clock runs
takes its own samples, every PERIOD_S of its CPU time, and adds them to
its slot in a table shared with the main process.  A call that forked
workers is scaled by the mean over all their samples, so the busiest
worker, which sets the call's time, weighs the most.  Its running time
is its wall time less the share stolen from the CPU that lost the most,
which the kernel counts in /proc/stat and each sample reads; a CPU that
idles loses none.  The workers' samples stay in the call's time: about
2% of it.
"""

from __future__ import annotations

import mmap
import os
import signal
import statistics
import struct
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from time import perf_counter, thread_time

#: Sample time of the reference host, in seconds.  The benchmark's host
#: reads 0.28 ms at its fastest and about 0.6 ms in its slow phases.
REF_S = 0.5e-3

#: The sample's work: its genus bound, and the bits of a member mask,
#: enough for every generator the walk tests.
SAMPLE_GENUS = 7
SAMPLE_LIMIT = 3 * SAMPLE_GENUS + 3

#: Time between two samples: the timer takes about 2% of the run.
PERIOD_S = 0.02

#: Fewest samples that scale one timing; a query shorter than the period
#: takes the nearest ones.
MIN_SAMPLES = 4

#: Slots in the table of the forked workers' samples: more than one timed
#: call forks.
SLOTS = 64
SLOT = struct.Struct("dd")  # sum of REF_S / sample, number of samples

#: A call shorter than this takes the steal rate over this much time
#: around it: the kernel counts stolen time in ticks of 10 ms.
STEAL_WINDOW_S = 1.0

#: The Clock that is running, if any; processes forked meanwhile sample.
_running = None

_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def _loop() -> int:
    """Count the numerical semigroups of genus at most SAMPLE_GENUS (89).

    The tree walk of a campaign in miniature, written apart from numsgp:
    a child removes one minimal generator above the Frobenius number, and
    a semigroup is a bitmask of its members below SAMPLE_LIMIT.  A loop of
    arithmetic alone tracked the host's speed less well, because the
    phases slow an interpreter's varied work more than a tight loop.
    """
    count = 0
    stack = [((1 << SAMPLE_LIMIT) - 1, -1, 1, 0)]  # mask, F, m, genus
    while stack:
        mask, frob, mult, genus = stack.pop()
        count += 1
        if genus == SAMPLE_GENUS:
            continue
        for x in range(max(frob + 1, 1), frob + mult + 2):
            if not (mask >> x) & 1 or any(
                    (mask >> a) & 1 and (mask >> (x - a)) & 1
                    for a in range(1, x // 2 + 1)):
                continue
            child = mask ^ (1 << x)
            m = mult
            if x == mult:
                m = x + 1
                while not (child >> m) & 1:
                    m += 1
            stack.append((child, x, m, genus + 1))
    return count


def _steal_s() -> tuple:
    """Seconds the hypervisor has taken from each of this machine's CPUs,
    or () where the kernel does not say."""
    try:
        with open("/proc/stat") as f:
            return tuple(int(line.split()[8]) / _TICKS_PER_S for line in f
                         if line.startswith("cpu") and line[3].isdigit())
    except (OSError, IndexError, ValueError):
        return ()


def _sample_s() -> float:
    """Thread CPU seconds of one run of _loop."""
    cpu = thread_time()
    _loop()
    return thread_time() - cpu


def _before_fork() -> None:
    clock = _running
    if clock is not None:
        clock.forks += 1
        SLOT.pack_into(clock.table, clock.forks % SLOTS * SLOT.size, 0, 0)


def _in_child() -> None:
    """Sample in a process forked while a Clock runs."""
    global _running
    clock, _running = _running, None
    if clock is None:
        return
    table, offset = clock.table, clock.forks % SLOTS * SLOT.size

    def sample(signum, frame):
        speed = REF_S / _sample_s()
        total, count = SLOT.unpack_from(table, offset)
        SLOT.pack_into(table, offset, total + speed, count + 1)
    signal.signal(signal.SIGVTALRM, sample)
    signal.setitimer(signal.ITIMER_VIRTUAL, PERIOD_S, PERIOD_S)


os.register_at_fork(before=_before_fork, after_in_child=_in_child)


class Clock:
    def __init__(self):
        self.stamps: list = []   # perf_counter() at the end of each sample
        self.samples: list = []  # thread CPU seconds of each sample
        self.steals: list = []   # _steal_s() at the end of each sample
        self.spent = 0.0         # thread CPU seconds spent in samples
        self.forks = 0           # processes forked while running
        self.table = mmap.mmap(-1, SLOTS * SLOT.size)  # shared with them
        self.run_s = 0.0         # seconds running
        self.steal_s = 0.0       # seconds stolen meanwhile, all CPUs

    def _sample(self, signum, frame) -> None:
        cpu = thread_time()
        self.samples.append(_sample_s())
        self.steals.append(_steal_s())
        self.stamps.append(perf_counter())
        self.spent += thread_time() - cpu

    @contextmanager
    def running(self):
        """Take samples inside the with-block."""
        global _running
        old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        _running = self
        start, steal = perf_counter(), sum(_steal_s())
        try:
            yield self
        finally:
            _running = None
            self.run_s += perf_counter() - start
            self.steal_s += sum(_steal_s()) - steal
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, old)

    def time(self, fn, *args) -> tuple:
        """(fn(*args), timing), a timing to pass to scaled().

        A timing is (start, end, cpu, workers' speed): cpu is the thread
        CPU time of the call, less the samples taken inside it, or None
        when the call forked workers.
        """
        spent, forks = self.spent, self.forks
        start, cpu = perf_counter(), thread_time()
        result = fn(*args)
        cpu = thread_time() - cpu - (self.spent - spent)
        end = perf_counter()
        if self.forks > forks:
            return result, (start, end, None, self._workers_speed(forks))
        return result, (start, end, cpu, None)

    def _workers_speed(self, forks: int):
        """Mean REF_S / sample of the processes forked since forks."""
        if self.forks - forks > SLOTS:
            raise RuntimeError("one call forked more than %d processes"
                               % SLOTS)
        total = count = 0
        for fork in range(forks + 1, self.forks + 1):
            t, c = SLOT.unpack_from(self.table, fork % SLOTS * SLOT.size)
            total, count = total + t, count + c
        return total / count if count >= MIN_SAMPLES else None

    def stolen(self, start: float, end: float) -> float:
        """Share of the time from start to end that the hypervisor took
        from the CPU it took the most from.  A CPU that idles accrues no
        stolen time, so this is the share lost by a CPU that did the work.
        """
        mid = (start + end) / 2
        lo = bisect_right(self.stamps,
                          min(start, mid - STEAL_WINDOW_S / 2)) - 1
        hi = bisect_left(self.stamps, max(end, mid + STEAL_WINDOW_S / 2))
        lo, hi = max(lo, 0), min(hi, len(self.stamps) - 1)
        if hi <= lo:
            return 0.0
        seconds = self.stamps[hi] - self.stamps[lo]
        share = max((b - a for a, b in zip(self.steals[lo], self.steals[hi])),
                    default=0.0) / seconds
        return min(max(share, 0.0), 0.9)

    def scaled(self, timing: tuple) -> float:
        """Seconds the timed call would take at the reference speed, with
        nothing stolen: its CPU time where the timing has it, else its
        wall time less the stolen share."""
        start, end, cpu, workers_speed = timing
        if cpu is None:
            running = (end - start) * (1 - self.stolen(start, end))
            if workers_speed is not None:
                return running * workers_speed
        else:
            running = cpu
        lo = bisect_left(self.stamps, start)
        hi = bisect_right(self.stamps, end)
        if hi - lo < MIN_SAMPLES:
            lo = max(0, min(lo - MIN_SAMPLES // 2,
                            len(self.samples) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        speed = statistics.fmean(REF_S / s for s in self.samples[lo:hi])
        return running * speed

    def summary(self) -> str:
        ms = [s * 1e3 for s in self.samples]
        steal = self.steal_s / (self.run_s * os.cpu_count()) * 100
        return ("%d samples of %.3f ms median, %.3f-%.3f ms; host steal "
                "%.1f%% of CPU time"
                % (len(ms), statistics.median(ms), min(ms), max(ms), steal))
