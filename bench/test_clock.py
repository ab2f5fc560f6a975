"""A timing is scaled by the host speed sampled while it ran.

    python3 -m pytest -q bench
"""

import sys
from multiprocessing import Pool
from pathlib import Path
from time import thread_time

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from clock import MIN_SAMPLES, REF_S, Clock, _loop  # noqa: E402


def test_the_sample_counts_the_semigroups_of_genus_at_most_7():
    assert _loop() == sum((1, 1, 2, 4, 7, 12, 23, 39))  # OEIS A007323


def _synthetic(samples: list, steals: list | None = None) -> Clock:
    clock = Clock()
    clock.stamps = [float(i) for i in range(1, len(samples) + 1)]
    clock.samples = samples
    clock.steals = steals or [()] * len(samples)
    return clock


def test_scaled_uses_the_samples_inside_the_call():
    clock = _synthetic([REF_S] + [2 * REF_S] * 4 + [REF_S])
    # samples 2-5 fall inside; the host ran at half the reference speed
    assert abs(clock.scaled((1.5, 5.5, 3.9, None)) - 3.9 / 2) < 1e-12


def test_a_short_call_takes_the_nearest_samples():
    clock = _synthetic([REF_S] * 4 + [4 * REF_S] * 4)
    timing = (6.2, 6.3, 0.1, None)  # between samples 6 and 7
    speed = clock.scaled(timing) / 0.1
    assert MIN_SAMPLES == 4 and abs(speed - 0.25) < 1e-9


def test_time_the_hypervisor_stole_from_workers_is_taken_out():
    # CPU 1 loses 0.2 s a second; CPU 0, idle, loses nothing
    steals = [(0.0, 0.2 * i) for i in range(8)]
    clock = _synthetic([REF_S] * 8, steals)
    assert abs(clock.stolen(2.0, 6.0) - 0.2) < 1e-12
    assert abs(clock.scaled((2.0, 6.0, None, 1.0)) - 4 * 0.8) < 1e-12
    assert abs(clock.stolen(4.0, 4.001) - 0.2) < 1e-12  # widened window


def test_forked_workers_speed_replaces_the_main_samples():
    clock = _synthetic([REF_S] * 8)
    assert clock.scaled((1.0, 3.0, None, 0.5)) == 1.0


def _busy(seconds: float) -> int:
    end = thread_time() + seconds
    n = 0
    while thread_time() < end:
        n += 1
    return n


def _pool_call(seconds: float) -> int:
    with Pool(1) as pool:
        return pool.apply(_busy, (seconds,))


def test_forked_workers_sample_into_the_shared_table():
    clock = Clock()
    with clock.running():
        _, timing = clock.time(_pool_call, 0.2)
        _, plain = clock.time(_busy, 0.1)
    assert clock.forks == 1
    assert timing[2] is None and 0.1 < timing[3] < 10
    assert plain[3] is None and 0 < plain[2] < 0.1
    assert clock.scaled(timing) > 0 and clock.scaled(plain) > 0
