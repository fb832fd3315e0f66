"""Host-speed reference: a fixed piece of interpreter work, timed between
repetitions, that the end-to-end timings are scaled by.

On a shared host the CPU this benchmark gets runs the same Python code at
speeds up to 1.6 times apart, switching every few seconds as other tenants
come and go, so a raw wall-clock rate measures the neighbours as much as the
program. The reference does the kind of work the program does per packet
(tuple keys, dict get/set under a lock, method calls, small bytes) and none
of the program's code, so its time moves with the host and not with any
change to flexstate. run.py times it before every repetition and after the
last one, and divides each repetition's times by the host's slowdown over
that repetition: (mean of the reference times either side of it) /
NOMINAL_S.
"""

from __future__ import annotations

import threading
from time import perf_counter

ROUNDS = 8_000
CALLS = 4  # per sample; a sample takes about 4 x NOMINAL_S
# Median time of one reference() call on the baseline host (see NOTES.md).
# A fixed constant: it sets the scale of the reported figures, not their
# run-to-run variation.
NOMINAL_S = 0.0125


class _Slot:
    __slots__ = ("table", "lock", "count")

    def __init__(self):
        self.table: dict = {}
        self.lock = threading.Lock()
        self.count = 0

    def add(self, key, n: int) -> None:
        with self.lock:
            table = self.table
            table[key] = table.get(key, 0) + n
            self.count += 1


def reference(rounds: int = ROUNDS) -> int:
    slot = _Slot()
    seen = []
    for i in range(rounds):
        key = (i & 1023, b"k%d" % (i & 4095), i & 7)
        slot.add(key[:2], key[2])
        seen.append(key)
    return slot.count + len(seen)


def sample() -> float:
    """Mean seconds of one reference() call, over CALLS calls."""
    start = perf_counter()
    for _ in range(CALLS):
        reference()
    return (perf_counter() - start) / CALLS
