"""The reference loop that tells how fast the machine runs right now."""

import time


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i % 7
    return time.perf_counter() - start
