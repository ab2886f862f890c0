"""The peak memory of one call, as the memory-bound tests measure it."""

import tracemalloc


def peak_bytes(fn):
    """(the peak of the memory tracemalloc traces while fn() runs, its result)."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()
