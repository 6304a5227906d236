"""The memory guards' probe: the peak of the memory that Python and numpy
allocate during one call, above what was allocated before it."""

import tracemalloc


def traced_peak(fn, *args) -> int:
    """The traced peak, in bytes, of fn(*args) above the memory traced at
    its start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
