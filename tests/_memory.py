"""The memory one call allocates, as tracemalloc sees it.

tracemalloc counts the bytes Python and numpy allocate while it traces, so
the peak of one call is what that call held at once on top of what existed
before, and the bytes still held when it returns are what it kept (its
result among them).
"""

from __future__ import annotations

import tracemalloc


def traced_call(call, warm_up=None):
    """Run ``call()`` under tracemalloc; return ``(result, peak, held)`` in bytes.

    ``warm_up()`` (by default ``call()`` itself) runs first, outside the
    trace, so imports, caches and lazily computed attributes are in place.
    Tracing stops whatever the call raises.
    """
    (call if warm_up is None else warm_up)()
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, held
