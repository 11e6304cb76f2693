"""The one result cache of the library.

Evaluation, free realisations, pp-type generators, Hom bases, the
powers M^k (``modules.power``, keyed by M's fingerprint and k) and
End/Biend rings are pure functions of their arguments' fingerprints, so
each keeps its results keyed by those fingerprints; the argument-free
fixtures key their one result by ``()``.  An algebra, module or formula
computes its fingerprint once, so the keys naming one module share its
tuple.

Each cache is bounded: past ``BOUND`` entries the least recently used
one goes.  ``BOUND`` is 2.5 times the largest cache of any benchmark
workload or acceptance run (12,939 ``evaluate`` entries after one
acceptance run), so none of them evicts, and no report depends on
eviction.  Each wrapper counts its hits, misses and evictions, and
``CACHES`` lists every wrapper.
"""

from __future__ import annotations

import functools
from collections import OrderedDict

BOUND = 2**15

# every memoised function, in definition order
CACHES: list = []

_MISSING = object()


def memo(key):
    """Decorator: cache a pure function's results under ``key(*args)``.

    The wrapper keeps the function's name and docstring and exposes its
    LRU dict as ``wrapper.cache`` and its counters as ``wrapper.stats()``.
    ``BOUND`` is read on every insert.  A call that raises is counted as
    a miss and not cached.
    """

    def decorate(fn):
        cache: OrderedDict = OrderedDict()
        counts = {"hits": 0, "misses": 0, "evictions": 0}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = key(*args, **kwargs)
            value = cache.get(k, _MISSING)
            if value is _MISSING:
                counts["misses"] += 1
                value = cache[k] = fn(*args, **kwargs)
                while len(cache) > BOUND:
                    cache.popitem(last=False)
                    counts["evictions"] += 1
            else:
                counts["hits"] += 1
                cache.move_to_end(k)
            return value

        def stats() -> dict:
            """Hits, misses, evictions, size and bound of this cache."""
            return {**counts, "size": len(cache), "bound": BOUND}

        wrapper.cache = cache
        wrapper.stats = stats
        CACHES.append(wrapper)
        return wrapper

    return decorate
