"""The one result cache of the library.

Evaluation, free realisations, pp-type generators and End/Biend rings
are pure functions of their arguments' fingerprints, so each keeps its
results in a dict keyed by those fingerprints; the argument-free
fixtures key their one result by ``()``.  The caches are unbounded and
live as long as the process.
"""

from __future__ import annotations

import functools


def memo(key):
    """Decorator: cache a pure function's results under ``key(*args)``.

    The wrapper keeps the function's name and docstring and exposes its
    dict as ``wrapper.cache``.
    """

    def decorate(fn):
        cache: dict = {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = key(*args, **kwargs)
            hit = cache.get(k)
            if hit is None:
                hit = cache[k] = fn(*args, **kwargs)
            return hit

        wrapper.cache = cache
        return wrapper

    return decorate
