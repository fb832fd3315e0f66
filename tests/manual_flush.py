"""A CoreCache that flushes only when a test says so."""

from flexstate.cache import CoreCache


def manual_cache(*args, **kwargs) -> CoreCache:
    """CoreCache(*args, **kwargs) with its flusher stopped at once, so that
    only flush_now() and drain() push the pending log to the store."""
    cache = CoreCache(*args, **kwargs)
    cache.flusher.stop()
    return cache
