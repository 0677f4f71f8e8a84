"""Byte-bounded LRU cache for the serving fast path.

Analogue of the reference reader's LimitedCache (100 MB, versatiles
container reader: versatiles_container/src/container/versatiles/
reader.rs:135): long-running `serve` processes must not grow their
directory/tile-index caches with the archive. Eviction is
least-recently-used; entry size comes from a caller-supplied sizer so
decoded directories (lists of tuples) and raw bytes both bound
correctly.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

DEFAULT_MAX_BYTES = 100 * 1024 * 1024  # the reference's 100 MB


def sizeof_bytes(v) -> int:
    return len(v)


class LimitedCache:
    """LRU dict bounded by total value bytes (never count below one
    entry, so a single oversized value still caches and serves)."""

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES, size_of=sizeof_bytes):
        self._d: OrderedDict = OrderedDict()
        self._size_of = size_of
        self._bytes = 0
        self.max_bytes = max_bytes
        # readers holding this cache are shared across
        # ThreadingHTTPServer handler threads; unlocked put/put races
        # corrupt the byte accounting (double-add of the same key) and
        # popitem can KeyError on a concurrently-emptied dict
        self._lock = threading.Lock()

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._d

    def __len__(self) -> int:
        with self._lock:
            return len(self._d)

    @property
    def nbytes(self) -> int:
        return self._bytes

    def get(self, key, default=None):
        with self._lock:
            try:
                self._d.move_to_end(key)
                return self._d[key][0]
            except KeyError:
                return default

    def put(self, key, value):
        with self._lock:
            old = self._d.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            sz = self._size_of(value)
            self._d[key] = (value, sz)
            self._bytes += sz
            while self._bytes > self.max_bytes and len(self._d) > 1:
                _, (_v, s) = self._d.popitem(last=False)
                self._bytes -= s
        return value
