"""Content-addressed on-disk result cache.

Each entry is one JSON file ``<root>/<key[:2]>/<key>.json`` holding the
job's payload plus enough metadata to detect corruption::

    {"version": 1, "key": ..., "task": ..., "salt": ..., "payload": ...}

Design points:

* **content addressing** — the key (see :func:`repro.exec.job.job_key`)
  digests the canonical spec text, partition, model, protocol, seed and
  a code-version salt, so a lookup can only ever return a result
  computed from identical inputs by identical code;
* **corruption tolerance** — a truncated, unparsable or mislabelled
  entry is deleted and reported as a miss (``stats.errors``), never
  served;
* **atomic writes** — entries are written to a temp file and renamed,
  so a crashed writer leaves no half-entry behind;
* **capacity floor** — when the entry count exceeds ``capacity`` the
  oldest entries (by mtime, name-tiebroken) are evicted *down to
  exactly* ``capacity``: eviction never drops the population below the
  configured floor;
* **constant-time puts** — the cache keeps an entry count under a
  lock (every serve slot's thread shares one cache).  The directory is
  scanned (walked and every entry ``stat``-ed) on the first put and
  afterwards only when the count exceeds ``capacity``, so a put below
  capacity costs one file write.  The scan evicts as above and resets
  the count to the entries left, which also takes in what other
  writers (another instance, another process) added to the same root.
  An overwrite or a rejected corrupt entry leaves the count high,
  which only brings the next scan forward;
* **pass-through degradation** — an unwritable cache directory
  (read-only filesystem, permissions, a file squatting on the path)
  turns ``put`` into a warned-once no-op instead of failing the
  campaign: reads still serve whatever is already there, writes are
  dropped and counted in ``stats.write_errors``.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["CacheStats", "ResultCache", "DEFAULT_CACHE_DIR", "default_cache_dir"]

#: Entry-file schema version.
_VERSION = 1

#: Default cache location (overridable via ``REPRO_CACHE_DIR``).
DEFAULT_CACHE_DIR = ".repro_cache"


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` or ``.repro_cache`` under the cwd."""
    return os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR


@dataclass
class CacheStats:
    """Cumulative counters of one :class:`ResultCache` instance — the
    only store of its events; every engine sharing the cache adds to
    them (each engine counts its own lookups in its ``ExecMetrics``)."""

    hits: int = 0
    misses: int = 0
    errors: int = 0
    evictions: int = 0
    puts: int = 0
    write_errors: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "errors": self.errors,
            "evictions": self.evictions,
            "puts": self.puts,
            "write_errors": self.write_errors,
        }


@dataclass
class ResultCache:
    """The on-disk store.  ``capacity`` bounds the number of entries
    (and is the floor eviction never undercuts); ``salt`` is stamped
    into entries for debuggability only — the key already encodes it."""

    root: str
    capacity: int = 4096
    stats: CacheStats = field(default_factory=CacheStats)
    #: set once ``put`` hits an unwritable directory; further puts no-op
    read_only: bool = field(default=False, compare=False)
    #: entries on disk as of the last scan plus puts since (``None``
    #: until the first put scans the directory)
    _count: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {self.capacity}")

    # -- paths ---------------------------------------------------------------

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    def entries(self) -> List[str]:
        """Every stored key (unordered)."""
        if not os.path.isdir(self.root):
            return []
        found = []
        for dirpath, _, filenames in os.walk(self.root):
            for filename in filenames:
                if filename.endswith(".json"):
                    found.append(filename[:-5])
        return found

    def __len__(self) -> int:
        return len(self.entries())

    # -- lookup --------------------------------------------------------------

    def get(self, key: str, task: Optional[str] = None) -> Optional[Dict[str, object]]:
        """The payload stored under ``key``, or ``None``.

        A present-but-unusable entry (truncated file, JSON damage, a
        key or task label that does not match its address) is deleted
        and counted in ``stats.errors`` — a corrupt entry degrades to a
        recompute, never to a wrong result.
        """
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError, UnicodeDecodeError):
            self._discard(path)
            self.stats.errors += 1
            self.stats.misses += 1
            return None
        if (
            not isinstance(data, dict)
            or data.get("version") != _VERSION
            or data.get("key") != key
            or (task is not None and data.get("task") != task)
            or "payload" not in data
        ):
            self._discard(path)
            self.stats.errors += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return data["payload"]

    # -- store ---------------------------------------------------------------

    def put(
        self,
        key: str,
        task: str,
        payload: Dict[str, object],
        salt: Optional[str] = None,
    ) -> None:
        """Store ``payload`` under ``key`` (atomic), then enforce the
        capacity bound (see the module docstring for when that scans).

        On an unwritable cache directory this *degrades to
        pass-through* instead of raising mid-campaign: the first
        failure warns once on stderr, marks the cache ``read_only``
        and every later ``put`` becomes a counted no-op.  Lookups keep
        working against whatever the directory already holds.
        """
        if self.read_only:
            self.stats.write_errors += 1
            return
        path = self._path(key)
        entry = {
            "version": _VERSION,
            "key": key,
            "task": task,
            "salt": salt,
            "payload": payload,
        }
        tmp = None
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(path), prefix=".tmp-", suffix=".json"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle)
            os.replace(tmp, path)
        except OSError as exc:
            if tmp is not None:
                self._discard(tmp)
            self.stats.write_errors += 1
            self.read_only = True
            print(
                f"repro: result cache at {self.root!r} is unwritable "
                f"({exc}); continuing without caching",
                file=sys.stderr,
            )
            return
        except BaseException:
            if tmp is not None:
                self._discard(tmp)
            raise
        self.stats.puts += 1
        with self._lock:
            if self._count is not None:
                self._count += 1
            if self._count is None or self._count > self.capacity:
                self._enforce_capacity()

    # -- eviction ------------------------------------------------------------

    def _aged_entries(self) -> List[Tuple[int, str, str]]:
        """(mtime_ns, key, path) of every entry, oldest first."""
        aged = []
        for key in self.entries():
            path = self._path(key)
            try:
                mtime = os.stat(path).st_mtime_ns
            except OSError:
                continue
            aged.append((mtime, key, path))
        aged.sort()
        return aged

    def _enforce_capacity(self) -> None:
        """Scan the directory and evict the oldest entries down to
        exactly ``capacity``; the entries left become the count."""
        aged = self._aged_entries()
        excess = max(len(aged) - self.capacity, 0)
        for mtime, key, path in aged[:excess]:
            self._discard(path)
            self.stats.evictions += 1
        self._count = len(aged) - excess

    def _discard(self, path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass

    def remove_temp_files(self) -> int:
        """Delete abandoned ``.tmp-*`` scratch files (left behind only
        by an interrupted writer); returns how many were removed.  The
        campaign CLIs call this from their SIGINT/SIGTERM cleanup."""
        removed = 0
        if not os.path.isdir(self.root):
            return removed
        for dirpath, _, filenames in os.walk(self.root):
            for filename in filenames:
                if filename.startswith(".tmp-"):
                    self._discard(os.path.join(dirpath, filename))
                    removed += 1
        return removed

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        with self._lock:
            self._count = None
        removed = 0
        for key in self.entries():
            self._discard(self._path(key))
            removed += 1
        return removed
