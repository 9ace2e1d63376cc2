"""Content-addressed on-disk cache of simulation results.

Every entry is one JSON file named after the SHA-256 of the job's
canonical description (see :meth:`~repro.exec.jobs.JobSpec.key`), so a
result can only ever be served back to the exact (system, workload,
policy, refs) that produced it — there is no invalidation logic to get
wrong, only misses. A size cap evicts least-recently-used entries
(mtime order; hits refresh mtime). Corrupt or schema-mismatched files
count as misses and are deleted on sight.

The directory is safe to share between independent writers (concurrent
CLI invocations sharing one ``--cache-dir``, pool workers, threads of
one library caller): every store writes a process- and thread-unique
temporary file and publishes it with an atomic ``os.replace``, so
readers only ever observe complete entries, and every directory walk
tolerates entries that a racing eviction (or ``clear``) deletes
mid-scan. Two processes storing the same key both win — the entries
are byte-identical by construction (content addressing plus
deterministic simulation), so last-replace-wins is a no-op.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
from dataclasses import dataclass
from typing import Dict, Optional, Union

from ..errors import ExecutionError
from ..sim.results import RunResult
from .jobs import CACHE_SCHEMA_VERSION, JobSpec
from .serialize import result_from_dict, result_to_dict

DEFAULT_MAX_BYTES = 512 * 1024 * 1024  # 512 MiB of JSON ≈ hundreds of thousands of runs

# Environment variable consulted by :func:`cache_from_env` (the CLI and
# the benchmark harness both honour it).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

# Distinguishes concurrent in-process writers (threads of any library
# caller) sharing one pid; combined with the pid it makes temp names
# unique across processes sharing a cache directory.
_tmp_counter = itertools.count()


@dataclass
class ResultCacheStats:
    """Session counters plus the on-disk footprint of a cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    puts: int = 0
    entries: int = 0
    total_bytes: int = 0
    max_bytes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "puts": self.puts,
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "max_bytes": self.max_bytes,
        }


class ResultCache:
    """A content-addressed store of serialised :class:`RunResult`s."""

    def __init__(
        self,
        root: Union[str, pathlib.Path],
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        if max_bytes <= 0:
            raise ExecutionError(f"cache max_bytes must be positive, got {max_bytes}")
        self.root = pathlib.Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ExecutionError(f"cannot create cache directory {self.root}: {exc}") from None
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.puts = 0

    # ------------------------------------------------------------------
    def _path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.json"

    @staticmethod
    def _is_entry(path: pathlib.Path) -> bool:
        """Only content-addressed files (64-hex stems) are cache entries.

        The run manifest (``manifest.json``, see
        :mod:`repro.obs.profiling`) and any other stray files in
        the cache directory must never be counted, evicted, or cleared.
        """
        stem = path.stem
        return len(stem) == 64 and all(c in "0123456789abcdef" for c in stem)

    def _entries(self):
        return [p for p in self.root.glob("*.json") if p.is_file() and self._is_entry(p)]

    # ------------------------------------------------------------------
    def get(self, job: JobSpec) -> Optional[RunResult]:
        """Return the cached result for ``job``, or ``None`` on a miss."""
        key = job.key()
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
            if payload.get("schema") != CACHE_SCHEMA_VERSION or payload.get("key") != key:
                raise ValueError("schema/key mismatch")
            result = result_from_dict(payload["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, KeyError, OSError, ExecutionError):
            # Corrupt entry: purge it so it cannot keep masking a miss.
            path.unlink(missing_ok=True)
            self.misses += 1
            return None
        self.hits += 1
        try:
            os.utime(path)  # refresh recency for LRU eviction
        except OSError:
            pass
        return result

    def put(self, job: JobSpec, result: RunResult) -> None:
        """Store ``result`` under ``job``'s content address."""
        key = job.key()
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "job": job.to_dict(),
            "result": result_to_dict(result),
        }
        path = self._path(key)
        # Process- and thread-unique temp name: concurrent writers of
        # the same key must never interleave bytes in a shared temp
        # file. The leading dot keeps it out of the ``*.json`` walks.
        tmp = self.root / f".{key}.{os.getpid()}.{next(_tmp_counter)}.tmp"
        try:
            tmp.write_text(json.dumps(payload))
            os.replace(tmp, path)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise ExecutionError(f"cannot write cache entry {path}: {exc}") from None
        self.puts += 1
        self._enforce_cap(protect=path)

    @staticmethod
    def _sizes(entries) -> Dict[pathlib.Path, int]:
        """``{path: byte size}`` skipping entries a racer just deleted."""
        sizes: Dict[pathlib.Path, int] = {}
        for path in entries:
            try:
                sizes[path] = path.stat().st_size
            except OSError:
                continue  # evicted/cleared by a concurrent writer
        return sizes

    def _enforce_cap(self, protect: Optional[pathlib.Path] = None) -> None:
        sizes = self._sizes(self._entries())
        total = sum(sizes.values())
        if total <= self.max_bytes:
            return

        def mtime(path: pathlib.Path) -> float:
            try:
                return path.stat().st_mtime
            except OSError:
                return 0.0  # already gone: sorts first, unlink is a no-op

        # Oldest first; never evict the entry just written.
        for path in sorted(sizes, key=mtime):
            if path == protect:
                continue
            total -= sizes[path]
            path.unlink(missing_ok=True)
            self.evictions += 1
            if total <= self.max_bytes:
                break

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self._entries():
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def stats(self) -> ResultCacheStats:
        """Session hit/miss/evict counters plus current disk footprint."""
        sizes = self._sizes(self._entries())
        return ResultCacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            puts=self.puts,
            entries=len(sizes),
            total_bytes=sum(sizes.values()),
            max_bytes=self.max_bytes,
        )


# ----------------------------------------------------------------------
# process-wide active cache
# ----------------------------------------------------------------------
# sim.runner's run_policies/run_matrix pass this to execute_jobs, so
# every grid they run — figures, the benchmark harness, the CLI's
# compare/characterize — is cached without threading a cache handle
# through each call site.
_active_cache: Optional[ResultCache] = None


def set_active_cache(cache: Optional[ResultCache]) -> Optional[ResultCache]:
    """Install ``cache`` as the process-wide default; returns the old one."""
    global _active_cache
    previous = _active_cache
    _active_cache = cache
    return previous


def get_active_cache() -> Optional[ResultCache]:
    """The process-wide default cache, if any."""
    return _active_cache


def cache_from_env(env_var: str = CACHE_DIR_ENV) -> Optional[ResultCache]:
    """Build a cache from ``$REPRO_CACHE_DIR``; ``None`` when unset/empty."""
    path = os.environ.get(env_var, "").strip()
    if not path:
        return None
    return ResultCache(path)
