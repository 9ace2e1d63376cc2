"""Content-addressed on-disk cache of simulation results.

Every entry is one JSON file named after the SHA-256 of the job's
canonical description (see :meth:`~repro.exec.jobs.JobSpec.key`), so a
result can only ever be served back to the exact (system, workload,
policy, refs) that produced it — there is no invalidation logic to get
wrong, only misses. Corrupt or schema-mismatched files count as misses
and are deleted on sight. This module is the only reader of the entry
format: :meth:`ResultCache.get` serves one entry, and
:meth:`ResultCache.scan` walks them all read-only for the run ledger.

The directory is safe to share between independent writers (concurrent
CLI invocations sharing one ``--cache-dir``, pool workers, threads of
one library caller): every store writes a process- and thread-unique
temporary file and publishes it with an atomic ``os.replace``, so
readers only ever observe complete entries, and every directory walk
tolerates entries that a racing ``clear`` deletes mid-scan. Two
processes storing the same key both win — the entries are
byte-identical by construction (content addressing plus deterministic
simulation), so last-replace-wins is a no-op.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple, Union

from ..errors import ExecutionError, ReproError
from ..sim.results import RunResult
from .jobs import CACHE_SCHEMA_VERSION, JobSpec
from .serialize import result_from_dict, result_to_dict

# Environment variable consulted by :func:`cache_from_env` (the CLI and
# the benchmark harness both honour it).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

# Distinguishes concurrent in-process writers (threads of any library
# caller) sharing one pid; combined with the pid it makes temp names
# unique across processes sharing a cache directory.
_tmp_counter = itertools.count()


def _read(path: pathlib.Path, with_job: bool = False) -> Tuple[Optional[JobSpec], RunResult]:
    """The ``(job, result)`` stored at ``path`` (``job`` only when
    ``with_job``). A vanished file raises ``FileNotFoundError``; a
    corrupt one, or one written under another ``CACHE_SCHEMA_VERSION``
    or for another key, raises ``ExecutionError`` saying which."""
    try:
        payload = json.loads(path.read_text())
        schema = payload.get("schema")
        if schema == CACHE_SCHEMA_VERSION and payload.get("key") == path.stem:
            job = JobSpec.from_dict(payload["job"]) if with_job else None
            return job, result_from_dict(payload["result"])
    except FileNotFoundError:
        raise
    except (OSError, ValueError, LookupError, TypeError, AttributeError, ReproError) as exc:
        raise ExecutionError(f"unreadable cache entry ({exc})") from None
    if schema != CACHE_SCHEMA_VERSION:
        raise ExecutionError(
            f"cache entry schema {schema!r} is not the current {CACHE_SCHEMA_VERSION}; left out"
        )
    raise ExecutionError(f"unreadable cache entry (stored under key {payload.get('key')!r})")


@dataclass
class ResultCacheStats:
    """Session counters plus the on-disk footprint of a cache."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    entries: int = 0
    total_bytes: int = 0


class ResultCache:
    """A content-addressed store of serialised :class:`RunResult`s."""

    def __init__(self, root: Union[str, pathlib.Path]) -> None:
        self.root = pathlib.Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ExecutionError(f"cannot create cache directory {self.root}: {exc}") from None
        self.hits = 0
        self.misses = 0
        self.puts = 0

    # ------------------------------------------------------------------
    def _path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.json"

    @staticmethod
    def _is_entry(path: pathlib.Path) -> bool:
        """Only content-addressed files (64-hex stems) are cache entries.

        The run manifest (``manifest.json``, see
        :mod:`repro.obs.profiling`) and any other stray files in
        the cache directory must never be counted, scanned, or cleared.
        """
        stem = path.stem
        return len(stem) == 64 and all(c in "0123456789abcdef" for c in stem)

    def _entries(self) -> List[pathlib.Path]:
        return [p for p in self.root.glob("*.json") if p.is_file() and self._is_entry(p)]

    # ------------------------------------------------------------------
    def get(self, job: JobSpec) -> Optional[RunResult]:
        """Return the cached result for ``job``, or ``None`` on a miss."""
        path = self._path(job.key())
        try:
            _, result = _read(path)
        except FileNotFoundError:
            self.misses += 1
            return None
        except ExecutionError:
            # Corrupt or stale entry: purge it so it cannot keep masking a miss.
            path.unlink(missing_ok=True)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def scan(self, problems: List[str]) -> Iterator[Tuple[str, JobSpec, RunResult]]:
        """``(key, job, result)`` of every readable entry, in key order,
        deleting nothing: a corrupt or stale entry is noted in
        ``problems`` and skipped."""
        for path in sorted(self._entries()):
            try:
                job, result = _read(path, with_job=True)
            except FileNotFoundError:
                continue  # cleared by a concurrent caller
            except ExecutionError as exc:
                problems.append(f"{path.name}: {exc}")
                continue
            yield path.stem, job, result

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

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self._entries():
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def stats(self) -> ResultCacheStats:
        """Session hit/miss/put counters plus current disk footprint."""
        sizes = []
        for path in self._entries():
            try:
                sizes.append(path.stat().st_size)
            except OSError:
                continue  # cleared by a concurrent caller
        return ResultCacheStats(
            hits=self.hits,
            misses=self.misses,
            puts=self.puts,
            entries=len(sizes),
            total_bytes=sum(sizes),
        )


# ----------------------------------------------------------------------
# process-wide active cache
# ----------------------------------------------------------------------
# sim.runner's run_policies/run_matrix pass this to execute_jobs, so
# every grid they run — figures, the benchmark harness, the CLI's
# run/compare/characterize — is cached without threading a cache handle
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
