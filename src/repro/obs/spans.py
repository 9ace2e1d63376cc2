"""Lightweight span tracing: where did the wall-clock go?

A *span* is one named region of execution — ``simulate``, ``exec.batch``,
``kernel.checkout`` — with a wall-clock duration, a CPU-time duration,
and a parent span id, so a dump reconstructs the call tree of a run the
way the flight recorder reconstructs its cache-event stream. Spans are
**coarse**: one per run, per batch, per request — never per access —
so an enabled recorder costs microseconds per simulation, and a
disabled one costs a single ``is None`` check (``span()`` returns a
shared no-op object; nothing is allocated).

Usage::

    from repro.obs.spans import SpanRecorder, install_recorder, span

    recorder = SpanRecorder()
    install_recorder(recorder)
    with span("simulate", policy="lap", workload="WL1"):
        ...
    recorder.dump("spans.jsonl")

The recorder is process-global and thread-safe; each thread keeps its
own parent stack, so spans opened on a worker thread and on the main
thread never mis-parent each other. The CLI's global ``--spans PATH``
is the one switch: it turns tracing on for any command and dumps the
recorder to PATH when the command ends (``repro report`` reads a dump
named ``spans.jsonl`` in a cache directory, next to ``manifest.json``).

Dump format is one JSON object per line::

    {"id": 2, "parent": 1, "name": "exec.job", "start_s": 1754700000.1,
     "wall_s": 0.41, "cpu_s": 0.40, "status": "ok", "thread": "MainThread",
     "pid": 4242, "attrs": {"index": 0, "policy": "lap"}}
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import threading
import time
from typing import Any, Dict, List, Optional, Union

from ..errors import TelemetryError

#: File name a span dump takes when written next to a run manifest.
SPANS_NAME = "spans.jsonl"


class SpanRecorder:
    """Thread-safe collector of finished spans.

    Finished spans accumulate in memory (they are tiny: one dict each,
    and coarse-grained by design) until :meth:`dump` or :meth:`drain`.
    """

    def __init__(self) -> None:
        self._finished: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    # ------------------------------------------------------------------
    # the live-span protocol (used by _LiveSpan, not by user code)
    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        span_id = next(self._ids)
        self._stack().append(span_id)
        return span_id

    def finish(self, record: Dict[str, Any]) -> None:
        stack = self._stack()
        # Pop by identity, not position: an abandoned child (exception
        # that skipped its finish) must not mis-parent later spans.
        with _suppress_value_error():
            stack.remove(record["id"])
        with self._lock:
            self._finished.append(record)

    def current_parent(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    # reading the record
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)

    def spans(self) -> List[Dict[str, Any]]:
        """A snapshot copy of every finished span, in finish order."""
        with self._lock:
            return list(self._finished)

    def drain(self) -> List[Dict[str, Any]]:
        """Return every finished span and forget them."""
        with self._lock:
            spans, self._finished = self._finished, []
            return spans

    def dump(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Write every finished span (so far) as JSONL to ``path``.

        A directory target gets ``spans.jsonl`` inside it. The write is
        whole-file (temp + ``os.replace``) so a reader never observes a
        half-written dump, and repeated dumps of a growing recorder
        supersede each other cleanly.
        """
        path = pathlib.Path(path)
        if path.is_dir():
            path = path / SPANS_NAME
        # default=str: a span attr that slipped in as a rich object
        # (a policy instance, a Path) degrades to its repr instead of
        # killing the whole dump at the end of a long run.
        lines = "".join(
            json.dumps(s, sort_keys=True, default=str) + "\n"
            for s in self.spans()
        )
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(lines)
            os.replace(tmp, path)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise TelemetryError(f"cannot write span dump {path}: {exc}") from None
        return path


class _suppress_value_error:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return exc_type is ValueError


# ----------------------------------------------------------------------
# the process-global recorder
# ----------------------------------------------------------------------
_recorder: Optional[SpanRecorder] = None


def install_recorder(recorder: SpanRecorder) -> Optional[SpanRecorder]:
    """Install ``recorder`` process-wide; returns the previous one."""
    global _recorder
    if not isinstance(recorder, SpanRecorder):
        raise TelemetryError(
            f"install_recorder needs a SpanRecorder, got {type(recorder).__name__}"
        )
    previous = _recorder
    _recorder = recorder
    return previous


def uninstall_recorder() -> Optional[SpanRecorder]:
    """Disable tracing; returns the recorder that was active, if any."""
    global _recorder
    previous = _recorder
    _recorder = None
    return previous


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class _NullSpan:
    """The shared do-nothing span handed out while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def finish(self, status: str = "ok") -> None:
        return None

    def set(self, **attrs: Any) -> None:
        return None


_NULL = _NullSpan()


class _LiveSpan:
    """One open span; context manager and explicit-finish handle."""

    __slots__ = (
        "_recorder", "name", "id", "parent", "attrs",
        "_epoch", "_wall0", "_cpu0", "_done",
    )

    def __init__(self, recorder: SpanRecorder, name: str, attrs: Dict[str, Any]) -> None:
        self._recorder = recorder
        self.name = name
        self.attrs = attrs
        self.parent = recorder.current_parent()
        self.id = recorder.begin(name)
        self._epoch = time.time()
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        self._done = False

    def set(self, **attrs: Any) -> None:
        """Attach attributes discovered mid-span (counts, outcomes)."""
        self.attrs.update(attrs)

    def finish(self, status: str = "ok") -> None:
        if self._done:
            return
        self._done = True
        self._recorder.finish({
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start_s": self._epoch,
            "wall_s": time.perf_counter() - self._wall0,
            "cpu_s": time.process_time() - self._cpu0,
            "status": status,
            "thread": threading.current_thread().name,
            "pid": os.getpid(),
            "attrs": self.attrs,
        })

    def __enter__(self) -> "_LiveSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.finish("ok" if exc_type is None else "error")
        return False


Span = Union[_NullSpan, _LiveSpan]


def span(name: str, **attrs: Any) -> Span:
    """Open a span named ``name``; use as a context manager.

    When tracing is off this returns a shared no-op object — the cost
    is one global read and one ``is None`` test, which is why spans are
    safe to leave compiled into the exec pool and the kernel flow
    permanently.
    """
    recorder = _recorder
    if recorder is None:
        return _NULL
    return _LiveSpan(recorder, name, attrs)


def start_span(name: str, **attrs: Any) -> Span:
    """Explicit-handle twin of :func:`span` for regions where a ``with``
    block is impractical (the kernel's flat checkout→batch→checkin
    sections); call ``.finish()`` when the region ends."""
    return span(name, **attrs)


# ----------------------------------------------------------------------
# reading dumps back
# ----------------------------------------------------------------------
def read_spans(path: Union[str, pathlib.Path]) -> List[Dict[str, Any]]:
    """Parse a ``spans.jsonl`` dump; raises :class:`TelemetryError` on
    unreadable files, skips blank lines."""
    path = pathlib.Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise TelemetryError(f"cannot read span dump {path}: {exc}") from None
    spans: List[Dict[str, Any]] = []
    for n, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TelemetryError(f"{path}:{n}: malformed span line: {exc}") from None
        if not isinstance(record, dict) or "name" not in record:
            raise TelemetryError(f"{path}:{n}: span line is not a span object")
        spans.append(record)
    return spans


def summarize_spans(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per-name roll-up: count, total/mean wall, total CPU."""
    summary: Dict[str, Dict[str, float]] = {}
    for s in spans:
        row = summary.setdefault(
            s["name"], {"count": 0, "wall_s": 0.0, "cpu_s": 0.0}
        )
        row["count"] += 1
        row["wall_s"] += float(s.get("wall_s", 0.0))
        row["cpu_s"] += float(s.get("cpu_s", 0.0))
    for row in summary.values():
        row["mean_wall_s"] = row["wall_s"] / row["count"] if row["count"] else 0.0
    return summary
