"""The policy registry: one catalog entry per inclusion policy.

Before the arena, the set of known policies lived in three places at
once — a factory dict in :mod:`repro.core.policies`, the 7-tuple
``DEFAULT_POLICIES`` in :mod:`repro.validate.differential`, and
hardcoded ``--policies`` defaults in the CLI. Adding a policy meant
touching all of them and hoping nothing drifted. The registry replaces
that: every policy is a :class:`PolicyEntry` carrying its factory *and*
its metadata — source paper + section anchor, data-flow rules, probe
events, invariant coverage, and which curated sets (arena grid,
``repro check`` default) it belongs to. Everything that used to
hardcode a tuple now derives it from here, and the DESIGN.md §15
catalog table is checked against these entries by a doc-sync test.
Batched-kernel support is not an entry field: :func:`catalog_rows`
asks :func:`repro.kernel.batch.supports_policy` of each built entry.

Import discipline: this module imports only the stdlib and
:mod:`repro.errors`, and entry factories are dotted-path strings
resolved lazily at :func:`make` time (as is the kernel, at
:func:`catalog_rows` time) — so the registry is safe to import from
anywhere (``core.policies``, ``exec.jobs``) without creating import
cycles. The catalog itself lives in
:mod:`repro.arena.catalog` and is loaded on first use.
"""

from __future__ import annotations

import contextlib
import dataclasses
import difflib
import importlib
import inspect
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError


@dataclass(frozen=True)
class PolicyEntry:
    """One registered inclusion policy and its paper-anchored metadata.

    ``factory`` is a lazy ``"module:attr"`` dotted path (or, mainly
    for tests patching entries, a callable); ``defaults`` are
    constructor kwargs merged *under* the caller's (so
    ``make("lap-lru")`` pins ``replacement_mode="lru"`` but a caller
    can still pass ``duel_interval=...``).
    """

    name: str
    factory: object
    summary: str
    #: source paper (short citation, arXiv id or venue)
    paper: str
    #: section / figure / equation anchor inside that paper
    anchor: str
    #: one-line insertion/victim/copy-back rule description
    rules: str
    aliases: Tuple[str, ...] = ()
    defaults: Tuple[Tuple[str, object], ...] = ()
    #: needs a hybrid (SRAM+STT) LLC geometry to be meaningful
    hybrid_only: bool = False
    #: member of the ``repro compare --arena`` grid
    arena: bool = True
    #: member of the default ``repro check`` / differential set
    check_default: bool = False
    #: probe-bus events this policy's flows emit beyond the common set
    events: Tuple[str, ...] = ()
    #: invariants from :data:`repro.validate.invariants.INVARIANTS`
    #: that actively constrain this policy (beyond the always-on ones)
    invariants: Tuple[str, ...] = ()

    def _factory(self):
        """The factory callable (imports a dotted path lazily)."""
        obj = self.factory
        if isinstance(obj, str):
            module_name, _, attr = obj.partition(":")
            obj = getattr(importlib.import_module(module_name), attr)
        return obj

    def accepts(self, kwarg: str) -> bool:
        """Whether the factory takes the keyword argument ``kwarg``
        (a ``**kwargs`` factory takes any)."""
        params = inspect.signature(self._factory()).parameters
        found = params.get(kwarg)
        if found is not None:
            return found.kind is not inspect.Parameter.POSITIONAL_ONLY
        return any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values())

    def build(self, **kwargs):
        """Instantiate the policy (lazy factory import)."""
        merged = dict(self.defaults)
        merged.update(kwargs)
        return self._factory()(**merged)


_ENTRIES: Dict[str, PolicyEntry] = {}
_ALIASES: Dict[str, str] = {}
_LOADED = False


def register(entry: PolicyEntry) -> PolicyEntry:
    """Add ``entry`` to the registry (name and aliases must be fresh)."""
    for name in (entry.name, *entry.aliases):
        if name in _ENTRIES or name in _ALIASES:
            raise ConfigurationError(f"policy name {name!r} registered twice")
    _ENTRIES[entry.name] = entry
    for alias in entry.aliases:
        _ALIASES[alias] = entry.name
    return entry


def _ensure_loaded() -> None:
    """Populate the registry from :mod:`repro.arena.catalog` on first use."""
    global _LOADED
    if not _LOADED:
        _LOADED = True
        importlib.import_module("repro.arena.catalog")


def suggest(name: str) -> Optional[str]:
    """Nearest known policy name or alias, for error messages."""
    _ensure_loaded()
    matches = difflib.get_close_matches(name, [*_ENTRIES, *_ALIASES], n=1, cutoff=0.5)
    return matches[0] if matches else None


def unknown_policy(name: str) -> ConfigurationError:
    """Build the error for an unknown policy: valid names + nearest match."""
    _ensure_loaded()
    message = f"unknown policy {name!r}; valid policies: {', '.join(sorted(_ENTRIES))}"
    near = suggest(name)
    if near is not None:
        message += f" (did you mean {canonical(near)!r}?)"
    return ConfigurationError(message)


def get(name: str) -> PolicyEntry:
    """Look up an entry by canonical name or alias."""
    _ensure_loaded()
    entry = _ENTRIES.get(name)
    if entry is None:
        target = _ALIASES.get(name)
        entry = _ENTRIES.get(target) if target else None
    if entry is None:
        raise unknown_policy(name)
    return entry


def canonical(name: str) -> str:
    """Resolve an alias to its canonical registry name."""
    return get(name).name


def make(name: str, **kwargs):
    """Instantiate a fresh policy by registry name or alias."""
    return get(name).build(**kwargs)


def entries() -> Tuple[PolicyEntry, ...]:
    """Every registered entry, in registration order."""
    _ensure_loaded()
    return tuple(_ENTRIES.values())


def names() -> Tuple[str, ...]:
    """Every canonical policy name, in registration order."""
    return tuple(e.name for e in entries())


def aliases() -> Dict[str, str]:
    """alias → canonical-name map."""
    _ensure_loaded()
    return dict(_ALIASES)


def check_names() -> Tuple[str, ...]:
    """The curated default set for ``repro check`` / the differential
    harness (the paper's evaluated policies plus the arena rivals)."""
    return tuple(e.name for e in entries() if e.check_default)


def arena_names(hybrid: bool = False) -> Tuple[str, ...]:
    """The ``repro compare --arena`` grid members.

    Hybrid-only policies (the Lhybrid family) join only when the grid
    runs on a hybrid LLC (``hybrid=True``).
    """
    return tuple(
        e.name for e in entries() if e.arena and (hybrid or not e.hybrid_only)
    )


def validate_names(
    policies, *, error: Optional[Callable[[str], Exception]] = None
) -> Tuple[str, ...]:
    """Canonicalize a sequence of policy names, failing on the first
    unknown one. ``error`` rewraps the registry's message in a
    different exception type (the exec layer raises ExecutionError)."""
    resolved: List[str] = []
    for name in policies:
        try:
            resolved.append(canonical(name))
        except ConfigurationError as exc:
            if error is not None:
                raise error(str(exc)) from None
            raise
    return tuple(resolved)


@contextlib.contextmanager
def overridden(name: str, factory) -> "object":
    """Temporarily swap a policy's factory (mutation/fault-injection
    tests re-introduce historical bugs through this hook)."""
    entry = get(name)
    _ENTRIES[entry.name] = dataclasses.replace(entry, factory=factory)
    try:
        yield
    finally:
        _ENTRIES[entry.name] = entry


def catalog_rows() -> List[dict]:
    """Rows for the ``repro list`` output and the DESIGN.md catalog;
    ``kernel`` is ``"batched"`` for each entry whose built policy the
    batched kernel inlines, else ``"generic"``."""
    from ..kernel.batch import supports_policy

    return [
        {
            "name": e.name,
            "aliases": "/".join(e.aliases),
            "paper": e.paper,
            "anchor": e.anchor,
            "rules": e.rules,
            "kernel": "batched" if supports_policy(e.build()) else "generic",
            "hybrid_only": e.hybrid_only,
            "arena": e.arena,
            "check_default": e.check_default,
            "events": e.events,
            "invariants": e.invariants,
        }
        for e in entries()
    ]
