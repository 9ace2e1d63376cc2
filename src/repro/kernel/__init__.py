"""Swappable tag-store backends + the batched simulation kernel.

``repro.kernel`` owns the data layout *under* every cache:

- :mod:`repro.kernel.base` — the :class:`TagStore` contract;
- :mod:`repro.kernel.object_store` — ``"object"``: one Python
  ``CacheBlock`` per way (the reference and default layout);
- :mod:`repro.kernel.soa` — ``"soa"``: struct-of-arrays numpy matrices
  with proxy views and vectorized queries;
- :mod:`repro.kernel.batch` — the flattened reference loop that runs
  whole trace batches against a checked-out store (both stores speak
  the checkout/checkin protocol), carrying the paper's standard probes
  as derived counters.

Backend selection: :func:`resolve_backend` takes an explicit argument >
``REPRO_TAG_BACKEND`` environment variable > ``"object"``.
:class:`~repro.sim.simulator.Simulator` gives the environment variable
precedence over ``SystemConfig.tag_backend`` and resolves that knob's
default, ``"auto"``, to ``"object"``. The ``"soa"`` backend requires
numpy; asking for it without numpy raises a
:class:`~repro.errors.ConfigurationError` naming the missing
dependency rather than silently falling back.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from ..errors import ConfigurationError
from .base import TagStore
from .object_store import ObjectTagStore

try:  # numpy is an optional dependency of the kernel layer
    from .soa import SoATagStore

    _NUMPY_OK = True
except ImportError:  # pragma: no cover - numpy-less environments
    SoATagStore = None  # type: ignore[assignment,misc]
    _NUMPY_OK = False

#: concrete backend names accepted everywhere a ``tag_backend`` knob
#: exists; ``"auto"`` (SystemConfig only) resolves to ``"object"``.
TAG_BACKENDS = ("object", "soa")

#: environment override consulted when no explicit backend is given —
#: the CI soa matrix leg sets ``REPRO_TAG_BACKEND=soa`` to route every
#: cache in the tier-1 suite through the SoA store.
ENV_VAR = "REPRO_TAG_BACKEND"


def numpy_available() -> bool:
    """Whether the numpy-backed ``"soa"`` store can be built."""
    return _NUMPY_OK


def resolve_backend(name: Optional[str] = None, default: str = "object") -> str:
    """Resolve a backend name: explicit > ``REPRO_TAG_BACKEND`` > default."""
    if name is None:
        name = os.environ.get(ENV_VAR) or default
    if name not in TAG_BACKENDS:
        raise ConfigurationError(
            f"unknown tag backend {name!r}; expected one of {TAG_BACKENDS}"
        )
    if name == "soa" and not _NUMPY_OK:
        raise ConfigurationError(
            "tag backend 'soa' requires numpy, which is not importable in "
            "this environment; install numpy or use tag_backend='object'"
        )
    return name


def make_tag_store(
    kind: str, num_sets: int, assoc: int, way_techs: Sequence[str]
) -> TagStore:
    """Build the tag store for one cache."""
    kind = resolve_backend(kind)
    if kind == "soa":
        return SoATagStore(num_sets, assoc, way_techs)
    return ObjectTagStore(num_sets, assoc, way_techs)


def batched_policy_names() -> tuple:
    """Policy names declared batched-kernel-eligible by the registry.

    The ground truth remains :func:`repro.kernel.batch.kernel_mode`
    (exact-type dispatch over a built policy instance); the registry
    carries the *declaration*, and the test suite asserts the two
    agree for every registered policy. New policies default to the
    generic path — they appear here only once both the declaration and
    a kernel mode exist.
    """
    from ..arena.registry import batched_names

    return batched_names()


__all__ = [
    "ENV_VAR",
    "TAG_BACKENDS",
    "TagStore",
    "ObjectTagStore",
    "SoATagStore",
    "batched_policy_names",
    "make_tag_store",
    "numpy_available",
    "resolve_backend",
]
