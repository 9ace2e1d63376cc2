"""Shared fixtures: tiny deterministic systems for fast tests.

The micro-hierarchy helpers live in :mod:`repro.testing` (they are part
of the public API, reused by the benchmark harness); this conftest
re-exports them so test modules can import everything from one place.
"""

from __future__ import annotations

import pytest

from repro.cache import Cache, LRUPolicy
from repro.inclusion.base import LLCAccess
from repro.inclusion.traditional import ExclusivePolicy
from repro.sim import SystemConfig
from repro.testing import (  # noqa: F401  (re-exported for test modules)
    A,
    B,
    BLOCK,
    C,
    D,
    E,
    F,
    G,
    H,
    build_micro,
    micro_hierarchy_config,
    run_refs,
)


@pytest.fixture
def micro_config():
    return micro_hierarchy_config()


@pytest.fixture
def small_system() -> SystemConfig:
    """A very small but complete system for integration tests."""
    return SystemConfig.scaled(ncores=2, llc_kb=32, l2_kb=4, duel_interval=512)


@pytest.fixture
def small_hybrid_system() -> SystemConfig:
    return SystemConfig.scaled(ncores=2, llc_kb=32, l2_kb=4, hybrid=True, duel_interval=512)


@pytest.fixture
def tiny_cache() -> Cache:
    """64-block, 4-way cache with LRU for substrate tests."""
    return Cache("tiny", 4096, 4, BLOCK, replacement=LRUPolicy(), tech="sram")


def addr_of(cache: Cache, set_index: int, tag: int) -> int:
    """Address that maps to (set_index, tag) in ``cache``."""
    return cache.addr_of(set_index, tag)


class BuggyExclusivePolicy(ExclusivePolicy):
    """The pre-fix exclusive policy: hit-invalidation drops the dirty
    bit, so the LLC copy's writeback obligation vanishes (the mutant
    the invariant and differential checks must catch)."""

    def llc_access(self, h, core, addr, is_write):
        block = self._llc_lookup(h, core, addr)
        if block is None:
            return LLCAccess(hit=False, tech=self.llc.tech)
        tech = block.tech
        if not h.shared_by_peers(core, addr):
            self.llc.discard(addr)
            self.llc.stats.hit_invalidations += 1
            h.note_llc_evict(addr)
        return LLCAccess(hit=True, tech=tech)
