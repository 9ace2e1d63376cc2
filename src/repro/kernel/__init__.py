"""The batched simulation kernel.

:mod:`repro.kernel.batch` is the flattened reference loop that runs
whole trace batches against caches checked out into flat Python lists,
carrying the paper's standard probes as derived counters.
:class:`~repro.sim.simulator.Simulator` takes it whenever
:func:`~repro.kernel.batch.eligible` accepts the hierarchy and falls
back to the generic per-reference loop otherwise.
"""

from __future__ import annotations


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


__all__ = ["batched_policy_names"]
