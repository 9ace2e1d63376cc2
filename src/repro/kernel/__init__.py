"""The batched simulation kernel.

:mod:`repro.kernel.batch` is the flattened reference loop that runs
whole trace batches against caches checked out into flat Python lists,
carrying the paper's standard probes as derived counters.
:class:`~repro.sim.simulator.Simulator` takes it whenever
:func:`~repro.kernel.batch.eligible` accepts the hierarchy and falls
back to the generic per-reference loop otherwise. Which policies it
inlines is :func:`~repro.kernel.batch.supports_policy`, whose answer
``repro list`` shows as each policy's ``kernel`` column.
"""
