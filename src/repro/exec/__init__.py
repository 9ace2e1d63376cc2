"""repro.exec — parallel experiment execution with result caching.

The paper's figures are grids of independent (system × workload ×
policy) simulations. This package turns one grid cell into a value
(:class:`JobSpec`), executes batches of them over a process pool with
deterministic ordering (:func:`execute_jobs`), and memoises results in a
content-addressed on-disk cache (:class:`ResultCache`) so identical runs
are never simulated twice — across sweeps, figures, the CLI, and the
benchmark harness alike.
"""

from .cache import (
    CACHE_DIR_ENV,
    ResultCache,
    ResultCacheStats,
    cache_from_env,
    get_active_cache,
    set_active_cache,
)
from .jobs import CACHE_SCHEMA_VERSION, JobSpec, WorkloadSpec
from .pool import ExecutionOutcome, execute_jobs
from .serialize import (
    result_from_dict,
    result_to_dict,
    system_from_dict,
    system_to_dict,
)

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_SCHEMA_VERSION",
    "ExecutionOutcome",
    "JobSpec",
    "ResultCache",
    "ResultCacheStats",
    "WorkloadSpec",
    "cache_from_env",
    "execute_jobs",
    "get_active_cache",
    "result_from_dict",
    "result_to_dict",
    "set_active_cache",
    "system_from_dict",
    "system_to_dict",
]
