"""Parallel experiment execution: sharding, seeding, caching, reporting.

The runner turns any deterministic parameter sweep into a process-pool
job whose output is bit-identical to a serial run:

* :mod:`repro.runner.seeds` — stable child-seed derivation (SHA-256 of
  root seed + shard key; process- and platform-independent);
* :mod:`repro.runner.tasks` — :class:`SweepTask` shards and the worker
  entry point that resolves them against :mod:`repro.scenarios`;
* :mod:`repro.runner.cache` — content-addressed result cache keyed by
  (code fingerprint, scenario, canonical config, seed);
* :mod:`repro.runner.pool` — :class:`SweepRunner`, the spawn-based pool;
* :mod:`repro.runner.report` — :class:`SweepReport` with the canonical
  digest the byte-identity guarantees are stated against.
"""

from repro.runner.cache import ResultCache, code_fingerprint
from repro.runner.pool import SweepRunner
from repro.runner.report import ShardResult, SweepReport
from repro.runner.seeds import derive_seed, shard_key
from repro.runner.tasks import SweepTask, execute_task

__all__ = [
    "ResultCache",
    "ShardResult",
    "SweepReport",
    "SweepRunner",
    "SweepTask",
    "code_fingerprint",
    "derive_seed",
    "execute_task",
    "shard_key",
]
