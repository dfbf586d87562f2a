"""Sweep execution engine: job model, result store, parallel executor.

* :mod:`repro.exec.jobs` — :class:`JobKey` (a deterministic, hashable
  name for one simulation) and :func:`execute_job` (run one key).
* :mod:`repro.exec.batching` — :class:`~repro.exec.batching.BatchTask`,
  the executor's only work item: same-trace jobs run over one trace
  and one plan, a lone job as a one-member task.
* :mod:`repro.exec.store` — :class:`ResultStore`, a content-addressed
  JSON-on-disk memo of :class:`~repro.sim.system.RunResult` records
  with quarantine of corrupt entries.
* :mod:`repro.exec.executor` — :class:`Executor`, which serves warm
  keys from the store (or a resume journal) and fans cold keys out
  over the process-wide worker pool (:func:`retire_pool` joins it) with
  retries, backoff, and a timeout watchdog; :func:`usable_cpus` is the
  default worker count of ``repro run``/``sweep``.
* :mod:`repro.exec.resilience` — :class:`BackoffPolicy`,
  :class:`SweepJournal` (crash-safe ``--resume``), and quarantine
  helpers.
* :mod:`repro.exec.faults` — :class:`FaultPlan`, the deterministic
  fault-injection harness (``REPRO_FAULT_PLAN``) that chaos-tests all
  of the above.

The trust layer (:mod:`repro.verify`) hooks in here: results carry a
``payload_digest`` verified by the store on read, the executor can
shadow-verify a sample of jobs on the reference engine
(``verify_fraction``), and a mismatch demotes the offending engine via
the circuit breaker (which calls :func:`clear_engine_plans`).
"""

from repro.exec.executor import (
    Executor,
    ExecutorStats,
    retire_pool,
    usable_cpus,
)
from repro.exec.faults import (
    FAULT_PLAN_ENV,
    FaultPlan,
    fault_point,
    suppressed,
)
from repro.exec.jobs import (
    RESULT_SCHEMA_VERSION,
    JobKey,
    clear_engine_plans,
    execute_job,
    parse_design_spec,
    parse_design_specs,
    resolve_job_engine,
)
from repro.exec.resilience import BackoffPolicy, SweepJournal, quarantine_entry
from repro.exec.store import (
    RESULTS_DIR_ENV,
    ResultStore,
    StoreStats,
    default_store_root,
)

__all__ = [
    "BackoffPolicy",
    "Executor",
    "ExecutorStats",
    "FAULT_PLAN_ENV",
    "FaultPlan",
    "JobKey",
    "RESULT_SCHEMA_VERSION",
    "RESULTS_DIR_ENV",
    "ResultStore",
    "StoreStats",
    "SweepJournal",
    "clear_engine_plans",
    "default_store_root",
    "execute_job",
    "fault_point",
    "parse_design_spec",
    "parse_design_specs",
    "quarantine_entry",
    "resolve_job_engine",
    "retire_pool",
    "suppressed",
    "usable_cpus",
]
