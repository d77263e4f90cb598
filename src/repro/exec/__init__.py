"""Process-parallel execution layer: one executor protocol, three backends.

The layer parallelises the offline Sec 6.2 expansion scan.  Online serving
does not use it (DESIGN.md "Why serving has one executor").

* :mod:`repro.exec.backend` — :class:`Executor` protocol with
  :class:`SerialExecutor` / :class:`ThreadExecutor` /
  :class:`ProcessExecutor`, plus the uniform selection rules
  (explicit arg > ``KBQA_EXEC``/``KBQA_WORKERS`` environment > default,
  worker counts always clamped to >= 1);
* :mod:`repro.exec.pool` — :class:`ExecutorPool`, the persistent lease:
  warm workers reused across calls plus generation-tagged shared-memory
  payload publication (owned by ``KBQA``);
* :mod:`repro.exec.shm` — the zero-copy blob transport over
  ``multiprocessing.shared_memory`` (publish once per change, attach by
  name, unpickle in place);
* :mod:`repro.exec.tasks` — picklable frozen shard-scan payloads for the
  Sec 6.2 expansion (``repro.kb.expansion`` routes its per-round fan-out
  through them);
* :mod:`repro.exec.faults` — the deterministic fault-injection harness
  (``KBQA_FAULTS``): named fault points in workers, replicas and the shm
  transport that can kill/exit/sleep/raise on demand, inherited across
  ``fork`` so chaos tests steer crashes from the parent.
"""

from repro.exec.backend import (
    EXEC_ENV,
    EXEC_KINDS,
    WORKERS_ENV,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    bind_to_parent_death,
    make_executor,
    resolve_exec_kind,
    resolve_workers,
    worker_payload,
)
from repro.exec.faults import (
    FAULTS_ENV,
    Fault,
    fault_point,
    faults_active,
    inject_faults,
    parse_faults,
)
from repro.exec.pool import ExecutorPool
from repro.exec.shm import (
    AttachedBlob,
    PublishedBlob,
    SegmentUnavailable,
    attach_blob,
    sweep_orphans,
)
from repro.exec.tasks import (
    ShardScanResult,
    ShardScanTask,
    scan_shard,
    split_frontier_by_shard,
)

__all__ = [
    "AttachedBlob",
    "EXEC_ENV",
    "EXEC_KINDS",
    "Executor",
    "ExecutorPool",
    "FAULTS_ENV",
    "Fault",
    "ProcessExecutor",
    "PublishedBlob",
    "SegmentUnavailable",
    "SerialExecutor",
    "ShardScanResult",
    "ShardScanTask",
    "ThreadExecutor",
    "WORKERS_ENV",
    "attach_blob",
    "bind_to_parent_death",
    "fault_point",
    "faults_active",
    "inject_faults",
    "make_executor",
    "parse_faults",
    "resolve_exec_kind",
    "resolve_workers",
    "scan_shard",
    "split_frontier_by_shard",
    "sweep_orphans",
    "worker_payload",
]
