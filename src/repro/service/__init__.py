"""MS-complex-as-a-service: compute once, serve from content hashes.

The paper computes each Morse-Smale complex once on a supercomputer;
this subsystem is the front door that serves that expensive artifact to
many callers.  Three layers, each useful on its own:

- :mod:`repro.service.store` — the content-addressed result cache:
  ``(volume content hash, config result fingerprint) → .msc artifact``
  with an on-disk layer, a bounded in-memory LRU, and one persistence
  provider behind every execution path;
- :mod:`repro.service.scheduler` — the job scheduler, a lock-guarded
  job table over one thread pool: bounded concurrency over persistent
  pipeline sessions, cache-hit admission, in-flight coalescing (N
  identical concurrent submissions run the pipeline once),
  cancellation, and per-job timeouts;
- :mod:`repro.service.client` / :mod:`repro.service.server` — the thin
  front ends: a synchronous same-process :class:`ServiceClient` and the
  ``repro serve`` JSON-over-HTTP daemon, both delegating to the same
  engine.

::

    from repro.service import ServiceClient

    with ServiceClient("./msc-cache", max_jobs=2) as svc:
        job = svc.submit(field, persistence=0.05, ranks=8,
                         hierarchy=True, wait=True)     # cold: computes
        again = svc.submit(field, persistence=0.05, ranks=8,
                           hierarchy=True)              # warm: cache hit
        sweep = [svc.query(key=job.key, persistence=p)
                 for p in (0.01, 0.05, 0.2)]            # pure lookups

See ``docs/SERVICE.md`` for the endpoint reference, job lifecycle, and
cache-key semantics.
"""

from repro.service.client import ServiceClient
from repro.service.scheduler import (
    JOB_STATES,
    ComputeRequest,
    Job,
    JobScheduler,
)
from repro.service.server import ServiceServer, make_server
from repro.service.store import (
    FileSystemPersistenceProvider,
    PersistenceProvider,
    ResultRecord,
    ResultStore,
    cache_key,
)

__all__ = [
    "JOB_STATES",
    "ComputeRequest",
    "FileSystemPersistenceProvider",
    "Job",
    "JobScheduler",
    "PersistenceProvider",
    "ResultRecord",
    "ResultStore",
    "ServiceClient",
    "ServiceServer",
    "cache_key",
    "make_server",
]
