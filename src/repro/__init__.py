"""repro — parallel computation of Morse-Smale complexes.

A faithful, pure-Python reproduction of

    A. Gyulassy, V. Pascucci, T. Peterka, R. Ross,
    "The Parallel Computation of Morse-Smale Complexes", IPDPS 2012.

The package implements the paper's two-stage data-parallel algorithm —
per-block discrete-gradient / MS-complex computation followed by radix-k
merge rounds — together with every substrate it depends on: a cubical
cell complex over structured grids, discrete Morse theory (gradient
construction, V-path tracing, persistence simplification), a virtual MPI
runtime, a real shared-memory process-pool backend for the compute
stage, parallel block I/O, a Blue Gene/P machine model, and dataset
generators for the paper's synthetic and scientific workloads.

Quickstart (the unified facade, see ``docs/API.md``)::

    import numpy as np
    from repro import compute
    from repro.data import sinusoidal_field

    field = sinusoidal_field(points_per_side=32, features_per_side=4)
    result = compute(field, persistence=0.05)
    print(result.merged_complexes[0].summary())

Parallel execution — 8 virtual ranks merged radix-8, compute stage on a
4-process worker pool (bit-identical to the serial run)::

    from repro import ExecutionOptions

    result = compute(field, persistence=0.05, ranks=8, merge_radix=8,
                     options=ExecutionOptions(workers=4))
    print(result.stats.describe())

Multiscale queries — compute once with the ``hierarchy`` option, persist
the cancellation hierarchy into the ``.msc`` hierarchy footer, then answer any
persistence threshold as a pure lookup (no re-simplification)::

    result = compute(field, options=ExecutionOptions(hierarchy=True))
    result.write("out.msc")
    from repro import query
    print(query("out.msc", persistence=0.1).node_counts_by_index())

Streaming time series — a persistent session reuses the worker pools,
the shared-memory slot, and the cached decomposition/merge plan across
timesteps (bit-identical to per-step ``compute`` calls, several times
the steady-state throughput; volume files stream out-of-core via the
``mmap`` transport)::

    with repro.open_session(persistence=0.05, ranks=8,
                            options=ExecutionOptions(workers=4)) as s:
        for field in timesteps:
            result = s.run(field)

Serving many callers — the service layer computes each distinct
``(volume content, result config)`` pair once and answers every repeat
or concurrent duplicate from a content-addressed cache (``repro serve``
runs the same engine as an HTTP daemon; see ``docs/SERVICE.md``)::

    with repro.open_service("./msc-cache") as svc:
        job = svc.submit(field, persistence=0.05, ranks=8,
                         hierarchy=True, wait=True)
        print(svc.query(key=job.key, persistence=0.1))

The lower-level entry points (``compute_morse_smale_complex`` for a bare
serial complex with its cancellation hierarchy,
``ParallelMSComplexPipeline`` for full configuration control) remain
available below the facade.
"""

from repro import api, obs
from repro.api import (
    ServiceClient,
    compute,
    load_hierarchy,
    open_service,
    open_session,
    query,
)
from repro.core.config import MergeSchedule, PipelineConfig
from repro.core.options import ExecutionOptions
from repro.core.pipeline import (
    ParallelMSComplexPipeline,
    compute_morse_smale_complex,
)
from repro.core.result import PipelineResult
from repro.core.session import PipelineSession
from repro.morse.msc import MorseSmaleComplex
from repro.morse.gradient import compute_discrete_gradient
from repro.mesh.grid import StructuredGrid

__version__ = "1.0.0"

__all__ = [
    "ExecutionOptions",
    "MergeSchedule",
    "MorseSmaleComplex",
    "ParallelMSComplexPipeline",
    "PipelineConfig",
    "PipelineResult",
    "PipelineSession",
    "ServiceClient",
    "StructuredGrid",
    "api",
    "compute",
    "compute_discrete_gradient",
    "compute_morse_smale_complex",
    "load_hierarchy",
    "obs",
    "open_service",
    "open_session",
    "query",
    "__version__",
]
