"""repro — parallel computation of Morse-Smale complexes.

A faithful, pure-Python reproduction of

    A. Gyulassy, V. Pascucci, T. Peterka, R. Ross,
    "The Parallel Computation of Morse-Smale Complexes", IPDPS 2012.

The package implements the paper's two-stage data-parallel algorithm —
per-block discrete-gradient / MS-complex computation followed by radix-k
merge rounds — together with every substrate it depends on: a cubical
cell complex over structured grids, discrete Morse theory (gradient
construction, V-path tracing, persistence simplification), a
shared-memory process-pool backend for the compute stage, parallel
block I/O, a Blue Gene/P machine model, and dataset generators for the
paper's synthetic and scientific workloads.

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

Streaming time series — an open pipeline reuses its worker pool across
timesteps (bit-identical to per-step ``compute`` calls; volume files
stream out-of-core via the ``mmap`` transport)::

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

``import repro`` itself imports nothing else: each public name loads its
defining module on first use, so ``repro --version`` never imports
numpy and ``repro.compute`` never imports the service.
"""

import importlib

__version__ = "1.0.0"

#: every public name -> the module that defines it (a module maps to
#: itself), imported on first use (PEP 562)
_EXPORTS = {
    "ExecutionOptions": "repro.core.options",
    "MergeSchedule": "repro.parallel.radixk",
    "MorseSmaleComplex": "repro.morse.msc",
    "ParallelMSComplexPipeline": "repro.core.pipeline",
    "PipelineConfig": "repro.core.config",
    "PipelineResult": "repro.core.result",
    "ServiceClient": "repro.service.client",
    "StructuredGrid": "repro.mesh.grid",
    "api": "repro.api",
    "compute": "repro.api",
    "compute_discrete_gradient": "repro.morse.gradient",
    "compute_morse_smale_complex": "repro.core.pipeline",
    "load_hierarchy": "repro.analysis.query",
    "obs": "repro.obs",
    "open_service": "repro.api",
    "open_session": "repro.api",
    "query": "repro.analysis.query",
}
__all__ = [*_EXPORTS, "__version__"]

#: not in ``__all__``, but ``repro.morse.extract_ms_complex`` keeps working
_SUBPACKAGES = ("analysis", "core", "data", "io", "machine", "mesh",
                "morse", "parallel", "service")


def __getattr__(name: str):
    if name in _SUBPACKAGES:
        path = f"{__name__}.{name}"
    elif name in _EXPORTS:
        path = _EXPORTS[name]
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(path)
    value = module if path == f"{__name__}.{name}" else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBPACKAGES})
