"""Unified high-level facade: one entry point for every execution mode.

Historically the package exposed three inconsistent ways to compute an
MS complex — the serial :func:`repro.core.pipeline.compute_morse_smale_complex`,
the :class:`~repro.core.pipeline.ParallelMSComplexPipeline` driver, and
the ``repro.cli`` command line — each with its own parameter spelling.
:func:`compute` replaces them for library users: a single keyword-only
call that runs the pipeline (one block and no merge stage at
``ranks=1``) and always returns a
:class:`~repro.core.result.PipelineResult`.

::

    import repro
    result = repro.compute(field, persistence=0.05, ranks=8,
                           options=repro.ExecutionOptions(workers=4))
    msc = result.merged_complexes[0]

``ranks`` is the number of virtual MPI processes (= blocks of the
bisection decomposition, the paper's one-block-per-process setup);
``options.workers`` is the width of the real shared-memory worker pool
the compute stage fans out over (see :mod:`repro.parallel.executor`).
The two compose: ranks model the paper's distributed machine, workers
use this machine's cores.  Results are bit-identical across worker
counts.

Execution knobs have exactly one spelling, ``options=``
(:class:`~repro.core.options.ExecutionOptions`).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.core.config import _facade_config
from repro.core.pipeline import ParallelMSComplexPipeline

# open_service imports its class when called, so `compute` never loads
# the service
if TYPE_CHECKING:
    import numpy as np

    from repro.core.options import ExecutionOptions
    from repro.core.result import PipelineResult
    from repro.io.volume import VolumeSpec
    from repro.mesh.grid import StructuredGrid
    from repro.service.client import ServiceClient

__all__ = ["compute", "open_service", "open_session"]

def compute(
    values: np.ndarray | StructuredGrid | VolumeSpec,
    *,
    persistence: float = 0.0,
    ranks: int = 1,
    merge_radix: int | Sequence[int] | str = 2,
    validate: bool = False,
    options: ExecutionOptions | None = None,
    trace: bool = False,
) -> PipelineResult:
    """Compute the Morse-Smale complex of a scalar field.

    Parameters
    ----------
    values:
        The input field: a 3D vertex array, a
        :class:`~repro.mesh.grid.StructuredGrid`, or a
        :class:`~repro.io.volume.VolumeSpec` pointing at a raw volume
        file (read block-wise by the workers, the paper's parallel-I/O
        path).
    persistence:
        Simplification threshold (absolute function-value difference).
    ranks:
        Number of virtual MPI processes / decomposition blocks (a power
        of two, per the paper's bisection).  ``1`` computes a single
        block with no merge stage.
    merge_radix:
        Merge-schedule control when ``ranks > 1``: an int in {2, 4, 8}
        selects a full merge built from rounds of at most that radix; an
        explicit sequence of radices runs a custom (possibly partial)
        schedule; ``"none"`` skips merging and leaves ``ranks`` output
        blocks.
    validate:
        Run structural invariant checks after every stage (slow).
    options:
        The run's execution knobs, grouped: an
        :class:`~repro.core.options.ExecutionOptions` bundling
        ``workers`` and the spill budget, both pure scheduling —
        results are bit-identical across all settings; the
        additive ``hierarchy`` flag captures the multiscale cancellation
        hierarchy into ``result.hierarchies`` (persisted on ``write()``,
        queryable via :func:`repro.analysis.query.load_hierarchy` /
        :func:`repro.analysis.query.query`) without
        changing the complex by a byte.
    trace:
        Record a span timeline of the run into ``result.stats.trace``
        (driver, rank, and worker lanes), exportable as Chrome
        ``trace_event`` JSON via ``result.stats.trace.write(path)``.
        Outputs are bit-identical either way (see
        ``docs/OBSERVABILITY.md``).

    Returns
    -------
    PipelineResult
        The merged complex(es), decomposition, schedule, and stats, for
        every ``ranks`` and ``workers`` — ``ranks=1`` included — so
        downstream code never branches on how the result was produced.
    """
    cfg = _facade_config(
        persistence=persistence,
        ranks=ranks,
        merge_radix=merge_radix,
        validate=validate,
        options=options,
        trace=trace,
    )
    with ParallelMSComplexPipeline(cfg) as pipeline:
        return pipeline.run(values)


def open_session(
    *,
    persistence: float = 0.0,
    ranks: int = 1,
    merge_radix: int | Sequence[int] | str = 2,
    validate: bool = False,
    options: ExecutionOptions | None = None,
    trace: bool = False,
) -> ParallelMSComplexPipeline:
    """Open a :class:`~repro.core.pipeline.ParallelMSComplexPipeline`.

    Takes the same keywords as :func:`compute` (minus the input field)
    and returns the pipeline, whose
    :meth:`~repro.core.pipeline.ParallelMSComplexPipeline.run` processes
    one timestep per call while reusing the worker pool across steps::

        with repro.open_session(persistence=0.05, ranks=8,
                                options=ExecutionOptions(workers=4)) as s:
            for field in timesteps:
                result = s.run(field)

    Each step is bit-identical to ``repro.compute(field, ...)`` with the
    same settings.  Close the pipeline (or use ``with``) to release the
    pool.
    """
    cfg = _facade_config(
        persistence=persistence,
        ranks=ranks,
        merge_radix=merge_radix,
        validate=validate,
        options=options,
        trace=trace,
    )
    return ParallelMSComplexPipeline(cfg)


def open_service(
    cache_dir: str,
    *,
    max_jobs: int = 2,
    max_memory_entries: int = 64,
    default_timeout: float | None = None,
    trace: bool = False,
) -> ServiceClient:
    """Open a same-process MS-complex service over a result cache.

    The service front door for library users: submissions are answered
    from the content-addressed store when the ``(volume content, result
    config)`` pair was ever computed before, identical concurrent
    submissions are coalesced into one pipeline run, and multiscale
    queries are served from cached ``.msc`` hierarchy footers with
    zero re-simplification::

        with repro.open_service("./msc-cache", max_jobs=2) as svc:
            job = svc.submit(field, persistence=0.05, ranks=8,
                             hierarchy=True, wait=True)
            print(svc.query(key=job.key, persistence=0.1))

    The HTTP daemon (``repro serve``) wraps exactly this client; see
    ``docs/SERVICE.md``.
    """
    from repro.service.client import ServiceClient

    return ServiceClient(
        cache_dir,
        max_jobs=max_jobs,
        max_memory_entries=max_memory_entries,
        default_timeout=default_timeout,
        trace=trace,
    )
