"""In-situ analysis mode (paper §VII-B, future work).

"We plan to embed our algorithm into the S3D combustion code and
generate parallel MS complexes in situ with combustion simulations."

:class:`InSituAnalyzer` realizes that plan within this reproduction's
virtual environment: the analyzer is constructed once per simulation and
fed one field per timestep.  Each step runs the full parallel pipeline
on the current data and appends a compact record — feature counts, stage
times, output size — to a time series the scientist can monitor while
the simulation runs.

Since the streaming rework the analyzer is backed by a persistent
:class:`~repro.core.session.PipelineSession`: the worker pool and the
decomposition/merge-schedule plan are created on the first step and
*reused* by every later one — the amortization a real in-situ coupling
lives on.
Steps may also be raw volume files (:class:`~repro.io.volume.VolumeSpec`),
in which case the ``mmap`` transport streams blocks straight from disk
and the driver never materializes the volume.  Call :meth:`close` (or
use the analyzer as a context manager) to release the pools; analyzers
that are only ever constructed and stepped hold no OS resources until
their first step, and each result is bit-identical to a one-shot
``pipeline.run()`` of the same field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.analysis.features import significant_extrema
from repro.core.config import PipelineConfig
from repro.core.result import PipelineResult
from repro.core.session import PipelineSession
from repro.io.volume import VolumeSpec

__all__ = ["InSituAnalyzer", "InSituStepRecord"]


@dataclass
class InSituStepRecord:
    """One timestep's analysis summary."""

    step: int
    time: float
    node_counts: tuple[int, int, int, int]
    significant_minima: int
    significant_maxima: int
    output_bytes: int
    virtual_seconds: float
    real_seconds: float


@dataclass
class InSituAnalyzer:
    """Run the parallel MS complex pipeline once per simulation step.

    Parameters
    ----------
    config:
        Pipeline configuration shared by all timesteps.
    feature_min_value, feature_max_value:
        Value filters defining "significant" extrema for the monitoring
        time series (e.g. mixture-fraction ceilings for dissipation
        elements, density floors for spikes).
    """

    config: PipelineConfig
    feature_min_value: float | None = None
    feature_max_value: float | None = None
    history: list[InSituStepRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._session = PipelineSession(self.config)

    @property
    def session(self) -> PipelineSession:
        """The persistent session backing this analyzer."""
        return self._session

    def step(
        self,
        values: np.ndarray | VolumeSpec,
        time: float | None = None,
    ) -> tuple[InSituStepRecord, PipelineResult]:
        """Analyze one timestep; returns (record, full pipeline result).

        ``values`` may be an in-memory vertex array or a
        :class:`~repro.io.volume.VolumeSpec` pointing at a raw volume
        file on disk (streamed out-of-core via the ``mmap`` transport).
        """
        result = self._session.run(values)
        step_idx = len(self.history)
        counts = result.combined_node_counts()
        minima = maxima = 0
        for msc in result.output_blocks.values():
            minima += len(
                significant_extrema(
                    msc, 0,
                    min_value=self.feature_min_value,
                    max_value=self.feature_max_value,
                )
            )
            maxima += len(
                significant_extrema(
                    msc, 3,
                    min_value=self.feature_min_value,
                    max_value=self.feature_max_value,
                )
            )
        record = InSituStepRecord(
            step=step_idx,
            time=float(time) if time is not None else float(step_idx),
            node_counts=counts,
            significant_minima=minima,
            significant_maxima=maxima,
            output_bytes=result.stats.output_bytes,
            virtual_seconds=result.stats.total_time,
            real_seconds=result.stats.real_seconds_total,
        )
        self.history.append(record)
        return record, result

    def stream(
        self,
        steps: Iterable[np.ndarray | VolumeSpec | tuple],
    ) -> Iterator[tuple[InSituStepRecord, PipelineResult]]:
        """Analyze a whole time series lazily, one step per item.

        Each item is a field / :class:`VolumeSpec`, or a ``(time,
        field)`` pair.  Yields ``(record, result)`` as each step
        completes, so a monitoring loop can consume results while the
        simulation produces the next step.
        """
        for item in steps:
            if (
                isinstance(item, tuple)
                and len(item) == 2
                and np.isscalar(item[0])
            ):
                time, values = item
                yield self.step(values, time=float(time))
            else:
                yield self.step(item)

    def close(self) -> None:
        """Release the session's worker pool (idempotent)."""
        self._session.close()

    def __enter__(self) -> "InSituAnalyzer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def feature_timeseries(self) -> dict[str, list[float]]:
        """Time series of the monitored quantities across steps."""
        return {
            "time": [r.time for r in self.history],
            "minima": [float(r.significant_minima) for r in self.history],
            "maxima": [float(r.significant_maxima) for r in self.history],
            "nodes": [float(sum(r.node_counts)) for r in self.history],
            "output_bytes": [
                float(r.output_bytes) for r in self.history
            ],
            "virtual_seconds": [
                r.virtual_seconds for r in self.history
            ],
        }
