"""The paper's contribution: the two-stage parallel MS complex algorithm.

- :mod:`repro.core.config` — pipeline configuration (blocking, merge
  strategy, simplification threshold, machine parameters),
- :mod:`repro.core.pipeline` — Algorithm 1 as one driver-side stage
  list (plan, compute every block, the radix-k merge rounds at group
  roots, write, cost replay), plus the serial convenience entry point;
  an open pipeline keeps its worker pool across runs, so a §VII-B time
  series is a loop of ``pipeline.run(step)``,
- :mod:`repro.core.glue` — gluing two block complexes at shared boundary
  nodes (§IV-F3),
- :mod:`repro.core.merge` — pack/unpack and the per-round merge
  computation at group roots,
- :mod:`repro.core.stats` / :mod:`repro.core.result` — per-stage work and
  timing accounting consumed by the benchmark harness.
"""

from repro.core.config import PipelineConfig, MergeSchedule
from repro.core.pipeline import (
    ParallelMSComplexPipeline,
    compute_morse_smale_complex,
)
from repro.core.result import PipelineResult

__all__ = [
    "MergeSchedule",
    "ParallelMSComplexPipeline",
    "PipelineConfig",
    "PipelineResult",
    "compute_morse_smale_complex",
]
