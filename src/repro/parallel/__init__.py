"""The compute stage's worker pool and the static plan it runs.

The paper's implementation is MPI on an IBM Blue Gene/P.  This
reproduction executes the same static schedule once, in one driver
process, and prices it afterwards on the modeled machine
(:mod:`repro.machine.replay`), so this subpackage holds only what that
one execution needs:

- :mod:`repro.parallel.decomposition` — bisection domain decomposition
  and block-cyclic process assignment (§IV-A),
- :mod:`repro.parallel.radixk` — configurable merge-round schedules
  (rounds × radix, §IV-F2), modeled on the Radix-k compositing algorithm,
- :mod:`repro.parallel.executor` — :class:`FaultTolerantExecutor`, the
  one executor: per-block work runs in-process with ``workers=1`` and on
  a pool of OS processes otherwise; a failing block fails the run, a
  dead worker's pool is rebuilt.

The per-block work is independent (§IV-C: shared-face gradients agree),
so where each block is computed never changes an output byte.
"""

from repro.parallel.decomposition import BlockDecomposition, decompose
from repro.parallel.executor import (
    ComputeStageError,
    CorruptPayloadError,
    FaultTolerantExecutor,
    FaultToleranceError,
)
from repro.parallel.radixk import MergeSchedule, MergeRound, full_merge_radices

__all__ = [
    "BlockDecomposition",
    "ComputeStageError",
    "CorruptPayloadError",
    "FaultTolerantExecutor",
    "FaultToleranceError",
    "MergeRound",
    "MergeSchedule",
    "decompose",
    "full_merge_radices",
]
