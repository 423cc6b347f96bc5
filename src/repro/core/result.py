"""Pipeline run results."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.stats import PipelineStats
from repro.io.mscfile import write_msc_file
from repro.morse.msc import MorseSmaleComplex
from repro.parallel.decomposition import BlockDecomposition
from repro.parallel.radixk import MergeSchedule

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.hierarchy import MSComplexHierarchy

__all__ = ["PipelineResult"]


@dataclass
class PipelineResult:
    """Everything a pipeline run produces.

    ``output_blocks`` maps the (original-grid linear) block id of each
    surviving merge root to its merged, compacted MS complex — one entry
    after a full merge, ``num_blocks / prod(radices)`` after a partial
    merge, ``num_blocks`` with merging disabled.
    """

    output_blocks: dict[int, MorseSmaleComplex]
    decomposition: BlockDecomposition
    schedule: MergeSchedule
    stats: PipelineStats
    #: serialized record bytes per output block (the ``pack_complex``
    #: format), packed once by the pipeline's write stage
    output_blobs: dict[int, bytes]
    #: cancellation hierarchy captured per output block when the
    #: ``hierarchy`` execution option is on (``None`` otherwise);
    #: persisted by :meth:`write` into the ``.msc`` hierarchy footer
    hierarchies: dict[int, "MSComplexHierarchy"] | None = None

    @property
    def merged_complexes(self) -> list[MorseSmaleComplex]:
        """Output complexes ordered by block id."""
        return [self.output_blocks[b] for b in sorted(self.output_blocks)]

    @property
    def num_output_blocks(self) -> int:
        return len(self.output_blocks)

    def combined_node_counts(self) -> tuple[int, int, int, int]:
        """Node counts by Morse index summed over all output blocks.

        With more than one output block, shared boundary nodes are
        counted once (they appear in several blocks' complexes).
        """
        seen: set[int] = set()
        counts = [0, 0, 0, 0]
        for msc in self.output_blocks.values():
            for addr, index in zip(msc.node_address[msc.node_alive].tolist(),
                                   msc.node_index[msc.node_alive].tolist()):
                if addr not in seen:
                    seen.add(addr)
                    counts[index] += 1
        return tuple(counts)

    def write(self, path: str | Path) -> int:
        """Write the output blocks as an MSC file; returns bytes written.

        Writes the run's packed records (``output_blobs``), so the
        complexes are packed exactly once per run.  When the run
        captured cancellation hierarchies (the ``hierarchy`` execution
        option), they are persisted alongside the blocks in the ``.msc``
        hierarchy footer; otherwise the hierarchy index is written empty.
        """
        hier_arrays = None
        if self.hierarchies:
            hier_arrays = {
                bid: h.to_arrays() for bid, h in self.hierarchies.items()
            }
        return write_msc_file(
            path, sorted(self.output_blobs.items()), hierarchies=hier_arrays
        )
