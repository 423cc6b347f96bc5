"""Virtual-time cost model for the pipeline stages.

The pipeline measures *work counts* (they are exact — the computation
really runs), and this model converts them into virtual Blue Gene/P
seconds per rank:

- read/write: collective I/O with aggregate bandwidth caps and
  per-process metadata overhead (the paper identifies output I/O as a
  primary scalability limit at high process counts),
- compute: gradient sweep + V-path tracing + per-block simplification,
- merge: message transfer through the torus (latency + hops + bytes) plus
  gluing and re-simplification at the group root.
"""

from __future__ import annotations

from repro.machine.bgp import BlueGenePParams
from repro.machine.topology import TorusTopology

__all__ = ["CostModel"]


class CostModel:
    """Convert work counts into virtual seconds on the modeled machine."""

    def __init__(
        self, params: BlueGenePParams | None = None, num_procs: int = 1
    ) -> None:
        self.params = params or BlueGenePParams()
        self.num_procs = int(num_procs)
        self.topology = TorusTopology(self.num_procs)

    # -- stage costs -----------------------------------------------------

    def read_time(self, bytes_per_rank: int) -> float:
        """Collective read cost for one rank reading its blocks."""
        p = self.params
        bw = p.io_bandwidth(self.num_procs) / self.num_procs
        return (
            p.io_startup
            + self.num_procs * p.io_per_process_overhead
            + bytes_per_rank / bw
        )

    def write_time(self, bytes_this_rank: int) -> float:
        """Collective write cost (null writes still pay the collective)."""
        p = self.params
        bw = p.io_bandwidth(self.num_procs) / self.num_procs
        return (
            p.io_startup
            + self.num_procs * p.io_per_process_overhead
            + bytes_this_rank / bw
        )

    def compute_time(
        self, cells: int, geometry_cells: int, cancellations: int
    ) -> float:
        """Local gradient + MS complex + simplification cost of a block
        (§IV-C/D/E): refined cells swept, V-path cells traced and
        cancellations."""
        p = self.params
        return (
            cells / p.gradient_cells_per_second
            + geometry_cells / p.trace_cells_per_second
            + cancellations / p.cancellations_per_second
        )

    def message_time(self, nbytes: int, src: int, dest: int) -> float:
        """Point-to-point transfer time through the torus."""
        if src == dest:
            return 0.0
        p = self.params
        hops = self.topology.hops(src, dest)
        return p.latency + hops * p.hop_latency + nbytes / p.link_bandwidth

    def merge_time(
        self, glued_elements: int, cancellations: int, packed_bytes: int
    ) -> float:
        """Glue + re-simplify + pack cost at a merge-group root (§IV-F3):
        nodes + arcs glued, re-simplification cancellations and the
        packed bytes received."""
        p = self.params
        return (
            glued_elements / p.glue_elements_per_second
            + cancellations / p.cancellations_per_second
            + packed_bytes / p.pack_bandwidth
        )
