"""Cray XT5 "Jaguar" machine parameters (paper §VII-B).

"We have also ported our implementation to the Jaguar XT5 system at the
Oak Ridge Leadership Computing Facility, and we are testing our
benchmarks there as well."  The paper reports no Jaguar numbers, so this
model enables the *predictive* comparison the authors were setting up:
same algorithm, same work counts, different machine constants.

Jaguar's relevant differences from Intrepid: much faster cores
(2.6 GHz Opteron vs 850 MHz PowerPC — roughly an order of magnitude per
core on integer-heavy code), a higher-bandwidth SeaStar2+ torus
(~9.6 GB/s links) with somewhat higher MPI latency, and the Spider
Lustre filesystem (~240 GB/s aggregate).  Compute speeds up more than
communication, so on Jaguar the compute/merge crossover of Fig. 9 moves
to *lower* process counts — the shape prediction checked by the
``machines`` section of ``benchmarks/paper.py``.
"""

from __future__ import annotations

from repro.machine.bgp import BlueGenePParams

__all__ = ["JaguarXT5Params", "jaguar_xt5"]


def jaguar_xt5() -> BlueGenePParams:
    """Parameter set for the Cray XT5 (same schema as the BG/P model)."""
    return BlueGenePParams(
        # SeaStar2+ 3D torus
        link_bandwidth=9.6e9,
        latency=6.0e-6,
        hop_latency=5.0e-8,
        # ~10x faster cores on this scalar-heavy workload
        gradient_cells_per_second=4.0e6,
        trace_cells_per_second=2.0e7,
        cancellations_per_second=2.0e5,
        glue_elements_per_second=5.0e6,
        pack_bandwidth=2.0e9,
        # Spider (Lustre)
        io_per_process_bandwidth=200e6,
        io_aggregate_bandwidth=100e9,
        io_startup=0.2,
        io_per_process_overhead=1.2e-4,
    )


#: alias with a class-like name for discoverability
JaguarXT5Params = jaguar_xt5
