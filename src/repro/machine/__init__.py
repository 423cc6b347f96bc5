"""Simulated IBM Blue Gene/P ("Intrepid") machine model.

The paper's performance study ran on the Argonne Blue Gene/P: 40,960
quad-core nodes in a 3D torus, used in *smp* mode (one process per node,
2 GB per process).  This reproduction cannot run there, so the virtual
pipeline assigns every rank a *virtual clock*: real, measured work counts
(cells swept, V-path cells traced, cancellations, message bytes) are
converted into virtual seconds by a cost model with Blue Gene/P-like
constants.  The absolute constants are calibrated to land in the paper's
reported magnitude range; the reproduced quantities of interest are the
*shapes* — weak-scaling efficiency of the compute stage, merge time's
dependence on feature count, rising cost of later merge rounds, and the
compute/merge crossover in strong scaling.
"""

from repro.machine.bgp import BlueGenePParams
from repro.machine.topology import TorusTopology
from repro.machine.costmodel import CostModel, ComputeWork, MergeWork
from repro.machine.replay import MergeRecord, RankTimeline, replay_run

__all__ = [
    "BlueGenePParams",
    "ComputeWork",
    "CostModel",
    "MergeRecord",
    "MergeWork",
    "RankTimeline",
    "TorusTopology",
    "replay_run",
]
