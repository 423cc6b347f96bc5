"""The six named workloads: what each input is and how `repro` is driven on it.

Every compute workload is a fixed base field (generator parameters and
generator seeds are constants) pushed through a seeded, order-preserving
value map ``a * f + b`` with the persistence threshold scaled by ``a``.
The map changes every input byte and every output byte, so nothing can
be answered from a previous run, but it preserves the order of all
samples and therefore the discrete gradient, the complex, and every
work count.  That is deliberate: the arc count of the merge-heavy fields
is chaotic in the generator parameters (``sinusoidal_field(32, 8)``
runs 3.0-6.2 s over ``phase`` in [0, 0.3), the jet proxy 4.9-8.9 s over
its generator seed), which would bury a 10 % regression bound under
input variance.  See README.md, "Seeds".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data import (
    gaussian_bumps_field,
    jet_mixture_fraction_proxy,
    sinusoidal_field,
)

__all__ = ["WORKLOADS", "Workload", "by_name", "value_map"]


@dataclass(frozen=True)
class Workload:
    """One named workload: base field, blocking, merge schedule, execution."""

    name: str
    #: which layer this workload exists to show (one line, BENCHMARK.json)
    why: str
    #: base-field family: smooth | noisy | glue | jet | bumps
    field: str
    dims: tuple[int, int, int]
    #: the 24^3-class stand-in `--smoke` runs instead of ``dims``
    smoke_dims: tuple[int, int, int]
    blocks: int
    #: merge radices, one per round (product == blocks: a full merge)
    radices: tuple[int, ...]
    #: threshold on the *base* field; the run passes ``a * persistence``
    persistence: float
    #: pool width; > 1 leaves executor/merge-executor/transport on `auto`
    workers: int = 1
    #: `--merge-spill-budget` spelling (pooled workload only)
    spill_budget: str | None = None

    @property
    def is_service(self) -> bool:
        return self.field == "bumps"

    def base_field(self, dims: tuple[int, int, int], index: int = 0) -> np.ndarray:
        """The unmapped float64 field; ``index`` picks a service volume."""
        if self.field == "smooth":
            f = sinusoidal_field(dims[0], 4, dims=dims)
        elif self.field == "noisy":
            rng = np.random.default_rng(20120521)
            f = sinusoidal_field(dims[0], 4, dims=dims).astype(np.float64)
            f = f + rng.normal(0.0, 0.2, size=dims)
        elif self.field == "glue":
            # phase 0.1 is a merge-heavy instance of this family (~51 k
            # surviving arcs at 32^3); phase 0 leaves only ~27 k
            f = sinusoidal_field(dims[0], 8, dims=dims, phase=0.1)
        elif self.field == "jet":
            f = jet_mixture_fraction_proxy(dims, seed=1)
        elif self.field == "bumps":
            f = gaussian_bumps_field(dims, 12, seed=100 + index, noise=0.005)
        else:  # pragma: no cover - table is closed
            raise ValueError(self.field)
        return np.asarray(f, dtype=np.float64)

    def cli_flags(self, dims: tuple[int, int, int], scale: float) -> list[str]:
        """`repro compute` flags after the volume path (no --output)."""
        flags = [
            "--dims", *map(str, dims),
            "--blocks", str(self.blocks),
            "--radices", *map(str, self.radices),
            "--persistence", repr(scale * self.persistence),
        ]
        if self.workers > 1:
            flags += ["--workers", str(self.workers)]
        if self.spill_budget:
            flags += ["--merge-spill-budget", self.spill_budget]
        return flags


def value_map(seed: int) -> tuple[float, float]:
    """The seeded order-preserving map ``f -> a * f + b``; a in [1, 2)."""
    rng = np.random.default_rng(seed)
    return float(rng.uniform(1.0, 2.0)), float(rng.uniform(0.0, 1.0))


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="smooth64",
        why="kernel-bound: mesh build + gradient + tracing dominate, merge "
            "and io are bypassed (<2 %); shows kernel optimisations",
        field="smooth", dims=(64, 64, 64), smoke_dims=(24, 24, 24),
        blocks=8, radices=(8,), persistence=0.05,
    ),
    Workload(
        name="noisy34",
        why="~14 k block cancellations: block simplify + compact dominate, "
            "gradient is small; shows simplification-heap optimisations",
        field="noisy", dims=(34, 34, 34), smoke_dims=(24, 24, 24),
        blocks=8, radices=(2, 2, 2), persistence=0.3,
    ),
    Workload(
        name="glue32x16",
        why="~51 k surviving arcs, 71 MiB .msc over 4 radix-2 rounds: "
            "compact, pack, re-simplify, glue, write and RSS dominate, "
            "kernels are small",
        field="glue", dims=(32, 32, 32), smoke_dims=(24, 24, 24),
        blocks=16, radices=(2, 2, 2, 2), persistence=0.05,
    ),
    Workload(
        name="jet56-serial",
        why="the paper's Fig. 9 jet proxy, 64 blocks, radices 4 4 4: "
            "balanced kernels/merge; plain single-process baseline of "
            "jet56-pool2",
        field="jet", dims=(56, 64, 40), smoke_dims=(24, 28, 16),
        blocks=64, radices=(4, 4, 4), persistence=0.002,
    ),
    Workload(
        name="jet56-pool2",
        why="same volume and flags plus --workers 2 --merge-spill-budget "
            "16M: same kernels through executor, transport and spool; "
            "must be bit-identical to jet56-serial",
        field="jet", dims=(56, 64, 40), smoke_dims=(24, 28, 16),
        blocks=64, radices=(4, 4, 4), persistence=0.002,
        workers=2, spill_budget="16M",
    ),
    Workload(
        name="service-mixed",
        why="repro serve with a 4-entry memory layer under a 6-volume hot "
            "set: warm submits, queries and cold submits interleaved; "
            "exercises service.*, analysis.query, io.mscfile reads",
        field="bumps", dims=(20, 20, 20), smoke_dims=(12, 12, 12),
        blocks=8, radices=(2, 2, 2), persistence=0.01,
    ),
)


def by_name(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(
        f"unknown workload {name!r}; choose from "
        f"{', '.join(w.name for w in WORKLOADS)}"
    )
