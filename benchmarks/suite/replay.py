"""Staged replay: every layer's public functions, in pipeline order, timed
from outside.

The per-layer table comes from here, not from spans inside the program
(``src/`` is untouched by the benchmark).  :func:`staged_replay` performs
the sequence the serial pipeline performs — per block ``read_block`` →
``CubicalComplex`` → ``compute_discrete_gradient`` →
``extract_ms_complex`` → ``simplify_ms_complex`` → ``compact`` →
``pack_complex``, then per merge round pack/unpack of the members, glue,
boundary-flag update, seeded re-simplify and compact, then
``write_msc_file`` — and its output file must be byte-identical to the
CLI's, which is what makes the table a measurement of the program's own
work rather than of a look-alike.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from repro.core.glue import AddressIndex, glue_into
from repro.core.merge import pack_complex, unpack_complex
from repro.io.mscfile import read_msc_file, write_msc_file
from repro.io.volume import VolumeSpec, invalidate_map_cache, read_block
from repro.mesh.cubical import (
    CubicalComplex,
    clear_structure_cache,
    structure_tables,
)
from repro.morse.gradient import compute_discrete_gradient
from repro.morse.simplify import simplify_ms_complex
from repro.morse.tracing import extract_ms_complex
from repro.parallel.decomposition import decompose
from repro.parallel.radixk import MergeSchedule

__all__ = ["Spans", "staged_replay"]

MIB = float(1 << 20)

#: seconds metric -> the span name whose durations it sums
SPAN_METRICS = {
    "parallel.plan_s": "parallel.plan",
    "io.volume.read_s": "io.volume.read",
    "mesh.build_s": "mesh.build",
    "morse.gradient.s": "morse.gradient",
    "morse.tracing.s": "morse.tracing",
    "morse.simplify.block_s": "morse.simplify.block",
    "morse.msc.compact_s": "morse.msc.compact",
    "core.merge.pack_s": "core.merge.pack",
    "core.merge.unpack_s": "core.merge.unpack",
    "core.glue.s": "core.glue",
    "core.merge.flags_s": "core.merge.flags",
    "core.merge.resimplify_s": "core.merge.resimplify",
    **{f"core.merge.round{r}_s": f"core.merge.round{r}" for r in range(4)},
    "io.mscfile.write_s": "io.mscfile.write",
    "io.mscfile.read_s": "io.mscfile.read",
}


class Spans:
    """In-memory span recorder: name, start, end, parent; written at the end."""

    def __init__(self) -> None:
        self.rows: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        row = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.rows.append(row)
        self._stack.append(len(self.rows) - 1)
        try:
            yield row
        finally:
            row["end"] = time.perf_counter()
            self._stack.pop()

    def self_seconds(self) -> dict[str, float]:
        """Per span name: duration minus the part its child spans cover."""
        child = defaultdict(float)
        for row in self.rows:
            if row["parent"] is not None:
                child[row["parent"]] += row["end"] - row["start"]
        out: dict[str, float] = defaultdict(float)
        for i, row in enumerate(self.rows):
            out[row["name"]] += row["end"] - row["start"] - child[i]
        return dict(out)

    def seconds(self, name: str) -> float:
        """Total duration of the spans called ``name`` (children included)."""
        return sum(
            r["end"] - r["start"] for r in self.rows if r["name"] == name
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.rows))


def staged_replay(
    spec: VolumeSpec,
    *,
    blocks: int,
    radices: tuple[int, ...],
    persistence: float,
    output: Path,
) -> tuple[dict[str, float], Spans, list[bytes]]:
    """Replay one serial run layer by layer; returns (metrics, spans, blobs).

    ``blobs`` are the packed per-block complexes of the compute stage
    (the spool micro-benchmark of the pooled workload reuses them).
    """
    sp = Spans()
    counts: dict[str, float] = defaultdict(float)
    # a `repro compute` process starts with empty memos; so does the replay
    clear_structure_cache()
    invalidate_map_cache()
    with sp.span("replay"):
        with sp.span("parallel.plan"):
            decomp = decompose(spec.dims, blocks)
            schedule = MergeSchedule(decomp, list(radices))
            # planning pre-builds the mesh structure table of every
            # block shape (core.pipeline.build_plan does the same)
            for box in decomp.all_boxes():
                structure_tables(tuple(2 * n + 1 for n in box.shape))
        block_blobs: list[bytes] = []
        for bid in range(decomp.num_blocks):
            box = decomp.block_box(decomp.block_coords(bid))
            with sp.span("io.volume.read", block=bid):
                values = read_block(spec, box)
            counts["io.volume.read_mib"] += (
                box.num_vertices * spec.np_dtype.itemsize / MIB
            )
            with sp.span("mesh.build", block=bid):
                cx = CubicalComplex(
                    values,
                    refined_origin=box.refined_origin,
                    global_refined_dims=decomp.global_refined_dims,
                    cut_planes=decomp.cut_planes,
                )
            counts["mesh.cells"] += cx.num_cells
            with sp.span("morse.gradient", block=bid):
                gradient = compute_discrete_gradient(cx)
            with sp.span("morse.tracing", block=bid):
                msc = extract_ms_complex(gradient)
                counts["morse.tracing.geometry_cells"] += (
                    msc.total_geometry_length()
                )
            counts["morse.tracing.arcs"] += msc.num_alive_arcs()
            with sp.span("morse.simplify.block", block=bid):
                cancels = simplify_ms_complex(
                    msc, persistence, respect_boundary=True
                )
            counts["morse.simplify.block_cancellations"] += len(cancels)
            with sp.span("morse.msc.compact", block=bid):
                msc.compact()
            with sp.span("core.merge.pack", block=bid):
                block_blobs.append(pack_complex(msc))
            del cx, gradient, msc
        # the ranks of the serial pipeline hold unpacked complexes
        complexes = {}
        for bid, blob in enumerate(block_blobs):
            with sp.span("core.merge.unpack", block=bid):
                complexes[bid] = unpack_complex(blob)
        for r in range(schedule.num_rounds):
            cuts_after = schedule.cut_planes_after(r + 1)
            with sp.span(f"core.merge.round{r}"):
                for root_coords, member_coords in schedule.groups(r):
                    root = complexes[decomp.linear_id(root_coords)]
                    incoming = []
                    for mc in member_coords:
                        member = complexes.pop(decomp.linear_id(mc))
                        with sp.span("core.merge.pack", round=r):
                            blob = pack_complex(member)
                        counts["core.merge.message_mib"] += len(blob) / MIB
                        with sp.span("core.merge.unpack", round=r):
                            incoming.append(unpack_complex(blob))
                        del member, blob
                    touched: set[int] = set()
                    with sp.span("core.glue", round=r):
                        index = AddressIndex.from_complex(root)
                        for other in incoming:
                            stats = glue_into(
                                root, other, index, touched=touched
                            )
                            counts["core.glue.nodes_added"] += stats.nodes_added
                            counts["core.glue.arcs_added"] += stats.arcs_added
                    del incoming
                    with sp.span("core.merge.flags", round=r):
                        touched.update(
                            root.update_boundary_flags(
                                cuts_after, return_ids=True
                            )
                        )
                    with sp.span("core.merge.resimplify", round=r):
                        cancels = simplify_ms_complex(
                            root, persistence, respect_boundary=True,
                            seed_nodes=touched,
                        )
                    counts["core.merge.cancellations"] += len(cancels)
                    with sp.span("morse.msc.compact", round=r):
                        root.compact()
        final = []
        for bid in sorted(complexes):
            msc = complexes[bid]
            counts["morse.msc.nodes_out"] += msc.num_alive_nodes()
            counts["morse.msc.arcs_out"] += msc.num_alive_arcs()
            with sp.span("core.merge.pack", final=True):
                final.append((bid, pack_complex(msc)))
        with sp.span("io.mscfile.write"):
            nbytes = write_msc_file(output, final)
        counts["io.mscfile.write_mib"] = nbytes / MIB
    # reading the file back is the service's side of io.mscfile; it is
    # outside the replayed run, so outside the "replay" span
    with sp.span("io.mscfile.read"):
        read_msc_file(output)

    own = sp.self_seconds()
    m: dict[str, float] = dict(counts)
    for metric, name in SPAN_METRICS.items():
        m[metric] = sp.seconds(name)
    m["morse.gradient.mcells_per_s"] = (
        counts["mesh.cells"] / 1e6 / m["morse.gradient.s"]
    )
    replay_wall = sp.seconds("replay")
    # what no layer span covers: the replay loop's own bookkeeping
    untimed = own["replay"] + sum(
        own.get(f"core.merge.round{r}", 0.0) for r in range(4)
    )
    m["core.pipeline.replay_wall_s"] = replay_wall
    m["core.pipeline.untimed_s"] = untimed
    m["core.pipeline.layer_sum_s"] = replay_wall - untimed
    return m, sp, block_blobs
