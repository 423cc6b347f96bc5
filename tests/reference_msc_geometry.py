"""Test oracle: the per-arc geometry objects the MS complex used to hold.

Before the geometry store, every arc's V-path was its own
:class:`ArcGeometry` (a small ``ndarray`` leaf, or a composite listing
child geometries), ``compact()`` *flattened*: it walked the living arcs
one at a time through ``_expand_geometry`` and gave each its own expanded
copy, ``to_payload()`` re-concatenated the leaves (``geom_data`` + CSR
``geom_offsets``, the v1/v2 block record) and ``_serialize_sections``
copied every section three times.  That code is kept here **verbatim**
(tests only) as the oracle for ``tests/test_property_msc_geometry.py``:
:class:`ReferenceComplex` is the production node/arc record keeping with
this geometry representation swapped in, so the tracer and
``glue_into`` can drive both with the same operation sequence (the
oracle is simplified by the oracle loop of `tests/reference_simplify.py`).
The columns are the production arrays, so ``compact`` writes arrays
where it used to write lists; it still rebuilds the incidence eagerly,
the check on the production complex's lazy build.  Production now ships
the geometry DAG itself, so the two are compared after expansion: the
oracle's flattened record *is* the per-arc expanded address lists.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.io.mscfile import _LEGACY_SECTIONS, _deserialize_sections
from repro.morse.msc import MorseSmaleComplex

__all__ = ["ArcGeometry", "ReferenceComplex", "reference_pack",
           "reference_unpack"]


@dataclass(slots=True)
class ArcGeometry:
    """Geometric embedding of an arc.

    ``leaf`` holds the V-path cell addresses ordered from the arc's upper
    node to its lower node.  A *composite* geometry (created by
    cancellation) instead references child geometries as
    ``(geometry id, reversed)`` segments; it is flattened into a leaf by
    :meth:`MorseSmaleComplex.compact`.
    """

    leaf: np.ndarray | None = None
    segments: list[tuple[int, bool]] | None = None
    #: total number of cell addresses (cached; junction duplicates counted)
    length: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.leaf is not None


class ReferenceComplex(MorseSmaleComplex):
    """Production node/arc records over the reference geometry objects."""

    # -- glue between the production bulk producers and ``self.geoms`` -----

    def _clear_arcs(self) -> None:
        super()._clear_arcs()
        self.geoms: list[ArcGeometry] = []

    def _append_leaves(self, data, lengths) -> int:
        """One leaf object per CSR range (what the tracer's per-arc
        slicing used to produce)."""
        data = np.asarray(data, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        starts = np.cumsum(lengths) - lengths
        gid0 = len(self.geoms)
        for s, n in zip(starts.tolist(), lengths.tolist()):
            self.new_leaf_geometry(data[s: s + n].copy())
        return gid0

    def append_geometry_store(self, other: "ReferenceComplex") -> int:
        """The glue's hand-over: a received complex is compacted, so every
        geometry is a flattened leaf, adopted one object per arc."""
        gid0 = len(self.geoms)
        for geo in other.geoms:
            if geo.is_leaf:
                self.geoms.append(geo)
            else:
                segments = [(g + gid0, rev) for g, rev in geo.segments]
                self.geoms.append(ArcGeometry(
                    segments=segments, length=geo.length
                ))
        return gid0

    def expand_arcs(self, aids):
        flats = [self.geometry_addresses(a) for a in np.asarray(aids).tolist()]
        lengths = np.array([f.size for f in flats], dtype=np.int64)
        return (
            np.concatenate(flats) if flats else np.empty(0, dtype=np.int64),
            lengths,
        )

    # -- verbatim from repro/morse/msc.py at the parent commit -------------

    def new_leaf_geometry(self, addresses: np.ndarray) -> int:
        """Register a leaf geometry object; returns its id."""
        arr = np.asarray(addresses, dtype=np.int64)
        gid = len(self.geoms)
        self.geoms.append(ArcGeometry(leaf=arr, length=int(arr.size)))
        return gid

    def new_composite_geometry(self, segments: list[tuple[int, bool]]) -> int:
        """Register a composite geometry referencing child geometries."""
        length = sum(self.geoms[g].length for g, _ in segments)
        gid = len(self.geoms)
        self.geoms.append(ArcGeometry(segments=list(segments), length=length))
        return gid

    def _expand_geometry(self, gid: int) -> np.ndarray:
        """Flatten a (possibly composite) geometry into one address array.

        Iterative: cancellation chains nest composites arbitrarily deep,
        far beyond the interpreter recursion limit.
        """
        root = self.geoms[gid]
        if root.is_leaf:
            return root.leaf
        parts: list[np.ndarray] = []
        stack: list[tuple[int, bool]] = [(gid, False)]
        while stack:
            g, rev = stack.pop()
            geo = self.geoms[g]
            if geo.is_leaf:
                parts.append(geo.leaf[::-1] if rev else geo.leaf)
            else:
                segs = geo.segments if rev else geo.segments[::-1]
                # pushed in reverse so children pop in emission order
                for child, crev in segs:
                    stack.append((child, crev != rev))
        if not parts:
            return np.empty(0, dtype=np.int64)
        out = [parts[0]]
        for seg in parts[1:]:
            # drop duplicated junction cell between consecutive segments
            if out[-1].size and seg.size and out[-1][-1] == seg[0]:
                seg = seg[1:]
            out.append(seg)
        return np.concatenate(out)

    def total_geometry_length(self) -> int:
        """Total stored V-path cell count over living arcs."""
        return sum(
            self.geoms[self.arc_geom[a]].length
            for a, alive in enumerate(self.arc_alive)
            if alive
        )

    def compact(self) -> None:
        """Drop dead records and flatten composite geometries (§IV-F1).

        This is the paper's "cleaning up the memory after computing the
        simplified MS complex": only living elements survive, and each
        living arc's geometry becomes a single concrete address array.
        The cancellation hierarchy (a list of address-based records) is
        preserved for analysis queries.
        """
        # Fast path: nothing was cancelled and every geometry is already
        # a concrete leaf — the rebuild below would reproduce the current
        # records exactly (node_arcs and pair_multiplicity are maintained
        # in arc-id order by construction), so skip it.
        if (
            len(self.geoms) == len(self.arc_geom)
            and all(self.node_alive)
            and all(self.arc_alive)
            and all(g.is_leaf for g in self.geoms)
        ):
            return

        alive_n = np.asarray(self.node_alive, dtype=bool)
        node_map = np.cumsum(alive_n) - 1  # valid at alive indices only
        keep = np.nonzero(alive_n)[0]
        num_nodes = int(keep.size)
        self.node_address = self.node_address[keep]
        self.node_index = self.node_index[keep]
        self.node_value = self.node_value[keep]
        self.node_boundary = self.node_boundary[keep]

        arc_keep = np.nonzero(np.asarray(self.arc_alive, dtype=bool))[0]
        num_arcs = int(arc_keep.size)
        new_up = node_map[np.asarray(self.arc_upper, dtype=np.int64)[arc_keep]]
        new_lo = node_map[np.asarray(self.arc_lower, dtype=np.int64)[arc_keep]]
        new_geoms: list[ArcGeometry] = []
        for a in arc_keep.tolist():
            geo = self.geoms[self.arc_geom[a]]
            if not geo.is_leaf:
                flat = self._expand_geometry(self.arc_geom[a])
                geo = ArcGeometry(leaf=flat, length=int(flat.size))
            new_geoms.append(geo)

        self.node_alive = np.ones(num_nodes, bool)
        self.arc_upper = new_up
        self.arc_lower = new_lo
        self.arc_geom = np.arange(num_arcs)
        self.arc_alive = np.ones(num_arcs, bool)
        self.geoms = new_geoms

        if num_arcs:
            # each arc appears in both endpoints' incidence lists, in
            # ascending arc-id order (the order sequential add_arc built)
            aids = np.arange(num_arcs, dtype=np.int64)
            nodes = np.concatenate([new_up, new_lo])
            both = np.concatenate([aids, aids])
            order = np.lexsort((both, nodes))
            counts = np.bincount(nodes, minlength=num_nodes)
            self.node_arcs = [
                chunk.tolist()
                for chunk in np.split(both[order], np.cumsum(counts)[:-1])
            ]
            key_lo = np.minimum(new_up, new_lo)
            key_hi = np.maximum(new_up, new_lo)
            pairs, mult = np.unique(
                key_lo * num_nodes + key_hi, return_counts=True
            )
            self.pair_multiplicity = {
                (int(p // num_nodes), int(p % num_nodes)): int(m)
                for p, m in zip(pairs, mult)
            }
        else:
            self.node_arcs = [[] for _ in range(num_nodes)]
            self.pair_multiplicity = {}

    def to_payload(self) -> dict[str, np.ndarray]:
        """Pack the living complex into flat numpy arrays.

        Requires a compacted complex (call :meth:`compact` first): every
        geometry must be a leaf so the payload is a fixed set of arrays.
        """
        for g in self.geoms:
            if not g.is_leaf:
                raise ValueError("to_payload requires a compacted complex")
        geom_data = (
            np.concatenate([g.leaf for g in self.geoms])
            if self.geoms
            else np.empty(0, dtype=np.int64)
        )
        geom_offsets = np.zeros(len(self.geoms) + 1, dtype=np.int64)
        for i, g in enumerate(self.geoms):
            geom_offsets[i + 1] = geom_offsets[i] + g.leaf.size
        return {
            "global_refined_dims": np.asarray(
                self.global_refined_dims, dtype=np.int64
            ),
            "region": np.asarray(
                self.region_lo + self.region_hi, dtype=np.int64
            ),
            "node_address": np.asarray(self.node_address, dtype=np.int64),
            "node_index": np.asarray(self.node_index, dtype=np.uint8),
            "node_value": np.asarray(self.node_value, dtype=np.float64),
            "node_boundary": np.asarray(self.node_boundary, dtype=bool),
            "node_ghost": np.zeros(len(self.node_address), dtype=bool),
            "arc_upper": np.asarray(self.arc_upper, dtype=np.int64),
            "arc_lower": np.asarray(self.arc_lower, dtype=np.int64),
            "arc_geom": np.asarray(self.arc_geom, dtype=np.int64),
            "geom_data": geom_data,
            "geom_offsets": geom_offsets,
        }


    @classmethod
    def from_payload(cls, payload) -> "ReferenceComplex":
        """The oracle's own record (``geom_offsets``) back into leaves."""
        dims = tuple(int(d) for d in payload["global_refined_dims"])
        region = [int(c) for c in payload["region"]]
        msc = cls(dims, tuple(region[:3]), tuple(region[3:]))
        msc.add_nodes(
            payload["node_address"].tolist(),
            payload["node_index"].tolist(),
            payload["node_value"].tolist(),
            payload["node_boundary"].tolist(),
        )
        msc._append_leaves(
            payload["geom_data"], np.diff(payload["geom_offsets"])
        )
        msc.add_arcs(
            np.asarray(payload["arc_upper"], dtype=np.int64),
            np.asarray(payload["arc_lower"], dtype=np.int64),
            payload["arc_geom"].tolist(),
        )
        return msc


# -- verbatim from repro/io/mscfile.py at the parent commit ----------------


def _serialize_sections(payload, sections) -> bytes:
    parts = [struct.pack("<I", len(sections))]
    blobs = []
    for key, dtype in sections:
        arr = np.ascontiguousarray(payload[key], dtype=dtype)
        blob = arr.tobytes()
        parts.append(struct.pack("<Q", len(blob)))
        blobs.append(blob)
    return b"".join(parts) + b"".join(blobs)


def reference_pack(msc: ReferenceComplex) -> bytes:
    """``pack_complex`` of the parent commit."""
    return _serialize_sections(msc.to_payload(), _LEGACY_SECTIONS)


def reference_unpack(blob: bytes) -> ReferenceComplex:
    """Inverse of :func:`reference_pack`."""
    return ReferenceComplex.from_payload(
        _deserialize_sections(blob, _LEGACY_SECTIONS)
    )
