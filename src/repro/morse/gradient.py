"""Discrete gradient vector field construction (paper §IV-C).

The algorithm is the greedy assignment of Gyulassy et al. [10] adapted to
the parallel setting: cells are processed "sorted by increasing dimension,
and then by increasing function value"; in this order a cell is "paired in
gradient arrows in the direction of steepest descent, if possible,
otherwise marked critical"; a d-cell can be paired with a co-facet only
when it is "the only unassigned facet of one of its unassigned co-facets".
Function-value ties are broken by the improved simulation of simplicity
(the complex's precomputed SoS rank), which "greatly reduces the number of
zero-persistence critical points found" in flat regions.

Boundary restriction
--------------------
"For a cell on the boundary of two or more blocks, we only consider for
pairing other cells also on the boundary of those same blocks."  We
realize this with the boundary signature of each cell (the set of internal
cut planes of the global decomposition it lies on): a pairing is allowed
only between cells of *equal* signature, and signature classes are
processed from most constrained to least (block corners, then block edges,
then block faces, then interiors).  Because the signature is a global
property of the decomposition and the processing order inside a class
depends only on global cell addresses and vertex values, two blocks
sharing a face compute bit-identical gradient arrows on it — the property
that anchors the gluing step of the merge stage (§IV-F3).

Acyclicity
----------
A cell is paired with a co-facet only when every *other* facet of that
co-facet is already assigned, so the assignment times strictly decrease
along any V-path; hence no V-path can revisit a cell and the constructed
vector field is a discrete *gradient* field.

Implementation notes
--------------------
The sequential sweep (signature popcount descending, dimension ascending,
SoS rank ascending) is never run; three array passes, d = 0, 1, 2,
compute its result exactly.  They rest on one lemma:

    At the turn of a d-cell ``a``, "``a`` is the only unassigned facet of
    its cofacet ``b``" holds iff ``a`` is the highest-rank member of
    F(b) = {facets of ``b`` with ``sig == sig(b)`` not taken as heads by
    the (d-1) pass}; and ``b`` itself is still unassigned then.

Proof.  Every cell is assigned at its own turn whatever the outcome (tail
or critical).  A facet of ``b`` lies on every cut plane ``b`` lies on, so
its signature is a superset of ``sig(b)``: a facet of a different
signature belongs to an earlier class and is already assigned.  A facet
in F(b) is assigned exactly when its turn has passed, i.e. when its rank
is below ``a``'s; and only the top of F(b) could ever have claimed ``b``.

Eligibility is therefore static within a (signature, dimension) pass and
the equal-signature test already separates the classes, so pass d is two
gather-reduce steps over strided views of the flat padded arrays: every
(d+1)-cell elects the arg-max-rank member of F(b), the only tail it could
take; every free d-cell takes the min-rank cofacet that elected it.  Cells
no pass paired are critical.  ``tests/reference_gradient.py`` keeps the
sequential sweep as the oracle the result must equal byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.cubical import CELLTYPES_OF_DIM, CubicalComplex
from repro.morse.vectorfield import (
    CRITICAL,
    SENTINEL,
    UNASSIGNED,
    GradientField,
)
from repro.obs.trace import get_tracer

__all__ = ["compute_discrete_gradient"]

_NO_RANK = np.iinfo(np.int32).max


def _cells(shape_zyx, celltype: int, code: int | None = None):
    """Strided index of all ``celltype`` cells in a ``(z, y, x)`` padded
    array, or of their neighbours one step along direction ``code``."""
    index = []
    for axis in (2, 1, 0):
        shift = 0
        if code is not None and code >> 1 == axis:
            shift = 1 - 2 * (code & 1)
        start = 1 + ((celltype >> axis) & 1) + shift
        index.append(slice(start, shape_zyx[2 - axis] - 1 + shift, 2))
    return tuple(index)


def _directions(celltype: int, facets: bool) -> list[int]:
    """Direction codes leading from a cell to its facets or cofacets."""
    along = [bool(celltype >> axis & 1) for axis in range(3)]
    return [code for code in range(6) if along[code >> 1] == facets]


def compute_discrete_gradient(complex_: CubicalComplex) -> GradientField:
    """Compute the discrete gradient vector field of a block.

    Returns a :class:`~repro.morse.vectorfield.GradientField` in which
    every valid cell is either paired or critical.  The computation is
    deterministic and, for cells on shared block boundaries, depends only
    on data available identically to all blocks sharing that boundary.
    """
    tracer = get_tracer()
    shape = complex_.padded_shape[::-1]

    with tracer.span("gradient.prepare", cat="kernel"):
        flat_pairing = np.where(
            complex_.valid, np.uint8(UNASSIGNED), np.uint8(SENTINEL)
        )
        pairing = flat_pairing.reshape(shape)
        rank = complex_.order_rank.reshape(shape)
        sig = complex_.boundary_sig.reshape(shape)
        # direction code from each cell to the only tail it could take,
        # UNASSIGNED where F(b) is empty (and on vertices and sentinels)
        elected = np.full(shape, UNASSIGNED, dtype=np.uint8)

    with tracer.span("gradient.sweep", cat="kernel",
                     cells=complex_.num_cells) as sweep_span:
        for d in range(3):
            # every (d+1)-cell elects the top of its F(b)
            for t in CELLTYPES_OF_DIM[d + 1]:
                heads = _cells(shape, t)
                sig_b = sig[heads]
                choice = elected[heads]  # a view: writes land in `elected`
                best = np.full(choice.shape, -1, dtype=np.int32)
                for code in _directions(t, facets=True):
                    facet = _cells(shape, t, code)
                    better = (
                        (sig[facet] == sig_b)
                        & (pairing[facet] == UNASSIGNED)
                        & (rank[facet] > best)
                    )
                    np.copyto(best, rank[facet], where=better)
                    choice[better] = code
            # every free d-cell takes the lowest cofacet that elected it
            # (a d-cell taken as a head by pass d-1 is in no F(b))
            for t in CELLTYPES_OF_DIM[d]:
                choice = pairing[_cells(shape, t)]  # a view, as above
                best = np.full(choice.shape, _NO_RANK, dtype=np.int32)
                cofacets = _directions(t, facets=False)
                for code in cofacets:
                    head = _cells(shape, t, code)
                    better = (elected[head] == (code ^ 1)) & (rank[head] < best)
                    np.copyto(best, rank[head], where=better)
                    choice[better] = code
                for code in cofacets:
                    pairing[_cells(shape, t, code)][choice == code] = code ^ 1
        critical = flat_pairing == UNASSIGNED
        flat_pairing[critical] = CRITICAL
        sweep_span.annotate(critical=int(np.count_nonzero(critical)))

    return GradientField(complex_, flat_pairing)
