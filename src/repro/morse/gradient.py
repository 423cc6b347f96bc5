"""Discrete gradient vector field construction (paper §IV-C).

The algorithm is the greedy assignment of Gyulassy et al. [10] adapted to
the parallel setting: cells are processed "sorted by increasing dimension,
and then by increasing function value"; in this order a cell is "paired in
gradient arrows in the direction of steepest descent, if possible,
otherwise marked critical"; a d-cell can be paired with a co-facet only
when it is "the only unassigned facet of one of its unassigned co-facets".
Function-value ties are broken by the improved simulation of simplicity
(the complex's SoS key), which "greatly reduces the number of
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
SoS order ascending) is never run; three array passes, d = 0, 1, 2,
compute its result exactly.  They rest on one lemma (proved in
docs/ALGORITHM.md §2): at the turn of a d-cell ``a``, "``a`` is the only
unassigned facet of its cofacet ``b``" holds iff ``a`` is the
highest-key member of F(b) = {facets of ``b`` with ``sig == sig(b)`` not
taken as heads by the (d-1) pass}; and ``b`` itself is still unassigned
then.  So pass d is two gather-reduce steps over strided views of the
padded arrays: every (d+1)-cell elects the arg-max-key member of F(b),
the only tail it could take; every free d-cell takes the min-key cofacet
that elected it.  Cells no pass paired are critical.
``tests/reference_gradient.py`` keeps the sequential sweep as the oracle
the result must equal byte for byte.

A facet differs from its cofacet along one axis only, so
``sig(facet) == sig(b)`` fails exactly when the facet lies on a cut face
of the block: one layer of the candidate grid per direction.  Keys are
compared by word 0 (the complex's ``key``); where word 0 ties, which
needs a key of more than one word, the full keys of the two cells
decide.
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

_KEY_MAX = np.iinfo(np.uint64).max


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


def _choose(complex_, shape, t, codes, dim, state, choice,
            highest: bool) -> int:
    """Set ``choice`` to the code of each t-cell's highest- (or lowest-)
    key candidate among its ``dim``-cell neighbours along ``codes``.

    Electing (``highest``), the candidates are the facets in F(b):
    unassigned in ``state`` (the pairing), off the cut faces.  Taking,
    they are the cofacets whose election (``state``) points back.  A
    non-candidate reads 0 or ``2**64 - 1``, which no valid word 0
    equals, and ``best`` starts one step inside, so no step needs a
    masked write.  Returns the number of word-0 ties settled.
    """
    key = complex_.key.reshape(shape)
    cells = _cells(shape, t)
    best = np.full(choice.shape, 1 if highest else _KEY_MAX - 1, np.uint64)
    ties = 0
    gathered = {}
    for code in codes:
        axis, minus = code >> 1, code & 1
        if axis not in gathered:
            # both neighbours along `axis` from one strided gather of the
            # cells' layers widened by one: shifted views of it
            union = list(cells)
            union[2 - axis] = slice(cells[2 - axis].start - 1, None, 2)
            union = tuple(union)
            gathered[axis] = key[union].copy(), state[union].copy()
        shift = [slice(None)] * 3
        shift[2 - axis] = slice(None, -1) if minus else slice(1, None)
        nb_key, nb_state = (a[tuple(shift)] for a in gathered[axis])
        if highest:
            if dim:  # (no vertex is a head before pass 0)
                cand = nb_key * (nb_state == UNASSIGNED)
            else:
                cand = nb_key.copy()
            if complex_.cut_faces[axis][1 - minus]:
                # the facets one step along `code` on that face's layer
                cand[(slice(None),) * (2 - axis) + (minus - 1,)] = 0
            better = cand > best
        else:
            cand = np.subtract(nb_state == (code ^ 1), 1, dtype=np.uint64)
            cand |= nb_key
            better = cand < best
        if complex_.key_words[dim] > 1 and (tie := cand == best).any():
            at = np.nonzero(tie)
            base = np.ravel_multi_index(
                tuple(s.start + 2 * i for s, i in zip(cells, at)), shape
            )
            offsets = np.asarray(complex_.tables.dir_offsets)
            held, new = base + offsets[choice[at]], base + offsets[code]
            wins = complex_.precedes(*((held, new) if highest else
                                       (new, held)), dim)
            better[tuple(i[wins] for i in at)] = True
            ties += at[0].size
        (np.maximum if highest else np.minimum)(best, cand, out=best)
        choice ^= (choice ^ code) * better
    return ties


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
        flat_pairing = np.full(complex_.num_padded, SENTINEL, dtype=np.uint8)
        complex_.interior(flat_pairing)[...] = UNASSIGNED
        pairing = flat_pairing.reshape(shape)
        # direction code from each cell to the only tail it could take,
        # UNASSIGNED where F(b) is empty (and on vertices and sentinels)
        elected = np.full(shape, UNASSIGNED, dtype=np.uint8)

    with tracer.span("gradient.sweep", cat="kernel",
                     cells=complex_.num_cells) as sweep_span:
        tied = 0
        for d in range(3):
            # every (d+1)-cell elects the top of its F(b)
            for t in CELLTYPES_OF_DIM[d + 1]:
                heads = _cells(shape, t)
                choice = np.full_like(elected[heads], UNASSIGNED)
                tied += _choose(complex_, shape, t, _directions(t, True), d,
                                pairing, choice, highest=True)
                elected[heads] = choice
            # every free d-cell takes the lowest cofacet that elected it
            # (a d-cell taken as a head by pass d-1 is in no F(b))
            for t in CELLTYPES_OF_DIM[d]:
                cells = _cells(shape, t)
                cofacets = _directions(t, False)
                choice = pairing[cells].copy()
                tied += _choose(complex_, shape, t, cofacets, d + 1,
                                elected, choice, highest=False)
                pairing[cells] = choice
                for code in cofacets:
                    pairing[_cells(shape, t, code)][choice == code] = code ^ 1
        critical = flat_pairing == UNASSIGNED
        flat_pairing[critical] = CRITICAL
        sweep_span.annotate(critical=int(np.count_nonzero(critical)),
                            tied=tied)

    return GradientField(complex_, flat_pairing)
