"""Reduced simplicial homology ranks over the rationals.

Faces are bitmasks (bit i is vertex i).  ``_faces_by_dim`` walks the
submasks of each facet down to the faces already seen and is the one
face-table builder; a complex keeps its table
(``SimplicialComplex.face_table``), and every boundary map is read off
it.

Ranks are exact and never use floating point.  Each boundary map is
first ranked over GF(2) with an XOR basis (kernels.rank_f2), a one-sided
certificate that falls back to exact elimination where it settles
nothing: ``boundary_matrix`` reads the map off the face table as one
sparse row {(d-1)-face index: +-1} per d-face, and kernels.rank_int
pivots on unit entries, shortest row first, leaving the rest to
fraction-free (Bareiss) elimination.
Why it is sound: write f_d for the number of d-faces, r_d for the rank
of the boundary map del_d over Q and r'_d for its rank over GF(2).
Reducing mod 2 cannot raise a rank, so r'_d <= r_d, and del_d del_{d+1}
= 0 gives r_d + r_{d+1} <= f_d.  The two ends are exact: the
augmentation del_0 has rank 1 and del_{top+1} is zero.  If r_{d-1} is
known and f_{d-1} - r_{d-1} = r'_d (no GF(2) homology left in degree
d-1), then r'_d <= r_d <= f_{d-1} - r_{d-1} = r'_d, so r_d = r'_d; the
same holds from above when r_{d+1} is known and f_d - r_{d+1} = r'_d.
Climbing from degree 0 shows that when the GF(2) homology vanishes below
the top degree, the GF(2) ranks are the rational ones, top degree
included, and nothing is eliminated.  A rank that neither neighbour
settles (homology in two adjacent degrees, or torsion such as the Z/2 of
the real projective plane) is eliminated exactly, smallest matrix first,
and the certificates are tried again.

The cache is filled on demand.  Per relabeling-canonical complex
(``SimplicialComplex.rank_key``) it holds the face counts and the exact
boundary ranks found so far.  ``reduced_homology_ranks(c, below=j)``
settles only del_1 .. del_j, by the rule above restricted to those maps,
which determines H~_i for every i < j; it returns every degree that the
known ranks determine, so a complex that is already ranked is answered
from the cache without a face table.  Reisner's criterion asks a link
for the degrees below its dimension; Duval's asks each skeleton-link
only for the degrees its level needs, so a level that fails early never
pays for the maps above it.  The exhaustive oracle sweeps stay cheap
because the links showing up there repeat heavily.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .ideals import InvalidInput

# rank key -> (face counts by dimension, {d: exact rank of del_d} found so far)
_ranks_cache: dict = {}


@dataclass(frozen=True)
class BoundaryMatrix:
    """The d-th boundary map as sparse rows, one per d-face.

    ``rows[i]`` is ``{j: +-1}`` for the d-face ``face_table[d][i]``, where
    j indexes the (d-1)-face ``cols[j]`` (``cols`` is ``face_table[d-1]``).
    """

    rows: list
    cols: list


def _faces_by_dim(c) -> dict[int, list[int]]:
    """dim -> face masks of that dimension in increasing order, empty face included.

    The submasks of a facet form a tree (remove vertices in increasing
    order), so each is reached once.  A branch ends at a face seen
    before: an earlier facet contains it, and everything below it was
    seen with it.
    """
    seen = {0}
    for f in c.masks:
        seen.add(f)
        stack = [(f, f)]
        while stack:
            s, free = stack.pop()
            while free:
                low = free & -free
                free ^= low
                t = s ^ low
                if t not in seen:
                    seen.add(t)
                    stack.append((t, free))
    by_dim: dict[int, list[int]] = {}
    for s in sorted(seen):
        by_dim.setdefault(s.bit_count() - 1, []).append(s)
    return by_dim


def boundary_matrix(c, d: int) -> BoundaryMatrix:
    """The d-th boundary map of the augmented (reduced) chain complex.

    Sign convention: removing the k-th smallest vertex of a face
    contributes (-1)^k.  For d=0 the one column is the empty face and
    every vertex maps to it with 1 (augmentation).
    """
    table = c.face_table
    top = max(table)
    if not 0 <= d <= top:
        raise InvalidInput(f"boundary dimension {d} out of range for dim {top}")
    cols = table[d - 1]
    index = {f: j for j, f in enumerate(cols)}
    rows = []
    for f in table[d]:
        row, sign, s = {}, 1, f
        while s:
            low = s & -s
            row[index[f ^ low]] = sign
            sign = -sign
            s ^= low
        rows.append(row)
    return BoundaryMatrix(rows, cols)


def _rank_f2(table, d: int) -> int:
    """Rank of the d-th boundary map over GF(2), one bitmask column per d-face."""
    row_bit = {f: 1 << i for i, f in enumerate(table[d - 1])}
    cols = []
    for f in table[d]:
        col, s = 0, f
        while s:
            low = s & -s
            col |= row_bit[f ^ low]
            s ^= low
        cols.append(col)
    return kernels.rank_f2(cols)


def _canonical_key(masks) -> tuple:
    """The sorted facet masks after relabeling the used vertices 0, 1, ... in order."""
    union = 0
    for f in masks:
        union |= f
    runs = []   # (first vertex, mask of its width, new first vertex) per run of used vertices
    at = 0
    while union:
        start = (union & -union).bit_length() - 1
        width = (~(union >> start) & ((union >> start) + 1)).bit_length() - 1
        runs.append((start, (1 << width) - 1, at))
        at += width
        union &= ~(((1 << width) - 1) << start)
    return tuple(sorted(sum(((f >> start) & ones) << to for start, ones, to in runs)
                        for f in masks))


def _settle(c, counts, rank, below) -> None:
    """Add the exact ranks of del_1 .. del_below to ``rank`` (see the module docstring).

    A GF(2) rank is taken as exact when the degree below or above
    certifies it; elimination ranks the smallest matrix left unsettled,
    and the certificates are tried again.  Maps above ``below`` are
    neither ranked nor eliminated.
    """
    f2 = {}
    wanted = range(1, below + 1)
    while any(d not in rank for d in wanted):
        for d in [*wanted, *reversed(wanted)]:
            if d in rank:
                continue
            if d not in f2:
                f2[d] = _rank_f2(c.face_table, d)
            if (d - 1 in rank and counts[d - 1] - rank[d - 1] == f2[d]
                    or d + 1 in rank and counts[d] - rank[d + 1] == f2[d]):
                rank[d] = f2[d]
        unsettled = [d for d in wanted if d not in rank]
        if unsettled:
            d = min(unsettled, key=lambda d: counts[d - 1] * counts[d])
            rank[d] = kernels.rank_int(boundary_matrix(c, d).rows)


def reduced_homology_ranks(c, below: int | None = None) -> dict[int, int]:
    """Ranks of the reduced homology groups H~_d, for every d the known ranks determine.

    rank H~_d = (#d-faces) - rank del_d - rank del_{d+1}; the (-1)-st
    rank is 1 for the [set()] complex and 0 otherwise.  Only del_1 ..
    del_below are settled, which determines every degree below
    ``below``; the default settles every map, so the dict covers
    d = -1..dim.  Degrees that ranks found earlier determine are
    included too.
    """
    entry = _ranks_cache.get(c.rank_key)
    if entry is None:
        counts = {d: len(faces) for d, faces in c.face_table.items()}
        top = max(counts)
        entry = _ranks_cache[c.rank_key] = (counts, {0: 1, top + 1: 0} if top >= 0 else {0: 0})
    counts, rank = entry
    top = max(counts)
    _settle(c, counts, rank, top if below is None else min(below, top))
    ranks = {-1: 1 - rank[0]}
    for d in range(0, top + 1):
        if d in rank and d + 1 in rank:
            ranks[d] = counts[d] - rank[d] - rank[d + 1]
    return ranks
