"""Reduced simplicial homology ranks over the rationals.

Faces are bitmasks (bit i is vertex i).  ``_faces_by_dim`` is the one
face-table builder; a complex keeps its table
(``SimplicialComplex.face_table``), and every boundary map is read off
it.  A complex built on its own gets its table by enumeration: the
submasks of each facet, down to the faces already seen.  A link
carries a source (the complex it comes from and its face F), and its
table is a restriction of the source's, never enumerated again:

- The faces of lk(F) of dimension e are {G - F : G a face of dimension
  e + |F| containing F}, as G - F is a face of lk(F) exactly when G =
  (G - F) | F is a face.  For G containing F, G - F is G minus the
  integer F, so G -> G - F strictly increases on those G and each
  restricted list is in increasing order already: nothing is sorted or
  hashed.
- The empty face's link is the complex itself (``complexes.link``
  returns it), so a complex and its link through the empty face share
  one table.

Every complex is ranked relative to the star of one vertex v, which
shrinks each boundary map before it is ranked.  The star st(v) = v *
lk(v) is a cone, so it is acyclic (below), and the long exact sequence
of the pair (c, st v) gives H~_i(c) = H_i(c, st v) for every i.  The
relative cells are the faces G with G | v no face, that is the faces of
del(v) not in lk(v) (``_relative_table``); the empty face lies in the
star, so there is no relative (-1)-cell, and the relative boundary is
the absolute one with the star's faces dropped.  v is the lowest used
vertex: the order-preserving relabel of ``_canonical_key`` sends it to
vertex 0, so complexes that share a rank key share their relative cells
up to that relabel, and with them the cached relative ranks.  The
[set()] complex has no vertex and is ranked on its own table.

Cones are acyclic and are answered before any table: when a vertex v
lies in every facet, h(sigma) = +-(sigma | v) for v not in sigma (the
sign of v's position in sigma | v), and h(sigma) = 0 for v in sigma,
is a chain contraction of the augmented chain complex (del h + h del =
id, the empty face included), so every reduced homology group
vanishes, H~_{-1} too.  A nonempty simplex is one; the [set()]
complex (facet mask 0) never is.  A cone on v is the case st(v) = c,
with no relative cell at all.

Ranks are exact and never use floating point.  Each relative boundary
map is first ranked over GF(2) with an XOR basis (kernels.rank_f2), a
one-sided certificate that falls back to exact elimination where it
settles nothing: ``_boundary_rows`` reads the map off a face table as
one sparse row {(d-1)-cell index: +-1} per d-cell (``boundary_matrix``
is the absolute map), and kernels.rank_int pivots on unit entries,
shortest row first, leaving the rest to fraction-free (Bareiss)
elimination.
Why it is sound, for any chain complex with integer boundary maps, the
relative one included: write f_d for the number of d-cells, r_d for
the rank of the boundary map del_d over Q and r'_d for its rank over
GF(2).  Reducing mod 2 cannot raise a rank, so r'_d <= r_d, and del_d
del_{d+1} = 0 gives r_d + r_{d+1} <= f_d.  The two ends are exact:
del_0 is zero, as there is no relative (-1)-cell (for the [set()]
complex there is no 0-cell), and del_{top+1} is zero.  The maps are
settled in one upward pass from del_1: when r_{d-1} is known and
f_{d-1} - r_{d-1} = r'_d (no GF(2) homology left in degree d-1), then
r'_d <= r_d <= f_{d-1} - r_{d-1} = r'_d, so r_d = r'_d; otherwise
(homology in degree d-1, or torsion such as the Z/2 of the real
projective plane) del_d is eliminated exactly.  Either way r_d is
known before del_{d+1} is reached.  So when the GF(2) homology
vanishes below the top degree, nothing is eliminated.

The cache is filled on demand.  Per relabeling-canonical complex
(``SimplicialComplex.rank_key``) it holds the relative cell counts and
the exact relative boundary ranks found so far, never the cells: those
of the two ends and of a prefix del_1 .. del_k, which the upward pass
extends.  ``reduced_homology_ranks(c, below=j)`` settles only del_1 ..
del_j, which determines H~_i for every i < j; it returns every degree
that the known ranks determine, so a complex that is already ranked is
answered from the cache without a face table; a link's table,
restricted or not, and its relative cells are built only when a rank
misses.  Reisner's criterion asks a link for the degrees below its
dimension; Duval's asks each skeleton-link only for the degrees its
level needs, so a level that fails early never pays for the maps above
it.  The exhaustive oracle sweeps stay cheap because the links showing
up there repeat heavily.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .ideals import InvalidInput

# rank key -> (relative cell counts by dimension, {d: exact rank of relative del_d} so far)
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

    A link, whose source is (parent, F), restricts the parent's table
    to the faces containing F, dimensions -1 up to its own (see the
    module docstring).  Any other complex enumerates its table: the submasks
    of a facet form a tree (remove vertices in increasing order), so
    each is reached once, and a branch ends at a face seen before: an
    earlier facet contains it, and everything below it was seen with it.
    """
    if c.source is not None:
        parent, face = c.source
        table, k = parent.face_table, face.bit_count()
        return {e: [g ^ face for g in table[e + k] if g & face == face]
                for e in range(-1, max(f.bit_count() for f in c.masks))}
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


def _boundary_rows(table, d: int) -> list:
    """One sparse row {(d-1)-cell index: +-1} per d-cell of ``table``.

    A (d-1)-face that ``table`` does not hold (a face of the star, in a
    relative table) is dropped from the row.
    """
    index = {f: j for j, f in enumerate(table[d - 1])}
    rows = []
    for f in table[d]:
        row, sign, s = {}, 1, f
        while s:
            low = s & -s
            j = index.get(f ^ low)
            if j is not None:
                row[j] = sign
            sign = -sign
            s ^= low
        rows.append(row)
    return rows


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
    return BoundaryMatrix(_boundary_rows(table, d), table[d - 1])


def _rank_f2(table, d: int) -> int:
    """Rank over GF(2) of the d-th boundary map of ``table``, one bitmask column per d-cell."""
    row_bit = {f: 1 << i for i, f in enumerate(table[d - 1])}
    cols = []
    for f in table[d]:
        col, s = 0, f
        while s:
            low = s & -s
            col |= row_bit.get(f ^ low, 0)
            s ^= low
        cols.append(col)
    return kernels.rank_f2(cols)


def _relative_table(c) -> dict[int, list[int]]:
    """dim -> the cells of (c, st v) in increasing order, v the lowest used vertex.

    The cells are the faces G with G | v no face: the faces without v
    that are not in lk(v).  The [set()] complex has no vertex and keeps
    its own table.
    """
    table = c.face_table
    union = 0
    for f in c.masks:
        union |= f
    v = union & -union
    if not v:
        return table
    star = {g for faces in table.values() for g in faces if g & v}
    return {d: [g for g in faces if g | v not in star] for d, faces in table.items()}


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


def reduced_homology_ranks(c, below: int | None = None) -> dict[int, int]:
    """Ranks of the reduced homology groups H~_d, for every d the known ranks determine.

    rank H~_d = rank H_d(c, st v) = (#relative d-cells) - rank del_d -
    rank del_{d+1}, with v the lowest used vertex; the (-1)-st rank is 1
    for the [set()] complex and 0 otherwise.  Only del_1 .. del_below
    are settled, which determines every degree below ``below``; the
    default settles every map, so the dict covers d = -1..dim.  Degrees
    that ranks found earlier determine are included too.  A cone (the
    facets share a vertex) is acyclic and is answered at once, with
    every degree -1..dim zero.
    """
    apex = -1
    for f in c.masks:
        apex &= f
    if apex:
        return dict.fromkeys(range(-1, max(f.bit_count() for f in c.masks)), 0)
    entry = _ranks_cache.get(c.rank_key)
    table = None
    if entry is None:
        table = _relative_table(c)
        counts = {d: len(cells) for d, cells in table.items()}
        entry = _ranks_cache[c.rank_key] = (counts, {0: 0, max(counts) + 1: 0})
    counts, rank = entry
    top = max(counts)
    for d in range(1, (top if below is None else min(below, top)) + 1):
        if d in rank:
            continue
        if table is None:
            table = _relative_table(c)
        f2 = _rank_f2(table, d)
        rank[d] = (f2 if counts[d - 1] - rank[d - 1] == f2
                   else kernels.rank_int(_boundary_rows(table, d)))
    ranks = {-1: counts[-1] - rank[0]}
    for d in range(0, top + 1):
        if d in rank and d + 1 in rank:
            ranks[d] = counts[d] - rank[d] - rank[d + 1]
    return ranks
