"""Reduced simplicial homology ranks over the rationals.

Faces are bitmasks (bit i is vertex i).  ``_faces_by_dim`` is the one
face-table builder; a complex keeps its table
(``SimplicialComplex.face_table``), enumerated from its own facets, and
every boundary map is read off it.

A ``SimplicialComplex`` is ranked relative to the star of one vertex
v, which shrinks each boundary map before it is ranked.  The star
st(v) = v * lk(v) is a cone, so it is acyclic (below), and the long
exact sequence of the pair (c, st v) gives H~_i(c) = H_i(c, st v) for
every i.  The relative cells are the faces G with G | v no face, that
is the faces of del(v) not in lk(v) (``_relative_table``); the empty
face lies in the star, so there is no relative (-1)-cell, and the
relative boundary is the absolute one with the star's faces dropped.
v is the lowest used vertex.  The [set()] complex has no vertex (nor
star) and is ranked on its own table.

Cones are acyclic: when a vertex v lies in every facet, h(sigma) =
+-(sigma | v) for v not in sigma (the sign of v's position in
sigma | v), and h(sigma) = 0 for v in sigma, is a chain contraction of
the augmented chain complex (del h + h del = id, the empty face
included), so every reduced homology group vanishes, H~_{-1} too.  A
nonempty simplex is one; the [set()] complex (facet mask 0) never is.
A cone is ranked like any other complex: when its lowest used vertex v
is an apex, st(v) = c and there is no relative cell; otherwise its
exact ranks come out zero.

Ranks are exact and never use floating point.  ``_ranks`` ranks every
relative boundary map of a ``SimplicialComplex`` by kernels.rank_int:
``_boundary_rows`` reads the map off a table of cells as one sparse row
{(d-1)-cell index: +-1} per d-cell (``boundary_matrix`` is the absolute
map), and kernels.rank_int pivots on unit entries, shortest row first,
dividing a row without one over Q.  The two ends need no elimination:
del_0 is zero, as there is no relative (-1)-cell (for the [set()]
complex there is no 0-cell), and del_{top+1} is zero.

A type complex (n, m, T) (``complexes``: its faces are the sets of a
x's and b y's with (a, b) below some facet type in the antichain T, up
to an order-preserving relabel of the used vertices) is ranked by the
hook formula, from its facet types alone: no cell is listed and no map
eliminated (``_hook_ranks``, O(|T|) binomials).  Sort T by x-count,
(A_1, B_1), ..., (A_r, B_r), B falling.  Then H~ is the sum of
- a facet term, C(n-1, A_i) C(m-1, B_i) classes in degree A_i + B_i - 1,
  the facet's dimension: nonzero iff A_i < n and B_i < m;
- an inner-corner term, C(n-1, A_i) C(m-1, B_{i+1}) classes in degree
  A_i + B_{i+1}: never zero, as A_i < A_{i+1} <= n and B_{i+1} < B_i <= m;
- where a block is unused, a factor of 1 and no condition from it.
C(n-1, A) is zero at A = n >= 1, so the facet term needs no test of
its own.  An unused block of size n >= 1 has every A = 0, a factor
C(n-1, 0) = 1, and a block of size 0 is read with n - 1 as 0, so
C(0, 0) = 1.

Proof (Fulton and Harris, Prop. 3.12: the Lambda^k V below are
irreducible and pairwise distinct).  As an S_n-module the augmented
chains of the simplex on n >= 1 vertices split into two-term pieces,
one per k = 0..n-1: Lambda^k V, of dimension C(n-1, k), in the sizes
k + 1 and k, the boundary an isomorphism between them (it is
equivariant, and the augmented complex of a simplex is exact), V the
standard module of dimension n - 1.  On n = 0 vertices the chains are
Q in size 0, one piece of one cell type.  The chains of the join of the
x-simplex and the y-simplex are the tensor product, its pieces on the
cell types {k, k+1} x {l, l+1}, and K's chains are these pieces cut to
K's face types, a down-closed set.  A cut piece keeps nothing, (k, l)
alone, (k, l) with one neighbour, all but (k+1, l+1), or all four.  Two
cells joined by an isomorphism are exact, and so are all four, a
tensor product of exact complexes.  (k, l) alone is C(n-1, k)
C(m-1, l) classes in degree k + l - 1, kept alone exactly when (k, l)
is a facet type with k < n and l < m: a facet term.  All but
(k+1, l+1) map onto (k, l) with a kernel of that dimension in degree
k + l, kept exactly where the staircase of the face types turns
inward, at (k, l) = (A_i, B_{i+1}): an inner-corner term.  A block of
size 0 gives pieces with the one cell type 0 there, and the same
reading gives its facet term with no condition from that block.

The ranks of a type complex are cached, keyed by the tuple as given
(``complexes`` normalizes each complex it asks about, a spec's complex
or one of its facet cuts, to its signature first), and only a miss
checks the tuple (``_check_type_complex``), which must be ints and int
pairs in tuples, so that it hashes: a list for T is refused with
InvalidInput, as by Reisner's and Duval's checks.  Two tuples are keyed
apart even when their complexes are isomorphic (the k-skeleton of one
simplex read with two block splits): a miss more, never a wrong rank.
A ``SimplicialComplex`` is ranked from its own relative table every
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from . import kernels
from .ideals import InvalidInput

# type complex (n, m, T) -> {d: rank H~_d} for d = -1..dim
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
    order), so each is reached once, and a branch ends at a face seen
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


def _relative_table(c) -> dict[int, list[int]]:
    """dim -> the cells of (c, st v) in increasing order, v the lowest used vertex.

    The cells are the faces G with G | v no face: the faces without v
    that are not in lk(v).  The [set()] complex has no vertex (v = 0)
    and no star, so its one face is its one cell.
    """
    table = c.face_table
    union = 0
    for f in c.masks:
        union |= f
    v = union & -union
    star = {g for faces in table.values() for g in faces if g & v}
    return {d: [g for g in faces if g | v not in star] for d, faces in table.items()}


def _check_type_complex(c) -> None:
    """Raise InvalidInput unless c = (n, m, T) with T a nonempty antichain in 0..n x 0..m.

    n and m are ints and T a tuple of (a, b) int pairs: the value is
    hashable, as the rank cache keys on it.
    """
    if not (len(c) == 3 and type(c[0]) is int and type(c[1]) is int and type(c[2]) is tuple
            and all(type(t) is tuple and len(t) == 2 and type(t[0]) is int and type(t[1]) is int
                    for t in c[2])):
        raise InvalidInput(f"{c!r} is no type complex: it must be a tuple (n, m, T) of two "
                           f"ints and a tuple of (a, b) int pairs")
    n, m, types = c
    comparable = any(s[0] <= t[0] and s[1] <= t[1] or t[0] <= s[0] and t[1] <= s[1]
                     for s, t in combinations(types, 2))
    if not types or comparable or not all(0 <= a <= n and 0 <= b <= m for a, b in types):
        raise InvalidInput(f"{c!r} is no type complex: its facet types must be a nonempty "
                           f"antichain of (a, b) with 0 <= a <= {n} and 0 <= b <= {m}")


def _hook_ranks(c) -> dict[int, int]:
    """d -> rank H~_d for d = -1..dim of a type complex (n, m, T), by the hook formula.

    One facet term per type and one inner-corner term per pair of
    neighbours in x-count order (module docstring).
    """
    n, m, types = c
    x, y = max(n - 1, 0), max(m - 1, 0)     # a block of size 0 gives C(0, 0) = 1
    types = sorted(types)
    ranks = dict.fromkeys(range(-1, max(a + b for a, b in types)), 0)
    for a, b in types:
        ranks[a + b - 1] += comb(x, a) * comb(y, b)
    for (a, _), (_, b) in zip(types, types[1:]):
        ranks[a + b] += comb(x, a) * comb(y, b)
    return ranks


def _ranks(table) -> dict[int, int]:
    """d -> rank H~_d for d = -1..top, from a table of relative cells.

    rank H~_d = (#relative d-cells) - rank del_d - rank del_{d+1}; every
    map del_1 .. del_top is ranked, and del_0 and del_{top+1} are zero.
    """
    top = max(table)
    rank = {0: 0, top + 1: 0}
    for d in range(1, top + 1):
        rank[d] = kernels.rank_int(_boundary_rows(table, d))
    return {-1: len(table[-1]),
            **{d: len(table[d]) - rank[d] - rank[d + 1] for d in range(top + 1)}}


def reduced_homology_ranks(c) -> dict[int, int]:
    """Ranks of the reduced homology groups H~_d, for d = -1..dim.

    ``c`` is a complex or a type complex (n, m, facet types).  A
    complex has rank H~_d = rank H_d(c, st v), with v the lowest used
    vertex; a type complex is ranked by the hook formula, and cached.
    The (-1)-st rank is 1 for the [set()] complex and 0 otherwise.
    """
    if type(c) is not tuple:
        return _ranks(_relative_table(c))
    try:
        ranks = _ranks_cache.get(c)
    except TypeError:   # an unhashable part: no type complex, refused below
        ranks = None
    if ranks is None:
        _check_type_complex(c)
        ranks = _ranks_cache[c] = _hook_ranks(c)
    return dict(ranks)
