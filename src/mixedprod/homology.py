"""Reduced simplicial homology ranks over the rationals.

Faces are bitmasks (bit i is vertex i).  ``_faces_by_dim`` is the one
face-table builder; a complex keeps its table
(``SimplicialComplex.face_table``), enumerated from its own facets, and
every boundary map is read off it.

Every complex is ranked relative to the star of one vertex v, which
shrinks each boundary map before it is ranked.  The star st(v) = v *
lk(v) is a cone, so it is acyclic (below), and the long exact sequence
of the pair (c, st v) gives H~_i(c) = H_i(c, st v) for every i.  The
relative cells are the faces G with G | v no face, that is the faces of
del(v) not in lk(v) (``_relative_table``); the empty face lies in the
star, so there is no relative (-1)-cell, and the relative boundary is
the absolute one with the star's faces dropped.  v is the lowest used
vertex.  The [set()] complex has no vertex (nor star) and is ranked on
its own table.

A type complex (n, m, T) (``complexes``: its faces are the sets of a
x's and b y's with (a, b) below some facet type in the antichain T, up
to an order-preserving relabel of the used vertices) is ranked without
a face table.  Put x_1..x_n at bits 0..n-1 and y_1..y_m at n..n+m-1,
swapping the blocks when no type holds an x (then T holds one type),
so that x_1 is the lowest used vertex v, as on the mask path.  Let
reach[i] = max{B : (A, B) in T, A >= i}, or -1 if there is none: the
most y's of a face with i x's, so a set of type (i, j) is a face
exactly when j <= reach[i], and reach never grows with i.  A relative
cell is a face G without x_1 with G | x_1 no face.  If G has type
(i, j), G | x_1 has type (i + 1, j) and G misses x_1 only if i < n, so
the cells are all the sets of x_2..x_n and y_1..y_m of the types
(i, j) with i < n and reach[i+1] < j <= reach[i] (``_type_cells``),
listed by ``kernels.list_types`` over the n - 1 x's x_2..x_n and the m
y's, shifted up one bit.  These are the cells of ``_relative_table``
after the relabel, the same boundary matrices, and they are ranked the
same way.  The order of the cells within a dimension does not matter:
another order permutes the rows and columns of each boundary map,
which changes no rank over Q.

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
relative boundary map by kernels.rank_int: ``_boundary_rows`` reads the
map off a table of cells as one sparse row {(d-1)-cell index: +-1} per
d-cell (``boundary_matrix`` is the absolute map), and kernels.rank_int
pivots on unit entries, shortest row first, dividing a row without one
over Q.  The two ends need no elimination: del_0 is zero, as there is
no relative (-1)-cell (for the [set()] complex there is no 0-cell), and
del_{top+1} is zero.

The ranks of a type complex are cached, keyed by the tuple as given
(``complexes`` normalizes each complex it asks about, a spec's complex
or one of its facet cuts, to its signature first); the cells are never
kept, and only a miss checks the tuple (``_check_type_complex``), which
must be ints and int pairs in tuples, so that it hashes: a list for T
is refused with InvalidInput, as by Reisner's and Duval's checks.  Two
tuples are keyed apart even when their complexes are isomorphic (the
k-skeleton of one simplex read with two block splits): a miss more,
never a wrong rank.  A ``SimplicialComplex`` is ranked from its own
relative table every time.  The exhaustive oracle sweeps stay cheap
because the specs' signatures repeat: a complex and its facet cuts
recur across the specs of a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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


def _type_cells(c) -> dict[int, list[int]]:
    """dim -> the relative cells of a type complex (n, m, T), in increasing order.

    The x-block comes first (the blocks swap when no type holds an x):
    the x-vertices are bits 0..n-1, the y-vertices n..n+m-1, and v is
    x_1, bit 0.  The cells are the sets of the types (i, j) with i < n
    and reach[i+1] < j <= reach[i] (module docstring).  The [set()]
    complex has no vertex: its one cell is the empty face.
    """
    n, m, types = c
    if not any(a for a, _ in types):
        n, m, types = m, n, [(b, a) for a, b in types]
    if not any(a for a, _ in types):
        return {-1: [0]}
    reach = [-1] * (n + 2)  # reach[i]: the most y's of a face with i x's, or -1
    for a, b in types:
        reach[a] = b        # an antichain has one type per x-count
    for i in range(n - 1, -1, -1):
        reach[i] = max(reach[i], reach[i + 1])
    by_dim = {d: [] for d in range(-1, max(a + b for a, b in types))}
    for i in range(n):
        for j in range(reach[i + 1] + 1, reach[i] + 1):
            by_dim[i + j - 1].append((i, j))
    # the sets over x_2..x_n and the y's: (y << (n-1) | x) << 1 = y << n | x << 1
    return {d: [c << 1 for c in kernels.list_types(cell_types, n - 1, m)]
            for d, cell_types in by_dim.items()}


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

    ``c`` is a complex or a type complex (n, m, facet types).
    rank H~_d = rank H_d(c, st v), with v the lowest used vertex; the
    (-1)-st rank is 1 for the [set()] complex and 0 otherwise.  Only
    type complexes are cached.
    """
    if type(c) is not tuple:
        return _ranks(_relative_table(c))
    try:
        ranks = _ranks_cache.get(c)
    except TypeError:   # an unhashable part: no type complex, refused below
        ranks = None
    if ranks is None:
        _check_type_complex(c)
        ranks = _ranks_cache[c] = _ranks(_type_cells(c))
    return dict(ranks)
