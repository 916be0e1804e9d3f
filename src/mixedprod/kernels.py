"""The hot loops of the oracles: minimal hitting sets and exact integer rank.

Bitmasks are Python ints, so the kernels take sets of any width.

Vertex sets over n x-vertices (bits 0..n-1) and m y-vertices (bits
n..n+m-1) have a type (a, b): a x's and b y's.  The types are the orbits
of S_n x S_m, which permutes each block on its own, so a family of
distinct sets is invariant under S_n x S_m exactly when, for each type
it holds, it holds all C(n, a) * C(m, b) sets of that type.  The ideals
the paper studies, and their facet blocks, are such families, and the
sweep's oracles take one set per orbit on them: the prime types
(``transversal_types``), Reisner's and Duval's checks on the type
complex of their complements (``complexes``) and the type checks of
``sweep``.  The
types come from the spec's summands, never from a count of masks, and
``list_types``, the package's one lister, lists the sets of given types
in increasing order: the closed forms' generators, primes and facet
blocks (``products``), the oracles' primes, for the shelling checks,
and the relative cells of a type complex (``homology``).
``minimal_hitting_sets`` is MMCS on any family, the reference.

Minimal transversals of an invariant family F come by type, and
``transversal_types`` is the rule that finds them from the types of F
alone; ``list_types`` lists its answer, and the sweep applies it to a
spec's summand types without listing the generators.  A permutation g
in S_n x S_m maps F to itself, so it maps each minimal transversal T to
one, g(T): the minimal transversals form an invariant family, a union
of whole types, and a type qualifies exactly when its
representative T = {x_1..x_a} u {y_1..y_b} does.  T qualifies when it
hits every set of F and each v in T has a private set, one S in F with
S cap T = {v}; deleting v from T then misses S, and a transversal in
which every vertex has one is minimal.  The stabilizer of T in
S_n x S_m permutes T cap X transitively and fixes F, carrying a private
set of x_1 to one of any other x in T, so x_1 and y_1 are the only
vertices to check.  Both checks read the types of F alone: a set of
type (c, d) meets T in some i x's and j y's for every
max(0, c - (n - a)) <= i <= min(a, c) and max(0, d - (m - b)) <= j <=
min(b, d).  So all of its sets meet T when c > n - a or d > m - b, and
one of them meets T in x_1 alone when 1 <= c <= n - a + 1 and
d <= m - b (mirror for y_1).  For each a only the least b for which T
hits every set can qualify: the representative of (a, b') for b' > b
contains that of (a, b), a transversal, so it is not minimal.  And at
that b, y_1 has a private set whenever b >= 1: T minus y_1 is the
representative of (a, b - 1), which misses some set, and that set meets
T in y_1 alone.  So x_1 is the one vertex left to check.  That least b
changes with a only where a type (c, d) with c >= 1 leaves the sets
with c <= n - a, at a = n - c + 1, so only a = 0 and those x-counts are
tried: within a run of equal b, each later a contains the transversal
at the run's start, so it is not minimal.
"""

import heapq


def bit_indices(mask):
    """The positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _mmcs(sets, occ, uncov, cand, chosen, crit, out):
    # uncov: the sets not yet hit, as a mask over set positions; crit: one
    # mask per chosen vertex of the sets that vertex alone hits.
    if not uncov:
        out.append(chosen)
        return
    best, fewest = 0, cand.bit_count() + 1
    rest = uncov
    while rest:
        low = rest & -rest
        rest ^= low
        avail = sets[low.bit_length() - 1] & cand
        k = avail.bit_count()
        if k < fewest:
            best, fewest = avail, k
            if k <= 1:
                break
    while best:
        v = best & -best
        best ^= v
        cand ^= v   # banned from the later branches, so none finds a transversal twice
        hit = occ[v]
        kept = []
        for c in crit:
            c &= ~hit
            if not c:
                break   # a chosen vertex lost its last critical set
            kept.append(c)
        else:
            kept.append(uncov & hit)
            _mmcs(sets, occ, uncov & ~hit, cand, chosen | v, kept, out)


def minimal_hitting_sets(masks):
    """All minimal transversals of a family of bitmask sets, by MMCS.

    MMCS (Murakami and Uno, 2014) branches on the vertices of an
    uncovered set with the fewest candidates and keeps, per chosen
    vertex, the sets it alone hits.  A branch dies as soon as a chosen
    vertex loses its last such critical set, so every transversal
    reached is minimal and none is reached twice; the family need not be
    an antichain.

    Returns bitmasks in increasing order.  A family containing the
    empty set has no transversal (returns []); the empty family is hit
    by the empty set (returns [0]).
    """
    sets = list(masks)
    if 0 in sets:
        return []
    if not sets:
        return [0]
    occ = {}    # vertex bit -> mask of the positions of the sets holding it
    for i, t in enumerate(sets):
        while t:
            v = t & -t
            t ^= v
            occ[v] = occ.get(v, 0) | 1 << i
    out = []
    _mmcs(sets, occ, (1 << len(sets)) - 1, sum(occ), 0, [], out)
    out.sort()
    return out


def transversal_types(types, n, m):
    """The types of the minimal transversals of the invariant family with types ``types``.

    The family holds every set of a x's and b y's for each (a, b) in
    ``types``, over n x's and m y's; the answer is one (a, b) per
    qualifying x-count a, increasing in a, in O(|types|^2) steps whatever
    n is (module docstring).  The empty family gives [(0, 0)], and a
    family holding the empty set, (0, 0) in ``types``, gives [].
    """
    out = []
    for a in sorted({0} | {n - c + 1 for c, _ in types if 1 <= c <= n}):
        # the one b that can qualify: the least with every set hit
        b = max((m - d + 1 for c, d in types if c <= n - a), default=0)
        if b <= m and (not a or any(0 < c <= n - a + 1 and d <= m - b for c, d in types)):
            out.append((a, b))
    return out


def list_types(types, n, m):
    """Every set of a x's and b y's, for each (a, b) in ``types``, as masks in increasing order."""
    # each y-part shifted once; y-major with x inner, each type is one increasing run
    out = [y | x for a, b in types for xs in [subsets(n, a)]
           for y in [y << n for y in subsets(m, b)] for x in xs]
    out.sort()
    return out


def subsets(k, r):
    """The r-subsets of k bits as masks, in increasing order (Gosper's hack)."""
    if r == 0:
        return [0]
    out = []
    s, end = (1 << r) - 1, 1 << k
    while s < end:
        out.append(s)
        low = s & -s
        ripple = s + low
        s = ripple | ((s ^ ripple) >> 2) // low
    return out


def rank_int(rows):
    """Exact rank of a sparse integer matrix, one ``{column: nonzero entry}`` dict per row.

    A heap keyed on row length, with stale entries skipped when popped,
    yields the shortest row; its pivot column is the unit (+-1) column
    held by the fewest rows, and a column -> rows index names the rows
    to clear.  Subtracting a multiple of a unit pivot row keeps an
    integer matrix integral and its rank unchanged.  A row with no unit
    entry is first divided over Q by one of its entries, which leaves
    the rank exact too, and pivoted on at once.  A row that a pivot
    changes goes back on the heap under its new length.  Boundary
    matrices of simplicial complexes mostly reduce by unit pivots alone;
    torsion, such as the Z/2 of the real projective plane, leaves rows
    to divide.  The input dicts are not modified.
    """
    rows = [dict(r) for r in rows]
    holders = {}    # column -> indices of the live rows holding it
    for i, r in enumerate(rows):
        for j in r:
            holders.setdefault(j, set()).add(i)
    heap = [(len(r), i) for i, r in enumerate(rows) if r]
    heapq.heapify(heap)
    rank = 0
    while heap:
        size, i = heapq.heappop(heap)
        p = rows[i]
        if p is None or len(p) != size:
            continue
        pivot, fewest = None, 0
        for j, v in p.items():
            if (v == 1 or v == -1) and (pivot is None or len(holders[j]) < fewest):
                pivot, fewest = j, len(holders[j])
        if pivot is None:
            from fractions import Fraction  # a top-level import adds ~2.5 ms to every start
            pivot = next(iter(p))
            p = {k: Fraction(v, p[pivot]) for k, v in p.items()}
        rank += 1
        rows[i] = None
        for j in p:
            holders[j].discard(i)
        sign = p[pivot]
        for t in list(holders[pivot]):
            r = rows[t]
            a = r[pivot] * sign     # r[pivot] / p[pivot], as p[pivot] is +-1
            for k, v in p.items():
                w = r.get(k, 0) - a * v
                if w:
                    if k not in r:
                        holders[k].add(t)
                    r[k] = w
                else:
                    del r[k]
                    holders[k].discard(t)
            if r:
                heapq.heappush(heap, (len(r), t))
    return rank
