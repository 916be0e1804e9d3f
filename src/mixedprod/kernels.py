"""The hot loops of the oracles: minimal hitting sets, GF(2) rank and exact integer rank.

Bitmasks are Python ints, so the kernels take sets of any width.
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


def minimal_hitting_sets(masks, nbits):
    """All minimal transversals of a family of bitmask sets.

    MMCS (Murakami and Uno, 2014): branch on the vertices of an uncovered
    set with the fewest candidates and keep, per chosen vertex, the sets
    it alone hits.  A branch dies as soon as a chosen vertex loses its
    last such critical set, so every transversal reached is minimal and
    none is reached twice; the family need not be an antichain.

    Returns bitmasks in increasing order.  A family
    containing the empty set has no transversal (returns []); the empty
    family is hit by the empty set (returns [0]).
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
    union = sum(occ)
    out = []
    _mmcs(sets, occ, (1 << len(sets)) - 1, union, 0, [], out)
    out.sort()
    return out


def rank_f2(vectors):
    """Rank over GF(2) of bitmask vectors, by an XOR basis keyed on the top bit."""
    basis = {}
    for v in vectors:
        while v:
            top = v.bit_length()
            b = basis.get(top)
            if b is None:
                basis[top] = v
                break
            v ^= b
    return len(basis)


def rank_int(rows):
    """Exact rank of a sparse integer matrix, one ``{column: nonzero entry}`` dict per row.

    Entries +-1 are pivoted on first: subtracting an integer multiple of
    a unit pivot row keeps the matrix integral and its rank unchanged.
    A heap keyed on row length, with stale entries skipped when popped,
    yields the shortest row holding a unit entry; its pivot column is
    the unit column held by the fewest rows, and a column -> rows index
    names the rows to clear.  A row that a pivot changes goes back on the
    heap under its new length; a row without a unit entry waits until a
    pivot changes it.  Boundary matrices of simplicial complexes mostly
    reduce to nothing this way; rows left without a unit entry are ranked
    by fraction-free (Bareiss) elimination.  The input dicts are not
    modified.
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
            continue
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
    rest = [r for r in rows if r]
    if not rest:
        return rank
    cols = sorted(set().union(*rest))
    return rank + _rank_bareiss([[r.get(c, 0) for c in cols] for r in rest])


def _rank_bareiss(rows):
    """Exact rank of an integer matrix via fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    prev = 1
    pr = 0
    for pc in range(nc):
        piv = -1
        for r in range(pr, nr):
            if m[r][pc]:
                piv = r
                break
        if piv < 0:
            continue
        if piv != pr:
            m[pr], m[piv] = m[piv], m[pr]
        pivval = m[pr][pc]
        for r in range(pr + 1, nr):
            mr = m[r]
            mp = m[pr]
            frv = mr[pc]
            for c in range(pc + 1, nc):
                mr[c] = (mr[c] * pivval - frv * mp[c]) // prev
            mr[pc] = 0
        prev = pivval
        pr += 1
        rank += 1
        if pr == nr:
            break
    return rank
