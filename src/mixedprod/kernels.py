"""The hot loops of the oracles: minimal hitting sets, GF(2) rank and exact integer rank.

Bitmasks are Python ints, so the kernels take sets of any width.
"""


def bit_indices(mask):
    """The positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _search(sets, chosen, banned, out):
    # Branch on the elements of a smallest uncovered set; the running
    # "banned" mask avoids enumerating the same transversal twice.
    if not sets:
        out.append(chosen)
        return
    best = min(sets, key=lambda t: t.bit_count())
    avail = best & ~banned
    b = banned
    while avail:
        v = avail & -avail
        avail ^= v
        _search([t for t in sets if not (t & v)], chosen | v, b, out)
        b |= v


def minimal_hitting_sets(masks, nbits):
    """All minimal transversals of a family of bitmask sets.

    Returns bitmasks sorted by their sorted index tuple.  A family
    containing the empty set has no transversal (returns []); the empty
    family is hit by the empty set (returns [0]).
    """
    sets = list(masks)
    if any(t == 0 for t in sets):
        return []
    if not sets:
        return [0]
    cand = []
    _search(sets, 0, 0, cand)
    cand.sort(key=lambda c: c.bit_count())
    minimal = []
    for c in cand:
        if not any(k & c == k for k in minimal):
            minimal.append(c)
    minimal.sort(key=bit_indices)
    return minimal


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


def _unit_pivot(rows):
    """(row index, column) of a +-1 entry in a shortest row holding one, or None."""
    best = None
    for i, r in enumerate(rows):
        if best is None or len(r) < len(rows[best[0]]):
            for j, v in r.items():
                if v == 1 or v == -1:
                    best = (i, j)
                    break
    return best


def rank_int(rows):
    """Exact rank of an integer matrix.

    Entries +-1 are pivoted on first, in sparse rows: subtracting an
    integer multiple of a unit pivot row keeps the matrix integral and
    its rank unchanged.  Boundary matrices of simplicial complexes mostly
    reduce to nothing this way; rows left without a unit entry are
    ranked by fraction-free (Bareiss) elimination.
    """
    sparse = [{j: v for j, v in enumerate(r) if v} for r in rows]
    rank = 0
    while (pivot := _unit_pivot(sparse)) is not None:
        i, j = pivot
        p = sparse.pop(i)
        rank += 1
        for r in sparse:
            a = r.get(j)
            if a:
                a *= p[j]   # a / p[j], as p[j] is +-1
                for k, v in p.items():
                    w = r.get(k, 0) - a * v
                    if w:
                        r[k] = w
                    else:
                        del r[k]
    rest = [r for r in sparse if r]
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
