"""The two hot loops of the oracles: minimal hitting sets and exact integer rank.

Bitmasks are Python ints, so the kernels take sets of any width.
"""


def _bit_tuple(mask):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
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
    minimal.sort(key=_bit_tuple)
    return minimal


def rank_int(rows):
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
