"""Complex combinatorics: skeleta, links, connectivity, shellings, oracles."""

from functools import reduce
from operator import and_

import pytest

from mixedprod import (
    DomainError,
    InvalidInput,
    VariableUniverse,
    dim,
    duval_scm,
    find_shelling,
    is_pure,
    is_strongly_connected,
    kernels,
    link,
    make_complex,
    reduced_homology_ranks,
    reisner_cm,
    skeleton,
    verify_shelling_order,
)
from mixedprod.complexes import _is_block_symmetric, all_faces
from mixedprod.ideals import vertex_lists
from mixedprod.kernels import bit_indices


def complex_on(n, facets):
    return make_complex(VariableUniverse(n, 0), facets)


EMPTYC = complex_on(2, [set()])
PATH = complex_on(3, [{0, 1}, {1, 2}])
TWO_EDGES = complex_on(4, [{0, 1}, {2, 3}])
MIXED = complex_on(3, [{0, 1}, {2}])


def test_make_complex_canonicalizes():
    c = complex_on(3, [{1, 0}, {0}, {2}, {2}])
    assert c.masks == (0b011, 0b100)


def test_make_complex_validates():
    with pytest.raises(InvalidInput):
        complex_on(2, [{5}])
    with pytest.raises(InvalidInput):
        complex_on(2, [])


def test_dim():
    assert dim(EMPTYC) == -1
    assert dim(MIXED) == 1
    assert dim(complex_on(5, [{0, 1, 2, 3, 4}])) == 4


def test_is_pure():
    assert is_pure(PATH)
    assert not is_pure(MIXED)
    assert is_pure(EMPTYC)


def test_skeleton():
    assert skeleton(PATH, dim(PATH) + 1) == PATH
    assert vertex_lists(skeleton(MIXED, 1).masks) == [[0], [1], [2]]
    assert skeleton(PATH, 0) == complex_on(3, [set()])
    with pytest.raises(InvalidInput):
        skeleton(PATH, 3)


def test_skeleton_idempotent():
    for l in range(0, dim(MIXED) + 2):
        s = skeleton(MIXED, l)
        assert skeleton(s, l) == s


def test_link():
    assert link(PATH, 0) == PATH
    assert vertex_lists(link(PATH, 0b010).masks) == [[0], [2]]
    assert link(PATH, 0b010) is link(PATH, 0b010)     # built once, kept on PATH
    assert PATH.links[0b010] is link(PATH, 0b010)
    full = complex_on(3, [{0, 1, 2}])
    assert vertex_lists(link(full, 0b001).masks) == [[1, 2]]
    with pytest.raises(InvalidInput, match=r"\[0, 2\] is not a face"):
        link(TWO_EDGES, 0b0101)
    # a negative mask, or one with bits past the universe's 4 vertices
    for mask in (-1, -0b100, 0b10000, 1 << 70):
        with pytest.raises(InvalidInput, match=f"face mask {mask} "):
            link(TWO_EDGES, mask)


def test_the_empty_face_s_link_is_the_complex():
    for c in (PATH, TWO_EDGES, MIXED, EMPTYC):
        assert link(c, 0) is c


def test_restricted_tables_match_enumeration():
    # Every link's table is restricted from its complex's: the links of c
    # and of each c_l (the facets of c of size >= l) that Duval's check
    # ranks.  Each must equal, order included, the table enumerated from
    # the same facets.
    import random
    from mixedprod.complexes import SimplicialComplex
    from mixedprod.homology import _faces_by_dim

    def enumerated(c):
        return _faces_by_dim(SimplicialComplex(c.universe, c.masks))

    rng = random.Random(47)
    kinds = {True: 0, False: 0}     # pure or not
    proper = 0      # links of a c_l other than c
    while min(kinds.values()) < 40:
        n = rng.randint(2, 7)
        u = VariableUniverse(n, rng.randint(0, 7 - n))
        pure = rng.random() < 0.5
        k = rng.randint(1, u.size)
        facets = [rng.sample(range(u.size), k if pure else rng.randint(1, u.size))
                  for _ in range(rng.randint(1, 6))]
        c = make_complex(u, facets)
        if kinds[is_pure(c)] >= 40:
            continue
        kinds[is_pure(c)] += 1
        sizes = sorted({g.bit_count() for g in c.masks})
        cuts = [SimplicialComplex(u, tuple(g for g in c.masks if g.bit_count() >= size))
                for size in sizes[1:]]
        for c_l in [c, *cuts]:
            for f in all_faces(c_l):
                lk = link(c_l, f)
                if f:
                    assert lk.source == (c_l, f)
                assert lk.face_table == enumerated(lk)
                proper += c_l is not c
    assert proper >= 300


def test_duval_after_reisner_enumerates_one_table_per_cut(monkeypatch):
    # Reisner's check enumerates c's table; Duval's check after it
    # enumerates only the tables of the c_l other than c, one per facet
    # size above the least, and restricts every link's table from those.
    from mixedprod import complexes, expand_generators, homology, stanley_reisner_complex
    from mixedprod.sweep import enumerate_specs
    cache = {}
    monkeypatch.setattr(homology, "_ranks_cache", cache)
    built = []
    faces = complexes._faces_by_dim
    monkeypatch.setattr(complexes, "_faces_by_dim", lambda c: built.append(c) or faces(c))
    checked = 0
    for spec in enumerate_specs(5, 5, 6):
        c = stanley_reisner_complex(expand_generators(spec))
        if is_pure(c):
            continue
        cache.clear()
        reisner_cm(c)
        built.clear()
        duval_scm(c)
        cuts = [b for b in built if b.source is None]
        assert len(cuts) <= len({g.bit_count() for g in c.masks}) - 1
        assert all(any(b.source[0] is k for k in [c, *cuts]) for b in built if b.source)
        checked += 1
    assert checked == 2284


def test_strong_connectivity():
    assert not is_strongly_connected(TWO_EDGES)
    assert is_strongly_connected(PATH)
    assert is_strongly_connected(EMPTYC)
    with pytest.raises(DomainError):
        is_strongly_connected(MIXED)


def strongly_connected_reference(masks):
    """The ridge graph searched pair by pair: facets meeting in all but one vertex."""
    size = masks[0].bit_count()
    seen, stack = {0}, [0]
    while stack:
        i = stack.pop()
        for j, g in enumerate(masks):
            if j not in seen and (masks[i] & g).bit_count() == size - 1:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(masks)


def test_strong_connectivity_matches_the_pairwise_definition():
    import random
    rng = random.Random(43)
    found = {"one facet": 0, "points": 0, True: 0, False: 0}
    for _ in range(600):
        n = rng.randint(1, 8)
        k = rng.randint(1, min(n, 4))
        c = complex_on(n, [rng.sample(range(n), k) for _ in range(rng.randint(1, 10))])
        expected = strongly_connected_reference(c.masks)
        assert is_strongly_connected(c) == expected
        key = "one facet" if len(c.masks) == 1 else "points" if k == 1 else expected
        found[key] += 1
    assert min(found.values()) >= 20


def test_verify_shelling_single_facet():
    c = complex_on(2, [{0, 1}])
    assert verify_shelling_order(c, [0b11]) == (True, None)


def test_verify_shelling_disjoint_edges_fail():
    f1, f2 = TWO_EDGES.masks
    assert verify_shelling_order(TWO_EDGES, [f1, f2])[0] is False
    assert verify_shelling_order(TWO_EDGES, [f2, f1])[0] is False


def test_verify_shelling_not_permutation():
    with pytest.raises(InvalidInput):
        verify_shelling_order(PATH, [PATH.masks[0], PATH.masks[0]])


@pytest.mark.parametrize("order", [
    [-1, 0b110],                    # a negative int is no facet mask
    [0b011, 0b110, 0b100000],       # a set that is no facet
    [0b011],                        # a facet left out
])
def test_verify_shelling_rejects_what_is_no_facet_order(order):
    assert PATH.masks == (0b011, 0b110)
    with pytest.raises(InvalidInput):
        verify_shelling_order(PATH, order)


def test_find_shelling_path():
    # the search returns facet masks, the form the checker takes
    res = find_shelling(PATH)
    assert res.status == "shellable" and res.order == (0b011, 0b110)
    assert verify_shelling_order(PATH, res.order) == (True, None)
    assert find_shelling(complex_on(3, [{0, 2}])).order == (0b101,)


def test_find_shelling_disjoint_edges():
    assert find_shelling(TWO_EDGES).status == "not_shellable"


def test_find_shelling_inconclusive_over_cap():
    assert find_shelling(PATH, cap=1).status == "inconclusive"


def test_reisner_full_simplex():
    ok, witness = reisner_cm(complex_on(4, [{0, 1, 2, 3}]))
    assert ok and witness is None


def test_reisner_two_vertices():
    assert reisner_cm(complex_on(2, [{0}, {1}]))[0] is True


def test_reisner_disjoint_edges():
    ok, witness = reisner_cm(TWO_EDGES)
    assert not ok
    assert witness == ([], 0)


def test_reisner_empty_complex():
    assert reisner_cm(EMPTYC)[0] is True


def test_duval_cm_complex():
    assert duval_scm(PATH) == (True, None)


def test_duval_star_graph():
    star = make_complex(VariableUniverse(1, 3), [{0}, {1, 2, 3}])
    assert duval_scm(star)[0] is True


def test_duval_disjoint_edges():
    ok, witness = duval_scm(TWO_EDGES)
    assert not ok
    assert witness[0] == 2  # the 1-skeleton is the disconnected complex itself


def test_find_shelling_verified_by_checker():
    import random
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randint(2, 5)
        facets = [frozenset(rng.sample(range(n), rng.randint(1, n)))
                  for _ in range(rng.randint(1, 5))]
        c = complex_on(n, facets)
        res = find_shelling(c)
        if res.status == "shellable":
            assert verify_shelling_order(c, list(res.order)) == (True, None)


def shelling_reference(order):
    """The shelling condition from its definition, on facets as vertex sets.

    F_j may follow F_1 ... F_{j-1} iff <F_j> cap <F_1, ..., F_{j-1}> is
    pure of dimension |F_j| - 2, that is iff every F_i & F_j lies in a
    ridge F_j - {v} contained in an earlier facet.  Returns (True, None)
    or (False, (i, j)): the first failing j, and the first i whose
    intersection with F_j lies in no such ridge.
    """
    for j in range(1, len(order)):
        f = order[j]
        ridges = [f - {v} for v in f if any(f - {v} <= g for g in order[:j])]
        for i in range(j):
            if not any(order[i] & f <= r for r in ridges):
                return False, (i, j)
    return True, None


def vertex_sets(masks):
    """The sets of ``masks`` as frozensets, the form ``shelling_reference`` reads."""
    return [frozenset(bit_indices(f)) for f in masks]


def random_non_pure_antichains(seed, count, max_facets):
    """Seeded random non-pure complexes on at most 8 vertices."""
    import random
    rng = random.Random(seed)
    made = 0
    while made < count:
        n = rng.randint(3, 8)
        facets = [rng.sample(range(n), rng.randint(1, min(n, 5)))
                  for _ in range(rng.randint(2, max_facets))]
        c = complex_on(n, facets)
        if not is_pure(c):
            made += 1
            yield rng, c


def test_position_bitsets_match_the_shelling_definition():
    outcomes = {True: 0, False: 0}
    for rng, c in random_non_pure_antichains(31, 400, 12):
        facets = vertex_sets(sorted(c.masks, key=bit_indices))
        assert len(facets) <= 12
        orders = [facets]
        for _ in range(3):
            orders.append(rng.sample(facets, len(facets)))
        found = find_shelling(c)
        if found.status == "shellable":
            orders.append(vertex_sets(found.order))
        for order in orders:
            expected = shelling_reference(order)
            masks = list(map(c.universe.mask_of, order))
            assert verify_shelling_order(c, masks) == expected, (c, order)
            outcomes[expected[0]] += 1
    assert outcomes[True] >= 100 and outcomes[False] >= 1000


def test_find_shelling_matches_a_search_over_all_orders():
    from itertools import permutations
    statuses = {"shellable": 0, "not_shellable": 0}
    for _, c in random_non_pure_antichains(37, 150, 6):
        shellable = any(shelling_reference(p)[0] for p in permutations(vertex_sets(c.masks)))
        found = find_shelling(c)
        assert found.status == ("shellable" if shellable else "not_shellable"), c
        if shellable:
            assert shelling_reference(vertex_sets(found.order)) == (True, None)
        statuses[found.status] += 1
    assert min(statuses.values()) >= 20


def test_shellable_pure_implies_reisner_cm():
    import random
    rng = random.Random(23)
    checked = 0
    for _ in range(40):
        n = rng.randint(2, 5)
        k = rng.randint(1, n)
        facets = {frozenset(rng.sample(range(n), k)) for _ in range(rng.randint(1, 6))}
        c = complex_on(n, facets)
        res = find_shelling(c)
        if res.status == "shellable":
            assert reisner_cm(c)[0] is True
            checked += 1
    assert checked > 5


def test_link_dimension_identity():
    full = complex_on(4, [{0, 1, 2, 3}])
    for f in ({0}, {0, 1}, {0, 1, 2}):
        assert dim(link(full, full.universe.mask_of(f))) == dim(full) - len(f)


def reisner_reference(c):
    """Reisner's criterion on every face in canonical order, without orbit reduction."""
    for f in all_faces(c):
        lk = link(c, f)
        d = dim(lk)
        if d <= 0:
            continue
        ranks = reduced_homology_ranks(lk)
        for i in range(-1, d):
            if ranks.get(i, 0):
                return False, (list(bit_indices(f)), i)
    return True, None


def duval_reference(c):
    for l in range(0, dim(c) + 2):
        ok, witness = reisner_reference(skeleton(c, l))
        if not ok:
            return False, (l, witness)
    return True, None


def generator_map_symmetric(masks, n, m):
    """S_n x S_m invariance on the group generators: the reference of ``kernels.whole_types``.

    Each symmetric group is generated by the transposition of its
    block's first two vertices and the cycle i -> i+1 through the block.
    """
    family = set(masks)
    for offset, size in ((0, n), (n, m)):
        if size < 2:
            continue
        block = ((1 << size) - 1) << offset
        pair = 3 << offset
        for f in family:
            swapped = f ^ pair if (f & pair) not in (0, pair) else f
            inside = f & block
            cycled = f & ~block | ((inside << 1) | (inside >> (size - 1))) & block
            if swapped not in family or cycled not in family:
                return False
    return True


def test_block_symmetry_needs_both_generators():
    u = VariableUniverse(4, 0)
    cases = [(u, [{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}], True),
             (u, [{0, 1}, {2}, {3}], False),                    # (0 1) only
             (u, [{0, 1}, {1, 2}, {2, 3}, {0, 3}], False),      # cycle only
             (VariableUniverse(1, 1), [{0}, {1}], True)]
    for universe, facets, symmetric in cases:
        c = make_complex(universe, facets)
        assert _is_block_symmetric(c) == symmetric
        assert generator_map_symmetric(c.masks, universe.n, universe.m) == symmetric


def test_the_type_count_is_the_generator_map_check():
    # _is_block_symmetric reads kernels.whole_types; on antichains of whole
    # types, with a set dropped or added or not, both tests agree
    from itertools import combinations
    import random
    rng = random.Random(47)
    seen = {True: 0, False: 0}
    for _ in range(400):
        n, m = rng.randint(0, 4), rng.randint(0, 3)
        if n + m == 0:
            continue
        u = VariableUniverse(n, m)
        types = [(a, b) for a in range(n + 1) for b in range(m + 1)]
        chosen = rng.sample(types, rng.randint(1, min(3, len(types))))
        chosen = [s for s in chosen if not any(s != t and s[0] <= t[0] and s[1] <= t[1]
                                               for t in chosen)]
        facets = {frozenset(xs) | frozenset(ys) for a, b in chosen
                  for xs in combinations(range(n), a) for ys in combinations(range(n, n + m), b)}
        change = rng.random()
        if change < 0.4:
            facets.discard(rng.choice(sorted(facets, key=sorted)))
        elif change < 0.8:
            facets.add(frozenset(rng.sample(range(u.size), rng.randint(1, u.size))))
        c = make_complex(u, facets or [set()])
        symmetric = generator_map_symmetric(c.masks, n, m)
        assert _is_block_symmetric(c) == symmetric
        assert (kernels.whole_types(c.masks, n, m) is not None) == symmetric
        seen[symmetric] += 1
    assert seen[True] > 100 and seen[False] > 60


def test_orbit_reduction_falls_back_on_asymmetric_complexes():
    import random
    rng = random.Random(41)
    checked = failing = 0
    for _ in range(60):
        u = VariableUniverse(rng.randint(1, 3), rng.randint(1, 3))
        facets = [rng.sample(range(u.size), rng.randint(1, min(3, u.size)))
                  for _ in range(rng.randint(2, 6))]
        c = make_complex(u, facets)
        if _is_block_symmetric(c):
            continue
        checked += 1
        expected = reisner_reference(c)
        assert reisner_cm(c) == expected
        assert duval_scm(c) == duval_reference(c)
        failing += not expected[0]
    assert checked > 30 and failing > 10


def test_orbit_reduction_on_stanley_reisner_complexes():
    from mixedprod import expand_generators, stanley_reisner_complex
    from mixedprod.sweep import enumerate_specs
    failing = 0
    for spec in enumerate_specs(3, 3, 3):
        c = stanley_reisner_complex(expand_generators(spec))
        assert _is_block_symmetric(c)
        expected = reisner_reference(c)
        assert reisner_cm(c) == expected
        assert duval_scm(c) == duval_reference(c)
        failing += not expected[0]
    assert failing > 10


def test_one_block_symmetry_checks_every_face(monkeypatch):
    from mixedprod import complexes
    c = make_complex(VariableUniverse(3, 2), [{0, 1, 2, 3}])   # y2 is absent
    assert not _is_block_symmetric(c)
    seen = []
    real = complexes.link
    monkeypatch.setattr(complexes, "link", lambda cx, f: seen.append(f) or real(cx, f))
    assert reisner_cm(c) == (True, None)
    assert seen == all_faces(c) and len(seen) == 16
    seen.clear()
    full = make_complex(VariableUniverse(3, 2), [{0, 1, 2, 3, 4}])
    assert reisner_cm(full) == (True, None)
    assert len(seen) == 12      # one face per (x-count, y-count) class


def test_one_symmetry_check_per_complex(monkeypatch):
    # Reisner's and Duval's checks read one face list off the complex, so
    # a full check tests the Stanley-Reisner complex for S_n x S_m
    # invariance once
    from mixedprod import complexes, expand_generators, normalize, stanley_reisner_complex
    from mixedprod.sweep import check_spec
    spec = normalize(VariableUniverse(3, 3), [(1, 2), (2, 1)])
    c = stanley_reisner_complex(expand_generators(spec))
    assert _is_block_symmetric(c)
    calls = []
    types = complexes.whole_types
    monkeypatch.setattr(complexes, "whole_types", lambda *a: calls.append(a) or types(*a))
    record = check_spec(spec, "full")
    assert {"cm_reisner", "scm_duval"} <= record["oracle"].keys()
    assert record["mismatches"] == []
    assert calls == [(c.masks, 3, 3)]


def test_orbit_reduction_on_every_invariant_complex():
    # An S_n x S_m invariant facet set is the union of the sets of each
    # (x-count, y-count) type in an antichain of types.
    from itertools import combinations
    checked = 0
    for n in range(1, 4):
        for m in range(1, 4):
            u = VariableUniverse(n, m)
            types = [(a, b) for a in range(n + 1) for b in range(m + 1)]
            for k in range(1, 5):
                for chosen in combinations(types, k):
                    if any(s != t and s[0] <= t[0] and s[1] <= t[1]
                           for s in chosen for t in chosen):
                        continue
                    c = make_complex(u, [set(xs) | set(ys) for a, b in chosen
                                         for xs in combinations(range(n), a)
                                         for ys in combinations(range(n, n + m), b)])
                    assert _is_block_symmetric(c)
                    assert reisner_cm(c) == reisner_reference(c)
                    assert duval_scm(c) == duval_reference(c)
                    checked += 1
    assert checked == 207


def _has_a_size_gap(c):
    sizes = sorted({f.bit_count() for f in c.masks})
    return any(b - a > 1 for a, b in zip(sizes, sizes[1:]))


def test_duval_on_non_pure_complexes_with_size_gaps():
    # Facet sizes with gaps keep one c_l (the facets of size >= l) over
    # several skeleton levels, so each of its links serves several j.
    import random
    from itertools import combinations
    rng = random.Random(43)
    checked = {True: 0, False: 0}     # by block symmetry
    failing = {True: 0, False: 0}
    for _ in range(600):
        n = rng.randint(1, 5)
        u = VariableUniverse(n, rng.randint(max(1, 5 - n), 7 - n))
        sizes = rng.choice([(5, 2, 1), (5, 3, 1), (4, 2, 1), (4, 2), (4, 1), (3, 1), (6, 3, 1)])
        symmetric = rng.random() < 0.5
        chosen = []     # (x-count, y-count) classes, or facets; larger ones first
        for k in sizes:
            if symmetric:
                options = [(a, k - a) for a in range(k + 1) if a <= n and k - a <= u.m]
            else:
                options = [frozenset(rng.sample(range(u.size), k)) for _ in range(3) if k <= u.size]
            # keep what no larger choice contains, so that the size gap survives
            options = [t for t in options if not any(
                (t[0] <= g[0] and t[1] <= g[1]) if symmetric else t <= g for g in chosen)]
            chosen += rng.sample(options, min(len(options), 1 if symmetric else 2 if not chosen else 3))
        if symmetric:
            # whole classes, so the facet set is S_n x S_m invariant
            facets = [set(xs) | set(ys) for a, b in chosen
                      for xs in combinations(range(n), a)
                      for ys in combinations(range(n, u.size), b)]
        else:
            facets = chosen
        c = make_complex(u, facets)
        if not _has_a_size_gap(c):
            continue
        expected = duval_reference(c)
        assert duval_scm(c) == expected
        symmetric = _is_block_symmetric(c)
        checked[symmetric] += 1
        failing[symmetric] += not expected[0]
    assert checked[True] >= 100 and checked[False] >= 100
    assert failing[True] >= 5 and failing[False] >= 30


def test_duval_after_reisner_reuses_every_link(monkeypatch):
    # Reisner's check builds c's table at the empty face, whose link is c,
    # and restricts every link's table from it.  A CM complex is pure, so
    # each c_l is c and every link Duval's check asks is one that Reisner's
    # check has ranked: Duval's check builds no table and eliminates nothing.
    # A cone is answered without a table, so a cone whose links are all
    # cones has its table built by neither check.  The links live on c,
    # rank keys included, so Duval's check keys no complex either.
    from mixedprod import complexes, expand_generators, homology, kernels, stanley_reisner_complex
    from mixedprod.products import is_cm_closed_form
    from mixedprod.sweep import enumerate_specs
    cache = {}
    monkeypatch.setattr(homology, "_ranks_cache", cache)
    built, eliminated = [], []
    faces = complexes._faces_by_dim
    monkeypatch.setattr(complexes, "_faces_by_dim", lambda c: built.append(c) or faces(c))
    rank_int = kernels.rank_int
    monkeypatch.setattr(kernels, "rank_int", lambda rows: eliminated.append(1) or rank_int(rows))
    keyed = []
    key = complexes._canonical_key
    monkeypatch.setattr(complexes, "_canonical_key", lambda masks: keyed.append(1) or key(masks))
    counts = {"checked": 0, "cones": 0, "enumerated": 0, "restricted": 0}
    for spec in enumerate_specs(5, 5, 6):
        if not is_cm_closed_form(spec).holds:
            continue
        cache.clear()
        c = stanley_reisner_complex(expand_generators(spec))
        cone = reduce(and_, c.masks) != 0
        built.clear()
        assert reisner_cm(c) == (True, None)
        enumerated = [b for b in built if b.source is None]
        assert all(b is c for b in enumerated) and len(enumerated) <= 1
        assert all(b.source[0] is c for b in built if b.source is not None)
        if dim(c) >= 1 and not cone:
            assert built[0] is c    # through the empty face, before any link
        counts["cones"] += cone
        counts["enumerated"] += len(enumerated)
        counts["restricted"] += len(built) - len(enumerated)
        built.clear()
        eliminated.clear()
        keyed.clear()
        assert duval_scm(c) == (True, None)
        assert built == []
        assert eliminated == []
        assert keyed == []
        counts["checked"] += 1
    assert counts == {"checked": 746, "cones": 150, "enumerated": 566, "restricted": 2123}


def test_duval_reads_skeleton_faces_off_the_face_table(monkeypatch):
    # Duval's check ranks links of c and of its facet cuts c_l, never a skeleton complex
    from mixedprod import complexes

    def no_skeleton(c, l):
        raise AssertionError("duval_scm built a skeleton")

    monkeypatch.setattr(complexes, "skeleton", no_skeleton)
    star = complex_on(4, [{0, 1, 2}, {3}])
    assert duval_scm(star) == (True, None)
    assert duval_scm(TWO_EDGES)[0] is False
