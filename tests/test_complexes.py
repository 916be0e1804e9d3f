"""Complex combinatorics: skeleta, links, connectivity, shellings, oracles."""

from itertools import combinations

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
from mixedprod.complexes import all_faces
from mixedprod.ideals import vertex_lists
from mixedprod.kernels import bit_indices


def complex_on(n, facets):
    return make_complex(VariableUniverse(n, 0), facets)


def type_complex(u, types):
    """The type complex (n, m, T) of the antichain ``types`` over u, as the sweep hands it to
    Reisner's and Duval's checks: the type path."""
    return u.n, u.m, tuple(types)


def mask_complex(u, types):
    """The complex of every set of each type (a, b) in ``types``, listed from the definition:
    the mask path, the reference of the type path."""
    return make_complex(u, [set(xs) | set(ys) for a, b in types
                            for xs in combinations(range(u.n), a)
                            for ys in combinations(range(u.n, u.size), b)])


def refuse_elimination(monkeypatch):
    """Make every listing by type and every elimination raise: the type path needs neither.

    ``homology._ranks`` ranks a table of cells, ``kernels.rank_int`` a
    boundary map and ``kernels.list_types`` lists sets by type; a type
    complex is ranked by the hook formula alone.
    """
    from mixedprod import homology

    def refuse(*args):
        raise AssertionError("a cell listed or a map eliminated on the type path")

    for module, name in ((homology, "_ranks"), (kernels, "rank_int"), (kernels, "list_types")):
        monkeypatch.setattr(module, name, refuse)


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


def facet_types(masks, n, m):
    """The types (a, b) of distinct masks over n x's and m y's, if they hold every set of each.

    Otherwise, that is if the family is not S_n x S_m invariant or a
    mask has a bit past the n + m vertices, None.
    """
    types = sorted({((g & (1 << n) - 1).bit_count(), (g >> n).bit_count()) for g in masks})
    return types if kernels.list_types(types, n, m) == sorted(masks) else None


def generator_map_symmetric(masks, n, m):
    """S_n x S_m invariance on the group generators: the reference of ``facet_types``.

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
        assert (facet_types(c.masks, universe.n, universe.m) is not None) == symmetric
        assert generator_map_symmetric(c.masks, universe.n, universe.m) == symmetric
    # a bit past the n + m vertices: {x_1} and {bit 2} hold no type of 1 + 1 vertices
    assert facet_types([0b001, 0b100], 1, 1) is None


def test_the_type_count_is_the_generator_map_check():
    # the test-side type reader, facet_types: on antichains of whole
    # types, with a set dropped or added or not, it agrees with the
    # generator map check
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
        assert (facet_types(c.masks, n, m) is not None) == symmetric
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
        if generator_map_symmetric(c.masks, u.n, u.m):
            continue
        checked += 1
        expected = reisner_reference(c)
        assert reisner_cm(c) == expected
        assert duval_scm(c) == duval_reference(c)
        failing += not expected[0]
    assert checked > 30 and failing > 10


def test_orbit_reduction_on_stanley_reisner_complexes():
    # the Stanley-Reisner complex, checked on the complemented prime types
    # as the sweep hands them, against the complex of the listed primes
    from mixedprod import expand_generators, stanley_reisner_complex
    from mixedprod.ideals import complex_of_primes
    from mixedprod.sweep import enumerate_specs
    failing = 0
    for spec in enumerate_specs(3, 3, 3):
        u = spec.universe
        types = kernels.transversal_types(spec.summands, u.n, u.m)
        c = complex_of_primes(u, kernels.list_types(types, u.n, u.m))
        assert c == stanley_reisner_complex(expand_generators(spec))
        facets = (u.n, u.m, tuple((u.n - a, u.m - b) for a, b in reversed(types)))
        assert list(facets[2]) == facet_types(c.masks, u.n, u.m)
        expected = reisner_reference(c)
        assert reisner_cm(facets) == expected
        assert duval_scm(facets) == duval_reference(c)
        failing += not expected[0]
    assert failing > 10


def test_one_block_symmetry_checks_every_face(monkeypatch, cold_caches):
    # A complex has every face linked.  A type complex is checked at its
    # empty face alone: a cold check ranks its one signature by the hook
    # formula, one cache entry, and builds no mask link, lists no cell
    # and eliminates no map; a warm check ranks nothing.
    from mixedprod import complexes, homology
    c = make_complex(VariableUniverse(3, 2), [{0, 1, 2, 3}])   # y2 is absent
    seen, ranked = [], []
    real, real_hook_ranks = complexes.link, homology._hook_ranks
    monkeypatch.setattr(complexes, "link", lambda cx, f: seen.append(f) or real(cx, f))
    monkeypatch.setattr(homology, "_hook_ranks",
                        lambda sig: ranked.append(sig) or real_hook_ranks(sig))
    assert reisner_cm(c) == (True, None)
    assert seen == all_faces(c) and len(seen) == 16 and ranked == []
    seen.clear()
    full = type_complex(VariableUniverse(3, 2), [(3, 2)])
    assert mask_complex(VariableUniverse(3, 2), [(3, 2)]).masks == (0b11111,)
    refuse_elimination(monkeypatch)
    assert reisner_cm(full) == (True, None)
    assert seen == [] and ranked == [full] and list(homology._ranks_cache) == [full]
    ranked.clear()
    assert reisner_cm(full) == (True, None) and ranked == []     # warm: one lookup


def test_one_symmetry_check_per_complex(monkeypatch, cold_caches):
    # No facet set is tested for S_n x S_m invariance: Reisner's and
    # Duval's checks at full get the type complex (n, m, facet types), the
    # complemented prime types.  The spec is neither sequentially CM nor
    # CM, so no prime is listed and no complex is built; and the type
    # complex is ranked by the hook formula, so nothing is listed by type
    # and no map is eliminated.  The rank cache holds one entry per
    # signature asked: the complex (Reisner's, and Duval's level 2) and
    # its facet cut at level 3.
    from mixedprod import complexes, expand_generators, homology, ideals, normalize
    from mixedprod import stanley_reisner_complex
    from mixedprod.sweep import check_spec
    spec = normalize(VariableUniverse(3, 3), [(1, 2), (2, 1)])
    c = stanley_reisner_complex(expand_generators(spec))
    held, handed = facet_types(c.masks, 3, 3), []

    def refuse(*args):
        raise AssertionError("a complex built for the full checks")

    monkeypatch.setattr(ideals, "complex_of_primes", refuse)
    refuse_elimination(monkeypatch)
    for name in ("reisner_cm", "duval_scm"):
        monkeypatch.setattr(complexes, name, lambda c, check=getattr(complexes, name):
                            handed.append(c) or check(c))
    record = check_spec(spec, "full")
    assert {"cm_reisner", "scm_duval"} <= record["oracle"].keys()
    assert "shelling_order" not in record["oracle"] and not record["verdicts"]["cohen_macaulay"]
    assert record["mismatches"] == []
    assert handed == [(3, 3, ((0, 3), (1, 1), (3, 0)))] * 2
    assert list(homology._ranks_cache) == [(3, 3, ((0, 3), (1, 1), (3, 0))),
                                           (3, 3, ((0, 3), (3, 0)))]
    # the facet types handed on are the ones the Stanley-Reisner complex holds
    assert list(handed[0][2]) == held


def test_orbit_reduction_on_every_invariant_complex():
    # An S_n x S_m invariant facet set is the union of the sets of each
    # (x-count, y-count) type in an antichain of types.
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
                    c, masks = type_complex(u, chosen), mask_complex(u, chosen)
                    assert reisner_cm(c) == reisner_reference(masks)
                    assert duval_scm(c) == duval_reference(masks)
                    checked += 1
    assert checked == 207


def type_antichains(max_n, max_m):
    """(universe, facet types) for every antichain of types with n <= max_n, m <= max_m."""
    for n in range(max_n + 1):
        for m in range(0 if n else 1, max_m + 1):
            u = VariableUniverse(n, m)
            types = [(a, b) for a in range(n + 1) for b in range(m + 1)]
            for k in range(1, min(n, m) + 2):     # an antichain has at most min(n, m) + 1 types
                for chosen in combinations(types, k):
                    if any(s != t and s[0] <= t[0] and s[1] <= t[1]
                           for s in chosen for t in chosen):
                        continue
                    yield u, chosen


def test_the_type_path_matches_the_mask_path(cold_caches):
    # Every type complex (n, m, T) with n, m <= 4, as given, an unused
    # block included: its ranks and Reisner's and Duval's verdicts and
    # witnesses, type path against mask path.  The mask path ranks the
    # complex from its own relative table, without the rank cache the
    # type path fills.
    counts = {"checked": 0, "not_cm": 0, "not_scm": 0, "homology": 0, "unused_block": 0}
    for u, chosen in type_antichains(4, 4):
        c, reference = type_complex(u, chosen), mask_complex(u, chosen)
        ranks = reduced_homology_ranks(c)
        assert ranks == reduced_homology_ranks(reference)
        assert set(ranks) == set(range(-1, dim(reference) + 1))
        cm, scm = reisner_cm(c), duval_scm(c)
        assert cm == reisner_cm(reference)
        assert scm == duval_scm(reference)
        counts["checked"] += 1
        counts["not_cm"] += not cm[0]
        counts["not_scm"] += not scm[0]
        counts["homology"] += any(ranks.values())
        counts["unused_block"] += (u.n and not any(a for a, _ in chosen)
                                   or u.m and not any(b for _, b in chosen))
    empty = type_complex(VariableUniverse(2, 2), [(0, 0)])
    assert mask_complex(VariableUniverse(2, 2), [(0, 0)]).masks == (0,)
    for c in (empty, mask_complex(VariableUniverse(2, 2), [(0, 0)])):
        assert reduced_homology_ranks(c) == {-1: 1}
        assert reisner_cm(c) == duval_scm(c) == (True, None)
    assert counts == {"checked": 886, "not_cm": 516, "not_scm": 171, "homology": 782,
                      "unused_block": 104}


def test_a_cold_and_a_warm_rank_cache_give_the_mask_path_answers(monkeypatch):
    # Every type complex with n, m <= 4, first with the rank cache
    # emptied for it alone, then with it holding every entry that pass
    # made: the answers, witnesses included, are those of the mask path
    # either way, so a cache entry does not depend on the complex whose
    # check made it.  Cold, each check ranks by the hook formula, one
    # cache entry per signature, with no cell listed and no map
    # eliminated; warm, it ranks nothing.
    from mixedprod import complexes, homology
    answers = [(type_complex(u, chosen), (reisner_cm(masks), duval_scm(masks)))
               for u, chosen in type_antichains(4, 4) for masks in [mask_complex(u, chosen)]]
    refuse_elimination(monkeypatch)
    filled, signatures = {}, 0
    for c, expected in answers:
        monkeypatch.setattr(homology, "_ranks_cache", {})
        assert (reisner_cm(c), duval_scm(c)) == expected
        # Reisner's asks K below dim K when there is a degree to ask,
        # and Duval's each c_l below l - 1, up to the first level that
        # fails: the entries are signatures of K and of its cuts
        n, m, types = c
        top = max(a + b for a, b in types)
        cuts = {complexes._signature(n, m, [t for t in types if t[0] + t[1] >= l])
                for l in range(2, top + 1)}
        assert homology._ranks_cache.keys() <= cuts | {complexes._signature(*c)}
        assert (complexes._signature(*c) in homology._ranks_cache) == (top > 1)
        signatures += len(homology._ranks_cache)
        filled.update(homology._ranks_cache)
    monkeypatch.setattr(homology, "_ranks_cache", filled)

    def refuse(*args):
        raise AssertionError("a signature ranked on a warm rank cache")

    monkeypatch.setattr(homology, "_hook_ranks", refuse)
    assert all((reisner_cm(c), duval_scm(c)) == expected for c, expected in answers)
    assert len(answers) == 886 and len(filled) > 300 and signatures > len(filled)


def _face_type_walk(c, d, failing_degree):
    """The first failing face type (a, b, i) of the type complex c, or None, walked per face type.

    The face types come in ``all_faces`` order of their first faces, by
    size and more x's first, and each is checked on its own link's
    signature at the bound d - a - b (or the link's dimension for d
    None): a walk over every face type, the reference for the checks
    that ask a type complex at its empty face alone.
    """
    n, m, types = c
    faces = {(a, b) for fa, fb in types for a in range(fa + 1) for b in range(fb + 1)}
    for a, b in sorted(faces, key=lambda t: (t[0] + t[1], -t[0])):
        kept = [(fa - a, fb - b) for fa, fb in types if fa >= a and fb >= b]
        sig = (n - a if any(x for x, _ in kept) else 0, m - b if any(y for _, y in kept) else 0,
               tuple(sorted(kept)))
        i = failing_degree(sig, max(x + y for x, y in kept) - 1 if d is None else d - a - b)
        if i is not None:
            return a, b, i
    return None


def test_a_type_complex_fails_first_at_its_empty_face(cold_caches):
    # The lemma in the ``complexes`` docstring: on every type complex
    # with n, m <= 4, at Reisner's bound and at every d from 1 to the
    # smallest facet dimension, the first failing face type of the walk
    # over every face type is the empty face or none, with the least
    # failing degree Reisner's and Duval's checks report.
    from mixedprod import complexes
    checked = failing = 0
    for u, chosen in type_antichains(4, 4):
        c, smallest = type_complex(u, chosen), min(a + b for a, b in chosen)
        found = _face_type_walk(c, None, complexes._failing_degree)
        assert found is None or found[:2] == (0, 0)
        assert reisner_cm(c) == ((True, None) if found is None else (False, ([], found[2])))
        first = None    # Duval's witness at the first level l <= smallest, where c_l is c
        for d in range(1, smallest):
            found = _face_type_walk(c, d, complexes._failing_degree)
            assert found is None or found[:2] == (0, 0)
            checked += 1
            if found is not None and first is None:
                first = (d + 1, ([], found[2]))
        duval = duval_scm(c)
        assert duval == (False, first) if first else duval[0] or duval[1][0] > smallest
        failing += first is not None
    assert checked > 1000 and failing > 100
    # the hypothesis d <= the smallest facet dimension is needed: the cone
    # x_1 * {y_1, y_2} passes at its empty face and fails at x_1
    assert _face_type_walk((1, 2, ((1, 1),)), 2, complexes._failing_degree) == (1, 0, 0)


def test_the_homology_of_a_type_complex_is_read_off_its_facet_types(cold_caches):
    # The hook formula, which ranks every type complex and which the
    # empty-face lemma's proof rests on, against elimination on the
    # listed facets, on every type complex with n, m <= 4
    checked = corners = unused = degrees = 0
    for u, chosen in type_antichains(4, 4):
        ranks = reduced_homology_ranks(mask_complex(u, chosen))
        assert reduced_homology_ranks(type_complex(u, chosen)) == ranks, (u, chosen)
        checked += 1
        corners += len(chosen) > 1
        unused += not all(map(any, zip(*chosen)))
        degrees += sum(map(bool, ranks.values())) > 1
    assert (checked, corners, unused, degrees) == (886, 662, 124, 308)


def test_the_type_complexes_of_large_specs_are_ranked_by_the_formula(monkeypatch, cold_caches):
    # Past the vertex cap, 17 <= n + m <= 120: Reisner's and Duval's
    # checks on the type complexes of 300 seeded random specs and of
    # CI's 60 + 60 spec agree with the closed forms, with no cell listed
    # and no map eliminated
    from check_large_fast import random_specs
    from mixedprod import normalize, products
    specs = [*random_specs(300), normalize(VariableUniverse(60, 60), [(1, 40), (20, 20), (45, 3)])]
    type_complexes = []
    for spec in specs:
        n, m = spec.universe.n, spec.universe.m
        types = kernels.transversal_types(spec.summands, n, m)
        type_complexes.append((n, m, tuple((n - a, m - b) for a, b in reversed(types))))
    refuse_elimination(monkeypatch)
    seen = set()
    for spec, c in zip(specs, type_complexes):
        cm, scm = reisner_cm(c)[0], duval_scm(c)[0]
        assert (cm, scm) == (products.is_cm_closed_form(spec).holds,
                             products.is_scm_closed_form(spec).holds), spec
        seen.add((cm, scm))
    assert seen == {(True, True), (False, True), (False, False)}
    assert (reisner_cm(type_complexes[-1])[0], duval_scm(type_complexes[-1])[0]) == (False, False)


def _has_a_size_gap(c):
    sizes = sorted({f.bit_count() for f in c.masks})
    return any(b - a > 1 for a, b in zip(sizes, sizes[1:]))


def test_duval_on_non_pure_complexes_with_size_gaps():
    # Facet sizes with gaps give one c_l (the facets of size >= l) to
    # several skeleton levels, each asking its links for another j.
    import random
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
        # whole classes, so the facet set is S_n x S_m invariant, on the type path
        masks = mask_complex(u, chosen) if symmetric else make_complex(u, chosen)
        if not _has_a_size_gap(masks):
            continue
        expected = duval_reference(masks)
        assert duval_scm(type_complex(u, chosen) if symmetric else masks) == expected
        symmetric = generator_map_symmetric(masks.masks, u.n, u.m)
        checked[symmetric] += 1
        failing[symmetric] += not expected[0]
    assert checked[True] >= 100 and checked[False] >= 100
    assert failing[True] >= 5 and failing[False] >= 30


def test_duval_reads_skeleton_faces_off_the_face_table(monkeypatch):
    # Duval's check ranks links of c and of its facet cuts c_l, never a skeleton complex
    from mixedprod import complexes

    def no_skeleton(c, l):
        raise AssertionError("duval_scm built a skeleton")

    monkeypatch.setattr(complexes, "skeleton", no_skeleton)
    star = complex_on(4, [{0, 1, 2}, {3}])
    assert duval_scm(star) == (True, None)
    assert duval_scm(TWO_EDGES)[0] is False
