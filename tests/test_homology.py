"""Boundary matrices and exact reduced homology ranks."""

import random
from functools import reduce
from operator import and_

import pytest

from mixedprod import (
    InvalidInput,
    VariableUniverse,
    boundary_matrix,
    expand_generators,
    homology,
    kernels,
    make_complex,
    normalize,
    reduced_homology_ranks,
    reisner_cm,
    stanley_reisner_complex,
)
from mixedprod.complexes import all_faces
from mixedprod.kernels import bit_indices

U4 = VariableUniverse(4, 0)
U5 = VariableUniverse(5, 0)


def complex_on(n, facets):
    return make_complex(VariableUniverse(n, 0), facets)


def compose(low, high):
    """del_{d-1} del_d as sparse rows, one per d-face, zero entries dropped."""
    assert len(high.cols) == len(low.rows)   # the (d-1)-faces, in one order
    out = []
    for row in high.rows:
        acc = {}
        for j, a in row.items():
            for k, b in low.rows[j].items():
                acc[k] = acc.get(k, 0) + a * b
        out.append({k: v for k, v in acc.items() if v})
    return out


def test_single_edge_boundary():
    c = complex_on(2, [{0, 1}])
    b = boundary_matrix(c, 1)
    assert b.cols == [0b01, 0b10]       # the vertices {0} and {1}
    # removing vertex 0 (position 0) leaves {1} with +1, vertex 1 (position 1) leaves {0} with -1
    assert b.rows == [{1: 1, 0: -1}]


def test_augmentation_row():
    c = complex_on(2, [{0}, {1}])
    b = boundary_matrix(c, 0)
    assert b.cols == [0]                # the empty face
    assert b.rows == [{0: 1}, {0: 1}]


def test_sign_rule_on_a_tetrahedron():
    c = complex_on(4, [{0, 1, 2, 3}])
    b = boundary_matrix(c, 3)
    # removing the k-th smallest vertex gives (-1)^k
    faces = {b.cols[j]: v for j, v in b.rows[0].items()}
    assert faces == {0b1110: 1, 0b1101: -1, 0b1011: 1, 0b0111: -1}


def test_boundary_out_of_range():
    c = complex_on(2, [{0, 1}])
    with pytest.raises(InvalidInput):
        boundary_matrix(c, 2)


def test_boundary_squared_zero_full_simplex():
    c = complex_on(4, [{0, 1, 2, 3}])
    for d in range(1, 4):
        assert not any(compose(boundary_matrix(c, d - 1), boundary_matrix(c, d)))


def test_boundary_squared_zero_random():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 6)
        facets = [frozenset(rng.sample(range(n), rng.randint(1, n)))
                  for _ in range(rng.randint(1, 4))]
        c = complex_on(n, facets)
        top = max(f.bit_count() for f in c.masks) - 1
        for d in range(1, top + 1):
            assert not any(compose(boundary_matrix(c, d - 1), boundary_matrix(c, d)))


def test_rank_exact_examples():
    c = complex_on(3, [{0, 1}, {1, 2}, {0, 2}])
    assert kernels.rank_int(boundary_matrix(c, 1).rows) == 2


def test_largest_boundary_map_of_a_16_vertex_spec():
    # I4J4 on 8 + 8 variables: its 6-faces are all 7-subsets of the 16
    # vertices, so del_6 is the full simplex's, of rank C(15, 6)
    c = stanley_reisner_complex(expand_generators(normalize(VariableUniverse(8, 8), [(4, 4)])))
    table = c.face_table
    d = max(range(1, max(table) + 1), key=lambda d: len(table[d - 1]) * len(table[d]))
    mat = boundary_matrix(c, d)
    assert (d, len(mat.rows), len(mat.cols)) == (6, 11440, 8008)
    assert kernels.rank_int(mat.rows) == 5005


def test_triangle_boundary_is_circle():
    ranks = reduced_homology_ranks(complex_on(3, [{0, 1}, {1, 2}, {0, 2}]))
    assert ranks == {-1: 0, 0: 0, 1: 1}


def test_two_disjoint_edges():
    c = make_complex(VariableUniverse(2, 2), [{0, 1}, {2, 3}])
    assert reduced_homology_ranks(c) == {-1: 0, 0: 1, 1: 0}


def test_full_simplex_acyclic():
    ranks = reduced_homology_ranks(complex_on(5, [{0, 1, 2, 3, 4}]))
    assert all(r == 0 for r in ranks.values())


def test_empty_complex_minus_one():
    c = complex_on(2, [set()])
    assert reduced_homology_ranks(c) == {-1: 1}


def test_euler_relation():
    from mixedprod.homology import _faces_by_dim
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(1, 6)
        facets = [frozenset(rng.sample(range(n), rng.randint(1, n)))
                  for _ in range(rng.randint(1, 5))]
        c = complex_on(n, facets)
        by_dim = _faces_by_dim(c)
        ranks = reduced_homology_ranks(c)
        lhs = sum((-1) ** d * len(fs) for d, fs in by_dim.items() if d >= 0) - 1
        rhs = sum((-1) ** d * r for d, r in ranks.items() if d >= 0) - ranks[-1]
        assert lhs == rhs


def test_cone_acyclicity():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randint(1, 5)
        facets = [frozenset(rng.sample(range(n), rng.randint(1, n)))
                  for _ in range(rng.randint(1, 4))]
        apex = n
        cone = complex_on(n + 1, [f | {apex} for f in facets])
        assert all(r == 0 for r in reduced_homology_ranks(cone).values())


def test_a_cone_is_answered_without_a_table(monkeypatch):
    # A complex whose facets share a vertex is acyclic in every degree,
    # -1 included, and is answered before the rank key, the cache and the
    # face table; any other complex is ranked from its table.
    monkeypatch.setattr(homology, "_ranks_cache", {})
    rng = random.Random(53)
    cases = [complex_on(3, [{0, 1, 2}]), complex_on(2, [set()])]
    while len(cases) < 80:
        n = rng.randint(1, 6)
        facets = [set(rng.sample(range(n), rng.randint(1, n))) for _ in range(rng.randint(1, 5))]
        # the apex n, or a complex that is no cone
        c = complex_on(n + 1, [f | {n} for f in facets]) if len(cases) % 2 else complex_on(n, facets)
        if len(cases) % 2 or not reduce(and_, c.masks):
            cases.append(c)
    for c in cases:
        cone = reduce(and_, c.masks) != 0
        fresh = not cone and c.rank_key not in homology._ranks_cache
        ranks = reduced_homology_ranks(c)
        assert "face_table" in vars(c) if fresh else "face_table" not in vars(c)
        if cone:
            assert "rank_key" not in vars(c)
            assert ranks == dict.fromkeys(range(-1, max(f.bit_count() for f in c.masks)), 0)
        assert ranks == _exact_ranks(c)
    assert homology._ranks_cache.keys() == {c.rank_key for c in cases if not reduce(and_, c.masks)}


def test_relabel_invariance():
    rng = random.Random(17)
    for _ in range(15):
        n = rng.randint(2, 6)
        facets = [frozenset(rng.sample(range(n), rng.randint(1, n)))
                  for _ in range(rng.randint(1, 4))]
        perm = list(range(n))
        rng.shuffle(perm)
        a = complex_on(n, facets)
        b = complex_on(n, [{perm[v] for v in f} for f in facets])
        assert reduced_homology_ranks(a) == reduced_homology_ranks(b)


def test_facet_order_invariance():
    facets = [{0, 1}, {1, 2}, {2, 3}]
    a = complex_on(4, facets)
    b = complex_on(4, list(reversed(facets)))
    assert reduced_homology_ranks(a) == reduced_homology_ranks(b)


# The 6-vertex real projective plane: H_1 = Z/2, so its GF(2) homology
# is nonzero in degrees 1 and 2 while its rational homology vanishes.
RP2 = [{0, 1, 3}, {0, 1, 5}, {0, 2, 4}, {0, 2, 5}, {0, 3, 4},
       {1, 2, 3}, {1, 2, 4}, {1, 4, 5}, {2, 3, 5}, {3, 4, 5}]


def _exact_ranks(c):
    """Reduced homology ranks from rank_int of every boundary matrix, no certificate."""
    by_dim = homology._faces_by_dim(c)
    top = max(by_dim)
    if top == -1:
        return {-1: 1}
    rank = {d: kernels.rank_int(boundary_matrix(c, d).rows) for d in range(top + 1)}
    rank[top + 1] = 0
    return {-1: 1 - rank[0],
            **{d: len(by_dim[d]) - rank[d] - rank[d + 1] for d in range(top + 1)}}


def test_projective_plane_takes_the_exact_fallback(monkeypatch):
    c = complex_on(6, RP2)
    assert homology._rank_f2(c.face_table, 2) == 9      # over Q the rank is 10
    calls = []
    rank_int = kernels.rank_int
    monkeypatch.setattr(kernels, "rank_int", lambda rows: calls.append(len(rows)) or rank_int(rows))
    monkeypatch.setattr(homology, "_ranks_cache", {})
    assert reisner_cm(c) == (True, None)
    # ranked relative to the star of vertex 0, only the relative del_2 (the
    # 5 triangles without vertex 0 over the 5 edges off its star) needed
    # elimination: it has rank 5 over Q and 4 over GF(2)
    assert calls == [5]
    assert reduced_homology_ranks(c) == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert _exact_ranks(c) == {-1: 0, 0: 0, 1: 0, 2: 0}


def _union_of_spheres(rng):
    """Simplex boundaries and random pieces on disjoint vertex sets, so that
    homology often sits in adjacent degrees, where GF(2) settles nothing."""
    facets, start = [], 0
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(1, 4)
        verts = range(start, start + k)
        if rng.random() < 0.5:
            facets += [set(verts) - {v} for v in verts]
        else:
            facets += [set(rng.sample(verts, rng.randint(1, k))) for _ in range(rng.randint(1, 4))]
        start += k
    return complex_on(start, facets)


def test_certified_ranks_match_exact_elimination(monkeypatch):
    monkeypatch.setattr(homology, "_ranks_cache", {})
    calls = []
    rank_int = kernels.rank_int
    monkeypatch.setattr(kernels, "rank_int", lambda rows: calls.append(1) or rank_int(rows))
    rng = random.Random(29)
    fell_back = 0
    for _ in range(50):
        c = _union_of_spheres(rng)
        before = len(calls)
        ranks = reduced_homology_ranks(c)
        fell_back += len(calls) > before
        assert ranks == _exact_ranks(c)
    assert 0 < fell_back < 50     # both the certificate alone and the fallback ran


def _random_complex(rng):
    n = rng.randint(2, 7)
    facets = [frozenset(rng.sample(range(n), rng.randint(1, n)))
              for _ in range(rng.randint(1, 5))]
    return complex_on(n, facets)


def _truncated(ranks, below):
    return {i: r for i, r in ranks.items() if i < below}


def _assert_partial(partial, full, below):
    """The degrees below ``below`` are all there; every degree given is right."""
    assert _truncated(partial, below) == _truncated(full, below)
    assert set(range(-1, below)) <= partial.keys()
    assert partial.items() <= full.items()


def _assert_prefix_cache():
    """Each cache entry holds the ranks of the two ends and of del_1 .. del_k for some k.

    The upward pass reads r_{d-1} when it settles del_d, so the exact
    ranks it keeps must never skip a map.
    """
    for counts, rank in homology._ranks_cache.values():
        inner = rank.keys() - {0, max(counts) + 1}
        assert inner == set(range(1, len(inner) + 1))
        assert {0, max(counts) + 1} <= rank.keys()


@pytest.mark.parametrize("order", ["fresh", "partial_first", "full_first", "shuffled"])
def test_partial_ranks_are_the_truncated_full_ranks(monkeypatch, order):
    rng = random.Random(31)
    cases = [complex_on(6, RP2)] + [_random_complex(rng) for _ in range(40)]
    cases += [_union_of_spheres(rng) for _ in range(20)]
    for c in cases:
        full = _exact_ranks(c)
        top = max(full)
        belows = list(range(0, top + 2))
        monkeypatch.setattr(homology, "_ranks_cache", {})
        if order == "full_first":
            assert reduced_homology_ranks(c) == full
            _assert_prefix_cache()
        if order == "shuffled":
            rng.shuffle(belows)
        for below in belows:
            if order == "fresh":
                monkeypatch.setattr(homology, "_ranks_cache", {})
            _assert_partial(reduced_homology_ranks(c, below=below), full, below)
            _assert_prefix_cache()
        assert reduced_homology_ranks(c) == full
        _assert_prefix_cache()


def test_partial_ranks_settle_no_map_above_below(monkeypatch):
    # RP2's relative del_2 is the one map that needs elimination (see
    # above), so asking for the degrees below 1 (del_0 and del_1) eliminates
    # nothing, and asking for all of them afterwards eliminates del_2 once
    c = complex_on(6, RP2)
    calls = []
    rank_int = kernels.rank_int
    monkeypatch.setattr(kernels, "rank_int", lambda rows: calls.append(len(rows)) or rank_int(rows))
    monkeypatch.setattr(homology, "_ranks_cache", {})
    assert reduced_homology_ranks(c, below=1) == {-1: 0, 0: 0}
    assert calls == []
    assert reduced_homology_ranks(c) == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert calls == [5]
    assert reduced_homology_ranks(c, below=1) == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert calls == [5]     # answered from the cache


def test_a_warm_cache_needs_no_face_table(monkeypatch):
    from mixedprod import complexes
    monkeypatch.setattr(homology, "_ranks_cache", {})
    assert reduced_homology_ranks(complex_on(6, RP2)) == {-1: 0, 0: 0, 1: 0, 2: 0}
    built = []
    faces = complexes._faces_by_dim
    monkeypatch.setattr(complexes, "_faces_by_dim", lambda c: built.append(c) or faces(c))
    relabeled = complex_on(7, [{v + 1 for v in f} for f in RP2])
    assert reduced_homology_ranks(relabeled, below=2) == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert built == []


def _star_reference(c):
    """The cells of (c, st v), v the lowest used vertex, from the definition."""
    faces = set(all_faces(c))
    v = min(v for f in c.masks for v in bit_indices(f))
    return sorted(f for f in faces if not f >> v & 1 and f | 1 << v not in faces)


def test_relative_cells_are_the_faces_off_the_star():
    rng = random.Random(37)
    for _ in range(60):
        c = _random_complex(rng)
        table = homology._relative_table(c)
        assert table.keys() == c.face_table.keys()
        assert all(cells == sorted(cells) for cells in table.values())
        assert sorted(f for cells in table.values() for f in cells) == _star_reference(c)
    # RP2 off the star of vertex 0: no vertex, 5 edges, 5 triangles
    rel = homology._relative_table(complex_on(6, RP2))
    assert {d: len(cells) for d, cells in rel.items()} == {-1: 0, 0: 0, 1: 5, 2: 5}
    # the [set()] complex has no vertex and keeps its table
    empty = complex_on(2, [set()])
    assert homology._relative_table(empty) is empty.face_table


def test_relative_ranks_match_the_absolute_ranks(monkeypatch):
    monkeypatch.setattr(homology, "_ranks_cache", {})
    rng = random.Random(41)
    with_homology = 0
    for _ in range(2000):
        n = rng.randint(1, 8)
        facets = [rng.sample(range(n), rng.randint(1, min(n, 4))) for _ in range(rng.randint(1, 8))]
        c = complex_on(n, facets)
        exact = _exact_ranks(c)
        with_homology += any(exact.values())
        assert reduced_homology_ranks(c) == exact
    assert with_homology >= 300


@pytest.mark.parametrize("facets, expected", [
    ([set()], {-1: 1}),                                      # no vertex, no star
    ([{0, 1, 2, 3}], {-1: 0, 0: 0, 1: 0, 2: 0, 3: 0}),       # a simplex
    ([{0, 1}, {0, 2}, {0, 3, 4}], {-1: 0, 0: 0, 1: 0, 2: 0}),  # a cone on vertex 0
    ([{1, 2}, {0, 2}, {2, 3, 4}], {-1: 0, 0: 0, 1: 0, 2: 0}),  # a cone off vertex 0
    ([{0}, {1}], {-1: 0, 0: 1}),                             # two points
    ([{0}, {1, 2}], {-1: 0, 0: 1, 1: 0}),                    # a point and an edge
    (RP2, {-1: 0, 0: 0, 1: 0, 2: 0}),                        # torsion only
])
def test_relative_ranks_on_small_complexes(monkeypatch, facets, expected):
    monkeypatch.setattr(homology, "_ranks_cache", {})
    c = complex_on(6, facets)
    assert _exact_ranks(c) == expected
    assert reduced_homology_ranks(c) == expected
    monkeypatch.setattr(homology, "_ranks_cache", {})
    below = min(1, max(expected))
    _assert_partial(reduced_homology_ranks(c, below=below), expected, below)
    assert reduced_homology_ranks(c) == expected


def test_relabeled_copies_share_one_relative_entry(monkeypatch):
    # vertex 0 of the first copy and vertex 2 of the second are each the
    # lowest used vertex, and the order-preserving relabel of the rank key
    # sends both to 0, so the cached relative ranks serve both
    cache = {}
    monkeypatch.setattr(homology, "_ranks_cache", cache)
    a = complex_on(6, [{0, 1}, {1, 2}, {2, 0}, {3}])
    b = complex_on(8, [{2, 4}, {4, 5}, {5, 2}, {7}])
    assert a.rank_key == b.rank_key
    assert reduced_homology_ranks(a, below=1) == {-1: 0, 0: 1, 1: 1}    # del_2 is zero
    assert len(cache) == 1
    assert reduced_homology_ranks(b) == _exact_ranks(b) == {-1: 0, 0: 1, 1: 1}
    assert len(cache) == 1
    ((counts, rank),) = cache.values()
    assert counts == {-1: 0, 0: 1, 1: 1}      # the relative cells: {3} and the edge {1, 2}
    assert rank == {0: 0, 1: 0, 2: 0}
