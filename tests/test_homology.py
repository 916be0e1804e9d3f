"""Boundary matrices and exact reduced homology ranks."""

import random
import sys
import types
from fractions import Fraction
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


# The 6-vertex real projective plane: H_1 = Z/2 is torsion, so its
# rational homology vanishes, yet over GF(2) it is nonzero in degrees 1
# and 2.
RP2 = [{0, 1, 3}, {0, 1, 5}, {0, 2, 4}, {0, 2, 5}, {0, 3, 4},
       {1, 2, 3}, {1, 2, 4}, {1, 4, 5}, {2, 3, 5}, {3, 4, 5}]


def _exact_ranks(c):
    """Reduced homology ranks from rank_int of every absolute boundary matrix: no star, no cache."""
    by_dim = homology._faces_by_dim(c)
    top = max(by_dim)
    if top == -1:
        return {-1: 1}
    rank = {d: kernels.rank_int(boundary_matrix(c, d).rows) for d in range(top + 1)}
    rank[top + 1] = 0
    return {-1: 1 - rank[0],
            **{d: len(by_dim[d]) - rank[d] - rank[d + 1] for d in range(top + 1)}}


def test_projective_plane_divides_over_q(monkeypatch):
    # Relative to the star of vertex 0, RP2 has no vertex, 5 edges and 5
    # triangles, so del_1 (5 empty rows) and del_2 (5 rows over the 5 edges)
    # are eliminated.  del_2 has rank 5 over Q and 4 over GF(2) (the Z/2
    # torsion), and its elimination divides a row over Q.
    c = complex_on(6, RP2)
    calls, divided = [], set()     # the row counts of the maps ranked; the calls that divided
    rank_int = kernels.rank_int
    monkeypatch.setattr(kernels, "rank_int", lambda rows: calls.append(len(rows)) or rank_int(rows))
    spy = types.ModuleType("fractions")
    spy.Fraction = lambda *args: divided.add(len(calls)) or Fraction(*args)
    monkeypatch.setitem(sys.modules, "fractions", spy)
    assert reduced_homology_ranks(c) == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert calls == [5, 5]
    assert divided == {2}
    assert reisner_cm(c) == (True, None)
    assert _exact_ranks(c) == {-1: 0, 0: 0, 1: 0, 2: 0}


def _union_of_spheres(rng):
    """Simplex boundaries and random pieces on disjoint vertex sets, so that
    homology often sits in several degrees, adjacent ones included."""
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


def test_unions_of_spheres_match_exact_elimination(cold_caches):
    rng = random.Random(29)
    for _ in range(50):
        c = _union_of_spheres(rng)
        assert reduced_homology_ranks(c) == _exact_ranks(c)


def _random_complex(rng):
    n = rng.randint(2, 7)
    facets = [frozenset(rng.sample(range(n), rng.randint(1, n)))
              for _ in range(rng.randint(1, 5))]
    return complex_on(n, facets)


def test_a_signature_is_ranked_once_and_eliminates_no_map(monkeypatch, cold_caches):
    # The maps eliminated, by row count.  RP2's relative del_1 and del_2
    # have 5 rows each (see above).  A mask complex is not cached: every
    # call eliminates both maps again.
    c = complex_on(6, RP2)
    calls = []
    rank_int = kernels.rank_int
    monkeypatch.setattr(kernels, "rank_int", lambda rows: calls.append(len(rows)) or rank_int(rows))
    for _ in range(2):
        assert reduced_homology_ranks(c) == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert calls == [5, 5, 5, 5]
    assert homology._ranks_cache == {}
    # The x-edge and the two triangles x_i y1 y2, a circle: its one class
    # is the inner corner (1, 0) of the facet types (1, 2), (2, 0).  The
    # first call ranks the signature by the hook formula, one cache
    # entry, and eliminates no map; the second is answered from the cache.
    calls.clear()
    ranked = []
    hook_ranks = homology._hook_ranks
    monkeypatch.setattr(homology, "_hook_ranks", lambda c: ranked.append(c) or hook_ranks(c))
    signature = (2, 2, ((1, 2), (2, 0)))
    assert reduced_homology_ranks(signature) == {-1: 0, 0: 0, 1: 1, 2: 0}
    assert reduced_homology_ranks(signature) == {-1: 0, 0: 0, 1: 1, 2: 0}
    assert ranked == [signature] and calls == []
    assert homology._ranks_cache == {signature: {-1: 0, 0: 0, 1: 1, 2: 0}}


def test_a_warm_signature_is_not_ranked_or_checked_again(monkeypatch, cold_caches):
    # a type complex ranked before is answered from the cache: the hook
    # formula is not applied and the tuple is not checked again
    from test_complexes import mask_complex
    edges = [{x, y} for x in range(3) for y in range(3, 6)]
    u = VariableUniverse(3, 3)
    assert mask_complex(u, [(1, 1)]) == make_complex(u, edges)
    assert reduced_homology_ranks((3, 3, ((1, 1),))) == {-1: 0, 0: 0, 1: 4}    # K_{3,3}: 9 - 6 + 1 cycles

    def refuse(c):
        raise AssertionError("a cached type complex ranked or checked again")

    monkeypatch.setattr(homology, "_hook_ranks", refuse)
    monkeypatch.setattr(homology, "_check_type_complex", refuse)
    assert reduced_homology_ranks((3, 3, ((1, 1),))) == {-1: 0, 0: 0, 1: 4}


def test_an_unused_block_is_not_the_star_vertex(cold_caches):
    # No type holds an x, so x_1 is no vertex of the complex: the blocks
    # swap and the star is taken at y_1.  One edge y1 y2, and the
    # boundary of the triangle on y1 y2 y3, each against its mask complex.
    for c, facets, expected in [((3, 2, ((0, 2),)), [{3, 4}], {-1: 0, 0: 0, 1: 0}),
                                ((3, 3, ((0, 2),)), [{3, 4}, {3, 5}, {4, 5}],
                                 {-1: 0, 0: 0, 1: 1})]:
        assert reduced_homology_ranks(c) == expected
        assert reduced_homology_ranks(make_complex(VariableUniverse(*c[:2]), facets)) == expected


@pytest.mark.parametrize("c", [(2, 2, ((1, 2), (1, 1))), (2, 2, ((1, 1), (1, 2))),
                               (2, 2, ((1, 1), (1, 1))), (2, 2, ((3, 0),)), (2, 2, ((0, -1),)),
                               (2, 2, ())])
def test_a_malformed_type_complex_is_refused(c, cold_caches):
    # T must be a nonempty antichain inside 0..n x 0..m; a type below
    # another, or past a block, would be ranked by some other complex
    from mixedprod import duval_scm
    for check in (reduced_homology_ranks, reisner_cm, duval_scm):
        with pytest.raises(InvalidInput):
            check(c)
    assert homology._ranks_cache == {}


@pytest.mark.parametrize("c", [(2, 2, [(1, 1)]), (2, 2, ([1, 1],)), (2, 2, ((1, 1, 0),)),
                               (2, 2, ((1.0, 1),)), ("2", 2, ((1, 1),)), (2, 2, 5), (2, 2),
                               (2, 2, ((1, 1),), 0)])
def test_a_type_complex_not_of_int_pairs_is_refused(c, cold_caches):
    # a type complex is the hashable value (n, m, T), T a tuple of int
    # pairs; every entry point refuses anything else the same way
    from mixedprod import duval_scm
    for check in (reduced_homology_ranks, reisner_cm, duval_scm):
        with pytest.raises(InvalidInput, match="is no type complex"):
            check(c)
    assert homology._ranks_cache == {}


def test_the_mask_path_caches_nothing(cold_caches):
    # SimplicialComplexes, cones and not, are ranked from their own
    # relative tables and leave the rank cache empty
    from test_complexes import generator_map_symmetric
    rng = random.Random(53)
    checked = cones = 0
    while checked < 80:
        c = _random_complex(rng)
        if generator_map_symmetric(c.masks, c.universe.n, c.universe.m):
            continue
        cones += reduce(and_, c.masks) != 0
        exact = _exact_ranks(c)
        assert reduced_homology_ranks(c) == exact
        checked += 1
    assert homology._ranks_cache == {}
    assert 10 < cones < 70


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
    # the [set()] complex has no vertex and no star: every face is a cell
    empty = complex_on(2, [set()])
    assert homology._relative_table(empty) == empty.face_table == {-1: [0]}


def test_relative_ranks_match_the_absolute_ranks(cold_caches):
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
def test_relative_ranks_on_small_complexes(facets, expected, cold_caches):
    c = complex_on(6, facets)
    assert _exact_ranks(c) == expected
    assert reduced_homology_ranks(c) == expected
