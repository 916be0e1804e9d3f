"""Correctness tests for the minimal-hitting-set and exact-rank kernels."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixedprod
from mixedprod import kernels
from mixedprod.complexes import make_complex
from mixedprod.ideals import VariableUniverse, ideal_of_complex

# A single implementation; the "python" id keeps the test ids stable.
KERNELS = pytest.mark.parametrize("impl", [kernels], ids=["python"])


def brute_minimal_hitting_sets(masks, nbits):
    hits = []
    for k in range(nbits + 1):
        for sub in combinations(range(nbits), k):
            h = 0
            for i in sub:
                h |= 1 << i
            if all(h & t for t in masks):
                hits.append(h)
    return sorted(h for h in hits if not any(o != h and o & h == o for o in hits))


@KERNELS
class TestHittingSets:
    def test_empty_family(self, impl):
        assert impl.minimal_hitting_sets([], 4) == [0]

    def test_empty_set_member(self, impl):
        assert impl.minimal_hitting_sets([0b101, 0], 4) == []

    def test_single_set(self, impl):
        assert impl.minimal_hitting_sets([0b1010], 4) == [0b0010, 0b1000]

    def test_matches_brute_force(self, impl):
        rng = random.Random(7)
        for _ in range(60):
            nbits = rng.randint(1, 6)
            nsets = rng.randint(1, 8)
            masks = [rng.randint(1, (1 << nbits) - 1) for _ in range(nsets)]
            assert impl.minimal_hitting_sets(masks, nbits) == \
                brute_minimal_hitting_sets(masks, nbits)


@pytest.mark.parametrize("masks, nbits", [
    ([0b0110, 0b0110, 0b1001], 4),                  # a duplicate set
    ([0b0011, 0b0111, 0b1111, 0b1000], 4),          # a chain of nested sets
    ([0b11111, 0b00011, 0b01100, 0b10000], 5),      # one set holding all the others
    ([0b101, 0b101, 0b101], 3),                     # one set three times
    ([0b1, 0b11, 0b111, 0b1], 3),                   # nested and duplicated
])
def test_families_that_are_not_antichains(masks, nbits):
    assert kernels.minimal_hitting_sets(masks, nbits) == brute_minimal_hitting_sets(masks, nbits)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10).flatmap(lambda nbits: st.tuples(
    st.lists(st.integers(1, (1 << nbits) - 1), min_size=1, max_size=12), st.just(nbits))))
def test_hitting_sets_match_brute_force_property(family):
    masks, nbits = family
    assert kernels.minimal_hitting_sets(masks, nbits) == brute_minimal_hitting_sets(masks, nbits)


def sparse(rows):
    """A dense integer matrix as rank_int takes it: one {column: nonzero entry} dict per row."""
    return [{j: v for j, v in enumerate(r) if v} for r in rows]


def rank_frac(rows):
    """Rank of a dense integer matrix by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    pr = 0
    for pc in range(cols):
        piv = next((r for r in range(pr, len(m)) if m[r][pc]), None)
        if piv is None:
            continue
        m[pr], m[piv] = m[piv], m[pr]
        for r in range(pr + 1, len(m)):
            f = m[r][pc] / m[pr][pc]
            for c in range(pc, cols):
                m[r][c] -= f * m[pr][c]
        pr += 1
        rank += 1
    return rank


@KERNELS
class TestRank:
    def test_zero_matrix(self, impl):
        assert impl.rank_int(sparse([[0, 0], [0, 0]])) == 0
        assert impl.rank_int([]) == 0

    def test_identity(self, impl):
        assert impl.rank_int(sparse([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3

    def test_dependent_rows(self, impl):
        assert impl.rank_int(sparse([[1, 2, 3], [2, 4, 6], [1, 0, 1]])) == 2

    def test_tall_and_wide(self, impl):
        assert impl.rank_int(sparse([[1], [2], [3]])) == 1
        assert impl.rank_int(sparse([[1, 2, 3]])) == 1

    def test_random_vs_fraction_elimination(self, impl):
        rng = random.Random(11)
        for _ in range(40):
            nr, nc = rng.randint(1, 7), rng.randint(1, 7)
            rows = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
            assert impl.rank_int(sparse(rows)) == rank_frac(rows)

    def test_unit_pivots_then_bareiss_remainder(self, impl):
        assert impl.rank_int(sparse([[1, 1], [1, -1]])) == 2    # leaves [[-2]] to Bareiss
        assert impl.rank_int(sparse([[2, 4], [4, 8]])) == 1     # no unit entry at all
        assert impl.rank_int(sparse([[2, 0, 1], [0, 3, 1], [2, 3, 2]])) == 2
        rng = random.Random(13)
        for values in ((-1, 0, 1), (-4, -2, 0, 3, 6), (-2, -1, 0, 0, 1, 2, 5)):
            for _ in range(40):
                nr, nc = rng.randint(1, 9), rng.randint(1, 9)
                rows = [[rng.choice(values) for _ in range(nc)] for _ in range(nr)]
                assert impl.rank_int(sparse(rows)) == impl._rank_bareiss(rows)


def test_sparse_rank_vs_fraction_elimination(monkeypatch):
    remainders = []
    bareiss = kernels._rank_bareiss
    monkeypatch.setattr(kernels, "_rank_bareiss",
                        lambda rows: remainders.append(len(rows)) or bareiss(rows))
    rng = random.Random(17)
    # mostly zero, units common: pivots fill rows in and re-queue them
    values = (0,) * 12 + (1, -1) * 3 + (2, -2, 3, 6)
    for trial in range(150):
        nr, nc = rng.randint(1, 24), rng.randint(1, 24)
        rows = [[rng.choice(values) for _ in range(nc)] for _ in range(nr)]
        rows += [[0] * nc] * rng.randint(0, 2)                          # empty rows
        rows += [list(rng.choice(rows)) for _ in range(rng.randint(0, 3))]  # duplicates
        rng.shuffle(rows)
        given = sparse(rows)
        assert kernels.rank_int(given) == rank_frac(rows)
        assert given == sparse(rows)     # the input is left as it was
    assert 0 < len(remainders) < 150     # both the unit pivots alone and Bareiss ran


def test_rank_f2():
    assert kernels.rank_f2([]) == 0
    assert kernels.rank_f2([0, 0]) == 0
    assert kernels.rank_f2([0b011, 0b110, 0b101]) == 2      # the three sum to zero
    assert kernels.rank_f2([1 << 70, 1 << 70 | 1, 1]) == 2
    rng = random.Random(7)
    for _ in range(40):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.randint(0, 1) for _ in range(nc)] for _ in range(nr)]
        masks = [sum(b << j for j, b in enumerate(r)) for r in rows]
        # a 0/1 matrix's rank over GF(2) is at most its rank over Q
        assert kernels.rank_f2(masks) <= kernels.rank_int(sparse(rows))
        # over GF(2), row rank equals column rank
        cols = [sum(r[j] << i for i, r in enumerate(rows)) for j in range(nc)]
        assert kernels.rank_f2(masks) == kernels.rank_f2(cols)


def test_masks_wider_than_64_bits():
    assert kernels.minimal_hitting_sets([1 << 70, 1 << 3 | 1 << 65], 71) == \
        [1 << 3 | 1 << 70, 1 << 65 | 1 << 70]
    rng = random.Random(5)
    for _ in range(30):
        nbits = rng.randint(1, 6)
        masks = [rng.randint(1, (1 << nbits) - 1) for _ in range(rng.randint(1, 8))]
        assert kernels.minimal_hitting_sets([t << 64 for t in masks], nbits + 64) == \
            [h << 64 for h in brute_minimal_hitting_sets(masks, nbits)]


def test_ideal_of_complex_on_70_vertices():
    c = make_complex(VariableUniverse(35, 35), [range(0, 69), range(1, 70)])
    assert ideal_of_complex(c).generators == {1 | 1 << 69}


def test_selected_backend_exposes_api():
    assert mixedprod.BACKEND == "python"
    assert callable(kernels.minimal_hitting_sets)
    assert callable(kernels.rank_int)
