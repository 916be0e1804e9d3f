"""Correctness tests for the minimal-hitting-set and exact-rank kernels."""

import os
import random
import subprocess
import sys
import types
from fractions import Fraction
from itertools import combinations
from math import comb

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
        assert impl.minimal_hitting_sets([]) == [0]

    def test_empty_set_member(self, impl):
        assert impl.minimal_hitting_sets([0b101, 0]) == []

    def test_single_set(self, impl):
        assert impl.minimal_hitting_sets([0b1010]) == [0b0010, 0b1000]

    def test_matches_brute_force(self, impl):
        rng = random.Random(7)
        for _ in range(60):
            nbits = rng.randint(1, 6)
            nsets = rng.randint(1, 8)
            masks = [rng.randint(1, (1 << nbits) - 1) for _ in range(nsets)]
            assert impl.minimal_hitting_sets(masks) == brute_minimal_hitting_sets(masks, nbits)


@pytest.mark.parametrize("masks, nbits", [
    ([0b0110, 0b0110, 0b1001], 4),                  # a duplicate set
    ([0b0011, 0b0111, 0b1111, 0b1000], 4),          # a chain of nested sets
    ([0b11111, 0b00011, 0b01100, 0b10000], 5),      # one set holding all the others
    ([0b101, 0b101, 0b101], 3),                     # one set three times
    ([0b1, 0b11, 0b111, 0b1], 3),                   # nested and duplicated
])
def test_families_that_are_not_antichains(masks, nbits):
    assert kernels.minimal_hitting_sets(masks) == brute_minimal_hitting_sets(masks, nbits)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10).flatmap(lambda nbits: st.tuples(
    st.lists(st.integers(1, (1 << nbits) - 1), min_size=1, max_size=12), st.just(nbits))))
def test_hitting_sets_match_brute_force_property(family):
    masks, nbits = family
    assert kernels.minimal_hitting_sets(masks) == brute_minimal_hitting_sets(masks, nbits)


def family_of_types(n, m, types):
    """Every set of each (a, b) in ``types``: a x's among bits 0..n-1, b y's among n..n+m-1."""
    return [sum(1 << i for i in xs) | sum(1 << (n + j) for j in ys)
            for a, b in types for xs in combinations(range(n), a)
            for ys in combinations(range(m), b)]


def test_list_types_against_brute_force():
    # every antichain of types over n, m <= 5, empty blocks and the empty
    # antichain included: k distinct x-counts rising, k y-counts falling
    checked = 0
    for n in range(6):
        for m in range(6):
            for k in range(min(n, m) + 2):
                for a_s in combinations(range(n + 1), k):
                    for b_s in combinations(range(m, -1, -1), k):
                        types = list(zip(a_s, b_s))
                        listed = kernels.list_types(types, n, m)
                        assert listed == sorted(family_of_types(n, m, types)), (n, m, types)
                        assert len(set(listed)) == len(listed), (n, m, types)
                        checked += 1
    # an antichain of a (n + 1) x (m + 1) grid is a lattice path: C(n + m + 2, n + 1)
    assert checked == sum(comb(n + m + 2, n + 1) for n in range(6) for m in range(6))


def test_whole_type_families_take_the_orbit_path():
    # the orbit rule on the types read off the generators of every
    # normalized spec with n, m <= 5, and of its dual, against MMCS
    from test_complexes import facet_types
    from mixedprod.products import generator_sets
    from mixedprod.sweep import enumerate_specs
    checked = 0
    for spec in enumerate_specs(5, 5, 6):
        u = spec.universe
        for family in (generator_sets(spec), generator_sets(spec.dual)):
            types = facet_types(family, u.n, u.m)
            assert kernels.list_types(kernels.transversal_types(types, u.n, u.m), u.n, u.m) == \
                kernels.minimal_hitting_sets(family), spec
            checked += 1
    assert checked == 2 * 3316


def test_the_type_chain_matches_mmcs():
    # the sweep's oracle chain: the prime types by the orbit rule from the
    # summand types, and the signature the complex takes from them, on
    # every normalized spec with n, m <= 5 and on a one-block universe
    # (n = 0 or m = 0) with up to 8 vertices, against MMCS on the listed
    # generators and against the types read off the facets
    from test_complexes import facet_types
    from mixedprod.complexes import _signature
    from mixedprod.ideals import complex_of_primes
    from mixedprod.products import MixedProductSpec, generator_sets
    from mixedprod.sweep import enumerate_specs
    one_block = [MixedProductSpec(u, (t,)) for k in range(1, 9) for i in range(1, k + 1)
                 for u, t in [(VariableUniverse(0, k), (0, i)), (VariableUniverse(k, 0), (i, 0))]]
    checked = 0
    for spec in [*enumerate_specs(5, 5, 6), *one_block]:
        u = spec.universe
        types = kernels.transversal_types(spec.summands, u.n, u.m)
        primes = kernels.list_types(types, u.n, u.m)
        assert primes == kernels.minimal_hitting_sets(generator_sets(spec)), spec
        c = complex_of_primes(u, primes, types)
        held = facet_types(c.masks, u.n, u.m)
        assert held is not None, spec
        assert c.type_signature == _signature(u.n, u.m, held), spec
        checked += 1
    assert checked == 3316 + 72


def test_families_that_are_not_whole_types_fall_back():
    # MMCS on families with and without whole types, which the
    # generator map check tells apart
    from test_complexes import generator_map_symmetric

    def check(family, n, m, invariant):
        assert kernels.minimal_hitting_sets(family) == brute_minimal_hitting_sets(family, n + m)
        assert generator_map_symmetric(family, n, m) == invariant

    rng = random.Random(19)
    for n, m in [(3, 3), (2, 4), (1, 4), (4, 1), (1, 1), (0, 5), (5, 0)]:
        types = [(a, b) for a in range(n + 1) for b in range(m + 1) if a + b]
        for _ in range(30):
            chosen = rng.sample(types, rng.randint(1, min(4, len(types))))
            family = family_of_types(n, m, chosen)
            check(family, n, m, True)
            check(family + [rng.choice(family)], n, m, True)     # a set twice
            # one set dropped: its type stays whole only if it was that one set
            dropped = family.pop(rng.randrange(len(family)))
            size = comb(n, (dropped & (1 << n) - 1).bit_count()) * comb(m, (dropped >> n).bit_count())
            check(family, n, m, size == 1)
    # invariant under S_3 but not S_2: every x-pair with y_1, then also x_1 x_2 x_3
    only_x = [g | 1 << 3 for g in family_of_types(3, 0, [(2, 0)])]
    check(only_x, 3, 2, False)
    check(only_x + family_of_types(3, 2, [(3, 0)]), 3, 2, False)
    check([0b01001], 3, 2, False)           # one set of a type of C(3, 1) * C(2, 1) = 6
    check([], 3, 2, True)                   # hit by the empty set
    check([0], 3, 2, True)                  # the empty set is a whole type of one set
    check([0, 0b00011], 3, 2, False)        # no transversal either way
    # MMCS takes sets past any universe: {x_1} and {bit 2}
    assert kernels.minimal_hitting_sets([0b001, 0b100]) == [0b101]


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

    def test_unit_pivots_then_division_over_q(self, impl):
        assert impl.rank_int(sparse([[1, 1], [1, -1]])) == 2    # leaves [[-2]] to divide over Q
        assert impl.rank_int(sparse([[2, 4], [4, 8]])) == 1     # no unit entry at all
        assert impl.rank_int(sparse([[2, 0, 1], [0, 3, 1], [2, 3, 2]])) == 2
        rng = random.Random(13)
        for values in ((-1, 0, 1), (-4, -2, 0, 3, 6), (-2, -1, 0, 0, 1, 2, 5)):
            for _ in range(40):
                nr, nc = rng.randint(1, 9), rng.randint(1, 9)
                rows = [[rng.choice(values) for _ in range(nc)] for _ in range(nr)]
                assert impl.rank_int(sparse(rows)) == rank_frac(rows)


def test_sparse_rank_vs_fraction_elimination(monkeypatch):
    divided = set()     # the trials in which rank_int built a Fraction
    spy = types.ModuleType("fractions")
    spy.Fraction = lambda *args: divided.add(trial) or Fraction(*args)
    monkeypatch.setitem(sys.modules, "fractions", spy)
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
    assert 0 < len(divided) < 150     # both the unit pivots alone and the division over Q ran


def test_import_loads_no_fractions():
    # rank_int imports fractions inside its division branch, as a top-level
    # import adds about 2.5 ms to every start
    code = "import sys, mixedprod, mixedprod.cli; print('fractions' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mixedprod.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_masks_wider_than_64_bits():
    assert kernels.minimal_hitting_sets([1 << 70, 1 << 3 | 1 << 65]) == \
        [1 << 3 | 1 << 70, 1 << 65 | 1 << 70]
    rng = random.Random(5)
    for _ in range(30):
        nbits = rng.randint(1, 6)
        masks = [rng.randint(1, (1 << nbits) - 1) for _ in range(rng.randint(1, 8))]
        assert kernels.minimal_hitting_sets([t << 64 for t in masks]) == \
            [h << 64 for h in brute_minimal_hitting_sets(masks, nbits)]


def test_ideal_of_complex_on_70_vertices():
    c = make_complex(VariableUniverse(35, 35), [range(0, 69), range(1, 70)])
    assert ideal_of_complex(c).generators == {1 | 1 << 69}


def test_selected_backend_exposes_api():
    assert mixedprod.BACKEND == "python"
    assert callable(kernels.minimal_hitting_sets)
    assert callable(kernels.rank_int)
