"""Squarefree ideal arithmetic, Alexander duality, Stanley-Reisner maps."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedprod import (
    DomainError,
    InvalidInput,
    SquarefreeIdeal,
    make_complex,
    VariableUniverse,
    alexander_dual,
    ideal_intersect,
    ideal_of_complex,
    ideal_product,
    ideal_sum,
    minimal_primes,
    minimalize,
    stanley_reisner_complex,
)
from mixedprod.ideals import _prime_masks, complex_of_primes, vertex_lists

U2 = VariableUniverse(2, 0)
U11 = VariableUniverse(1, 1)
U22 = VariableUniverse(2, 2)


def gens(ideal):
    return vertex_lists(ideal.generators)


def test_universe_validation():
    with pytest.raises(InvalidInput):
        VariableUniverse(0, 0)
    with pytest.raises(InvalidInput):
        VariableUniverse(-1, 2)
    assert VariableUniverse(2, 3).var_name(0) == "x1"
    assert VariableUniverse(2, 3).var_name(2) == "y1"


def test_minimalize_containment_removal():
    i = minimalize(U2, [{0}, {0, 1}])
    assert gens(i) == [[0]]


def test_minimalize_empty_is_zero():
    assert minimalize(U2, []).is_zero


def test_minimalize_mixed():
    i = minimalize(U11, [{0, 1}, {0}, {1}])
    assert gens(i) == [[0], [1]]


def test_minimalize_out_of_range():
    with pytest.raises(InvalidInput):
        minimalize(U2, [{5}])


def test_sum_zero_neutral():
    i = minimalize(U2, [{0}])
    assert ideal_sum(i, minimalize(U2, [])) == i


def test_sum_absorption():
    assert gens(ideal_sum(minimalize(U2, [{0}]), minimalize(U2, [{0, 1}]))) == [[0]]


def test_sum_disjoint():
    a = minimalize(U22, [{0, 2}])
    b = minimalize(U22, [{1, 3}])
    assert gens(ideal_sum(a, b)) == [[0, 2], [1, 3]]


def test_sum_universe_mismatch():
    with pytest.raises(InvalidInput):
        ideal_sum(minimalize(U2, [{0}]), minimalize(U11, [{0}]))


def test_product_singletons():
    assert gens(ideal_product(minimalize(U11, [{0}]), minimalize(U11, [{1}]))) == [[0, 1]]


def test_product_unit_neutral():
    i = minimalize(U22, [{0, 2}])
    unit = minimalize(U22, [set()])
    assert ideal_product(i, unit) == i


def test_product_blocks():
    a = minimalize(U22, [{0}, {1}])
    b = minimalize(U22, [{2}, {3}])
    assert gens(ideal_product(a, b)) == [[0, 2], [0, 3], [1, 2], [1, 3]]


def test_product_overlapping_supports_rejected():
    with pytest.raises(InvalidInput):
        ideal_product(minimalize(U11, [{0}]), minimalize(U11, [{0}, {1}]))


def test_intersect_coprime():
    assert gens(ideal_intersect(minimalize(U11, [{0}]), minimalize(U11, [{1}]))) == [[0, 1]]


def test_intersect_idempotent():
    i = minimalize(U22, [{0, 2}, {1, 3}])
    assert ideal_intersect(i, i) == i


def test_intersect_blocks():
    a = minimalize(U22, [{0}, {1}])
    b = minimalize(U22, [{2}, {3}])
    assert gens(ideal_intersect(a, b)) == [[0, 2], [0, 3], [1, 2], [1, 3]]


def test_dual_maximal_ideal():
    assert gens(alexander_dual(minimalize(U2, [{0}, {1}]))) == [[0, 1]]


def test_dual_principal():
    assert gens(alexander_dual(minimalize(U11, [{0, 1}]))) == [[0], [1]]


def test_dual_undefined_for_zero_and_unit():
    with pytest.raises(DomainError):
        alexander_dual(minimalize(U2, []))
    with pytest.raises(DomainError):
        alexander_dual(minimalize(U2, [set()]))


def random_proper_ideal(rng):
    n = rng.randint(0, 4)
    m = rng.randint(max(0, 1 - n), 8 - n)
    universe = VariableUniverse(n, m)
    size = universe.size
    k = rng.randint(1, 6)
    raw = []
    for _ in range(k):
        card = rng.randint(1, size)
        raw.append(frozenset(rng.sample(range(size), card)))
    return minimalize(universe, raw)


def test_dual_involution_200_random():
    rng = random.Random(2024)
    for _ in range(200):
        i = random_proper_ideal(rng)
        assert alexander_dual(alexander_dual(i)) == i


def ideal_strategy(max_vars=6):
    @st.composite
    def build(draw):
        n = draw(st.integers(0, max_vars))
        m = draw(st.integers(max(0, 1 - n), max_vars - n if n < max_vars else 0))
        universe = VariableUniverse(n, m)
        size = universe.size
        supports = draw(st.lists(
            st.frozensets(st.integers(0, size - 1), min_size=1, max_size=size),
            min_size=1, max_size=6))
        return minimalize(universe, supports)

    return build()


@settings(max_examples=150, deadline=None)
@given(ideal_strategy())
def test_dual_involution_property(i):
    assert alexander_dual(alexander_dual(i)) == i


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sum_dual_rule(data):
    a = data.draw(ideal_strategy())
    supports = data.draw(st.lists(
        st.frozensets(st.integers(0, a.universe.size - 1), min_size=1,
                      max_size=a.universe.size),
        min_size=1, max_size=5))
    b = minimalize(a.universe, supports)
    s = ideal_sum(a, b)
    if s.is_zero or s.is_unit:
        return
    assert alexander_dual(s) == ideal_intersect(alexander_dual(a), alexander_dual(b))


@settings(max_examples=100, deadline=None)
@given(ideal_strategy())
def test_decomposition_reassembles(i):
    primes = minimal_primes(i)
    acc = minimalize(i.universe, [{v} for v in primes[0]])
    for p in primes[1:]:
        acc = ideal_intersect(acc, minimalize(i.universe, [{v} for v in p]))
    assert acc == i


@settings(max_examples=100, deadline=None)
@given(ideal_strategy())
def test_generators_form_antichain(i):
    d = alexander_dual(i)
    for ideal in (i, d):
        for g in ideal.generators:
            for h in ideal.generators:
                assert not (g != h and g & h == g)      # g is no proper subset of h


def test_minimal_primes_principal():
    assert [sorted(p) for p in minimal_primes(minimalize(U11, [{0, 1}]))] == [[0], [1]]


def test_minimal_primes_hitting_sets():
    i = minimalize(U22, [{0, 1}, {0, 2}])
    assert [sorted(p) for p in minimal_primes(i)] == [[0], [1, 2]]


def test_stanley_reisner_zero_ideal():
    u = VariableUniverse(3, 0)
    c = stanley_reisner_complex(minimalize(u, []))
    assert vertex_lists(c.masks) == [[0, 1, 2]]


def test_stanley_reisner_edge_ideal():
    i = minimalize(U22, [{0, 2}, {0, 3}, {1, 2}, {1, 3}])
    c = stanley_reisner_complex(i)
    assert vertex_lists(c.masks) == [[0, 1], [2, 3]]


def test_stanley_reisner_maximal_ideal():
    i = minimalize(U11, [{0}, {1}])
    c = stanley_reisner_complex(i)
    assert c.masks == (0,)


def test_stanley_reisner_unit_rejected():
    with pytest.raises(DomainError):
        stanley_reisner_complex(minimalize(U2, [set()]))


def test_ideal_of_complex_full_simplex():
    u = VariableUniverse(3, 0)
    c = stanley_reisner_complex(minimalize(u, []))
    assert ideal_of_complex(c).is_zero


def test_ideal_of_complex_two_points():
    from mixedprod import make_complex
    c = make_complex(U2, [{0}, {1}])
    assert gens(ideal_of_complex(c)) == [[0, 1]]


@settings(max_examples=100, deadline=None)
@given(ideal_strategy())
def test_stanley_reisner_round_trip(i):
    assert ideal_of_complex(stanley_reisner_complex(i)) == i


@settings(max_examples=100, deadline=None)
@given(ideal_strategy())
def test_complex_from_primes_needs_no_maximality_pass(i):
    full = frozenset(range(i.universe.size))
    primes = minimal_primes(i)
    expected = make_complex(i.universe, [full - set(p) for p in primes])
    assert stanley_reisner_complex(i).masks == expected.masks
    assert complex_of_primes(i.universe, map(i.universe.mask_of, primes)) == expected
    # the kernel returns the masks in increasing order, and the dual holds the same sets
    assert sorted(map(i.universe.mask_of, primes)) == _prime_masks(i)
    assert primes == vertex_lists(alexander_dual(i).generators)
