"""Mixed product specifics: profiles, closed forms, partitions, shellings."""

import os
import random
import subprocess
import sys

import pytest

import mixedprod

from mixedprod import ideals, products
from mixedprod import (
    InvalidInput,
    MixedProductSpec,
    NonProperIdealError,
    QRProfile,
    ResourceCapExceeded,
    VariableUniverse,
    ZeroIdealError,
    alexander_dual,
    check_listing_size,
    classify,
    closed_form_dual,
    closed_form_primary_decomposition,
    expand_generators,
    facet_partition,
    is_cm_closed_form,
    is_scm_closed_form,
    is_unmixed_closed_form,
    minimal_primes,
    normalize,
    qr_profile,
    shelling_order,
    skeleton,
    skeleton_profile,
    spec_from_profile,
    stanley_reisner_complex,
    verify_shelling_order,
)
from mixedprod.kernels import bit_indices
from mixedprod.products import generator_sets
from mixedprod.sweep import enumerate_specs

U22 = VariableUniverse(2, 2)
U13 = VariableUniverse(1, 3)
U11 = VariableUniverse(1, 1)


def spec(n, m, pairs):
    return normalize(VariableUniverse(n, m), pairs)


def gens(ideal):
    return ideals.vertex_lists(ideal.generators)


def vertex_lists(masks):
    """Each bitmask as its ascending vertex list, in the order given."""
    return [list(bit_indices(h)) for h in masks]


class TestNormalize:
    def test_domination(self):
        assert spec(2, 2, [(1, 1), (2, 2)]).summands == ((1, 1),)

    def test_zero_summand_dropped(self):
        assert spec(2, 2, [(3, 1), (1, 2)]).summands == ((1, 2),)

    def test_antichain_sorted(self):
        assert spec(3, 3, [(2, 1), (1, 2)]).summands == ((1, 2), (2, 1))

    def test_unit_summand_rejected(self):
        with pytest.raises(NonProperIdealError):
            spec(2, 2, [(0, 0)])

    def test_all_zero_rejected(self):
        with pytest.raises(ZeroIdealError):
            spec(2, 2, [(3, 3)])

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            spec(2, 2, [])

    def test_negative_rejected(self):
        with pytest.raises(InvalidInput):
            spec(2, 2, [(-1, 1)])

    def test_matches_the_definition(self):
        # the summands that fit their blocks and no other such summand
        # divides, sorted; drawn with duplicates, dominated and vanishing pairs
        rng = random.Random(20121)
        for _ in range(2000):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            pairs = [(rng.randint(0, n + 1), rng.randint(0, m + 1))
                     for _ in range(rng.randint(1, 12))]
            pairs = [p for p in pairs if p != (0, 0)] or [(1, 0)]
            pairs += rng.sample(pairs, min(len(pairs), rng.randint(0, 3)))
            live = {(q, r) for q, r in pairs if q <= n and r <= m}
            if not live:
                with pytest.raises(ZeroIdealError):
                    spec(n, m, pairs)
                continue
            minimal = sorted(p for p in live if not any(
                o != p and o[0] <= p[0] and o[1] <= p[1] for o in live))
            assert spec(n, m, pairs).summands == tuple(minimal), (n, m, pairs)


class TestExpand:
    def test_single_generator(self):
        assert gens(expand_generators(spec(1, 1, [(1, 1)]))) == [[0, 1]]

    def test_bipartite_edges(self):
        assert gens(expand_generators(spec(2, 2, [(1, 1)]))) == \
            [[0, 2], [0, 3], [1, 2], [1, 3]]

    def test_two_blocks(self):
        assert gens(expand_generators(spec(2, 2, [(0, 2), (2, 0)]))) == [[0, 1], [2, 3]]

    def test_vanishing_summand_rejected(self):
        # built past ``normalize``, which would drop the vanishing summand
        s = MixedProductSpec(U22, ((0, 2), (2, 0), (3, 0)))
        with pytest.raises(InvalidInput, match="spec is not normalized"):
            expand_generators(s)

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(products, "GENERATOR_CAP", 3)
        with pytest.raises(ResourceCapExceeded, match="more than the cap of 3"):
            expand_generators(spec(2, 2, [(1, 1)]))
        monkeypatch.setattr(products, "GENERATOR_CAP", 4)
        assert len(expand_generators(spec(2, 2, [(1, 1)])).generators) == 4

    def test_cap_on_a_long_spec(self):
        # 3,999 summands: the normalization check and the count are O(s)
        long = spec(4000, 4000, [(q, 4000 - q) for q in range(1, 4000)])
        assert long.s == 3999
        with pytest.raises(ResourceCapExceeded, match="more than the cap of 100000 generators"):
            expand_generators(long)

    def test_non_normalized_rejected_under_python_O(self):
        code = ("from mixedprod import MixedProductSpec, VariableUniverse, expand_generators\n"
                "expand_generators(MixedProductSpec(VariableUniverse(2, 2), ((1, 1), (2, 2))))\n")
        src = os.path.dirname(os.path.dirname(mixedprod.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert "InvalidInput: spec is not normalized" in proc.stderr


class TestProfile:
    def test_both_positive(self):
        p = qr_profile(spec(2, 2, [(1, 1)]))
        assert (p.s_prime, p.q_bar, p.r_bar, p.sigma) == (2, (0, 2), (2, 0), (2, 2))

    def test_thin_star(self):
        p = qr_profile(spec(1, 3, [(1, 1)]))
        assert (p.s_prime, p.q_bar, p.r_bar, p.sigma) == (2, (0, 1), (3, 0), (3, 1))

    def test_maximal_ideal(self):
        p = qr_profile(spec(2, 2, [(0, 1), (1, 0)]))
        assert (p.s_prime, p.q_bar, p.r_bar, p.sigma) == (1, (0,), (0,), (0,))
        assert p.dim_ring == 0 and p.height == 4

    def test_monotone(self):
        for s in enumerate_specs(4, 4, 3):
            p = qr_profile(s)
            assert all(p.q_bar[i] < p.q_bar[i + 1] for i in range(p.s_prime - 1))
            assert all(p.r_bar[i] > p.r_bar[i + 1] for i in range(p.s_prime - 1))
            assert 0 <= p.q_bar[0] and p.q_bar[-1] <= s.universe.n
            assert 0 <= p.r_bar[-1] and p.r_bar[0] <= s.universe.m


class TestProfileInverse:
    def test_examples(self):
        assert spec_from_profile(QRProfile(U22, 2, (0, 2), (2, 0))).summands == ((1, 1),)
        assert spec_from_profile(QRProfile(U22, 1, (0,), (0,))).summands == ((0, 1), (1, 0))

    def test_round_trip_exhaustive(self):
        for s in enumerate_specs(4, 4, 5):
            assert spec_from_profile(qr_profile(s)) == s

    def test_rejects_non_monotone(self):
        with pytest.raises(InvalidInput):
            spec_from_profile(QRProfile(U22, 2, (1, 0), (2, 0)))
        with pytest.raises(InvalidInput):
            spec_from_profile(QRProfile(U22, 2, (0, 1), (0, 2)))


class TestClosedFormDual:
    def test_single_summand(self):
        assert closed_form_dual(spec(3, 2, [(2, 1)])).summands == ((0, 2), (2, 0))

    def test_principal(self):
        assert closed_form_dual(spec(1, 1, [(1, 1)])).summands == ((0, 1), (1, 0))

    def test_involution_exhaustive(self):
        for s in enumerate_specs(4, 4, 5):
            assert closed_form_dual(closed_form_dual(s)) == s

    def test_agrees_with_generic_dual_small(self):
        for s in enumerate_specs(3, 3, 3):
            assert expand_generators(closed_form_dual(s)) == \
                alexander_dual(expand_generators(s))


class TestPrimaryDecomposition:
    def test_bipartite(self):
        d = closed_form_primary_decomposition(spec(2, 2, [(1, 1)]))
        assert vertex_lists(d.components) == [[0, 1], [2, 3]]

    def test_two_summands(self):
        d = closed_form_primary_decomposition(spec(2, 2, [(1, 2), (2, 1)]))
        assert len(d.px) == 1 and len(d.pxy) == 4 and len(d.py) == 1
        assert vertex_lists(d.pxy) == [[0, 2], [1, 2], [0, 3], [1, 3]]   # increasing masks

    def test_size_check_counts_variables(self, monkeypatch):
        s = spec(2, 2, [(1, 2), (2, 1)])   # six components of two variables
        types = closed_form_dual(s).summands
        monkeypatch.setattr(products, "GENERATOR_CAP", 11)
        with pytest.raises(ResourceCapExceeded,
                           match="more than the cap of 11 variables in the components"):
            check_listing_size(s.universe, types, "components")
        monkeypatch.setattr(products, "GENERATOR_CAP", 12)
        check_listing_size(s.universe, types, "components")
        assert sum(p.bit_count() for p in closed_form_primary_decomposition(s).components) == 12

    def test_expansion_size_check_counts_variables(self, monkeypatch):
        s = spec(2, 2, [(1, 2), (2, 1)])   # four generators of three variables
        monkeypatch.setattr(products, "GENERATOR_CAP", 11)
        with pytest.raises(ResourceCapExceeded,
                           match="more than the cap of 11 variables in the generators"):
            check_listing_size(s.universe, s.summands, "generators")
        monkeypatch.setattr(products, "GENERATOR_CAP", 12)
        check_listing_size(s.universe, s.summands, "generators")
        assert sum(g.bit_count() for g in expand_generators(s).generators) == 12

    def test_listing_size_is_the_printed_size_exhaustive(self, monkeypatch):
        # the types each command passes count exactly the variables it lists
        def exact(universe, types, listed):
            total = sum(h.bit_count() for h in listed)
            with monkeypatch.context() as patch:
                patch.setattr(products, "GENERATOR_CAP", total)
                check_listing_size(universe, types, "sets")
                patch.setattr(products, "GENERATOR_CAP", total - 1)
                with pytest.raises(ResourceCapExceeded):
                    check_listing_size(universe, types, "sets")

        for s in enumerate_specs(4, 4, 3):
            p = qr_profile(s)
            exact(s.universe, closed_form_dual(s).summands,
                  closed_form_primary_decomposition(s).components)
            exact(s.universe, s.summands, generator_sets(s))
            exact(s.universe, list(zip(p.q_bar, p.r_bar)),
                  [f for block in facet_partition(s) for f in block])

    def test_matches_minimal_primes_small(self):
        # grouped by the blocks each prime meets: P_x meets no y, P_xy
        # both blocks and P_y no x; every s
        for s in enumerate_specs(4, 4, 5):
            n = s.universe.n
            primes = minimal_primes(expand_generators(s))
            d = closed_form_primary_decomposition(s)
            assert ideals.vertex_lists(d.components) == primes, s
            assert ideals.vertex_lists(d.px) == [p for p in primes if max(p) < n], s
            assert ideals.vertex_lists(d.pxy) == [p for p in primes if min(p) < n <= max(p)], s
            assert ideals.vertex_lists(d.py) == [p for p in primes if min(p) >= n], s


class TestNotNormalized:
    # built directly, past ``normalize``: comparable summands, summands
    # out of order, the unit summand, a summand past its block, a
    # negative exponent, none
    SPECS = [((1, 1), (2, 2)), ((2, 1), (1, 2)), ((0, 0), (1, 1)), ((0, 0),),
             ((0, 2), (3, 0)), ((1, -1),), ((-1, 1),), ()]
    CLOSED_FORMS = [qr_profile, closed_form_dual, closed_form_primary_decomposition,
                    is_unmixed_closed_form, is_cm_closed_form, is_scm_closed_form,
                    classify, facet_partition, shelling_order, expand_generators,
                    lambda s: skeleton_profile(s, 0)]

    @pytest.mark.parametrize("pairs", SPECS)
    def test_every_closed_form_raises(self, pairs):
        for closed_form in self.CLOSED_FORMS:
            with pytest.raises(InvalidInput, match="spec is not normalized"):
                closed_form(MixedProductSpec(U22, pairs))

    def test_computed_once(self):
        s = spec(3, 3, [(1, 2), (2, 1)])
        assert s.dual is s.dual and classify(s).profile is s.profile
        assert s.dual == closed_form_dual(s) and s.profile == qr_profile(s)


class TestUnmixed:
    def test_bipartite_unmixed(self):
        assert is_unmixed_closed_form(spec(2, 2, [(1, 1)])).holds

    def test_star_not_unmixed(self):
        v = is_unmixed_closed_form(spec(1, 3, [(1, 1)]))
        assert not v.holds and v.witness is not None

    def test_two_summands_unmixed(self):
        assert is_unmixed_closed_form(spec(2, 2, [(1, 2), (2, 1)])).holds


class TestCM:
    def test_single_edge_cm(self):
        assert is_cm_closed_form(spec(1, 1, [(1, 1)])).holds

    def test_two_disjoint_edges_not_cm(self):
        v = is_cm_closed_form(spec(2, 2, [(1, 1)]))
        assert not v.holds and v.witness == ("step", 1)

    def test_two_summands_cm(self):
        assert is_cm_closed_form(spec(2, 2, [(1, 2), (2, 1)])).holds

    def test_perturb_flips_somewhere(self):
        flipped = [s for s in enumerate_specs(2, 2, 2)
                   if is_cm_closed_form(s).holds != is_cm_closed_form(s, perturb=True).holds]
        assert flipped


class TestSCM:
    def test_star_scm(self):
        assert is_scm_closed_form(spec(1, 3, [(1, 1)])).holds

    def test_disjoint_edges_not_scm(self):
        v = is_scm_closed_form(spec(2, 2, [(1, 1)]))
        assert not v.holds and v.witness == ("step", 1)

    def test_cm_implies_scm_exhaustive(self):
        for s in enumerate_specs(4, 4, 3):
            if is_cm_closed_form(s).holds:
                assert is_scm_closed_form(s).holds
                assert is_unmixed_closed_form(s).holds

    def test_valley_witness(self):
        # sigma = (3, 2, 3): stepwise condition holds but unimodality fails
        s = spec(3, 3, [(1, 2), (2, 1)])
        p = qr_profile(s)
        assert p.sigma == (3, 2, 3)
        v = is_scm_closed_form(s)
        assert not v.holds and v.witness[0] == "valley"
        km, k, kp = v.witness[1]
        assert p.sigma[km - 1] > p.sigma[k - 1] < p.sigma[kp - 1]


class TestFacetPartition:
    def test_bipartite_blocks(self):
        blocks = facet_partition(spec(2, 2, [(1, 1)]))
        assert [vertex_lists(b) for b in blocks] == [[[2, 3]], [[0, 1]]]

    def test_block_sizes(self):
        blocks = facet_partition(spec(2, 2, [(1, 2), (2, 1)]))
        assert [len(b) for b in blocks] == [1, 4, 1]

    def test_tiles_oracle_facets(self):
        for s in enumerate_specs(3, 3, 3):
            c = stanley_reisner_complex(expand_generators(s))
            blocks = facet_partition(s)
            # each block in increasing mask order, and together exactly the facets
            assert all(b == sorted(b) for b in blocks), s
            assert sorted(f for b in blocks for f in b) == list(c.masks)


class TestShellingOrder:
    def test_worked_example(self):
        order = shelling_order(spec(2, 2, [(1, 2), (2, 1)]))
        # the (1, 1) block in increasing mask order: 0b0101, 0b0110, 0b1001, 0b1010
        assert vertex_lists(order) == [[2, 3], [0, 2], [1, 2], [0, 3], [1, 3], [0, 1]]

    def test_non_pure_star(self):
        order = shelling_order(spec(1, 3, [(1, 1)]))
        assert vertex_lists(order) == [[1, 2, 3], [0]]
        c = stanley_reisner_complex(expand_generators(spec(1, 3, [(1, 1)])))
        assert verify_shelling_order(c, order) == (True, None)

    def test_not_applicable(self):
        assert shelling_order(spec(2, 2, [(1, 1)])) is None

    def test_r_condition_only(self):
        # q jumps by 2 but r steps by 1: sigma = 2, 3, 3 peaks at block 2,
        # so the interval grows right, then left
        s = spec(3, 2, [(1, 2), (3, 1)])
        p = qr_profile(s)
        assert any(p.q_bar[i + 1] != p.q_bar[i] + 1 for i in range(p.s_prime - 1))
        assert all(p.r_bar[i + 1] == p.r_bar[i] - 1 for i in range(p.s_prime - 1))
        order = shelling_order(s)
        c = stanley_reisner_complex(expand_generators(s))
        assert verify_shelling_order(c, order) == (True, None)

    def test_all_applicable_verify(self):
        # an order exactly for the sequentially CM specs, every s
        shelled = 0
        for s in enumerate_specs(4, 4, 5):
            order = shelling_order(s)
            assert (order is not None) == is_scm_closed_form(s).holds, s
            if order is not None:
                c = stanley_reisner_complex(expand_generators(s))
                assert verify_shelling_order(c, order) == (True, None), s
                sizes = [f.bit_count() for f in order]
                assert sizes == sorted(sizes, reverse=True), s   # facet sizes never rise
                shelled += 1
        assert shelled == 671

    def test_peak_in_the_middle(self):
        # sigma = 5, 5, 6, 5, 5: neither step condition holds
        s = spec(5, 5, [(1, 5), (2, 4), (4, 2), (5, 1)])
        assert qr_profile(s).sigma == (5, 5, 6, 5, 5)
        c = stanley_reisner_complex(expand_generators(s))
        order = shelling_order(s)
        assert len(order) == 152 and verify_shelling_order(c, order) == (True, None)
        # the interval grows left on ties
        blocks = facet_partition(s)
        assert order == [f for k in (2, 1, 0, 3, 4) for f in blocks[k]]
        # sigma-descending with ties broken by block index leaves the interval
        descending = [f for k in (2, 0, 1, 3, 4) for f in blocks[k]]
        assert not verify_shelling_order(c, descending)[0]


class TestSkeletonProfile:
    def test_star_vertices(self):
        assert skeleton_profile(spec(1, 3, [(1, 1)]), 1) == ((0, 1), (1, 0))

    def test_top_level(self):
        s = spec(2, 2, [(1, 1)])
        p = qr_profile(s)
        qb, rb = skeleton_profile(s, p.dim_ring)
        assert qb == p.q_bar and rb == p.r_bar

    def test_out_of_range(self):
        with pytest.raises(InvalidInput):
            skeleton_profile(spec(1, 1, [(1, 1)]), 5)

    def test_matches_skeleton_facets(self):
        for s in enumerate_specs(3, 3, 2):
            c = stanley_reisner_complex(expand_generators(s))
            p = qr_profile(s)
            n = s.universe.n
            for l in range(0, p.dim_ring + 1):
                qb, rb = skeleton_profile(s, l)
                sk = skeleton(c, l)
                got = sorted(
                    (sum(1 for v in f if v < n), sum(1 for v in f if v >= n))
                    for f in map(bit_indices, sk.masks))
                expected = sorted(set(zip(qb, rb)))
                assert sorted(set(got)) == expected


def test_ridge_adjacency_on_unmixed_specs():
    # facets from different blocks sharing a ridge force adjacent blocks
    # with unit q/r steps
    for s in enumerate_specs(3, 3, 3):
        if not is_unmixed_closed_form(s).holds:
            continue
        p = qr_profile(s)
        blocks = facet_partition(s)
        size = p.dim_ring
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                for f in blocks[i]:
                    for g in blocks[j]:
                        if (f & g).bit_count() == size - 1:
                            assert j == i + 1
                            assert p.q_bar[j] == p.q_bar[i] + 1
                            assert p.r_bar[j] == p.r_bar[i] - 1


def test_intersection_bound_exhaustive():
    for s in enumerate_specs(3, 3, 3):
        p = qr_profile(s)
        blocks = facet_partition(s)
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                for f in blocks[i]:
                    for g in blocks[j]:
                        assert (f & g).bit_count() <= p.q_bar[i] + p.r_bar[j]

