"""Sweep plumbing: the process pool, the enumeration and the one transversal search per spec."""

import random
from types import SimpleNamespace

import pytest

from mixedprod import InvalidInput, VariableUniverse, kernels, normalize, sweep
from mixedprod.sweep import (
    SweepConfig,
    _intersection_bound,
    check_spec,
    enumerate_specs,
    oracle_coverage,
    run_sweep,
    spec_as_dict,
)


def test_workers_give_the_inline_records():
    inline = run_sweep(SweepConfig(2, 2, 2, "fast", workers=1))
    pooled = run_sweep(SweepConfig(2, 2, 2, "fast", workers=2))
    assert inline.configs_checked > 0
    assert pooled.records == inline.records


@pytest.mark.parametrize("max_n, cores, size", [(1, 64, None), (2, 64, 3), (2, 2, 2)])
def test_pool_size_is_bounded_by_cores_and_chunks(monkeypatch, max_n, cores, size):
    # 4 specs fill one chunk of 16, 37 specs three; no process is started
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return map(fn, items)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: cores)
    result = run_sweep(SweepConfig(max_n, max_n, 2, "none", workers=5000))
    assert result.configs_checked == (4 if max_n == 1 else 37)
    assert sizes == ([size] if size else [])


@pytest.mark.parametrize("level", ["Full", "", "slow"])
def test_an_unknown_oracle_level_is_invalid_input(level):
    spec = normalize(VariableUniverse(2, 2), [(1, 1)])
    message = r"oracle level must be one of \('none', 'fast', 'full'\)"
    with pytest.raises(InvalidInput, match=message):
        check_spec(spec, level)
    with pytest.raises(InvalidInput, match=message):
        SweepConfig(oracle_level=level)


def test_summand_count_bound_past_the_block_sizes():
    # I1, J1, I1J1 and I0J1 + I1J0; a huge s bound must not cost O(s) per count
    assert len(list(enumerate_specs(1, 1, 10**9))) == 4
    assert list(enumerate_specs(3, 2, 10**9)) == list(enumerate_specs(3, 2, 3))


@pytest.mark.parametrize("level", ["fast", "full"])
def test_one_transversal_search_per_spec(monkeypatch, level):
    calls = []
    search = kernels.minimal_hitting_sets

    def counted(masks, nbits, n):
        calls.append(len(masks))
        return search(masks, nbits, n)

    monkeypatch.setattr(kernels, "minimal_hitting_sets", counted)
    specs = list(enumerate_specs(2, 2, 3))
    for spec in specs:
        before = len(calls)
        record = check_spec(spec, level)
        assert len(calls) == before + 1, spec
        assert "dual_generators" in record["oracle"] and not record["mismatches"]
    assert len(specs) == 38


@pytest.mark.parametrize("level", ["fast", "full"])
def test_check_spec_lists_nothing_as_frozensets(monkeypatch, level):
    # on a spec whose closed forms match, the oracles read the public mask
    # listings, the ones the CLI prints; neither the generic ideal layer's
    # expansion nor its vertex-list primes run
    from mixedprod import complexes, ideals, products

    def refuse(*args, **kwargs):
        raise AssertionError("a generic ideal listing in check_spec")

    for module, name in [(products, "expand_generators"), (ideals, "minimal_primes")]:
        monkeypatch.setattr(module, name, refuse)
    calls = []
    for module, name in [(products, "closed_form_primary_decomposition"),
                         (products, "facet_partition"), (complexes, "verify_shelling_order")]:
        def counted(*args, name=name, listing=getattr(module, name)):
            calls.append(name)
            return listing(*args)

        monkeypatch.setattr(module, name, counted)
    shelled = 0
    # not unmixed, unmixed, CM, and sequentially CM but not pure
    for pairs in ([(1, 2), (2, 1)], [(1, 1)], [(0, 2), (1, 1), (2, 0)], [(0, 2), (1, 1)]):
        record = check_spec(normalize(VariableUniverse(3, 3), pairs), level)
        assert record["mismatches"] == [] and record["skipped"] == []
        assert set(record["oracle"]) >= set(sweep.ORACLE_CHECKS["fast"]) - {"shelling_order"}
        shelled += record["oracle"].get("shelling_order", False)
    assert shelled == 2
    # the facet blocks are listed once more for each shelling order
    assert sorted(calls) == sorted(["closed_form_primary_decomposition"] * 4
                                   + ["facet_partition"] * 6 + ["verify_shelling_order"] * 2)


def test_primary_decomposition_check_reads_the_grouping(monkeypatch):
    # P_x and P_y swapped: the union is still the primes, the grouping is not
    from mixedprod import products

    decompose = products.closed_form_primary_decomposition

    def swapped(spec):
        d = decompose(spec)
        return products.PrimaryDecomposition(d.py, d.pxy, d.px)

    spec = normalize(VariableUniverse(2, 2), [(1, 2), (2, 1)])
    assert check_spec(spec, "fast")["mismatches"] == []
    monkeypatch.setattr(products, "closed_form_primary_decomposition", swapped)
    record = check_spec(spec, "fast")
    assert record["oracle"]["primary_decomposition"] is False
    assert [mm["check"] for mm in record["mismatches"]] == ["primary_decomposition"]
    assert record["mismatches"][0]["closed_form"] == \
        [[[2, 3]], [[0, 2], [0, 3], [1, 2], [1, 3]], [[0, 1]]]


def test_intersection_bound_on_masks():
    blocks = [[0b0011, 0b1100], [0b0101, 0b1010, 0b0110]]   # {0,1} {2,3} | {0,2} {1,3} {1,2}
    # no block is one whole type of 2 + 2 vertices, so every pair is compared;
    # each pair across the two blocks meets in one vertex: limit q_bar[0] + r_bar[1]
    assert _intersection_bound(SimpleNamespace(q_bar=(0, 1), r_bar=(2, 1)), blocks, 2, 2) == \
        (True, None)
    # below that, the first pair in block order is the witness, as sorted vertex lists
    assert _intersection_bound(SimpleNamespace(q_bar=(0, 1), r_bar=(2, 0)), blocks, 2, 2) == \
        (False, (1, 2, [0, 1], [0, 2]))
    # block 1 is invariant but holds two types: its first facet {0,1} passes, {2,3} does not
    two_types = [[0b0011, 0b1100], [0b1100]]
    assert _intersection_bound(SimpleNamespace(q_bar=(0, 1), r_bar=(2, 1)), two_types, 2, 2) == \
        (False, (1, 2, [2, 3], [2, 3]))


def all_pairs_bound(profile, blocks):
    """The intersection bound over every pair of facets: the reference of the orbit path."""
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            limit = profile.q_bar[i] + profile.r_bar[j]
            for f in blocks[i]:
                for g in blocks[j]:
                    if (f & g).bit_count() > limit:
                        return False, (i + 1, j + 1, list(kernels.bit_indices(f)),
                                       list(kernels.bit_indices(g)))
    return True, None


def test_intersection_bound_first_facets_give_the_all_pairs_witness():
    from mixedprod import products
    failing, pairs = 0, set()    # pairs: the failing block pairs (i, j)
    for spec in enumerate_specs(4, 4, 5):
        u, p = spec.universe, spec.profile
        blocks = products.facet_partition(spec)
        assert all(len(kernels.whole_types(b, u.n, u.m)) == 1 for b in blocks)
        # the spec's own profile, then one block's q or r lowered so that
        # the bound fails at the pairs that block takes part in
        profiles = [(p.q_bar, p.r_bar)]
        for k in range(len(blocks)):
            lower = [int(i == k) for i in range(len(blocks))]
            profiles += [([q - d for q, d in zip(p.q_bar, lower)], p.r_bar),
                         (p.q_bar, [r - d for r, d in zip(p.r_bar, lower)])]
        for q_bar, r_bar in profiles:
            profile = SimpleNamespace(q_bar=q_bar, r_bar=r_bar)
            expected = all_pairs_bound(profile, blocks)
            assert _intersection_bound(profile, blocks, u.n, u.m) == expected, spec
            failing += not expected[0]
            if not expected[0]:
                pairs.add(expected[1][:2])
    assert failing > 1000 and len(pairs) >= 5


def test_generator_cap_is_a_recorded_skip():
    # I5J5 on 11 + 11 variables: 462 * 462 generators, past the generator
    # cap but inside a raised vertex cap
    big = normalize(VariableUniverse(11, 11), [(5, 5)])
    record = check_spec(big, "full", cap_vertices=22)
    assert record["oracle"] == {} and record["mismatches"] == []
    assert record["skipped"] == [{"spec": spec_as_dict(big), "reason": "generator cap"}]
    # I6 + J6 has 924 generators, under the cap, but its dual I6J6 is past it
    big_dual = normalize(VariableUniverse(11, 11), [(6, 0), (0, 6)])
    dual_record = check_spec(big_dual, "full", cap_vertices=22)
    assert dual_record["oracle"] == {} and dual_record["mismatches"] == []
    assert dual_record["skipped"] == [{"spec": spec_as_dict(big_dual), "reason": "generator cap"}]
    wide = normalize(VariableUniverse(12, 11), [(1, 1)])     # 23 vertices
    small = normalize(VariableUniverse(2, 2), [(1, 1)])
    records = [record] + [check_spec(s, "full", cap_vertices=22) for s in (wide, small)]
    assert records[1]["skipped"][0]["reason"] == "vertex cap" and not records[2]["skipped"]
    lines = oracle_coverage(SweepConfig(12, 11, 1, "full", cap_vertices=22), records)
    assert lines[0] == "dual_generators 1 of 3 specs (vertex cap 22, generator cap 100000)"
    assert lines[-1] == "shellable 0 of 0 CM specs"
    only_big = oracle_coverage(SweepConfig(11, 11, 1, "fast", cap_vertices=22), records[:1])
    assert only_big[0] == "dual_generators 0 of 1 specs (generator cap 100000)"


def test_full_check_on_specs_with_13_and_14_vertices():
    # a seeded panel past the exhaustive tiers: Reisner's and Duval's
    # checks on complexes of dimension up to 12 agree with the closed forms
    large = [s for s in enumerate_specs(7, 7, 8) if s.universe.n + s.universe.m >= 13]
    assert len(large) == 25734
    for spec in random.Random(3).sample(large, 20):
        record = check_spec(spec, "full")
        assert record["mismatches"] == [] and record["skipped"] == []
        assert {"cm_reisner", "scm_duval"} <= record["oracle"].keys()
