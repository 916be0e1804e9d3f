"""Sweep plumbing: the process pool, the enumeration and the one transversal search per spec."""

import math
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
    # the search runs once, on the summand types that define the ideal:
    # neither the spec's generators nor the dual's are listed or searched
    # by mask.  Over the spec's own n + m vertices, the primes are listed
    # once, from the prime types, only for the checks that shell the
    # facets (the shelling order, and the shelling search on a CM spec at
    # full), then one facet block per profile type for the shelling
    # order; Reisner's and Duval's checks take the facet types, and a
    # type complex's relative cells are listed over fewer x's.  So at
    # full, a spec that is neither SCM nor CM lists no prime.
    from mixedprod import products
    searched, listed = [], []
    rule, lister = kernels.transversal_types, kernels.list_types

    def refuse(*args):
        raise AssertionError("a mask search or a generator listing in check_spec")

    monkeypatch.setattr(kernels, "transversal_types",
                        lambda types, n, m: searched.append(types) or rule(types, n, m))
    monkeypatch.setattr(kernels, "minimal_hitting_sets", refuse)
    monkeypatch.setattr(products, "generator_sets", refuse)
    monkeypatch.setattr(kernels, "list_types",
                        lambda types, n, m: listed.append((types, n, m)) or lister(types, n, m))
    specs = list(enumerate_specs(2, 2, 3))
    unlisted = 0
    for spec in specs:
        searched.clear()
        listed.clear()
        record = check_spec(spec, level)
        assert searched == [spec.summands], spec
        assert "dual_generators" in record["oracle"] and not record["mismatches"]
        u, p = spec.universe, spec.profile
        shelled = "shelling_order" in record["oracle"]
        shells = shelled or level == "full" and record["verdicts"]["cohen_macaulay"]
        expected = [(rule(spec.summands, u.n, u.m), u.n, u.m)] if shells else []
        expected += [([t], u.n, u.m) for t in zip(p.q_bar, p.r_bar)] if shelled else []
        assert [call for call in listed if call[1:] == (u.n, u.m)] == expected, spec
        assert level == "full" or listed == expected, spec
        unlisted += not shells
    assert (len(specs), unlisted) == (38, 1)


def test_a_fast_check_off_the_shelling_order_lists_nothing(monkeypatch):
    # a spec that is not sequentially CM is checked on its types alone
    from mixedprod import products

    def refuse(*args, **kwargs):
        raise AssertionError("a listing in a fast check")

    for module, name in [(kernels, "list_types"), (products, "generator_sets"),
                         (products, "closed_form_primary_decomposition"),
                         (products, "facet_partition")]:
        monkeypatch.setattr(module, name, refuse)
    checked = 0
    for spec in enumerate_specs(4, 4, 5):
        if not products.is_scm_closed_form(spec).holds:
            record = check_spec(spec, "fast")
            assert record["mismatches"] == [] and record["skipped"] == []
            assert set(record["oracle"]) == set(sweep.ORACLE_CHECKS["fast"]) - {"shelling_order"}
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("level", ["fast", "full"])
def test_check_spec_lists_nothing_as_frozensets(monkeypatch, level):
    # on a spec whose closed forms match, the oracles read the closed
    # forms' types; neither the generic ideal layer's expansion nor its
    # vertex-list primes run, and of the listings the CLI prints only the
    # facet blocks are read, for the shelling order
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
    # the shelling order is read off the facet blocks, which are listed once per SCM spec
    assert sorted(calls) == sorted(["facet_partition"] * 2 + ["verify_shelling_order"] * 2)


@pytest.mark.parametrize("level", ["fast", "full"])
def test_each_closed_form_is_computed_once_per_spec(monkeypatch, level):
    # the shelling order comes from the facet blocks and the SCM verdict
    # that check_spec holds already; the blocks are listed for it alone
    from mixedprod import products
    calls = []
    for name in ("facet_partition", "is_scm_closed_form", "shelling_order"):
        def counted(*args, name=name, real=getattr(products, name)):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(products, name, counted)
    specs = list(enumerate_specs(3, 3, 3))
    shelled = 0
    for spec in specs:
        calls.clear()
        record = check_spec(spec, level)
        assert record["mismatches"] == []
        scm = "shelling_order" in record["oracle"]
        assert sorted(calls) == ["facet_partition"] * scm + ["is_scm_closed_form"]
        shelled += record["oracle"].get("shelling_order", False)
    assert shelled == sum(products.is_scm_closed_form(s).holds for s in specs) > 0


def test_a_full_check_of_an_invariant_spec_builds_no_face_table(monkeypatch, cold_caches):
    # every Stanley-Reisner complex of a spec is S_n x S_m invariant, so
    # Reisner's and Duval's checks run on its facet types: no face table,
    # no face list, no mask link and no mask relative table
    from mixedprod import complexes, homology

    def refuse(*args, **kwargs):
        raise AssertionError("a mask-path step in a full check")

    for module, name in [(complexes, "_faces_by_dim"), (homology, "_faces_by_dim"),
                         (complexes, "all_faces"), (homology, "_relative_table"),
                         (complexes, "link")]:
        monkeypatch.setattr(module, name, refuse)
    ranked = []
    real = complexes.reduced_homology_ranks
    monkeypatch.setattr(complexes, "reduced_homology_ranks",
                        lambda lk: ranked.append(lk) or real(lk))
    verdicts = set()
    for spec in enumerate_specs(4, 4, 3):
        record = check_spec(spec, "full")
        assert record["mismatches"] == [] and record["skipped"] == []
        verdicts.add((record["oracle"]["cm_reisner"], record["oracle"]["scm_duval"]))
    assert verdicts == {(True, True), (False, True), (False, False)}
    assert ranked and all(type(lk) is tuple for lk in ranked)
    assert homology._ranks_cache and all(type(k[2]) is tuple for k in homology._ranks_cache)


def test_a_second_full_check_of_a_spec_walks_and_ranks_nothing(monkeypatch, cold_caches):
    # Reisner's and Duval's checks ask each type complex at its empty
    # face alone, and the rank cache keeps its ranks: checking a spec
    # again walks no face and ranks no signature
    from mixedprod import complexes, homology
    specs = [normalize(VariableUniverse(3, 3), [(1, 2), (2, 1)]),   # neither CM nor SCM
             normalize(VariableUniverse(3, 3), [(1, 3)]),           # SCM, not CM
             normalize(VariableUniverse(3, 4), [(3, 4)])]           # CM
    first = [check_spec(spec, "full") for spec in specs]

    def refuse(*args, **kwargs):
        raise AssertionError("a face walked or a signature ranked again")

    monkeypatch.setattr(complexes, "_walk", refuse)
    monkeypatch.setattr(homology, "_ranks", refuse)
    monkeypatch.setattr(homology, "_type_cells", refuse)
    assert [check_spec(spec, "full") for spec in specs] == first
    verdicts = {(r["oracle"]["cm_reisner"], r["oracle"]["scm_duval"]) for r in first}
    assert verdicts == {(False, False), (False, True), (True, True)}


def test_primary_decomposition_check_reads_the_grouping(monkeypatch):
    # P_x and P_y swapped: the union is still the prime types, the grouping is not
    from mixedprod import products

    decompose = products.decomposition_types

    def swapped(spec):
        px, pxy, py = decompose(spec)
        return py, pxy, px

    spec = normalize(VariableUniverse(2, 2), [(1, 2), (2, 1)])
    assert check_spec(spec, "fast")["mismatches"] == []
    monkeypatch.setattr(products, "decomposition_types", swapped)
    record = check_spec(spec, "fast")
    assert record["oracle"]["primary_decomposition"] is False
    assert [mm["check"] for mm in record["mismatches"]] == ["primary_decomposition"]
    assert record["mismatches"][0]["closed_form"] == [[[0, 2]], [[1, 1]], [[2, 0]]]
    assert record["mismatches"][0]["oracle"] == [[0, 2], [1, 1], [2, 0]]


@pytest.mark.parametrize("regroup", ["moved", "swapped"])
def test_facet_partition_check_reads_the_blocks(monkeypatch, capsys, regroup):
    # one facet of block 1 moved to block 2, or blocks 1 and 2 swapped:
    # the union is still the facets, the blocks are not
    from test_products import TestFacetPartition

    from mixedprod import products

    spec = normalize(VariableUniverse(3, 3), [(1, 2), (2, 1)])
    assert check_spec(spec, "fast")["mismatches"] == []
    if regroup == "moved":
        # the check reads the profile's types, not the listing: the
        # listing test catches a facet moved to another block
        partition = products.facet_partition

        def moved(spec):
            blocks = partition(spec)
            if len(blocks) < 2:
                return blocks
            first, second, *rest = blocks
            return [first[1:], second + first[:1], *rest]

        monkeypatch.setattr(products, "facet_partition", moved)
        with pytest.raises(AssertionError):
            TestFacetPartition().test_tiles_oracle_facets()
        return

    def swapped(spec):
        p = profile(spec)
        q_bar, r_bar = list(p.q_bar), list(p.r_bar)
        q_bar[:2], r_bar[:2] = q_bar[1::-1], r_bar[1::-1]
        return products.QRProfile(p.universe, p.s_prime, tuple(q_bar), tuple(r_bar))

    profile = products.qr_profile
    monkeypatch.setattr(products, "qr_profile", swapped)
    record = check_spec(normalize(spec.universe, spec.summands), "fast")
    assert record["oracle"]["facet_partition"] is False
    # a swapped profile has no spec to round-trip to: a mismatch, not an error
    found = {mm["check"]: mm for mm in record["mismatches"]}
    assert len(found) == len(record["mismatches"])
    roundtrip, partition = found["profile_roundtrip"], found["facet_partition"]
    assert roundtrip["witness"] == repr("q_bar must be strictly increasing within 0..n")
    # {y1 y2 y3} | x_i y_j | {x1 x2 x3}, the first two swapped
    assert partition["closed_form"] == [[1, 1], [0, 3], [3, 0]]
    assert partition["oracle"] == [[0, 3], [1, 1], [3, 0]]
    # the sweep finishes with its records and reports the mismatches
    from mixedprod import cli
    assert cli.main(["sweep", "--max-n", "3", "--max-m", "3", "--json"]) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == sum(1 for _ in enumerate_specs(3, 3, 3))


def all_pairs_bound(profile, blocks):
    """The intersection bound over every pair of facets: the reference of the type rule."""
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            limit = profile.q_bar[i] + profile.r_bar[j]
            for f in blocks[i]:
                for g in blocks[j]:
                    if (f & g).bit_count() > limit:
                        return False, (i + 1, j + 1, list(kernels.bit_indices(f)),
                                       list(kernels.bit_indices(g)))
    return True, None


def test_intersection_bound_on_types():
    # blocks {0,1} | {0,2} {0,3} {1,2} {1,3} over 2 + 2 vertices: each pair
    # across the two blocks meets in one vertex, so a limit of
    # q_bar[0] + r_bar[1] = 1 holds and 0 fails
    types = [(2, 0), (1, 1)]
    blocks = [kernels.list_types([t], 2, 2) for t in types]
    for r_bar, expected in [((2, 1), (True, None)), ((2, 0), (False, (1, 2, [2, 0], [1, 1])))]:
        profile = SimpleNamespace(q_bar=(0, 1), r_bar=r_bar)
        assert _intersection_bound(profile, types) == expected
        assert all_pairs_bound(profile, blocks)[0] == expected[0]
    # a block past the profile's last has no bound: the facet partition check reports it
    profile = SimpleNamespace(q_bar=(0,), r_bar=(0,))
    assert _intersection_bound(profile, types) == (True, None)


def test_intersection_bound_on_types_gives_the_all_pairs_verdict():
    failing, pairs = 0, set()    # pairs: the failing block pairs (i, j)
    for spec in enumerate_specs(4, 4, 5):
        u, p = spec.universe, spec.profile
        types = list(zip(p.q_bar, p.r_bar))
        blocks = [kernels.list_types([t], u.n, u.m) for t in types]
        assert check_spec(spec, "fast")["oracle"]["facet_partition"], spec
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
            ok, witness = _intersection_bound(profile, types)
            assert ok == expected[0], spec
            if not ok:
                assert witness[:2] == expected[1][:2], spec
                assert list(witness[2:]) == [list(types[i - 1]) for i in witness[:2]], spec
                failing += 1
                pairs.add(witness[:2])
    assert failing > 1000 and len(pairs) >= 5


def test_strong_connectivity_rule_on_every_pure_type_complex():
    # the rule on the facet types against the ridge-graph search on the
    # listed facets
    from test_complexes import mask_complex, type_antichains

    from mixedprod.complexes import is_pure, is_strongly_connected
    from mixedprod.sweep import _strongly_connected
    verdicts = []
    for u, chosen in type_antichains(5, 5):
        masks = mask_complex(u, chosen)
        strong = is_pure(masks) and is_strongly_connected(masks)
        assert _strongly_connected(chosen) == strong, (u, chosen)
        verdicts.append(strong)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100


def test_a_shelling_order_off_the_facets_is_a_mismatch(monkeypatch):
    # a closed-form facet partition that drops the first facet of block 1:
    # the shelling order is no permutation of the facets, which the sweep
    # records and goes on
    from mixedprod import products
    partition = products.facet_partition

    def dropped(spec):
        first, *rest = partition(spec)
        return [first[1:], *rest]

    spec = normalize(VariableUniverse(2, 3), [(1, 2), (2, 1)])
    monkeypatch.setattr(products, "facet_partition", dropped)
    record = check_spec(spec, "fast")
    assert record["oracle"]["shelling_order"] is False
    assert record["mismatches"] == [{
        "spec": spec_as_dict(spec), "check": "shelling_order", "closed_form": True,
        "oracle": False, "witness": repr("order is not a permutation of the facet list")}]
    result = run_sweep(SweepConfig(2, 3, 2, "fast"))
    assert result.configs_checked == 79
    assert {mm["check"] for mm in result.mismatches} == {"shelling_order"}


def test_generator_cap_is_a_recorded_skip():
    # I6 + J6 on 11 + 11 variables has 924 generators, but its dual I6J6
    # has 462 * 462, one per facet: past the generator cap, and past the
    # vertex cap first, which is the skip recorded.  The checks on types
    # run; those that list the facets are skipped
    type_checks = set(sweep.ORACLE_CHECKS["fast"]) - {"shelling_order"}
    big_dual = normalize(VariableUniverse(11, 11), [(6, 0), (0, 6)])
    record = check_spec(big_dual, "full")
    assert set(record["oracle"]) == type_checks and record["mismatches"] == []
    assert record["skipped"] == [{"spec": spec_as_dict(big_dual), "reason": "vertex cap"}]
    # I5J5 has 462 * 462 generators, which are never listed, and its dual
    # I7 + J7 has 660: it is not sequentially CM, so at fast nothing is skipped
    big = normalize(VariableUniverse(11, 11), [(5, 5)])
    big_record = check_spec(big, "fast")
    assert set(big_record["oracle"]) == type_checks and big_record["mismatches"] == []
    assert big_record["skipped"] == []
    wide = normalize(VariableUniverse(12, 11), [(1, 1)])     # 23 vertices
    small = normalize(VariableUniverse(2, 2), [(1, 1)])
    records = [record] + [check_spec(s, "full") for s in (wide, small)]
    assert records[1]["skipped"][0]["reason"] == "vertex cap" and not records[2]["skipped"]
    assert set(records[1]["oracle"]) == type_checks
    lines = oracle_coverage(SweepConfig(12, 11, 1, "full"), records)
    assert lines[0] == "dual_generators 3 of 3 specs"
    assert lines[-4:] == ["shelling_order 0 of 1 SCM specs (vertex cap 16)",
                          "cm_reisner 1 of 3 specs (vertex cap 16)",
                          "scm_duval 1 of 3 specs (vertex cap 16)",
                          "shellable 0 of 1 CM specs (vertex cap 16)"]
    only_big = oracle_coverage(SweepConfig(11, 11, 1, "fast"), [check_spec(big_dual, "fast")])
    assert only_big[0] == "dual_generators 1 of 1 specs"
    assert only_big[-1] == "shelling_order 0 of 1 SCM specs (vertex cap 16)"


def test_the_vertex_cap_keeps_the_facets_under_the_generator_cap():
    # check_spec lists the facets of any spec within the vertex cap with
    # no generator gate.  The facets form an antichain of subsets of the
    # vertices, so by Sperner's theorem there are at most C(v, v // 2) of
    # them.  Raising the vertex cap past 19 (C(20, 10) = 184,756) needs
    # the generator gate back.
    from mixedprod import products
    assert math.comb(sweep.VERTEX_CAP, sweep.VERTEX_CAP // 2) <= products.GENERATOR_CAP


def test_full_check_on_specs_with_13_and_14_vertices():
    # a seeded panel past the exhaustive tiers: Reisner's and Duval's
    # checks on complexes of dimension up to 12 agree with the closed forms
    large = [s for s in enumerate_specs(7, 7, 8) if s.universe.n + s.universe.m >= 13]
    assert len(large) == 25734
    for spec in random.Random(3).sample(large, 20):
        record = check_spec(spec, "full")
        assert record["mismatches"] == [] and record["skipped"] == []
        assert {"cm_reisner", "scm_duval"} <= record["oracle"].keys()
