"""Sweep plumbing: the process pool, the enumeration and the one transversal search per spec."""

from types import SimpleNamespace

import pytest

from mixedprod import kernels
from mixedprod.sweep import (
    SweepConfig,
    _intersection_bound,
    check_spec,
    enumerate_specs,
    run_sweep,
)


def test_workers_give_the_inline_records():
    inline = run_sweep(SweepConfig(2, 2, 2, "fast", workers=1))
    pooled = run_sweep(SweepConfig(2, 2, 2, "fast", workers=2))
    assert inline.configs_checked > 0
    assert pooled.records == inline.records


def test_summand_count_bound_past_the_block_sizes():
    # I1, J1, I1J1 and I0J1 + I1J0; a huge s bound must not cost O(s) per count
    assert len(list(enumerate_specs(1, 1, 10**9))) == 4
    assert list(enumerate_specs(3, 2, 10**9)) == list(enumerate_specs(3, 2, 3))


@pytest.mark.parametrize("level", ["fast", "full"])
def test_one_transversal_search_per_spec(monkeypatch, level):
    calls = []
    search = kernels.minimal_hitting_sets

    def counted(masks, nbits):
        calls.append(len(masks))
        return search(masks, nbits)

    monkeypatch.setattr(kernels, "minimal_hitting_sets", counted)
    specs = list(enumerate_specs(2, 2, 3))
    for spec in specs:
        before = len(calls)
        record = check_spec(spec, level)
        assert len(calls) == before + 1, spec
        assert "dual_generators" in record["oracle"] and not record["mismatches"]
    assert len(specs) == 38


def test_intersection_bound_on_masks():
    blocks = [[0b0011, 0b1100], [0b0101, 0b1010, 0b0110]]   # {0,1} {2,3} | {0,2} {1,3} {1,2}
    # every pair across the two blocks meets in one vertex: limit q_bar[0] + r_bar[1]
    assert _intersection_bound(SimpleNamespace(q_bar=(0, 1), r_bar=(2, 1)), blocks) == \
        (True, None)
    # below that, the first pair in block order is the witness, as sorted vertex lists
    assert _intersection_bound(SimpleNamespace(q_bar=(0, 1), r_bar=(2, 0)), blocks) == \
        (False, (1, 2, [0, 1], [0, 2]))
