"""Sweep plumbing: the process pool gives the records of the inline path."""

from mixedprod.sweep import SweepConfig, run_sweep


def test_workers_give_the_inline_records():
    inline = run_sweep(SweepConfig(2, 2, 2, "fast", workers=1))
    pooled = run_sweep(SweepConfig(2, 2, 2, "fast", workers=2))
    assert inline.configs_checked > 0
    assert pooled.records == inline.records
