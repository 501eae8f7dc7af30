"""``gc_paused`` switches the cyclic collector off for a block only."""

import gc

import pytest

from repro.gcpause import gc_paused


@pytest.fixture(autouse=True)
def _collector_on_after():
    yield
    gc.enable()


def test_paused_inside_and_restored_after():
    assert gc.isenabled()
    with gc_paused():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_restored_when_the_block_raises():
    with pytest.raises(RuntimeError):
        with gc_paused():
            raise RuntimeError("boom")
    assert gc.isenabled()


def test_leaves_a_disabled_collector_disabled():
    gc.disable()
    with gc_paused():
        assert not gc.isenabled()
    assert not gc.isenabled()


def test_build_and_lfs_aging_leave_the_collector_on(tiny_params):
    from repro.aging.generator import AgingConfig, build_workloads
    from repro.lfs.params import LFSParams
    from repro.lfs.replay import age_lfs

    built = build_workloads(AgingConfig(params=tiny_params, days=3, seed=5))
    assert gc.isenabled()
    age_lfs(
        built.reconstructed,
        LFSParams(size_bytes=tiny_params.actual_size_bytes),
    )
    assert gc.isenabled()
