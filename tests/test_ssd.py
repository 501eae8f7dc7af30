"""SSD substrate tests: FTL invariants, the flash timing model, the
``--backend`` factory, and backend surfacing in registry/diff.

The FTL invariants here are the ones the flash experiment's numbers
rest on: the logical→physical map stays a bijection through garbage
collection, GC conserves the live set exactly, erase counts only grow,
and every flash program is accounted to either the host or GC — so
write amplification is an identity, not an estimate.
"""

import hashlib

import pytest

from repro import obs, schemas, storage
from repro.disk.geometry import DiskGeometry
from repro.disk.model import DiskModel, IOKind
from repro.errors import InvalidRequestError, OutOfSpaceError
from repro.experiments import config, fig4, flash
from repro.experiments.runner import (
    EXPERIMENTS,
    EXTRA_EXPERIMENTS,
    render_all,
    run_one,
)
from repro.obs.diff import RunArtifacts, diff_runs, render_diff
from repro.obs.disktrace import DiskTrace
from repro.obs.report_html import build_diff_report
from repro.obs.store import summarize_manifest
from repro.ssd import MappingCache, PageMappedFTL, SSDGeometry, SSDModel
from repro.units import KB, MB


def _tiny_geo(**overrides):
    """A 20-block toy device: 10 logical blocks + 10 spares, 4 pages
    per block, so GC and out-of-space behaviour are reachable in a few
    dozen writes."""
    fields = dict(
        page_size=4096, pages_per_block=4, nblocks=20,
        logical_bytes=10 * 4 * 4096,
    )
    fields.update(overrides)
    return SSDGeometry(**fields)


def _check_map_invariants(ftl):
    """lpn↔ppn bijection + per-block valid counts match the live set."""
    assert len(ftl.page_map) == len(ftl.reverse_map)
    for lpn, ppn in ftl.page_map.items():
        assert ftl.reverse_map[ppn] == lpn
    per_block = [0] * ftl.geometry.nblocks
    for ppn in ftl.reverse_map:
        per_block[ppn // ftl.geometry.pages_per_block] += 1
    assert per_block == ftl.valid_count


def _churn_ftl(ftl, rounds=100):
    """Deterministic hot/cold overwrite mix that forces GC *migration*.

    Interleaving a hot range (rewritten every 8 writes) with a colder
    one (every 32) puts pages with different lifetimes in the same
    erase blocks, so victims still hold valid pages when collected —
    the write-amplification mechanism the flash experiment measures.
    """
    for i in range(rounds):
        ftl.write(i % 8)
        ftl.write(8 + (i % 32))


class TestFTLInvariants:
    def test_bijection_survives_gc_churn(self):
        ftl = PageMappedFTL(_tiny_geo())
        _churn_ftl(ftl)
        assert ftl.gc_runs > 0  # the pattern must actually exercise GC
        _check_map_invariants(ftl)

    def test_gc_conserves_the_live_set(self):
        ftl = PageMappedFTL(_tiny_geo())
        for lpn in range(40):
            ftl.write(lpn)
        before = dict(ftl.page_map)
        # Overwrite a quarter of the pages until GC has run repeatedly;
        # the other three quarters must survive migration unmoved in
        # the *logical* map (their physical homes may change).
        for i in range(120):
            ftl.write(i % 10)
        assert ftl.gc_runs > 0
        assert set(ftl.page_map) == set(before)
        _check_map_invariants(ftl)

    def test_erase_counts_only_grow(self):
        ftl = PageMappedFTL(_tiny_geo())
        prior = list(ftl.erase_counts)
        for i in range(200):
            ftl.write((i * 7) % 40)
            current = ftl.erase_counts
            assert all(c >= p for c, p in zip(current, prior))
            prior = list(current)
        assert sum(prior) > 0

    def test_every_program_is_host_or_gc(self):
        ftl = PageMappedFTL(_tiny_geo())
        _churn_ftl(ftl)
        assert ftl.gc_moved_pages > 0
        assert ftl.flash_programs == ftl.host_pages_written + ftl.gc_moved_pages
        assert ftl.write_amplification() == pytest.approx(
            ftl.flash_programs / ftl.host_pages_written
        )

    def test_fresh_ftl_reports_unit_write_amplification(self):
        assert PageMappedFTL(_tiny_geo()).write_amplification() == 1.0

    def test_reads_price_flash_whether_mapped_or_not(self):
        # The data plane is virtual: a read of a logically-existing
        # file must cost a data-page read even if its bytes were never
        # replayed through this device instance.
        geo = _tiny_geo()
        ftl = PageMappedFTL(geo)
        unmapped = ftl.read(3)
        ftl.write(3)
        mapped = ftl.read(3)
        assert ftl.flash_reads == 2
        assert unmapped >= geo.read_page_ms and mapped >= geo.read_page_ms

    def test_full_device_raises_out_of_space(self):
        geo = _tiny_geo()
        ftl = PageMappedFTL(geo)
        # Distinct lpns only: nothing is ever invalidated, so once the
        # free pool hits the GC threshold no sealed block is reclaimable.
        with pytest.raises(OutOfSpaceError):
            for lpn in range(geo.physical_pages):
                ftl.write(lpn)

    def test_victim_choice_is_greedy(self):
        geo = _tiny_geo()
        ftl = PageMappedFTL(geo)
        for lpn in range(40):
            ftl.write(lpn)
        # Invalidate all of one early block's pages, then trigger GC:
        # the erased block must be the emptiest one.
        for lpn in range(4):
            ftl.write(lpn)
        while ftl.gc_runs == 0:
            ftl.write(40)  # fresh lpn: shrinks the free pool only
        assert ftl.erase_counts[0] == 1


class TestMappingCache:
    def _geo(self):
        return _tiny_geo(map_cache_tpages=2, map_entries_per_tpage=4)

    def test_hit_costs_nothing(self):
        cache = MappingCache(self._geo())
        assert cache.touch(0, dirty=False) > 0.0   # cold miss
        assert cache.touch(1, dirty=False) == 0.0  # same tpage
        assert (cache.hits, cache.misses) == (1, 1)

    def test_clean_eviction_is_one_read(self):
        geo = self._geo()
        cache = MappingCache(geo)
        cache.touch(0, dirty=False)
        cache.touch(4, dirty=False)
        # Third tpage evicts the LRU (tpage 0, clean): read only.
        assert cache.touch(8, dirty=False) == geo.read_page_ms
        assert cache.writebacks == 0

    def test_dirty_eviction_pays_a_writeback(self):
        geo = self._geo()
        cache = MappingCache(geo)
        cache.touch(0, dirty=True)
        cache.touch(4, dirty=False)
        cost = cache.touch(8, dirty=False)
        assert cost == geo.read_page_ms + geo.program_page_ms
        assert cache.writebacks == 1

    def test_touch_refreshes_lru_order(self):
        geo = self._geo()
        cache = MappingCache(geo)
        cache.touch(0, dirty=True)
        cache.touch(4, dirty=False)
        cache.touch(0, dirty=False)  # tpage 0 becomes most-recent
        cache.touch(8, dirty=False)  # evicts tpage 1 (clean)
        assert cache.writebacks == 0
        assert cache.touch(0, dirty=False) == 0.0  # still resident


class TestSSDModel:
    def test_access_contract_matches_disk(self):
        model = SSDModel(_tiny_geo())
        with pytest.raises(InvalidRequestError):
            model.access(IOKind.READ, 0, 0)
        with pytest.raises(InvalidRequestError):
            model.access(IOKind.READ, 0, 65 * KB)
        with pytest.raises(InvalidRequestError):
            model.idle(-1.0)
        elapsed = model.access(IOKind.WRITE, 0, 8 * KB)
        assert elapsed > 0
        assert model.now_ms == pytest.approx(elapsed)

    def test_reset_rewinds_clock_ftl_and_stats(self):
        model = SSDModel(_tiny_geo())
        model.access(IOKind.WRITE, 0, 8 * KB)
        model.reset()
        assert model.now_ms == 0.0
        assert model.stats.writes == 0
        assert model.ftl.host_pages_written == 0

    def test_same_sequence_is_byte_identical(self):
        def drive(model):
            for i in range(60):
                model.access(IOKind.WRITE, (i * 7 % 40) * 4096, 4 * KB)
            model.access(IOKind.READ, 0, 16 * KB)
            return model.now_ms, model.stats.to_dict()

        assert drive(SSDModel(_tiny_geo())) == drive(SSDModel(_tiny_geo()))

    def test_sub_page_write_programs_a_whole_page(self):
        model = SSDModel(_tiny_geo())
        model.access(IOKind.WRITE, 0, 512)
        assert model.stats.host_pages_written == 1
        assert model.stats.bytes_written == 512

    def test_fault_hook_fires_before_any_mutation(self):
        class Injected(Exception):
            pass

        def hook(start_byte, nbytes):
            raise Injected()

        model = SSDModel(_tiny_geo(), read_fault_hook=hook)
        with pytest.raises(Injected):
            model.access(IOKind.READ, 0, 4 * KB)
        assert model.now_ms == 0.0
        assert model.stats.reads == 0
        assert model.ftl.flash_reads == 0

    def test_gc_pause_is_charged_to_the_triggering_write(self):
        model = SSDModel(_tiny_geo())
        for i in range(100):
            model.access(IOKind.WRITE, (i % 8) * 4096, 4 * KB)
            model.access(IOKind.WRITE, (8 + i % 32) * 4096, 4 * KB)
        stats = model.stats
        assert stats.gc_runs > 0 and stats.gc_ms > 0
        assert stats.flash_programs == (
            stats.host_pages_written + stats.gc_moved_pages
        )
        assert stats.write_amplification() > 1.0

    def test_stats_document_is_schema_stamped(self):
        document = SSDModel(_tiny_geo()).stats.to_document()
        assert document["schema"] == schemas.SSD_STATS
        assert document["write_amplification"] == 1.0

    def test_geometry_document_is_schema_stamped(self):
        assert _tiny_geo().to_dict()["schema"] == schemas.SSD_CONFIG

    def test_trace_rows_carry_flash_extras(self):
        with obs.session(disktrace=DiskTrace()) as (_registry, _tracer):
            ssd = SSDModel(_tiny_geo())
            ssd.access(IOKind.WRITE, 0, 4 * KB)
            disk = DiskModel()
            disk.access(IOKind.WRITE, 0, 8 * KB)
            rows = obs.disktrace_or_none().rows()
        ssd_row, disk_row = rows
        assert ssd_row["gc_ms"] == 0.0 and "map_misses" in ssd_row
        assert ssd_row["seek_ms"] == 0.0 and ssd_row["cyl"] == 0
        assert "gc_ms" not in disk_row and "map_misses" not in disk_row


class TestStorageFactory:
    def test_default_backend_builds_the_disk_model(self):
        assert storage.DEFAULT_BACKEND == "disk"
        assert isinstance(storage.make_storage(), DiskModel)

    def test_ssd_backend_matches_disk_capacity(self):
        model = storage.make_storage(backend="ssd")
        assert isinstance(model, SSDModel)
        assert model.geometry.capacity_bytes == DiskGeometry().capacity_bytes

    def test_unknown_backend_is_a_typed_error(self):
        with pytest.raises(InvalidRequestError):
            storage.make_storage(backend="tape")


#: SHA-256 of ``render_all("tiny")`` per backend, and of the tiny flash
#: study, each captured in a fresh process.
TINY_SUITE_SHA = {
    "disk": "5526e43ccca8d47e14f5f3d25f48f19e39266f7c640b8dcc554cc58b71e9fa41",
    "ssd": "ad5cef1bd81be50f0e932892516afa6e3442805bb24839ed3fe573055e6d278e",
}
TINY_FLASH_SHA = (
    "1e72d19f3b20c4936820a1bf4a025db7bedb849c5925826d9619a79ea639f224"
)


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestBackendIsAnArgument:
    """The backend flows down as an argument, so experiment memos key
    on the device and one process can run both."""

    def test_one_process_runs_both_backends(self):
        # No clear_caches() anywhere: a disk memo must never answer an
        # SSD request (or the reverse).
        assert _sha(render_all("tiny")) == TINY_SUITE_SHA["disk"]
        assert _sha(render_all("tiny", backend="ssd")) == TINY_SUITE_SHA["ssd"]
        assert _sha(render_all("tiny")) == TINY_SUITE_SHA["disk"]

    def test_flash_study_is_pinned(self):
        assert _sha(run_one("flash", "tiny").render()) == TINY_FLASH_SHA

    @pytest.mark.slow
    def test_parallel_ssd_matches_serial(self, private_cache):
        serial = render_all("tiny", backend="ssd")
        config.clear_caches()
        assert render_all("tiny", jobs=2, backend="ssd") == serial

    def test_agings_are_shared_across_backends(self, private_cache):
        fig4.run("tiny")  # ages both policies on disk, persisting them
        entries = sorted(path.name for path in private_cache.glob("*.json"))
        assert len(entries) == 2
        config.clear_caches()
        with obs.session() as (registry, _tracer):
            fig4.run("tiny", "ssd")
            snapshot = registry.snapshot()
        assert snapshot["cache.hits"]["value"] == 2
        assert "cache.writes" not in snapshot and "cache.misses" not in snapshot
        assert sorted(path.name for path in private_cache.glob("*.json")) == entries


def _ssd_metrics():
    return {
        "ssd.host_pages_written": {"type": "counter", "value": 1000},
        "ssd.flash_programs": {"type": "counter", "value": 1250},
        "ssd.flash_erases": {"type": "counter", "value": 17},
        "ssd.gc_moved_pages": {"type": "counter", "value": 250},
        "ssd.busy_ms": {"type": "counter", "value": 2000.0},
        "ssd.bytes_read": {"type": "counter", "value": 3 * MB},
        "ssd.bytes_written": {"type": "counter", "value": MB},
    }


def _manifest_dict(backend="ssd", metrics=None):
    manifest = obs.RunManifest(
        command="experiment",
        config={"preset": "tiny", "backend": backend},
    )
    manifest.started_at = 1_700_000_000.0
    manifest.finish(30.0, metrics if metrics is not None else _ssd_metrics())
    return manifest.to_dict()


class TestBackendInRegistryAndDiff:
    def test_summary_distils_flash_headlines(self):
        manifest = obs.RunManifest.from_dict(_manifest_dict())
        summary = summarize_manifest(manifest)
        assert summary["write_amplification"] == 1.25
        assert summary["flash_erases"] == 17
        assert summary["gc_moved_pages"] == 250
        assert summary["ssd_throughput_mb_s"] == 2.0

    def test_disk_run_summary_has_no_flash_keys(self):
        manifest = obs.RunManifest.from_dict(
            _manifest_dict(backend="disk", metrics={})
        )
        summary = summarize_manifest(manifest)
        assert "write_amplification" not in summary
        assert "ssd_throughput_mb_s" not in summary

    def test_diff_sides_and_render_carry_backend(self):
        a = RunArtifacts("base", _manifest_dict(backend="disk", metrics={}))
        b = RunArtifacts("cand", _manifest_dict(backend="ssd"))
        document = diff_runs(a, b)
        assert document["a"]["backend"] == "disk"
        assert document["b"]["backend"] == "ssd"
        text = render_diff(document)
        assert "backend disk" in text and "backend ssd" in text

    def test_diff_summary_surfaces_ssd_block(self):
        a = RunArtifacts("base", _manifest_dict())
        b = RunArtifacts("cand", _manifest_dict())
        document = diff_runs(a, b)
        ssd = document["summary"]["ssd"]
        assert ssd["a"]["write_amplification"] == 1.25
        assert ssd["b"]["flash_erases"] == 17

    def test_disk_only_diff_has_no_ssd_block(self):
        side = RunArtifacts("x", _manifest_dict(backend="disk", metrics={}))
        assert "ssd" not in diff_runs(side, side)["summary"]

    def test_html_report_renders_the_flash_panel(self):
        a = RunArtifacts("base", _manifest_dict())
        b = RunArtifacts("cand", _manifest_dict())
        html = build_diff_report(diff_runs(a, b))
        assert "write amplification" in html
        assert "<th>backend</th>" in html

    def test_html_report_omits_panel_for_disk_runs(self):
        side = RunArtifacts("x", _manifest_dict(backend="disk", metrics={}))
        html = build_diff_report(diff_runs(side, side))
        assert "write amplification" not in html


class TestFlashExperiment:
    def test_registered_by_name_but_not_in_all(self):
        assert EXTRA_EXPERIMENTS["flash"] is flash.run
        assert "flash" not in EXPERIMENTS  # `experiment all` is unchanged

    def _result(self):
        churn = {
            "ffs": flash.ChurnOutcome(
                host_bytes=10 * MB, write_amplification=1.085,
                flash_erases=302, gc_moved_pages=2002,
                max_erase_count=5, rounds=12,
            ),
            "realloc": flash.ChurnOutcome(
                host_bytes=10 * MB, write_amplification=1.058,
                flash_erases=292, gc_moved_pages=1365,
                max_erase_count=4, rounds=12,
            ),
        }
        throughput = {
            (policy, backend): {
                16 * KB: (100.0, 80.0 if backend == "disk" else 98.0)
            }
            for policy in ("ffs", "realloc")
            for backend in storage.BACKENDS
        }
        return flash.FlashResult(
            sizes=[16 * KB], throughput=throughput, churn=churn,
        )

    def test_degradation_math(self):
        result = self._result()
        assert result.degradation("ffs", "disk", 16 * KB) == pytest.approx(0.2)
        assert result.degradation("ffs", "ssd", 16 * KB) == pytest.approx(0.02)
        assert result.mean_degradation("ffs", "disk") == pytest.approx(0.2)

    def test_render_is_deterministic_and_complete(self):
        result = self._result()
        text = result.render()
        assert text == self._result().render()
        assert "Aging penalty by backend" in text
        assert "Rewrite churn on flash" in text
        assert "1.085x" in text and "1.058x" in text
