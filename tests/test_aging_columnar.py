"""Golden digests of the replay loop, plus its scan and health budgets.

Every observable of a replay — the final disk image, the timeline, the
result counters, the live-file map, the crash summary under fault
injection, and the emitted ``day_sample`` events — is hashed and
compared against a SHA-256 digest committed below.  The digests were
recorded when the repository still carried a second, per-record replay
loop, and both loops produced exactly these values; the one remaining
loop must keep producing them.  A change that moves a digest changes
replay results, which is never a pure refactor.
"""

import dataclasses
import hashlib
import json
import pickle

import pytest

from repro import obs
from repro.aging.generator import AgingConfig, build_workloads
from repro.aging.replay import AgingReplayer, age_file_system
from repro.aging.workload import APPEND, CREATE, Workload, WorkloadRecord
from repro.analysis.freespace import cg_health, free_space_stats
from repro.analysis.layout import optimal_pairs
from repro.faults.injector import FaultInjector
from repro.faults.plan import CrashSpec, FaultPlan
from repro.ffs import filesystem
from repro.ffs.filesystem import FileSystem, layout_pairs
from repro.ffs.image import filesystem_to_document
from repro.ffs.params import scaled_params
from repro.obs import events as obs_events
from repro.units import MB


#: A crash point known to fire inside the 25-day conftest workload.
FIRING_PLAN = FaultPlan(seed=91, crash=CrashSpec(day=3, after_block_writes=50))

#: The second aging configuration: different scale, seed and day count,
#: so the digests are not an artifact of one workload.
ALTERNATE_PARAMS = scaled_params(16 * MB)
ALTERNATE_CONFIG = AgingConfig(params=ALTERNATE_PARAMS, days=8, seed=4242)

GOLDEN = {
    "reconstructed-ffs":
        "ffb5f364c2e1d0dcba01843c2b45fa68c660d1c66976219cb47666e7c8a54656",
    "reconstructed-realloc":
        "6f5b70013acd72de7bc8312f1f2a54d298c784ae51c2ba1436d1b6fa7984e724",
    "alternate-ffs":
        "51d12dbcd8b6aa037c0d09df3ab23bba56678ca364e092c4f304bf8ca8d61eb0",
    "alternate-realloc":
        "f31d317a6408c8b0a2d19e997e7e74a28cd99aa74469023c99421f9c8262734d",
    "faulted-ffs":
        "bf863ecf87dbb6e4145afce10280ae04668ac90e3ebafd1469e966ada0c25529",
    "day-sample-events-ffs":
        "d7c6946c2046abff16a3230fa33ed5ba0bed0dc8fd7d3fa51b903b8d915c56b3",
    # The whole-block search branches the two paper policies at their
    # defaults never take: best-fit cluster search, the run-aware
    # fallback, and reallocation without the two-block quirk.
    "reconstructed-realloc-bestfit":
        "7dcc3b81b91e68aa0184dee4cdede4228de9f64971b8c28a4f32dc688f545a67",
    "reconstructed-ffs-smart":
        "18ce2091fd2a4ad908177b5a51a4e1a890cf6034ad246358b27c5ec01696647c",
    "reconstructed-realloc-eager":
        "aa09bad73aa86e211e669204fc1605b0f822eeb4e4bb0c12a05be176443c9f9b",
}

#: Attributes that make up a workload's columns.
COLUMNS = (
    "op", "time", "file_id", "size", "src_ino", "dir_id", "dir_table",
    "day_slices",
)


def sha256_json(document):
    canonical = json.dumps(document, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def replay_digest(result):
    """Digest of every observable of one replay."""
    return sha256_json({
        "image": filesystem_to_document(result.fs),
        "label": result.timeline.label,
        "samples": [dataclasses.asdict(s) for s in result.timeline.samples],
        "counters": {
            "ops_applied": result.ops_applied,
            "creates": result.creates,
            "deletes": result.deletes,
            "skipped_no_space": result.skipped_no_space,
            "bytes_written": result.bytes_written,
        },
        "live_files": sorted(result.live_files.items()),
        "crashed": result.crashed,
        "crash": None if result.crash is None else result.crash.to_dict(),
    })


def replay(workload, params, policy, faulted=False):
    faults = FaultInjector(FIRING_PLAN) if faulted else None
    return age_file_system(
        workload, params=params, policy=policy, faults=faults
    )


@pytest.fixture(scope="module")
def alternate_artifacts():
    return build_workloads(ALTERNATE_CONFIG)


class TestEngineEquivalence:
    """The replay loop reproduces the digests both historical loops gave."""

    @pytest.mark.parametrize("policy", ["ffs", "realloc"])
    def test_reconstructed_workload(
        self, tiny_params, aging_artifacts, policy
    ):
        result = replay(aging_artifacts.reconstructed, tiny_params, policy)
        assert replay_digest(result) == GOLDEN[f"reconstructed-{policy}"]

    @pytest.mark.parametrize(
        "key, policy, fit",
        [
            ("reconstructed-realloc-bestfit", "realloc", "bestfit"),
            ("reconstructed-ffs-smart", "ffs-smart", "firstfit"),
            ("reconstructed-realloc-eager", "realloc-eager", "firstfit"),
        ],
    )
    def test_search_branches(
        self, tiny_params, aging_artifacts, key, policy, fit
    ):
        params = dataclasses.replace(tiny_params, cluster_fit=fit)
        result = replay(aging_artifacts.reconstructed, params, policy)
        assert replay_digest(result) == GOLDEN[key]

    @pytest.mark.parametrize("policy", ["ffs", "realloc"])
    def test_alternate_configuration(self, alternate_artifacts, policy):
        result = replay(
            alternate_artifacts.reconstructed, ALTERNATE_PARAMS, policy
        )
        assert replay_digest(result) == GOLDEN[f"alternate-{policy}"]

    def test_faulted_run_crashes_identically(
        self, tiny_params, aging_artifacts
    ):
        result = replay(
            aging_artifacts.reconstructed, tiny_params, "ffs", faulted=True
        )
        assert result.crashed and result.crash is not None
        assert replay_digest(result) == GOLDEN["faulted-ffs"]

    def test_day_sample_events_identical(self, tiny_params, aging_artifacts):
        log = obs.EventLog()
        with obs.session(events=log):
            age_file_system(
                aging_artifacts.reconstructed, params=tiny_params,
                policy="ffs",
            )
        rows = log.rows()
        assert any(
            r["type"] == obs_events.DAY_SAMPLE for r in rows
        ), "replay with an event log emitted no day samples"
        assert sha256_json(rows) == GOLDEN["day-sample-events-ffs"]


class TestPickledWorkload:
    """Parallel workers receive workloads pickled; nothing may change."""

    def test_columns_and_replay_survive_pickling(
        self, tiny_params, aging_artifacts
    ):
        original = aging_artifacts.reconstructed
        shipped = pickle.loads(pickle.dumps(original))
        assert len(shipped) == len(original)
        for name in COLUMNS:
            assert getattr(shipped, name) == getattr(original, name), name
        result = replay(shipped, tiny_params, "ffs")
        assert replay_digest(result) == GOLDEN["reconstructed-ffs"]


class TestPairScanBudget:
    def test_single_file_append_run_is_linear(self, monkeypatch):
        # A 10k-block file grown one block at a time: the file system's
        # pair upkeep must walk only the short changed suffix per append,
        # not rescan the file.  A full rescan per append would walk
        # ~50M blocks here; hold the budget to a small linear factor.
        walked = []

        def counting(blocks, tail, start=0):
            walked.append(len(blocks) - start)
            return layout_pairs(blocks, tail, start)

        monkeypatch.setattr(filesystem, "layout_pairs", counting)
        params = scaled_params(128 * MB)
        n_blocks = 10_000
        block = params.block_size
        records = [
            WorkloadRecord(
                time=0.001, op=CREATE, file_id=1, size=block,
                src_ino=0, directory="d",
            )
        ]
        for i in range(1, n_blocks):
            records.append(
                WorkloadRecord(
                    time=0.001 + i * 1e-5, op=APPEND, file_id=1,
                    size=block, src_ino=0, directory="d",
                )
            )
        fs = FileSystem(params=params, policy="ffs")
        result = AgingReplayer(fs).replay(Workload(records))
        (inode,) = result.fs.files()
        assert inode.n_chunks() == n_blocks
        assert (fs.optimal_pairs, fs.countable_pairs) == optimal_pairs(
            inode.data_block_list()
        )
        assert n_blocks <= sum(walked) < 12 * n_blocks, (
            f"pair accounting walked {sum(walked)} blocks "
            f"for {n_blocks} appended blocks; the delta path regressed "
            "toward a per-append rescan"
        )


class TestFsHealthUnchanged:
    def test_matches_reference_formula(self, tiny_params, aging_artifacts):
        fs = FileSystem(params=tiny_params, policy="ffs")
        replayer = AgingReplayer(fs)
        replayer.replay(aging_artifacts.reconstructed)

        def reference():
            # The pre-hoist formula: per-CG capacity recomputed inline,
            # deciles from a fresh sorted copy.
            stats = free_space_stats(fs)
            per_cg = [
                round(
                    1.0
                    - cg.free_frags
                    / (
                        fs.params.blocks_per_cg * fs.params.frags_per_block
                    ),
                    4,
                )
                for cg in fs.sb.cgs
            ]
            occupancy = sorted(per_cg)
            n = len(occupancy)
            deciles = [
                round(occupancy[min(n - 1, round(i * (n - 1) / 10))], 4)
                for i in range(11)
            ]
            frag = []
            for cg in fs.sb.cgs:
                free = cg.free_blocks
                frag.append(
                    0.0 if free == 0
                    else round(1.0 - cg.max_free_run() / free, 4)
                )
            return {
                "free_runs": stats.n_runs,
                "largest_free_run": stats.largest_run,
                "clusterable_fraction": round(
                    stats.clusterable_fraction, 4
                ),
                "cg_occupancy_deciles": deciles,
                "cg_occupancy": per_cg,
                "cg_frag": frag,
            }

        first = cg_health(fs)
        assert first == reference()
        # A second call must not be polluted by the first.
        assert cg_health(fs) == first
