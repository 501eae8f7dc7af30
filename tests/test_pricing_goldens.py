"""Golden digests of the benchmark pricing path.

The digests were recorded on the single-pass pricing loop, before
``DiskModel.serve`` was split into a plan pass and a clock pass and
before the aged sequential points were shared between experiments.
They pin what that change had to keep: every measurement's per-angle
values, the per-request disk trace, and the LFS cleaner's victims.
"""

import contextlib
import hashlib
import io
import json

import pytest

from repro.bench import timing
from repro.cli import main
from repro.disk.model import DiskModel, IOKind
from repro.experiments import config, runner
from repro.lfs import filesystem as lfs_filesystem
from repro.lfs.params import LFSParams
from repro.lfs.replay import age_lfs
from repro.units import KB, MB

#: Every distinct ``measure_stream`` call of ``experiment all --preset
#: tiny`` in first-call order: ``repr((kind, nbytes, sha256 of the
#: request list, per-angle values))``, one per line.  A repeated call
#: (same requests, same values) adds nothing, so the digest holds
#: whether or not a shared point is measured twice.
MEASURE_STREAM_SHA = (
    "e8b4a56d4fbf95fb2b2b1364bd772f250b50b7d09fe681584a0ec7fbc447c4a1"
)
#: ``measure_stream`` calls of that suite: 87 before the aged points
#: were shared, less fig4's 8 tiny points that empty-vs-aged rereads
#: (two phases each).
MEASURE_STREAM_CALLS = 87 - 8 * 2

#: The ``disk`` rows, their tag stripped, of the run file that
#: ``experiment fig4 --preset tiny --run FILE --disk-rows`` writes: the
#: bytes the per-request disk trace file held before run files.
FIG4_DISK_TRACE_SHA = (
    "015f3430bda70bad2f1f7df3737a8289f4870d02ac78ea62b288ef7a65484a5c"
)

#: The segments the cleaner cleans, in order, while the small preset's
#: workload ages an LFS: ``repr`` of the list of their indices.
SMALL_LFS_VICTIMS_SHA = (
    "676a81a4b3fb8d30600e770c532b6dc3cccf9449308201cff83432318e63f24d"
)
SMALL_LFS_CLEANINGS = 1596


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli(*argv: str) -> str:
    """The stdout of one ``repro-ffs`` call, from fresh memos."""
    config.clear_caches()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    config.clear_caches()
    return out.getvalue()


@pytest.fixture(scope="module")
def tiny_suite():
    """``experiment all --preset tiny``: its stdout and one line per
    ``measure_stream`` call (see :data:`MEASURE_STREAM_SHA`)."""
    calls = []
    measure_stream = timing.BenchmarkRunner.measure_stream

    def recording(self, device, kind, requests, nbytes):
        measurement = measure_stream(self, device, kind, requests, nbytes)
        calls.append(repr((
            kind.value, nbytes, _sha(repr(list(requests))),
            list(measurement.values),
        )))
        return measurement

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(timing.BenchmarkRunner, "measure_stream", recording)
        stdout = _cli("experiment", "all", "--preset", "tiny")
    return stdout, calls


def test_suite_measurements_are_pinned(tiny_suite):
    _stdout, calls = tiny_suite
    assert len(calls) == MEASURE_STREAM_CALLS
    assert _sha("\n".join(dict.fromkeys(calls))) == MEASURE_STREAM_SHA


def test_empty_vs_aged_alone_prints_its_suite_block(tiny_suite):
    """In the suite, empty-vs-aged rereads fig4's aged points; alone it
    measures them itself."""
    suite, _calls = tiny_suite
    head = runner.experiment_header("empty-vs-aged", "tiny") + "\n\n"
    start = suite.index(head) + len(head)
    block = suite[start:suite.index("\n" + "=" * 78 + "\n", start)]
    assert block == _cli("experiment", "empty-vs-aged", "--preset", "tiny")


def test_fig4_disk_trace_is_pinned(tmp_path):
    path = tmp_path / "fig4.jsonl"
    _cli("experiment", "fig4", "--preset", "tiny", "--run", str(path),
         "--disk-rows")
    sha = hashlib.sha256()
    for line in path.read_text().splitlines():
        row = json.loads(line)
        if row.pop("row") == "disk":
            sha.update(json.dumps(row, separators=(",", ":"),
                                  sort_keys=True).encode() + b"\n")
    assert sha.hexdigest() == FIG4_DISK_TRACE_SHA


def test_small_lfs_cleaner_victims_are_pinned(monkeypatch):
    victims = []

    class Recording(lfs_filesystem.SegmentInfo):
        """A segment that notes when it goes from dirty to clean."""

        @property
        def clean(self):
            return self._clean

        @clean.setter
        def clean(self, value):
            if value and not getattr(self, "_clean", True):
                victims.append(self.index)
            self._clean = value

    monkeypatch.setattr(lfs_filesystem, "SegmentInfo", Recording)
    preset = config.get_preset("small")
    age_lfs(
        config.artifacts("small").reconstructed,
        params=LFSParams(size_bytes=preset.params.actual_size_bytes),
    )
    assert len(victims) == SMALL_LFS_CLEANINGS
    assert _sha(repr(victims)) == SMALL_LFS_VICTIMS_SHA


# ----------------------------------------------------------------------
# Plan and clock
# ----------------------------------------------------------------------

REQUESTS = [(0, 8 * KB), (8 * KB, 64 * KB), (3 * MB, 16 * KB), (72 * KB, 4 * KB)]


def _state(model):
    buf = model.buffer
    return (
        model.now_ms, model.current_cylinder, model.stats.to_dict(),
        (buf._valid, buf._start, buf._end, buf._frontier),
    )


@pytest.mark.parametrize("kind", [IOKind.READ, IOKind.WRITE])
def test_a_plan_clocked_per_angle_prices_what_serve_prices(kind):
    plan = DiskModel().plan(kind, REQUESTS)
    for angle in (0.0, 0.37, 0.999):
        clocked = DiskModel(initial_angle=angle)
        served = DiskModel(initial_angle=angle)
        assert clocked.clock(plan) == served.serve(kind, REQUESTS)
        assert _state(clocked) == _state(served)


def test_planning_leaves_the_model_alone():
    model = DiskModel(initial_angle=0.5)
    model.access(IOKind.READ, 0, 4 * KB)
    before = _state(model)
    model.plan(IOKind.READ, REQUESTS)
    assert _state(model) == before


@pytest.mark.parametrize("move", ["seek", "idle", "write", "drop_caches"])
def test_a_plan_is_refused_on_another_start_state(move):
    model = DiskModel()
    model.access(IOKind.READ, 0, 4 * KB)
    plan = model.plan(IOKind.READ, REQUESTS)
    if move == "seek":
        model.access(IOKind.READ, 200 * MB, 4 * KB)  # head and window move
    elif move == "idle":
        model.idle(5.0)  # read-ahead advances the window
    elif move == "write":
        model.access(IOKind.WRITE, 0, 4 * KB)  # the window is dropped
    else:
        model.drop_caches()
    before = _state(model)
    with pytest.raises(ValueError, match="another head or read-ahead state"):
        model.clock(plan)
    assert _state(model) == before
