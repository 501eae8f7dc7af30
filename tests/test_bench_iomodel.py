"""Unit tests for the file-I/O pricer (cache assumptions, metadata)."""

import pytest

from repro.bench.iomodel import FileIOPricer
from repro.disk.model import DiskModel, IOKind
from repro.units import KB


@pytest.fixture
def setup(fresh_fs):
    d = fresh_fs.make_directory("d")
    ino = fresh_fs.create_file(d, 24 * KB)
    disk = DiskModel()
    pricer = FileIOPricer(fresh_fs, disk)
    return fresh_fs, d, ino, disk, pricer


class TestDataTransfers:
    def test_read_consumes_time(self, setup):
        fs, _d, ino, disk, pricer = setup
        elapsed = pricer.read_file_data(fs.inode(ino))
        assert elapsed > 0
        assert disk.stats.bytes_read == 24 * KB

    def test_write_consumes_time(self, setup):
        fs, _d, ino, disk, pricer = setup
        assert disk.serve(IOKind.WRITE, pricer.data_requests(fs.inode(ino))) > 0

    def test_partial_tail_transfers_fragment_rounded(self, fresh_fs):
        d = fresh_fs.make_directory("d")
        ino = fresh_fs.create_file(d, 8 * KB + 700)
        disk = DiskModel()
        pricer = FileIOPricer(fresh_fs, disk)
        pricer.read_file_data(fresh_fs.inode(ino))
        assert disk.stats.bytes_read == 8 * KB + KB  # tail rounds to 1 frag


class TestMetadataCaching:
    def test_inode_read_cached_within_block(self, setup):
        fs, d, ino, _disk, pricer = setup
        first = pricer.read_inode(ino)
        second = pricer.read_inode(ino)
        assert first > 0
        assert second == 0.0

    def test_neighbour_inodes_share_block(self, setup):
        fs, d, ino, _disk, pricer = setup
        other = fs.create_file(d, 8 * KB)
        pricer.read_inode(ino)
        assert pricer.read_inode(other) == 0.0  # same inode block

    def test_drop_caches_forces_reread(self, setup):
        fs, _d, ino, _disk, pricer = setup
        pricer.read_inode(ino)
        pricer.drop_caches()
        assert pricer.read_inode(ino) > 0

    def test_directory_read_cached(self, setup):
        fs, d, _ino, disk, pricer = setup
        first = pricer.directory_read_requests(d.name)
        assert first and disk.serve(IOKind.READ, first) > 0
        assert pricer.directory_read_requests(d.name) == []


class TestCreateMetadata:
    def test_two_synchronous_writes(self, setup):
        fs, _d, ino, disk, pricer = setup
        before = disk.stats.writes
        elapsed = disk.serve(IOKind.WRITE, pricer.create_metadata_requests(ino))
        assert disk.stats.writes == before + 2
        assert elapsed > 0

    def test_sync_writes_dominate_small_file_create(self, fresh_fs):
        """Section 5.1: metadata updates dominate small-file creates."""
        d = fresh_fs.make_directory("d")
        ino = fresh_fs.create_file(d, 8 * KB)
        disk = DiskModel()
        pricer = FileIOPricer(fresh_fs, disk)
        metadata_ms = disk.serve(IOKind.WRITE, pricer.create_metadata_requests(ino))
        data_ms = disk.serve(IOKind.WRITE, pricer.data_requests(fresh_fs.inode(ino)))
        assert metadata_ms > data_ms
