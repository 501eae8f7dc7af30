"""Tests for file-system image save/load."""

import io
import json

import pytest

from repro.analysis.layout import aggregate_layout_score
from repro.errors import MalformedInputError, SimulationError
from repro.ffs.check import check_filesystem
from repro.ffs.image import (
    FORMAT_VERSION,
    dump_filesystem,
    filesystem_to_document,
    load_filesystem,
)


def roundtrip(fs):
    buf = io.StringIO()
    dump_filesystem(fs, buf)
    buf.seek(0)
    return load_filesystem(buf)


class TestRoundtrip:
    def test_fresh_fs(self, fresh_fs):
        d = fresh_fs.make_directory("d")
        fresh_fs.create_file(d, 40 * 1024)
        restored = roundtrip(fresh_fs)
        check_filesystem(restored)
        assert len(restored.files()) == 1

    def test_image_text_is_the_compact_json_of_its_document(
        self, aged_ffs_copy
    ):
        buf = io.StringIO()
        dump_filesystem(aged_ffs_copy, buf)
        assert buf.getvalue() == json.dumps(
            filesystem_to_document(aged_ffs_copy)
        )

    def test_aged_fs_layout_identical(self, aged_realloc_copy):
        restored = roundtrip(aged_realloc_copy)
        assert aggregate_layout_score(restored) == aggregate_layout_score(
            aged_realloc_copy
        )
        assert restored.sb.free_frags == aged_realloc_copy.sb.free_frags
        assert restored.utilization() == aged_realloc_copy.utilization()

    def test_inode_details_preserved(self, aged_ffs_copy):
        restored = roundtrip(aged_ffs_copy)
        for ino, inode in aged_ffs_copy.inodes.items():
            other = restored.inodes[ino]
            assert other.blocks == inode.blocks
            assert other.tail == inode.tail
            assert other.size == inode.size
            assert other.mtime == inode.mtime

    def test_directory_membership_preserved(self, aged_ffs_copy):
        restored = roundtrip(aged_ffs_copy)
        for name, directory in aged_ffs_copy.directories.items():
            assert restored.directories[name].list_children() == (
                directory.list_children()
            )

    def test_policy_preserved(self, aged_realloc_copy):
        assert roundtrip(aged_realloc_copy).policy.name == "realloc"

    def test_restored_fs_usable(self, aged_ffs_copy):
        restored = roundtrip(aged_ffs_copy)
        d = next(iter(restored.directories))
        ino = restored.create_file(d, 56 * 1024)
        restored.append(ino, 8 * 1024)
        restored.delete_file(ino)
        check_filesystem(restored)


class TestFormatValidation:
    def test_wrong_format_rejected(self):
        with pytest.raises(SimulationError, match="not a repro-ffs image"):
            load_filesystem(io.StringIO('{"format": "tarball"}'))

    def test_non_json_rejected(self):
        with pytest.raises(MalformedInputError, match="invalid JSON"):
            load_filesystem(io.StringIO("not json"))

    def test_wrong_version_rejected(self, fresh_fs):
        buf = io.StringIO()
        dump_filesystem(fresh_fs, buf)
        doc = json.loads(buf.getvalue())
        doc["version"] = FORMAT_VERSION + 1
        with pytest.raises(SimulationError, match="version"):
            load_filesystem(io.StringIO(json.dumps(doc)))

    def test_corrupt_image_fails_verification(self, fresh_fs):
        d = fresh_fs.make_directory("d")
        fresh_fs.create_file(d, 40 * 1024)
        buf = io.StringIO()
        dump_filesystem(fresh_fs, buf)
        doc = json.loads(buf.getvalue())
        # Claim a bogus size for the first regular file.
        for blob in doc["inodes"]:
            if not blob["is_dir"]:
                blob["size"] += 10 * 8192
                break
        from repro.errors import ConsistencyError

        with pytest.raises(ConsistencyError):
            load_filesystem(io.StringIO(json.dumps(doc)))

    def test_double_allocation_in_image_rejected(self, fresh_fs):
        d = fresh_fs.make_directory("d")
        a = fresh_fs.create_file(d, 16 * 1024)
        b = fresh_fs.create_file(d, 16 * 1024)
        buf = io.StringIO()
        dump_filesystem(fresh_fs, buf)
        doc = json.loads(buf.getvalue())
        files = [blob for blob in doc["inodes"] if not blob["is_dir"]]
        files[1]["blocks"] = files[0]["blocks"]
        from repro.errors import OutOfSpaceError

        with pytest.raises(OutOfSpaceError):
            load_filesystem(io.StringIO(json.dumps(doc)))


class TestCliIntegration:
    def test_age_save_image_and_fsck(self, tmp_path, capsys):
        from repro.cli import main

        image = tmp_path / "aged.json"
        assert main([
            "age", "--preset", "tiny", "--policy", "ffs",
            "--save-image", str(image),
        ]) == 0
        capsys.readouterr()
        assert main(["fsck", str(image)]) == 0
        assert "clean:" in capsys.readouterr().out

    def test_fsck_detects_corruption(self, tmp_path, capsys):
        from repro.cli import main

        image = tmp_path / "aged.json"
        main([
            "age", "--preset", "tiny", "--policy", "ffs",
            "--save-image", str(image),
        ])
        doc = json.loads(image.read_text())
        for blob in doc["inodes"]:
            if not blob["is_dir"] and blob["blocks"]:
                blob["blocks"][0] = (blob["blocks"][0] + 1) % 100
                break
        image.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["fsck", str(image)]) == 1
        assert "CORRUPT" in capsys.readouterr().out


class TestDoubleClaimReport:
    """A restore that finds one block or fragment run claimed twice names
    it in one line (recorded before restores marked by runs)."""

    @pytest.fixture(scope="class")
    def aged_document(self, tmp_path_factory):
        from repro.cli import main

        image = tmp_path_factory.mktemp("double-claim") / "aged.json"
        assert main([
            "age", "--preset", "tiny", "--policy", "ffs",
            "--save-image", str(image),
        ]) == 0
        return json.loads(image.read_text())

    @staticmethod
    def _claim_twice(document, field):
        doc = json.loads(json.dumps(document))
        first, second = [
            blob for blob in doc["inodes"]
            if not blob["is_dir"] and blob[field]
        ][:2]
        if field == "blocks":
            second["blocks"][0] = first["blocks"][0]
        else:
            second["tail"] = list(first["tail"])
        return doc

    @pytest.mark.parametrize(
        "field, fault",
        [
            ("blocks", "block 1554 is not free"),
            ("tail", "fragment run (1562, 0, 6) is not free"),
        ],
    )
    def test_inspect_and_fsck_name_the_first_double_claim(
        self, aged_document, tmp_path, capsys, field, fault
    ):
        from repro.cli import main

        image = tmp_path / "twice.json"
        image.write_text(json.dumps(self._claim_twice(aged_document, field)))
        capsys.readouterr()
        assert main(["inspect", str(image)]) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"repro-ffs inspect: {fault}\n")
        assert main(["fsck", str(image)]) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == (f"CORRUPT: {fault}\n", "")
