"""File-system images: save and restore a simulated FFS.

Aging a paper-scale file system takes minutes; benchmarks want to run
against the *result* many times.  An image captures everything the
simulator knows — parameters, inodes (with layouts and timestamps),
directories, and the policy name — as a single JSON document.  Loading
rebuilds the allocation maps from the inode layouts, then verifies the
result with the fsck-lite checker, so a loaded file system is
bit-identical in behaviour to the one that was saved.

The format is versioned; readers reject images from a different major
version rather than guessing.  :func:`check_format` is the one place
that decides what a valid image document looks like: every loader
(:func:`filesystem_from_document`, :func:`skeleton_from_document` for
``fsck --repair``, the artifact cache) goes through it, and a document
it refuses raises :class:`MalformedInputError` instead of a
``KeyError`` deep in the rebuild.

CLI: ``repro-ffs age --save-image FILE`` writes one; ``repro-ffs fsck``
and ``repro-ffs inspect`` read it.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Callable, Dict, TextIO

from repro.errors import (
    ConsistencyError,
    MalformedInputError,
    is_int,
    is_number,
)
from repro.ffs.check import check_filesystem
from repro.ffs.directory import Directory
from repro.ffs.filesystem import FileSystem
from repro.ffs.inode import Inode
from repro.ffs.params import FSParams

FORMAT_NAME = "repro-ffs-image"
#: v2 added per-group allocation rotors, so a restored file system makes
#: *identical* subsequent allocation decisions to the one that was saved
#: (v1 images reset every rotor to the group's first data block).
FORMAT_VERSION = 2


def filesystem_to_document(fs: FileSystem) -> Dict[str, Any]:
    """The image of ``fs`` as a plain JSON-serializable document."""
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "policy": fs.policy.name,
        "params": dataclasses.asdict(fs.params),
        "rotors": [cg.rotor for cg in fs.sb.cgs],
        "inodes": [inode_to_json(inode) for inode in fs.inodes.values()],
        "directories": [
            {
                "name": d.name,
                "ino": d.ino,
                "cg": d.cg,
                "children": d.list_children(),
            }
            for d in fs.directories.values()
        ],
        "file_directory": dict(fs._dir_of_file),
    }


def dump_filesystem(fs: FileSystem, fp: TextIO) -> None:
    """Write ``fs`` as a JSON image."""
    # ``json.dumps`` encodes in C; ``json.dump`` streams through the
    # pure-Python encoder.  The text is the same.
    fp.write(json.dumps(filesystem_to_document(fs)))


def load_filesystem(fp: TextIO, verify: bool = True) -> FileSystem:
    """Rebuild a file system from a JSON image.

    The free maps are reconstructed by re-marking every block/fragment
    referenced by the saved inodes; with ``verify`` (the default) the
    result is cross-checked by the fsck-lite checker before returning.
    """
    return filesystem_from_document(read_document(fp), verify=verify)


def read_document(fp: TextIO) -> Dict[str, Any]:
    """Parse a JSON image file; one that is not JSON raises
    :class:`MalformedInputError` (its format is checked on rebuild)."""
    try:
        return json.load(fp)
    except ValueError as exc:  # not JSON, or not text at all
        raise MalformedInputError(
            f"not a repro-ffs image (invalid JSON: {exc})"
        ) from None


def _ints(value: object) -> bool:
    return isinstance(value, list) and all(is_int(v) for v in value)


def _tail(value: object) -> bool:
    return value is None or (
        isinstance(value, list) and len(value) == 3 and _ints(value)
    )


#: Every key a saved inode or directory object carries, with the test
#: its value must pass.
_INODE_FIELDS: Dict[str, Callable[[object], bool]] = {
    "ino": is_int, "is_dir": lambda v: isinstance(v, bool), "size": is_int,
    "ctime": is_number, "mtime": is_number, "dir_cg": is_int,
    "alloc_cg": is_int, "blocks": _ints, "tail": _tail,
    "indirect_blocks": _ints,
}
_DIRECTORY_FIELDS: Dict[str, Callable[[object], bool]] = {
    "name": lambda v: isinstance(v, str), "ino": is_int, "cg": is_int,
    "children": _ints,
}
_PARAM_KEYS = frozenset(f.name for f in dataclasses.fields(FSParams))


def _objects_with(
    items: object, fields: Dict[str, Callable[[object], bool]]
) -> bool:
    return isinstance(items, list) and all(
        isinstance(item, dict)
        and all(key in item and ok(item[key]) for key, ok in fields.items())
        for item in items
    )


def _shape_problem(document: Dict[str, Any]) -> "str | None":
    """What is wrong with an image document's sections, or None."""
    params = document.get("params")
    if not isinstance(params, dict):
        return "'params' is not an object"
    unknown = sorted(set(params) - _PARAM_KEYS)
    if unknown:
        return f"unknown params {', '.join(map(repr, unknown))}"
    if not isinstance(document.get("policy"), str):
        return "'policy' is not a string"
    if not _objects_with(document.get("inodes"), _INODE_FIELDS):
        return "'inodes' is not a list of inode objects"
    if not _objects_with(document.get("directories"), _DIRECTORY_FIELDS):
        return "'directories' is not a list of directory objects"
    files = document.get("file_directory")
    if not isinstance(files, dict) or not all(
        key.isdigit() and isinstance(name, str) for key, name in files.items()
    ):
        return "'file_directory' is not an object of inode -> directory"
    if not _ints(document.get("rotors", [])):
        return "'rotors' is not a list of integers"
    return None


def check_format(document: object) -> None:
    """Refuse a document that is not a repro-ffs image of this version,
    or whose sections have the wrong shape: ``params`` keys must be
    :class:`FSParams` fields, ``policy`` a string, ``inodes`` and
    ``directories`` lists of complete objects whose values have the
    saved types, ``file_directory`` an object of inode number ->
    directory name and ``rotors`` (optional) a list of integers."""
    if not isinstance(document, dict) or document.get("format") != FORMAT_NAME:
        raise MalformedInputError("not a repro-ffs image")
    if document.get("version") != FORMAT_VERSION:
        raise MalformedInputError(
            f"image version {document.get('version')} not supported "
            f"(expected {FORMAT_VERSION})"
        )
    problem = _shape_problem(document)
    if problem is not None:
        raise MalformedInputError(f"malformed repro-ffs image: {problem}")


def _range_problem(fs: FileSystem) -> "str | None":
    """What inode number, block address, tail or group in ``fs``'s
    inode table lies outside its parameters, or None."""
    params = fs.params
    for inode in fs.inodes.values():
        if not 0 <= inode.ino < params.ninodes:
            return f"inode {inode.ino} out of range"
        if not (0 <= inode.dir_cg < params.ncg
                and 0 <= inode.alloc_cg < params.ncg):
            return f"inode {inode.ino} names a cylinder group out of range"
        blocks = inode.blocks + inode.indirect_blocks
        if inode.tail is not None:
            block, offset, nfrags = inode.tail
            blocks = blocks + [block]
            if not (offset >= 0 and nfrags >= 1
                    and offset + nfrags <= params.frags_per_block):
                return f"inode {inode.ino} has a bad tail {list(inode.tail)}"
        for block in blocks:
            if not 0 <= block < params.nblocks:
                return f"inode {inode.ino} block {block} out of range"
    for directory in fs.directories.values():
        if not 0 <= directory.cg < params.ncg:
            return f"directory {directory.name!r} cg {directory.cg} out of range"
    return None


def skeleton_from_document(document: Dict[str, Any]) -> FileSystem:
    """Load an image *without* marking maps or verifying anything.

    :func:`filesystem_from_document` refuses corrupt images —
    re-marking a doubly-claimed block raises before any repair could
    run.  This loader builds the skeleton only (parameters, inodes,
    directories, rotors), leaving every allocation map empty; follow it
    with ``repro.fsck.repair_filesystem(fs, trust_maps=False)`` to
    rebuild the maps and repair whatever the image got wrong.  An inode
    number, block address or group outside the parameters raises
    :class:`MalformedInputError`: no repair can place it.
    """
    check_format(document)
    try:
        params = FSParams(**document["params"])
        fs = FileSystem(params, policy=document["policy"])
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(
            f"malformed repro-ffs image: {exc}"
        ) from None
    for blob in document["inodes"]:
        inode = inode_from_json(blob)
        fs.inodes[inode.ino] = inode
    for blob in document["directories"]:
        directory = Directory(
            name=blob["name"], ino=blob["ino"], cg=blob["cg"]
        )
        for child in blob["children"]:
            directory.add(child)
        fs.directories[directory.name] = directory
    problem = _range_problem(fs)
    if problem is not None:
        raise MalformedInputError(f"malformed repro-ffs image: {problem}")
    fs.recount_pairs()
    fs._dir_of_file.update(
        {int(ino): name for ino, name in document["file_directory"].items()}
    )
    for cg, rotor in zip(fs.sb.cgs, document.get("rotors", [])):
        cg.rotor = rotor
    return fs


def mark_inode_space(fs: FileSystem) -> None:
    """Mark every inode, and the blocks and fragments it references,
    allocated in its cylinder group's maps (which must start empty), its
    blocks a contiguous stretch at a time.  A block or fragment run
    claimed twice is named by the group's refusal."""
    sb = fs.sb
    for inode in fs.inodes.values():
        sb.cgs[fs.params.cg_of_inode(inode.ino)].alloc_inode_at(
            inode.ino, is_dir=inode.is_dir
        )
        for cg, start, length in sb.runs_of(
            sorted(inode.blocks + inode.indirect_blocks)
        ):
            cg.alloc_block_at(start, length)
        if inode.tail is not None:
            block, offset, nfrags = inode.tail
            sb.cg_of_block(block).alloc_frags_at(block, offset, nfrags)


def filesystem_from_document(
    document: Dict[str, Any], verify: bool = True
) -> FileSystem:
    """Rebuild a file system from a document made by
    :func:`filesystem_to_document`: the skeleton, then every inode's
    space re-marked in the free maps."""
    fs = skeleton_from_document(document)
    if len(fs.inodes) != len(document["inodes"]):
        raise ConsistencyError("image lists an inode number twice")
    mark_inode_space(fs)
    for inode in fs.inodes.values():
        inode.flushed = len(inode.blocks)
    if verify:
        check_filesystem(fs)
    return fs


def inode_to_json(inode: Inode) -> Dict[str, Any]:
    return {
        "ino": inode.ino,
        "is_dir": inode.is_dir,
        "size": inode.size,
        "ctime": inode.ctime,
        "mtime": inode.mtime,
        "dir_cg": inode.dir_cg,
        "alloc_cg": inode.alloc_cg,
        "blocks": inode.blocks,
        "tail": list(inode.tail) if inode.tail is not None else None,
        "indirect_blocks": inode.indirect_blocks,
    }


def inode_from_json(blob: Dict[str, Any]) -> Inode:
    return Inode(
        ino=blob["ino"],
        is_dir=blob["is_dir"],
        size=blob["size"],
        ctime=blob["ctime"],
        mtime=blob["mtime"],
        dir_cg=blob["dir_cg"],
        alloc_cg=blob["alloc_cg"],
        blocks=list(blob["blocks"]),
        tail=tuple(blob["tail"]) if blob["tail"] is not None else None,
        indirect_blocks=list(blob["indirect_blocks"]),
    )
