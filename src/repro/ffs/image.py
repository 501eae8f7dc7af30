"""File-system images: save and restore a simulated FFS.

Aging a paper-scale file system takes minutes; benchmarks want to run
against the *result* many times.  An image captures everything the
simulator knows — parameters, inodes (with layouts and timestamps),
directories, and the policy name — as a single JSON document.  Loading
rebuilds the allocation maps from the inode layouts, then verifies the
result with the fsck-lite checker, so a loaded file system is
bit-identical in behaviour to the one that was saved.

The format is versioned; readers reject images from a different major
version rather than guessing.

CLI: ``repro-ffs age --save-image FILE`` writes one; ``repro-ffs fsck``
and ``repro-ffs inspect`` read it.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, TextIO

from repro.errors import SimulationError
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
    json.dump(filesystem_to_document(fs), fp)


def load_filesystem(fp: TextIO, verify: bool = True) -> FileSystem:
    """Rebuild a file system from a JSON image.

    The free maps are reconstructed by re-marking every block/fragment
    referenced by the saved inodes; with ``verify`` (the default) the
    result is cross-checked by the fsck-lite checker before returning.
    """
    return filesystem_from_document(json.load(fp), verify=verify)


def filesystem_from_document(
    document: Dict[str, Any], verify: bool = True
) -> FileSystem:
    """Rebuild a file system from a document made by
    :func:`filesystem_to_document`."""
    if document.get("format") != FORMAT_NAME:
        raise SimulationError("not a repro-ffs image")
    if document.get("version") != FORMAT_VERSION:
        raise SimulationError(
            f"image version {document.get('version')} not supported "
            f"(expected {FORMAT_VERSION})"
        )
    params = FSParams(**document["params"])
    fs = FileSystem(params, policy=document["policy"])

    # Recreate inodes and re-mark their space as allocated.
    for blob in document["inodes"]:
        inode = inode_from_json(blob)
        fs.inodes[inode.ino] = inode
        cg = fs.sb.cgs[params.cg_of_inode(inode.ino)]
        cg.alloc_inode_at(inode.ino, is_dir=inode.is_dir)
        for block in inode.blocks:
            fs.sb.cg_of_block(block).alloc_block_at(block)
        for block in inode.indirect_blocks:
            fs.sb.cg_of_block(block).alloc_block_at(block)
        if inode.tail is not None:
            block, offset, nfrags = inode.tail
            fs.sb.cg_of_block(block).alloc_frags_at(block, offset, nfrags)

    # Directory table and membership.
    for blob in document["directories"]:
        directory = Directory(
            name=blob["name"], ino=blob["ino"], cg=blob["cg"]
        )
        for child in blob["children"]:
            directory.add(child)
        fs.directories[directory.name] = directory
    fs._dir_of_file.update(
        {int(ino): name for ino, name in document["file_directory"].items()}
    )
    fs._realloc_mark.update(
        {inode.ino: len(inode.blocks) for inode in fs.inodes.values()}
    )
    for cg, rotor in zip(fs.sb.cgs, document.get("rotors", [])):
        cg.rotor = rotor

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
