"""The repair pass: classify damage, fix it, rebuild every redundant view.

Repair runs in phases, mirroring a real ``fsck``'s passes:

1. **Inode table** — re-key the table by each inode's own ``ino`` field.
2. **Claims scan** — walk inodes in ascending inode order and claim
   every fragment they reference.  A fragment claimed twice is the
   *doubly-allocated* class (a crashed delete resurrected an inode whose
   space was reused); the **earlier claimant wins** and the later inode
   is truncated at the first conflicting unit, deterministically.
3. **Inode sanity** — clamp sizes exceeding the (possibly truncated)
   capacity (the *truncated file* class, e.g. a torn append) and repair
   blocks-but-no-size inodes.
4. **Map rebuild** — throw away every cylinder group's fragment bitmap
   (its only free map) and inode usage map and rebuild them from the now
   self-consistent inode table, preserving allocation rotors.  Space the
   old maps held that no inode references is the *orphaned blocks*
   class; space inodes reference that the old maps thought free is the
   mirror image (a resurrected file whose frees were durable).
5. **Directory repair** — drop entries naming dead inodes (*dead
   dirents*), deduplicate multiple memberships, and reattach *orphaned
   inodes* (live files in no directory) to a ``lost+found`` directory
   created on the spot; if even that allocation fails the orphans are
   released instead.
6. **Verify** — the repaired system must pass
   :func:`repro.ffs.check.check_filesystem`; anything less is a bug in
   this module, not in the caller's data.

All decisions are order-deterministic (ascending inode number,
directory insertion order); repairing the same damaged file system twice
yields identical results, and repairing an undamaged one changes
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import OutOfSpaceError
from repro.ffs.bitmap import FragBitmap
from repro.ffs.check import check_filesystem
from repro.ffs.filesystem import FileSystem
from repro.ffs.image import mark_inode_space

#: Name of the directory orphaned inodes are reattached to.
LOST_FOUND = "lost+found"

FragKey = Tuple[int, int]  # (global block, fragment offset)


@dataclass
class FsckReport:
    """What the repair pass found and did, by damage class."""

    rekeyed_inodes: int = 0
    #: Inodes truncated because an earlier inode already claimed their
    #: space (each counted once, however many fragments conflicted).
    doubly_allocated: int = 0
    #: Inodes whose recorded size exceeded their block/tail capacity.
    truncated_files: int = 0
    #: Inodes with data chunks but a non-positive size.
    sizeless_files: int = 0
    #: Fragments the old maps held allocated that no inode references
    #: (freed by the rebuild).
    orphaned_frags: int = 0
    #: Fragments inodes reference that the old maps thought were free
    #: (claimed by the rebuild).
    unrecorded_frags: int = 0
    #: Directory entries naming dead inodes, removed.
    dead_dirents: int = 0
    #: Extra directory memberships of multiply-listed files, removed.
    duplicate_dirents: int = 0
    #: Live file inodes found in no directory and reattached.
    orphaned_inodes: int = 0
    #: Orphans released because ``lost+found`` could not be created.
    dropped_inodes: int = 0
    #: Set when a ``lost+found`` directory was created for orphans.
    lost_found: Optional[str] = None
    #: Human-readable notes, one per repair action (stable order).
    notes: List[str] = field(default_factory=list)

    def clean(self) -> bool:
        """True when the scan found nothing to repair."""
        return all(
            count == 0
            for count in (
                self.rekeyed_inodes,
                self.doubly_allocated,
                self.truncated_files,
                self.sizeless_files,
                self.orphaned_frags,
                self.unrecorded_frags,
                self.dead_dirents,
                self.duplicate_dirents,
                self.orphaned_inodes,
                self.dropped_inodes,
            )
        ) and self.lost_found is None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (chaos reports, ``fsck --output``)."""
        return {
            "clean": self.clean(),
            "rekeyed_inodes": self.rekeyed_inodes,
            "doubly_allocated": self.doubly_allocated,
            "truncated_files": self.truncated_files,
            "sizeless_files": self.sizeless_files,
            "orphaned_frags": self.orphaned_frags,
            "unrecorded_frags": self.unrecorded_frags,
            "dead_dirents": self.dead_dirents,
            "duplicate_dirents": self.duplicate_dirents,
            "orphaned_inodes": self.orphaned_inodes,
            "dropped_inodes": self.dropped_inodes,
            "lost_found": self.lost_found,
            "notes": list(self.notes),
        }

    def render(self) -> str:
        """Multi-line human-readable summary."""
        if self.clean():
            return "fsck: clean (nothing to repair)"
        lines = ["fsck: repaired"]
        for label, count in (
            ("inode table entries re-keyed", self.rekeyed_inodes),
            ("doubly-allocated inodes truncated", self.doubly_allocated),
            ("oversized files clamped", self.truncated_files),
            ("sizeless files repaired", self.sizeless_files),
            ("orphaned fragments freed", self.orphaned_frags),
            ("unrecorded fragments claimed", self.unrecorded_frags),
            ("dead directory entries removed", self.dead_dirents),
            ("duplicate directory entries removed", self.duplicate_dirents),
            ("orphaned inodes reattached", self.orphaned_inodes),
            ("orphaned inodes dropped", self.dropped_inodes),
        ):
            if count:
                lines.append(f"  {label}: {count}")
        if self.lost_found is not None:
            lines.append(f"  orphans attached under: {self.lost_found}")
        return "\n".join(lines)


def repair_filesystem(
    fs: FileSystem, trust_maps: bool = True, verify: bool = True
) -> FsckReport:
    """Repair ``fs`` in place; returns the :class:`FsckReport`.

    With ``trust_maps`` (the default) the pre-repair allocation maps are
    treated as the durable on-disk state and their drift from the inode
    table is reported as orphaned/unrecorded fragments.  Pass ``False``
    when the maps are known to be meaningless — e.g. a skeleton-loaded
    image, whose format never stores maps at all.

    With ``verify`` (the default) the repaired system is run through
    :func:`~repro.ffs.check.check_filesystem` before returning, so a
    successful repair is a *proven* repair.
    """
    report = FsckReport()
    _rekey_inodes(fs, report)
    _resolve_claims(fs, report)
    _clamp_sizes(fs, report)
    _rebuild_maps(fs, report, trust_maps=trust_maps)
    _repair_directories(fs, report)
    _reconcile_bookkeeping(fs)
    if verify:
        check_filesystem(fs)
    return report


# ----------------------------------------------------------------------
# Phase 1: inode table
# ----------------------------------------------------------------------


def _rekey_inodes(fs: FileSystem, report: FsckReport) -> None:
    """Make the inode table's keys match each inode's ``ino`` field."""
    if all(ino == inode.ino for ino, inode in fs.inodes.items()):
        return
    rekeyed = {}
    for ino, inode in fs.inodes.items():
        if ino != inode.ino:
            report.rekeyed_inodes += 1
            report.notes.append(
                f"inode table key {ino} re-keyed to inode.ino {inode.ino}"
            )
        rekeyed[inode.ino] = inode
    fs.inodes.clear()
    fs.inodes.update(rekeyed)


# ----------------------------------------------------------------------
# Phase 2: claims scan
# ----------------------------------------------------------------------


def _resolve_claims(fs: FileSystem, report: FsckReport) -> None:
    """Claim every referenced fragment; truncate later double-claimants.

    Claims are atomic per unit (whole block, indirect block, fragment
    tail): a unit either claims all its fragments or the claiming inode
    loses the unit.  Inodes are scanned in ascending inode order, so the
    earlier inode always keeps the space — the same file wins no matter
    what damage produced the conflict.
    """
    params = fs.params
    fpb = params.frags_per_block
    claimed: Set[FragKey] = set()
    for cg in fs.sb.cgs:
        for local in range(params.metadata_blocks_per_cg):
            for off in range(fpb):
                claimed.add((cg.base + local, off))

    def try_claim_block(block: int) -> bool:
        frags = {(block, off) for off in range(fpb)}
        if frags & claimed:
            return False
        claimed.update(frags)
        return True

    for ino in sorted(fs.inodes):
        inode = fs.inodes[ino]
        conflicted = False
        kept_blocks: List[int] = []
        for block in inode.blocks:
            if not conflicted and try_claim_block(block):
                kept_blocks.append(block)
            else:
                # First conflict truncates the file here: the blocks
                # after a lost block would be unreachable anyway.
                conflicted = True
        if conflicted:
            inode.blocks = kept_blocks
            inode.tail = None
        kept_indirects = [
            block for block in inode.indirect_blocks if try_claim_block(block)
        ]
        if len(kept_indirects) != len(inode.indirect_blocks):
            conflicted = True
            inode.indirect_blocks = kept_indirects
        if inode.tail is not None:
            block, offset, nfrags = inode.tail
            frags = {(block, off) for off in range(offset, offset + nfrags)}
            if frags & claimed:
                conflicted = True
                inode.tail = None
            else:
                claimed.update(frags)
        if conflicted:
            report.doubly_allocated += 1
            report.notes.append(
                f"inode {ino} truncated: space already claimed by an "
                f"earlier inode"
            )


# ----------------------------------------------------------------------
# Phase 3: inode sanity
# ----------------------------------------------------------------------


def _clamp_sizes(fs: FileSystem, report: FsckReport) -> None:
    params = fs.params
    for ino in sorted(fs.inodes):
        inode = fs.inodes[ino]
        capacity = len(inode.blocks) * params.block_size
        if inode.tail is not None:
            capacity += inode.tail[2] * params.frag_size
        if inode.size > capacity:
            report.truncated_files += 1
            report.notes.append(
                f"inode {ino} size {inode.size} clamped to capacity "
                f"{capacity}"
            )
            inode.size = capacity
        elif inode.size <= 0 and capacity > 0 and not inode.is_dir:
            # Blocks landed but the size update did not: the only
            # self-consistent size we can assert is the capacity.
            report.sizeless_files += 1
            report.notes.append(
                f"inode {ino} had blocks but size {inode.size}; set to "
                f"capacity {capacity}"
            )
            inode.size = capacity


# ----------------------------------------------------------------------
# Phase 4: map rebuild
# ----------------------------------------------------------------------


def _rebuild_maps(
    fs: FileSystem, report: FsckReport, trust_maps: bool
) -> None:
    """Rebuild every redundant per-group view from the inode table."""
    params = fs.params
    old_free = [cg.free_frags for cg in fs.sb.cgs]
    for cg in fs.sb.cgs:
        cg.bitmap = FragBitmap(cg.nblocks, params.frags_per_block)
        cg._inode_used = bytearray(params.inodes_per_cg)
        cg.nifree = params.inodes_per_cg
        cg.ndirs = 0
        cg.bitmap.alloc_block_range(0, params.metadata_blocks_per_cg)
        # The rotor is a hint, not redundant state: preserve it so the
        # repaired system's future allocation decisions match a system
        # that was never damaged.
    mark_inode_space(fs)
    if not trust_maps:
        return
    for index, cg in enumerate(fs.sb.cgs):
        drift = cg.free_frags - old_free[index]
        if drift > 0:
            report.orphaned_frags += drift
        elif drift < 0:
            report.unrecorded_frags += -drift
    if report.orphaned_frags:
        report.notes.append(
            f"{report.orphaned_frags} orphaned fragments freed by map "
            f"rebuild"
        )
    if report.unrecorded_frags:
        report.notes.append(
            f"{report.unrecorded_frags} referenced fragments were free in "
            f"the old maps"
        )


# ----------------------------------------------------------------------
# Phase 5: directories
# ----------------------------------------------------------------------


def _repair_directories(fs: FileSystem, report: FsckReport) -> None:
    seen: Set[int] = set()
    for directory in fs.directories.values():
        for child in directory.list_children():
            if child not in fs.inodes:
                directory.remove(child)
                report.dead_dirents += 1
                report.notes.append(
                    f"directory {directory.name!r} listed dead inode "
                    f"{child}"
                )
            elif child in seen:
                directory.remove(child)
                report.duplicate_dirents += 1
                report.notes.append(
                    f"directory {directory.name!r} duplicated inode "
                    f"{child}"
                )
            else:
                seen.add(child)
    orphans = [
        ino
        for ino in sorted(fs.inodes)
        if not fs.inodes[ino].is_dir and ino not in seen
    ]
    if not orphans:
        return
    lost_found = fs.directories.get(LOST_FOUND)
    if lost_found is None:
        try:
            lost_found = fs.make_directory(LOST_FOUND)
            report.lost_found = LOST_FOUND
        except OutOfSpaceError:
            # Not even one fragment spare: release the orphans instead
            # (their space returns through the normal free paths, so the
            # maps stay consistent).
            for ino in orphans:
                inode = fs.inodes.pop(ino)
                fs._free_data(inode)
                fs.sb.cgs[fs.params.cg_of_inode(ino)].free_inode(ino)
                report.dropped_inodes += 1
                report.notes.append(
                    f"orphan inode {ino} released (no space for "
                    f"{LOST_FOUND!r})"
                )
            return
    for ino in orphans:
        lost_found.add(ino)
        report.orphaned_inodes += 1
        report.notes.append(
            f"orphan inode {ino} reattached under {LOST_FOUND!r}"
        )


# ----------------------------------------------------------------------
# Phase 5b: derived bookkeeping
# ----------------------------------------------------------------------


def _reconcile_bookkeeping(fs: FileSystem) -> None:
    """Rebuild ``_dir_of_file``, each inode's flush frontier and the
    layout-score pair counts from repaired state."""
    fs._dir_of_file.clear()
    for directory in fs.directories.values():
        for child in directory.list_children():
            if not fs.inodes[child].is_dir:
                fs._dir_of_file[child] = directory.name
    for inode in fs.inodes.values():
        inode.flushed = 0 if inode.is_dir else len(inode.blocks)
    fs.recount_pairs()
