"""``repro.fsck`` — scan-and-repair for damaged simulated file systems.

:func:`repro.ffs.check.check_filesystem` is the *detector*: it treats
the inode and directory tables as ground truth, rebuilds every redundant
view (fragment bitmap, per-block and per-CG free counts, inode usage
map), and raises on the first mismatch.  This package
is the matching *repairer*: :func:`repair_filesystem` performs the same
scan but instead of raising it classifies the damage, fixes the
authoritative state where it is self-contradictory (doubly-claimed
fragments, sizes exceeding capacity, dead or duplicated directory
entries, orphaned inodes), rebuilds every redundant view from scratch,
and returns a typed :class:`FsckReport`.  A repaired file system always
passes ``check_filesystem``; an undamaged file system is left
byte-identical (the report comes back :meth:`FsckReport.clean`).

The damage classes are exactly those :mod:`repro.faults` can inject by
crashing an aging replay mid-flight — the two packages are designed as
a pair, and ``repro-ffs chaos`` exercises the full
inject → repair → verify loop.
"""

from __future__ import annotations

from repro.fsck.repair import LOST_FOUND, FsckReport, repair_filesystem

__all__ = [
    "LOST_FOUND",
    "FsckReport",
    "repair_filesystem",
]
