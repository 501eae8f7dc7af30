"""The file-system facade: create, write, delete, and the flush semantics.

This is the public surface of the FFS simulator.  It owns the superblock,
the inode and directory tables, and an allocation policy, and it
implements the *write pipeline* whose structure the realloc policy hooks
into:

1. full data blocks are allocated one at a time along a preference chain
   (``ffs_blkpref``), switching cylinder groups at indirect boundaries;
2. each time a cluster window (``maxcontig`` logical blocks, never
   crossing an indirect boundary) completes, the policy gets a
   ``window_complete`` callback — this models ``cluster_write`` firing as
   dirty buffers accumulate;
3. when the file's data is complete, the policy gets a ``finalize``
   callback for the trailing partial window, and only *then* is the
   fragment tail allocated — so a reallocated file's tail chases the
   relocated blocks, which is why files up to the cluster size come out
   perfectly contiguous under realloc (Figure 5).

The simulator stores layout only, not contents; sizes and timestamps are
carried for the aging analysis.

The file system also keeps the aggregate layout score's two integers,
:attr:`FileSystem.optimal_pairs` and ``countable_pairs``, current on
every change to a block list, so a replay's daily sample reads them in
O(1); :func:`repro.ffs.check.check_filesystem` recounts them.
"""

from __future__ import annotations

from operator import sub
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import (
    FileExistsSimError,
    FileNotFoundSimError,
    InvalidRequestError,
    OutOfSpaceError,
)
from repro.ffs.alloc import AllocPolicy, make_policy
from repro.ffs.directory import Directory
from repro.ffs.inode import FragTail, Inode
from repro.ffs.params import FSParams
from repro.ffs.superblock import Superblock
from repro.units import bytes_to_frags


def layout_pairs(
    blocks: List[int], tail: Optional[FragTail], start: int = 0
) -> Tuple[int, int]:
    """:func:`repro.analysis.layout.optimal_pairs` of the data block
    list's suffix from ``start`` on (``blocks[start:]``, then the tail's
    block), without building it."""
    n = len(blocks) - start
    if n <= 0:
        return 0, 0
    if n > 1:
        rest = blocks[start:] if start else blocks
        optimal = list(map(sub, rest[1:], rest)).count(1)
    else:
        optimal = 0
    if tail is None:
        return optimal, n - 1
    return optimal + (tail[0] == blocks[-1] + 1), n


class FileSystem:
    """A simulated FFS instance under one allocation policy.

    Parameters
    ----------
    params:
        Geometry (defaults to the paper's Table 1 file system).
    policy:
        ``"ffs"`` for the original allocator, ``"realloc"`` for
        McKusick's cluster reallocation, or an :class:`AllocPolicy`
        instance for experiments with custom policies.
    enforce_reserve:
        Whether to refuse allocations that dip into the ``minfree``
        reserve, as the kernel does for ordinary users.
    """

    def __init__(
        self,
        params: Optional[FSParams] = None,
        policy: "str | AllocPolicy" = "ffs",
        enforce_reserve: bool = True,
    ) -> None:
        self.params = params if params is not None else FSParams()
        self.sb = Superblock(self.params)
        if isinstance(policy, AllocPolicy):
            self.policy = policy
        else:
            self.policy = make_policy(policy, self.sb)
        self.enforce_reserve = enforce_reserve
        self.inodes: Dict[int, Inode] = {}
        self.directories: Dict[str, Directory] = {}
        self._dir_of_file: Dict[int, str] = {}
        #: Aggregate layout-score numerator and denominator over every
        #: inode's block list (see :func:`layout_pairs`).
        self.optimal_pairs = 0
        self.countable_pairs = 0

    def __deepcopy__(self, memo: Dict[int, object]) -> "FileSystem":
        """Deep copy via layer-by-layer ``clone()`` calls.

        The experiments deep-copy an aged file system once per benchmark
        repetition, and the generic ``copy.deepcopy`` walk over millions
        of bitmap bytes and block addresses dominated their wall time.
        Each layer knows its own columns, so the whole graph copies with
        bulk container operations; only the immutable ``params`` is
        shared.  The policy's attributes are copied one level deep: its
        plain-int tallies copy by value, and its telemetry handles are
        shared, so a copy credits the same registry and event log as the
        original (those of the session live when the original was built).
        """
        policy = self.policy
        twin = FileSystem.__new__(FileSystem)
        memo[id(self)] = twin
        twin.params = self.params
        twin.sb = self.sb.clone()
        pol = type(policy).__new__(type(policy))
        pol.__dict__.update(policy.__dict__)
        pol.sb = twin.sb
        twin.policy = pol
        twin.enforce_reserve = self.enforce_reserve
        twin.inodes = {ino: inode.clone() for ino, inode in self.inodes.items()}
        twin.directories = {
            name: d.clone() for name, d in self.directories.items()
        }
        twin._dir_of_file = dict(self._dir_of_file)
        twin.optimal_pairs = self.optimal_pairs
        twin.countable_pairs = self.countable_pairs
        return twin

    # ------------------------------------------------------------------
    # Directories
    # ------------------------------------------------------------------

    def make_directory(self, name: str, when: float = 0.0) -> Directory:
        """Create a directory, placed by the ``dirpref`` rule.

        The directory consumes one inode and one fragment (its 512-byte
        directory block rounds up to a 1 KB fragment).
        """
        if name in self.directories:
            raise FileExistsSimError(f"directory {name!r} already exists")
        cg = self.sb.dirpref()
        ino = cg.alloc_inode(is_dir=True)
        inode = Inode(
            ino=ino, is_dir=True, ctime=when, mtime=when,
            dir_cg=cg.index, alloc_cg=cg.index,
        )
        tail = self.policy.alloc_tail_frags(inode, 1, None)
        inode.tail = (tail[0], tail[1], 1)
        inode.size = self.params.frag_size
        self.inodes[ino] = inode
        directory = Directory(name=name, ino=ino, cg=cg.index)
        self.directories[name] = directory
        return directory

    def directory_of(self, ino: int) -> Directory:
        """The directory containing file ``ino``."""
        return self.directories[self._dir_of_file[ino]]

    # ------------------------------------------------------------------
    # File lifecycle
    # ------------------------------------------------------------------

    def create_file(
        self, directory: "Directory | str", size: int, when: float = 0.0
    ) -> int:
        """Create a file of ``size`` bytes in ``directory``; returns its ino.

        The file's inode and first blocks are allocated in the
        directory's cylinder group, and the whole write pipeline
        (allocation, cluster windows, finalize, tail) runs to completion
        — the moral equivalent of create + write + close.
        """
        if size < 0:
            raise InvalidRequestError(f"negative file size {size}")
        if isinstance(directory, str):
            directory = self.directories[directory]
        dir_cg = directory.cg
        try:
            ino = self.sb.cgs[dir_cg].alloc_inode()
        except OutOfSpaceError:
            ino = self.sb.hashalloc(
                dir_cg,
                lambda g: g.alloc_inode() if g.nifree else None,
            )
        inode = Inode(
            ino=ino, ctime=when, mtime=when, dir_cg=dir_cg, alloc_cg=dir_cg
        )
        self.inodes[ino] = inode
        self._dir_of_file[ino] = directory.name
        directory.add(ino)
        if size:
            # A fresh inode is what ``append`` would grow: size 0, flush
            # frontier 0 and ``mtime`` already ``when``.
            try:
                self._grow(inode, size)
            except OutOfSpaceError:
                # Undo the half-made file so a failed create leaves no
                # ghost inode behind (the kernel's create path likewise
                # unwinds on ENOSPC).
                self.delete_file(ino)
                raise
        return ino

    def append(self, ino: int, nbytes: int, when: float = 0.0) -> None:
        """Grow file ``ino`` by ``nbytes`` (allocate + finalize).

        Each call models a write followed by a close, which is how both
        the aging workload and the paper's benchmarks drive files.
        """
        inode = self._live(ino)
        if nbytes <= 0:
            raise InvalidRequestError(f"append of {nbytes} bytes")
        try:
            self._grow(inode, inode.size + nbytes)
        except OutOfSpaceError:
            # A failure part-way through allocation keeps whatever was
            # allocated; clamp the recorded size to the allocated
            # capacity so the inode stays internally consistent.
            capacity = len(inode.blocks) * self.params.block_size
            if inode.tail is not None:
                capacity += inode.tail[2] * self.params.frag_size
            inode.size = min(inode.size, capacity)
            raise
        inode.mtime = max(inode.mtime, when)

    def overwrite(self, ino: int, when: float = 0.0) -> None:
        """Rewrite a file's existing bytes in place (no allocation).

        This is what the hot-file benchmark's write phase does "in order
        to preserve the layout of the original files" (Section 5.2).
        """
        inode = self._live(ino)
        inode.mtime = max(inode.mtime, when)

    def delete_file(self, ino: int, when: float = 0.0) -> None:
        """Delete file ``ino``, returning all its space to the free maps."""
        inode = self._live(ino)
        if inode.is_dir:
            raise InvalidRequestError(f"inode {ino} is a directory")
        self._free_data(inode)
        optimal, countable = layout_pairs(inode.blocks, inode.tail)
        self.optimal_pairs -= optimal
        self.countable_pairs -= countable
        # ``_live`` has proved ``ino`` in range; ``free_inode`` checks it
        # against the group's own range.
        self.sb.cgs[ino // self.params.inodes_per_cg].free_inode(ino)
        self.directories[self._dir_of_file[ino]].remove(ino)
        del self._dir_of_file[ino]
        del self.inodes[ino]

    def truncate(self, ino: int, when: float = 0.0) -> None:
        """Truncate file ``ino`` to zero length, keeping the inode."""
        inode = self._live(ino)
        self._free_data(inode)
        optimal, countable = layout_pairs(inode.blocks, inode.tail)
        self.optimal_pairs -= optimal
        self.countable_pairs -= countable
        inode.blocks = []
        inode.tail = None
        inode.indirect_blocks = []
        inode.size = 0
        inode.alloc_cg = inode.dir_cg
        inode.mtime = max(inode.mtime, when)
        inode.flushed = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def inode(self, ino: int) -> Inode:
        """The inode record for ``ino`` (raises if not live)."""
        return self._live(ino)

    def files(self) -> List[Inode]:
        """All live regular-file inodes."""
        return [i for i in self.inodes.values() if not i.is_dir]

    def files_modified_since(self, cutoff: float) -> List[Inode]:
        """Files with ``mtime >= cutoff`` — the paper's "hot" file set."""
        return [i for i in self.files() if i.mtime >= cutoff]

    def utilization(self) -> float:
        """Data-space utilization, treating the reserve as free space."""
        return self.sb.utilization()

    def recount_pairs(self) -> None:
        """Set the pair counts from every inode's block list, after an
        image load, an fsck rebuild or an injected crash's rollbacks."""
        optimal = countable = 0
        for inode in self.inodes.values():
            o, c = layout_pairs(inode.blocks, inode.tail)
            optimal += o
            countable += c
        self.optimal_pairs = optimal
        self.countable_pairs = countable

    # ------------------------------------------------------------------
    # The write pipeline
    # ------------------------------------------------------------------

    def _grow(self, inode: Inode, new_size: int) -> None:
        # Only pairs from the flush frontier on can change: the policy's
        # hooks never move a block below it.  So the pair counts move by
        # that suffix's change, linear in blocks written; a growth cut
        # short by ENOSPC leaves the frontier behind the block list.
        blocks = inode.blocks
        start = inode.flushed
        if start > len(blocks):
            start = len(blocks)
        if start:
            start -= 1
        old_optimal, old_countable = layout_pairs(blocks, inode.tail, start)
        try:
            # The layout is worked out once, here, and handed to every
            # stage that needs it: the reserve test, tail reshaping, the
            # block loop and the policy's cluster hooks.
            final_full, tail_frags = self.params.layout_for_size(new_size)
            if self.enforce_reserve:
                self._check_reserve(inode, final_full, tail_frags)
            tail = inode.tail
            if tail is not None:
                self._adjust_tail(inode, tail, final_full, tail_frags)
            # The size goes on the inode before allocation so the policy
            # can see how much data the file will hold — the kernel's
            # cluster_write has the same visibility, since the file's
            # dirty buffers are all queued before the flush.  The realloc
            # trigger condition ("second block filled") and the
            # ``ffs-smart`` fallback's remaining-blocks estimate read it.
            inode.size = new_size
            if len(blocks) < final_full:
                mark = self._alloc_full_blocks(inode, final_full, tail_frags)
            else:  # no new full block: nothing to place, no window to flush
                mark = inode.flushed
            policy = self.policy
            policy.finalize(inode, mark, final_full, tail_frags)
            inode.flushed = final_full
            if tail_frags and inode.tail is None:
                pref = (blocks[-1] + 1, 0) if blocks else None
                block, offset = policy.alloc_tail_frags(
                    inode, tail_frags, pref
                )
                inode.tail = (block, offset, tail_frags)
        finally:
            optimal, countable = layout_pairs(blocks, inode.tail, start)
            self.optimal_pairs += optimal - old_optimal
            self.countable_pairs += countable - old_countable

    def _adjust_tail(
        self, inode: Inode, tail: FragTail, final_full: int, tail_frags: int
    ) -> None:
        """Reshape the file's fragment ``tail`` for its new size.

        Three cases, as in ``ffs_realloccg``: the tail stays a tail and
        grows (extend in place, else move), the tail is promoted to a
        full block (extend to a whole block in place, else reallocate a
        block), or the tail is unchanged.  A move frees the old run
        before allocating the new one, so the new run may reuse it; if
        that allocation fails the old run is marked allocated again and
        the error propagates with the tail where it was.
        """
        block, offset, old_n = tail
        cg = self.sb.cg_of_block(block)
        if tail_frags and final_full == len(inode.blocks):
            if tail_frags <= old_n:
                return
            if cg.extend_frags(block, offset, old_n, tail_frags):
                inode.tail = (block, offset, tail_frags)
                return
            cg.free_frag_run(block, offset, old_n)
            try:
                nblock, noffset = self.policy.alloc_tail_frags(
                    inode, tail_frags, (block, offset)
                )
            except OutOfSpaceError:
                cg.alloc_frags_at(block, offset, old_n)
                raise
            inode.tail = (nblock, noffset, tail_frags)
            return
        # Promotion: the tail's bytes now need a full block.
        fpb = self.params.frags_per_block
        blocks = inode.blocks
        if offset == 0 and (old_n == fpb or cg.extend_frags(block, 0, old_n, fpb)):
            blocks.append(block)
        else:
            cg.free_frag_run(block, offset, old_n)
            pref = blocks[-1] + 1 if blocks else None
            try:
                new_block = self.policy.alloc_data_block(inode, pref)
            except OutOfSpaceError:
                cg.alloc_frags_at(block, offset, old_n)
                raise
            blocks.append(new_block)
        inode.tail = None

    def _alloc_full_blocks(
        self, inode: Inode, final_full: int, tail_frags: int
    ) -> int:
        """Allocate full blocks up to ``final_full``; return the flush frontier.

        Every logical block belongs to a pointer segment: the direct
        blocks, then each indirect block's range.  A segment's first
        block needs an indirect block, and cluster windows are
        ``maxcontig`` blocks aligned to the segment start, so a window
        never spans an indirect boundary.  Each time one completes the
        policy's ``window_complete`` hook runs on it.
        """
        params = self.params
        policy = self.policy
        blocks = inode.blocks
        ndaddr = params.ndaddr
        nindir = params.block_size // 4
        maxcontig = params.maxcontig
        maxbpg = params.maxbpg_blocks
        rotdelay = params.rotdelay
        mark = inode.flushed
        lbn = len(blocks)
        while lbn < final_full:
            pref: Optional[int]
            if lbn < ndaddr:
                seg_start = 0
                # No group switch happens among the direct blocks.
                limit = ndaddr
                pref = blocks[lbn - 1] + 1 + rotdelay if lbn else None
            else:
                seg_start = ndaddr + (lbn - ndaddr) // nindir * nindir
                # The segment's end or the next ``fs_maxbpg`` switch.
                limit = seg_start + nindir
                next_bpg = (lbn // maxbpg + 1) * maxbpg
                if next_bpg < limit:
                    limit = next_bpg
                if lbn == seg_start:
                    # Flush the window in progress before crossing the
                    # boundary, then switch groups via the indirect block.
                    if mark < lbn:
                        policy.window_complete(
                            inode, mark, lbn, final_full, tail_frags
                        )
                        mark = inode.flushed = lbn
                    indirect = policy.alloc_indirect_block(inode)
                    inode.indirect_blocks.append(indirect)
                    pref = indirect + 1
                elif lbn % maxbpg == 0:
                    # ``fs_maxbpg``: a big file moves to a fresh group
                    # every quarter-group's worth of blocks so it cannot
                    # fill its group (and starve the directory's other
                    # files).
                    if mark < lbn:
                        policy.window_complete(
                            inode, mark, lbn, final_full, tail_frags
                        )
                        mark = inode.flushed = lbn
                    if params.indirect_switches_cg:
                        inode.alloc_cg = self.sb.next_cg_for_file(inode.alloc_cg)
                    pref = None
                else:
                    pref = blocks[lbn - 1] + 1 + rotdelay
            # ``rotdelay`` > 0 is the pre-track-buffer layout policy:
            # leave a rotational gap between successive blocks so the next
            # one arrives under the head after per-block host processing.
            # Table 1 sets it to 0 (the benchmark disk has a track buffer);
            # nonzero values exist for the historical-rationale experiment.
            if pref is not None and not rotdelay:
                # Batch the preference chain: positions up to the next
                # window, segment or maxbpg boundary all want the block
                # after the previous one, so while the free run at
                # ``pref`` lasts they can be taken as one cluster without
                # changing which blocks are chosen or when the policy's
                # window hooks fire.
                stop = seg_start + ((lbn - seg_start) // maxcontig + 1) * maxcontig
                if limit < stop:
                    stop = limit
                if final_full < stop:
                    stop = final_full
                if stop - lbn > 1:
                    got = policy.alloc_data_run(inode, pref, stop - lbn)
                    if got:
                        inode.alloc_cg = params.cg_of_block(pref)
                        blocks.extend(range(pref, pref + got))
                        lbn += got
                        if (lbn - seg_start) % maxcontig == 0 and mark < lbn:
                            policy.window_complete(
                                inode, mark, lbn, final_full, tail_frags
                            )
                            mark = inode.flushed = lbn
                        continue
            block = policy.alloc_data_block(inode, pref)
            inode.alloc_cg = params.cg_of_block(block)
            blocks.append(block)
            lbn += 1
            if (lbn - seg_start) % maxcontig == 0 and mark < lbn:
                policy.window_complete(inode, mark, lbn, final_full, tail_frags)
                mark = inode.flushed = lbn
        return mark

    def _check_reserve(self, inode: Inode, final_full: int, tail_frags: int) -> None:
        params = self.params
        ndaddr = params.ndaddr
        if final_full > ndaddr:
            indirects = 1 + (final_full - ndaddr - 1) // (params.block_size // 4)
        else:
            indirects = 0
        # Less the inode's own fragments (``Inode.frags_used``, inline).
        held = len(inode.blocks) + len(inode.indirect_blocks)
        needed = (final_full + indirects - held) * params.frags_per_block + tail_frags
        if inode.tail is not None:
            needed -= inode.tail[2]
        if needed > 0 and self.sb.would_break_reserve(needed):
            raise OutOfSpaceError(
                f"allocating {needed} fragments would break the "
                f"{params.minfree:.0%} reserve"
            )

    def _free_data(self, inode: Inode) -> None:
        # One range free per physically contiguous stretch (frees commute,
        # so the state is as if freed block by block); a file of only a
        # tail, as most small files are, has nothing to sort.
        if inode.blocks:
            blocks = sorted(inode.blocks + inode.indirect_blocks)
            for cg, start, length in self.sb.runs_of(blocks):
                cg.free_block_range(start, length)
        if inode.tail is not None:
            block, offset, nfrags = inode.tail
            self.sb.cg_of_block(block).free_frag_run(block, offset, nfrags)

    def _live(self, ino: int) -> Inode:
        try:
            return self.inodes[ino]
        except KeyError:
            raise FileNotFoundSimError(f"inode {ino} is not live") from None
