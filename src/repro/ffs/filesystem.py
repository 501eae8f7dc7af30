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
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.errors import (
    FileExistsSimError,
    FileNotFoundSimError,
    InvalidRequestError,
    OutOfSpaceError,
)
from repro.ffs.alloc import AllocPolicy, make_policy
from repro.ffs.directory import Directory
from repro.ffs.inode import Inode
from repro.ffs.params import FSParams
from repro.ffs.superblock import Superblock
from repro.units import bytes_to_frags


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
        #: Per-inode high-water mark of cluster windows already handed to
        #: the policy (the "flushed" frontier).
        self._realloc_mark: Dict[int, int] = {}

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
        twin._realloc_mark = dict(self._realloc_mark)
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
        cg = self.sb.cgs[directory.cg]
        try:
            ino = cg.alloc_inode()
        except OutOfSpaceError:
            ino = self.sb.hashalloc(
                directory.cg,
                lambda g: g.alloc_inode() if g.nifree else None,
            )
        inode = Inode(
            ino=ino, ctime=when, mtime=when,
            dir_cg=directory.cg, alloc_cg=directory.cg,
        )
        self.inodes[ino] = inode
        self._dir_of_file[ino] = directory.name
        directory.add(ino)
        self._realloc_mark[ino] = 0
        if size:
            try:
                self.append(ino, size, when=when)
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
        self.sb.cgs[self.params.cg_of_inode(ino)].free_inode(ino)
        directory = self.directory_of(ino)
        directory.remove(ino)
        del self._dir_of_file[ino]
        del self.inodes[ino]
        self._realloc_mark.pop(ino, None)

    def truncate(self, ino: int, when: float = 0.0) -> None:
        """Truncate file ``ino`` to zero length, keeping the inode."""
        inode = self._live(ino)
        self._free_data(inode)
        inode.blocks = []
        inode.tail = None
        inode.indirect_blocks = []
        inode.size = 0
        inode.alloc_cg = inode.dir_cg
        inode.mtime = max(inode.mtime, when)
        self._realloc_mark[ino] = 0

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

    # ------------------------------------------------------------------
    # The write pipeline
    # ------------------------------------------------------------------

    def _grow(self, inode: Inode, new_size: int) -> None:
        final_full, tail_frags = self.params.layout_for_size(new_size)
        use_tail = tail_frags > 0
        self._check_reserve(inode, final_full, tail_frags)

        self._adjust_tail(inode, final_full, use_tail, tail_frags)
        # The size goes on the inode before allocation so the policy's
        # cluster hooks can see how much data follows each window — the
        # kernel's cluster_write has the same visibility, since the
        # file's dirty buffers are all queued before the flush.  The
        # realloc trigger condition ("second block filled") and the
        # fragment-tail lookahead both read it.
        inode.size = new_size
        self._alloc_full_blocks(inode, final_full)
        mark = self._realloc_mark.get(inode.ino, 0)
        self.policy.finalize(inode, mark, final_full)
        self._realloc_mark[inode.ino] = final_full
        if use_tail and inode.tail is None:
            pref = (inode.blocks[-1] + 1, 0) if inode.blocks else None
            block, offset = self.policy.alloc_tail_frags(inode, tail_frags, pref)
            inode.tail = (block, offset, tail_frags)

    def _adjust_tail(
        self, inode: Inode, final_full: int, use_tail: bool, tail_frags: int
    ) -> None:
        """Reshape an existing fragment tail for the file's new size.

        Three cases, as in ``ffs_realloccg``: the tail stays a tail and
        grows (extend in place, else move), the tail is promoted to a
        full block (extend to a whole block in place, else reallocate a
        block), or the tail is unchanged.
        """
        if inode.tail is None:
            return
        block, offset, old_n = inode.tail
        cg = self.sb.cg_of_block(block)
        if use_tail and final_full == len(inode.blocks):
            if tail_frags <= old_n:
                return
            if cg.extend_frags(block, offset, old_n, tail_frags):
                inode.tail = (block, offset, tail_frags)
                return
            cg.free_frag_run(block, offset, old_n)
            nblock, noffset = self.policy.alloc_tail_frags(
                inode, tail_frags, (block, offset)
            )
            inode.tail = (nblock, noffset, tail_frags)
            return
        # Promotion: the tail's bytes now need a full block.
        fpb = self.params.frags_per_block
        if offset == 0 and (old_n == fpb or cg.extend_frags(block, 0, old_n, fpb)):
            inode.blocks.append(block)
        else:
            cg.free_frag_run(block, offset, old_n)
            pref = inode.blocks[-1] + 1 if inode.blocks else None
            inode.blocks.append(self.policy.alloc_data_block(inode, pref))
        inode.tail = None

    def _alloc_full_blocks(self, inode: Inode, final_full: int) -> None:
        params = self.params
        maxbpg = params.maxbpg_blocks
        batch_ok = params.rotdelay == 0
        lbn = len(inode.blocks)
        while lbn < final_full:
            if inode.needs_indirect_at(lbn, params):
                # Flush the window in progress before crossing the
                # boundary, then switch groups via the indirect block.
                mark = self._realloc_mark.get(inode.ino, 0)
                if mark < lbn:
                    self.policy.window_complete(inode, mark, lbn)
                    self._realloc_mark[inode.ino] = lbn
                indirect = self.policy.alloc_indirect_block(inode)
                inode.indirect_blocks.append(indirect)
                pref: Optional[int] = indirect + 1
            elif lbn >= params.ndaddr and lbn % maxbpg == 0:
                # ``fs_maxbpg``: a big file moves to a fresh group every
                # quarter-group's worth of blocks so it cannot fill its
                # group (and starve the directory's other files).
                mark = self._realloc_mark.get(inode.ino, 0)
                if mark < lbn:
                    self.policy.window_complete(inode, mark, lbn)
                    self._realloc_mark[inode.ino] = lbn
                if params.indirect_switches_cg:
                    inode.alloc_cg = self.sb.next_cg_for_file(inode.alloc_cg)
                pref = None
            elif lbn > 0:
                # ``rotdelay`` > 0 is the pre-track-buffer layout policy:
                # leave a rotational gap between successive blocks so the
                # next one arrives under the head after per-block host
                # processing.  Table 1 sets it to 0 (the benchmark disk
                # has a track buffer); nonzero values exist for the
                # historical-rationale experiment.
                pref = inode.blocks[lbn - 1] + 1 + params.rotdelay
            else:
                pref = None
            if batch_ok and pref is not None:
                # Batch the preference chain: positions up to the next
                # window / indirect / maxbpg boundary all want the block
                # after the previous one, so while the free run at
                # ``pref`` lasts they can be taken as one cluster without
                # changing which blocks are chosen or when the policy's
                # window hooks fire.
                # The nearest of: end of data, next window boundary, next
                # indirect boundary, next maxbpg switch — all arithmetic,
                # no per-position scan.  Segment starts are constant over
                # (lbn, next indirect), so the window formula of
                # ``_window_boundary`` collapses to one modulo.
                ndaddr = params.ndaddr
                nindir = params.block_size // 4
                if lbn < ndaddr:
                    seg_start = 0
                    next_ind = ndaddr
                else:
                    seg_start = ndaddr + ((lbn - ndaddr) // nindir) * nindir
                    next_ind = seg_start + nindir
                maxcontig = params.maxcontig
                next_win = (
                    seg_start
                    + ((lbn - seg_start) // maxcontig + 1) * maxcontig
                )
                first = lbn + 1 if lbn + 1 > ndaddr else ndaddr
                next_bpg = ((first + maxbpg - 1) // maxbpg) * maxbpg
                stop = min(final_full, next_win, next_ind)
                if next_bpg < stop:
                    stop = next_bpg
                if stop - lbn > 1:
                    got = self.policy.alloc_data_run(inode, pref, stop - lbn)
                    if got:
                        inode.alloc_cg = params.cg_of_block(pref)
                        inode.blocks.extend(range(pref, pref + got))
                        lbn += got
                        if self._window_boundary(lbn):
                            mark = self._realloc_mark.get(inode.ino, 0)
                            if mark < lbn:
                                self.policy.window_complete(inode, mark, lbn)
                                self._realloc_mark[inode.ino] = lbn
                        continue
            block = self.policy.alloc_data_block(inode, pref)
            inode.alloc_cg = params.cg_of_block(block)
            inode.blocks.append(block)
            lbn += 1
            if self._window_boundary(lbn):
                mark = self._realloc_mark.get(inode.ino, 0)
                if mark < lbn:
                    self.policy.window_complete(inode, mark, lbn)
                    self._realloc_mark[inode.ino] = lbn

    def _window_boundary(self, lbn: int) -> bool:
        """Whether logical block count ``lbn`` ends a cluster window.

        Windows are ``maxcontig`` blocks, aligned within each pointer
        segment (direct blocks, then each indirect block's range), so a
        window never spans an indirect boundary.
        """
        params = self.params
        nindir = params.block_size // 4
        if lbn <= params.ndaddr:
            seg_start = 0
        else:
            seg_start = (
                params.ndaddr + ((lbn - 1 - params.ndaddr) // nindir) * nindir
            )
        return (lbn - seg_start) % params.maxcontig == 0

    def _check_reserve(self, inode: Inode, final_full: int, tail_frags: int) -> None:
        if not self.enforce_reserve:
            return
        fpb = self.params.frags_per_block
        nindir = self.params.block_size // 4
        if final_full > self.params.ndaddr:
            indirects = 1 + (final_full - self.params.ndaddr - 1) // nindir
        else:
            indirects = 0
        needed = (final_full + indirects) * fpb + tail_frags - inode.frags_used(
            self.params
        )
        if needed > 0 and self.sb.would_break_reserve(needed):
            raise OutOfSpaceError(
                f"allocating {needed} fragments would break the "
                f"{self.params.minfree:.0%} reserve"
            )

    def _free_data(self, inode: Inode) -> None:
        # Sort the file's blocks and free physically-contiguous stretches
        # in one pass each — clustered files return their space in a
        # handful of range frees instead of per-block bitmap writes.
        # Free state is the same either way (frees commute), so this is
        # observationally identical to the per-block path.
        blocks = sorted(inode.blocks + inode.indirect_blocks)
        bpg = self.params.blocks_per_cg
        i, n = 0, len(blocks)
        while i < n:
            start = blocks[i]
            cg_limit = (start // bpg + 1) * bpg  # runs never span groups
            j = i + 1
            while j < n and blocks[j] == blocks[j - 1] + 1 and blocks[j] < cg_limit:
                j += 1
            self.sb.cg_of_block(start).free_block_range(
                start, blocks[j - 1] - start + 1
            )
            i = j
        if inode.tail is not None:
            block, offset, nfrags = inode.tail
            self.sb.cg_of_block(block).free_frag_run(block, offset, nfrags)

    def _live(self, ino: int) -> Inode:
        try:
            return self.inodes[ino]
        except KeyError:
            raise FileNotFoundSimError(f"inode {ino} is not live") from None
