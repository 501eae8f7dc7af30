"""Property-based tests for the fragment bitmap.

A random interleaving of valid fragment and whole-block allocate/free
operations must keep every derived structure (free counts, per-block
counts, the free-block total and the runs of wholly free blocks)
consistent with a recount from scratch.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.ffs.bitmap import FragBitmap
from tests.test_ffs_bitmap import frag_runs

NBLOCKS = 12
FPB = 8


@st.composite
def run_specs(draw):
    block = draw(st.integers(0, NBLOCKS - 1))
    offset = draw(st.integers(0, FPB - 1))
    nfrags = draw(st.integers(1, FPB - offset))
    return (block, offset, nfrags)


class BitmapMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.bitmap = FragBitmap(NBLOCKS, FPB)
        self.shadow = set()  # allocated (block, offset) pairs

    @rule(spec=run_specs())
    def alloc_if_free(self, spec):
        block, offset, nfrags = spec
        frags = {(block, offset + i) for i in range(nfrags)}
        if frags & self.shadow:
            return
        self.bitmap.alloc_run(block, offset, nfrags)
        self.shadow |= frags

    @rule(spec=run_specs())
    def free_if_allocated(self, spec):
        block, offset, nfrags = spec
        frags = {(block, offset + i) for i in range(nfrags)}
        if not frags <= self.shadow:
            return
        self.bitmap.free_run(block, offset, nfrags)
        self.shadow -= frags

    @rule(block=st.integers(0, NBLOCKS - 1), nblocks=st.integers(1, 4))
    def alloc_blocks_if_free(self, block, nblocks):
        nblocks = min(nblocks, NBLOCKS - block)
        frags = {(b, o) for b in range(block, block + nblocks) for o in range(FPB)}
        if frags & self.shadow:
            return
        self.bitmap.alloc_block_range(block, nblocks)
        self.shadow |= frags

    @rule(block=st.integers(0, NBLOCKS - 1), nblocks=st.integers(1, 4))
    def free_blocks_if_allocated(self, block, nblocks):
        nblocks = min(nblocks, NBLOCKS - block)
        frags = {(b, o) for b in range(block, block + nblocks) for o in range(FPB)}
        if not frags <= self.shadow:
            return
        self.bitmap.free_block_range(block, nblocks)
        self.shadow -= frags

    @invariant()
    def free_count_matches_shadow(self):
        assert self.bitmap.free_frags == NBLOCKS * FPB - len(self.shadow)

    @invariant()
    def per_block_counts_match(self):
        for block in range(NBLOCKS):
            allocated = sum(1 for (b, _o) in self.shadow if b == block)
            assert self.bitmap.free_in_block(block) == FPB - allocated

    def _recount_runs(self):
        runs, start = [], None
        for block in range(NBLOCKS + 1):
            if block < NBLOCKS and self.bitmap.free_in_block(block) == FPB:
                if start is None:
                    start = block
            elif start is not None:
                runs.append((start, block - start))
                start = None
        return runs

    @invariant()
    def block_runs_match_free_in_block(self):
        assert self.bitmap.block_runs() == self._recount_runs()

    @invariant()
    def free_blocks_is_the_sum_of_the_runs(self):
        assert self.bitmap.free_blocks == sum(n for _s, n in self._recount_runs())


TestBitmapMachine = BitmapMachine.TestCase
TestBitmapMachine.settings = settings(max_examples=30, stateful_step_count=40)


class TestBitmapProperties:
    @given(st.lists(run_specs(), max_size=30))
    @settings(max_examples=50)
    def test_alloc_free_roundtrip_restores_everything(self, specs):
        bitmap = FragBitmap(NBLOCKS, FPB)
        done = []
        taken = set()
        for block, offset, nfrags in specs:
            frags = {(block, offset + i) for i in range(nfrags)}
            if frags & taken:
                continue
            bitmap.alloc_run(block, offset, nfrags)
            taken |= frags
            done.append((block, offset, nfrags))
        for block, offset, nfrags in reversed(done):
            bitmap.free_run(block, offset, nfrags)
        assert bitmap.free_frags == NBLOCKS * FPB
        assert all(bitmap.block_is_free(b) for b in range(NBLOCKS))
        assert bitmap.block_runs() == [(0, NBLOCKS)]
        assert bitmap.free_blocks == NBLOCKS

    @given(st.integers(0, NBLOCKS - 1), st.integers(1, FPB - 1))
    def test_frag_runs_cover_free_space(self, block, nalloc):
        bitmap = FragBitmap(NBLOCKS, FPB)
        bitmap.alloc_run(block, 0, nalloc)
        runs = frag_runs(bitmap, block)
        assert sum(length for _o, length in runs) == FPB - nalloc
