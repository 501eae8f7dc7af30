"""Property-based tests for the cluster view of the free map.

The machine here takes and frees single whole blocks and checks the
runs of free blocks; the one that interleaves fragment and whole-block
operations lives in ``test_prop_bitmap.py``.  The properties pin the
two whole-block answers the allocators depend on against a recount.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.ffs.bitmap import FragBitmap

N = 40
FPB = 8


def runs_of(allocated):
    """Maximal free runs as (start, length), recounted from the allocated set."""
    runs, start = [], None
    for b in range(N + 1):
        if b < N and b not in allocated:
            if start is None:
                start = b
        elif start is not None:
            runs.append((start, b - start))
            start = None
    return runs


def bitmap_with(allocated):
    m = FragBitmap(N, FPB)
    for b in sorted(allocated):
        m.alloc_run(b, 0, FPB)
    return m


class RunMapMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.map = FragBitmap(N, FPB)
        self.free = set(range(N))

    @rule(block=st.integers(0, N - 1))
    def alloc(self, block):
        if block in self.free:
            self.map.alloc_block_range(block, 1)
            self.free.discard(block)

    @rule(block=st.integers(0, N - 1))
    def free_block(self, block):
        if block not in self.free:
            self.map.free_block_range(block, 1)
            self.free.add(block)

    @invariant()
    def runs_cover_exactly_the_free_set(self):
        covered = set()
        for start, length in self.map.block_runs():
            covered.update(range(start, start + length))
        assert covered == self.free
        assert self.map.free_blocks == len(self.free)

    @invariant()
    def runs_are_maximal_and_disjoint(self):
        runs = self.map.block_runs()
        for i, (start, length) in enumerate(runs):
            assert length >= 1
            if i + 1 < len(runs):
                next_start = runs[i + 1][0]
                # A gap of at least one allocated block between runs.
                assert start + length < next_start

    @invariant()
    def find_free_block_returns_free(self):
        for pref in (0, N // 2, N - 1):
            found = self.map.find_free_block(pref)
            if self.free:
                assert found in self.free
            else:
                assert found is None

    @invariant()
    def find_free_blocks_results_are_free_runs(self):
        for length in (1, 2, 5):
            for fit in ("firstfit", "bestfit"):
                start = self.map.find_free_blocks(length, pref=3, fit=fit)
                if start is not None:
                    assert all(
                        b in self.free for b in range(start, start + length)
                    )
                else:
                    assert self.map.max_block_run() < length


TestRunMapMachine = RunMapMachine.TestCase
TestRunMapMachine.settings = settings(max_examples=30, stateful_step_count=50)


class TestRunMapProperties:
    @given(st.sets(st.integers(0, N - 1)))
    @settings(max_examples=100)
    def test_max_run_is_true_maximum(self, allocated):
        m = bitmap_with(allocated)
        free = sorted(set(range(N)) - allocated)
        best = 0
        current = 0
        prev = None
        for b in free:
            current = current + 1 if prev == b - 1 else 1
            best = max(best, current)
            prev = b
        assert m.max_block_run() == best

    @given(st.sets(st.integers(0, N - 1)), st.integers(1, 10), st.integers(0, N - 1))
    @settings(max_examples=100)
    def test_firstfit_is_lowest_adequate_run(self, allocated, length, pref):
        m = bitmap_with(allocated)
        got = m.find_free_blocks(length, pref=pref, fit="firstfit")
        runs = runs_of(allocated)
        assert m.block_runs() == runs
        adequate = [s for s, l in runs if l >= length]
        # Continuation at pref takes precedence when available.
        containing = [
            (s, l) for s, l in runs if s <= pref < s + l and s + l - pref >= length
        ]
        if containing:
            assert got == pref
        elif adequate:
            assert got == adequate[0]
        else:
            assert got is None
