"""Pause the cyclic garbage collector over a bulk build.

The aging-workload build and the LFS aging allocate hundreds of
thousands of tuples, lists and small records and free them by reference
count alone: they make no reference cycles.  The generational collector
still walks every container they keep alive (each day's snapshot, the
workload rows, the LFS owner map) on each of its passes, which is about
a third of the CPU time of both at the small preset.  :func:`gc_paused`
switches the collector off for a block and restores its prior state;
reference counting frees everything as before, and a cycle made inside
the block is collected by the first pass after it.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def gc_paused() -> Iterator[None]:
    """Run the block with the cyclic collector off."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
