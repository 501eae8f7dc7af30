"""Cleaner victim selection: greedy vs. cost-benefit [Rosenblum92].

The greedy policy cleans the emptiest segment.  Rosenblum's cost-benefit
policy weights a segment's free space by its age — old, mostly-live
segments are worth cleaning because their data is cold and will stay
live, while young segments should be left to decay further:

    benefit / cost = (1 - u) * age / (1 + u)

with ``u`` the fraction of the segment still live.  [Blackwell95] (the
source of the paper's NFS traces) studied heuristics for *when* to run
these cleaners; here cleaning is on-demand at the low-water mark.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Tuple


def choose_victims(
    segments: Sequence["SegmentInfo"],
    capacity: int,
    policy: str = "cost-benefit",
    exclude: int = -1,
    count: int = 1,
) -> List["SegmentInfo"]:
    """Pick up to ``count`` victim segments for cleaning.

    ``capacity`` is the segment size in blocks (for the utilization
    term).  Only dirty segments other than ``exclude`` (the log head)
    are candidates; fully empty dirty segments rank first under either
    policy (they are free wins).  Returns fewer than ``count`` — maybe
    none — when there are no candidates.
    """
    if policy not in ("greedy", "cost-benefit"):
        raise ValueError(f"unknown cleaner policy {policy!r}")
    if capacity < 1:
        raise ValueError("segment capacity must be >= 1 block")
    candidates = [
        seg for seg in segments if not seg.clean and seg.index != exclude
    ]
    if not candidates:
        return []
    newest = max(seg.sequence for seg in candidates)

    # Keys end in the segment index, so ties break toward lower indexes.
    def greedy_key(seg) -> Tuple[float, int]:
        return float(seg.live), seg.index

    def cost_benefit_key(seg) -> Tuple[float, int]:
        u = seg.live / capacity
        if u >= 1.0:
            return float("inf"), seg.index  # nothing to gain
        age = newest - seg.sequence + 1
        # Negated so that a smaller key = better victim, as with greedy.
        return -((1.0 - u) * age / (1.0 + u)), seg.index

    key = greedy_key if policy == "greedy" else cost_benefit_key
    return heapq.nsmallest(count, candidates, key=key)
