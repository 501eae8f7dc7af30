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
import math
from typing import List, Sequence


def choose_victims(
    segments: Sequence["SegmentInfo"],
    capacity: int,
    policy: str = "cost-benefit",
    exclude: int = -1,
    count: int = 1,
) -> List["SegmentInfo"]:
    """Pick up to ``count`` victim segments for cleaning, best first.

    ``capacity`` is the segment size in blocks (for the utilization
    term).  Only dirty segments other than ``exclude`` (the log head)
    are candidates.  Greedy ranks fully empty segments first; under
    cost-benefit an empty segment's benefit is its age, so an old
    half-full segment can outrank a young empty one.  Ties break toward
    the lower segment index.  Returns fewer than ``count`` — maybe
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
    # Each candidate is ranked by (key, index); a smaller key is a
    # better victim.  Cost-benefit keys are negated benefit/cost, and a
    # fully live segment has nothing to gain.
    if policy == "greedy":
        ranked = [(float(seg.live), seg.index, seg) for seg in candidates]
    else:
        newest = max([seg.sequence for seg in candidates])
        ranked = [
            (
                -((1.0 - u) * (newest - seg.sequence + 1) / (1.0 + u))
                if u < 1.0 else math.inf,
                seg.index,
                seg,
            )
            for seg in candidates
            for u in (seg.live / capacity,)
        ]
    return [seg for _key, _index, seg in heapq.nsmallest(count, ranked)]
