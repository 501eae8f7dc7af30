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

import math
from typing import TYPE_CHECKING, List, Sequence, Tuple

if TYPE_CHECKING:
    from repro.lfs.filesystem import SegmentInfo


#: ``(key, index, segment)``: a candidate's rank; the smallest is the
#: best victim.
Ranked = Tuple[float, int, "SegmentInfo"]


def rank_candidates(
    segments: Sequence["SegmentInfo"],
    capacity: int,
    policy: str = "cost-benefit",
    exclude: int = -1,
) -> Tuple[List[Ranked], int]:
    """Rank every cleaning candidate; returns the ranks and the newest
    candidate's sequence stamp (0 when there are none).

    ``capacity`` is the segment size in blocks (for the utilization
    term).  Only dirty segments other than ``exclude`` (the log head)
    are candidates.  Greedy ranks fully empty segments first; under
    cost-benefit an empty segment's benefit is its age, so an old
    half-full segment can outrank a young empty one.  Ties break toward
    the lower segment index.  A rank depends on the candidate's live
    count and sequence and, under cost-benefit, on the newest stamp.
    """
    if policy not in ("greedy", "cost-benefit"):
        raise ValueError(f"unknown cleaner policy {policy!r}")
    if capacity < 1:
        raise ValueError("segment capacity must be >= 1 block")
    # One sweep finds the candidates and the newest stamp.  Cost-benefit
    # keys are negated benefit/cost, and a fully live segment has
    # nothing to gain.
    candidates = []
    newest = 0
    for seg in segments:
        if not seg.clean and seg.index != exclude:
            candidates.append(seg)
            if seg.sequence > newest:
                newest = seg.sequence
    if policy == "greedy":
        return [(float(seg.live), seg.index, seg) for seg in candidates], newest
    return [
        (
            -((1.0 - u) * (newest - seg.sequence + 1) / (1.0 + u))
            if u < 1.0 else math.inf,
            seg.index,
            seg,
        )
        for seg in candidates
        for u in (seg.live / capacity,)
    ], newest

