"""Track-buffer (read-ahead cache) model.

The benchmark drive has a 512 KB buffer that the firmware fills by reading
ahead past the end of each read request.  Section 5.1 of the paper relies
on it twice:

* sequential *reads* of a contiguous file do not lose rotations between
  back-to-back requests, because the data for the next request is already
  streaming into the buffer;
* sequential *writes* get no such help (the drive does not write-behind),
  so a contiguous file larger than the 64 KB maximum transfer loses a full
  rotation between requests.

The buffer is modelled as a single linear byte range ``[start, end)`` that
grows at media rate while the host is between requests, capped at the
buffer capacity.  Only reads that continue the buffered stream benefit;
any discontiguous read or any write invalidates it — a deliberately
conservative firmware model.

``DiskModel``'s pricing loop applies the per-request rules below inline
on the buffer's fields; ``tests/test_perf_fastpaths.py`` holds it to the
results of these methods.
"""

from __future__ import annotations


class TrackBuffer:
    """Linear read-ahead window over the disk's byte address space."""

    def __init__(self, capacity_bytes: int, media_rate_bytes_per_ms: float) -> None:
        if capacity_bytes < 0:
            raise ValueError("buffer capacity must be >= 0")
        self.capacity = capacity_bytes
        self.media_rate = media_rate_bytes_per_ms
        self._start = 0
        self._end = 0
        self._frontier = 0  # next byte the firmware would prefetch
        self._valid = False

    @property
    def valid(self) -> bool:
        """Whether the buffer currently holds any useful data."""
        return self._valid and self._end > self._start

    def invalidate(self) -> None:
        """Drop all buffered data (a write or a random read occurred)."""
        self._valid = False
        self._start = self._end = self._frontier = 0

    def note_read(self, start_byte: int, nbytes: int) -> None:
        """Record that the media just read ``[start, start+nbytes)``.

        The firmware keeps prefetching from the end of this range; buffered
        data older than the capacity window is evicted.
        """
        end = start_byte + nbytes
        if self._valid and start_byte == self._frontier:
            self._end = end
        else:
            self._start = start_byte
            self._end = end
        self._frontier = end
        self._valid = True
        self._trim()

    def prefetch(self, elapsed_ms: float) -> None:
        """Advance the read-ahead frontier for ``elapsed_ms`` of idle time."""
        if not self._valid or elapsed_ms <= 0:
            return
        self._frontier += int(elapsed_ms * self.media_rate)
        self._end = self._frontier
        self._trim()

    def hit_bytes(self, start_byte: int, nbytes: int) -> int:
        """How many leading bytes of a read request the buffer can satisfy.

        Returns a value in ``[0, nbytes]``.  Only a prefix hit counts: the
        drive serves buffered bytes from RAM, then continues on the media
        for the rest without additional positioning (the head is already
        at the frontier for a sequential stream).
        """
        if not self.valid:
            return 0
        if start_byte < self._start or start_byte >= self._end:
            return 0
        return min(nbytes, self._end - start_byte)

    def is_sequential(self, start_byte: int) -> bool:
        """Whether ``start_byte`` continues the buffered stream."""
        return self.valid and self._start <= start_byte <= self._end

    def _trim(self) -> None:
        if self._end - self._start > self.capacity:
            self._start = self._end - self.capacity
