"""Pinned output of the HTML report's three bar charts.

Each chart renders ~200 seeded random inputs (empty, single-bar, zero,
negative and ``+inf``-bounded cases included); the SHA-256 of all its
SVG text is pinned, so the charts' shared scaffolding can be refactored
without a byte of any report moving.
"""

import hashlib

from repro.obs.report_html import (
    _cg_bar_chart,
    _histogram_chart,
    _signed_bar_chart,
)
from repro.rng import Random, substream

CASES = 200

HISTOGRAM_SHA = (
    "9372f7fe449f318bff0ac5aa53824708"
    "e1ae2fcafb1b97d0dbb02714e34002e2"
)
SIGNED_SHA = (
    "f6632ae60402f9abcb9634fc5dda9c8a"
    "80a6b2ca0b40fc2e68da81c3f8ca93d7"
)
CG_SHA = (
    "96f6a2d867bf36e62755cec43eb8d5a9"
    "b047025e292922fd684c7f978be38d98"
)


def _value(rng: Random) -> float:
    return rng.choice([
        0.0, 1.0, rng.uniform(-5.0, 5.0), rng.uniform(0.0, 0.01),
        rng.uniform(0.0, 5000.0), float(rng.randint(-20, 20)),
    ])


def _bound(rng: Random, i: int, n: int) -> object:
    if i == n - 1 and rng.random() < 0.5:
        return "+inf"
    return rng.choice([2 ** i, round(0.25 * (i + 1), 2), i])


def _size(rng: Random) -> dict:
    if rng.random() < 0.7:
        return {}
    return {"width": rng.randint(80, 900), "height": rng.randint(40, 200)}


def _digest(outputs) -> str:
    sha = hashlib.sha256()
    for text in outputs:
        sha.update(text.encode())
        sha.update(b"\0")
    return sha.hexdigest()


def _histograms():
    rng = substream(1996, "histogram")
    for case in range(CASES):
        n = rng.choice([0, 1, 2, 5, 12, 13, 25, 40])
        buckets = [
            [_bound(rng, i, n), rng.choice([0, 1, rng.randint(0, 10_000)])]
            for i in range(n)
        ]
        if buckets and not any(count for _, count in buckets):
            buckets[-1][1] = 1
        yield _histogram_chart(
            f"h{case} <&>", {"buckets": buckets},
            **_size(rng),
        )


def _signed():
    rng = substream(1996, "signed")
    for case in range(CASES):
        n = rng.choice([0, 1, 3, 12, 13, 30, 64])
        pairs = [(_bound(rng, i, n), _value(rng)) for i in range(n)]
        yield _signed_bar_chart(pairs, f"s{case} \"q\"", **_size(rng))


def _cg():
    rng = substream(1996, "cg")
    for case in range(CASES):
        n = rng.choice([0, 1, 2, 8, 27, 100])
        field = rng.choice(["occupancy", "spill_blocks"])
        groups = [{field: _value(rng)} for _ in range(n)]
        peak = rng.choice([None, None, 1.0, 0.0, rng.uniform(0.5, 50.0)])
        yield _cg_bar_chart(
            groups, field, f"c{case} '{field}'", peak=peak, **_size(rng),
        )


def test_histogram_chart_is_pinned():
    assert _digest(_histograms()) == HISTOGRAM_SHA


def test_signed_bar_chart_is_pinned():
    assert _digest(_signed()) == SIGNED_SHA


def test_cg_bar_chart_is_pinned():
    assert _digest(_cg()) == CG_SHA
