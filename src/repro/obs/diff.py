"""Differential run analysis: ``repro-ffs diff`` and registry drift.

The paper's core method is pairwise comparison — empty vs. aged,
original vs. realloc — and every comparison surface in the repo (run
wall times, chaos clean-halt twins, inspect's policy-vs-policy table)
needs the same answer to "what changed and does it matter".  This
module centralises that judgement:

* a **significance classifier** (:class:`Classifier`) — one shared
  vocabulary for "did this metric move": an absolute floor absorbs
  jitter, a relative threshold absorbs proportional noise, and
  histogram shifts are judged on their approximate p50/p90/p99.  Every
  delta gets a label: :data:`NOISE`, :data:`NOTABLE` (significant
  movement, neutral or improving), or :data:`REGRESSION` (significant
  movement in the metric's known-bad direction);
* a **run differ** (:func:`diff_runs`) — structural end-to-end
  comparison of two recorded runs: manifest metadata and config,
  metric registries (counter/gauge deltas, histogram quantile shifts),
  distilled run-store summaries, event timelines (day-aligned layout
  score divergence, first-divergence day, per-CG occupancy delta
  matrices), disk traces (seek-distance and service-time distribution
  shifts), and placement documents from
  :mod:`repro.analysis.placement`.  The result is one deterministic
  ``repro.diff/v1`` document with a flat, severity-ranked delta list;
* **drift detection** (:func:`detect_drift`) — per-policy least-squares
  trend lines over the run registry's archived summaries (layout
  score, MB/s, lost rotations, seek p99), with the projected movement
  over the window pushed through the same classifier
  (``repro.drift/v1``).

Wall-time, throughput, and telemetry deltas all go through the same
classifier, so they agree on what counts as significant.  Everything
here is pure
post-processing over already-captured documents — no clocks, no
simulator state — so a diff of a run against itself is deterministic
and reports zero significant deltas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.export import bucket_quantiles

from repro import schemas

SCHEMA = schemas.DIFF
DRIFT_SCHEMA = schemas.DRIFT

#: Classification labels, from quietest to worst.
NOISE = "noise"
NOTABLE = "notable"
REGRESSION = "regression"

_SEVERITY_RANK = {REGRESSION: 0, NOTABLE: 1, NOISE: 2}

#: Default relative movement (fraction of the baseline) below which a
#: delta is noise.
DEFAULT_REL_THRESHOLD = 0.05
#: Default absolute floor: no jitter allowance unless a metric family
#: declares one (wall clocks use :data:`WALL_CLOCK_ABS_FLOOR_S`).
DEFAULT_ABS_FLOOR = 0.0
#: Wall-clock jitter floor for a run's ``wall_seconds``: a run must slow
#: by more than this many seconds before it can regress.
WALL_CLOCK_ABS_FLOOR_S = 0.2
#: Layout scores live in [0, 1]; movements under half a point of
#: percent are presentation noise.
SCORE_ABS_FLOOR = 0.005

#: The histogram quantiles the classifier judges distribution shifts on.
QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)

__all__ = [
    "Classifier",
    "RunArtifacts",
    "diff_runs",
    "render_diff",
    "detect_drift",
    "render_drift",
    "fit_trend",
    "lower_is_better",
    "NOISE",
    "NOTABLE",
    "REGRESSION",
    "SCHEMA",
    "DRIFT_SCHEMA",
    "DEFAULT_REL_THRESHOLD",
    "DEFAULT_ABS_FLOOR",
    "WALL_CLOCK_ABS_FLOOR_S",
    "SCORE_ABS_FLOOR",
]


# ----------------------------------------------------------------------
# Metric polarity
# ----------------------------------------------------------------------

#: Substrings that mark a metric as higher-is-better.  Checked before
#: the lower-is-better list, so ``disk.seek_time_ms`` (seek + _ms) is
#: still lower-is-better while ``replay.FFS.final_score`` wins on
#: ``score``.
_HIGHER_IS_BETTER = (
    "score",
    "throughput",
    "mb_s",
    "ops_per_sec",
    "hit",
    "clusterable",
    "largest_run",
    "largest_free_run",
)

#: Substrings that mark a metric as lower-is-better.
_LOWER_IS_BETTER = (
    "lost_rotation",
    "seek",
    "busy",
    "wall",
    "_ms",
    "fallback",
    "skipped",
    "dropped",
    "crash",
    "torn",
    "fault",
    "spill",
    "n_runs",
    "free_runs",
    "error",
    "distance",
    # Flash substrate (repro.ssd): device wear and GC traffic.
    "write_amplification",
    "erase",
    "map_miss",
    "gc_moved",
)


def lower_is_better(name: str) -> Optional[bool]:
    """Polarity of a metric name: True (lower is better), False
    (higher is better), or None when the direction carries no value
    judgement (``utilization``, ``reads``...)."""
    low = name.lower()
    for token in _HIGHER_IS_BETTER:
        if token in low:
            return False
    for token in _LOWER_IS_BETTER:
        if token in low:
            return True
    return None


# ----------------------------------------------------------------------
# The classifier
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Classifier:
    """The shared significance rule: abs floor + relative threshold.

    A delta is **significant** when it clears both gates: its absolute
    magnitude exceeds ``abs_floor`` (or the per-call override) *and*
    its magnitude relative to the baseline exceeds ``rel_threshold``.
    A significant move in a metric's known-bad direction is a
    :data:`REGRESSION`; any other significant move is :data:`NOTABLE`;
    everything else is :data:`NOISE`.  A zero baseline disables the
    relative gate (the absolute floor still applies), so a metric that
    starts at zero is judged on its absolute movement alone.
    """

    rel_threshold: float = DEFAULT_REL_THRESHOLD
    abs_floor: float = DEFAULT_ABS_FLOOR

    def classify(
        self,
        baseline: float,
        current: float,
        direction: Optional[bool] = None,
        abs_floor: Optional[float] = None,
    ) -> Dict[str, object]:
        """One classified delta; ``direction`` is lower-is-better (or
        None for neutral metrics)."""
        floor = self.abs_floor if abs_floor is None else abs_floor
        delta = current - baseline
        rel = delta / abs(baseline) if baseline else None
        significant = abs(delta) > floor and (
            rel is None or abs(rel) > self.rel_threshold
        )
        if not significant:
            label = NOISE
        elif direction is None:
            label = NOTABLE
        elif (delta > 0) == direction:
            label = REGRESSION
        else:
            label = NOTABLE
        return {
            "baseline": baseline,
            "current": current,
            "delta": round(delta, 6),
            "rel": round(rel, 4) if rel is not None else None,
            "label": label,
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "rel_threshold": self.rel_threshold,
            "abs_floor": self.abs_floor,
            "quantiles": list(QUANTILES),
        }


def _quantiles(data: Mapping[str, object]) -> Dict[str, object]:
    """p50/p90/p99 of one histogram snapshot (None when empty)."""
    return bucket_quantiles(dict(data))


# ----------------------------------------------------------------------
# Run diffing
# ----------------------------------------------------------------------


@dataclass
class RunArtifacts:
    """Everything one side of a diff may bring to the table.

    Only the manifest is required; the optional artifacts each unlock
    one more diff section (events → timeline, disk trace → locality
    shifts, placement document → spatial comparison).  ``summary`` is
    the run store's distilled headline block; when absent it is
    recomputed from the manifest, so a bare ``--metrics`` file diffs
    identically to a registry entry.
    """

    label: str
    manifest: Dict[str, object]
    summary: Optional[Dict[str, object]] = None
    events: Optional[List[Dict[str, object]]] = None
    disk_trace: Optional[List[Dict[str, object]]] = None
    placement: Optional[Dict[str, object]] = None

    def headline(self) -> Dict[str, object]:
        if self.summary is not None:
            return dict(self.summary)
        from repro.obs.manifest import RunManifest
        from repro.obs.store import summarize_manifest

        return summarize_manifest(RunManifest.from_dict(dict(self.manifest)))


class _DeltaSink:
    """Collects every classified delta into the flat, ranked list."""

    def __init__(self, classifier: Classifier) -> None:
        self.classifier = classifier
        self.rows: List[Dict[str, object]] = []

    def add(
        self,
        section: str,
        name: str,
        baseline: object,
        current: object,
        direction: Optional[bool] = None,
        abs_floor: Optional[float] = None,
    ) -> Dict[str, object]:
        verdict = self.classifier.classify(
            float(baseline),  # type: ignore[arg-type]
            float(current),  # type: ignore[arg-type]
            direction=direction,
            abs_floor=abs_floor,
        )
        row: Dict[str, object] = {"section": section, "name": name}
        row.update(verdict)
        self.rows.append(row)
        return row

    def sorted_rows(self) -> List[Dict[str, object]]:
        return sorted(
            self.rows,
            key=lambda r: (
                _SEVERITY_RANK[str(r["label"])],
                str(r["section"]),
                str(r["name"]),
            ),
        )


def _side_info(side: RunArtifacts) -> Dict[str, object]:
    manifest = side.manifest
    config = manifest.get("config")
    config = config if isinstance(config, dict) else {}
    return {
        "label": side.label,
        "command": manifest.get("command"),
        "preset": config.get("preset"),
        "policy": config.get("policy"),
        "backend": config.get("backend"),
        "schema": manifest.get("schema"),
        "wall_seconds": manifest.get("wall_seconds"),
    }


def _diff_mappings(
    a: Mapping[str, object], b: Mapping[str, object]
) -> Dict[str, object]:
    """Key-level structural diff of two flat mappings (no judgement)."""
    changed = {
        key: [a[key], b[key]]
        for key in sorted(set(a) & set(b))
        if a[key] != b[key]
    }
    return {
        "changed": changed,
        "only_a": sorted(set(a) - set(b)),
        "only_b": sorted(set(b) - set(a)),
    }


def _scalar_config(manifest: Mapping[str, object]) -> Dict[str, object]:
    config = manifest.get("config")
    config = config if isinstance(config, dict) else {}
    return {
        str(key): value
        for key, value in config.items()
        if not isinstance(value, (dict, list))
    }


def _diff_meta(
    a: RunArtifacts, b: RunArtifacts, sink: _DeltaSink
) -> Dict[str, object]:
    wall_a = a.manifest.get("wall_seconds")
    wall_b = b.manifest.get("wall_seconds")
    if isinstance(wall_a, (int, float)) and isinstance(wall_b, (int, float)):
        sink.add(
            "meta", "wall_seconds", wall_a, wall_b,
            direction=True, abs_floor=WALL_CLOCK_ABS_FLOOR_S,
        )
    env_a = a.manifest.get("environment")
    env_b = b.manifest.get("environment")
    return {
        "config": _diff_mappings(_scalar_config(a.manifest),
                                 _scalar_config(b.manifest)),
        "environment": _diff_mappings(
            env_a if isinstance(env_a, dict) else {},
            env_b if isinstance(env_b, dict) else {},
        ),
    }


def _metric_pairs(
    manifest: Mapping[str, object],
) -> Dict[str, Dict[str, object]]:
    metrics = manifest.get("metrics")
    metrics = metrics if isinstance(metrics, dict) else {}
    return {
        str(name): data
        for name, data in metrics.items()
        if isinstance(data, dict)
    }


def _bucket_deltas(
    base: Mapping[str, object], cur: Mapping[str, object]
) -> List[List[object]]:
    """Per-bucket count deltas, aligned on the union of bucket bounds.

    Bounds come out in the baseline's ladder order (current-only bounds
    appended in their own order), so two snapshots of the same
    histogram — the only case that arises in practice — keep their
    geometric ladder.
    """
    base_counts: Dict[object, int] = {}
    order: List[object] = []
    for bound, count in base.get("buckets", []):  # type: ignore[union-attr]
        key = str(bound)
        base_counts[key] = int(count)
        order.append(bound)
    cur_counts: Dict[object, int] = {}
    for bound, count in cur.get("buckets", []):  # type: ignore[union-attr]
        key = str(bound)
        cur_counts[key] = int(count)
        if key not in base_counts:
            order.append(bound)
    return [
        [bound,
         cur_counts.get(str(bound), 0) - base_counts.get(str(bound), 0)]
        for bound in order
    ]


def _diff_histogram(
    section: str,
    name: str,
    base: Mapping[str, object],
    cur: Mapping[str, object],
    sink: _DeltaSink,
) -> Dict[str, object]:
    """Quantile-rule classification of one histogram pair + the signed
    per-bucket deltas the HTML report draws."""
    direction = lower_is_better(name)
    sink.add(f"{section}", f"{name}.count",
             base.get("count", 0), cur.get("count", 0))
    base_q = _quantiles(base)
    cur_q = _quantiles(cur)
    for key in sorted(base_q):
        qb, qc = base_q[key], cur_q[key]
        if isinstance(qb, (int, float)) and isinstance(qc, (int, float)):
            sink.add(section, f"{name}.{key}", qb, qc, direction=direction)
    return {
        "name": name,
        "baseline_quantiles": base_q,
        "current_quantiles": cur_q,
        "bucket_deltas": _bucket_deltas(base, cur),
    }


def _diff_metrics(
    a: RunArtifacts, b: RunArtifacts, sink: _DeltaSink
) -> Dict[str, object]:
    metrics_a = _metric_pairs(a.manifest)
    metrics_b = _metric_pairs(b.manifest)
    histograms: List[Dict[str, object]] = []
    compared = 0
    for name in sorted(set(metrics_a) & set(metrics_b)):
        da, db = metrics_a[name], metrics_b[name]
        if da.get("type") != db.get("type"):
            continue
        compared += 1
        if da.get("type") in ("counter", "gauge"):
            sink.add(
                "metrics", name,
                da.get("value", 0.0), db.get("value", 0.0),
                direction=lower_is_better(name),
            )
        elif da.get("type") == "histogram":
            histograms.append(_diff_histogram("metrics", name, da, db, sink))
    return {
        "compared": compared,
        "only_a": sorted(set(metrics_a) - set(metrics_b)),
        "only_b": sorted(set(metrics_b) - set(metrics_a)),
        "histograms": histograms,
    }


def _diff_summaries(
    a: RunArtifacts, b: RunArtifacts, sink: _DeltaSink
) -> Dict[str, object]:
    """The distilled headline block both ``history`` and drift use.

    Layout scores are keyed per policy label; when the two runs share
    no label but each carries exactly one (an original-vs-smart pair),
    the single labels are paired across names — that cross-label score
    delta *is* the paper's headline comparison.
    """
    sa = a.headline()
    sb = b.headline()
    scores_a = sa.pop("layout_scores", None)
    scores_b = sb.pop("layout_scores", None)
    scores_a = scores_a if isinstance(scores_a, dict) else {}
    scores_b = scores_b if isinstance(scores_b, dict) else {}
    pairs: List[Tuple[str, str]] = [
        (label, label) for label in sorted(set(scores_a) & set(scores_b))
    ]
    if not pairs and len(scores_a) == 1 and len(scores_b) == 1:
        pairs = [(next(iter(scores_a)), next(iter(scores_b)))]
    for la, lb in pairs:
        name = (
            f"layout_score[{la}]" if la == lb
            else f"layout_score[{la} vs {lb}]"
        )
        sink.add(
            "summary", name, scores_a[la], scores_b[lb],
            direction=False, abs_floor=SCORE_ABS_FLOOR,
        )
    for key in sorted(set(sa) & set(sb)):
        va, vb = sa[key], sb[key]
        if key == "wall_seconds":
            continue  # already classified under meta
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
            sink.add("summary", key, va, vb, direction=lower_is_better(key))
    # Flash-substrate numbers ride along verbatim so renderers can show
    # them even when only one side ran on --backend ssd (a disk-vs-ssd
    # diff has no shared key to classify, but the values still matter).
    ssd_keys = ("write_amplification", "flash_erases", "gc_moved_pages",
                "ssd_throughput_mb_s")
    ssd = {
        tag: {
            key: side[key]
            for key in ssd_keys
            if isinstance(side.get(key), (int, float))
        }
        for tag, side in (("a", sa), ("b", sb))
    }
    out: Dict[str, object] = {
        "score_pairs": [[la, lb] for la, lb in pairs],
        "only_a": sorted(set(sa) - set(sb)),
        "only_b": sorted(set(sb) - set(sa)),
    }
    if ssd["a"] or ssd["b"]:
        out["ssd"] = ssd
    return out


def _day_samples(
    events: Sequence[Dict[str, object]],
) -> Tuple[List[str], Dict[str, Dict[int, Dict[str, object]]]]:
    """Day-keyed day_sample rows per label, labels in first-seen order."""
    order: List[str] = []
    by_label: Dict[str, Dict[int, Dict[str, object]]] = {}
    for row in events:
        if row.get("type") != "day_sample":
            continue
        label = str(row.get("label", ""))
        if label not in by_label:
            by_label[label] = {}
            order.append(label)
        day = row.get("day")
        if isinstance(day, (int, float)):
            by_label[label][int(day)] = row
    return order, by_label


def _series(
    samples: Mapping[int, Dict[str, object]], days: Sequence[int], key: str
) -> List[List[float]]:
    out: List[List[float]] = []
    for day in days:
        value = samples[day].get(key)
        if isinstance(value, (int, float)):
            out.append([float(day), float(value)])
    return out


def _occupancy_delta(
    sa: Mapping[int, Dict[str, object]],
    sb: Mapping[int, Dict[str, object]],
    days: Sequence[int],
) -> Optional[Dict[str, object]]:
    """Day × CG occupancy delta matrix (b − a) for the delta heatmap.

    Days where either side lacks the per-CG vectors (old captures,
    truncated logs) are skipped; when nothing is left there is no
    matrix — the section degrades instead of raising.
    """
    kept_days: List[int] = []
    matrix: List[List[float]] = []
    for day in days:
        va = sa[day].get("cg_occupancy")
        vb = sb[day].get("cg_occupancy")
        if not isinstance(va, list) or not isinstance(vb, list) or not va:
            continue
        n = min(len(va), len(vb))
        kept_days.append(day)
        matrix.append([
            round(float(vb[i]) - float(va[i]), 4) for i in range(n)
        ])
    if not matrix:
        return None
    return {"days": kept_days, "matrix": matrix}


def _diff_timeline(
    a: RunArtifacts, b: RunArtifacts, sink: _DeltaSink,
    classifier: Classifier,
) -> Optional[Dict[str, object]]:
    if a.events is None or b.events is None:
        return None
    order_a, samples_a = _day_samples(a.events)
    order_b, samples_b = _day_samples(b.events)
    pairs = [(label, label) for label in order_a if label in samples_b]
    if not pairs and len(order_a) == 1 and len(order_b) == 1:
        pairs = [(order_a[0], order_b[0])]
    out_pairs: List[Dict[str, object]] = []
    for la, lb in pairs:
        sa, sb = samples_a[la], samples_b[lb]
        days = sorted(set(sa) & set(sb))
        if not days:
            continue
        divergence: List[List[float]] = []
        first_divergence: Optional[int] = None
        for day in days:
            va = sa[day].get("layout_score")
            vb = sb[day].get("layout_score")
            if not isinstance(va, (int, float)) or not isinstance(
                vb, (int, float)
            ):
                continue
            divergence.append([float(day), round(float(vb) - float(va), 6)])
            if first_divergence is None:
                verdict = classifier.classify(
                    float(va), float(vb), abs_floor=SCORE_ABS_FLOOR
                )
                if verdict["label"] != NOISE:
                    first_divergence = day
        pair_name = la if la == lb else f"{la} vs {lb}"
        last = days[-1]
        fa = sa[last].get("layout_score")
        fb = sb[last].get("layout_score")
        if isinstance(fa, (int, float)) and isinstance(fb, (int, float)):
            sink.add(
                "timeline", f"layout_score[{pair_name}].final", fa, fb,
                direction=False, abs_floor=SCORE_ABS_FLOOR,
            )
        ua = sa[last].get("utilization")
        ub = sb[last].get("utilization")
        if isinstance(ua, (int, float)) and isinstance(ub, (int, float)):
            sink.add(
                "timeline", f"utilization[{pair_name}].final", ua, ub,
            )
        out_pairs.append({
            "label_a": la,
            "label_b": lb,
            "days": days,
            "score_a": _series(sa, days, "layout_score"),
            "score_b": _series(sb, days, "layout_score"),
            "score_divergence": divergence,
            "first_divergence_day": first_divergence,
            "occupancy_delta": _occupancy_delta(sa, sb, days),
        })
    counts_a = _event_counts(a.events)
    counts_b = _event_counts(b.events)
    for kind in sorted(set(counts_a) & set(counts_b)):
        sink.add(
            "events", kind, counts_a[kind], counts_b[kind],
            direction=lower_is_better(kind),
        )
    return {"pairs": out_pairs}


def _event_counts(events: Sequence[Dict[str, object]]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for row in events:
        kind = str(row.get("type", "?"))
        if kind in ("day_sample", "log_truncated"):
            continue
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def _diff_disktrace(
    a: RunArtifacts, b: RunArtifacts, sink: _DeltaSink
) -> Optional[Dict[str, object]]:
    if a.disk_trace is None or b.disk_trace is None:
        return None
    from repro.obs.heatmap import (
        seek_distance_histogram,
        service_time_histogram,
        trace_summary,
    )

    summary_a = trace_summary(a.disk_trace)
    summary_b = trace_summary(b.disk_trace)
    for key in sorted(set(summary_a) & set(summary_b)):
        va, vb = summary_a[key], summary_b[key]
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
            sink.add(
                "trace", key, va, vb, direction=lower_is_better(key)
            )
    histograms: List[Dict[str, object]] = []
    for name, build in (
        ("seek_distance_cyl", seek_distance_histogram),
        ("service_time_ms", service_time_histogram),
    ):
        ha = build(a.disk_trace)
        hb = build(b.disk_trace)
        if ha is None or hb is None:
            continue
        histograms.append(_diff_histogram("trace", name, ha, hb, sink))
    return {"histograms": histograms}


def _diff_placement(
    a: RunArtifacts, b: RunArtifacts, sink: _DeltaSink
) -> Optional[Dict[str, object]]:
    if a.placement is None or b.placement is None:
        return None
    pa, pb = a.placement, b.placement
    for key, direction, floor in (
        ("aggregate_layout_score", False, SCORE_ABS_FLOOR),
        ("utilization", None, None),
        ("files_total", None, None),
    ):
        va, vb = pa.get(key), pb.get(key)
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
            sink.add("placement", key, va, vb,
                     direction=direction, abs_floor=floor)
    fa = pa.get("freespace")
    fb = pb.get("freespace")
    fa = fa if isinstance(fa, dict) else {}
    fb = fb if isinstance(fb, dict) else {}
    for key in ("n_runs", "largest_run", "clusterable_fraction"):
        va, vb = fa.get(key), fb.get(key)
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
            sink.add("placement", f"freespace.{key}", va, vb,
                     direction=lower_is_better(key))
    groups_a = pa.get("groups")
    groups_b = pb.get("groups")
    groups_a = groups_a if isinstance(groups_a, list) else []
    groups_b = groups_b if isinstance(groups_b, list) else []
    spill_a = sum(int(g.get("spill_blocks", 0)) for g in groups_a)
    spill_b = sum(int(g.get("spill_blocks", 0)) for g in groups_b)
    sink.add("placement", "spill_blocks", spill_a, spill_b, direction=True)
    occupancy_delta = [
        round(
            float(gb.get("occupancy", 0.0)) - float(ga.get("occupancy", 0.0)),
            4,
        )
        for ga, gb in zip(groups_a, groups_b)
    ]
    return {
        "label_a": pa.get("label"),
        "label_b": pb.get("label"),
        "occupancy_delta": occupancy_delta,
    }


def diff_runs(
    a: RunArtifacts,
    b: RunArtifacts,
    classifier: Optional[Classifier] = None,
) -> Dict[str, object]:
    """Structurally compare two runs; returns the ``repro.diff/v1`` doc.

    Every classified delta lands in the flat ``deltas`` list (ranked
    regression → notable → noise, then by section and name); the
    section blocks carry the series and matrices the renderers need.
    ``significant`` counts the deltas that cleared the classifier.
    """
    classifier = classifier if classifier is not None else Classifier()
    sink = _DeltaSink(classifier)
    meta = _diff_meta(a, b, sink)
    summary = _diff_summaries(a, b, sink)
    metrics = _diff_metrics(a, b, sink)
    timeline = _diff_timeline(a, b, sink, classifier)
    disktrace = _diff_disktrace(a, b, sink)
    placement = _diff_placement(a, b, sink)
    deltas = sink.sorted_rows()
    counts = {NOISE: 0, NOTABLE: 0, REGRESSION: 0}
    for row in deltas:
        counts[str(row["label"])] += 1
    document: Dict[str, object] = {
        "schema": SCHEMA,
        "a": _side_info(a),
        "b": _side_info(b),
        "classifier": classifier.to_dict(),
        "meta": meta,
        "summary": summary,
        "metrics": metrics,
        "deltas": deltas,
        "counts": counts,
        "significant": counts[NOTABLE] + counts[REGRESSION],
    }
    if timeline is not None:
        document["timeline"] = timeline
    if disktrace is not None:
        document["disktrace"] = disktrace
    if placement is not None:
        document["placement"] = placement
    return document


# ----------------------------------------------------------------------
# Text rendering
# ----------------------------------------------------------------------


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value and abs(value) < 0.01:
            return f"{value:.4g}"
        return f"{value:,.3f}".rstrip("0").rstrip(".")
    return f"{value:,}" if isinstance(value, int) else str(value)


def _fmt_delta(row: Mapping[str, object]) -> str:
    delta = row.get("delta")
    rel = row.get("rel")
    sign = "+" if isinstance(delta, (int, float)) and delta >= 0 else ""
    text = f"{sign}{_fmt(delta)}"
    if isinstance(rel, (int, float)):
        text += f", {'+' if rel >= 0 else ''}{rel:.1%}"
    return text


def render_diff(document: Dict[str, object]) -> str:
    """Deterministic text form of a ``repro.diff/v1`` document."""
    a = document.get("a")
    b = document.get("b")
    a = a if isinstance(a, dict) else {}
    b = b if isinstance(b, dict) else {}

    def side_line(tag: str, side: Mapping[str, object]) -> str:
        bits = [f"repro-ffs {side.get('command', '?')}"]
        for key in ("preset", "policy", "backend"):
            if side.get(key):
                bits.append(f"{key} {side[key]}")
        wall = side.get("wall_seconds")
        if isinstance(wall, (int, float)):
            bits.append(f"wall {wall:.2f}s")
        return f"  {tag}: {side.get('label', '?')} ({', '.join(bits)})"

    lines = [
        f"run diff: {a.get('label', '?')} -> {b.get('label', '?')}",
        side_line("a", a),
        side_line("b", b),
    ]
    meta = document.get("meta")
    meta = meta if isinstance(meta, dict) else {}
    config = meta.get("config")
    config = config if isinstance(config, dict) else {}
    changed = config.get("changed")
    if isinstance(changed, dict) and changed:
        pairs = ", ".join(
            f"{key}: {_fmt(vals[0])} -> {_fmt(vals[1])}"
            for key, vals in sorted(changed.items())
        )
        lines.append(f"  config changes: {pairs}")
    env = meta.get("environment")
    env = env if isinstance(env, dict) else {}
    env_changed = env.get("changed")
    if isinstance(env_changed, dict) and env_changed:
        pairs = ", ".join(
            f"{key}: {vals[0]} -> {vals[1]}"
            for key, vals in sorted(env_changed.items())
        )
        lines.append(f"  environment changes: {pairs}")
    deltas = document.get("deltas")
    deltas = deltas if isinstance(deltas, list) else []
    significant = [r for r in deltas if r.get("label") != NOISE]
    lines.append("")
    lines.append(
        f"significant deltas: {len(significant)} of {len(deltas)} compared"
    )
    for row in significant:
        lines.append(
            f"  {str(row.get('label', '?')).upper():<11}"
            f"{str(row.get('section', '?')):<10} "
            f"{str(row.get('name', '?')):<36} "
            f"{_fmt(row.get('baseline'))} -> {_fmt(row.get('current'))}  "
            f"({_fmt_delta(row)})"
        )
    if not significant:
        lines.append("  (none — the runs are equivalent under the classifier)")
    timeline = document.get("timeline")
    timeline = timeline if isinstance(timeline, dict) else {}
    for pair in timeline.get("pairs", []):  # type: ignore[union-attr]
        name = (
            pair["label_a"] if pair["label_a"] == pair["label_b"]
            else f"{pair['label_a']} vs {pair['label_b']}"
        )
        day = pair.get("first_divergence_day")
        lines.append(
            f"first divergence [{name}]: "
            + (f"day {day}" if day is not None else "none within the overlap")
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Registry drift detection
# ----------------------------------------------------------------------


def fit_trend(values: Sequence[float]) -> Tuple[float, float]:
    """Least-squares (slope, intercept) of values over x = 0..n-1."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    x_bar = (n - 1) / 2.0
    y_bar = sum(values) / n
    sxx = sum((i - x_bar) ** 2 for i in range(n))
    if not sxx:
        return 0.0, y_bar
    sxy = sum((i - x_bar) * (v - y_bar) for i, v in enumerate(values))
    slope = sxy / sxx
    return slope, y_bar - slope * x_bar


def _drift_series(
    runs: Sequence[Dict[str, object]],
) -> Dict[str, List[float]]:
    """Chronological metric series from run-store summaries.

    Layout scores fan out per policy label (``layout_score[FFS]``);
    runs missing a metric simply contribute nothing to that series, so
    a registry mixing ``age`` and ``freespace`` runs still trends what
    each run actually observed.
    """
    series: Dict[str, List[float]] = {}
    for document in runs:
        summary = document.get("summary")
        summary = summary if isinstance(summary, dict) else {}
        scores = summary.get("layout_scores")
        if isinstance(scores, dict):
            for label, value in scores.items():
                if isinstance(value, (int, float)):
                    series.setdefault(
                        f"layout_score[{label}]", []
                    ).append(float(value))
        for key in ("throughput_mb_s", "lost_rotations", "seek_p99_ms",
                    "write_amplification", "flash_erases",
                    "ssd_throughput_mb_s"):
            value = summary.get(key)
            if isinstance(value, (int, float)):
                series.setdefault(key, []).append(float(value))
    return series


def detect_drift(
    runs: Sequence[Dict[str, object]],
    classifier: Optional[Classifier] = None,
    min_points: int = 3,
) -> Dict[str, object]:
    """Fit trend lines over recorded-run summaries; classify the drift.

    ``runs`` must be chronological (the run store's natural order).
    For each metric series with at least ``min_points`` observations
    the least-squares line is fitted and its projected movement across
    the window (slope × (n−1), measured from the fitted start to the
    fitted end) goes through the classifier — so one noisy run cannot
    flag drift, but a consistent slide across the window can.
    """
    classifier = classifier if classifier is not None else Classifier()
    trends: List[Dict[str, object]] = []
    series = _drift_series(runs)
    for name in sorted(series):
        values = series[name]
        if len(values) < min_points:
            continue
        slope, intercept = fit_trend(values)
        fitted_first = intercept
        fitted_last = intercept + slope * (len(values) - 1)
        floor = SCORE_ABS_FLOOR if name.startswith("layout_score") else None
        verdict = classifier.classify(
            fitted_first, fitted_last,
            direction=lower_is_better(name), abs_floor=floor,
        )
        trends.append({
            "metric": name,
            "n": len(values),
            "first": values[0],
            "last": values[-1],
            "slope_per_run": round(slope, 6),
            "projected_change": round(fitted_last - fitted_first, 6),
            "rel": verdict["rel"],
            "label": verdict["label"],
        })
    trends.sort(
        key=lambda t: (_SEVERITY_RANK[str(t["label"])], str(t["metric"]))
    )
    counts = {NOISE: 0, NOTABLE: 0, REGRESSION: 0}
    for trend in trends:
        counts[str(trend["label"])] += 1
    return {
        "schema": DRIFT_SCHEMA,
        "window": len(runs),
        "classifier": classifier.to_dict(),
        "trends": trends,
        "counts": counts,
        "drifting": counts[NOTABLE] + counts[REGRESSION],
    }


def render_drift(document: Dict[str, object]) -> str:
    """``repro-ffs history --drift``'s text form of a drift document."""
    from repro.analysis.report import render_table

    trends = document.get("trends")
    trends = trends if isinstance(trends, list) else []
    if not trends:
        return (
            f"registry drift: no metric series with enough recorded "
            f"points in the window ({document.get('window', 0)} runs); "
            f"record more runs with --record"
        )
    rows = [
        [
            str(t.get("metric", "?")),
            str(t.get("n", "?")),
            _fmt(t.get("first")),
            _fmt(t.get("last")),
            _fmt(t.get("slope_per_run")),
            _fmt_delta({"delta": t.get("projected_change"),
                        "rel": t.get("rel")}),
            str(t.get("label", "?")).upper(),
        ]
        for t in trends
    ]
    head = (
        f"registry drift over {document.get('window', 0)} recorded runs: "
        f"{document.get('drifting', 0)} drifting series"
    )
    return head + "\n" + render_table(
        ["metric", "n", "first", "last", "slope/run", "projected", "label"],
        rows,
    )
