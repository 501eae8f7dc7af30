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
from typing import (
    TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple,
)

from repro.obs.events import DAY_SAMPLE, LOG_TRUNCATED, count_types
from repro.obs.export import bucket_quantiles
from repro.obs.manifest import RunManifest

from repro import schemas

if TYPE_CHECKING:
    from repro.obs.heatmap import DaySample
    from repro.obs.runfile import Run

#: A ``repro.diff/v1`` or ``repro.drift/v1`` document.  Only this
#: module builds them, so its renderers index them without re-checking.
Document = Dict[str, Any]

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
    "pair_name",
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
    ) -> Dict[str, Any]:
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


# ----------------------------------------------------------------------
# Run diffing
# ----------------------------------------------------------------------


@dataclass
class RunArtifacts:
    """One side of a diff: a loaded run, its label, and optionally the
    placement document of the run's saved image.

    Only the run's manifest is required; the optional artifacts each
    unlock one more diff section when both sides carry them (events →
    timeline, disk rows → locality shifts, placement document → spatial
    comparison).  The run's ``summary`` is the run store's distilled
    headline block; when absent it is recomputed from the manifest, so
    an unrecorded run file diffs identically to a registry entry.  Every
    field arrives through its loader (the run-file loader of
    :mod:`repro.obs.runfile`, the image loader), so the differ trusts
    its shape.
    """

    label: str
    run: Run
    placement: Optional[Dict[str, Any]] = None

    def headline(self) -> Dict[str, Any]:
        if self.run.summary is not None:
            return dict(self.run.summary)
        from repro.obs.store import summarize_manifest

        return summarize_manifest(self.run.manifest)


class _DeltaSink:
    """Collects every classified delta into the flat, ranked list."""

    def __init__(self, classifier: Classifier) -> None:
        self.classifier = classifier
        self.rows: List[Dict[str, Any]] = []

    def add(
        self,
        section: str,
        name: str,
        baseline: float,
        current: float,
        direction: Optional[bool] = None,
        abs_floor: Optional[float] = None,
    ) -> None:
        verdict = self.classifier.classify(
            float(baseline),
            float(current),
            direction=direction,
            abs_floor=abs_floor,
        )
        self.rows.append({"section": section, "name": name, **verdict})

    def sorted_rows(self) -> List[Dict[str, Any]]:
        return sorted(
            self.rows,
            key=lambda r: (
                _SEVERITY_RANK[r["label"]], r["section"], r["name"]
            ),
        )


def _side_info(side: RunArtifacts) -> Dict[str, object]:
    manifest = side.run.manifest
    return {
        "label": side.label,
        "command": manifest.command,
        "preset": manifest.config.get("preset"),
        "policy": manifest.config.get("policy"),
        "backend": manifest.config.get("backend"),
        "schema": manifest.schema,
        "wall_seconds": manifest.wall_seconds,
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


def _scalar_config(manifest: RunManifest) -> Dict[str, object]:
    return {
        key: value
        for key, value in manifest.config.items()
        if not isinstance(value, (dict, list))
    }


def _diff_meta(
    a: RunArtifacts, b: RunArtifacts, sink: _DeltaSink
) -> Dict[str, object]:
    wall_a = a.run.manifest.wall_seconds
    wall_b = b.run.manifest.wall_seconds
    if wall_a is not None and wall_b is not None:
        sink.add(
            "meta", "wall_seconds", wall_a, wall_b,
            direction=True, abs_floor=WALL_CLOCK_ABS_FLOOR_S,
        )
    return {
        "config": _diff_mappings(_scalar_config(a.run.manifest),
                                 _scalar_config(b.run.manifest)),
        "environment": _diff_mappings(a.run.manifest.environment,
                                      b.run.manifest.environment),
    }


def _bucket_deltas(
    base: Mapping[str, Any], cur: Mapping[str, Any]
) -> List[List[object]]:
    """Per-bucket count deltas, aligned on the union of bucket bounds.

    Bounds come out in the baseline's ladder order (current-only bounds
    appended in their own order), so two snapshots of the same
    histogram — the only case that arises in practice — keep their
    geometric ladder.
    """
    base_counts: Dict[object, int] = {}
    order: List[object] = []
    for bound, count in base["buckets"]:
        key = str(bound)
        base_counts[key] = int(count)
        order.append(bound)
    cur_counts: Dict[object, int] = {}
    for bound, count in cur["buckets"]:
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
    base: Dict[str, Any],
    cur: Dict[str, Any],
    sink: _DeltaSink,
) -> Dict[str, object]:
    """Quantile-rule classification of one histogram pair + the signed
    per-bucket deltas the HTML report draws."""
    direction = lower_is_better(name)
    sink.add(section, f"{name}.count", base["count"], cur["count"])
    base_q = bucket_quantiles(base)
    cur_q = bucket_quantiles(cur)
    for key in sorted(base_q):
        qb, qc = base_q[key], cur_q[key]
        if qb is not None and qc is not None:
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
    metrics_a = a.run.manifest.metrics
    metrics_b = b.run.manifest.metrics
    histograms: List[Dict[str, object]] = []
    compared = 0
    for name in sorted(set(metrics_a) & set(metrics_b)):
        da, db = metrics_a[name], metrics_b[name]
        if da["type"] != db["type"]:
            continue
        compared += 1
        if da["type"] == "histogram":
            histograms.append(_diff_histogram("metrics", name, da, db, sink))
        else:
            sink.add(
                "metrics", name, da["value"], db["value"],
                direction=lower_is_better(name),
            )
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
    scores_a = sa.pop("layout_scores", {})
    scores_b = sb.pop("layout_scores", {})
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
    for key in sorted(set(sa) & set(sb) - {"wall_seconds"}):
        # wall_seconds is already classified under meta.
        sink.add("summary", key, sa[key], sb[key],
                 direction=lower_is_better(key))
    # Flash-substrate numbers ride along verbatim so renderers can show
    # them even when only one side ran on --backend ssd (a disk-vs-ssd
    # diff has no shared key to classify, but the values still matter).
    ssd_keys = ("write_amplification", "flash_erases", "gc_moved_pages",
                "ssd_throughput_mb_s")
    ssd = {
        tag: {key: side[key] for key in ssd_keys if key in side}
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


def _occupancy_delta(
    sa: Mapping[int, DaySample],
    sb: Mapping[int, DaySample],
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
        va = sa[day].cg_occupancy
        vb = sb[day].cg_occupancy
        if va is None or vb is None or not va:
            continue
        kept_days.append(day)
        matrix.append([
            round(float(y) - float(x), 4) for x, y in zip(va, vb)
        ])
    if not matrix:
        return None
    return {"days": kept_days, "matrix": matrix}


def _diff_timeline(
    a: RunArtifacts, b: RunArtifacts, sink: _DeltaSink,
    classifier: Classifier,
) -> Optional[Dict[str, object]]:
    if a.run.events is None or b.run.events is None:
        return None
    from repro.obs.heatmap import day_samples

    samples_a = {
        label: {s.day: s for s in rows}
        for label, rows in day_samples(a.run.events).items()
    }
    samples_b = {
        label: {s.day: s for s in rows}
        for label, rows in day_samples(b.run.events).items()
    }
    pairs = [(label, label) for label in samples_a if label in samples_b]
    if not pairs and len(samples_a) == 1 and len(samples_b) == 1:
        pairs = [(next(iter(samples_a)), next(iter(samples_b)))]
    out_pairs: List[Dict[str, object]] = []
    for la, lb in pairs:
        sa, sb = samples_a[la], samples_b[lb]
        days = sorted(set(sa) & set(sb))
        if not days:
            continue
        divergence: List[List[float]] = []
        first_divergence: Optional[int] = None
        for day in days:
            va, vb = sa[day].layout_score, sb[day].layout_score
            divergence.append([float(day), round(float(vb) - float(va), 6)])
            if first_divergence is None:
                verdict = classifier.classify(
                    float(va), float(vb), abs_floor=SCORE_ABS_FLOOR
                )
                if verdict["label"] != NOISE:
                    first_divergence = day
        pair_name = la if la == lb else f"{la} vs {lb}"
        last_a, last_b = sa[days[-1]], sb[days[-1]]
        sink.add(
            "timeline", f"layout_score[{pair_name}].final",
            last_a.layout_score, last_b.layout_score,
            direction=False, abs_floor=SCORE_ABS_FLOOR,
        )
        sink.add(
            "timeline", f"utilization[{pair_name}].final",
            last_a.utilization, last_b.utilization,
        )
        out_pairs.append({
            "label_a": la,
            "label_b": lb,
            "days": days,
            "score_a": [[float(d), float(sa[d].layout_score)] for d in days],
            "score_b": [[float(d), float(sb[d].layout_score)] for d in days],
            "score_divergence": divergence,
            "first_divergence_day": first_divergence,
            "occupancy_delta": _occupancy_delta(sa, sb, days),
        })
    # Day samples are compared above; the truncation marker is no event.
    skip = (DAY_SAMPLE, LOG_TRUNCATED)
    counts_a = count_types(a.run.events, skip)
    counts_b = count_types(b.run.events, skip)
    for kind in sorted(set(counts_a) & set(counts_b)):
        sink.add(
            "events", kind, counts_a[kind], counts_b[kind],
            direction=lower_is_better(kind),
        )
    return {"pairs": out_pairs}


def _diff_disktrace(
    a: RunArtifacts, b: RunArtifacts, sink: _DeltaSink
) -> Optional[Dict[str, object]]:
    if a.run.disk is None or b.run.disk is None:
        return None
    from repro.obs.heatmap import (
        seek_distance_histogram,
        service_time_histogram,
        trace_summary,
    )

    summary_a = trace_summary(a.run.disk)
    summary_b = trace_summary(b.run.disk)
    for key in sorted(summary_a):
        sink.add("trace", key, summary_a[key], summary_b[key],
                 direction=lower_is_better(key))
    histograms: List[Dict[str, object]] = []
    for name, build in (
        ("seek_distance_cyl", seek_distance_histogram),
        ("service_time_ms", service_time_histogram),
    ):
        ha = build(a.run.disk)
        hb = build(b.run.disk)
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
        sink.add("placement", key, pa[key], pb[key],
                 direction=direction, abs_floor=floor)
    for key in ("n_runs", "largest_run", "clusterable_fraction"):
        sink.add("placement", f"freespace.{key}",
                 pa["freespace"][key], pb["freespace"][key],
                 direction=lower_is_better(key))
    groups_a, groups_b = pa["groups"], pb["groups"]
    sink.add(
        "placement", "spill_blocks",
        sum(g["spill_blocks"] for g in groups_a),
        sum(g["spill_blocks"] for g in groups_b),
        direction=True,
    )
    return {
        "label_a": pa["label"],
        "label_b": pb["label"],
        "occupancy_delta": [
            round(gb["occupancy"] - ga["occupancy"], 4)
            for ga, gb in zip(groups_a, groups_b)
        ],
    }


def diff_runs(
    a: RunArtifacts,
    b: RunArtifacts,
    classifier: Optional[Classifier] = None,
) -> Document:
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
        counts[row["label"]] += 1
    document: Document = {
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


def _fmt_delta(row: Mapping[str, Any]) -> str:
    delta = row["delta"]
    rel = row["rel"]
    text = f"{'+' if delta >= 0 else ''}{_fmt(delta)}"
    if rel is not None:
        text += f", {'+' if rel >= 0 else ''}{rel:.1%}"
    return text


def render_diff(document: Document) -> str:
    """Deterministic text form of a ``repro.diff/v1`` document."""
    a, b = document["a"], document["b"]

    def side_line(tag: str, side: Mapping[str, Any]) -> str:
        bits = [f"repro-ffs {side['command']}"]
        for key in ("preset", "policy", "backend"):
            if side[key]:
                bits.append(f"{key} {side[key]}")
        if side["wall_seconds"] is not None:
            bits.append(f"wall {side['wall_seconds']:.2f}s")
        return f"  {tag}: {side['label']} ({', '.join(bits)})"

    lines = [
        f"run diff: {a['label']} -> {b['label']}",
        side_line("a", a),
        side_line("b", b),
    ]
    changed = document["meta"]["config"]["changed"]
    if changed:
        pairs = ", ".join(
            f"{key}: {_fmt(vals[0])} -> {_fmt(vals[1])}"
            for key, vals in sorted(changed.items())
        )
        lines.append(f"  config changes: {pairs}")
    env_changed = document["meta"]["environment"]["changed"]
    if env_changed:
        pairs = ", ".join(
            f"{key}: {vals[0]} -> {vals[1]}"
            for key, vals in sorted(env_changed.items())
        )
        lines.append(f"  environment changes: {pairs}")
    deltas = document["deltas"]
    significant = [r for r in deltas if r["label"] != NOISE]
    lines.append("")
    lines.append(
        f"significant deltas: {len(significant)} of {len(deltas)} compared"
    )
    for row in significant:
        lines.append(
            f"  {row['label'].upper():<11}"
            f"{row['section']:<10} "
            f"{row['name']:<36} "
            f"{_fmt(row['baseline'])} -> {_fmt(row['current'])}  "
            f"({_fmt_delta(row)})"
        )
    if not significant:
        lines.append("  (none — the runs are equivalent under the classifier)")
    for pair in document.get("timeline", {}).get("pairs", []):
        day = pair["first_divergence_day"]
        lines.append(
            f"first divergence [{pair_name(pair)}]: "
            + (f"day {day}" if day is not None else "none within the overlap")
        )
    return "\n".join(lines)


def pair_name(pair: Mapping[str, Any]) -> str:
    """``FFS`` for a same-label timeline pair, ``FFS vs Realloc`` else."""
    la, lb = pair["label_a"], pair["label_b"]
    return str(la) if la == lb else f"{la} vs {lb}"


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


def detect_drift(
    runs: Sequence[Run],
    classifier: Optional[Classifier] = None,
    min_points: int = 3,
) -> Document:
    """Fit trend lines over recorded-run summaries; classify the drift.

    ``runs`` must be chronological (the run store's natural order).
    For each metric series with at least ``min_points`` observations
    the least-squares line is fitted and its projected movement across
    the window (slope × (n−1), measured from the fitted start to the
    fitted end) goes through the classifier — so one noisy run cannot
    flag drift, but a consistent slide across the window can.
    """
    from repro.obs.store import summary_series

    classifier = classifier if classifier is not None else Classifier()
    trends: List[Dict[str, Any]] = []
    series = summary_series(list(runs))
    for name in sorted(series):
        values = [value for _index, value in series[name]]
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
    trends.sort(key=lambda t: (_SEVERITY_RANK[t["label"]], t["metric"]))
    counts = {NOISE: 0, NOTABLE: 0, REGRESSION: 0}
    for trend in trends:
        counts[trend["label"]] += 1
    return {
        "schema": DRIFT_SCHEMA,
        "window": len(runs),
        "classifier": classifier.to_dict(),
        "trends": trends,
        "counts": counts,
        "drifting": counts[NOTABLE] + counts[REGRESSION],
    }


def render_drift(document: Document) -> str:
    """``repro-ffs history --drift``'s text form of a drift document."""
    from repro.analysis.report import render_table

    trends = document["trends"]
    if not trends:
        return (
            f"registry drift: no metric series with enough recorded "
            f"points in the window ({document['window']} runs); "
            f"record more runs with --record"
        )
    rows = [
        [
            t["metric"],
            str(t["n"]),
            _fmt(t["first"]),
            _fmt(t["last"]),
            _fmt(t["slope_per_run"]),
            _fmt_delta({"delta": t["projected_change"], "rel": t["rel"]}),
            t["label"].upper(),
        ]
        for t in trends
    ]
    head = (
        f"registry drift over {document['window']} recorded runs: "
        f"{document['drifting']} drifting series"
    )
    return head + "\n" + render_table(
        ["metric", "n", "first", "last", "slope/run", "projected", "label"],
        rows,
    )
