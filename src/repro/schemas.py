"""Central registry of every versioned payload schema the repo ships.

Every JSON document this project writes — manifests, event rows, disk
traces, cache entries, diff/drift/chaos/inspect reports, the lint
report itself — carries a ``"schema"`` tag of the form
``repro.<family>/v<N>`` (or ``replint.<family>/v<N>`` for the
analyzer's own formats).  Writers stamp the tag; readers refuse
documents whose tag does not match; tests pin the values.  Before this
module existed each of those strings was hard-coded at its site, so a
writer could bump its version while a reader (or a test fixture) kept
comparing against the old one — and nothing would notice until a cached
or archived document failed to load much later.

This module is the single source of truth.  Rules:

* every schema tag is declared here, exactly once, as a module constant;
* every write site, read site, and test imports the constant — the
  literal string appears nowhere else in ``src`` (the R102 lint rule
  enforces this project-wide);
* bumping a version is a one-line change here plus whatever migration
  the owning module needs — writer/reader/test skew becomes impossible
  because they all reference the same name.

The module is intentionally dependency-free (pure constants) so any
layer — including :mod:`repro.lint`, which analyzes everything else —
can import it without cycles.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

# --- observability payloads ---------------------------------------------

#: Run manifest: config + environment + metric registry (``--metrics``).
MANIFEST = "repro.obs.manifest/v2"
#: Typed JSONL event timeline (``--events``).
EVENTS = "repro.obs.events/v1"
#: Per-request disk I/O trace JSONL (``--disk-trace``).  ``/v2``: a
#: truncated trace ends with the event log's ``log_truncated`` row.
DISKTRACE = "repro.obs.disktrace/v2"
#: Persistent run-registry documents under ``.repro/runs`` (``--record``).
RUNSTORE = "repro.obs.runstore/v1"

# --- comparison / analysis documents ------------------------------------

#: ``repro-ffs diff`` structural run comparison.
DIFF = "repro.diff/v1"
#: ``repro-ffs history --drift`` trend/projection document.
DRIFT = "repro.drift/v1"
#: ``repro-ffs inspect`` block-placement document.
INSPECT = "repro.inspect/v1"

# --- experiment infrastructure -------------------------------------------

#: Persistent aged-filesystem artifact-cache entries.
CACHE = "repro.cache/v1"
#: ``repro-ffs chaos`` crash-grid report.
CHAOS = "repro.chaos/v1"

# --- flash storage substrate ---------------------------------------------

#: SSD geometry/FTL parameter record (``SSDGeometry.to_dict``).
SSD_CONFIG = "repro.ssd.config/v1"
#: SSD per-run stats record (``SSDStats.to_document``): flash ops,
#: GC accounting, mapping-cache traffic, write amplification.
SSD_STATS = "repro.ssd.stats/v1"

# --- the analyzer's own formats ------------------------------------------

#: ``repro-ffs lint --json`` findings report.
LINT_REPORT = "replint.report/v1"
#: Committed grandfather baseline (``.replint-baseline.json``).  v2 added
#: the enclosing-symbol component to fingerprints, so a v1 file (keyed by
#: line text alone) no longer loads.
LINT_BASELINE = "replint.baseline/v2"
#: ``repro-ffs lint --graph-json`` whole-program call-graph export.
LINT_GRAPH = "replint.graph/v1"

#: Every declared schema tag, keyed by its constant name.  R102 reads
#: this to know what "declared" means; keep it mechanical — one entry
#: per constant above.
REGISTRY: Dict[str, str] = {
    "MANIFEST": MANIFEST,
    "EVENTS": EVENTS,
    "DISKTRACE": DISKTRACE,
    "RUNSTORE": RUNSTORE,
    "DIFF": DIFF,
    "DRIFT": DRIFT,
    "INSPECT": INSPECT,
    "CACHE": CACHE,
    "CHAOS": CHAOS,
    "SSD_CONFIG": SSD_CONFIG,
    "SSD_STATS": SSD_STATS,
    "LINT_REPORT": LINT_REPORT,
    "LINT_BASELINE": LINT_BASELINE,
    "LINT_GRAPH": LINT_GRAPH,
}


def split_tag(tag: str) -> Optional[Tuple[str, int]]:
    """Split ``"repro.diff/v1"`` into ``("repro.diff", 1)``.

    Returns ``None`` for strings that are not versioned schema tags —
    callers use this both to validate declared tags and to recognize
    candidate tags in source text.
    """
    family, sep, version = tag.partition("/v")
    if not sep or not family or not version.isdigit():
        return None
    return family, int(version)
