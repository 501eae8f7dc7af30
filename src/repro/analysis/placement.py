"""Block-placement introspection: the engine behind ``repro-ffs inspect``.

The layout score compresses an entire file system's placement into one
number; this module keeps the spatial structure that number throws
away.  For a (usually aged) file system it answers, group by group and
file by file, the questions Section 4 of the paper argues from:

* **Where does each group's data live?** — per-CG occupancy, blocks
  used, free runs, the cylinder range the group maps onto, and how
  many *spill* blocks it holds (data belonging to files homed in a
  different group — the footprint of allocator fallbacks).
* **Which files paid for fragmentation?** — the largest files with
  their block counts, per-file layout score, and how many groups and
  cylinders their blocks straddle.
* **How fragmented is what's left?** — the free-space profile the
  allocator will have to work with next.

:func:`inspect_filesystem` distils all of this into one plain
``repro.inspect/v1`` document (deterministic for a given image: every
list is sorted, every float rounded), and the render helpers turn one
or two documents into the text tables and comparisons the subcommand
prints.  HTML rendering lives with the other HTML in
:mod:`repro.obs.report_html`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.analysis.freespace import free_space_stats
from repro.analysis.layout import file_layout_score, optimal_pairs
from repro.disk.geometry import DiskGeometry
from repro.ffs.filesystem import FileSystem

from repro import schemas

SCHEMA = schemas.INSPECT

__all__ = ["inspect_filesystem", "render_inspection", "render_comparison",
           "SCHEMA"]


def _cylinder_of_block(geo: DiskGeometry, block: int, block_size: int) -> int:
    return geo.cylinder_of_sector(geo.sector_of_byte(block * block_size))


def inspect_filesystem(
    fs: FileSystem,
    label: Optional[str] = None,
    top_files: int = 15,
) -> Dict[str, Any]:
    """One deterministic placement document for one file system."""
    params = fs.params
    geo = DiskGeometry()
    frags_per_cg = params.blocks_per_cg * params.frags_per_block

    # --- file walk: home groups, spill, spans, aggregate score --------
    homed: Dict[int, int] = {}
    blocks_in_cg: Dict[int, int] = {}
    spill_in_cg: Dict[int, int] = {}
    optimal_total = countable_total = 0
    files: List[Dict[str, Any]] = []
    for inode in sorted(fs.files(), key=lambda i: i.ino):
        block_list = inode.data_block_list()
        optimal, countable = optimal_pairs(block_list)
        optimal_total += optimal
        countable_total += countable
        homed[inode.alloc_cg] = homed.get(inode.alloc_cg, 0) + 1
        touched = set()
        for block in block_list:
            cg = params.cg_of_block(block)
            touched.add(cg)
            blocks_in_cg[cg] = blocks_in_cg.get(cg, 0) + 1
            if cg != inode.alloc_cg:
                spill_in_cg[cg] = spill_in_cg.get(cg, 0) + 1
        score = file_layout_score(inode)
        cyls = [
            _cylinder_of_block(geo, b, params.block_size) for b in block_list
        ]
        files.append({
            "ino": inode.ino,
            "size": inode.size,
            "blocks": len(block_list),
            "home_cg": inode.alloc_cg,
            "cg_span": len(touched),
            "cyl_span": (max(cyls) - min(cyls) + 1) if cyls else 0,
            "layout_score": round(score, 4) if score is not None else None,
        })
    files.sort(key=lambda f: (-int(f["size"]), f["ino"]))
    files = files[:top_files]

    # --- group walk: occupancy, free structure, cylinder range --------
    groups: List[Dict[str, Any]] = []
    for cg in fs.sb.cgs:
        runs = [length for _start, length in cg.bitmap.block_runs()]
        base = params.cg_base_block(cg.index)
        last = base + params.blocks_per_cg - 1
        groups.append({
            "cg": cg.index,
            "occupancy": round(1.0 - cg.free_frags / frags_per_cg, 4),
            "files_homed": homed.get(cg.index, 0),
            "data_blocks": blocks_in_cg.get(cg.index, 0),
            "spill_blocks": spill_in_cg.get(cg.index, 0),
            "free_blocks": cg.free_blocks,
            "free_runs": len(runs),
            "largest_free_run": max(runs) if runs else 0,
            "cylinders": [
                _cylinder_of_block(geo, base, params.block_size),
                _cylinder_of_block(geo, last, params.block_size),
            ],
        })

    stats = free_space_stats(fs)
    return {
        "schema": SCHEMA,
        "label": label or fs.policy.name,
        "policy": fs.policy.name,
        "params": {
            "block_size": params.block_size,
            "frag_size": params.frag_size,
            "ncg": params.ncg,
            "maxcontig": params.maxcontig,
        },
        "files_total": len(fs.files()),
        "utilization": round(fs.utilization(), 4),
        "aggregate_layout_score": round(
            optimal_total / countable_total, 4
        ) if countable_total else 1.0,
        "freespace": stats.to_dict(),
        "groups": groups,
        "files": files,
    }


def _groups_table(document: Dict[str, Any]) -> str:
    from repro.analysis.report import render_table

    rows = []
    for g in document["groups"]:
        cyl_lo, cyl_hi = g["cylinders"]
        rows.append([
            str(g["cg"]),
            f"{g['occupancy']:.2f}",
            str(g["files_homed"]),
            str(g["data_blocks"]),
            str(g["spill_blocks"]),
            str(g["free_runs"]),
            str(g["largest_free_run"]),
            f"{cyl_lo}-{cyl_hi}",
        ])
    return render_table(
        ["cg", "occ", "files", "blocks", "spill", "runs", "max run",
         "cylinders"],
        rows,
        title="cylinder groups",
    )


def _files_table(document: Dict[str, Any]) -> str:
    from repro.analysis.report import render_table
    from repro.units import fmt_size

    rows = []
    for f in document["files"]:
        score = f["layout_score"]
        rows.append([
            str(f["ino"]),
            fmt_size(int(f["size"])),
            str(f["blocks"]),
            str(f["home_cg"]),
            str(f["cg_span"]),
            str(f["cyl_span"]),
            f"{score:.3f}" if score is not None else "-",
        ])
    return render_table(
        ["ino", "size", "blocks", "home cg", "cg span", "cyl span", "score"],
        rows,
        title=f"largest files (top {len(rows)} of "
        f"{document['files_total']})",
    )


def render_inspection(document: Dict[str, Any]) -> str:
    """``repro-ffs inspect``'s text form of one placement document."""
    free = document["freespace"]
    head = (
        f"placement inspection — {document['label']} "
        f"(policy {document['policy']})\n"
        f"  utilization {document['utilization']:.0%} · aggregate layout "
        f"score {document['aggregate_layout_score']:.3f}\n"
        f"  free space: {free['free_blocks']:.0f} blocks in "
        f"{free['n_runs']:.0f} runs, largest {free['largest_run']:.0f}, "
        f"clusterable {free['clusterable_fraction']:.0%}"
    )
    return "\n".join([
        head, "", _groups_table(document), "", _files_table(document),
    ])


def render_comparison(
    left: Dict[str, Any], right: Dict[str, Any]
) -> str:
    """Policy-vs-policy placement comparison, group by group."""
    from repro.analysis.report import render_table

    summary_rows = []
    for key, fmt in (
        ("utilization", "{:.2f}"),
        ("aggregate_layout_score", "{:.3f}"),
        ("files_total", "{}"),
    ):
        summary_rows.append([
            key.replace("_", " "),
            fmt.format(left[key]),
            fmt.format(right[key]),
        ])
    lf = left["freespace"]
    rf = right["freespace"]
    for key in ("n_runs", "largest_run", "clusterable_fraction"):
        summary_rows.append([
            key.replace("_", " "),
            f"{lf[key]:g}",
            f"{rf[key]:g}",
        ])
    out = [render_table(
        ["metric", str(left["label"]), str(right["label"])],
        summary_rows,
        title="placement comparison",
    )]
    lg = {g["cg"]: g for g in left["groups"]}
    rg = {g["cg"]: g for g in right["groups"]}
    rows = []
    for cg in sorted(set(lg) & set(rg)):
        a, b = lg[cg], rg[cg]
        rows.append([
            str(cg),
            f"{a['occupancy']:.2f}",
            f"{b['occupancy']:.2f}",
            str(a["spill_blocks"]),
            str(b["spill_blocks"]),
            str(a["largest_free_run"]),
            str(b["largest_free_run"]),
        ])
    ll, rl = str(left["label"]), str(right["label"])
    out.append(render_table(
        ["cg", f"occ {ll}", f"occ {rl}", f"spill {ll}", f"spill {rl}",
         f"max run {ll}", f"max run {rl}"],
        rows,
        title="per-group comparison",
    ))
    return "\n\n".join(out)
