"""Table 1: the benchmark configuration.

Purely descriptive — it prints the hardware and file-system parameters
the rest of the suite uses, in the paper's three-column layout.  The
hardware column comes from :class:`~repro.disk.geometry.DiskGeometry`;
the file-system column from :class:`~repro.ffs.params.FSParams` at the
chosen preset (the ``paper`` preset reproduces Table 1 exactly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.report import render_table
from repro.disk.geometry import DiskGeometry
from repro.experiments.config import get_preset
from repro.storage import DEFAULT_BACKEND
from repro.units import fmt_size


@dataclass(frozen=True)
class Table1Result:
    """The configuration rows."""

    rows: List[Tuple[str, str]]

    def render(self) -> str:
        """Text rendering of Table 1."""
        return render_table(
            ["Parameter", "Value"], self.rows,
            title="Table 1: Benchmark Configuration",
        )


def run(preset: str = "paper", backend: str = DEFAULT_BACKEND) -> Table1Result:
    """Collect the configuration for ``preset`` (``backend`` is unused)."""
    p = get_preset(preset)
    geo = DiskGeometry()
    params = p.params
    rows: List[Tuple[str, str]] = [
        ("Disk Type", "Seagate ST32430N (modelled)"),
        ("Disk Size", fmt_size(geo.capacity_bytes)),
        ("Rotational Speed", f"{geo.rpm} RPM"),
        ("Sector Size", f"{geo.sector_size} Bytes"),
        ("Cylinders", str(geo.cylinders)),
        ("Heads", str(geo.heads)),
        ("Average Sectors per Track", str(geo.sectors_per_track)),
        ("Track Buffer", fmt_size(geo.track_buffer_bytes)),
        ("Average Seek", f"{geo.seek_avg_ms:.0f} ms"),
        ("Max Transfer Size", fmt_size(geo.max_transfer_bytes)),
        ("Total Disk Space (file system)", fmt_size(params.actual_size_bytes)),
        ("Fragment Size", fmt_size(params.frag_size)),
        ("Block Size", fmt_size(params.block_size)),
        ("Max. Cluster Size", fmt_size(params.max_cluster_bytes)),
        ("Rotational Gap", str(params.rotdelay)),
        ("Cylinder Groups", str(params.ncg)),
        ("Inodes per Group", str(params.inodes_per_cg)),
        ("Free-Space Reserve (minfree)", f"{params.minfree:.0%}"),
    ]
    return Table1Result(rows=rows)
