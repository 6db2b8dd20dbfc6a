"""Conventional backup/archival system baseline (§2.2).

"Current tape and optical libraries generally rely on a dedicated backup
system running on a front host to manage all data on media in an off-line
mode": datasets are collected, cataloged, transformed into media format and
copied out; restores reverse the pipeline.  Crucially, files on media are
*not* directly readable — every access goes through the backup software's
staging, giving minutes-level restore latency even for one small file.

This model quantifies that access path so benches can contrast it with
OLFS's inline accessibility (60 ms-class reads that hit disks).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ConventionalArchivalSystem:
    """Latency/throughput model of a backup-system-fronted library."""

    catalog_lookup: float = 2.0  # query the backup catalog DB
    job_scheduling: float = 30.0  # restore job queued + dispatched
    media_mount: float = 70.0  # library fetches + mounts the medium
    media_locate_mean: float = 25.0  # wind/seek to the saveset
    staging_rate: float = 120e6  # bytes/s copying saveset to staging
    format_transform_rate: float = 200e6  # unpack backup format

    def restore_latency(self, nbytes: float) -> float:
        """Seconds until a restored file is readable by the application."""
        staging = nbytes / self.staging_rate
        transform = nbytes / self.format_transform_rate
        return (
            self.catalog_lookup
            + self.job_scheduling
            + self.media_mount
            + self.media_locate_mean
            + staging
            + transform
        )
