"""Workload generation: filebench-style streams and size distributions."""

from repro.workloads.filebench import SinglestreamWorkload
from repro.workloads.generator import ArchivalWorkloadGenerator, FileSpec

__all__ = [
    "ArchivalWorkloadGenerator",
    "FileSpec",
    "SinglestreamWorkload",
]
