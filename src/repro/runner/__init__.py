"""Staged flow execution: declarative job matrices over a process pool.

The experiment suite is a matrix of (design x policy x slack) flow
runs.  This package turns that matrix into a schedulable workload:

* :class:`~repro.runner.matrix.RunMatrix` / :class:`~repro.runner.matrix.JobSpec`
  — declarative, serializable cell descriptions;
* :class:`~repro.runner.runner.FlowRunner` — executes the matrix with
  ``--jobs N`` worker processes, deduplicates the shared all-NDR
  reference jobs, and content-addresses builds and finished cells
  through the :class:`~repro.io.artifacts.ArtifactStore`;
* :class:`~repro.runner.runner.JobResult` — the per-cell record
  streamed back to the parent (summary metrics, rule histogram and,
  from a pool worker, the cell's trace payload).
"""

from repro.runner.matrix import (DesignRef, JobSpec, RunMatrix,
                                 design_ref_fingerprint, expand_design_refs,
                                 resolve_design)
from repro.runner.runner import FlowRunner, JobResult

__all__ = [
    "DesignRef",
    "FlowRunner",
    "JobResult",
    "JobSpec",
    "RunMatrix",
    "design_ref_fingerprint",
    "expand_design_refs",
    "resolve_design",
]
