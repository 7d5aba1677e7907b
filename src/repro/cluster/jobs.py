"""Canonical job ids for a stream's two jobs.

Every video stream contributes two jobs to the edge server in each retraining
window: a long-running **inference job** that must keep up with the live video
and a periodic **retraining job** that consumes a fixed amount of GPU-time
(§3).  The scheduler, the allocation lattice and placement key each job's GPU
share by the ids these two helpers build.
"""

from __future__ import annotations


def inference_job_id(stream_name: str) -> str:
    """Canonical job id for a stream's inference job."""
    return f"{stream_name}/inference"


def retraining_job_id(stream_name: str) -> str:
    """Canonical job id for a stream's retraining job."""
    return f"{stream_name}/retraining"
