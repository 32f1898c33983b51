"""Discrete-event simulated cluster substrate.

The paper evaluated the five systems on Amazon EC2 ``r3.2xlarge``
instances (8 vCPU, 61 GB memory, 160 GB SSD) in clusters of 16 to 64
nodes.  This package substitutes a deterministic discrete-event
simulation for that testbed: nodes offer execution *slots*, tasks occupy
slots for modeled durations derived from a calibrated
:class:`~repro.cluster.costs.CostModel`, and a virtual clock records the
makespan.  Real (scaled-down) NumPy computation still runs inside each
task, so outputs remain checkable against the single-node reference
pipelines while timings reflect paper-scale data.
"""

from repro.cluster.clock import VirtualClock
from repro.cluster.cluster import Node, SimulatedCluster
from repro.cluster.costs import CostModel
from repro.cluster.disk import LocalDisk
from repro.cluster.errors import (
    ClusterError,
    DiskFullError,
    NodeCrashedError,
    OutOfMemoryError,
    PlacementError,
    S3RetriesExhaustedError,
    TaskFailedError,
)
from repro.cluster.faults import (
    FaultPlan,
    RecoveryPolicy,
    RetryPolicy,
    abort_recovery,
    dask_recovery,
    spark_recovery,
)
from repro.cluster.memory import MemoryTracker
from repro.cluster.network import NetworkModel
from repro.cluster.objectstore import ObjectStore
from repro.cluster.spec import ClusterSpec, NodeSpec, R3_2XLARGE
from repro.cluster.task import Task

__all__ = [
    "ClusterError",
    "ClusterSpec",
    "CostModel",
    "DiskFullError",
    "FaultPlan",
    "LocalDisk",
    "MemoryTracker",
    "NetworkModel",
    "Node",
    "NodeCrashedError",
    "NodeSpec",
    "ObjectStore",
    "OutOfMemoryError",
    "PlacementError",
    "R3_2XLARGE",
    "RecoveryPolicy",
    "RetryPolicy",
    "S3RetriesExhaustedError",
    "SimulatedCluster",
    "Task",
    "TaskFailedError",
    "VirtualClock",
    "abort_recovery",
    "dask_recovery",
    "spark_recovery",
]
