"""Hardware specifications for simulated nodes and clusters.

The defaults mirror the paper's experimental setup (Section 5): Amazon
EC2 ``r3.2xlarge`` instances with 8 vCPUs (Intel Xeon E5-2670 v2),
61 GB of memory, and 160 GB of SSD storage, in clusters of 16 to 64
nodes.
"""

from dataclasses import dataclass

GB = 1024 ** 3
MB = 1024 ** 2


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one machine in the cluster."""

    name: str
    cores: int
    memory_bytes: int
    disk_bytes: int

    def __post_init__(self):
        if self.cores <= 0:
            raise ValueError(f"node must have at least one core, got {self.cores}")
        if self.memory_bytes <= 0:
            raise ValueError("node memory must be positive")
        if self.disk_bytes <= 0:
            raise ValueError("node disk must be positive")


#: The instance type used for every experiment in the paper.
R3_2XLARGE = NodeSpec(
    name="r3.2xlarge",
    cores=8,
    memory_bytes=61 * GB,
    disk_bytes=160 * GB,
)


@dataclass(frozen=True)
class ClusterSpec:
    """Description of a whole cluster.

    ``workers_per_node`` is the system-level tuning knob studied in
    Figure 13 (Myria): how many engine worker processes share each
    physical node.  ``slots_per_worker`` lets engines that multiplex
    tasks over cores within a worker (Spark executors) model that too.
    """

    n_nodes: int
    node: NodeSpec = R3_2XLARGE
    workers_per_node: int = 1
    slots_per_worker: int = None  # default: cores // workers_per_node

    def __post_init__(self):
        if self.n_nodes <= 0:
            raise ValueError(f"cluster needs at least one node, got {self.n_nodes}")
        if self.workers_per_node <= 0:
            raise ValueError("workers_per_node must be positive")
        if self.slots_per_worker is not None and self.slots_per_worker <= 0:
            raise ValueError("slots_per_worker must be positive when given")

    @property
    def slots_per_node(self):
        """Parallel task slots available on one node.

        When ``slots_per_worker`` is unset, each worker gets an even
        share of the node's cores (at least one slot per worker so an
        over-subscribed node still makes progress, as real engines do).
        """
        if self.slots_per_worker is not None:
            return self.workers_per_node * self.slots_per_worker
        return self.workers_per_node * max(1, self.node.cores // self.workers_per_node)

    @property
    def total_slots(self):
        """Task slots across the whole cluster."""
        return self.n_nodes * self.slots_per_node

    def node_names(self):
        """Deterministic node names, ``node-0`` .. ``node-{n-1}``."""
        return [f"node-{i}" for i in range(self.n_nodes)]
