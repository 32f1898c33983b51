"""Network fabric model for the simulated cluster.

The model is intentionally simple: pairwise transfers are charged at a
flat per-link bandwidth plus a per-message latency, and S3 traffic is
charged per node at the S3 bandwidth from the cost model.  This level of
detail is sufficient for the paper's effects, which depend on *whether*
data moves (shuffles, master-mediated ingest) far more than on topology.
"""

from repro.cluster.costs import DEFAULT_COST_MODEL


class NetworkModel:
    """Computes transfer durations and tallies traffic statistics."""

    def __init__(self, cost_model=DEFAULT_COST_MODEL):
        self.cost_model = cost_model
        self.bytes_node_to_node = 0
        self.bytes_from_s3 = 0
        self.bytes_broadcast = 0
        self.transfer_count = 0
        #: (src, dst) -> slowdown factor for degraded links (fault
        #: injection); absent links run at full speed.
        self._link_factors = {}

    def set_link_factor(self, src, dst, factor):
        """Degrade the ``src``->``dst`` link by ``factor`` (>= 1)."""
        if factor < 1.0:
            raise ValueError(f"link factor must be >= 1, got {factor}")
        self._link_factors[(src, dst)] = float(factor)

    def transfer_time(self, nbytes, src, dst, n_messages=1):
        """Seconds to move ``nbytes`` from node ``src`` to node ``dst``.

        A transfer within the same node is a memory copy, not a network
        hop, and is charged at memcpy speed.
        """
        if nbytes < 0:
            raise ValueError(f"cannot transfer negative bytes: {nbytes}")
        self.transfer_count += 1
        if src == dst:
            return nbytes * self.cost_model.memcpy_per_byte
        self.bytes_node_to_node += nbytes
        seconds = self.cost_model.network_time(nbytes, n_messages=n_messages)
        if self._link_factors:
            seconds *= self._link_factors.get((src, dst), 1.0)
        return seconds

    def s3_download_time(self, nbytes, n_objects=1):
        """Seconds for one node to pull ``nbytes`` from the object store."""
        if nbytes < 0:
            raise ValueError(f"cannot download negative bytes: {nbytes}")
        self.bytes_from_s3 += nbytes
        return self.cost_model.s3_read_time(nbytes, n_objects=n_objects)

    def broadcast_time(self, nbytes, n_nodes):
        """Seconds to broadcast ``nbytes`` from one node to ``n_nodes``.

        Models a BitTorrent-style tree broadcast (Spark's TorrentBroadcast,
        Myria's broadcast operator): latency grows logarithmically while
        each node still receives the full payload once.
        """
        if n_nodes <= 1:
            return 0.0
        rounds = max(1, (n_nodes - 1).bit_length())
        wire_bytes = nbytes * (n_nodes - 1)
        self.bytes_node_to_node += wire_bytes
        self.bytes_broadcast += wire_bytes
        return rounds * self.cost_model.network_time(nbytes)
