"""Broadcast variables.

Section 4.2: "To avoid joins, we make the mask a broadcast variable,
which gets automatically replicated on all workers."  The broadcast
charges a tree-topology replication cost once at creation, to the op
the caller names.
"""

from repro.engines.base import nominal_bytes_of


class Broadcast:
    """A read-only value replicated to every node."""

    def __init__(self, sc, value, nominal_bytes=None, *, op):
        self._sc = sc
        self._value = value
        self.nominal_bytes = (
            nominal_bytes_of(value) if nominal_bytes is None else int(nominal_bytes)
        )
        cost = sc.cluster.network.broadcast_time(
            self.nominal_bytes, sc.cluster.spec.n_nodes
        )
        serialize = sc.cluster.cost_model.pickle_time(self.nominal_bytes)
        sc.cluster.charge_master(
            cost + serialize, label="broadcast", category="spark-broadcast",
            op=op,
        )

    @property
    def value(self):
        """The wrapped value."""
        return self._value

    def __repr__(self):
        return f"Broadcast({self.nominal_bytes} bytes)"
