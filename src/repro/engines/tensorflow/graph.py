"""Static dataflow graph construction with device placement.

Mirrors the construction pattern of the paper's Figure 9: a context
manager pins ops to devices, placeholders receive data from the master
at ``session.run`` time, and the serialized graph must stay under 2 GB
("size limitation necessitates multiple graphs as each compute graph
must be smaller than 2GB when serialized", Section 4.5).
"""

from contextlib import contextmanager

import numpy as np

from repro.cluster.errors import GraphTooLargeError
from repro.engines.tensorflow.ops import OPS, OpError
from repro.engines.tensorflow.tensor import Tensor

#: The serialized-graph size limit (protobuf limit in real TensorFlow).
GRAPH_SIZE_LIMIT = 2 * 1024 ** 3

#: Serialized overhead per graph node (op metadata).
NODE_OVERHEAD_BYTES = 256


class GraphNode:
    """One op (or placeholder/constant) in the dataflow graph."""

    __slots__ = ("graph", "op", "inputs", "attrs", "device", "name", "node_id")

    def __init__(self, graph, op, inputs, attrs, device, name=None):
        self.graph = graph
        self.op = op
        self.inputs = tuple(inputs)
        self.attrs = dict(attrs)
        self.device = device
        # Position in the owning graph: ids (and the op names built
        # from them) restart at 0 for every Graph.
        self.node_id = len(graph.nodes)
        self.name = name or f"{op}_{self.node_id}"

    def __repr__(self):
        return f"GraphNode({self.name}, device={self.device})"


class Graph:
    """A static computation graph."""

    def __init__(self):
        self.nodes = []
        self._device_stack = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @contextmanager
    def device(self, name):
        """Pin ops created in this context to a device (a node name)."""
        self._device_stack.append(name)
        try:
            yield
        finally:
            self._device_stack.pop()

    def _current_device(self):
        return self._device_stack[-1] if self._device_stack else None

    def _add(self, op, inputs, **attrs):
        if op not in OPS and op not in ("placeholder", "constant"):
            raise OpError(f"unknown op {op!r}")
        node = GraphNode(self, op, inputs, attrs, self._current_device())
        self.nodes.append(node)
        return node

    def placeholder(self, nominal_shape, name=None):
        """Declare a fed input of the given nominal shape."""
        node = self._add("placeholder", (), nominal_shape=tuple(nominal_shape))
        if name:
            node.name = name
        return node

    def constant(self, value):
        """Embed a constant tensor in the graph."""
        tensor = Tensor.wrap(np.asarray(value))
        return self._add("constant", (), value=tensor)

    # -- op wrappers -----------------------------------------------------

    def reduce_mean(self, t, axis=None):
        """Reduce mean."""
        return self._add("reduce_mean", (t,), axis=axis)

    def reshape(self, t, new_nominal, new_real):
        """Reshape."""
        return self._add("reshape", (t,), new_nominal=tuple(new_nominal),
                         new_real=tuple(new_real))

    def gather(self, t, indices, nominal_indices):
        """Select rows along the FIRST axis only (the TF restriction)."""
        return self._add(
            "gather", (t,), indices=list(indices),
            nominal_indices=list(nominal_indices),
        )

    def transpose(self, t, perm):
        """Transpose."""
        return self._add("transpose", (t,), perm=tuple(perm))

    def conv3d(self, t, kernel):
        """Conv3d."""
        return self._add("conv3d", (t,), kernel=np.asarray(kernel))

    def identity(self, t):
        """Pass-through op (useful as a fetch point)."""
        return self._add("identity", (t,))

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------

    def serialized_bytes(self):
        """Estimated protobuf size: constants embed their data."""
        total = 0
        for node in self.nodes:
            total += NODE_OVERHEAD_BYTES
            if node.op == "constant":
                total += node.attrs["value"].nominal_bytes
        return total

    def check_size(self):
        """Raise when the graph exceeds the 2 GB limit."""
        size = self.serialized_bytes()
        if size > GRAPH_SIZE_LIMIT:
            raise GraphTooLargeError(
                f"serialized graph is {size} bytes, exceeding the"
                f" {GRAPH_SIZE_LIMIT} byte limit; split the computation"
                f" into multiple graphs (Section 4.5)"
            )
        return size
