"""miniTensorFlow: static tensor dataflow graphs.

Reimplements the TensorFlow-0.x model of Section 2/4.5: operations over
N-dimensional tensors organized into static dataflow graphs, manual
device placement (``with graph.device(...)``), master-mediated data
distribution ("all data ingest goes through the master and results are
always returned to the master"), a 2 GB serialized-graph limit, and an
op set with the restrictions the paper hit: gathering only along the
first axis and no element-wise masked assignment.
"""

from repro.engines.tensorflow.graph import Graph
from repro.engines.tensorflow.placement import round_robin_steps
from repro.engines.tensorflow.session import Session
from repro.engines.tensorflow.tensor import Tensor

__all__ = [
    "Graph",
    "Session",
    "Tensor",
    "round_robin_steps",
]
