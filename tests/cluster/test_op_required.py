"""Every task, coordinator charge and record names its op where it is
made: a missing or non-``str`` op fails at construction, before the
clock moves or a record is filed, and the op named is the op filed."""

import pytest

from repro.cluster import ClusterSpec, SimulatedCluster, Task
from repro.obs.spans import PSEUDO_OVERHEAD, TaskRecord

MISSING = object()

MAKERS = {
    "task": lambda cluster, **op: Task("t", duration=1.0, **op),
    "charge_master": lambda cluster, **op: cluster.charge_master(
        1.0, label="charge", **op
    ),
    "record_task": lambda cluster, **op: cluster.obs.record_task(
        "record", "node-0", 0.0, 1.0, **op
    ),
    "TaskRecord": lambda cluster, **op: TaskRecord(
        "record", "node-0", 0.0, 1.0, **op
    ),
}


@pytest.mark.parametrize("op", [MISSING, None, 3, b"@overhead"],
                         ids=["missing", "none", "int", "bytes"])
@pytest.mark.parametrize("maker", sorted(MAKERS))
def test_op_is_required_at_construction(maker, op):
    cluster = SimulatedCluster(ClusterSpec(n_nodes=1))
    kwargs = {} if op is MISSING else {"op": op}
    with pytest.raises(TypeError, match="op"):
        MAKERS[maker](cluster, **kwargs)
    assert cluster.now == 0.0
    assert cluster.obs.task_records == []


def test_the_op_named_is_the_op_filed():
    cluster = SimulatedCluster(ClusterSpec(n_nodes=1))
    cluster.run([Task("t", duration=1.0, op="plan/map")])
    cluster.charge_master(1.0, label="charge", op=PSEUDO_OVERHEAD)
    cluster.obs.record_task("record", "node-0", 2.0, 3.0, op="plan/reduce")
    assert [(r.name, r.op) for r in cluster.obs.task_records] == [
        ("t", "plan/map"), ("charge", PSEUDO_OVERHEAD),
        ("record", "plan/reduce"),
    ]
