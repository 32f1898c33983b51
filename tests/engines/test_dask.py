"""Tests for miniDask."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import SimulatedCluster
from repro.cluster.faults import FaultPlan
from repro.engines.base import CostedFunction
from repro.engines.dask import DaskClient
from repro.formats.sizing import SizedArray
from repro.harness.figures import QUICK_NEURO, grid
from repro.harness.runner import fresh_engine, neuro_subjects
from repro.obs.spans import PSEUDO_OVERHEAD
from repro.pipelines.neuro.staging import stage_subjects
from repro.plan import lower, neuro_plan


@pytest.fixture
def client(small_cluster):
    return DaskClient(small_cluster)


def test_delayed_result(client):
    node = client.delayed(lambda a, b: a + b, op=PSEUDO_OVERHEAD)(2, 3)
    assert node.result() == 5


def test_graph_composition(client):
    inc = client.delayed(lambda x: x + 1, op=PSEUDO_OVERHEAD)
    add = client.delayed(lambda a, b: a + b, op=PSEUDO_OVERHEAD)
    total = add(inc(1), inc(10))
    assert total.result() == 13


def test_kwargs_resolved(client):
    fn = client.delayed(lambda x, y=0: x + y, op=PSEUDO_OVERHEAD)
    inner = client.delayed(lambda: 5, op=PSEUDO_OVERHEAD)()
    assert fn(1, y=inner).result() == 6


def test_shared_dependency_computed_once(client):
    calls = []

    def source():
        calls.append(1)
        return 1

    src = client.delayed(source, op=PSEUDO_OVERHEAD)()
    a = client.delayed(lambda x: x + 1, op=PSEUDO_OVERHEAD)(src)
    b = client.delayed(lambda x: x + 2, op=PSEUDO_OVERHEAD)(src)
    assert client.compute([a, b]) == [2, 3]
    assert len(calls) == 1


def test_barrier_caches_results(client):
    node = client.delayed(lambda: 42, op=PSEUDO_OVERHEAD)()
    node.result()
    t1 = client.cluster.now
    node.result()  # no recompute, no time
    assert client.cluster.now == t1


def test_startup_charged_at_first_barrier(client):
    cm = client.cost_model
    client.delayed(lambda: 1, op=PSEUDO_OVERHEAD)().result()
    assert client.cluster.now >= cm.dask_job_startup


def test_worker_pinning(client):
    node = client.delayed(lambda: "x", workers="node-3", op=PSEUDO_OVERHEAD)()
    node.result()
    assert client.node_of(node) == "node-3"


def test_locality_prefers_data_node(client):
    big = SizedArray(np.zeros(4), nominal_shape=(10 ** 8,))
    producer = client.delayed(lambda: big, workers="node-2", op=PSEUDO_OVERHEAD)()
    consumer = client.delayed(lambda v: v, op=PSEUDO_OVERHEAD)(producer)
    client.compute([consumer])
    assert client.node_of(consumer) == "node-2"


def test_work_stealing_spreads_load(client):
    """Many tasks whose inputs sit on one node get stolen elsewhere."""
    data = client.delayed(lambda: 1, workers="node-0", op=PSEUDO_OVERHEAD)()
    data.result()
    slow = client.delayed(lambda v, i: i, cost=lambda v, i: 1.0, op=PSEUDO_OVERHEAD)
    tasks = [slow(data, i) for i in range(64)]
    t0 = client.cluster.now
    client.compute(tasks)
    elapsed = client.cluster.now - t0
    assert client.steal_count > 0
    # With stealing, far faster than 64 serial-ish waves on one node.
    assert elapsed < 40.0


def test_dispatch_serialization_grows_with_tasks(client):
    quick = client.delayed(lambda i: i, op=PSEUDO_OVERHEAD)
    many = [quick(i) for i in range(200)]
    t0 = client.cluster.now
    client.compute(many)
    elapsed = client.cluster.now - t0
    cm = client.cost_model
    assert elapsed >= 199 * cm.dask_task_overhead * 0.9


def test_results_stay_resident_until_release(client):
    big = SizedArray(np.zeros(8), nominal_shape=(10 ** 9,))
    node = client.delayed(lambda: big, op=PSEUDO_OVERHEAD)()
    node.result()
    held = sum(n.memory.used_bytes for n in client.cluster.nodes.values())
    assert held >= 8 * 10 ** 9  # float64 nominal bytes
    client.release([node])
    held_after = sum(n.memory.used_bytes for n in client.cluster.nodes.values())
    assert held_after == 0


def test_costed_functions_charge_time(client):
    client.ensure_started()
    t0 = client.cluster.now
    client.delayed(lambda: 1, cost=lambda: 9.0, op=PSEUDO_OVERHEAD)().result()
    assert client.cluster.now - t0 >= 9.0


def test_failure_propagates(client):
    from repro.cluster.errors import TaskFailedError

    def boom():
        raise ValueError("nope")

    with pytest.raises(TaskFailedError):
        client.delayed(boom, op=PSEUDO_OVERHEAD)().result()


def test_map_fan_out(client):
    results = client.compute(client.map(lambda a, b: a + b, [1, 2, 3], [10, 20, 30],
                                        op=PSEUDO_OVERHEAD))
    assert results == [11, 22, 33]


def test_scatter_places_round_robin(client):
    values = [SizedArray(np.zeros(2), nominal_shape=(10 ** 6,)) for _i in range(6)]
    handles = client.scatter(values, op=PSEUDO_OVERHEAD)
    nodes = {client.node_of(h) for h in handles}
    assert len(nodes) == 4  # spread over all 4 nodes


def test_scatter_values_usable_in_graphs(client):
    (handle,) = client.scatter([21], op=PSEUDO_OVERHEAD)
    doubled = client.delayed(lambda x: x * 2, op=PSEUDO_OVERHEAD)(handle)
    assert doubled.result() == 42


def test_scatter_pins_to_worker(client):
    (handle,) = client.scatter(["x"], workers="node-1", op=PSEUDO_OVERHEAD)
    assert client.node_of(handle) == "node-1"


def test_scatter_consumes_memory_until_release(client):
    big = SizedArray(np.zeros(2), nominal_shape=(10 ** 9,))
    (handle,) = client.scatter([big], op=PSEUDO_OVERHEAD)
    held = sum(n.memory.used_bytes for n in client.cluster.nodes.values())
    assert held >= 8 * 10 ** 9
    client.release([handle])
    assert sum(n.memory.used_bytes for n in client.cluster.nodes.values()) == 0


def test_pin_to_a_crashed_node_runs_on_the_least_loaded_survivor(client):
    """A ``workers=`` pin is treated like a byte-preferred node that is
    down: the task goes to the least-loaded survivor."""
    cluster = client.cluster
    cluster.install_faults(FaultPlan(seed=1).crash_node("node-1", at_time=0.0))
    client.compute([client.delayed(lambda: 1, cost=lambda: 1.0, op=PSEUDO_OVERHEAD)()])
    assert not cluster.node("node-1").alive
    pinned = client.delayed(lambda: 2, cost=lambda: 1.0, workers="node-1",
                            op=PSEUDO_OVERHEAD)()
    assert client.compute([pinned]) == [2]
    assert client.node_of(pinned) == "node-0"


GOLDEN_FIG11 = Path(__file__).parent / "golden" / "fig11_dask_quick_tasks.json"


def test_quick_fig11_cell_builds_the_recorded_cluster_tasks(monkeypatch):
    """The 2-subject quick fig11 cell, task by task: name, category, op,
    pin, dispatch floor and the output size its body set.  The list was
    recorded when the download graph still built one factory per
    volume."""
    built = []
    real_run = SimulatedCluster.run

    def recording_run(self, tasks):
        tasks = list(tasks)
        results = real_run(self, tasks)
        built.extend(tasks)
        return results

    monkeypatch.setattr(SimulatedCluster, "run", recording_run)
    grid("fig11", True, system=("dask",), count=(2,))
    got = [[t.name, t.category, t.op, t.node, t.not_before, t.output_bytes]
           for t in built if t.name.startswith("dask-")]
    assert got == json.loads(GOLDEN_FIG11.read_text())


def test_download_graph_builds_one_costed_function_per_subject(monkeypatch):
    subjects = neuro_subjects(3, **QUICK_NEURO)
    cluster, engine = fresh_engine("dask")
    stage_subjects(cluster.object_store, subjects)
    lowered = lower(neuro_plan(), "dask", engine)
    made = []
    init = CostedFunction.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CostedFunction, "__init__", counting_init)
    vols = lowered.download_all(subjects)
    assert len(made) == len(subjects)
    for subject, fn in zip(subjects, made):
        nodes = vols[subject.subject_id]
        assert len(nodes) == subject.n_volumes
        assert all(node.fn is fn for node in nodes)
    assert engine.compute([v for per in vols.values() for v in per]) == [
        volume for subject in subjects for volume in subject.volumes
    ]
