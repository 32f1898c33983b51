"""Shared scaffolding for experiments.

Every trial gets a *fresh* simulated cluster (engines are separate
deployments in the paper too), shaped for the engine under test:
Myria/SciDB run multiple single-slot workers/instances per node while
Spark/Dask/TensorFlow multiplex cores within one worker.  The clusters
share the store their cohort was staged into once per process, as the
paper staged its inputs ahead of every experiment.
"""

from contextlib import contextmanager

from repro.cluster import ClusterSpec, SimulatedCluster
from repro.data import generate_subject, generate_visit
from repro.engines.dask import DaskClient
from repro.engines.myria import MyriaConnection
from repro.engines.scidb import SciDBConnection
from repro.engines.spark import SparkContext
from repro.engines.tensorflow import Session as TfSession

#: Benchmark dataset profiles: real scales small enough that a full
#: sweep finishes in minutes of wall-clock, nominal sizes at paper
#: scale.  Tests use even smaller profiles.
NEURO_BENCH = {"scale": 18, "n_volumes": 72}
ASTRO_BENCH = {"scale": 50, "n_sensors": 20}

#: The paper's default cluster size for all single-size experiments.
DEFAULT_NODES = 16

ENGINE_KINDS = ("spark", "myria", "dask", "scidb", "tensorflow")

#: Callbacks invoked with every cluster built by :func:`make_cluster`
#: while an :func:`observe_clusters` context is active.
_cluster_observers = []


@contextmanager
def observe_clusters(callback):
    """Call ``callback(cluster)`` for every cluster built inside.

    Experiment helpers construct their clusters internally; this hook
    lets a caller (the ``trace`` CLI, the benchmark, tests) keep them,
    to read their records, spans and trackers after the run::

        clusters = []
        with observe_clusters(clusters.append):
            run_neuro_end_to_end("spark", subjects)
    """
    _cluster_observers.append(callback)
    try:
        yield
    finally:
        _cluster_observers.remove(callback)


def make_cluster(n_nodes, kind, workers_per_node=None, cost_model=None,
                 object_store=None):
    """A fresh cluster shaped for one engine kind, reading
    ``object_store`` (a staged store it shares) or an empty store."""
    if kind in ("myria", "scidb"):
        w = workers_per_node or 4
        spec = ClusterSpec(n_nodes=n_nodes, workers_per_node=w, slots_per_worker=1)
    else:
        spec = ClusterSpec(n_nodes=n_nodes)
    if cost_model is None:
        cluster = SimulatedCluster(spec, object_store=object_store)
    else:
        cluster = SimulatedCluster(spec, cost_model=cost_model,
                                   object_store=object_store)
    for callback in list(_cluster_observers):
        callback(cluster)
    return cluster


def make_engine(kind, cluster, workers_per_node=None):
    """Instantiate one engine on a cluster built by :func:`make_cluster`."""
    if kind == "spark":
        return SparkContext(cluster)
    if kind == "myria":
        return MyriaConnection(cluster, workers_per_node=workers_per_node or 4)
    if kind == "dask":
        return DaskClient(cluster)
    if kind == "scidb":
        return SciDBConnection(cluster, instances_per_node=workers_per_node or 4)
    if kind == "tensorflow":
        return TfSession(cluster)
    raise ValueError(f"unknown engine kind {kind!r}; expected one of {ENGINE_KINDS}")


def fresh_engine(kind, n_nodes=DEFAULT_NODES, workers_per_node=None,
                 cost_model=None, object_store=None):
    """Cluster + engine in one call; returns ``(cluster, engine)``."""
    cluster = make_cluster(
        n_nodes, kind, workers_per_node=workers_per_node,
        cost_model=cost_model, object_store=object_store,
    )
    return cluster, make_engine(kind, cluster, workers_per_node=workers_per_node)


def neuro_subjects(n_subjects, scale=None, n_volumes=None):
    """Deterministic synthetic subjects for one trial."""
    scale = scale or NEURO_BENCH["scale"]
    n_volumes = n_volumes or NEURO_BENCH["n_volumes"]
    return [
        generate_subject(f"subj{i:03d}", scale=scale, n_volumes=n_volumes)
        for i in range(n_subjects)
    ]


def astro_visits(n_visits, scale=None, n_sensors=None):
    """Deterministic synthetic visits for one trial."""
    scale = scale or ASTRO_BENCH["scale"]
    n_sensors = n_sensors or ASTRO_BENCH["n_sensors"]
    return [
        generate_visit(v, scale=scale, n_sensors=n_sensors) for v in range(n_visits)
    ]


class Stopwatch:
    """Reads simulated-time deltas off a cluster clock."""

    def __init__(self, cluster):
        self.cluster = cluster
        self._mark = cluster.now

    def lap(self):
        """Simulated seconds since the previous lap."""
        now = self.cluster.now
        elapsed = now - self._mark
        self._mark = now
        return elapsed
