"""Every trial over one cohort reads one store, staged once per process.

The paper stages its inputs on S3 ahead of every experiment.  The
harness builds each cohort's store once (``staged_subjects`` /
``staged_visits``), frozen, and hands it to the cluster of every trial
by reference; the fault plan and retry counters stay on each cluster's
``s3`` client.  A trial must read from that shared store exactly what it
read when it put the cohort into a store of its own.
"""

import json

import pytest

import repro.harness.experiments as E
import repro.pipelines.neuro.staging as staging
from repro.cluster.objectstore import ObjectStore
from repro.formats.npyio import PICKLE_OVERHEAD_BYTES
from repro.harness.figures import FIGURES
from repro.harness.parallel import TRIAL_FNS
from repro.harness.runner import neuro_subjects, observe_clusters
from repro.obs.ledger import run_snapshot

PROFILE = {"scale": 20, "n_volumes": 24}


def _own_store(subjects, bucket=staging.DEFAULT_BUCKET):
    """What each trial used to build for itself: every volume put into a
    new, writable store."""
    store = ObjectStore()
    for subject in subjects:
        for index, volume in enumerate(subject.volumes):
            store.put(bucket, staging.volume_key(subject.subject_id, index),
                      volume, volume.nominal_bytes + PICKLE_OVERHEAD_BYTES)
    return store


def _step_cell(figure, system, count=2):
    """One step trial; returns its cluster, makespan and snapshot bytes."""
    clusters = []
    with observe_clusters(clusters.append):
        TRIAL_FNS["step"](system=system, count=count, profile=PROFILE,
                          **FIGURES[figure].fixed)
    (cluster,) = clusters
    return cluster, cluster.now, json.dumps(run_snapshot(cluster),
                                            sort_keys=True)


@pytest.mark.parametrize("system", ["spark", "myria", "dask", "scidb-1"])
def test_step_cell_reads_the_shared_store_as_its_own(system, monkeypatch):
    shared, *shared_run = _step_cell("fig11", system)
    assert shared.object_store is staging.staged_subjects(
        neuro_subjects(2, **PROFILE))
    assert shared.object_store.frozen

    monkeypatch.setitem(E.PIPELINES, "neuro",
                        E.PIPELINES["neuro"]._replace(staged=_own_store))
    own, *own_run = _step_cell("fig11", system)
    assert not own.object_store.frozen
    assert own_run == shared_run  # makespan, ledger snapshot bytes


def test_a_put_into_the_shared_store_raises():
    cluster, *_ = _step_cell("fig12a", "dask")
    with pytest.raises(TypeError):
        cluster.object_store.put(staging.DEFAULT_BUCKET, "extra", b"x", 1)


def test_step_trials_stage_each_volume_once(monkeypatch):
    """N trials over one cohort build its staged entries once per
    volume per process; each trial used to put every volume again."""
    monkeypatch.setattr("repro.cluster.objectstore._STAGED", {})
    staging.volume_keys.cache_clear()
    keyed, puts = [], []
    volume_key, put = staging.volume_key, ObjectStore.put

    def counted_key(*args):
        keyed.append(args)
        return volume_key(*args)

    def counted_put(self, *args):
        puts.append(args[:2])
        return put(self, *args)

    monkeypatch.setattr(staging, "volume_key", counted_key)
    monkeypatch.setattr(ObjectStore, "put", counted_put)
    systems = ("dask", "myria", "spark", "scidb", "tensorflow")
    for system in systems:
        _step_cell("fig12a", system)
    volumes = 2 * PROFILE["n_volumes"]
    assert len(keyed) == volumes
    assert len(puts) == volumes
    assert len(set(puts)) == volumes
