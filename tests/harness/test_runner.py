"""Tests for the harness scaffolding."""

import pytest

from repro.data import generate_subject, generate_visit
from repro.harness.runner import (
    ENGINE_KINDS,
    Stopwatch,
    astro_visits,
    fresh_engine,
    make_cluster,
    make_engine,
    neuro_subjects,
)


@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_fresh_engine_constructs(kind):
    cluster, engine = fresh_engine(kind, n_nodes=2)
    assert engine.cluster is cluster
    assert cluster.spec.n_nodes == 2


def test_myria_cluster_shape():
    cluster = make_cluster(4, "myria", workers_per_node=8)
    assert cluster.spec.slots_per_node == 8
    engine = make_engine("myria", cluster, workers_per_node=8)
    assert engine.server.n_workers == 32


def test_spark_cluster_shape():
    cluster = make_cluster(4, "spark")
    assert cluster.spec.slots_per_node == 8


def test_unknown_engine_rejected():
    cluster = make_cluster(2, "spark")
    with pytest.raises(ValueError):
        make_engine("flink", cluster)


def test_neuro_subjects_deterministic():
    """Every trial reads the memoized cohort, with the bytes a fresh
    generation has."""
    subjects = neuro_subjects(2, scale=16, n_volumes=24)
    assert [s.subject_id for s in subjects] == ["subj000", "subj001"]
    for subject in subjects:
        fresh = generate_subject.__wrapped__(
            subject.subject_id, scale=16, n_volumes=24
        )
        assert subject.data.array.dtype == fresh.data.array.dtype
        assert subject.data.array.tobytes() == fresh.data.array.tobytes()
    again = neuro_subjects(2, scale=16, n_volumes=24)
    assert all(a is b for a, b in zip(subjects, again))


def test_astro_visits_deterministic():
    visits = astro_visits(2, scale=80, n_sensors=4)
    for visit in visits:
        fresh = generate_visit.__wrapped__(
            visit.visit_id, scale=80, n_sensors=4
        )
        for got, want in zip(visit.exposures, fresh.exposures):
            assert got.flux.dtype == want.flux.dtype
            assert got.flux.tobytes() == want.flux.tobytes()
            assert got.mask.tobytes() == want.mask.tobytes()
    again = astro_visits(2, scale=80, n_sensors=4)
    assert all(a is b for a, b in zip(visits, again))


def test_stopwatch_laps():
    cluster = make_cluster(1, "spark")
    watch = Stopwatch(cluster)
    cluster.charge_master(3.0)
    assert watch.lap() == 3.0
    cluster.charge_master(2.0)
    assert watch.lap() == 2.0
