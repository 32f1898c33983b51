"""The trial executor: determinism across processes, cache behavior.

The load-bearing property: a figure's rows and ledger snapshots are
byte-identical whether its trials run serially in-process, fan out
across a process pool, or replay from the content-addressed cache.
The simulator's virtual clock depends only on the relative order of
task ids within one cluster, and every counter that reaches a task name
lives on the engine the trial builds, so a worker's process history
cannot leak into results.
"""

import hashlib
import json
import marshal
import os
import subprocess
import sys
import tempfile
import time
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Task
from repro.cluster.faults import FaultPlan, RetryPolicy
from repro.harness import cache as cache_mod
from repro.harness import experiments as E  # noqa: F401 - fills the registry
from repro.harness import parallel
from repro.harness.cache import (
    CACHE_SCHEMA_VERSION,
    TrialCache,
    cache_key,
    code_tree_hash,
    decode_payload,
    encode_payload,
)
from repro.harness.parallel import (
    TRIAL_FNS,
    SnapshotSink,
    TrialExecutionError,
    TrialSpec,
    collecting_snapshots,
    configured,
    grid_rows,
    run_grid,
    shutdown_pool,
    trial,
)
from repro.harness.runner import fresh_engine, make_cluster, neuro_subjects
from repro.obs.spans import PSEUDO_OVERHEAD
from repro.pipelines.neuro.staging import stage_subjects
from repro.plan import lower, neuro_plan

TINY_NEURO = {"scale": 20, "n_volumes": 12}
TINY_ASTRO = {"scale": 100, "n_sensors": 4}

@trial("test_transient_neuro")
def _trial_transient_neuro(kind, profile, fail_tasks, seed):
    """Tiny neuro trial under seeded transient task failures.  Fault
    draws are keyed on task names, so the row and snapshot move if a
    name depends on what the executing process ran before."""
    subjects = neuro_subjects(1, **profile)
    cluster, engine = fresh_engine(kind, n_nodes=4)
    stage_subjects(cluster.object_store, subjects)
    cluster.install_faults(
        FaultPlan(
            seed=seed, retry_policy=RetryPolicy(max_attempts=6),
        ).fail_tasks(
            fail_tasks, detect_delay_s=0.3, max_failures_per_task=2,
        )
    )
    lowered = lower(neuro_plan(), kind, engine)
    lowered.run(subjects if kind == "dask" else subjects[0])
    return {"engine": kind, "simulated_s": cluster.now}


@trial("test_cheap")
def _trial_cheap(i, fail=False):
    """Sub-millisecond trial whose row and snapshot depend on ``i``."""
    if fail:
        raise RuntimeError(f"cheap trial {i} was told to fail")
    cluster = make_cluster(2, "spark")
    cluster.run(
        [Task(f"cheap-{i}-{n}", duration=1.0 + n,
              op=PSEUDO_OVERHEAD) for n in range(i + 1)]
    )
    return {"i": i, "simulated_s": cluster.now}


#: The cohort-placement test puts a barrier here before its lanes fork;
#: every ``test_lockstep`` trial then waits at it, so the lanes advance
#: one trial at a time, together.
_LOCKSTEP = {}


@trial("test_lockstep")
def _trial_lockstep(count, seed, step):
    """Reports the process that ran it; ``seed`` names its cohort."""
    barrier = _LOCKSTEP.get("barrier")
    if barrier is not None:
        barrier.wait(timeout=20)
    return {"seed": seed, "step": step, "pid": os.getpid()}


@trial("test_sleep")
def _trial_sleep(seconds):
    time.sleep(seconds)
    return {"slept": seconds}


def _canon(payloads):
    return json.dumps(payloads, sort_keys=True)


def _neuro_cell(engine, count=1, nodes=4):
    return TrialSpec(
        "end_to_end",
        {"pipeline": "neuro", "engine": engine, "count": count,
         "n_nodes": nodes, "profile": dict(TINY_NEURO)},
    )


def _f16_cell(engine):
    return TrialSpec(
        "f16",
        {"engine": engine, "count": 1, "n_nodes": 4,
         "profile": dict(TINY_NEURO), "restart_after_s": 18.0, "seed": 16},
    )


def _tiny_specs(include_fault_trial=True, engines=("dask", "spark")):
    specs = [_neuro_cell(engine) for engine in engines]
    if include_fault_trial:
        specs.append(_f16_cell("spark"))
    return specs


def _random_pool():
    """Spec pool the hypothesis grid test draws from: engine x count x
    cluster-size end-to-end trials, two f16 trials under a node crash,
    and a Dask and a TensorFlow trial under transient task failures
    (the two engines whose task names embed counters)."""
    return [
        _neuro_cell(engine, count, nodes)
        for engine in ("dask", "myria", "spark")
        for count in (1, 2)
        for nodes in (2, 4)
    ] + [_f16_cell(engine) for engine in ("spark", "dask")] + [
        TrialSpec(
            "test_transient_neuro",
            {"kind": kind, "profile": dict(TINY_NEURO), "fail_tasks": 0.2,
             "seed": 7},
        )
        for kind in ("dask", "tensorflow")
    ]


class TestRegistry:
    def test_all_grid_figures_registered(self):
        """Eight trials make every figure; the rest are this file's."""
        assert {name for name in TRIAL_FNS if not name.startswith("test_")} \
            == {"table1", "fig10a", "fig10b", "end_to_end", "step", "fig15",
                "optcell", "f16"}

    def test_unknown_trial_rejected(self):
        with pytest.raises(KeyError):
            TrialSpec("no-such-trial", {})


class TestDeterminism:
    def test_serial_equals_parallel_payloads(self):
        specs = _tiny_specs()
        with collecting_snapshots() as serial_sink:
            serial = run_grid(specs, jobs=1, cache=None)
        with collecting_snapshots() as parallel_sink:
            parallel = run_grid(specs, jobs=4, cache=None)
        assert _canon(serial) == _canon(parallel)
        assert _canon(serial_sink.snapshots) == _canon(parallel_sink.snapshots)

    def test_cache_replay_is_byte_identical(self, tmp_path):
        specs = _tiny_specs(include_fault_trial=False)
        cache = TrialCache(str(tmp_path / "cache"))
        with collecting_snapshots() as cold_sink:
            cold = run_grid(specs, jobs=1, cache=cache)
        assert cache.misses == len(specs)
        warm_cache = TrialCache(str(tmp_path / "cache"))
        with collecting_snapshots() as warm_sink:
            warm = run_grid(specs, jobs=1, cache=warm_cache)
        assert warm_cache.hits == len(specs)
        assert warm_cache.misses == 0
        assert _canon(cold) == _canon(warm)
        assert _canon(cold_sink.snapshots) == _canon(warm_sink.snapshots)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        data=st.data(),
        jobs=st.sampled_from([2, 3, 4]),
        several_cohorts=st.booleans(),
    )
    def test_random_grid_serial_equals_parallel(self, data, jobs,
                                                several_cohorts):
        """Random trial grids — shuffled, with repeats, half of them
        over at least two of the pool's four cohorts, and including
        trials under an active FaultPlan — produce byte-identical rows
        and ledger snapshots (modulo ``git_sha``, which never enters
        run snapshots) serially, in warm lanes whose process history
        differs from the parent's and whose placement follows the
        cohorts, and replayed from the cache the pooled run filled.
        """
        pool = _random_pool()
        grids = st.lists(st.integers(0, len(pool) - 1), min_size=1,
                         max_size=8)
        if several_cohorts:
            grids = grids.filter(lambda ix: len(
                {parallel._cohort(pool[i]) for i in ix}) > 1)
        indices = data.draw(grids)
        specs = [pool[i] for i in indices]
        with collecting_snapshots() as serial_sink:
            serial = run_grid(specs, jobs=1, cache=None)
        with tempfile.TemporaryDirectory() as root:
            with collecting_snapshots() as pooled_sink:
                pooled = run_grid(specs, jobs=jobs, cache=TrialCache(root))
            replay_cache = TrialCache(root)
            with collecting_snapshots() as replay_sink:
                replayed = run_grid(specs, jobs=1, cache=replay_cache)
        assert replay_cache.stats() == {"hits": len(specs), "misses": 0}
        assert _canon(serial) == _canon(pooled) == _canon(replayed)
        assert (
            _canon(serial_sink.snapshots)
            == _canon(pooled_sink.snapshots)
            == _canon(replay_sink.snapshots)
        )


class TestSnapshotSinks:
    def test_no_snapshots_computed_without_consumer(self):
        payloads = run_grid(
            _tiny_specs(include_fault_trial=False), jobs=1, cache=None
        )
        assert all("snapshots" not in p for p in payloads)

    def test_pooled_workers_build_no_snapshot_without_consumer(
            self, monkeypatch):
        """The parent tells pooled workers whether anyone consumes
        snapshots; with no sink and no cache they build none, and the
        payloads equal an inline run's."""
        specs = _tiny_specs(include_fault_trial=False)
        inline = run_grid(specs, jobs=1, cache=None)

        def refuse(cluster):
            raise AssertionError("a snapshot nobody consumes")

        shutdown_pool()  # fork the workers with ``refuse`` in place
        monkeypatch.setattr(parallel, "_snapshot_cluster", refuse)
        try:
            pooled = run_grid(specs, jobs=2, cache=None)
        finally:
            shutdown_pool()
        assert _canon(pooled) == _canon(inline)

    def test_nested_sinks_both_receive(self):
        specs = _tiny_specs(include_fault_trial=False)
        with collecting_snapshots() as outer:
            with collecting_snapshots() as inner:
                run_grid(specs, jobs=1, cache=None)
        assert inner.snapshots
        assert _canon(outer.snapshots) == _canon(inner.snapshots)

    def test_f16_trial_yields_two_snapshots(self):
        spec = _tiny_specs()[-1]
        with collecting_snapshots() as sink:
            run_grid([spec], jobs=1, cache=None)
        # baseline run + faulty run
        assert len(sink.snapshots) == 2


class TestConfigured:
    def test_configured_sets_run_grid_defaults(self, tmp_path):
        specs = _tiny_specs(include_fault_trial=False, engines=("spark",))
        cache = TrialCache(str(tmp_path))
        with configured(jobs=1, cache=cache):
            grid_rows(specs)
        assert cache.misses == len(specs)
        with configured(jobs=1, cache=cache):
            grid_rows(specs)
        assert cache.hits == len(specs)

    def test_configured_restores_previous(self):
        from repro.harness.parallel import _config

        before = dict(_config)
        with configured(jobs=7, cache=None):
            assert _config["jobs"] == 7
        assert dict(_config) == before


class TestCacheKeys:
    def test_key_is_stable(self):
        spec = _tiny_specs(include_fault_trial=False, engines=("spark",))[0]
        assert spec.key(salt="s") == spec.key(salt="s")

    def test_key_depends_on_kwargs(self):
        a = cache_key("end_to_end", {"count": 1}, salt="s")
        b = cache_key("end_to_end", {"count": 2}, salt="s")
        assert a != b

    def test_key_depends_on_fn_and_salt(self):
        base = cache_key("end_to_end", {}, salt="s")
        assert cache_key("step", {}, salt="s") != base
        assert cache_key("end_to_end", {}, salt="t") != base

    def test_key_is_the_hash_of_fn_kwargs_salt_and_nothing_else(self):
        kwargs = {"engine": "spark", "count": 1}
        document = {"schema": CACHE_SCHEMA_VERSION, "salt": "s",
                    "fn": "end_to_end", "kwargs": kwargs}
        canonical = json.dumps(document, sort_keys=True,
                               separators=(",", ":"))
        expected = hashlib.sha256(canonical.encode()).hexdigest()
        assert cache_key("end_to_end", kwargs, salt="s") == expected
        # ``engine`` is still accepted (bench/workloads.py passes it)
        # and keys like the same spec without it.
        with_engine = TrialSpec("end_to_end", kwargs, engine="spark")
        without = TrialSpec("end_to_end", kwargs)
        assert with_engine.key(salt="s") == without.key(salt="s") == expected
        assert with_engine.key() == without.key()


    def test_warm_replay_derives_each_key_once(self, tmp_path,
                                                 monkeypatch):
        """A spec keys itself once per salt: the first sweep of a grid
        derives every key, and replays of the same specs derive none."""
        specs = _tiny_specs(include_fault_trial=False)
        cache = TrialCache(str(tmp_path))
        run_grid(specs, jobs=1, cache=cache)
        calls = []
        derive = parallel.cache_key

        def counting(*args, **kwargs):
            calls.append(args[0])
            return derive(*args, **kwargs)

        monkeypatch.setattr(parallel, "cache_key", counting)
        fresh = [TrialSpec(spec.fn, spec.kwargs) for spec in specs]
        first = run_grid(fresh, jobs=2, cache=cache)
        assert len(calls) == len(specs)
        for _ in range(3):
            assert run_grid(fresh, jobs=2, cache=cache) == first
        assert len(calls) == len(specs)
        assert cache.stats() == {"hits": 4 * len(specs),
                                 "misses": len(specs)}
        assert [spec.key() for spec in fresh] == [
            derive(spec.fn, spec.kwargs) for spec in specs]


class TestCodeTreeHash:
    """The one invalidation story: the default salt is a digest of
    every ``.py`` file's path and bytes under the package root."""

    BASE = {
        "__init__.py": b"",
        "cluster/costs.py": b"spark_task_overhead = 0.020\n",
        "harness/cache.py": b"# stand-in\n",
    }

    @staticmethod
    def _write(root, files):
        for relpath, blob in files.items():
            path = os.path.join(str(root), relpath)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as fh:
                fh.write(blob)
        return str(root)

    def _digest(self, tmp_path, name, files):
        # A fresh root per variant: digests are memoized per root and
        # cover paths relative to it, never the root itself.
        return code_tree_hash(self._write(tmp_path / name, files))

    def test_same_tree_under_another_root_hashes_equal(self, tmp_path):
        assert (self._digest(tmp_path, "a", self.BASE)
                == self._digest(tmp_path, "b", self.BASE))

    def test_changes_with_bytes_names_and_new_sources(self, tmp_path):
        base = self._digest(tmp_path, "base", self.BASE)
        edited = dict(self.BASE)
        edited["cluster/costs.py"] = b"spark_task_overhead = 0.050\n"
        renamed = dict(self.BASE)
        renamed["cluster/cost_model.py"] = renamed.pop("cluster/costs.py")
        added = dict(self.BASE, **{"cluster/extra.py": b""})
        digests = {
            base,
            self._digest(tmp_path, "edited", edited),
            self._digest(tmp_path, "renamed", renamed),
            self._digest(tmp_path, "added", added),
        }
        assert len(digests) == 4

    def test_ignores_bytecode_and_non_python_files(self, tmp_path):
        noisy = dict(self.BASE, **{
            "cluster/__pycache__/costs.cpython-312.pyc": b"\x00bytecode",
            "__pycache__/stray.py": b"x = 1\n",
            "harness/notes.md": b"# notes\n",
            "cluster/costs.py.orig": b"spark_task_overhead = 0.1\n",
        })
        assert (self._digest(tmp_path, "noisy", noisy)
                == self._digest(tmp_path, "base", self.BASE))

    def test_default_salt_follows_the_source_tree(self, tmp_path,
                                                  monkeypatch):
        """Editing a cost constant re-keys every trial, whatever its
        engine: with no ``salt`` the key hashes the tree two levels
        above ``cache.py``."""
        root = self._write(tmp_path / "repro", self.BASE)
        monkeypatch.setattr(
            cache_mod, "__file__", os.path.join(root, "harness", "cache.py")
        )
        monkeypatch.setattr(cache_mod, "_code_hash_cache", {})
        spec = TrialSpec("end_to_end", {"engine": "dask", "count": 1})
        before = spec.key()
        assert before == spec.key(salt=code_tree_hash(root))
        self._write(root, {
            "cluster/costs.py": b"spark_task_overhead = 0.050\n",
        })
        cache_mod._code_hash_cache.clear()
        assert spec.key() != before


class TestTelemetry:
    """Plane-2 instrumentation: executor phases, worker sidecars, and
    the invariant that telemetry never alters payloads."""

    def test_run_grid_records_executor_phases(self, tmp_path):
        from repro.obs import telemetry

        shutdown_pool()  # pool-startup only appears on a cold pool
        specs = _tiny_specs(include_fault_trial=False)
        cache = TrialCache(str(tmp_path / "cache"))
        with telemetry.recording() as rec:
            run_grid(specs, jobs=2, cache=cache)
        totals = rec.phase_totals()
        for phase in ("cache-lookup", "pool-startup", "dispatch",
                      "row-assemble", "cache-store", "result-merge"):
            assert phase in totals, f"missing phase {phase}"
        snap = rec.metrics.snapshot()
        assert snap["cache.misses"] == len(specs)
        assert snap["cache.stores"] == len(specs)
        assert 0.0 < snap["pool.utilization"] <= 1.0
        # Worker sidecars surfaced as parent-side histograms.
        assert snap["worker.worker-exec_s.count"] == len(specs)
        assert snap["worker.snapshot-serialize_s.count"] == len(specs)
        assert snap["cache.payload_bytes.count"] == len(specs)

    def test_serial_path_records_worker_metrics(self):
        from repro.obs import telemetry

        specs = _tiny_specs(include_fault_trial=False)
        with telemetry.recording() as rec:
            run_grid(specs, jobs=1, cache=None)
        totals = rec.phase_totals()
        assert "dispatch" in totals
        assert "pool-startup" not in totals
        snap = rec.metrics.snapshot()
        assert snap["worker.worker-exec_s.count"] == len(specs)

    def test_telemetry_does_not_change_payloads(self, tmp_path):
        from repro.obs import telemetry

        specs = _tiny_specs(include_fault_trial=False)
        plain = run_grid(specs, jobs=2, cache=None)
        with telemetry.recording():
            recorded = run_grid(specs, jobs=2, cache=None)
        assert _canon(plain) == _canon(recorded)
        # No consumer -> no snapshots, pooled or not.
        for payload in plain:
            assert set(payload) == {"row"}
        # Cached payloads carry no telemetry sidecar.
        cache = TrialCache(str(tmp_path / "cache"))
        with telemetry.recording():
            run_grid(specs, jobs=2, cache=cache)
        replayed = run_grid(specs, jobs=1,
                            cache=TrialCache(str(tmp_path / "cache")))
        assert _canon([p["row"] for p in plain]) == _canon(
            [p["row"] for p in replayed]
        )
        for payload in replayed:
            assert set(payload) == {"row", "snapshots"}

    def test_profile_dir_dumps_worker_profiles(self, tmp_path, monkeypatch):
        from repro.obs import telemetry

        profile_dir = tmp_path / "profiles"
        monkeypatch.setenv(telemetry.PROFILE_DIR_ENV, str(profile_dir))
        specs = _tiny_specs(include_fault_trial=False)
        run_grid(specs, jobs=2, cache=None)
        dumps = list(profile_dir.glob("trial-*.prof"))
        assert len(dumps) == len(specs)


class TestWarmPool:
    """The pool outlives run_grid: one startup cost per process, not
    one per figure."""

    def test_pool_persists_across_grids(self):
        shutdown_pool()
        specs = _tiny_specs(include_fault_trial=False)
        run_grid(specs, jobs=2, cache=None)
        pool = parallel._pool_state["pool"]
        assert pool is not None
        run_grid(specs, jobs=2, cache=None)
        assert parallel._pool_state["pool"] is pool

    def test_warm_reuse_skips_pool_startup_phase(self):
        from repro.obs import telemetry

        shutdown_pool()
        specs = _tiny_specs(include_fault_trial=False)
        run_grid(specs, jobs=2, cache=None)  # cold: creates the pool
        with telemetry.recording() as rec:
            run_grid(specs, jobs=2, cache=None)
        totals = rec.phase_totals()
        assert "pool-startup" not in totals
        assert "dispatch" in totals

    def test_pool_grows_for_larger_grids(self):
        shutdown_pool()
        run_grid(
            _tiny_specs(include_fault_trial=False), jobs=2, cache=None
        )
        small = parallel._pool_state["pool"]
        run_grid(
            _tiny_specs(include_fault_trial=False,
                        engines=("dask", "spark", "myria")),
            jobs=3, cache=None,
        )
        assert parallel._pool_state["pool"] is not small
        assert parallel._pool_state["procs"] == 3

    def test_shutdown_resets_state(self):
        run_grid(
            _tiny_specs(include_fault_trial=False), jobs=2, cache=None
        )
        shutdown_pool()
        assert parallel._pool_state["pool"] is None
        assert parallel._pool_state["procs"] == 0


class TestCohortPlacement:
    """Lanes keep a cohort's trials together (see ``COHORT_ARGS``)."""

    def test_cohort_is_fn_plus_data_arguments(self):
        neuro = _neuro_cell("dask", count=1, nodes=4)
        assert parallel._cohort(neuro) == parallel._cohort(
            _neuro_cell("spark", count=1, nodes=2))
        assert parallel._cohort(neuro) != parallel._cohort(
            _neuro_cell("dask", count=2, nodes=4))
        assert parallel._cohort(neuro) != parallel._cohort(
            _f16_cell("dask"))

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_each_cohort_runs_in_one_lane(self, jobs, monkeypatch):
        """As many cohorts as lanes, submitted interleaved.  Every
        trial waits at a barrier of all the lanes, so the lanes advance
        in lock step, and a lane that finishes its cohort finds the
        other cohorts' last trials already running: nothing is left to
        steal, and the affinity rule alone decides who runs what.  A
        lane that is dealt a trial of another cohort reports a second
        pid for it; a lane left idle breaks the barrier."""
        shutdown_pool()  # the lanes must fork with the barrier
        monkeypatch.setitem(
            _LOCKSTEP, "barrier", parallel._pool_context().Barrier(jobs)
        )
        specs = [TrialSpec("test_lockstep",
                           {"count": 1, "seed": cohort, "step": step})
                 for step in range(3) for cohort in range(jobs)]
        try:
            rows = grid_rows(specs, jobs=jobs, cache=None)
        finally:
            shutdown_pool()
        pids = {}
        for row in rows:
            pids.setdefault(row["seed"], set()).add(row["pid"])
        assert sorted(pids) == list(range(jobs))
        assert all(len(lane) == 1 for lane in pids.values())
        assert len(set().union(*pids.values())) == jobs
        assert os.getpid() not in set().union(*pids.values())

    def test_one_cohort_spreads_over_every_lane(self):
        """A grid of one cohort still uses every lane: the second lane
        takes the next trial of the started cohort with the most left
        before the first lane has finished anything."""
        specs = [TrialSpec("test_lockstep",
                           {"count": 1, "seed": 0, "step": step})
                 for step in range(4)]
        rows = grid_rows(specs, jobs=2, cache=None)
        assert len({row["pid"] for row in rows}) == 2


#: Run in a child interpreter by the dead-lane test, so that a
#: regression to hanging fails the test at its timeout instead of
#: hanging the suite.
_SIGKILL_SCRIPT = """
import json, os, signal
from repro.harness import parallel
from repro.harness.parallel import (
    TrialExecutionError, TrialSpec, run_grid, trial)

PARENT = os.getpid()


@trial("test_sigkill")
def _sigkill(i, kill=False):
    if kill and os.getpid() != PARENT:
        os.kill(os.getpid(), signal.SIGKILL)
    return {"i": i}


specs = [TrialSpec("test_sigkill", {"i": i, "kill": i == 2})
         for i in range(6)]
try:
    run_grid(specs, jobs=2, cache=None)
    raise SystemExit("the grid did not fail")
except TrialExecutionError as exc:
    failures = [[i, fn, error["type"], error["message"]]
                for i, fn, error in exc.failures]
    survivors = [p and p["row"]["i"] for p in exc.payloads]
lanes = parallel._pool_state["pool"]
exitcodes = [lane.process.exitcode for lane in lanes]
again = run_grid(specs[:2] + specs[3:], jobs=2, cache=None)
# Both lanes die on their first trials: the rest of the grid never runs.
try:
    run_grid([TrialSpec("test_sigkill", {"i": i, "kill": i < 2})
              for i in range(4)], jobs=2, cache=None)
    raise SystemExit("the grid did not fail")
except TrialExecutionError as exc:
    orphaned = [[i, error["message"]] for i, _fn, error in exc.failures]
print(json.dumps({
    "failures": failures, "survivors": survivors, "exitcodes": exitcodes,
    "again": [p["row"]["i"] for p in again], "orphaned": orphaned,
    "last": [p["row"]["i"] for p in run_grid(specs[3:], jobs=2, cache=None)],
    "alive": [lane.process.is_alive()
              for lane in parallel._pool_state["pool"]],
    "same_pool": parallel._pool_state["pool"] is lanes,
}))
"""


class TestFailurePropagation:
    """A failing trial surfaces its original traceback without
    corrupting the submission-order merge of the survivors."""

    @staticmethod
    def _specs_with_failure():
        good = _tiny_specs(include_fault_trial=False)  # dask, spark
        bad = TrialSpec(
            "end_to_end",
            {"pipeline": "neuro", "engine": "spark", "count": 1,
             "n_nodes": 4, "profile": dict(TINY_NEURO), "bogus": True},
        )
        return good, [good[0], bad, good[1]]

    def _check(self, jobs):
        good, specs = self._specs_with_failure()
        with collecting_snapshots() as serial_sink:
            serial = run_grid(good, jobs=1, cache=None)
        with collecting_snapshots() as sink:
            with pytest.raises(TrialExecutionError) as excinfo:
                run_grid(specs, jobs=jobs, cache=None)
        err = excinfo.value
        assert [(i, fn) for i, fn, _ in err.failures] == [(1, "end_to_end")]
        assert err.failures[0][2]["type"] == "TypeError"
        # The original worker-side traceback is embedded in the message.
        assert "bogus" in str(err)
        assert "Traceback" in str(err)
        assert err.payloads[1] is None
        survivors = [err.payloads[0], err.payloads[2]]
        assert _canon(survivors) == _canon(serial)
        assert _canon(sink.snapshots) == _canon(serial_sink.snapshots)

    def test_pooled_failure(self):
        self._check(2)

    def test_inline_failure(self):
        self._check(1)

    def test_failure_inside_a_multi_trial_batch(self, tmp_path):
        """Nine pending trials of one cohort on two lanes: the lane
        that ran the failing trial goes on to run survivors."""
        bad = 4
        specs = [TrialSpec("test_cheap", {"i": i, "fail": i == bad})
                 for i in range(9)]
        good = specs[:bad] + specs[bad + 1:]
        with collecting_snapshots() as serial_sink:
            serial = run_grid(good, jobs=1, cache=None)
        shutdown_pool()  # exactly two lanes
        cache = TrialCache(str(tmp_path / "cache"))
        with collecting_snapshots() as sink:
            with pytest.raises(TrialExecutionError) as excinfo:
                run_grid(specs, jobs=2, cache=cache)
        assert parallel._pool_state["procs"] == 2
        err = excinfo.value
        assert [(i, fn) for i, fn, _ in err.failures] == [(bad, "test_cheap")]
        error = err.failures[0][2]
        assert error["type"] == "RuntimeError"
        assert error["message"] == f"cheap trial {bad} was told to fail"
        assert "Traceback" in error["traceback"]
        assert "_trial_cheap" in error["traceback"]
        assert err.payloads[bad] is None
        survivors = err.payloads[:bad] + err.payloads[bad + 1:]
        assert _canon(survivors) == _canon(serial)
        assert _canon(sink.snapshots) == _canon(serial_sink.snapshots)
        # The cache holds exactly the survivors.
        stored = [name for _dir, _subdirs, names in os.walk(cache.root)
                  for name in names]
        assert sorted(stored) == sorted(f"{spec.key()}.tm" for spec in good)
        replay = TrialCache(cache.root)
        assert _canon(run_grid(good, jobs=1, cache=replay)) == _canon(serial)
        assert replay.stats() == {"hits": len(good), "misses": 0}


    def test_a_lane_killed_mid_grid_fails_its_trial(self):
        """A trial that SIGKILLs its own lane fails with the signal
        named; the other trials merge, and the next grid replaces the
        lane in the same pool.  When every lane dies, the trials left
        fail as never run."""
        import repro

        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(repro.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", _SIGKILL_SCRIPT], env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        [[index, fn, kind, message]] = report["failures"]
        assert (index, fn, kind) == (2, "test_sigkill", "LaneDied")
        assert "trial #2 (test_sigkill)" in message
        assert "killed by signal 9" in message
        assert report["survivors"] == [0, 1, None, 3, 4, 5]
        assert sorted(report["exitcodes"], key=str) == [-9, None]
        assert report["again"] == [0, 1, 3, 4, 5]
        # With every lane dead, the trials never started fail too.
        assert [i for i, _ in report["orphaned"]] == [0, 1, 2, 3]
        assert all("killed by signal 9" in m
                   for _, m in report["orphaned"][:2])
        assert all("never ran" in m for _, m in report["orphaned"][2:])
        assert report["last"] == [3, 4, 5]
        assert report["alive"] == [True, True]
        assert report["same_pool"]

    def test_interrupt_stops_every_lane(self, monkeypatch):
        """An interrupt while trials are out stops the lanes running
        them before it propagates: no lane outlives the grid."""
        import multiprocessing.connection

        shutdown_pool()
        running = []

        def interrupted(*args, **kwargs):
            running.extend(
                lane.process for lane in parallel._pool_state["pool"])
            raise KeyboardInterrupt

        monkeypatch.setattr(multiprocessing.connection, "wait", interrupted)
        specs = [TrialSpec("test_sleep", {"seconds": 60}) for _ in range(3)]
        try:
            with pytest.raises(KeyboardInterrupt):
                run_grid(specs, jobs=2, cache=None)
        finally:
            monkeypatch.undo()
        assert len(running) == 2
        for process in running:
            process.join(timeout=10)
            assert not process.is_alive()
        assert parallel._pool_state["pool"] is None


class TestCacheStore:
    def test_roundtrip_and_stats(self, tmp_path):
        cache = TrialCache(str(tmp_path))
        payload = {"row": {"simulated_s": 1.5}, "snapshots": []}
        assert cache.get("k" * 64) is None
        cache.put("k" * 64, payload)
        assert cache.get("k" * 64) == payload
        assert cache.stats() == {"hits": 1, "misses": 1}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = TrialCache(str(tmp_path))
        cache.put("a" * 64, {"row": {}})
        with open(cache._path("a" * 64), "w") as fh:
            fh.write("{not json")
        assert cache.get("a" * 64) is None

    @staticmethod
    def _truncate(path):
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])

    def test_truncated_entry_is_evicted_then_recomputable(self, tmp_path):
        cache = TrialCache(str(tmp_path))
        payload = {"row": {"simulated_s": 1.5}, "snapshots": []}
        cache.put("b" * 64, payload)
        path = cache._path("b" * 64)
        self._truncate(path)
        assert cache.get("b" * 64) is None  # miss, not a crash
        assert not os.path.exists(path)  # evicted
        cache.put("b" * 64, payload)  # the slot is reusable
        assert cache.get("b" * 64) == payload

    def test_truncation_mid_payload_recomputes_identically(self, tmp_path):
        """End to end: a cache file truncated mid-payload (torn write,
        full disk) is treated as a miss and the trial recomputes to the
        same bytes."""
        specs = _tiny_specs(include_fault_trial=False, engines=("spark",))
        root = str(tmp_path / "cache")
        cache = TrialCache(root)
        with collecting_snapshots() as cold_sink:
            cold = run_grid(specs, jobs=1, cache=cache)
        self._truncate(cache._path(specs[0].key()))
        fresh = TrialCache(root)
        with collecting_snapshots() as sink:
            again = run_grid(specs, jobs=1, cache=fresh)
        assert fresh.stats() == {"hits": 0, "misses": 1}
        assert _canon(again) == _canon(cold)
        assert _canon(sink.snapshots) == _canon(cold_sink.snapshots)


def _json_round_trip(payload):
    return json.loads(json.dumps(payload))


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)
_JSON_KEYS = st.one_of(st.text(max_size=4), st.integers(-3, 3))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_JSON_KEYS, inner, max_size=4),
    ),
    max_leaves=16,
)


class TestPayloadCodec:
    """The cache's one format: a CRC-32, then the ``marshal`` bytes of
    the payload as a JSON round trip would return it.  Workers send the
    same bytes the parent stores."""

    NESTED = {
        "row": {"engine": "spark", "b": 1, "a": (1, 2.5, (3,)),
                "simulated_s": np.float64(1.5), "ints": {1: "x", 2: [None]}},
        "snapshots": [{"nan": float("nan"), "inf": float("inf"),
                       "-inf": -float("inf"), "flag": True}],
    }

    def test_decodes_to_the_json_round_trip(self):
        decoded = decode_payload(encode_payload(self.NESTED))
        expected = _json_round_trip(self.NESTED)
        # json.dumps writes NaN as NaN, so equal text is equal values.
        assert json.dumps(decoded) == json.dumps(expected)
        row = decoded["row"]
        assert list(row) == ["engine", "b", "a", "simulated_s", "ints"]
        assert row["a"] == [1, 2.5, [3]]
        assert type(row["simulated_s"]) is float
        assert row["ints"] == {"1": "x", "2": [None]}

    @settings(max_examples=200, deadline=None)
    @given(payload=st.dictionaries(_JSON_KEYS, _JSON_VALUES, max_size=5))
    def test_property_decode_inverts_encode_up_to_json(self, payload):
        decoded = decode_payload(encode_payload(payload))
        assert json.dumps(decoded) == json.dumps(_json_round_trip(payload))

    @pytest.mark.parametrize("value", [np.int64(3), {1, 2}, b"raw"])
    def test_values_json_cannot_encode_still_raise(self, value):
        with pytest.raises(TypeError):
            encode_payload({"row": {"x": [value]}})

    @staticmethod
    def _stored(tmp_path):
        cache = TrialCache(str(tmp_path))
        cache.put("c" * 64, TestPayloadCodec.NESTED)
        path = cache._path("c" * 64)
        with open(path, "rb") as fh:
            return cache, path, fh.read()

    @staticmethod
    def _is_evicted_miss(cache, path, blob):
        with open(path, "wb") as fh:
            fh.write(blob)
        misses = cache.misses
        missed = cache.get("c" * 64) is None and cache.misses == misses + 1
        return missed and not os.path.exists(path)

    def test_every_one_byte_flip_is_an_evicted_miss(self, tmp_path):
        cache, path, blob = self._stored(tmp_path)
        for offset in range(len(blob)):
            for mask in (0x01, 0x80, 0xFF):
                flipped = bytearray(blob)
                flipped[offset] ^= mask
                assert self._is_evicted_miss(cache, path, bytes(flipped)), \
                    (offset, mask)
        assert cache.hits == 0

    def test_truncations_and_garbage_are_evicted_misses(self, tmp_path):
        cache, path, blob = self._stored(tmp_path)
        for length in range(len(blob)):
            assert self._is_evicted_miss(cache, path, blob[:length]), length
        not_a_dict = marshal.dumps([1, 2])
        for garbage in (b"\x00" * 16, b"{not json", zlib.compress(b"{}"),
                        hashlib.sha256(blob).digest(), blob + b"\x00",
                        zlib.crc32(not_a_dict).to_bytes(4, "little")
                        + not_a_dict):
            assert self._is_evicted_miss(cache, path, garbage), garbage
        with open(path, "wb") as fh:
            fh.write(blob)
        assert json.dumps(cache.get("c" * 64)) == json.dumps(
            _json_round_trip(self.NESTED))

    def test_pooled_and_inline_passes_store_the_same_bytes(self, tmp_path):
        """Workers encode for the pipe; the parent stores those bytes
        as they came, and they equal what an inline pass encodes."""
        specs = [TrialSpec("test_cheap", {"i": i}) for i in range(3)]

        def entries(jobs):
            root = tmp_path / f"jobs{jobs}"
            run_grid(specs, jobs=jobs, cache=TrialCache(str(root)))
            return {path.name: path.read_bytes()
                    for path in root.glob("*/*")}

        inline = entries(1)
        assert sorted(inline) == sorted(f"{s.key()}.tm" for s in specs)
        assert entries(2) == inline
