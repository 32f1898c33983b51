"""The trial executor: determinism across processes, cache behavior.

The load-bearing property: a figure's rows and ledger snapshots are
byte-identical whether its trials run serially in-process, fan out
across a process pool, or replay from the content-addressed cache.
The simulator's virtual clock depends only on the relative order of
task ids within one cluster, and every counter that reaches a task name
lives on the engine the trial builds, so a worker's process history
cannot leak into results.
"""

import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.costs import CostModel
from repro.cluster.faults import FaultPlan, RetryPolicy
from repro.harness import experiments as E  # noqa: F401 - fills the registry
from repro.harness import parallel
from repro.harness.cache import TrialCache, cache_key, relevant_constants
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
from repro.harness.runner import fresh_engine, neuro_subjects
from repro.pipelines.neuro.staging import stage_subjects
from repro.plan import lower, neuro_plan

TINY_NEURO = {"scale": 20, "n_volumes": 12}
TINY_ASTRO = {"scale": 100, "n_sensors": 4}

TRANSIENT_FAULTS = {"fail_tasks": 0.2, "seed": 7}


@trial("test_transient_neuro")
def _trial_transient_neuro(kind, profile):
    """Tiny neuro trial under seeded transient task failures.  Fault
    draws are keyed on task names, so the row and snapshot move if a
    name depends on what the executing process ran before."""
    subjects = neuro_subjects(1, **profile)
    cluster, engine = fresh_engine(kind, n_nodes=4)
    stage_subjects(cluster.object_store, subjects)
    cluster.install_faults(
        FaultPlan(
            seed=TRANSIENT_FAULTS["seed"],
            retry_policy=RetryPolicy(max_attempts=6),
        ).fail_tasks(
            TRANSIENT_FAULTS["fail_tasks"], detect_delay_s=0.3,
            max_failures_per_task=2,
        )
    )
    lowered = lower(neuro_plan(), kind, engine)
    lowered.run(subjects if kind == "dask" else subjects[0])
    return {"engine": kind, "simulated_s": cluster.now}


def _canon(payloads):
    return json.dumps(payloads, sort_keys=True)


def _tiny_specs(include_fault_trial=True, engines=("dask", "spark")):
    specs = [
        TrialSpec(
            "fig10c",
            {"kind": kind, "count": 1, "n_nodes": 4,
             "profile": dict(TINY_NEURO)},
            engine=kind,
        )
        for kind in engines
    ]
    if include_fault_trial:
        specs.append(
            TrialSpec(
                "f16",
                {"kind": "spark", "n_subjects": 1, "n_nodes": 4,
                 "profile": dict(TINY_NEURO), "restart_after_s": 18.0,
                 "seed": 16},
                engine="spark",
                faults={"crash": "last-node@50%-progress", "seed": 16},
            )
        )
    return specs


def _random_pool():
    """Spec pool the hypothesis grid test draws from: engine x count x
    cluster-size fig10c trials, two f16 trials under a node crash, and
    a Dask and a TensorFlow trial under transient task failures (the
    two engines whose task names embed counters)."""
    return [
        TrialSpec(
            "fig10c",
            {"kind": kind, "count": count, "n_nodes": nodes,
             "profile": dict(TINY_NEURO)},
            engine=kind,
        )
        for kind in ("dask", "myria", "spark")
        for count in (1, 2)
        for nodes in (2, 4)
    ] + [
        TrialSpec(
            "f16",
            {"kind": kind, "n_subjects": 1, "n_nodes": 4,
             "profile": dict(TINY_NEURO), "restart_after_s": 18.0,
             "seed": 16},
            engine=kind,
            faults={"crash": "last-node@50%-progress", "seed": 16},
        )
        for kind in ("spark", "dask")
    ] + [
        TrialSpec(
            "test_transient_neuro",
            {"kind": kind, "profile": dict(TINY_NEURO)},
            engine=kind,
            faults=dict(TRANSIENT_FAULTS),
        )
        for kind in ("dask", "tensorflow")
    ]


class TestRegistry:
    def test_all_grid_figures_registered(self):
        for name in ("table1", "fig10a", "fig10b",
                     "fig10c", "fig10d", "fig10g", "fig10h", "fig11",
                     "fig12a", "fig12b", "fig12c", "fig12d", "fig13",
                     "fig14", "fig15", "s531", "s533", "f16",
                     "ablation_scidb", "ablation_tf", "ablation_tuning"):
            assert name in TRIAL_FNS

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

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        data=st.data(),
        jobs=st.sampled_from([2, 3, 4]),
    )
    def test_random_grid_serial_equals_parallel(self, data, jobs):
        """Random trial grids — including trials under an active
        FaultPlan — produce byte-identical rows and ledger snapshots
        (modulo ``git_sha``, which never enters run snapshots) serially,
        in warm-pool workers whose process history differs from the
        parent's, and replayed from the cache the pooled run filled.
        """
        pool = _random_pool()
        indices = data.draw(
            st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=4)
        )
        specs = [pool[i] for i in indices]
        with collecting_snapshots() as serial_sink:
            serial = run_grid(specs, jobs=1, cache=None)
        # Force the warm-pool chunked path (the cost EMA would otherwise
        # route these tiny trials through the auto-serial fallback).
        threshold = parallel.AUTO_SERIAL_THRESHOLD_S
        parallel.AUTO_SERIAL_THRESHOLD_S = 0.0
        try:
            with tempfile.TemporaryDirectory() as root:
                with collecting_snapshots() as pooled_sink:
                    pooled = run_grid(specs, jobs=jobs, cache=TrialCache(root))
                replay_cache = TrialCache(root)
                with collecting_snapshots() as replay_sink:
                    replayed = run_grid(specs, jobs=1, cache=replay_cache)
        finally:
            parallel.AUTO_SERIAL_THRESHOLD_S = threshold
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
        a = cache_key("fig10c", {"count": 1}, engine="spark", salt="s")
        b = cache_key("fig10c", {"count": 2}, engine="spark", salt="s")
        assert a != b

    def test_key_depends_on_fn_and_faults_and_salt(self):
        base = cache_key("fig10c", {}, engine="spark", salt="s")
        assert cache_key("fig10d", {}, engine="spark", salt="s") != base
        assert cache_key(
            "fig10c", {}, engine="spark", faults={"seed": 1}, salt="s"
        ) != base
        assert cache_key("fig10c", {}, engine="spark", salt="t") != base

    def test_engine_constant_scoping(self):
        model = CostModel()
        spark = relevant_constants(model, engine="spark")
        dask = relevant_constants(model, engine="dask")
        assert "spark_task_overhead" in spark
        assert "spark_task_overhead" not in dask
        assert "dask_task_overhead" in dask
        assert "python_boundary_bandwidth" in spark
        assert "python_boundary_bandwidth" not in dask
        # Shared constants key every engine.
        assert "network_bandwidth" in spark
        assert "network_bandwidth" in dask
        # engine=None (mixed trial) keys on everything.
        assert "spark_task_overhead" in relevant_constants(model)
        assert "dask_task_overhead" in relevant_constants(model)

    def test_cost_constant_invalidation_is_engine_scoped(self):
        model = CostModel()
        retuned_spark = model.with_overrides(spark_task_overhead=0.05)
        spark_key = cache_key("fig10c", {}, engine="spark",
                              cost_model=model, salt="s")
        dask_key = cache_key("fig10c", {}, engine="dask",
                             cost_model=model, salt="s")
        assert cache_key("fig10c", {}, engine="spark",
                         cost_model=retuned_spark, salt="s") != spark_key
        assert cache_key("fig10c", {}, engine="dask",
                         cost_model=retuned_spark, salt="s") == dask_key
        # A shared constant invalidates every engine.
        retuned_net = model.with_overrides(network_bandwidth=1e9)
        assert cache_key("fig10c", {}, engine="spark",
                         cost_model=retuned_net, salt="s") != spark_key
        assert cache_key("fig10c", {}, engine="dask",
                         cost_model=retuned_net, salt="s") != dask_key


class TestCalibrationInvalidation:
    """ROADMAP's ledger-driven calibration check: recalibrating one
    cost constant re-simulates exactly the trials whose blame includes
    that constant's engine, and replays everything else from cache."""

    @staticmethod
    def _blames_spark(snapshot):
        return any(
            (row["category"] or "").startswith("spark")
            for row in snapshot["critical_path"]["blame"]
        )

    def test_recalibration_invalidates_only_blamed_trials(self, tmp_path):
        specs = _tiny_specs(include_fault_trial=False)  # dask, spark
        cache = TrialCache(str(tmp_path))
        with collecting_snapshots() as base_sink:
            base = run_grid(specs, jobs=1, cache=cache)
        assert cache.stats() == {"hits": 0, "misses": 2}
        # The blame ledger says which trial depends on the spark
        # scheduler constants -- exactly the one the retune must evict.
        assert not self._blames_spark(base_sink.snapshots[0])
        assert self._blames_spark(base_sink.snapshots[1])

        retuned = CostModel().with_overrides(spark_task_overhead=0.5)
        recal_cache = TrialCache(str(tmp_path))
        with collecting_snapshots() as recal_sink:
            recal = run_grid(
                specs, jobs=1, cache=recal_cache, cost_model=retuned
            )
        assert recal_cache.stats() == {"hits": 1, "misses": 1}
        # Dask trial replayed byte-identically; spark trial re-simulated
        # under the retuned model and got slower.
        assert _canon(recal[0]) == _canon(base[0])
        assert _canon(recal_sink.snapshots[0]) == _canon(base_sink.snapshots[0])
        assert (recal[1]["row"]["simulated_s"]
                > base[1]["row"]["simulated_s"])

    def test_default_model_rerun_hits_everything(self, tmp_path):
        specs = _tiny_specs(include_fault_trial=False)
        cache = TrialCache(str(tmp_path))
        run_grid(specs, jobs=1, cache=cache)
        rerun_cache = TrialCache(str(tmp_path))
        # An explicit default model keys identically to cost_model=None.
        run_grid(specs, jobs=1, cache=rerun_cache, cost_model=CostModel())
        assert rerun_cache.stats() == {"hits": len(specs), "misses": 0}


class TestBenchCli:
    def test_bench_writes_schema_and_compare_reads_it(self, tmp_path, capsys):
        from repro.harness.__main__ import _bench_main, _compare_main

        out = tmp_path / "bench.json"
        assert _bench_main(["fig10c", "--jobs", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["bench_schema_version"] == 4
        assert doc["quick"] is True
        host = doc["host"]
        assert host["cpu_count"] == os.cpu_count()
        assert set(host["thread_env"]) == {
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"
        }
        assert host["python"] and host["numpy"]
        fig = doc["figures"]["fig10c"]
        for key in ("serial_s", "parallel_s", "warm_s", "jobs",
                    "cold_cache", "warm_cache", "chunk_size",
                    "snapshots_identical", "speedup", "warm_over_cold"):
            assert key in fig
        assert "op_cache" not in fig  # v3's op-tier counters are gone
        # The cold run populates the cache (all misses); the warm run
        # replays it (all hits).
        assert fig["cold_cache"]["hits"] == 0
        assert fig["cold_cache"]["misses"] > 0
        assert fig["warm_cache"]["hits"] == fig["cold_cache"]["misses"]
        assert fig["warm_cache"]["misses"] == 0
        # Every leg's snapshots were byte-identical.  --jobs 1 never
        # pools, so the dispatch chunk size is null.
        assert fig["snapshots_identical"] is True
        assert fig["chunk_size"] is None
        capsys.readouterr()
        # ``compare`` auto-detects bench files; report-only, exit 0.
        assert _compare_main([str(out), str(out), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bench_compare"] is True
        assert report["figures"][0]["figure"] == "fig10c"
        assert report["figures"][0]["serial_s_ratio"] == 1.0

    def test_bench_phase_coverage_accounts_for_wall_time(self, tmp_path,
                                                         capsys):
        from repro.harness.__main__ import _bench_main

        out = tmp_path / "bench.json"
        log = tmp_path / "telemetry.jsonl"
        assert _bench_main([
            "fig11", "--jobs", "2", "--out", str(out), "--phases",
            "--telemetry-log", str(log),
        ]) == 0
        doc = json.loads(out.read_text())
        phases = doc["figures"]["fig11"]["phases"]
        for leg in ("serial", "parallel", "warm"):
            assert phases[leg]["coverage"] >= 0.99, (
                f"{leg} leg accounts for only"
                f" {phases[leg]['coverage']:.1%} of its wall time"
            )

    def test_compare_rejects_mismatched_schema_versions(self, tmp_path,
                                                        capsys):
        from repro.harness.__main__ import _compare_main

        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(
            {"bench_schema_version": 3, "figures": {}}
        ))
        new.write_text(json.dumps(
            {"bench_schema_version": 4, "figures": {}}
        ))
        assert _compare_main([str(old), str(new)]) == 2
        err = capsys.readouterr().err
        assert "has bench_schema_version 3 but" in err
        assert "has 4;" in err

    def test_bench_gate_flags_sub_unity_speedup(self, tmp_path, capsys,
                                                monkeypatch):
        from repro.harness import __main__ as cli

        real_timed_run = cli._timed_run
        walls = iter([0.1, 0.5, 0.01])  # serial, parallel, warm

        def slow_parallel(run, quick, label, phases=False, log_path=None):
            _wall, report, canon = real_timed_run(
                run, quick, label, phases=phases, log_path=log_path
            )
            return next(walls), report, canon

        monkeypatch.setattr(cli, "_timed_run", slow_parallel)
        out = tmp_path / "bench.json"
        assert cli._bench_main(
            ["fig11", "--jobs", "1", "--out", str(out), "--gate"]
        ) == 1
        assert "speedup" in capsys.readouterr().err


class TestTelemetry:
    """Plane-2 instrumentation: executor phases, worker sidecars, and
    the invariant that telemetry never alters payloads."""

    def test_run_grid_records_executor_phases(self, tmp_path, monkeypatch):
        from repro.obs import telemetry

        monkeypatch.setattr(parallel, "AUTO_SERIAL_THRESHOLD_S", 0.0)
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

        monkeypatch.setattr(parallel, "AUTO_SERIAL_THRESHOLD_S", 0.0)
        profile_dir = tmp_path / "profiles"
        monkeypatch.setenv(telemetry.PROFILE_DIR_ENV, str(profile_dir))
        specs = _tiny_specs(include_fault_trial=False)
        run_grid(specs, jobs=2, cache=None)
        dumps = list(profile_dir.glob("trial-*.prof"))
        assert len(dumps) == len(specs)


class TestWarmPool:
    """The pool outlives run_grid: one startup cost per process, not
    one per figure."""

    def test_pool_persists_across_grids(self, monkeypatch):
        monkeypatch.setattr(parallel, "AUTO_SERIAL_THRESHOLD_S", 0.0)
        shutdown_pool()
        specs = _tiny_specs(include_fault_trial=False)
        run_grid(specs, jobs=2, cache=None)
        pool = parallel._pool_state["pool"]
        assert pool is not None
        run_grid(specs, jobs=2, cache=None)
        assert parallel._pool_state["pool"] is pool

    def test_warm_reuse_skips_pool_startup_phase(self, monkeypatch):
        from repro.obs import telemetry

        monkeypatch.setattr(parallel, "AUTO_SERIAL_THRESHOLD_S", 0.0)
        shutdown_pool()
        specs = _tiny_specs(include_fault_trial=False)
        run_grid(specs, jobs=2, cache=None)  # cold: creates the pool
        with telemetry.recording() as rec:
            run_grid(specs, jobs=2, cache=None)
        totals = rec.phase_totals()
        assert "pool-startup" not in totals
        assert "dispatch" in totals

    def test_pool_grows_for_larger_grids(self, monkeypatch):
        monkeypatch.setattr(parallel, "AUTO_SERIAL_THRESHOLD_S", 0.0)
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

    def test_shutdown_resets_state(self, monkeypatch):
        monkeypatch.setattr(parallel, "AUTO_SERIAL_THRESHOLD_S", 0.0)
        run_grid(
            _tiny_specs(include_fault_trial=False), jobs=2, cache=None
        )
        shutdown_pool()
        assert parallel._pool_state["pool"] is None
        assert parallel._pool_state["procs"] == 0


class TestAutoSerial:
    """Grids cheaper than the dispatch overhead never touch the pool."""

    def test_cheap_grid_runs_inline(self, monkeypatch):
        from repro.obs import telemetry

        specs = _tiny_specs(include_fault_trial=False)
        run_grid(specs, jobs=1, cache=None)  # seed the cost EMA
        monkeypatch.setattr(parallel, "AUTO_SERIAL_THRESHOLD_S", 1e9)
        shutdown_pool()
        with telemetry.recording() as rec:
            payloads = run_grid(specs, jobs=4, cache=None)
        assert parallel._pool_state["pool"] is None  # never created
        assert parallel.last_chunk_size is None
        totals = rec.phase_totals()
        assert "pool-startup" not in totals
        assert "dispatch" in totals
        # The inline path still records worker-side telemetry.
        snap = rec.metrics.snapshot()
        assert snap["worker.worker-exec_s.count"] == len(specs)
        assert len(payloads) == len(specs)

    def test_unobserved_trials_assume_expensive(self, monkeypatch):
        monkeypatch.setattr(parallel, "AUTO_SERIAL_THRESHOLD_S", 1e9)
        monkeypatch.setattr(parallel, "_trial_cost_ema", {})
        shutdown_pool()
        run_grid(
            _tiny_specs(include_fault_trial=False), jobs=2, cache=None
        )
        # No EMA observation -> no estimate -> pooled despite the
        # enormous threshold.
        assert parallel._pool_state["pool"] is not None


class TestFailurePropagation:
    """A failing trial surfaces its original traceback without
    corrupting the submission-order merge of the survivors."""

    @staticmethod
    def _specs_with_failure():
        good = _tiny_specs(include_fault_trial=False)  # dask, spark
        bad = TrialSpec(
            "fig10c",
            {"kind": "spark", "count": 1, "n_nodes": 4,
             "profile": dict(TINY_NEURO), "bogus": True},
            engine="spark",
        )
        return good, [good[0], bad, good[1]]

    def _check(self, jobs, monkeypatch):
        monkeypatch.setattr(parallel, "AUTO_SERIAL_THRESHOLD_S", 0.0)
        good, specs = self._specs_with_failure()
        with collecting_snapshots() as serial_sink:
            serial = run_grid(good, jobs=1, cache=None)
        with collecting_snapshots() as sink:
            with pytest.raises(TrialExecutionError) as excinfo:
                run_grid(specs, jobs=jobs, cache=None)
        err = excinfo.value
        assert [(i, fn) for i, fn, _ in err.failures] == [(1, "fig10c")]
        assert err.failures[0][2]["type"] == "TypeError"
        # The original worker-side traceback is embedded in the message.
        assert "bogus" in str(err)
        assert "Traceback" in str(err)
        assert err.payloads[1] is None
        survivors = [err.payloads[0], err.payloads[2]]
        assert _canon(survivors) == _canon(serial)
        assert _canon(sink.snapshots) == _canon(serial_sink.snapshots)

    def test_pooled_failure(self, monkeypatch):
        self._check(2, monkeypatch)

    def test_inline_failure(self, monkeypatch):
        self._check(1, monkeypatch)


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
