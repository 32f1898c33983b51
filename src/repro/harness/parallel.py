"""Trial executor: warm worker lanes and deterministic result merging.

Every figure in the paper is a grid of independent trials (engine x
data size x cluster size x faults).  Each trial builds its clusters
and engines from scratch, every counter that reaches a task name lives
on those objects, and the simulator's virtual clock depends only on the
*relative* order of task ids within one cluster, so a trial produces
bit-identical results whether it runs in this process, in a forked
worker, or was replayed from the cache.  :func:`run_grid` exploits
that: it fans a list of :class:`TrialSpec` across worker lanes (or
runs them inline at ``jobs=1``, the library default) and merges the
payloads back in submission order, so the rows -- and the ledger
snapshots derived from them -- are byte-identical to a serial run.

A *lane* is one long-lived worker process and a duplex pipe to it: it
receives one trial, runs it, sends the result back and waits for the
next.  The lanes are warm: started lazily by the first pooled grid and
reused across ``run_grid`` calls and figures for the life of the
process (or until :func:`shutdown_pool`), so only the first pooled grid
pays process startup, and what a lane memoizes for one trial (generated
inputs, staged stores, kernel results) serves the next trial it runs.

The parent hands out trials one at a time by *cohort affinity*.  A
trial's cohort is its function plus the values of its data arguments
(:data:`COHORT_ARGS`): the trials of one cohort read the same subjects
or visits.  A free lane takes

1. the next trial of the cohort it ran last; otherwise
2. the first cohort no lane has started, in submission order; otherwise
3. the next trial of the started cohort with the most trials left,

so each cohort's inputs are built in as few lanes as the grid allows,
and a one-cohort grid still spreads over every lane.  Trials are pure,
so placement cannot change a byte.

A lane that dies under a trial (it killed its own process, the OOM
killer took it) fails that trial with :class:`TrialExecutionError`; the
other trials still merge, and the next pooled grid starts a lane in its
place.  An exception in the parent while trials are out, an interrupt
included, stops every lane before it propagates.

Workers return payloads in the cache's own form, a CRC-32 plus the
``marshal`` bytes of the JSON-normalized payload (see
``repro.harness.cache.encode_payload``), which the parent stores in the
cache verbatim and decodes once for merging; a warm replay costs one
file read and one ``marshal.loads`` per trial, a spec's key being
derived once.  Snapshots are only computed when someone will consume
them (an active :func:`collecting_snapshots` sink or an enabled cache);
the parent decides, and lanes are told in each task, so plain smoke
runs pay nothing extra.
"""

import atexit
import json
import multiprocessing
import os
import signal
import time
import traceback
from collections import deque
from contextlib import contextmanager

from repro.harness import runner
from repro.harness.cache import (
    cache_key,
    code_tree_hash,
    decode_payload,
    encode_payload,
)
from repro.obs import telemetry

#: Registered trial functions: name -> callable returning one row dict.
TRIAL_FNS = {}

#: Bumped by every registration; warm lanes forked under an older
#: version are stale (they lack the new entries) and are restarted.
_registry_version = 0

#: Sentinel distinguishing "not passed" from an explicit ``None``.
_UNSET = object()


def trial(name):
    """Decorator registering a trial function under ``name``.

    The registry is what lets a :class:`TrialSpec` cross a process
    boundary as plain data: workers look the name back up instead of
    pickling the callable.
    """
    def register(fn):
        global _registry_version
        if name in TRIAL_FNS:
            raise ValueError(f"trial {name!r} registered twice")
        TRIAL_FNS[name] = fn
        _registry_version += 1
        return fn
    return register


class TrialSpec:
    """One independent trial: a registered function plus JSON-safe args.

    A trial is a pure function of its kwargs and the code (a fault plan
    included: the trial builds it from its kwargs), so ``fn`` and
    ``kwargs`` are all the cache keys on beside the code-tree salt.
    """

    __slots__ = ("fn", "kwargs", "_salt", "_key")

    def __init__(self, fn, kwargs, engine=None):
        # ``engine`` is accepted and ignored: ``bench/workloads.py``
        # (frozen by BENCHMARK.json) still passes it; delete together
        # with that argument.
        if fn not in TRIAL_FNS:
            raise KeyError(f"unknown trial function {fn!r}")
        self.fn = fn
        self.kwargs = kwargs
        self._salt = self._key = None

    def key(self, salt=None):
        """Content address of this trial (see :mod:`repro.harness.cache`).

        Derived once per resolved salt, so ``fn`` and ``kwargs`` must
        not change after the first call; a new code-tree hash re-keys.
        """
        if salt is None:
            salt = code_tree_hash()
        if salt != self._salt:
            self._key = cache_key(self.fn, self.kwargs, salt=salt)
            self._salt = salt
        return self._key


class TrialExecutionError(RuntimeError):
    """One or more trials raised inside :func:`run_grid`.

    Carries the worker-side failures (``failures``: list of
    ``(index, spec_fn, error_dict)`` with the original traceback text)
    and the surviving payloads in submission order (``payloads``, with
    ``None`` holes at the failed indices), so callers and tests can
    verify the merge was not corrupted by the failure.
    """

    def __init__(self, failures, payloads):
        self.failures = failures
        self.payloads = payloads
        index, fn, error = failures[0]
        summary = (
            f"{len(failures)} of {len(payloads)} trials failed; first: "
            f"trial #{index} ({fn}) raised {error['type']}: "
            f"{error['message']}\n--- original traceback ---\n"
            f"{error['traceback']}"
        )
        super().__init__(summary)


# ----------------------------------------------------------------------
# Executor configuration (the CLI opts in; the library default -- one
# in-process job, no cache -- leaves test and import behavior unchanged)
# ----------------------------------------------------------------------

_config = {"jobs": 1, "cache": None}


@contextmanager
def configured(jobs=None, cache=_UNSET):
    """Set the default ``jobs``/``cache`` for :func:`run_grid` inside.

    ``jobs=None`` and ``cache=_UNSET`` leave the current setting;
    ``cache=None`` explicitly disables caching.
    """
    previous = dict(_config)
    if jobs is not None:
        _config["jobs"] = jobs
    if cache is not _UNSET:
        _config["cache"] = cache
    try:
        yield
    finally:
        _config.update(previous)


# ----------------------------------------------------------------------
# Snapshot sinks: how figure-level consumers (the ledger, blame
# printing) receive per-run snapshots without holding cluster objects
# ----------------------------------------------------------------------

_snapshot_sinks = []


class SnapshotSink:
    """Collects run snapshots from every trial executed inside."""

    def __init__(self):
        self.snapshots = []


@contextmanager
def collecting_snapshots():
    """Collect the run snapshot of every cluster each trial builds.

    Sinks nest: an inner figure-level sink (blame printing) and an
    outer ledger sink both receive every snapshot, in trial order.
    """
    sink = SnapshotSink()
    _snapshot_sinks.append(sink)
    try:
        yield sink
    finally:
        _snapshot_sinks.remove(sink)


# ----------------------------------------------------------------------
# Trial execution
# ----------------------------------------------------------------------

def _snapshot_cluster(cluster):
    """One run snapshot labeled by its dominant task group.

    The label deliberately omits any global index -- the parent adds
    the ``NN-`` prefix in merge order, so cached and freshly-computed
    snapshots relabel identically.  A trial that builds several
    clusters for one row (the optimizer's naive-vs-optimized cells)
    may pin an explicit ``cluster.run_label`` instead.
    """
    from repro.obs import run_snapshot

    snapshot = run_snapshot(cluster, label=getattr(cluster, "run_label", None))
    if snapshot["label"] is None:
        groups = snapshot["groups"]
        snapshot["label"] = groups[0]["group"] if groups else "empty"
    return snapshot


def _execute_trial(fn_name, kwargs, want_snapshots, timings=None):
    """Run one trial in the current process; returns its payload.

    ``timings``, when given, receives wall-clock seconds for the trial
    body (``worker-exec``) and the snapshot extraction
    (``snapshot-serialize``) -- the worker-side half of the harness
    self-telemetry.  Timing never touches the payload itself.
    """
    fn = TRIAL_FNS[fn_name]
    clusters = []
    start = time.perf_counter()
    with runner.observe_clusters(clusters.append):
        row = fn(**kwargs)
    exec_s = time.perf_counter() - start
    payload = {"row": row}
    snapshot_s = 0.0
    if want_snapshots:
        start = time.perf_counter()
        payload["snapshots"] = [_snapshot_cluster(c) for c in clusters]
        snapshot_s = time.perf_counter() - start
    if timings is not None:
        timings["worker-exec"] = exec_s
        timings["snapshot-serialize"] = snapshot_s
    return payload


def _worker_init():
    # Observer callbacks close over parent-process state (lists the
    # parent is collecting into); firing the forked copies would waste
    # time and never be seen.  Snapshots carry the observability data
    # back instead.  Likewise drop any recorder the fork inherited:
    # worker-side telemetry returns through the result sidecar.
    del runner._cluster_observers[:]
    telemetry.clear_recorder()


def _error_of(exc):
    """The failure record of an exception being handled."""
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": traceback.format_exc(),
    }


def _run_one(args):
    """Worker-side single trial: encoded payload + telemetry sidecar.

    Failures are captured, not raised: the grid's surviving trials
    still return, and the parent re-raises with the original traceback
    after completing the submission-order merge.
    """
    fn_name, kwargs, want_snapshots = args
    # Under the spawn start method the registry is empty until the
    # experiment definitions are imported.
    if fn_name not in TRIAL_FNS:
        import repro.harness.experiments  # noqa: F401
    timings = {}
    profile_dir = telemetry.profile_dir()
    profiler = None
    if profile_dir:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        payload = _execute_trial(
            fn_name, kwargs, want_snapshots, timings=timings
        )
        start = time.perf_counter()
        blob = encode_payload(payload)
        timings["snapshot-serialize"] = (
            timings.get("snapshot-serialize", 0.0)
            + time.perf_counter() - start
        )
        result = {"payload": blob, "telemetry": timings}
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        result = {"error": _error_of(exc), "telemetry": timings}
    finally:
        if profiler is not None:
            profiler.disable()
            os.makedirs(profile_dir, exist_ok=True)
            profiler.dump_stats(os.path.join(
                profile_dir, f"trial-{fn_name}-pid{os.getpid()}"
                f"-{time.monotonic_ns()}.prof"
            ))
    return result


def _lane_main(conn, parent_ends):
    """A lane's process: run the trials ``conn`` brings until it closes.

    ``parent_ends`` are the parent's ends of every lane's pipe, this
    one's included, as the fork copied them; closing them here is what
    lets each lane see end-of-file when the parent goes away.  The
    parent owns interrupts: it stops the lanes itself.
    """
    for end in parent_ends:
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _worker_init()
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        conn.send(_run_one(task))


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


class _Lane:
    """One worker process, the parent's end of its pipe, and the cohort
    of the last trial it was given."""

    __slots__ = ("process", "conn", "cohort")

    def __init__(self, ctx, parent_ends):
        self.conn, child_end = ctx.Pipe()
        self.process = ctx.Process(
            target=_lane_main, args=(child_end, parent_ends + [self.conn]),
            daemon=True,
        )
        self.process.start()
        child_end.close()
        self.cohort = None

    def stop(self):
        """End the process (terminated if still running) and reap it."""
        if self.process.exitcode is None:
            self.process.terminate()
        self.process.join()
        self.conn.close()


# ----------------------------------------------------------------------
# The warm lanes: started once, reused across run_grid calls and figures
# ----------------------------------------------------------------------

_pool_state = {
    "pool": None,  # the list of lanes
    "procs": 0,
    "registry_version": -1,
    "profile_dir": None,
}


def shutdown_pool():
    """Stop every lane (process exit, an interrupt, or tests needing a
    cold start).  The next pooled grid starts them again."""
    lanes = _pool_state["pool"]
    _pool_state.update(
        pool=None, procs=0, registry_version=-1, profile_dir=None
    )
    for lane in lanes or ():
        lane.stop()


atexit.register(shutdown_pool)


def _ensure_pool(n_procs):
    """The first ``n_procs`` warm lanes, restarted when too few or
    stale, and any lane that died replaced.

    Staleness: trial registrations after the fork (lanes would lack
    them) or a changed ``REPRO_PROFILE_DIR`` (forked lanes captured the
    old environment).
    """
    profile_dir = telemetry.profile_dir()
    state = _pool_state
    if (
        state["pool"] is None
        or state["procs"] < n_procs
        or state["registry_version"] != _registry_version
        or state["profile_dir"] != profile_dir
    ):
        shutdown_pool()
        state.update(pool=[], procs=n_procs,
                     registry_version=_registry_version,
                     profile_dir=profile_dir)
    lanes = state["pool"]
    for lane in [lane for lane in lanes if lane.process.exitcode is not None]:
        lane.stop()
        lanes.remove(lane)
    if len(lanes) < state["procs"]:
        ctx = _pool_context()
        with telemetry.telemetry_phase("pool-startup"):
            while len(lanes) < state["procs"]:
                lanes.append(_Lane(ctx, [lane.conn for lane in lanes]))
    return lanes[:n_procs]


#: The keyword arguments that name a trial's input data.  Trials that
#: agree on their function and on these values form one cohort: they
#: read the same subjects or visits (see the module docstring).
COHORT_ARGS = ("pipeline", "count", "profile", "profiles", "seed")


def _cohort(spec):
    """A spec's cohort as a string: its function and data arguments."""
    kwargs = spec.kwargs
    return json.dumps(
        [spec.fn] + [[name, kwargs[name]] for name in COHORT_ARGS
                     if name in kwargs],
        sort_keys=True,
    )


def _lane_died(lane, index, fn):
    """The failure record of trial ``index``, whose lane died under it:
    its pipe hit end-of-file, or refused the trial."""
    lane.process.join(1.0)
    lane.stop()
    code = lane.process.exitcode
    how = (f"was killed by signal {-code} ({signal.strsignal(-code)})"
           if code < 0 else f"exited with code {code}")
    return {
        "type": "LaneDied",
        "message": f"the worker lane (pid {lane.process.pid}) running "
                   f"trial #{index} ({fn}) {how}",
        "traceback": "(none: the worker process died)\n",
    }


def _dispatch(lanes, specs, pending, want_snapshots):
    """Run the ``pending`` trials across ``lanes`` by cohort affinity;
    returns ``{index: result}`` (see :func:`_run_one`)."""
    from multiprocessing.connection import wait

    queues = {}
    for index in pending:
        queues.setdefault(_cohort(specs[index]), deque()).append(index)
    unstarted = list(queues)
    running = {}
    results = {}

    def start(lane):
        cohort = lane.cohort
        if not queues.get(cohort):
            if unstarted:
                cohort = unstarted[0]
            else:
                cohort = max(queues, key=lambda c: len(queues[c]))
                if not queues[cohort]:
                    return
        if cohort in unstarted:
            unstarted.remove(cohort)
        lane.cohort = cohort
        index = queues[cohort].popleft()
        spec = specs[index]
        try:
            lane.conn.send((spec.fn, spec.kwargs, want_snapshots))
        except OSError:
            results[index] = {"error": _lane_died(lane, index, spec.fn)}
            return
        running[lane.conn] = (lane, index)

    for lane in lanes:
        start(lane)
    while running:
        for conn in wait(list(running)):
            lane, index = running.pop(conn)
            try:
                results[index] = conn.recv()
            except (EOFError, OSError):
                results[index] = {
                    "error": _lane_died(lane, index, specs[index].fn)
                }
            else:
                start(lane)
    for index in pending:
        if index not in results:
            results[index] = {"error": {
                "type": "LaneDied",
                "message": f"trial #{index} ({specs[index].fn}) never "
                           "ran: every worker lane of the grid died",
                "traceback": "(none: the trial never started)\n",
            }}
    return results


def run_grid(specs, jobs=None, cache=_UNSET):
    """Execute a list of :class:`TrialSpec`; returns payloads in order.

    Payloads are ``{"row": <row dict>[, "snapshots": [...]]}``.  Rows
    and snapshots are identical whether trials ran inline, across the
    warm lanes, or were replayed from the trial cache; active
    :func:`collecting_snapshots` sinks receive every snapshot in
    submission order.

    If any trial raises, or its lane dies under it, the surviving
    trials are still merged (and cached) in submission order, then
    :class:`TrialExecutionError` is raised carrying the original
    traceback(s).
    """
    specs = list(specs)
    if jobs is None:
        jobs = _config["jobs"]
    if cache is _UNSET:
        cache = _config["cache"]
    want_snapshots = bool(_snapshot_sinks) or cache is not None

    rec = telemetry.recorder()
    payloads = [None] * len(specs)
    encoded = [None] * len(specs)
    keys = [None] * len(specs)
    failures = []
    pending = []
    with telemetry.telemetry_phase("cache-lookup"):
        for index, spec in enumerate(specs):
            if cache is not None:
                keys[index] = spec.key()
                hit = cache.get(keys[index])
                if hit is not None:
                    payloads[index] = hit
                    continue
            pending.append(index)

    if jobs > 1 and len(pending) > 1:
        lanes = _ensure_pool(min(jobs, len(pending)))
        start = time.perf_counter()
        with telemetry.telemetry_phase("dispatch"):
            try:
                results = _dispatch(lanes, specs, pending, want_snapshots)
            except BaseException:
                shutdown_pool()
                raise
        dispatch_wall = time.perf_counter() - start
        busy = 0.0
        with telemetry.telemetry_phase("row-assemble"):
            for i in pending:
                wrapped = results[i]
                worker = wrapped.get("telemetry") or {}
                busy += sum(worker.values())
                for name, seconds in sorted(worker.items()):
                    rec.observe(f"worker.{name}_s", seconds)
                if "error" in wrapped:
                    failures.append((i, specs[i].fn, wrapped["error"]))
                    continue
                encoded[i] = wrapped["payload"]
                payloads[i] = decode_payload(encoded[i])
        rec.gauge("pool.utilization",
                  busy / max(len(lanes) * dispatch_wall, 1e-9))
    elif pending:
        timings = {}
        with telemetry.telemetry_phase("dispatch"):
            for i in pending:
                try:
                    payloads[i] = _execute_trial(
                        specs[i].fn, specs[i].kwargs, want_snapshots,
                        timings=timings,
                    )
                except Exception as exc:  # noqa: BLE001 - merged below
                    failures.append((i, specs[i].fn, _error_of(exc)))
                if rec.active:
                    for name, seconds in sorted(timings.items()):
                        rec.observe(f"worker.{name}_s", seconds)
                timings.clear()

    if pending and cache is not None:
        with telemetry.telemetry_phase("cache-store"):
            for i in pending:
                if payloads[i] is None:
                    continue
                cache.put(keys[i], payloads[i], encoded=encoded[i])

    with telemetry.telemetry_phase("result-merge"):
        if _snapshot_sinks:
            for payload in payloads:
                if payload is None:
                    continue
                for snapshot in payload.get("snapshots", ()):
                    for sink in _snapshot_sinks:
                        sink.snapshots.append(snapshot)

    if failures:
        raise TrialExecutionError(failures, payloads)
    return payloads


def grid_rows(specs, jobs=None, cache=_UNSET):
    """The common case: run a grid, return just the row dicts."""
    return [
        payload["row"]
        for payload in run_grid(specs, jobs=jobs, cache=cache)
    ]
