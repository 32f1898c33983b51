"""The miniDask client and its dynamic scheduler.

Scheduling model (calibrated to Sections 4.4, 5.1 and 5.2.1):

- One-time job startup, the largest of the five systems, charged at the
  first barrier ("Dask's efficiency increase is most pronounced,
  indicating that the tool has the largest start-up overhead").
- Centralized dispatch: the scheduler releases tasks serially at
  ``dask_task_overhead`` intervals; with tens of thousands of tasks on
  large clusters this caps scaling (Figure 10g).
- Locality: a task prefers the node holding most of its input bytes
  ("the Dask scheduler did well in distributing tasks across machines
  based on estimating data transfer and computation costs").
- Aggressive work stealing: when the preferred node's queue runs ahead
  of the cluster average, the task is stolen by the least-loaded node,
  paying a steal overhead plus the input transfer (charged through the
  executor's ``output_bytes`` locality accounting).
- No persistence: results stay resident on the computing node, counted
  against worker memory, until the node crashes.
"""

import itertools

from repro.cluster.faults import dask_recovery
from repro.cluster.task import Task
from repro.engines.base import Engine, nominal_bytes_of
from repro.engines.dask.delayed import Delayed, DelayedFactory

#: Queue-depth slack before the scheduler steals a task elsewhere.
STEAL_SLACK = 2


def _least_loaded(queue_depth):
    """The node with the shallowest queue, the first by name on ties."""
    return min(sorted(queue_depth), key=lambda n: queue_depth[n])


class DaskClient(Engine):
    """Entry point: build delayed graphs, compute them at barriers."""

    name = "Dask"

    def __init__(self, cluster):
        super().__init__(cluster)
        #: Numbers the delayed keys (and so the task names) this client
        #: hands out; per client, so names depend on the trial alone.
        self.key_counter = itertools.count()
        self._results = {}          # Delayed.key -> value
        self._result_bytes = {}     # Delayed.key -> nominal bytes of value
        self._result_nodes = {}     # Delayed.key -> node name
        self._result_allocs = {}    # Delayed.key -> (node, alloc_id)
        self._result_epochs = {}    # Delayed.key -> (node, crash_count)
        self._dispatch_count = 0
        self._barrier_count = 0
        self.steal_count = 0
        self.lost_futures = 0
        # Lost futures reschedule onto survivors; no persistence layer
        # means recompute from the S3 inputs (Section 2).
        cluster.install_recovery(dask_recovery())

    def startup_cost(self):
        """One-time engine startup in simulated seconds."""
        return self.cost_model.dask_job_startup

    def delayed(self, fn, op, cost=None, workers=None):
        """Wrap ``fn`` for graph construction (Figure 8's ``delayed``).

        ``op`` is the provenance id of the logical op this function
        implements (``@overhead`` for user code with no plan); every
        task built from the factory carries it for per-op blame
        attribution.  ``workers`` pins execution to one node name -- the
        manual data-placement control the paper needed for ingest ("we
        explicitly specify the number of subjects to download per
        node", Section 5.2.1).
        """
        return DelayedFactory(self, fn, op, cost=cost, workers=workers)

    def _keep(self, key, value, nbytes, node_name):
        """A result stays resident on the node that holds it, counted
        against its memory, until released or lost with the node."""
        node = self.cluster.node(node_name)
        self._results[key] = value
        self._result_bytes[key] = nbytes
        self._result_nodes[key] = node_name
        self._result_epochs[key] = (node_name, node.crash_count)
        if nbytes > 0:
            self._result_allocs[key] = (
                node, node.memory.allocate(nbytes, key)
            )

    def _drop(self, key):
        """Forget a result and free the memory it held."""
        alloc = self._result_allocs.pop(key, None)
        if alloc is not None:
            node, alloc_id = alloc
            node.memory.free(alloc_id)
        for table in (self._results, self._result_bytes,
                      self._result_nodes, self._result_epochs):
            table.pop(key, None)

    # ------------------------------------------------------------------
    # Barrier execution
    # ------------------------------------------------------------------

    def compute(self, delayeds):
        """Evaluate delayed nodes; returns their values (a barrier)."""
        self.ensure_started()
        graph = self._collect(delayeds)
        self._purge_lost(graph)
        pending = [d for d in graph if d.key not in self._results]
        if pending:
            barrier = self._barrier_count
            self._barrier_count += 1
            with self.cluster.obs.span(
                f"dask-compute-{barrier}", category="dask",
                tasks=len(pending),
            ):
                self._schedule(pending)
        return [self._results[d.key] for d in delayeds]

    # ------------------------------------------------------------------
    # Scheduler internals
    # ------------------------------------------------------------------

    def _purge_lost(self, graph):
        """Drop results whose holding node crashed since they computed.

        With no persistence layer a crashed worker takes its resident
        futures with it; the scheduler transparently recomputes them on
        the surviving nodes at the next barrier.
        """
        for delayed_node in graph:
            key = delayed_node.key
            epoch = self._result_epochs.get(key)
            if epoch is None or key not in self._results:
                continue
            node_name, crash_count = epoch
            node = self.cluster.nodes.get(node_name)
            if node is not None and node.crash_count == crash_count:
                continue
            self._drop(key)
            self.lost_futures += 1

    def _collect(self, delayeds):
        """Topological order over the needed subgraph."""
        order = []
        seen = set()

        def visit(node):
            if node.key in seen:
                return
            seen.add(node.key)
            for dep in node.dependencies():
                visit(dep)
            order.append(node)

        for delayed_node in delayeds:
            visit(delayed_node)
        return order

    def _schedule(self, pending):
        cm = self.cost_model
        queue_depth = {
            name: 0 for name in self.cluster.node_order
            if self.cluster.node(name).alive
        }
        cluster_tasks = {}
        dispatch_interval = cm.dask_task_overhead
        base_time = self.cluster.now

        for delayed_node in pending:
            placement, stolen = self._place(delayed_node, queue_depth, cluster_tasks)
            queue_depth[placement] += 1
            task = self._make_task(
                delayed_node, placement, cluster_tasks, stolen=stolen,
                not_before=base_time + self._dispatch_count * dispatch_interval,
            )
            self._dispatch_count += 1
            cluster_tasks[delayed_node.key] = task

        results = self.cluster.run(list(cluster_tasks.values()))
        for delayed_node in pending:
            task = cluster_tasks[delayed_node.key]
            result = results[task.task_id]
            # Sized once, by the task body that made the value.
            self._keep(delayed_node.key, result.value, task.output_bytes,
                       result.node)

    def _place(self, delayed_node, queue_depth, cluster_tasks):
        """Locality-preferred placement with deterministic stealing.

        Returns ``(node_name, stolen)``.  A ``workers`` pin is kept
        while its node is up; a pin to a crashed node goes, like a
        byte-preferred node that is down, to the least-loaded survivor.
        """
        if delayed_node.workers is not None:
            if delayed_node.workers in queue_depth:
                return delayed_node.workers, False
            return _least_loaded(queue_depth), False

        # Prefer the node expected to hold the most input bytes: known
        # exactly for results of earlier barriers, and approximated by
        # planned placement for tasks in this batch.
        bytes_by_node = {}
        for dep in delayed_node.dependencies():
            node = self._result_nodes.get(dep.key)
            weight = 1
            if node is not None:
                if self._results.get(dep.key) is not None:
                    weight = max(1, self._result_bytes[dep.key])
            elif dep.key in cluster_tasks:
                node = cluster_tasks[dep.key].node
            if node is not None:
                bytes_by_node[node] = bytes_by_node.get(node, 0) + weight
        if bytes_by_node:
            preferred = max(sorted(bytes_by_node), key=lambda n: bytes_by_node[n])
            if preferred not in queue_depth:
                # The byte-preferred node is down; fall back to the
                # least-loaded survivor.
                preferred = _least_loaded(queue_depth)
        else:
            preferred = _least_loaded(queue_depth)

        mean_depth = sum(queue_depth.values()) / len(queue_depth)
        if queue_depth[preferred] > mean_depth + STEAL_SLACK:
            thief = _least_loaded(queue_depth)
            if thief != preferred:
                self.steal_count += 1
                return thief, True
        return preferred, False

    def _make_task(self, delayed_node, placement, cluster_tasks, stolen,
                   not_before):
        """Build the cluster task; Delayed args resolve through Task args."""
        fn = delayed_node.fn

        def to_task_arg(arg):
            if isinstance(arg, Delayed):
                if arg.key in cluster_tasks:
                    return cluster_tasks[arg.key]  # resolved by executor
                return self._results[arg.key]      # from an earlier barrier
            return arg

        task_args = [to_task_arg(a) for a in delayed_node.args]
        task_kwargs = {k: to_task_arg(v) for k, v in delayed_node.kwargs.items()}

        def run(*args, **kwargs):
            value = fn(*args, **kwargs)
            task.output_bytes = nominal_bytes_of(value)
            return value

        if stolen:
            steal_overhead = self.cost_model.dask_steal_overhead

            def duration(*args, **kwargs):
                return fn.cost(*args, **kwargs) + steal_overhead
        else:
            duration = fn.cost

        fn_name = getattr(fn, "name", None)
        task = Task(
            f"dask-{delayed_node.key}",
            fn=run,
            args=task_args,
            kwargs=task_kwargs,
            duration=duration,
            node=placement,
            not_before=not_before,
            category=f"dask-{fn_name}"
            if fn_name and fn_name != "<lambda>" else "dask-task",
            op=delayed_node.op,
        )
        return task
