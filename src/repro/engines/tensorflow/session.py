"""Graph execution with master-mediated data movement.

"In TensorFlow, the master node handles data distribution: it converts
the input data to tensors, and distributes it to the worker nodes. ...
all data ingest goes through the master and results are always returned
to the master." (Sections 2 and 4.5.)  Every ``run`` is a global
barrier: feeds convert serially on the master, ops execute on their
pinned devices, fetches convert back on the master.
"""

from repro.cluster.faults import abort_recovery
from repro.cluster.task import Task
from repro.engines.base import Engine
from repro.engines.tensorflow.ops import OPS, OpError
from repro.engines.tensorflow.tensor import Tensor


class Session(Engine):
    """Executes graphs on the simulated cluster."""

    name = "TensorFlow"

    def __init__(self, cluster):
        super().__init__(cluster)
        self._run_count = 0
        # No checkpointing in the paper's usage: a worker crash loses
        # in-memory tensors and the whole job restarts from scratch.
        cluster.install_recovery(abort_recovery("tf-rerun"))

    def startup_cost(self):
        """One-time engine startup in simulated seconds."""
        return self.cost_model.tf_session_startup

    def run(self, graph, fetches, feed_dict=None, *, op):
        """Execute ``graph`` for ``fetches``; returns their Tensors.

        ``feed_dict`` maps placeholder nodes to arrays/SizedArrays.
        Every task and master charge of the run is attributed to ``op``.
        """
        self.ensure_started()
        step = self._run_count
        self._run_count += 1
        with self.cluster.obs.span(
            f"tf-run-{step}", category="tensorflow", fetches=len(fetches),
        ):
            return self._run(graph, fetches, feed_dict, op)

    def _run(self, graph, fetches, feed_dict, op):
        graph.check_size()
        feed_dict = {k: Tensor.wrap(v) for k, v in (feed_dict or {}).items()}
        cm = self.cost_model
        master = self.cluster.master

        needed = self._topological(fetches)
        for node in needed:
            if node.op == "placeholder" and node not in feed_dict:
                raise OpError(f"placeholder {node.name} was not fed")

        # Feeds convert to tensors serially on the master before
        # distribution (the TF ingest bottleneck of Figure 11).
        for node in needed:
            if node.op == "placeholder":
                tensor = feed_dict[node]
                self.cluster.charge_master(
                    cm.tensor_convert_time(tensor.nominal_bytes),
                    label="tensor convert (feed)",
                    category="tf-convert",
                    op=op,
                )

        self.cluster.charge_master(
            cm.tf_step_overhead, label="TF step dispatch",
            category="tf-dispatch", op=op,
        )

        tasks = {}
        for node in needed:
            tasks[node.node_id] = self._make_task(
                node, tasks, feed_dict, master, op
            )
        results = self.cluster.run(list(tasks.values()))

        out = []
        for fetch in fetches:
            result = results[tasks[fetch.node_id].task_id]
            tensor = result.value
            # Results return to the master and convert back to NumPy.
            if result.node != master:
                self.cluster.charge_master(
                    self.cluster.network.transfer_time(
                        tensor.nominal_bytes, result.node, master
                    ),
                    label="fetch to master",
                    category="tf-fetch",
                    op=op,
                )
            self.cluster.charge_master(
                cm.tensor_convert_time(tensor.nominal_bytes),
                label="tensor convert (fetch)",
                category="tf-convert",
                op=op,
            )
            out.append(tensor)
        return out

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _topological(self, fetches):
        order = []
        seen = set()

        def visit(node):
            if node.node_id in seen:
                return
            seen.add(node.node_id)
            for parent in node.inputs:
                visit(parent)
            order.append(node)

        for fetch in fetches:
            visit(fetch)
        return order

    def _make_task(self, node, tasks, feed_dict, master, op):
        """The one place a run builds a task: a feed, a constant or an op
        of the graph, pinned to its device."""
        device = node.device or master
        if node.op in ("placeholder", "constant"):
            if node.op == "placeholder":
                value = feed_dict[node]
                name, category = f"tf-feed-{node.name}", "tf-broadcast"
                # The master ships the feed to the placeholder's device.
                duration = self.cluster.network.transfer_time(
                    value.nominal_bytes, master, device
                ) if device != master else 0.0
            else:
                value = node.attrs["value"]
                name, category = f"tf-const-{node.name}", "tf-const"
                duration = 0.0

            def run():
                return value
        else:
            cm = self.cost_model
            evaluate, cost = OPS[node.op]
            name, category = f"tf-{node.name}", f"tf-{node.op}"

            def run(*inputs):
                value = evaluate(cm, list(inputs), **node.attrs)
                task.output_bytes = value.nominal_bytes
                return value

            def duration(*inputs):
                return cost(cm, list(inputs), **node.attrs)

        task = Task(
            name,
            fn=run,
            args=tuple(tasks[p.node_id] for p in node.inputs),
            duration=duration,
            node=device,
            category=category,
            op=op,
        )
        return task
