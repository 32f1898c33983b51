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

    def run(self, graph, fetches, feed_dict=None):
        """Execute ``graph`` for ``fetches``; returns their Tensors.

        ``feed_dict`` maps placeholder nodes to arrays/SizedArrays.
        """
        self.ensure_started()
        step = self._run_count
        self._run_count += 1
        with self.cluster.obs.span(
            f"tf-run-{step}", category="tensorflow", fetches=len(fetches),
        ):
            return self._run(graph, fetches, feed_dict)

    def _run(self, graph, fetches, feed_dict):
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
                )

        self.cluster.charge_master(
            cm.tf_step_overhead, label="TF step dispatch",
            category="tf-dispatch",
        )

        tasks = {}
        for node in needed:
            tasks[node.node_id] = self._make_task(node, tasks, feed_dict, master)
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
                )
            self.cluster.charge_master(
                cm.tensor_convert_time(tensor.nominal_bytes),
                label="tensor convert (fetch)",
                category="tf-convert",
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

    def _make_task(self, node, tasks, feed_dict, master):
        cm = self.cost_model
        device = node.device or master

        if node.op == "placeholder":
            tensor = feed_dict[node]
            # The master ships the feed to the placeholder's device.
            transfer = self.cluster.network.transfer_time(
                tensor.nominal_bytes, master, device
            ) if device != master else 0.0
            return Task(
                f"tf-feed-{node.name}",
                fn=lambda tensor=tensor: tensor,
                duration=transfer,
                node=device,
                category="tf-broadcast",
            )
        if node.op == "constant":
            return Task(
                f"tf-const-{node.name}",
                fn=lambda value=node.attrs["value"]: value,
                duration=0.0,
                node=device,
                category="tf-const",
            )

        evaluate, cost = OPS[node.op]
        parent_tasks = [tasks[p.node_id] for p in node.inputs]

        def run(*inputs):
            value = evaluate(cm, list(inputs), **node.attrs)
            task.output_bytes = value.nominal_bytes
            return value

        def duration(*inputs):
            return cost(cm, list(inputs), **node.attrs)

        task = Task(
            f"tf-{node.name}",
            fn=run,
            args=tuple(parent_tasks),
            duration=duration,
            node=device,
            category=f"tf-{node.op}",
        )
        return task
