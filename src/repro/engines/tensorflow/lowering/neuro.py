"""The neuro plan lowered (partially) to miniTensorFlow (Section 4.5,
Figure 9).

The paper's TensorFlow implementation required a full rewrite with
several compromises, all reproduced here:

- Data distribution is manual: "The developer must manually map
  computation and data to each worker" -- the ``steps`` batching of
  Figure 9.
- Filtering volumes (4th axis) needs transpose/reshape gymnastics
  because gather works only on the first axis: "TensorFlow is orders of
  magnitude slower than the other engines on this operation"
  (Figure 12a).
- The mean runs per-worker over batches with a global barrier per step.
- Denoising is rewritten as convolutions, *without* the mask:
  "we could not use the mask to reduce the computation ... as
  TensorFlow's operations can only be applied to whole tensors"
  (Figure 12c).
- Mask generation is "a somewhat simplified version" (a plain
  threshold instead of median-Otsu).
- Model fitting was not implemented (Table 1: NA).

Lowering contract notes: this backend substitutes kernels the plan
permits substituting (unmasked conv denoise for ``denoise``, plain Otsu
threshold for ``otsu``'s median-Otsu), replaces the plan's shuffling
group_bys with whole-dataset broadcast + per-step device placement, and
refuses ``fitmodel``.  The astro plan has no TF lowering at all.

Each step passes its op's provenance id to ``session.run`` (``op=``),
which charges every task and master conversion of the run to it.  The
step protocol (figures 11, 12a-c) loops the same per-subject steps
``run()`` chains; only the measured ingest is its own kernel, because
every other TF run re-ingests through the master as part of
``session.run``.
"""

import numpy as np

from repro.algorithms.otsu import otsu_threshold
from repro.engines.base import LoweredPlan
from repro.engines.tensorflow import Graph
from repro.engines.tensorflow.placement import round_robin_steps
from repro.formats.sizing import SizedArray


def make_steps(cluster, n_items):
    """The Figure 9 ``steps`` table: batches of items mapped round-robin
    to worker devices."""
    return round_robin_steps(cluster.node_order, n_items)


def fit_step(*_args, **_kwargs):
    """Step 3-N was not implemented in TensorFlow (Table 1: NA)."""
    raise NotImplementedError(
        "model fitting was not implemented in TensorFlow (Section 4.5)"
    )


def _gaussian_kernel_3d(radius, sigma):
    ax = np.arange(-radius, radius + 1, dtype=np.float64)
    zz, yy, xx = np.meshgrid(ax, ax, ax, indexing="ij")
    kernel = np.exp(-(zz ** 2 + yy ** 2 + xx ** 2) / (2 * sigma ** 2))
    return kernel / kernel.sum()


class LoweredNeuro(LoweredPlan):
    """Executable produced by ``lower(neuro_plan(), session)``."""

    fit_step = staticmethod(fit_step)

    def __init__(self, plan, session):
        super().__init__(plan, session)
        self.session = session

    def ingest_step(self, subjects):
        """Figure 11: all ingest goes through the master, then
        partitions are sent to each node in a pipelined fashion
        (Section 5.2.1)."""
        cluster = self.session.cluster
        cm = cluster.cost_model
        op = self.plan.provenance("volumes")
        total = sum(s.nominal_bytes for s in subjects)
        cluster.charge_master(
            cm.s3_read_time(total, n_objects=len(subjects))
            + total / cm.nifti_parse_bandwidth
            + cm.tensor_convert_time(total),
            label="TF master ingest",
            op=op,
        )
        # Pipelined scatter: the master sends node-shares sequentially,
        # overlapping with the next read; charge the serial send.
        share = total / cluster.spec.n_nodes
        for node in cluster.node_order:
            cluster.charge_master(
                cluster.network.transfer_time(share, cluster.master, node),
                label="TF scatter",
                op=op,
            )

    def filter_step(self, subject):
        """Select b0 volumes: transpose volume axis first, gather,
        reshape.

        The transpose and reshape move the whole 4-D tensor twice -- the
        Figure 12a penalty.
        """
        session = self.session
        graph = Graph()
        data = subject.data
        nominal = data.nominal_shape
        with graph.device(session.cluster.master):
            ph = graph.placeholder(nominal)
            # (x, y, z, vol) -> (vol, x, y, z): volume axis first.
            perm = (3, 0, 1, 2)
            transposed = graph.transpose(ph, perm)
            real_indices = np.nonzero(subject.gtab.b0s_mask)[0]
            nominal_indices = list(range(18))
            gathered = graph.gather(transposed, real_indices, nominal_indices)
            # Back to (x, y, z, vol) layout.
            back = graph.transpose(gathered, (1, 2, 3, 0))
        op = self.plan.provenance("b0")
        out = session.run(graph, [back], feed_dict={ph: data}, op=op)[0]
        return SizedArray(out.array, nominal_shape=out.nominal_shape, meta=data.meta)

    def mean_step(self, filtered):
        """Figure 9's distributed mean: partitions of the filtered data
        are assigned to devices in predefined steps, with a barrier per
        step."""
        session = self.session
        cluster = session.cluster
        array = filtered.array
        n_parts = max(1, cluster.spec.n_nodes * 2)
        parts = np.array_split(array, n_parts, axis=0)
        nominal_x = filtered.nominal_shape[0]
        part_nominal = [
            (max(1, p.shape[0] * nominal_x // max(1, array.shape[0])),)
            + tuple(filtered.nominal_shape[1:])
            for p in parts
        ]

        steps = make_steps(cluster, n_parts)
        partial = [None] * n_parts
        op = self.plan.provenance("mean_b0")
        for step in steps:
            graph = Graph()
            placeholders = []
            works = []
            for index, device in step:
                with graph.device(device):
                    ph = graph.placeholder(part_nominal[index])
                    placeholders.append((index, ph))
                    works.append(graph.reduce_mean(ph, axis=3))
            feed = {
                ph: SizedArray(parts[index], nominal_shape=part_nominal[index])
                for index, ph in placeholders
            }
            outs = session.run(graph, works, feed_dict=feed, op=op)
            for (index, _ph), out in zip(step, outs):
                partial[index] = out.array
        mean = np.concatenate(partial, axis=0)
        return SizedArray(mean, nominal_shape=filtered.nominal_shape[:3])

    def mask_step(self, mean_volume):
        """Simplified mask: plain Otsu threshold, no median filtering
        ("a somewhat simplified version of the final mask generation")."""
        threshold = otsu_threshold(mean_volume.array)
        return mean_volume.array > threshold

    def denoise_step(self, subject):
        """Denoise rewritten as 3-d convolutions over whole (unmasked)
        volumes, one volume per device per step (memory-bound placement:
        "the assignment of one image volume per physical machine")."""
        session = self.session
        cluster = session.cluster
        data = subject.data
        n = data.array.shape[-1]
        kernel = _gaussian_kernel_3d(radius=1, sigma=1.0)
        out = np.empty_like(data.array, dtype=np.float64)

        steps = make_steps(cluster, n)
        vol_nominal = data.nominal_shape[:3]
        op = self.plan.provenance("denoise")
        for step in steps:
            graph = Graph()
            feeds = {}
            works = []
            for index, device in step:
                with graph.device(device):
                    ph = graph.placeholder(vol_nominal)
                    feeds[ph] = SizedArray(
                        data.array[..., index].astype(np.float64),
                        nominal_shape=vol_nominal,
                    )
                    works.append(graph.conv3d(ph, kernel))
            results = session.run(graph, works, feed_dict=feeds, op=op)
            for (index, _device), tensor in zip(step, results):
                out[..., index] = tensor.array
        return SizedArray(out, nominal_shape=data.nominal_shape, meta=data.meta)

    def run(self, subject):
        """The TensorFlow-expressible part: segmentation + denoise.

        Returns ``(mask, denoised)``; model fitting raises
        ``NotImplementedError`` (Table 1: NA).
        """
        mask = self.mask_step(self.mean_step(self.filter_step(subject)))
        denoised = self.denoise_step(subject)
        return mask, denoised

    # -- step protocol -------------------------------------------------

    def _prepare_volumes(self, subjects):
        self.session.ensure_started()
        self._subjects = subjects

    def _step_volumes(self):
        self.ingest_step(self._subjects)

    def _prepare_b0(self, subjects):
        # Nothing to materialize: tensors live on the master and every
        # session.run feeds them again, so the b0 and denoise steps
        # start cold and pay the session startup inside their window.
        self._subjects = subjects

    _prepare_denoise = _prepare_b0

    def _prepare_mean_b0(self, subjects):
        self._filtered = [self.filter_step(s) for s in subjects]

    def _step_b0(self):
        for subject in self._subjects:
            self.filter_step(subject)

    def _step_mean_b0(self):
        for filtered in self._filtered:
            self.mean_step(filtered)

    def _step_denoise(self):
        for subject in self._subjects:
            self.denoise_step(subject)
