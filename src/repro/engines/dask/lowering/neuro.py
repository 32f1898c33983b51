"""The neuro plan lowered to miniDask (Section 4.4, Figure 8).

Per-subject delayed graphs with per-volume task keys: download-and-
filter, blockwise means, median-Otsu, then denoise/fit -- with the
explicit barrier after the downloads that Figure 8 shows (``numVols``
is read before the rest of the graph is built).  Subjects are
independent, so processing pipelines across subjects overlap freely --
the structural reason "Dask is at best 14% faster than the other two
systems" (Section 5.1) at scale, while its large startup dominates at
one subject.

Graph values are individual volumes and voxel blocks (Figure 8's
``partitionVoxels``), so work stealing moves volume- or block-sized
payloads, never whole subjects.

Lowering contract notes: Dask restructures the plan's ``group_by`` ops
into explicit task graphs (``mean_b0`` becomes a single ``mean_volumes``
node over the b0 volumes; ``regroup``/``fitmodel`` become per-block
``split_block``/``fit_block`` nodes) and replaces the ``mask_bcast``
broadcast with ordinary graph edges — the scheduler ships the mask to
whichever worker needs it.  Delayed-node construction order is part of
the lowering: task keys come from the client's key counter, so the
graph below is built in exactly the order the paper's Figure 8
pseudocode implies.  The step protocol (figures 11, 12a-c) builds its
windows from the same graph builders ``run()`` chains.
"""

import numpy as np

from repro.engines.base import LoweredPlan
from repro.formats.sizing import SizedArray
from repro.pipelines import common
from repro.pipelines.neuro import reference as ref
from repro.pipelines.neuro.staging import volume_keys
from repro.plan.ir import provenance_id


def _flat(vols_by_subject):
    return [v for vols in vols_by_subject.values() for v in vols]


class LoweredNeuro(LoweredPlan):
    """Executable produced by ``lower(neuro_plan(), client)``.

    Dask restructures ``group_by`` ops into explicit graph nodes, so
    provenance ids are stamped per kernel (``client.delayed(op=...)``).
    """

    def __init__(self, plan, client):
        super().__init__(plan, client)
        self.client = client
        self.bucket = plan.member_param("volumes", "bucket")
        self.n_blocks = plan.param("n_blocks")
        self.sigma = plan.param("sigma")
        self.median_radius = plan.param("median_radius")

    def _pid(self, op_id):
        return provenance_id(self.plan.name, op_id)

    # -- graph builders ------------------------------------------------

    def fetch_subject(self, subject, workers):
        """One delayed node per staged volume of ``subject``, fetching it
        from S3; one factory builds them all.

        ``workers`` pins the downloads (Section 5.2.1: "we explicitly
        specify the number of subjects to download per node" because
        the scheduler does not know download sizes up front).
        """
        client = self.client
        bucket = self.bucket
        store = client.cluster.s3
        cm = client.cost_model
        # Concurrent per-volume fetches on the pinned node share its S3
        # bandwidth (one subject's 288 volumes all land on one node).
        sharing = min(client.cluster.spec.slots_per_node, subject.n_volumes)

        def fetch(key):
            return store.get(bucket, key)

        def fetch_cost(key):
            nbytes = store.size_of(bucket, key)
            return client.cluster.network.s3_download_time(
                nbytes, n_objects=1
            ) * sharing + cm.unpickle_time(nbytes)

        factory = client.delayed(
            fetch, cost=fetch_cost, workers=workers, op=self._pid("volumes")
        )
        keys = volume_keys(subject.subject_id, subject.n_volumes)
        return [factory(key) for key in keys]

    def download_all(self, subjects):
        """Figure 8's ``downloadAndFilter`` for every subject: per-volume
        :class:`Delayed` values by subject id, each subject's downloads
        pinned round-robin over the nodes (the paper's manual placement;
        it fit at most 3 subjects per node).  Computing them is the
        barrier Figure 8 inserts before graph construction continues.
        """
        nodes = self.client.cluster.node_order
        return {
            subject.subject_id: self.fetch_subject(
                subject, workers=nodes[position % len(nodes)]
            )
            for position, subject in enumerate(subjects)
        }

    def select_b0_graph(self, subject, vols_delayed):
        """The ``b0`` filter as one node (``run()`` needs none: there the
        selection is graph wiring inside :meth:`mask_graph`)."""
        cm = self.client.cost_model

        def select(*volumes):
            return list(volumes)

        def select_cost(*volumes):
            total = sum(v.nominal_bytes for v in volumes)
            return total * cm.memcpy_per_byte

        b0_vols = [vols_delayed[i] for i in np.nonzero(subject.gtab.b0s_mask)[0]]
        return self.client.delayed(
            select, cost=select_cost, op=self._pid("b0")
        )(*b0_vols)

    def mask_graph(self, subject, vols_delayed):
        """Step 1-N as a delayed graph (Figure 8 lines 7-11)."""
        client = self.client
        cm = client.cost_model
        median_radius = self.median_radius
        b0_indices = np.nonzero(subject.gtab.b0s_mask)[0]
        b0_vols = [vols_delayed[i] for i in b0_indices]

        def mean_volumes(*volumes):
            return SizedArray(
                ref.mean_volume([v.array for v in volumes]),
                nominal_shape=volumes[0].nominal_shape,
                meta=volumes[0].meta,
            )

        def mean_cost(*volumes):
            return common.mean_time(cm, sum(v.nominal_elements for v in volumes))

        mean = client.delayed(
            mean_volumes, cost=mean_cost, op=self._pid("mean_b0")
        )(*b0_vols)

        def to_mask(mean_volume):
            return ref.mask_of_mean(mean_volume.array, median_radius)

        return client.delayed(
            to_mask, cost=common.otsu_cost(cm), op=self._pid("otsu")
        )(mean)

    def denoise_graph(self, subject, vols_delayed, mask_delayed):
        """Step 2-N: one masked non-local-means node per volume."""
        cm = self.client.cost_model
        sigma = self.sigma

        def denoise_one(volume, mask):
            return volume.with_array(ref.denoise_volume(volume.array, mask, sigma))

        def denoise_cost(volume, mask):
            return common.denoise_time(
                cm, volume.nominal_elements, common.masked_fraction(mask))

        return [
            self.client.delayed(
                denoise_one, cost=denoise_cost, op=self._pid("denoise")
            )(vol, mask_delayed)
            for vol in vols_delayed
        ]

    def fit_graph(self, subject, denoised, mask_delayed):
        """Step 3-N over one subject's denoised volumes."""
        client = self.client
        cm = client.cost_model
        gtab = subject.gtab
        n_blocks = self.n_blocks

        # Figure 8's partitionVoxels: per-volume voxel blocks are
        # separate graph values, so model fitting only moves block-sized
        # pieces between workers, not whole volumes.
        def split_block(volume, block_index):
            return common.volume_block(volume, n_blocks, block_index)

        def split_block_cost(volume, block_index):
            return (volume.nominal_bytes / n_blocks) * cm.memcpy_per_byte

        pieces = [
            [
                client.delayed(
                    split_block, cost=split_block_cost, op=self._pid("repart")
                )(vol, block_index)
                for vol in denoised
            ]
            for block_index in range(n_blocks)
        ]

        def fit_block(mask, block_index, *blocks):
            stacked = ref.stack_images(enumerate(b.array for b in blocks))
            fa = ref.fit_block(stacked, gtab, mask, n_blocks, block_index)
            return SizedArray(fa, nominal_shape=blocks[0].nominal_shape)

        def fit_block_cost(mask, block_index, *blocks):
            return common.fit_time(cm, sum(b.nominal_elements for b in blocks),
                                   common.masked_fraction(mask))

        fa_blocks = [
            client.delayed(
                fit_block, cost=fit_block_cost, op=self._pid("fitmodel")
            )(mask_delayed, block_index, *pieces[block_index])
            for block_index in range(n_blocks)
        ]

        def reassemble(*blocks):
            return common.reassemble_blocks(dict(enumerate(blocks)))

        def reassemble_cost(*blocks):
            return sum(b.nominal_bytes for b in blocks) * cm.memcpy_per_byte

        return client.delayed(
            reassemble, cost=reassemble_cost, op=self._pid("fa")
        )(*fa_blocks)

    # -- end to end ----------------------------------------------------

    def analyze(self, subjects, vols):
        """Everything after Figure 8's download barrier, evaluated in
        one barrier so subjects overlap; returns ``(masks, fa)``."""
        masks_delayed = {
            s.subject_id: self.mask_graph(s, vols[s.subject_id])
            for s in subjects
        }
        fa_delayed = {
            s.subject_id: self.fit_graph(
                s,
                self.denoise_graph(
                    s, vols[s.subject_id], masks_delayed[s.subject_id]
                ),
                masks_delayed[s.subject_id],
            )
            for s in subjects
        }
        keys = [s.subject_id for s in subjects]
        results = self.client.compute(
            [masks_delayed[k] for k in keys] + [fa_delayed[k] for k in keys]
        )
        masks = dict(zip(keys, results[: len(keys)]))
        fa = dict(zip(keys, results[len(keys):]))
        return masks, fa

    def run(self, subjects):
        """End-to-end neuroscience pipeline on Dask.

        Returns ``(masks, fa_by_subject)``.
        """
        vols = self.download_all(subjects)
        # Figure 8's barrier: materialize the downloads (``numVols`` is
        # read here) before the rest of the graph is built.
        self.client.compute(_flat(vols))
        return self.analyze(subjects, vols)

    # -- step protocol -------------------------------------------------

    def _prepare_volumes(self, subjects):
        self.client.ensure_started()
        self._subjects = subjects

    def _step_volumes(self):
        self.client.compute(_flat(self.download_all(self._subjects)))

    def _prepare_b0(self, subjects):
        self._subjects = subjects
        self._vols = self.download_all(subjects)
        self.client.compute(_flat(self._vols))

    _prepare_mean_b0 = _prepare_b0

    def _prepare_denoise(self, subjects):
        self._subjects = subjects
        self._vols = self.download_all(subjects)
        self._masks = {
            s.subject_id: self.mask_graph(s, self._vols[s.subject_id])
            for s in subjects
        }
        self.client.compute(_flat(self._vols) + list(self._masks.values()))

    def _step_b0(self):
        self.client.compute([
            self.select_b0_graph(s, self._vols[s.subject_id])
            for s in self._subjects
        ])

    def _step_mean_b0(self):
        # Figure 8 builds the mean and the mask as one chain with no
        # barrier between them, and fig 12b has always timed that chain:
        # the Otsu node rides in this window (EXPERIMENTS.md, fig 12b).
        self.client.compute([
            self.mask_graph(s, self._vols[s.subject_id])
            for s in self._subjects
        ])

    def _step_denoise(self):
        self.client.compute([
            node
            for s in self._subjects
            for node in self.denoise_graph(
                s, self._vols[s.subject_id], self._masks[s.subject_id]
            )
        ])
