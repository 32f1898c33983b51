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
pseudocode implies.
"""

import numpy as np

from repro.algorithms.dtm import fit_dtm, fractional_anisotropy
from repro.algorithms.nlmeans import nlmeans_3d
from repro.algorithms.otsu import median_otsu
from repro.formats.sizing import SizedArray
from repro.pipelines import common
from repro.pipelines.neuro.reference import DENOISE_SIGMA, MASK_MEDIAN_RADIUS
from repro.pipelines.neuro.staging import DEFAULT_BUCKET, volume_key
from repro.plan.ir import provenance_id
from repro.plan.neuro import DEFAULT_BLOCKS


def _pid(op_id):
    """Provenance id of a neuro-plan op (Dask restructures ``group_by``
    ops into explicit graph nodes, so ids are stamped per kernel)."""
    return provenance_id("neuro", op_id)


def fetch_volume(client, subject, index, bucket=DEFAULT_BUCKET, workers=None):
    """One delayed node fetching one staged volume from S3.

    ``workers`` pins the download (Section 5.2.1: "we explicitly
    specify the number of subjects to download per node" because the
    scheduler does not know download sizes up front).
    """
    store = client.cluster.object_store
    cm = client.cost_model
    key = volume_key(subject.subject_id, index)
    nbytes = store.size_of(bucket, key)

    def fetch(subject_id, image_id):
        return store.get(bucket, key)

    def fetch_cost(subject_id, image_id):
        # Concurrent per-volume fetches on the pinned node share its S3
        # bandwidth (one subject's 288 volumes all land on one node).
        sharing = min(
            client.cluster.spec.slots_per_node, subject.n_volumes
        )
        return client.cluster.network.s3_download_time(
            nbytes, n_objects=1
        ) * sharing + cm.unpickle_time(nbytes)

    return client.delayed(
        fetch, cost=fetch_cost, workers=workers, op=_pid("volumes")
    )(subject.subject_id, index)


def download_and_filter(client, subject, bucket=DEFAULT_BUCKET, workers=None):
    """Figure 8's ``downloadAndFilter``: all of one subject's volumes.

    Returns the list of per-volume :class:`Delayed` values; computing
    them is the barrier Figure 8 inserts before graph construction
    continues.
    """
    return [
        fetch_volume(client, subject, index, bucket=bucket, workers=workers)
        for index in range(subject.n_volumes)
    ]


def build_mask_graph(client, subject, vols_delayed):
    """Step 1-N as a delayed graph (Figure 8 lines 7-11)."""
    cm = client.cost_model
    b0_indices = np.nonzero(subject.gtab.b0s_mask)[0]
    b0_vols = [vols_delayed[i] for i in b0_indices]

    def mean_volumes(*volumes):
        stack = np.stack([v.array for v in volumes], axis=-1)
        return SizedArray(
            stack.mean(axis=-1),
            nominal_shape=volumes[0].nominal_shape,
            meta=volumes[0].meta,
        )

    def mean_cost(*volumes):
        total = sum(v.nominal_elements for v in volumes)
        return total * cm.elementwise_per_element

    mean = client.delayed(mean_volumes, cost=mean_cost, op=_pid("mean_b0"))(
        *b0_vols
    )

    def to_mask(mean_volume):
        _masked, mask = median_otsu(
            mean_volume.array, median_radius=MASK_MEDIAN_RADIUS
        )
        return mask

    return client.delayed(to_mask, cost=common.otsu_cost(cm), op=_pid("otsu"))(
        mean
    )


def build_fit_graph(client, subject, vols_delayed, mask_delayed,
                    n_blocks=DEFAULT_BLOCKS):
    """Steps 2-N and 3-N as one per-subject delayed chain."""
    cm = client.cost_model
    gtab = subject.gtab

    def denoise_one(volume, mask):
        out = nlmeans_3d(volume.array, sigma=DENOISE_SIGMA, mask=mask)
        return volume.with_array(out)

    def denoise_cost(volume, mask):
        fraction = common.masked_fraction(mask)
        return volume.nominal_elements * fraction * cm.nlmeans_per_voxel

    denoised = [
        client.delayed(denoise_one, cost=denoise_cost, op=_pid("denoise"))(
            vol, mask_delayed
        )
        for vol in vols_delayed
    ]

    # Figure 8's partitionVoxels: per-volume voxel blocks are separate
    # graph values, so model fitting only moves block-sized pieces
    # between workers, not whole volumes.
    def split_block(volume, block_index):
        return common.split_volume_blocks(volume, n_blocks)[block_index][1]

    def split_block_cost(volume, block_index):
        return (volume.nominal_bytes / n_blocks) * cm.memcpy_per_byte

    pieces = [
        [
            client.delayed(
                split_block, cost=split_block_cost, op=_pid("repart")
            )(vol, block_index)
            for vol in denoised
        ]
        for block_index in range(n_blocks)
    ]

    def fit_block(mask, block_index, *blocks):
        stacked = np.stack([b.array for b in blocks], axis=-1)
        nz = mask.shape[0]
        bounds = np.linspace(0, nz, min(n_blocks, nz) + 1).astype(int)
        mask_block = mask[bounds[block_index]:bounds[block_index + 1]]
        evals = fit_dtm(stacked, gtab, mask=mask_block)
        fa = fractional_anisotropy(evals)
        return SizedArray(fa, nominal_shape=blocks[0].nominal_shape)

    def fit_block_cost(mask, block_index, *blocks):
        fraction = common.masked_fraction(mask)
        elements = sum(b.nominal_elements for b in blocks)
        return elements * fraction * cm.dtm_fit_per_voxel_sample

    fa_blocks = [
        client.delayed(fit_block, cost=fit_block_cost, op=_pid("fitmodel"))(
            mask_delayed, block_index, *pieces[block_index]
        )
        for block_index in range(n_blocks)
    ]

    def reassemble(*blocks):
        return common.reassemble_blocks(dict(enumerate(blocks)))

    def reassemble_cost(*blocks):
        return sum(b.nominal_bytes for b in blocks) * cm.memcpy_per_byte

    return client.delayed(reassemble, cost=reassemble_cost, op=_pid("fa"))(
        *fa_blocks
    )


def run(client, subjects, n_blocks=DEFAULT_BLOCKS, bucket=DEFAULT_BUCKET):
    """End-to-end neuroscience pipeline on Dask.

    Returns ``(masks, fa_by_subject)``.  Subject downloads are pinned
    round-robin over the nodes (the paper's manual placement).
    """
    nodes = client.cluster.node_order
    data = {}
    for index, subject in enumerate(subjects):
        workers = nodes[index % len(nodes)]
        data[subject.subject_id] = download_and_filter(
            client, subject, bucket=bucket, workers=workers
        )

    # Figure 8's barrier: materialize the downloads and read numVols.
    all_vols = [v for vols in data.values() for v in vols]
    client.compute(all_vols)
    num_vols = {
        subject.subject_id: len(data[subject.subject_id])
        for subject in subjects
    }
    assert all(n > 0 for n in num_vols.values())

    masks_delayed = {
        s.subject_id: build_mask_graph(client, s, data[s.subject_id])
        for s in subjects
    }
    fa_delayed = {
        s.subject_id: build_fit_graph(
            client, s, data[s.subject_id], masks_delayed[s.subject_id],
            n_blocks=n_blocks,
        )
        for s in subjects
    }
    # One barrier evaluates every subject's chain; subjects overlap.
    keys = [s.subject_id for s in subjects]
    results = client.compute(
        [masks_delayed[k] for k in keys] + [fa_delayed[k] for k in keys]
    )
    masks = dict(zip(keys, results[: len(keys)]))
    fa = dict(zip(keys, results[len(keys):]))
    return masks, fa


class LoweredNeuro:
    """Executable produced by ``lower(neuro_plan(), client)``.

    Binds the plan's parameters (bucket from the ``volumes`` scan,
    ``n_blocks`` from ``repart``) to the graph builders above.
    """

    def __init__(self, plan, client):
        self.plan = plan
        self.client = client
        self.bucket = plan.member_param("volumes", "bucket")
        self.n_blocks = plan.param("n_blocks")

    def download_and_filter(self, subject, workers=None):
        return download_and_filter(
            self.client, subject, bucket=self.bucket, workers=workers
        )

    def build_mask_graph(self, subject, vols_delayed):
        return build_mask_graph(self.client, subject, vols_delayed)

    def build_fit_graph(self, subject, vols_delayed, mask_delayed):
        return build_fit_graph(
            self.client, subject, vols_delayed, mask_delayed,
            n_blocks=self.n_blocks,
        )

    def run(self, subjects):
        return run(
            self.client, subjects, n_blocks=self.n_blocks, bucket=self.bucket
        )
