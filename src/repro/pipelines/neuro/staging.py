"""S3 staging of neuroscience data.

"To ingest data in the neuroscience use case, we first convert the
NIfTI files into NumPy arrays that we stage on Amazon S3" (Section 4.2);
"we persist as pickled NumPy files per image in S3" (Section 5.2.1).

Each staged object is one image volume (a :class:`SizedArray` with
subject/image metadata) whose nominal size is the pickled-NumPy size of
a full 145x145x174 float32 volume.
"""

from repro.formats.npyio import PICKLE_OVERHEAD_BYTES

DEFAULT_BUCKET = "neuro-npy"


def volume_key(subject_id, image_id):
    """Volume key."""
    return f"{subject_id}/vol-{image_id:04d}"


def stage_subjects(object_store, subjects, bucket=DEFAULT_BUCKET):
    """Upload every subject's volumes as pickled-NumPy objects.

    Returns the number of objects staged.  Idempotent per key.  Nominal
    object sizes are bundle-aware so each subject's staged bytes total
    the paper's 4.2 GB regardless of the real volume count.
    """
    count = 0
    for subject in subjects:
        for index, volume in enumerate(subject.volumes):
            object_store.put(
                bucket,
                volume_key(subject.subject_id, index),
                volume,
                volume.nominal_bytes + PICKLE_OVERHEAD_BYTES,
            )
            count += 1
    return count


def charge_nifti_conversion(cluster, subjects, op):
    """Conversion of NIfTI files to pickled-NumPy S3 objects, run in
    parallel across the cluster; "the conversion time is included in
    the data ingest time" (Section 5.2.1).  ``op`` is the provenance id
    of the scan the conversion feeds."""
    from repro.cluster.task import Task  # repro.cluster imports this module

    cm = cluster.cost_model
    share = sum(s.nominal_bytes for s in subjects) / cluster.spec.n_nodes
    cluster.run([
        Task(
            f"nifti-convert-{node}",
            duration=share / cm.nifti_parse_bandwidth
            + cm.pickle_time(share)
            + share / cm.s3_bandwidth_per_node,
            node=node,
            op=op,
        )
        for node in cluster.node_order
    ])


def gradient_tables(subjects):
    """Gradient tables."""
    return {s.subject_id: s.gtab for s in subjects}
