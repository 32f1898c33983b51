"""S3 staging of neuroscience data.

"To ingest data in the neuroscience use case, we first convert the
NIfTI files into NumPy arrays that we stage on Amazon S3" (Section 4.2);
"we persist as pickled NumPy files per image in S3" (Section 5.2.1).

Each staged object is one image volume (a :class:`SizedArray` with
subject/image metadata) whose nominal size is the pickled-NumPy size of
a full 145x145x174 float32 volume.
"""

import functools

from repro.cluster.objectstore import staged
from repro.formats.npyio import PICKLE_OVERHEAD_BYTES

DEFAULT_BUCKET = "neuro-npy"


def volume_key(subject_id, image_id):
    """Volume key."""
    return f"{subject_id}/vol-{image_id:04d}"


@functools.cache
def volume_keys(subject_id, n_volumes):
    """A subject's staged keys by image id, built once per process."""
    return tuple(volume_key(subject_id, index) for index in range(n_volumes))


def _volume_entries(subject):
    keys = volume_keys(subject.subject_id, subject.n_volumes)
    for key, volume in zip(keys, subject.volumes):
        yield key, volume, volume.nominal_bytes + PICKLE_OVERHEAD_BYTES


def staged_subjects(subjects, bucket=DEFAULT_BUCKET):
    """The frozen store of every subject's volumes as pickled-NumPy
    objects, built once per cohort and bucket per process.

    Nominal object sizes are bundle-aware so each subject's staged bytes
    total the paper's 4.2 GB regardless of the real volume count.
    """
    return staged(bucket, subjects, _volume_entries)


def stage_subjects(object_store, subjects, bucket=DEFAULT_BUCKET):
    """Put every subject's volumes into ``object_store`` (a mount of
    :func:`staged_subjects`); returns the number of objects staged."""
    object_store.mount(staged_subjects(subjects, bucket))
    return sum(subject.n_volumes for subject in subjects)


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
