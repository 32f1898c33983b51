"""S3 staging of astronomy data.

"FITS files staged in s3 as they are" (Section 4.2): each staged object
is one sensor exposure with the paper's nominal 80 MB file size.
"""

from repro.cluster.objectstore import staged

DEFAULT_BUCKET = "astro-fits"


def exposure_key(visit_id, sensor_id):
    """Exposure key."""
    return f"visit-{visit_id:03d}/sensor-{sensor_id:02d}"


def _exposure_entries(visit):
    for exposure in visit.exposures:
        yield (exposure_key(visit.visit_id, exposure.sensor_id), exposure,
               exposure.nominal_bytes)


def staged_visits(visits, bucket=DEFAULT_BUCKET):
    """The frozen store of every visit's sensor exposures, built once per
    cohort and bucket per process.

    Nominal object sizes are bundle-aware so each staged visit totals
    the paper's ~4.8 GB regardless of the real sensor count.
    """
    return staged(bucket, visits, _exposure_entries)


def stage_visits(object_store, visits, bucket=DEFAULT_BUCKET):
    """Put every visit's sensor exposures into ``object_store`` (a mount
    of :func:`staged_visits`); returns the object count."""
    object_store.mount(staged_visits(visits, bucket))
    return sum(len(visit.exposures) for visit in visits)
