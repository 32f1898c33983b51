"""The paper's dataset dimensions and size tables (Figures 10a/10b).

Neuroscience (Section 3.1.1): 288 volumes of 145 x 145 x 174 float32
voxels per subject (~4.2 GB uncompressed, 1.4 GB compressed), up to 25
subjects (~105 GB).  The largest intermediate relation is twice the
input (Figure 10a).

Astronomy (Section 3.2.1): 24 visits, each divided into 60 sensor
images of 4000 x 4072 pixels (~80 MB each with flux/variance/mask and
metadata; ~4.8 GB per visit, ~115 GB total).  Intermediate data grows
2.5x on average, with per-worker skew up to 6x (Section 5.3.2).
"""

GB = 1000 ** 3  # the paper's tables use decimal gigabytes

# ----------------------------------------------------------------------
# Neuroscience constants
# ----------------------------------------------------------------------

NEURO_VOLUME_SHAPE = (145, 145, 174)
NEURO_N_VOLUMES = 288
NEURO_N_B0 = 18
NEURO_DTYPE_BYTES = 4
NEURO_SUBJECT_COUNTS = (1, 2, 4, 8, 12, 25)

#: Growth of the largest intermediate over the input (Figure 10a shows
#: exactly 2x at every subject count).
NEURO_INTERMEDIATE_FACTOR = 2.0


def neuro_subject_bytes():
    """Uncompressed bytes of one subject's 4-D array."""
    x, y, z = NEURO_VOLUME_SHAPE
    return x * y * z * NEURO_N_VOLUMES * NEURO_DTYPE_BYTES


def neuro_size_table(subject_counts=NEURO_SUBJECT_COUNTS):
    """Figure 10a: input and largest-intermediate sizes in GB."""
    rows = []
    for n in subject_counts:
        input_gb = n * neuro_subject_bytes() / GB
        rows.append(
            {
                "subjects": n,
                "input_gb": input_gb,
                "largest_intermediate_gb": input_gb * NEURO_INTERMEDIATE_FACTOR,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Astronomy constants
# ----------------------------------------------------------------------

ASTRO_SENSOR_SHAPE = (4000, 4072)
ASTRO_SENSORS_PER_VISIT = 60
#: Per-sensor file size as stated in the paper ("an 80MB 2D image").
ASTRO_SENSOR_BYTES = 80 * 1000 ** 2
ASTRO_VISIT_COUNTS = (2, 4, 8, 12, 24)

#: "the astronomy pipeline grows the data by 2.5x on average during
#: processing, but some workers experience data growth of 6x due to
#: skew" (Section 5.3.2).
ASTRO_INTERMEDIATE_FACTOR = 2.5
ASTRO_SKEW_FACTOR = 6.0


def astro_visit_bytes():
    """Bytes of one visit's 60 sensor files."""
    return ASTRO_SENSORS_PER_VISIT * ASTRO_SENSOR_BYTES


def astro_size_table(visit_counts=ASTRO_VISIT_COUNTS):
    """Figure 10b: input and largest-intermediate sizes in GB."""
    rows = []
    for n in visit_counts:
        input_gb = n * astro_visit_bytes() / GB
        rows.append(
            {
                "visits": n,
                "input_gb": input_gb,
                "largest_intermediate_gb": input_gb * ASTRO_INTERMEDIATE_FACTOR,
            }
        )
    return rows
