"""Pickled-NumPy staging objects.

Both the Spark and Myria implementations in the paper stage the
neuroscience data as pickled NumPy arrays on S3 before ingest
(Section 4.2: "we first convert the NIfTI files into NumPy arrays that
we stage on Amazon S3"; Section 5.2.1: "we persist as pickled NumPy
files per image in S3").  The staged objects are the volumes
themselves; what the ingest cost model needs is their size on S3: the
nominal array bytes plus this framing.
"""

#: Pickle protocol-2+ framing overhead per array, measured empirically;
#: tiny relative to image volumes but kept for honesty.
PICKLE_OVERHEAD_BYTES = 163
