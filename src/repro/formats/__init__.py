"""Scientific file formats and staging formats, implemented from scratch.

- :mod:`repro.formats.nifti` -- NIfTI-1 (the neuroscience input format).
- :mod:`repro.formats.fits` -- FITS (the astronomy input format).
- :mod:`repro.formats.csvconv` -- CSV/TSV conversion used by miniSciDB's
  ``aio_input`` ingest and ``stream()`` interface.
- :mod:`repro.formats.npyio` -- the size of a pickled-NumPy staging
  object, the form in which Spark and Myria read volumes from S3
  (Section 4.2/4.3).
- :mod:`repro.formats.sizing` -- the :class:`SizedArray` wrapper that
  couples real scaled-down data with nominal paper-scale sizes.
"""

from repro.formats.csvconv import (
    array_to_csv,
    array_to_tsv,
    csv_nominal_bytes,
    csv_to_array,
    tsv_to_array,
)
from repro.formats.fits import FitsError, FitsFile, FitsHDU, read_fits, write_fits
from repro.formats.nifti import NiftiError, NiftiImage, read_nifti, write_nifti
from repro.formats.sizing import SizedArray

__all__ = [
    "FitsError",
    "FitsFile",
    "FitsHDU",
    "NiftiError",
    "NiftiImage",
    "SizedArray",
    "array_to_csv",
    "array_to_tsv",
    "csv_nominal_bytes",
    "csv_to_array",
    "read_fits",
    "read_nifti",
    "tsv_to_array",
    "write_fits",
    "write_nifti",
]
