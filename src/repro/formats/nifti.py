"""NIfTI-1 reader/writer, implemented from the format specification.

NIfTI-1 is the standard neuroimaging format used by the Human Connectome
Project data in the paper's neuroscience use case (Section 3.1.1): each
subject's file holds a 4-D array of 288 diffusion-weighted 3-D volumes.

The format is a fixed 348-byte binary header (optionally followed by a
4-byte extension flag) and a raw data block.  Single-file ``.nii`` and
gzip-compressed ``.nii.gz`` variants are supported, matching the
compressed distribution form described in the paper (1.4 GB compressed
expanding to 4.2 GB).
"""

import gzip
import io
import struct

import numpy as np

HEADER_SIZE = 348
#: vox_offset for single-file NIfTI: header + 4-byte extension flag.
SINGLE_FILE_VOX_OFFSET = 352
MAGIC_SINGLE = b"n+1\x00"

#: NIfTI datatype code -> NumPy dtype (big enough subset for the bench).
_DTYPES = {
    2: np.dtype(np.uint8),
    4: np.dtype(np.int16),
    8: np.dtype(np.int32),
    16: np.dtype(np.float32),
    64: np.dtype(np.float64),
    256: np.dtype(np.int8),
    512: np.dtype(np.uint16),
    768: np.dtype(np.uint32),
}
_DTYPE_CODES = {v: k for k, v in _DTYPES.items()}

_HEADER_STRUCT = struct.Struct(
    "<i"      # sizeof_hdr
    "10s"     # data_type (unused)
    "18s"     # db_name (unused)
    "i"       # extents
    "h"       # session_error
    "c"       # regular
    "B"       # dim_info
    "8h"      # dim
    "3f"      # intent_p1..3
    "h"       # intent_code
    "h"       # datatype
    "h"       # bitpix
    "h"       # slice_start
    "8f"      # pixdim
    "f"       # vox_offset
    "f"       # scl_slope
    "f"       # scl_inter
    "h"       # slice_end
    "b"       # slice_code
    "B"       # xyzt_units
    "f"       # cal_max
    "f"       # cal_min
    "f"       # slice_duration
    "f"       # toffset
    "i"       # glmax
    "i"       # glmin
    "80s"     # descrip
    "24s"     # aux_file
    "h"       # qform_code
    "h"       # sform_code
    "3f"      # quatern_b,c,d
    "3f"      # qoffset_x,y,z
    "4f"      # srow_x
    "4f"      # srow_y
    "4f"      # srow_z
    "16s"     # intent_name
    "4s"      # magic
)
assert _HEADER_STRUCT.size == HEADER_SIZE


class NiftiError(Exception):
    """Malformed or unsupported NIfTI content."""


class NiftiImage:
    """An in-memory NIfTI image: data array plus key header fields."""

    def __init__(self, data, pixdim=None, descrip="", scl_slope=1.0, scl_inter=0.0):
        data = np.asarray(data)
        if data.ndim < 1 or data.ndim > 7:
            raise NiftiError(f"NIfTI supports 1..7 dimensions, got {data.ndim}")
        if data.dtype not in _DTYPE_CODES:
            raise NiftiError(f"unsupported dtype for NIfTI: {data.dtype}")
        self.data = data
        if pixdim is None:
            pixdim = (1.0,) * data.ndim
        if len(pixdim) != data.ndim:
            raise NiftiError(
                f"pixdim has {len(pixdim)} entries for {data.ndim}-d data"
            )
        self.pixdim = tuple(float(p) for p in pixdim)
        self.descrip = descrip
        self.scl_slope = float(scl_slope)
        self.scl_inter = float(scl_inter)

    @property
    def dtype(self):
        """Element dtype of the data array."""
        return self.data.dtype

    def scaled_data(self):
        """Data with the header's affine intensity scaling applied."""
        slope = self.scl_slope if self.scl_slope not in (0.0,) else 1.0
        if slope == 1.0 and self.scl_inter == 0.0:
            return self.data
        return self.data * slope + self.scl_inter

    def __repr__(self):
        return f"NiftiImage(shape={self.data.shape}, dtype={self.dtype})"


def _encode_header(image):
    dim = [image.data.ndim] + list(image.data.shape) + [1] * (7 - image.data.ndim)
    pixdim = [0.0] + list(image.pixdim) + [1.0] * (7 - image.data.ndim)
    datatype = _DTYPE_CODES[image.data.dtype]
    bitpix = image.data.dtype.itemsize * 8
    return _HEADER_STRUCT.pack(
        HEADER_SIZE,
        b"", b"", 0, 0, b"r", 0,
        *dim,
        0.0, 0.0, 0.0,
        0,
        datatype,
        bitpix,
        0,
        *pixdim,
        float(SINGLE_FILE_VOX_OFFSET),
        image.scl_slope,
        image.scl_inter,
        0, 0, 0,
        0.0, 0.0, 0.0, 0.0,
        0, 0,
        image.descrip.encode("ascii", "replace")[:80],
        b"",
        0, 0,
        0.0, 0.0, 0.0,
        0.0, 0.0, 0.0,
        1.0, 0.0, 0.0, 0.0,
        0.0, 1.0, 0.0, 0.0,
        0.0, 0.0, 1.0, 0.0,
        b"",
        MAGIC_SINGLE,
    )


def write_nifti(image, path_or_buf, compress=None):
    """Write a :class:`NiftiImage` as a single-file ``.nii``/``.nii.gz``.

    ``compress`` defaults to inferring from a ``.gz`` suffix when a path
    is given, else False.
    """
    payload = bytearray()
    payload += _encode_header(image)
    payload += b"\x00\x00\x00\x00"  # no header extensions
    payload += np.ascontiguousarray(image.data).tobytes(order="F")

    if isinstance(path_or_buf, (str, bytes)):
        if compress is None:
            compress = str(path_or_buf).endswith(".gz")
        opener = gzip.open if compress else open
        with opener(path_or_buf, "wb") as f:
            f.write(bytes(payload))
        return None
    if compress:
        path_or_buf.write(gzip.compress(bytes(payload)))
    else:
        path_or_buf.write(bytes(payload))
    return None


def nifti_bytes(image, compress=False):
    """Serialize a :class:`NiftiImage` to bytes."""
    buf = io.BytesIO()
    write_nifti(image, buf, compress=compress)
    return buf.getvalue()


def read_nifti(path_or_buf):
    """Read a single-file NIfTI-1 image (plain or gzip-compressed)."""
    if isinstance(path_or_buf, (str, bytes)):
        with open(path_or_buf, "rb") as f:
            raw = f.read()
    else:
        raw = path_or_buf.read()
    if raw[:2] == b"\x1f\x8b":  # gzip magic
        raw = gzip.decompress(raw)
    if len(raw) < HEADER_SIZE:
        raise NiftiError(f"file too short for a NIfTI header: {len(raw)} bytes")

    fields = _HEADER_STRUCT.unpack(raw[:HEADER_SIZE])
    sizeof_hdr = fields[0]
    if sizeof_hdr != HEADER_SIZE:
        raise NiftiError(f"bad sizeof_hdr {sizeof_hdr}, expected {HEADER_SIZE}")
    magic = fields[-1]
    if magic != MAGIC_SINGLE:
        raise NiftiError(f"unsupported magic {magic!r}; only single-file n+1")

    dim = fields[7:15]
    ndim = dim[0]
    if not 1 <= ndim <= 7:
        raise NiftiError(f"invalid dim[0]={ndim}")
    shape = tuple(int(d) for d in dim[1:1 + ndim])
    datatype = fields[19]
    if datatype not in _DTYPES:
        raise NiftiError(f"unsupported NIfTI datatype code {datatype}")
    dtype = _DTYPES[datatype]
    pixdim_all = fields[22:30]
    pixdim = tuple(float(p) for p in pixdim_all[1:1 + ndim])
    vox_offset = int(fields[30])
    scl_slope = float(fields[31])
    scl_inter = float(fields[32])
    descrip = fields[42].split(b"\x00", 1)[0].decode("ascii", "replace")

    n_elements = 1
    for d in shape:
        n_elements *= d
    expected = n_elements * dtype.itemsize
    data_block = raw[vox_offset:vox_offset + expected]
    if len(data_block) != expected:
        raise NiftiError(
            f"truncated data block: expected {expected} bytes,"
            f" got {len(data_block)}"
        )
    data = np.frombuffer(data_block, dtype=dtype).reshape(shape, order="F").copy()
    return NiftiImage(
        data,
        pixdim=pixdim,
        descrip=descrip,
        scl_slope=scl_slope if scl_slope != 0.0 else 1.0,
        scl_inter=scl_inter,
    )
