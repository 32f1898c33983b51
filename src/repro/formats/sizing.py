"""Coupling real scaled-down arrays with nominal paper-scale sizes.

The reproduction runs every pipeline on small arrays (so tests finish in
seconds) while the simulator charges costs for the *nominal* data sizes
of the paper: 145x145x174x288 float32 per dMRI subject, 4000x4072
pixels per astronomy sensor exposure.  :class:`SizedArray` carries both.
"""

import math

import numpy as np


class SizedArray:
    """A real ndarray plus the nominal shape it stands in for.

    The nominal shape defaults to the real shape (scale factor 1), so
    code paths that do not care about simulation can treat a
    ``SizedArray`` as a thin array wrapper.

    The object is immutable: only the constructor assigns ``array`` and
    ``nominal_shape``, so ``nominal_bytes`` is computed there, once, and
    every later size lookup is an attribute read.
    """

    __slots__ = ("array", "nominal_shape", "nominal_bytes", "meta")

    def __init__(self, array, nominal_shape=None, meta=None):
        self.array = np.asarray(array)
        if nominal_shape is None:
            nominal_shape = self.array.shape
        shape = self.nominal_shape = tuple(map(int, nominal_shape))
        if shape and min(shape) <= 0:
            raise ValueError(f"nominal shape must be positive: {nominal_shape}")
        #: Size in bytes at the paper's nominal data scale.
        self.nominal_bytes = math.prod(shape) * self.array.dtype.itemsize
        self.meta = dict(meta or {})

    # ------------------------------------------------------------------
    # Nominal accounting
    # ------------------------------------------------------------------

    @property
    def nominal_elements(self):
        """Element count at the paper's nominal data scale."""
        return math.prod(self.nominal_shape)

    # ------------------------------------------------------------------
    # Structure-preserving transforms
    # ------------------------------------------------------------------

    def with_array(self, array, nominal_shape=None, meta=None):
        """New ``SizedArray`` with the same metadata unless overridden."""
        return SizedArray(
            array,
            nominal_shape=self.nominal_shape if nominal_shape is None else nominal_shape,
            meta=self.meta if meta is None else meta,
        )

    def __repr__(self):
        return (
            f"SizedArray(shape={self.array.shape}, nominal={self.nominal_shape},"
            f" dtype={self.array.dtype})"
        )

