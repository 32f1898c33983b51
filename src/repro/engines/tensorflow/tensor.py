"""Tensors: real payloads with nominal shapes.

Tensor values flowing through a miniTF graph carry the same
real-vs-nominal duality as the rest of the reproduction.
"""

import numpy as np


class Tensor:
    """An immutable tensor value.

    Only the constructor assigns ``array`` and ``nominal_shape``, so
    ``nominal_bytes`` is computed there, once.
    """

    __slots__ = ("array", "nominal_shape", "nominal_bytes")

    def __init__(self, array, nominal_shape=None):
        self.array = np.asarray(array)
        if nominal_shape is None:
            nominal_shape = self.array.shape
        self.nominal_shape = tuple(int(d) for d in nominal_shape)
        #: Size in bytes at the paper's nominal data scale.
        self.nominal_bytes = self.nominal_elements * self.array.dtype.itemsize

    @property
    def nominal_elements(self):
        """Element count at the paper's nominal data scale."""
        n = 1
        for d in self.nominal_shape:
            n *= d
        return n

    @classmethod
    def wrap(cls, value):
        """Coerce ndarray / SizedArray / Tensor into a Tensor."""
        if isinstance(value, Tensor):
            return value
        nominal = getattr(value, "nominal_shape", None)
        array = getattr(value, "array", value)
        return cls(array, nominal_shape=nominal)

    def __repr__(self):
        return f"Tensor(real={self.array.shape}, nominal={self.nominal_shape})"
