"""Chunked multidimensional arrays.

"users first ingest data into the system, which are stored as arrays
divided into chunks distributed across nodes in a cluster" (Section 2).

Chunking is defined over *nominal* (paper-scale) dimensions; the real
scaled-down payload is sliced proportionally, so a 288-chunk nominal
grid still maps onto a 36-volume test array.  Chunk-size tuning
(Section 5.3.1: "the chunk size ... is more difficult to tune") is
therefore exercised at true paper-scale chunk counts.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DimSpec:
    """One array dimension: nominal length and nominal chunk extent."""

    name: str
    length: int
    chunk: int

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError(f"dimension {self.name!r} must have positive length")
        if not 1 <= self.chunk <= self.length:
            raise ValueError(
                f"chunk extent for {self.name!r} must be in [1, {self.length}],"
                f" got {self.chunk}"
            )

    @property
    def n_chunks(self):
        """Number of chunks along/over this extent."""
        return -(-self.length // self.chunk)  # ceil division


class SciDBArray:
    """A distributed chunked array.

    ``real`` is the scaled-down payload; its shape may differ from the
    nominal shape, and chunk coordinates are mapped onto it
    proportionally via :meth:`real_slices`.
    """

    def __init__(self, name, dims, real, attr="v"):
        self.name = name
        self.dims = tuple(dims)
        self.real = np.asarray(real)
        self.attr = attr
        if self.real.ndim != len(self.dims):
            raise ValueError(
                f"real payload rank {self.real.ndim} does not match"
                f" {len(self.dims)} dimensions"
            )

    # ------------------------------------------------------------------
    # Nominal geometry
    # ------------------------------------------------------------------

    @property
    def nominal_shape(self):
        """Shape at the paper's nominal data scale."""
        return tuple(d.length for d in self.dims)

    @property
    def nominal_elements(self):
        """Element count at the paper's nominal data scale."""
        n = 1
        for d in self.dims:
            n *= d.length
        return n

    @property
    def nominal_bytes(self):
        """Size in bytes at the paper's nominal data scale."""
        return self.nominal_elements * self.real.dtype.itemsize

    def chunk_grid(self):
        """All chunk coordinates, in row-major order."""
        counts = [d.n_chunks for d in self.dims]
        coords = [()]
        for count in counts:
            coords = [c + (i,) for c in coords for i in range(count)]
        return coords

    def chunk_bounds(self, coords):
        """Nominal [start, stop) per axis for chunk ``coords``."""
        bounds = []
        for dim, c in zip(self.dims, coords):
            start = c * dim.chunk
            stop = min(start + dim.chunk, dim.length)
            bounds.append((start, stop))
        return bounds

    def chunk_nominal_elements(self, coords):
        """Nominal cells inside one chunk."""
        n = 1
        for start, stop in self.chunk_bounds(coords):
            n *= stop - start
        return n

    def chunk_nominal_bytes(self, coords):
        """Nominal bytes of one chunk."""
        return self.chunk_nominal_elements(coords) * self.real.dtype.itemsize

    # ------------------------------------------------------------------
    # Real payload access
    # ------------------------------------------------------------------

    def real_slices(self, coords):
        """Proportional real-array slices for a nominal chunk."""
        slices = []
        for axis, ((start, stop), dim) in enumerate(
            zip(self.chunk_bounds(coords), self.dims)
        ):
            real_len = self.real.shape[axis]
            r0 = start * real_len // dim.length
            r1 = stop * real_len // dim.length
            slices.append(slice(r0, r1))
        return tuple(slices)

    def chunk_payload(self, coords):
        """Real sub-array belonging to one chunk."""
        return self.real[self.real_slices(coords)]

    # ------------------------------------------------------------------
    # Distribution
    # ------------------------------------------------------------------

    def instance_of(self, coords, n_instances):
        """Round-robin chunk placement across instances."""
        flat = 0
        for (dim, c) in zip(self.dims, coords):
            flat = flat * dim.n_chunks + c
        return flat % n_instances

    def with_real(self, real, name=None, dims=None, attr=None):
        """Copy of this array with a new real payload."""
        return SciDBArray(
            name or self.name,
            dims if dims is not None else self.dims,
            real,
            attr=attr or self.attr,
        )

    def __repr__(self):
        return (
            f"SciDBArray({self.name!r}, nominal={self.nominal_shape},"
            f" chunks={tuple(d.chunk for d in self.dims)}, real={self.real.shape})"
        )
