"""Stencil (multidimensional sliding-window) primitives.

The paper highlights stencil operations as one of the core data
processing patterns of image analytics (Section 1: "Data processing
involves ... stencil (a.k.a. multidimensional window) operations").
``median_filter_3d`` backs the median-Otsu mask, ``median_filter_2d``
cosmic-ray detection (its 3x3 form a min/max network), and
``sliding_windows`` + ``window_medians`` the windows of a few pixels
(detection's candidates, repair's flagged pixels).  Non-local means and
background estimation slice their own windows; ``median`` is the
plain median of cosmic-ray detection's global noise estimate.
"""

import numpy as np


def _pad_reflect(volume, radius):
    """Reflect-pad every axis by ``radius`` (edge-safe windows)."""
    pad = [(radius, radius)] * volume.ndim
    return np.pad(volume, pad, mode="reflect")


def sliding_windows(volume, radius):
    """View of all cubic windows of half-width ``radius``.

    Returns an array of shape ``volume.shape + (w, w, ...)`` with
    ``w = 2 * radius + 1``, built on a reflect-padded copy so border
    voxels get full windows.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    padded = _pad_reflect(np.asarray(volume), radius)
    width = 2 * radius + 1
    window_shape = (width,) * volume.ndim
    return np.lib.stride_tricks.sliding_window_view(padded, window_shape)


def window_medians(windows, window_ndim):
    """Median over the trailing ``window_ndim`` axes of ``windows``.

    Returns the bytes numpy's ``median`` returns on the flattened windows,
    cast back to the input dtype, from one sort of all windows
    together.  Window sizes are odd, so the median is one element.
    """
    lead = windows.shape[:windows.ndim - window_ndim]
    flat = windows.reshape(-1, windows.shape[-1] ** window_ndim)
    if np.may_share_memory(flat, windows):
        # Windows that were contiguous already (one pixel, or gathered):
        # the reshape made no copy to sort in place.
        flat = flat.copy()
    flat.sort(axis=1)
    medians = flat[:, flat.shape[1] // 2].copy()
    if np.issubdtype(flat.dtype, np.inexact):
        # numpy's median takes the mean of the one middle element, which
        # turns a -0.0 into +0.0, and answers the NaN its partition puts
        # last for a window that holds one.  NaN sorts last too, but the
        # sort need not keep its sign: such windows take ``median``.
        medians += 0.0
        nan = np.isnan(flat[:, -1])
        if nan.any():
            medians[nan] = median(np.reshape(windows, flat.shape)[nan], axis=1)
    return medians.reshape(lead)


def median(values, axis=None):
    """``np.median(values, axis)`` bit for bit, without ``np.median``.

    numpy's median checks its partition for NaN through
    ``np.ma.isMaskedArray``, which imports ``numpy.ma`` (milliseconds
    and a megabyte in every process that takes a median).  This is the
    same computation: one partition at the middle element(s) and the
    last, the mean of the middle, and NaN where the last element is
    NaN (NaN partitions last).  ``axis`` is ``None`` (flattened) or a
    non-negative axis; ``values`` must not be empty.
    """
    values = np.asarray(values)
    size = values.size if axis is None else values.shape[axis]
    half = size // 2
    kth = [half, -1] if size % 2 else [half - 1, half, -1]
    part = np.partition(values, kth, axis=axis)
    if axis is None:
        axis = 0
    middle = slice(half, half + 1) if size % 2 else slice(half - 1, half + 1)
    result = np.mean(part[(slice(None),) * axis + (middle,)], axis=axis)
    if np.issubdtype(part.dtype, np.inexact):
        last = part.take(-1, axis=axis)
        nans = np.isnan(last)
        if nans.any():
            if isinstance(result, np.generic):
                return last
            np.copyto(result, last, where=nans)
    return result


def median_filter_3d(volume, radius=1):
    """Median filter over cubic windows of half-width ``radius``."""
    volume = np.asarray(volume)
    if volume.ndim != 3:
        raise ValueError(f"expected a 3-d volume, got shape {volume.shape}")
    if radius == 0:
        return volume.copy()
    return window_medians(sliding_windows(volume, radius), 3)


def median_filter_2d(image, radius=1):
    """Median filter over square windows of half-width ``radius``."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-d image, got shape {image.shape}")
    if radius == 0:
        return image.copy()
    if radius == 1:
        return _median_of_9(image)
    return window_medians(sliding_windows(image, radius), 2)


def _median_of_9(image):
    """``window_medians`` of the 3x3 windows, from a min/max network:
    the median of the largest column minimum, the median column middle
    and the smallest column maximum, each column sorted once for the
    three windows it lies in.  A NaN reaches the median through any min
    or max; such a window takes ``window_medians``' bytes."""
    lo, hi = np.minimum, np.maximum
    ny, nx = image.shape
    padded = _pad_reflect(image, 1)
    a, b, c = padded[:ny], padded[1:ny + 1], padded[2:]
    ab_lo, ab_hi = lo(a, b), hi(a, b)
    col_lo, col_hi = lo(ab_lo, c), hi(ab_hi, c)
    col_mid = hi(ab_lo, lo(ab_hi, c))
    left, centre, right = slice(0, nx), slice(1, nx + 1), slice(2, nx + 2)
    lows = hi(hi(col_lo[:, left], col_lo[:, centre]), col_lo[:, right])
    highs = lo(lo(col_hi[:, left], col_hi[:, centre]), col_hi[:, right])
    mid_lo = lo(col_mid[:, left], col_mid[:, centre])
    mid_hi = hi(col_mid[:, left], col_mid[:, centre])
    mids = hi(mid_lo, lo(mid_hi, col_mid[:, right]))
    medians = hi(lo(lows, mids), lo(hi(lows, mids), highs))
    if np.issubdtype(medians.dtype, np.inexact):
        medians += 0.0
        nan = np.isnan(medians)
        if nan.any():
            medians[nan] = window_medians(sliding_windows(image, 1)[nan], 2)
    return medians


def convolve3d(volume, kernel):
    """Direct 3-d convolution with reflect padding (odd-sized kernels).

    This is the operation the paper notes is missing from SciDB
    ("lacks critical functions including high-dimensional convolutions",
    Section 4.1) and that the TensorFlow implementation rewrites the
    denoising step with (Section 4.5).
    """
    volume = np.asarray(volume, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    if volume.ndim != 3 or kernel.ndim != 3:
        raise ValueError("convolve3d expects 3-d volume and kernel")
    if any(k % 2 == 0 for k in kernel.shape):
        raise ValueError(f"kernel dimensions must be odd, got {kernel.shape}")
    radii = tuple(k // 2 for k in kernel.shape)
    padded = np.pad(
        volume, [(r, r) for r in radii], mode="reflect"
    )
    windows = np.lib.stride_tricks.sliding_window_view(padded, kernel.shape)
    # Convolution flips the kernel; correlation would not.
    flipped = kernel[::-1, ::-1, ::-1]
    return np.einsum("xyzijk,ijk->xyz", windows, flipped)

