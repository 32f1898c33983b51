"""Non-local means denoising (Step 2-N of the neuroscience pipeline).

"Denoising operates on a 3D sliding window of voxels using the
non-local means algorithm [7], where we use the mask from Step 1-N to
denoise only parts of the image volume containing the brain."
(Section 3.1.2.)

The implementation follows Coupe et al.'s blockwise scheme in its
simplest per-voxel form: for every masked voxel, candidate patches
within a search window are weighted by Gaussian-kernelized patch
distance and averaged.

The search offsets ``(dz, dy, dx)`` are processed in batches.  One batch
stacks the squared differences of its offsets along a leading axis, so
the box sums, the scaling and the ``exp`` each run once per batch rather
than once per offset.  The results are the bytes a one-offset-at-a-time
loop produces (the test suite keeps that loop as its oracle) because
every voxel sees the same floating-point operations in the same order:

* a box sum is the difference of two running sums along each axis in
  turn, and the running sums are built one slab at a time, each slab
  added to the one before it;
* ``weights_sum`` and ``values_sum`` grow by one offset at a time, in
  ``(dz, dy, dx)`` order, as one left-to-right chain of additions --
  never by a per-batch partial sum.

The batch length is the number of shifted windows that fit in
``_BATCH_ELEMENTS`` float64 values.  The scaled-down test volumes
(8x8x8) take 32 offsets per batch; a volume whose padded window exceeds
half that budget takes one offset per batch, where each slab is large
enough that numpy's per-call overhead no longer matters.
"""

import itertools
import math

import numpy as np

#: Most float64 values one batch of shifted windows may hold (256 KiB,
#: so a batch and its box-sum stages stay cache-resident).
_BATCH_ELEMENTS = 1 << 15


def nlmeans_3d(volume, sigma, mask=None, patch_radius=1, block_radius=2):
    """Denoise a 3-d volume with non-local means.

    Parameters
    ----------
    volume:
        3-d array of intensities.
    sigma:
        Noise standard deviation; controls the smoothing strength
        ``h = sqrt(2) * sigma`` per the classic formulation.
    mask:
        Optional boolean array; voxels outside the mask are passed
        through unchanged (and are still usable as patch content).
        This is exactly the masked evaluation TensorFlow could not
        express (Section 4.5: "without filtering with the mask as
        TensorFlow does not support element-wise data assignment").
    patch_radius:
        Half-width of the similarity patch (a non-negative integer).
    block_radius:
        Half-width of the search window around each voxel (a
        non-negative integer).
    """
    volume = np.asarray(volume, dtype=np.float64)
    if volume.ndim != 3:
        raise ValueError(f"nlmeans_3d expects a 3-d volume, got {volume.shape}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != volume.shape:
            raise ValueError(
                f"mask shape {mask.shape} does not match volume {volume.shape}"
            )
    pr = _radius("patch_radius", patch_radius)
    br = _radius("block_radius", block_radius)

    pad = pr + br
    padded = np.pad(volume, pad, mode="reflect")

    h2 = 2.0 * (np.sqrt(2.0) * sigma) ** 2
    width = 2 * pr + 1
    # x / -c carries the same bits as -x / c, so the negation is folded
    # into the divisor.
    neg_scale = -(h2 * width ** 3)

    weights_sum = np.zeros_like(volume)
    values_sum = np.zeros_like(volume)

    shape = volume.shape
    # A patch distance at every voxel needs the squared differences on
    # the volume grown by the patch radius.
    window = tuple(n + 2 * pr for n in shape)
    center = padded[br: br + window[0], br: br + window[1], br: br + window[2]]

    # Corner of each shifted window in ``padded``, in (dz, dy, dx) order.
    corners = list(itertools.product(range(2 * br + 1), repeat=3))
    batch = max(1, min(len(corners), _BATCH_ELEMENTS // math.prod(window)))
    # stages[k] holds a batch once its first k axes are box-summed.
    scratch = [
        np.empty((batch,) + shape[:k] + window[k:]) for k in range(4)
    ]
    weighted = np.empty(shape)

    for start in range(0, len(corners), batch):
        chunk = corners[start: start + batch]
        stages = [buffer[: len(chunk)] for buffer in scratch]
        sq_diff = stages[0]
        for row, (z, y, x) in zip(sq_diff, chunk):
            shifted = padded[z: z + window[0], y: y + window[1], x: x + window[2]]
            np.subtract(shifted, center, out=row)
        np.multiply(sq_diff, sq_diff, out=sq_diff)
        weights = _box_sum_3d(stages, width)
        np.divide(weights, neg_scale, out=weights)
        np.exp(weights, out=weights)
        for weight, (z, y, x) in zip(weights, chunk):
            neighbor = padded[
                z + pr: z + pr + shape[0],
                y + pr: y + pr + shape[1],
                x + pr: x + pr + shape[2],
            ]
            weights_sum += weight
            values_sum += np.multiply(weight, neighbor, out=weighted)

    denoised = values_sum / weights_sum
    if mask is not None:
        denoised = np.where(mask, denoised, volume)
    return denoised


def _radius(name, value):
    """``value`` as an int, or a ``ValueError`` naming the argument."""
    if not float(value).is_integer() or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def _box_sum_3d(stages, width):
    """Sum over all cubic windows of edge ``width`` (valid mode), batched.

    ``stages[0]`` has shape ``(n, a, b, c)`` and is overwritten;
    ``stages[k]`` receives the batch with its first ``k`` volume axes
    summed, so ``stages[3]`` -- the return value -- has shape
    ``(n, a - width + 1, b - width + 1, c - width + 1)``.
    """
    for axis in (1, 2, 3):
        source, target = stages[axis - 1], stages[axis]
        outer = math.prod(source.shape[:axis])
        length = source.shape[axis]
        sums = source.reshape(outer, length, -1)
        for i in range(1, length):
            np.add(sums[:, i - 1], sums[:, i], out=sums[:, i])
        out = target.reshape(outer, length - width + 1, -1)
        # The first window is ``sums[width - 1] - 0.0``: a copy is exact.
        out[:, 0] = sums[:, width - 1]
        np.subtract(sums[:, width:], sums[:, :-width], out=out[:, 1:])
    return stages[3]
