"""Non-local means denoising (Step 2-N of the neuroscience pipeline).

"Denoising operates on a 3D sliding window of voxels using the
non-local means algorithm [7], where we use the mask from Step 1-N to
denoise only parts of the image volume containing the brain."
(Section 3.1.2.)

The implementation follows Coupe et al.'s blockwise scheme in its
simplest per-voxel form: for every masked voxel, candidate patches
within a search window are weighted by Gaussian-kernelized patch
distance and averaged.  Voxels outside the mask keep their value.

The search offsets ``(dz, dy, dx)`` are processed in batches of whole
``(dz, dy)`` rows of the search cube.  All shifted windows of a batch
are one strided view of the padded volume, so the squared differences
and each box-sum stage cost one numpy call per batch.  The box sums
span the whole grid: their running sums start at index 0 of every
axis, and a masked voxel's window sum is the difference of two of
them, so summing only over the mask's bounding box would change its
bits (and saves nothing on the brain masks, which reach every face).
From there on only the kept voxels are computed: the window sums are
gathered at ``np.flatnonzero(mask)``, and the scaling, the ``exp``, the
weighting and the accumulation run on those, with each offset's
neighbours gathered by flat index into the padded volume.  The results
are the bytes a one-offset-at-a-time loop over the whole volume
produces (the test suite keeps that loop as its oracle) because every
kept voxel sees the same floating-point operations in the same order:

* a box sum is the difference of two running sums along each axis in
  turn, and the running sums are built one slab at a time, each slab
  added to the one before it; the axis being summed is always the
  outermost one of its buffer, so a slab is one contiguous block;
* ``weights_sum`` and ``values_sum`` grow by one offset at a time, in
  ``(dz, dy, dx)`` order, as one left-to-right chain of additions: a
  batch's terms are seeded with the sums so far and
  ``np.add.accumulate``-d down its offsets -- never by a per-batch
  partial sum or a reduction over the offsets, which numpy may sum
  pairwise;
* ``exp`` runs on a contiguous buffer, as it does in the loop.

A batch holds as many rows as fit in ``_BATCH_ELEMENTS`` float64 values.
The scaled-down test volumes (8x8x8) take a whole ``dz`` plane, 25
offsets, per batch; a volume whose row of padded windows exceeds half
that budget takes one row per batch, where each slab is large enough
that numpy's per-call overhead no longer matters.
"""

import math

import numpy as np

from repro.algorithms.memo import memoized

#: Most float64 values one batch of shifted windows may hold (256 KiB,
#: so a batch and its box-sum stages stay cache-resident).
_BATCH_ELEMENTS = 1 << 15


@memoized
def nlmeans_3d(volume, sigma, mask=None, patch_radius=1, block_radius=2):
    """Denoise a 3-d volume with non-local means.

    Parameters
    ----------
    volume:
        3-d array of intensities.
    sigma:
        Noise standard deviation, positive and finite; controls the
        smoothing strength ``h = sqrt(2) * sigma`` per the classic
        formulation.
    mask:
        Optional boolean array; voxels outside the mask are passed
        through unchanged, and only the voxels inside are denoised
        (every voxel is still usable as patch content).  ``None``
        denoises every voxel.
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
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
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

    shape = volume.shape
    span = 2 * br + 1
    # The voxels Step 2-N keeps, as flat indices into the volume.
    # taps[dy * span + dx, i] is the flat index into ``padded`` of the
    # neighbour kept voxel i averages in at search offset (-br, dy - br,
    # dx - br); offset dz - br reads dz planes of ``padded`` further on.
    kept = np.arange(volume.size) if mask is None else np.flatnonzero(mask)
    plane, row = padded.shape[1] * padded.shape[2], padded.shape[2]
    z, y, x = np.unravel_index(kept, shape)
    corner = (z + pr) * plane + (y + pr) * row + (x + pr)
    offsets = (np.arange(span)[:, None] * row + np.arange(span)).reshape(-1, 1)
    taps = offsets + corner
    flat = padded.ravel()

    weights_sum = np.zeros(len(kept))
    values_sum = np.zeros(len(kept))

    # A patch distance at every voxel needs the squared differences on
    # the volume grown by the patch radius.
    window = tuple(n + 2 * pr for n in shape)
    # windows[dz, dy, dx] is the window shifted by the offset
    # (dz - br, dy - br, dx - br).
    windows = np.lib.stride_tricks.sliding_window_view(padded, window)
    center = windows[br, br, br]

    rows = max(1, min(span, _BATCH_ELEMENTS // (span * math.prod(window))))
    # The box-sum stages alternate between two buffers, each sized for
    # the squared differences of a full batch (the largest stage):
    # stage k + 2 reuses the buffer of stage k, which is spent by then.
    scratch = [np.empty(rows * span * math.prod(window)) for _ in range(2)]

    for dz in range(span):
        for dy in range(0, span, rows):
            shifted = windows[dz, dy: dy + rows]
            count = len(shifted)
            stages = [
                scratch[k % 2][: math.prod(layout)].reshape(layout)
                for k, layout in enumerate(
                    _stage_layouts(count * span, shape, window)
                )
            ]
            sq_diff = stages[0].reshape((window[0], count, span) + window[1:])
            np.subtract(
                shifted.transpose(2, 0, 1, 3, 4), center[:, None, None],
                out=sq_diff,
            )
            np.multiply(sq_diff, sq_diff, out=sq_diff)
            # From here on only the kept voxels: fresh contiguous rows,
            # one per offset of the batch.
            weights = _box_sums(stages, width).reshape(count * span, -1)[:, kept]
            np.divide(weights, neg_scale, out=weights)
            np.exp(weights, out=weights)
            weighted = flat[dz * plane:][taps[dy * span: (dy + count) * span]]
            np.multiply(weights, weighted, out=weighted)
            # Row i of an accumulation is the sums so far plus the
            # batch's first i + 1 offsets, added one at a time.
            for sums, terms in ((weights_sum, weights), (values_sum, weighted)):
                terms[0] += sums
                np.add.accumulate(terms, axis=0, out=terms)
                sums[...] = terms[-1]

    denoised = volume.copy()
    denoised.reshape(-1)[kept] = values_sum / weights_sum
    return denoised


def _radius(name, value):
    """``value`` as an int, or a ``ValueError`` naming the argument."""
    if not float(value).is_integer() or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def _stage_layouts(n, shape, window):
    """Buffer shapes of the four box-sum stages of a batch of ``n``.

    Stage ``k`` holds the batch with its first ``k`` volume axes
    box-summed and axis ``k`` outermost; the last stage is the
    contiguous ``(n,) + shape``.
    """
    (a, b, c), (wa, wb, wc) = shape, window
    return [(wa, n, wb, wc), (wb, n, a, wc), (wc, n, a, b), (n, a, b, c)]


def _box_sums(stages, width):
    """Sum over all cubic windows of edge ``width`` (valid mode), batched.

    ``stages`` are buffers laid out as ``_stage_layouts`` says;
    ``stages[0]`` holds the batch and is overwritten, and ``stages[3]``
    -- the return value -- receives the window sums; ``stages[k + 2]``
    may share a buffer with ``stages[k]``.  Each axis is
    running-summed as the outermost axis of its stage, and its window
    differences are written through a transposed view of the next
    stage, which stores the next axis outermost.
    """
    # The axes of each next stage, in the order of the stage before it.
    rotations = [(2, 1, 0, 3), (3, 1, 2, 0), (3, 0, 1, 2)]
    for source, target, axes in zip(stages, stages[1:], rotations):
        for i in range(1, len(source)):
            np.add(source[i - 1], source[i], out=source[i])
        out = target.transpose(axes)
        # The first window is ``source[width - 1] - 0.0``: a copy is exact.
        out[0] = source[width - 1]
        np.subtract(source[width:], source[:-width], out=out[1:])
    return stages[3]
