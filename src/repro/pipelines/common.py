"""Shared pipeline helpers: cost factories, voxel blocks, staging.

The engines cannot see inside user Python functions, so every UDF that
the pipelines register carries an explicit cost function expressed over
*nominal* data sizes (see :mod:`repro.cluster.costs` for the calibrated
constants).  The helpers here build those costed UDFs consistently so
all engines price identical work identically -- the precondition for
the paper's observation that Dask/Myria/Spark "execute the same Python
code on similarly partitioned data" (Section 5.1).
"""

import numpy as np

from repro.formats.sizing import SizedArray


def masked_fraction(mask):
    """Fraction of voxels inside a boolean mask (>= a small floor so
    costs never vanish)."""
    mask = np.asarray(mask)
    if mask.size == 0:
        return 1.0
    return max(float(mask.mean()), 0.01)


def mean_masked_fraction(masks):
    """Cohort-wide mask fraction (``{subject_id: mask}``): what prices
    UDFs that see one volume at a time and cannot look at its mask."""
    return float(np.mean([masked_fraction(m) for m in masks.values()]))


# ----------------------------------------------------------------------
# Neuroscience UDF costs
# ----------------------------------------------------------------------

def mean_time(cost_model, elements):
    """Averaging volumes of ``elements`` voxels in all: one add each."""
    return elements * cost_model.elementwise_per_element


def otsu_time(cost_model, elements):
    """Median-Otsu on a volume of ``elements`` voxels."""
    # Median-filter passes plus the histogram threshold.
    return elements * (cost_model.otsu_per_voxel + 27 * cost_model.elementwise_per_element)


def denoise_time(cost_model, elements, mask_fraction):
    """Non-local means on volumes of ``elements`` voxels, masked."""
    return elements * mask_fraction * cost_model.nlmeans_per_voxel


def fit_time(cost_model, elements, mask_fraction):
    """Tensor fit of ``elements`` voxel samples, masked."""
    return elements * mask_fraction * cost_model.dtm_fit_per_voxel_sample


def denoise_cost(cost_model, mask_fraction):
    """Cost of non-local-means denoising one masked volume."""
    def cost(volume, *rest):
        return denoise_time(cost_model, volume.nominal_elements, mask_fraction)
    return cost


def otsu_cost(cost_model):
    """Otsu cost."""
    def cost(volume, *rest):
        return otsu_time(cost_model, volume.nominal_elements)
    return cost


def repart_cost(cost_model):
    """Flatmap of a volume into voxel blocks: one memory copy."""
    def cost(volume, *rest):
        return volume.nominal_bytes * cost_model.memcpy_per_byte
    return cost


# ----------------------------------------------------------------------
# Astronomy UDF costs
# ----------------------------------------------------------------------

def preprocess_cost(cost_model):
    """Preprocess cost."""
    def cost(exposure, *rest):
        return _exposure_pixels(exposure) * cost_model.astro_preprocess_per_pixel
    return cost


def patch_map_cost(cost_model):
    """Patch map cost."""
    def cost(exposure, *rest):
        return _exposure_pixels(exposure) * cost_model.astro_patch_per_pixel
    return cost


def stitch_cost(cost_model):
    """Stitch cost."""
    def cost(pieces, *rest):
        total = sum(p.nominal_elements for p in pieces)
        return total * 8 * cost_model.memcpy_per_byte
    return cost


def coadd_cost(cost_model, n_iter=2):
    """Coadd cost."""
    def cost(patches, *rest):
        total = sum(p.nominal_elements for p in patches)
        return total * (n_iter + 1) * cost_model.coadd_iteration_per_pixel
    return cost


def detect_cost(cost_model):
    """Detect cost."""
    def cost(coadd, *rest):
        return coadd.nominal_elements * cost_model.source_detect_per_pixel
    return cost


def _exposure_pixels(exposure):
    nominal = getattr(exposure, "nominal_elements", None)
    if nominal is not None:
        return nominal
    from repro.data.catalog import ASTRO_SENSOR_SHAPE

    return ASTRO_SENSOR_SHAPE[0] * ASTRO_SENSOR_SHAPE[1]


# ----------------------------------------------------------------------
# Voxel blocks (Step 3-N parallel unit)
# ----------------------------------------------------------------------

def split_volume_blocks(volume, n_blocks):
    """Split a 3-d :class:`SizedArray` volume along z into blocks.

    Returns ``[(block_id, SizedArray), ...]``; nominal shapes divide the
    nominal z extent the same way the real split divides the real one.
    """
    bounds = _block_bounds(volume, n_blocks)
    return [(b, _block(volume, bounds, b)) for b in range(len(bounds[0]) - 1)]


def volume_block(volume, n_blocks, index):
    """Block ``index`` of :func:`split_volume_blocks`, built alone."""
    bounds = _block_bounds(volume, n_blocks)
    if not 0 <= index < len(bounds[0]) - 1:
        raise IndexError(f"block {index} of {len(bounds[0]) - 1}")
    return _block(volume, bounds, index)


def block_z_bounds(nz, n_blocks):
    """Real z bounds of the blocks :func:`split_volume_blocks` cuts from
    a volume ``nz`` slices deep, as Python ints: lowerings cut the brain
    mask by them, so mask blocks line up with volume blocks."""
    return _even_bounds(nz, min(n_blocks, nz))


def _block_bounds(volume, n_blocks):
    """Real and nominal z bounds of the blocks (at most one per real
    slice), as lists of Python ints."""
    nz_real = volume.array.shape[0]
    return (
        block_z_bounds(nz_real, n_blocks),
        _even_bounds(volume.nominal_shape[0], min(n_blocks, nz_real)),
    )


def _even_bounds(stop, n):
    """``np.linspace(0, stop, n + 1).astype(int)``, computed as numpy
    computes it: ``i * (stop / n)`` truncated, the last bound ``stop``.

    ``i * stop // n`` is not the same (stop 30, n 22 differ).
    """
    if n < 1:
        if n < -1:
            raise ValueError(
                f"Number of samples, {n + 1}, must be non-negative.")
        return [0] * (n + 1)
    step = stop / n
    return [int(i * step) for i in range(n)] + [stop]


def _block(volume, bounds, index):
    real, nominal = bounds
    nominal_shape = (
        nominal[index + 1] - nominal[index],
    ) + volume.nominal_shape[1:]
    return SizedArray(volume.array[real[index]:real[index + 1]],
                      nominal_shape=nominal_shape, meta=volume.meta)


def reassemble_blocks(blocks_by_id, nominal_shape=None, meta=None):
    """Concatenate blocks (ordered by id) back into one volume."""
    ordered = [blocks_by_id[k] for k in sorted(blocks_by_id)]
    arrays = [b.array if isinstance(b, SizedArray) else np.asarray(b) for b in ordered]
    out = np.concatenate(arrays, axis=0)
    if nominal_shape is None and isinstance(ordered[0], SizedArray):
        nominal_z = sum(b.nominal_shape[0] for b in ordered)
        nominal_shape = (nominal_z,) + tuple(ordered[0].nominal_shape[1:])
    return SizedArray(out, nominal_shape=nominal_shape, meta=meta or {})
