"""Single-process reference implementation of the astronomy pipeline.

Stands in for "the LSST stack [22] ... the reference is a single node
implementation" (Section 3.2.2).  The step functions here are reused by
every engine implementation as their user-defined code, so outputs can
be compared exactly.
"""

from dataclasses import replace

import numpy as np

from repro.algorithms.background import subtract_background
from repro.algorithms.coadd import sigma_clip_stack
from repro.algorithms.cosmicray import detect_cosmic_rays, repair_cosmic_rays
from repro.algorithms.memo import memoized
from repro.algorithms.patches import PatchGrid
from repro.algorithms.sources import detect_sources
from repro.data.catalog import ASTRO_SENSOR_SHAPE
from repro.formats.sizing import SizedArray

#: Co-addition parameters from Section 3.2.2.
COADD_SIGMA = 3.0
COADD_ITERATIONS = 2
#: Source detection threshold.
DETECT_SIGMA = 5.0
DETECT_MIN_PIXELS = 3


def default_patch_grid(sensor_shape):
    """A patch tiling sized so each exposure overlaps 1 to 6 patches.

    Patches are as tall as a sensor and two-thirds as wide; with the
    per-visit dithers, an exposure spans 1-2 patch rows and 2-3 patch
    columns (Section 3.2.2: "Each exposure can be part of 1 to 6
    patches").
    """
    h, w = sensor_shape
    return PatchGrid(patch_height=h, patch_width=max(1, 2 * w // 3))


def nominal_pixel_scale(sensor_shape, bundle=1):
    """Nominal pixels per real pixel (squared linear scale, times the
    sensor bundle factor when fewer than 60 real sensors stand in for a
    full focal plane)."""
    return (
        ASTRO_SENSOR_SHAPE[0] / sensor_shape[0]
    ) * (ASTRO_SENSOR_SHAPE[1] / sensor_shape[1]) * bundle


def background_box_size(sensor_shape):
    """Scale the 256-pixel nominal background box to the real sensor."""
    return max(8, sensor_shape[0] // 16)


def preprocess_exposure(exposure):
    """Step 1-A: background subtraction + cosmic-ray repair."""
    flux, cr_mask = _calibrate(exposure.flux, exposure.variance,
                               background_box_size(exposure.shape))
    # Bit 1 flags a repaired cosmic ray, in the mask plane's own dtype.
    return replace(exposure, flux=flux,
                   mask=exposure.mask | cr_mask.astype(exposure.mask.dtype) << 1)


@memoized
def _calibrate(flux, variance, box):
    """Step 1-A on one exposure's planes: the repaired flux and the
    cosmic-ray mask.  Memoized: every engine calibrates the same
    exposures, so each distinct one is calibrated once per process."""
    flux, _background = subtract_background(flux, box_size=box)
    cr_mask = detect_cosmic_rays(flux, variance=variance)
    return repair_cosmic_rays(flux, cr_mask), cr_mask


def patch_pieces(exposure, grid, pixel_scale):
    """Step 2-A flatmap: one patch-sized piece per overlapped patch.

    Returns ``[((patch_id, visit_id), SizedArray piece), ...]`` where
    pieces are NaN outside the exposure's footprint.  Pieces are stored
    as float32 (as the FITS flux planes are) and their nominal size
    reflects only the overlap region actually carried -- together these
    keep intermediate growth near the paper's observed 2.5x average
    (Section 5.3.2) instead of ballooning with NaN padding.
    """
    side = max(1, int(round(np.sqrt(pixel_scale))))
    flux = np.asarray(exposure.flux, dtype=np.float64)
    box = exposure.sky_box
    if flux.shape != (box.height, box.width):
        raise ValueError(f"flux {flux.shape} does not match exposure box"
                         f" {(box.height, box.width)}")
    height, width = grid.patch_height, grid.patch_width
    pieces = []
    for patch_id in grid.overlapping_patches(box):
        # The overlap, from integer bounds: rows y0:y1, columns x0:x1.
        top, left = patch_id[0] * height, patch_id[1] * width
        y0, y1 = max(box.y0, top), min(box.y0 + box.height, top + height)
        x0, x1 = max(box.x0, left), min(box.x0 + box.width, left + width)
        # Assigning float64 to float32 rounds as ``astype`` does.
        piece = np.full((height, width), np.nan, dtype=np.float32)
        piece[y0 - top:y1 - top, x0 - left:x1 - left] = (
            flux[y0 - box.y0:y1 - box.y0, x0 - box.x0:x1 - box.x0])
        nominal_shape = ((y1 - y0) * side, (x1 - x0) * side)
        pieces.append((
            (patch_id, exposure.visit_id),
            SizedArray(piece, nominal_shape=nominal_shape, meta={
                "patch": patch_id,
                "visit": exposure.visit_id,
                "side": side,
            }),
        ))
    return pieces


def stitch_pieces(pieces):
    """Step 2-A group: overlay same-(patch, visit) pieces into one
    exposure object (sensors of one visit never overlap, so overlay is
    a NaN-fill).  The stitched object is a full patch-sized float32
    image; its nominal size covers the whole patch."""
    arrays = [p.array for p in pieces]
    out = arrays[0].copy()
    for other in arrays[1:]:
        np.copyto(out, other, where=np.isnan(out))
    side = pieces[0].meta.get("side", 1)
    nominal_shape = (out.shape[0] * side, out.shape[1] * side)
    return SizedArray(out, nominal_shape=nominal_shape, meta=pieces[0].meta)


def coadd_patch(patch_exposures):
    """Step 3-A: iterative outlier removal then sum across visits.

    Statistics run in float64 (as the reference math does); the stored
    Coadd is float32, like the input flux planes.
    """
    return SizedArray(
        _coadd_planes(*(p.array for p in patch_exposures)),
        nominal_shape=patch_exposures[0].nominal_shape,
        meta={"patch": patch_exposures[0].meta.get("patch")},
    )


@memoized
def _coadd_planes(*planes):
    """Step 3-A on one patch's visit planes: the float32 co-add (the
    sum ``coadd_stack`` takes, without its per-pixel counts).
    Memoized on the planes, so a repeated stack is neither built nor
    clipped again."""
    stack = np.stack(planes, dtype=np.float64)
    clipped = sigma_clip_stack(stack, n_sigma=COADD_SIGMA,
                               n_iter=COADD_ITERATIONS)
    return np.nansum(clipped, axis=0).astype(np.float32)


def detect(coadd):
    """Step 4-A: sources in one Coadd."""
    return detect_sources(
        coadd.array, n_sigma=DETECT_SIGMA, npix_min=DETECT_MIN_PIXELS
    )


def run_reference(visits, grid=None):
    """The full pipeline, single process.

    Returns ``(coadds, sources)``: dicts keyed by patch id.
    """
    exposures = [e for v in visits for e in v.exposures]
    if not exposures:
        raise ValueError("no exposures to process")
    if grid is None:
        grid = default_patch_grid(exposures[0].shape)
    pixel_scale = nominal_pixel_scale(exposures[0].shape, exposures[0].bundle)

    calibrated = [preprocess_exposure(e) for e in exposures]

    by_patch_visit = {}
    for exposure in calibrated:
        for key, piece in patch_pieces(exposure, grid, pixel_scale):
            by_patch_visit.setdefault(key, []).append(piece)
    patch_exposures = {
        key: stitch_pieces(pieces) for key, pieces in by_patch_visit.items()
    }

    by_patch = {}
    for (patch_id, _visit_id), exposure in sorted(
        patch_exposures.items(), key=lambda kv: (kv[0][0], kv[0][1])
    ):
        by_patch.setdefault(patch_id, []).append(exposure)

    coadds = {patch: coadd_patch(stack) for patch, stack in by_patch.items()}
    sources = {patch: detect(coadd) for patch, coadd in coadds.items()}
    return coadds, sources
