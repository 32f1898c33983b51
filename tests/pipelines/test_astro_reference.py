"""Tests for the astronomy reference pipeline."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms import cosmicray
from repro.algorithms.coadd import coadd_stack
from repro.data.astro import generate_visit
from repro.formats.sizing import SizedArray
from repro.harness.runner import astro_visits
from repro.pipelines.astro import reference
from repro.pipelines.astro.reference import (
    COADD_ITERATIONS,
    COADD_SIGMA,
    background_box_size,
    coadd_patch,
    default_patch_grid,
    detect,
    nominal_pixel_scale,
    patch_pieces,
    preprocess_exposure,
    run_reference,
    stitch_pieces,
)
from tests.algorithms.test_background import _reference_estimate_background
from tests.algorithms.test_cosmicray import _reference_repair_cosmic_rays
from tests.algorithms.test_stencil import _reference_median_filter


@pytest.fixture(scope="module")
def result(tiny_visits):
    return run_reference(tiny_visits)


def test_preprocess_flattens_background(tiny_visits):
    exposure = tiny_visits[0].exposures[0]
    calibrated = preprocess_exposure(exposure)
    # Background subtracted: median near zero (raw sky was ~200).
    assert abs(np.median(calibrated.flux)) < 10.0
    assert np.median(exposure.flux) > 100.0


def test_preprocess_repairs_cosmic_rays(tiny_visits):
    for exposure in tiny_visits[0].exposures:
        injected = exposure.mask & 1
        if injected.any():
            calibrated = preprocess_exposure(exposure)
            y, x = np.argwhere(injected)[0]
            assert calibrated.flux[y, x] < exposure.flux[y, x] * 0.5
            return
    pytest.skip("no cosmic rays injected in this visit")


@pytest.fixture(scope="module")
def quick_exposures():
    """The 24 exposures of 40 x 40 the ``astro-grid`` benchmark
    preprocesses at seed 0 (Fig 10d's quick cells)."""
    visits = astro_visits(4, scale=100, n_sensors=6)
    return [exposure for visit in visits for exposure in visit.exposures]


def _sha256(exposures, planes):
    digest = hashlib.sha256()
    for exposure in exposures:
        for plane in planes:
            digest.update(getattr(exposure, plane).tobytes())
    return digest.hexdigest()


def test_preprocess_bytes_match_reference_kernels(quick_exposures, monkeypatch):
    """Step 1-A end to end against the three loops its kernels replaced."""
    got = [preprocess_exposure(exposure) for exposure in quick_exposures]

    def reference_subtract(image, box_size):
        background = _reference_estimate_background(image, box_size)
        return image - background, background

    monkeypatch.setattr(reference, "subtract_background", reference_subtract)
    monkeypatch.setattr(cosmicray, "median_filter_2d", _reference_median_filter)
    monkeypatch.setattr(
        reference, "repair_cosmic_rays", _reference_repair_cosmic_rays
    )
    reference._calibrate.cache_clear()  # computed by the oracles, not read back
    want = [preprocess_exposure(exposure) for exposure in quick_exposures]
    reference._calibrate.cache_clear()  # keep no oracle result in the memo
    planes = ("flux", "mask")
    assert _sha256(got, planes) == _sha256(want, planes)
    assert sum((exposure.mask & 2).any() for exposure in got) > 12


def test_preprocess_sha256_is_the_parents(quick_exposures):
    """The digest the tree gave before the kernels were batched (PR 24's
    parent), recorded on an AVX-512 host.  The generator's ``exp`` rounds
    differently on other hosts, so the inputs are pinned first."""
    if _sha256(quick_exposures, ("flux", "variance", "mask")) != (
        "15a876c17cb1b266ce8cba6295c8116fb568c616e727e3903f5bb11e5d91e909"
    ):
        pytest.skip("this host generates other exposures than the recorded ones")
    got = [preprocess_exposure(exposure) for exposure in quick_exposures]
    # Recorded when Step 1-A widened the int32 mask plane to int64: the
    # values must be the parent's, the dtype no longer is.
    widened = [replace(e, mask=e.mask.astype(np.int64)) for e in got]
    assert _sha256(widened, ("flux", "mask")) == (
        "83ad76adbe8dcc075e69ba39540b006d0cc36daf48f96bd7f95ba30eecf2cd86"
    )


@pytest.mark.parametrize("dtype", [np.int32, np.int16, np.uint8, np.int64])
def test_preprocess_keeps_the_mask_dtype(quick_exposures, dtype):
    """The cosmic-ray bit is or-ed into the mask plane as it is: a bool
    shifted left is int64, and used to widen the int32 plane."""
    exposure = quick_exposures[0]
    given = replace(exposure, mask=exposure.mask.astype(dtype))
    calibrated = preprocess_exposure(given)
    assert calibrated.mask.dtype == dtype
    assert (calibrated.mask & 2).any()
    assert np.array_equal(calibrated.mask | 2, given.mask | 2)


def test_preprocess_mask_plane_is_the_generators_dtype(quick_exposures):
    for exposure in quick_exposures:
        assert preprocess_exposure(exposure).mask.dtype == np.int32


def test_preprocess_keys_on_the_variance_plane(quick_exposures):
    """One flux plane under two noise levels: each exposure gets the
    mask the uncached step gives it, whatever the memo held before."""
    exposure = quick_exposures[0]
    loud = replace(exposure, variance=exposure.variance * 400.0)
    box = background_box_size(exposure.shape)
    masks = []
    for given in (exposure, loud, exposure):
        flux, cr_mask = reference._calibrate.__wrapped__(
            given.flux, given.variance, box
        )
        calibrated = preprocess_exposure(given)
        assert calibrated.flux.tobytes() == flux.tobytes()
        assert np.array_equal(calibrated.mask, given.mask | cr_mask << 1)
        masks.append(cr_mask)
    assert not np.array_equal(masks[0], masks[1])


def test_coadd_patch_returns_its_own_float32_coadd():
    """A repeated stack reads the memo, and its caller still gets a
    float32 array of its own to write to."""
    rng = np.random.default_rng(7)
    planes = [rng.normal(100.0, 5.0, (12, 12)).astype(np.float32)
              for _visit in range(3)]
    stack = [SizedArray(plane, nominal_shape=(24, 24), meta={"patch": (0, 1)})
             for plane in planes]
    want, _counts = coadd_stack(
        np.stack([plane.astype(np.float64) for plane in planes]),
        n_sigma=COADD_SIGMA, n_iter=COADD_ITERATIONS,
    )
    reference._coadd_planes.cache_clear()
    for _call in range(2):  # a miss, then a hit
        coadd = coadd_patch(stack)
        assert coadd.array.dtype == np.float32
        assert coadd.array.tobytes() == want.astype(np.float32).tobytes()
        assert coadd.nominal_shape == (24, 24)
        assert coadd.meta == {"patch": (0, 1)}
        coadd.array[:] = 0.0


def test_patch_pieces_fanout_bounds(tiny_visits):
    grid = default_patch_grid(tiny_visits[0].exposures[0].shape)
    scale = nominal_pixel_scale(
        tiny_visits[0].exposures[0].shape, tiny_visits[0].exposures[0].bundle
    )
    for exposure in tiny_visits[0].exposures:
        pieces = patch_pieces(exposure, grid, scale)
        assert 1 <= len(pieces) <= 6


def _reference_stitch_pieces(pieces):
    """``stitch_pieces`` before it filled each hole with one ``copyto``,
    verbatim.  The oracle: ``stitch_pieces`` must return these bytes."""
    arrays = [p.array for p in pieces]
    out = arrays[0].copy()
    for other in arrays[1:]:
        hole = np.isnan(out)
        out[hole] = other[hole]
    side = pieces[0].meta.get("side", 1)
    nominal_shape = (out.shape[0] * side, out.shape[1] * side)
    return SizedArray(out, nominal_shape=nominal_shape, meta=pieces[0].meta)


def test_step_2a_bytes_match_reference_on_quick_exposures(quick_exposures):
    """Step 2-A on the 24 calibrated quick exposures: every piece and
    every stitched exposure against the loops they replaced."""
    from tests.algorithms.test_patches import (
        _reference_patch_pieces,
        assert_same_pieces,
    )

    grid = default_patch_grid(quick_exposures[0].shape)
    scale = nominal_pixel_scale(quick_exposures[0].shape,
                                quick_exposures[0].bundle)
    groups = {}
    for exposure in quick_exposures:
        calibrated = preprocess_exposure(exposure)
        pieces = patch_pieces(calibrated, grid, scale)
        assert_same_pieces(pieces,
                           _reference_patch_pieces(calibrated, grid, scale))
        for key, piece in pieces:
            groups.setdefault(key, []).append(piece)
    assert max(len(group) for group in groups.values()) > 1
    for group in groups.values():
        assert_same_pieces([(0, stitch_pieces(group))],
                           [(0, _reference_stitch_pieces(group))])


def test_stitch_fills_holes():
    from repro.formats.sizing import SizedArray

    a = np.full((4, 4), np.nan)
    a[:2] = 1.0
    b = np.full((4, 4), np.nan)
    b[2:] = 2.0
    out = stitch_pieces(
        [SizedArray(a, meta={"patch": (0, 0)}), SizedArray(b, meta={"patch": (0, 0)})]
    )
    assert np.all(out.array[:2] == 1.0)
    assert np.all(out.array[2:] == 2.0)


def test_coadds_cover_every_patch(result, tiny_visits):
    coadds, _sources = result
    grid = default_patch_grid(tiny_visits[0].exposures[0].shape)
    expected = set()
    for visit in tiny_visits:
        for exposure in visit.exposures:
            expected.update(grid.overlapping_patches(exposure.sky_box))
    assert set(coadds) == expected


def test_coadd_amplitude_scales_with_visits(result, tiny_visits):
    """Coadds sum across visits: covered pixels reach ~n_visits times
    the single-visit calibrated level."""
    coadds, _sources = result
    biggest = max(coadds.values(), key=lambda c: np.nanmax(c.array))
    assert np.nanmax(biggest.array) > len(tiny_visits) * 10


def test_sources_found(result):
    _coadds, sources = result
    total = sum(len(s) for s in sources.values())
    assert total > 0
    for patch_sources in sources.values():
        for source in patch_sources:
            assert source.n_pixels >= 3
            assert source.flux > 0


def test_empty_visits_rejected():
    with pytest.raises(ValueError):
        run_reference([])


def test_deterministic(tiny_visits, result):
    coadds2, _ = run_reference(tiny_visits)
    coadds, _ = result
    for patch in coadds:
        assert np.allclose(
            np.nan_to_num(coadds[patch].array),
            np.nan_to_num(coadds2[patch].array),
        )
