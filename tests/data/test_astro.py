"""Tests for the synthetic telescope-visit generator."""

import dataclasses

import numpy as np
import pytest

from repro.data.astro import (
    FOCAL_PLANE_COLS,
    FOCAL_PLANE_ROWS,
    field_extent,
    generate_visit,
    make_star_catalog,
)
from repro.data.catalog import ASTRO_SENSOR_BYTES, ASTRO_SENSORS_PER_VISIT


def test_deterministic_by_visit_id():
    """The memo returns one visit per call, with the bytes a fresh
    generation has."""
    memo = generate_visit(3, scale=80, n_sensors=4)
    assert generate_visit(3, scale=80, n_sensors=4) is memo
    fresh = generate_visit.__wrapped__(3, scale=80, n_sensors=4)
    assert fresh is not memo
    assert len(memo) == len(fresh) == 4
    for got, want in zip(memo.exposures, fresh.exposures):
        assert (got.sensor_id, got.sky_box, got.bundle) == (
            want.sensor_id, want.sky_box, want.bundle)
        for plane in ("flux", "variance", "mask"):
            a, b = getattr(got, plane), getattr(want, plane)
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


def test_generated_arrays_are_read_only(tiny_visits):
    for exposure in tiny_visits[0].exposures:
        for array in (exposure.flux, exposure.variance, exposure.mask):
            with pytest.raises(ValueError):
                array[0, 0] = 0


def test_visit_and_exposures_are_frozen(tiny_visits):
    visit = tiny_visits[0]
    assert isinstance(visit.exposures, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        visit.exposures = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        visit.exposures[0].flux = None


def test_full_visit_has_60_sensors():
    visit = generate_visit(0, scale=120, n_sensors=60)
    assert len(visit) == 60
    assert FOCAL_PLANE_ROWS * FOCAL_PLANE_COLS == 60


def test_bundling(tiny_visits):
    exposure = tiny_visits[0].exposures[0]
    assert exposure.bundle == 10  # 6 real sensors stand in for 60
    assert exposure.nominal_bytes == 10 * ASTRO_SENSOR_BYTES
    assert sum(e.nominal_bytes for e in tiny_visits[0].exposures) == (
        ASTRO_SENSORS_PER_VISIT * ASTRO_SENSOR_BYTES
    )


def test_sensors_do_not_overlap_within_visit(tiny_visits):
    boxes = [e.sky_box for e in tiny_visits[0].exposures]
    for i, a in enumerate(boxes):
        for b in boxes[i + 1:]:
            assert a.intersect(b) is None


def test_visits_are_dithered(tiny_visits):
    """Different visits observe the same sensors at shifted positions."""
    first = {e.sensor_id: e.sky_box for e in tiny_visits[0].exposures}
    second = {e.sensor_id: e.sky_box for e in tiny_visits[1].exposures}
    shared = set(first) & set(second)
    assert shared
    assert any(first[s] != second[s] for s in shared)


def test_same_stars_visible_across_visits():
    """The star catalog is fixed on the sky: a bright star appears at
    consistent sky coordinates in every visit that covers it."""
    visits = [generate_visit(v, scale=60, n_sensors=6) for v in range(3)]
    # Find the global argmax in sky coordinates per visit, skipping
    # cosmic-ray pixels (which are per-visit transients by design).
    peaks = []
    for visit in visits:
        best = None
        for e in visit.exposures:
            flux = np.where(e.mask & 1, -np.inf, e.flux)
            idx = np.unravel_index(np.argmax(flux), flux.shape)
            value = flux[idx]
            sky = (e.sky_box.y0 + idx[0], e.sky_box.x0 + idx[1])
            if best is None or value > best[0]:
                best = (value, sky)
        peaks.append(best[1])
    ys = [p[0] for p in peaks]
    xs = [p[1] for p in peaks]
    assert max(ys) - min(ys) <= 3
    assert max(xs) - min(xs) <= 3


def test_variance_tracks_signal(tiny_visits):
    e = tiny_visits[0].exposures[0]
    assert np.all(e.variance > 0)
    # Brighter pixels have larger variance (Poisson-like).
    bright = e.variance[e.flux > np.percentile(e.flux, 99)].mean()
    faint = e.variance[e.flux < np.percentile(e.flux, 50)].mean()
    assert bright > faint


def test_cosmic_rays_flagged_in_mask():
    visit = generate_visit(0, scale=60, n_sensors=10)
    total_cr = sum((e.mask & 1).sum() for e in visit.exposures)
    assert total_cr > 0


def test_to_fits_roundtrip(tiny_visits):
    import io

    from repro.formats.fits import fits_bytes, read_fits

    e = tiny_visits[0].exposures[0]
    back = read_fits(io.BytesIO(fits_bytes(e.to_fits())))
    assert np.allclose(back["FLUX"].data, e.flux.astype(np.float32))
    assert back[0].header["VISIT"] == e.visit_id


def test_field_extent_covers_all_sensors(tiny_visits):
    shape = tiny_visits[0].exposures[0].shape
    fh, fw = field_extent(shape)
    for visit in tiny_visits:
        for e in visit.exposures:
            assert e.sky_box.y1 <= fh
            assert e.sky_box.x1 <= fw


def test_star_catalog_flux_distribution():
    ys, xs, fluxes = make_star_catalog(
        n_stars=500, field_height=1000, field_width=1000
    )
    assert len(ys) == 500
    assert fluxes.min() >= 500.0
    # Power-law: the brightest star dominates the median.
    assert fluxes.max() > 10 * np.median(fluxes)


def test_validation():
    with pytest.raises(ValueError):
        generate_visit(0, scale=0)
    with pytest.raises(ValueError):
        generate_visit(0, n_sensors=0)
    with pytest.raises(ValueError):
        generate_visit(0, n_sensors=61)
