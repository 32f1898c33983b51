"""Synthetic telescope-visit generator (astronomy stand-in).

Generates structurally faithful substitutes for the High-cadence
Transient Survey data of Section 3.2.1: each *visit* holds 60 sensor
exposures of nominally 4000 x 4072 pixels laid out on a 6 x 10 focal
plane with gaps between sensors (visible in the paper's Figure 4).
Visits of the same field are dithered by a few pixels, so a fixed star
catalog in sky coordinates appears in every visit at slightly different
detector positions.  Each exposure carries flux, variance and mask
planes, as in the FITS files of the use case, plus a sky bounding box.

Real pixels are generated at ``1/scale`` resolution and optionally for a
subset of sensors; nominal sizes stay at paper scale.

Generation is a pure function of its arguments, so it is memoized: a
process generates each visit once, however many trials read it, and
every array it returns is read-only.
"""

import functools
import zlib
from dataclasses import dataclass

import numpy as np

from repro.algorithms.patches import SkyBox
from repro.data.catalog import (
    ASTRO_SENSOR_BYTES,
    ASTRO_SENSOR_SHAPE,
    ASTRO_SENSORS_PER_VISIT,
)
from repro.formats.fits import FitsFile, FitsHDU

#: Focal plane layout: 6 columns x 10 rows of sensors = 60.
FOCAL_PLANE_COLS = 6
FOCAL_PLANE_ROWS = 10
#: Gap between adjacent sensors, as a fraction of sensor extent
#: ("Spaces between exposures show sensor boundaries", Figure 4).
SENSOR_GAP_FRACTION = 0.03
#: Maximum dither between visits, as a fraction of sensor extent.
DITHER_FRACTION = 0.25

#: Read-noise variance floor (counts^2) and sky level (counts).
READ_VARIANCE = 25.0
SKY_LEVEL = 200.0
#: Point-spread function width in (scaled) pixels.
PSF_SIGMA = 1.6


@dataclass(frozen=True)
class SensorExposure:
    """One sensor's calibrated or raw exposure.

    ``bundle`` counts the nominal sensors this real exposure stands in
    for when a visit is generated with fewer than 60 real sensors, so
    per-visit data sizes and compute costs stay at paper scale.
    """

    visit_id: int
    sensor_id: int
    flux: np.ndarray
    variance: np.ndarray
    mask: np.ndarray
    sky_box: SkyBox
    bundle: int = 1

    @property
    def nominal_bytes(self):
        """Size in bytes at the paper's nominal data scale."""
        return ASTRO_SENSOR_BYTES * self.bundle

    @property
    def nominal_elements(self):
        """Element count at the paper's nominal data scale."""
        return ASTRO_SENSOR_SHAPE[0] * ASTRO_SENSOR_SHAPE[1] * self.bundle

    @property
    def shape(self):
        """Real (scaled-down) array shape."""
        return self.flux.shape

    def to_fits(self):
        """Encode this exposure as a FITS file object."""
        header = {
            "VISIT": self.visit_id,
            "SENSOR": self.sensor_id,
            "SKYY0": self.sky_box.y0,
            "SKYX0": self.sky_box.x0,
        }
        return FitsFile(
            [
                FitsHDU(header=header),
                FitsHDU(data=self.flux.astype(np.float32), name="FLUX"),
                FitsHDU(data=self.variance.astype(np.float32), name="VARIANCE"),
                FitsHDU(data=self.mask.astype(np.int16), name="MASK"),
            ]
        )


@dataclass(frozen=True)
class Visit:
    """One visit: a dithered pass over the field with 60 sensors."""

    visit_id: int
    exposures: tuple = ()

    def __len__(self):
        return len(self.exposures)


def make_star_catalog(n_stars=600, field_height=None, field_width=None, seed=11):
    """Fixed star catalog in sky coordinates, shared by all visits.

    Returns ``(ys, xs, fluxes)`` arrays.  Fluxes follow a power law so
    a few stars are bright and most are faint, as in real fields.
    """
    rng = np.random.default_rng(seed)
    ys = rng.uniform(0, field_height, n_stars)
    xs = rng.uniform(0, field_width, n_stars)
    fluxes = 2000.0 * rng.pareto(1.7, n_stars) + 500.0
    return ys, xs, fluxes


def _sensor_grid(sensor_shape):
    """Sky origin of each sensor on the focal plane (row-major ids)."""
    h, w = sensor_shape
    gap_y = max(1, int(h * SENSOR_GAP_FRACTION))
    gap_x = max(1, int(w * SENSOR_GAP_FRACTION))
    origins = []
    for row in range(FOCAL_PLANE_ROWS):
        for col in range(FOCAL_PLANE_COLS):
            origins.append((row * (h + gap_y), col * (w + gap_x)))
    return origins


def field_extent(sensor_shape):
    """Total sky footprint (height, width) of the dithered survey."""
    h, w = sensor_shape
    origins = _sensor_grid(sensor_shape)
    max_y = max(y for y, _x in origins) + h
    max_x = max(x for _y, x in origins) + w
    dither = int(max(h, w) * DITHER_FRACTION) + 1
    return max_y + dither, max_x + dither


def _render_stars(flux, box, star_catalog):
    """Add PSF-convolved stars falling inside ``box`` to ``flux``."""
    ys, xs, star_fluxes = star_catalog
    margin = 4 * PSF_SIGMA
    inside = (
        (ys >= box.y0 - margin)
        & (ys < box.y1 + margin)
        & (xs >= box.x0 - margin)
        & (xs < box.x1 + margin)
    )
    if not inside.any():
        return
    yy, xx = np.mgrid[0: box.height, 0: box.width]
    for sy, sx, sf in zip(ys[inside], xs[inside], star_fluxes[inside]):
        dy = yy - (sy - box.y0)
        dx = xx - (sx - box.x0)
        flux += sf * np.exp(-(dy * dy + dx * dx) / (2 * PSF_SIGMA ** 2))


def _add_cosmic_rays(flux, mask, rng, rate=3):
    """Inject a few single-pixel and short-streak cosmic-ray hits."""
    n_hits = rng.poisson(rate)
    h, w = flux.shape
    for _hit in range(n_hits):
        y, x = rng.integers(0, h), rng.integers(0, w)
        length = int(rng.integers(1, 4))
        direction = rng.integers(0, 2)
        for step in range(length):
            yy = min(h - 1, y + (step if direction else 0))
            xx = min(w - 1, x + (0 if direction else step))
            flux[yy, xx] += rng.uniform(3000.0, 12000.0)
            mask[yy, xx] |= 1  # CR bit


@functools.cache
def generate_visit(visit_id, scale=25, n_sensors=None, seed=None):
    """Generate one synthetic visit.

    Memoized on the call's arguments: the same call returns the same
    read-only visit (``generate_visit.__wrapped__`` generates a fresh
    one).  Its stars come from :func:`make_star_catalog` over the
    scaled field.

    Parameters
    ----------
    visit_id:
        Visit number; determines the dither deterministically.
    scale:
        Downscale factor relative to 4000 x 4072 sensors.
    n_sensors:
        Real sensors generated (nominal stays 60).  Sensors are taken
        from the focal-plane center outward so overlaps stay realistic.
    """
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    sensor_shape = tuple(max(16, s // scale) for s in ASTRO_SENSOR_SHAPE)
    if n_sensors is None:
        n_sensors = ASTRO_SENSORS_PER_VISIT
    if not 1 <= n_sensors <= ASTRO_SENSORS_PER_VISIT:
        raise ValueError(
            f"n_sensors must be in [1, {ASTRO_SENSORS_PER_VISIT}], got {n_sensors}"
        )
    if seed is None:
        seed = _stable_seed("astro", visit_id)
    rng = np.random.default_rng(seed)

    fh, fw = field_extent(sensor_shape)
    star_catalog = make_star_catalog(field_height=fh, field_width=fw)

    # Deterministic per-visit dither.
    dither_rng = np.random.default_rng(visit_id * 7919 + 13)
    max_dither = max(1, int(max(sensor_shape) * DITHER_FRACTION))
    dy = int(dither_rng.integers(0, max_dither))
    dx = int(dither_rng.integers(0, max_dither))

    origins = _sensor_grid(sensor_shape)
    # Center-out ordering so partial generation keeps adjacent sensors.
    center = (FOCAL_PLANE_ROWS / 2.0, FOCAL_PLANE_COLS / 2.0)
    order = sorted(
        range(len(origins)),
        key=lambda i: (
            (i // FOCAL_PLANE_COLS - center[0]) ** 2
            + (i % FOCAL_PLANE_COLS - center[1]) ** 2
        ),
    )

    h, w = sensor_shape
    exposures = []
    sky_gradient = rng.uniform(0.02, 0.08)
    bundle = max(1, round(ASTRO_SENSORS_PER_VISIT / n_sensors))
    for sensor_id in order[:n_sensors]:
        oy, ox = origins[sensor_id]
        box = SkyBox(oy + dy, ox + dx, h, w)
        yy, xx = np.mgrid[0:h, 0:w]
        background = SKY_LEVEL * (
            1.0 + sky_gradient * ((box.y0 + yy) + (box.x0 + xx)) / (1000.0 + h + w)
        )
        flux = background.astype(np.float64)
        _render_stars(flux, box, star_catalog)
        # Poisson-ish noise: variance tracks the signal.
        variance = flux + READ_VARIANCE
        flux = flux + rng.normal(0.0, np.sqrt(variance))
        mask = np.zeros(sensor_shape, dtype=np.int32)
        _add_cosmic_rays(flux, mask, rng)
        for array in (flux, variance, mask):
            array.flags.writeable = False
        exposures.append(
            SensorExposure(
                visit_id=visit_id,
                sensor_id=sensor_id,
                flux=flux,
                variance=variance,
                mask=mask,
                sky_box=box,
                bundle=bundle,
            )
        )
    return Visit(visit_id=visit_id, exposures=tuple(exposures))


def _stable_seed(*parts):
    """Process-independent seed (Python's ``hash`` is salted)."""
    return zlib.crc32("/".join(str(p) for p in parts).encode("utf-8"))
