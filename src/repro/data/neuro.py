"""Synthetic diffusion-MRI subject generator (neuroscience stand-in).

Generates structurally faithful substitutes for Human Connectome Project
S900 subjects (Section 3.1.1): a 4-D array of diffusion-weighted 3-D
volumes over an ellipsoidal brain phantom containing an anisotropic
white-matter tract, plus the gradient table (b-values/b-vectors) whose
b0 entries drive the segmentation step.

Real arrays are generated at ``1/scale`` of the paper's resolution so
tests and examples run in seconds; nominal shapes stay at paper scale
(145 x 145 x 174 x 288) for the simulator's cost accounting.

Generation is a pure function of its arguments, so it is memoized: a
process generates each subject once, however many trials read it, and
every array it returns is read-only.
"""

import functools
import zlib
from dataclasses import dataclass

import numpy as np

from repro.algorithms.dtm import GradientTable
from repro.data.catalog import (
    NEURO_N_B0,
    NEURO_N_VOLUMES,
    NEURO_VOLUME_SHAPE,
    neuro_subject_bytes,
)
from repro.formats.nifti import NiftiImage
from repro.formats.sizing import SizedArray

#: Baseline (non-diffusion-weighted) signal inside the brain.
S0_BRAIN = 1000.0
#: Background (skull/air) signal level.
S0_BACKGROUND = 40.0
#: Isotropic diffusivity of grey matter (mm^2/s).
D_ISOTROPIC = 0.7e-3
#: Tract eigenvalues: strongly anisotropic white matter.
D_TRACT = (1.7e-3, 0.2e-3, 0.2e-3)
#: b-value of the diffusion-weighted shells.
B_VALUE = 1000.0


@dataclass(frozen=True)
class Subject:
    """One synthetic subject: data, acquisition metadata, bookkeeping."""

    subject_id: str
    data: SizedArray          # 4-d (x, y, z, volumes), float32
    gtab: GradientTable
    brain_mask_truth: np.ndarray  # ground-truth mask for tests

    @property
    def n_volumes(self):
        """N volumes."""
        return self.data.array.shape[-1]

    @property
    def bundle(self):
        """Nominal volumes represented by each real volume.

        When a subject is generated with fewer than 288 real volumes,
        each real volume stands in for a *bundle* of nominal volumes so
        per-record data sizes and compute costs stay at paper scale.
        """
        return max(1, round(NEURO_N_VOLUMES / self.n_volumes))

    @property
    def nominal_bytes(self):
        """Size in bytes at the paper's nominal data scale."""
        return neuro_subject_bytes()

    @functools.cached_property
    def volumes(self):
        """The 3-d volumes as :class:`SizedArray` records (the
        pipelines' unit of parallelism), built once per subject.

        The nominal shape carries the bundle factor on the z axis so
        that ``nominal_elements``/``nominal_bytes`` of all of a
        subject's volume records sum to the full 4-D dataset.
        """
        x, y, z = NEURO_VOLUME_SHAPE
        nominal = (x, y, z * self.bundle)
        return tuple(
            SizedArray(
                self.data.array[..., index],
                nominal_shape=nominal,
                meta={"subject_id": self.subject_id, "image_id": index},
            )
            for index in range(self.n_volumes)
        )

    def to_nifti(self):
        """The subject as a NIfTI-1 image (1.25 mm isotropic, per the
        paper's nominal resolution)."""
        return NiftiImage(
            self.data.array.astype(np.float32),
            pixdim=(1.25, 1.25, 1.25, 1.0),
            descrip=f"synthetic dMRI subject {self.subject_id}",
        )


def make_gradient_table(n_volumes=NEURO_N_VOLUMES, n_b0=None, seed=7):
    """Gradient table with the paper's b0 fraction (18 of 288).

    Directions are spread over the unit sphere with a deterministic
    Fibonacci spiral, which gives well-conditioned design matrices even
    for small ``n_volumes``.
    """
    if n_volumes < 10:
        raise ValueError(f"need at least 10 volumes for a stable fit, got {n_volumes}")
    if n_b0 is None:
        n_b0 = max(2, round(n_volumes * NEURO_N_B0 / NEURO_N_VOLUMES))
    n_dw = n_volumes - n_b0
    if n_dw < 7:
        raise ValueError(
            f"need at least 7 diffusion-weighted volumes, got {n_dw}"
        )

    indices = np.arange(n_dw, dtype=np.float64)
    golden = (1 + 5 ** 0.5) / 2
    theta = 2 * np.pi * indices / golden
    z = 1 - 2 * (indices + 0.5) / n_dw
    r = np.sqrt(np.maximum(0.0, 1 - z * z))
    directions = np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)

    bvals = np.zeros(n_volumes)
    bvecs = np.zeros((n_volumes, 3))
    # Interleave b0 volumes through the acquisition, as HCP does.
    b0_positions = np.linspace(0, n_volumes - 1, n_b0).round().astype(int)
    is_b0 = np.zeros(n_volumes, dtype=bool)
    is_b0[b0_positions] = True
    dw_positions = np.flatnonzero(~is_b0)
    bvals[dw_positions] = B_VALUE
    bvecs[dw_positions] = directions
    return GradientTable(bvals, bvecs)


def _brain_geometry(shape):
    """Ground-truth masks: ellipsoidal brain and an interior tract."""
    zz, yy, xx = [np.arange(s, dtype=np.float64) for s in shape]
    grid = np.meshgrid(zz, yy, xx, indexing="ij")
    center = [(s - 1) / 2.0 for s in shape]
    radii = [s * 0.38 for s in shape]
    dist = sum(
        ((g - c) / r) ** 2 for g, c, r in zip(grid, center, radii)
    )
    brain = dist <= 1.0

    # A slab-shaped "tract" through the middle third, oriented along x.
    tract = np.zeros(shape, dtype=bool)
    z0, z1 = int(shape[0] * 0.42), max(int(shape[0] * 0.58), int(shape[0] * 0.42) + 1)
    y0, y1 = int(shape[1] * 0.35), max(int(shape[1] * 0.65), int(shape[1] * 0.35) + 1)
    tract[z0:z1, y0:y1, :] = True
    tract &= brain
    return brain, tract


@functools.cache
def generate_subject(subject_id, scale=8, n_volumes=36, noise_sigma=12.0, seed=None):
    """Generate one synthetic subject.

    Memoized on the call's arguments: the same call returns the same
    read-only subject (``generate_subject.__wrapped__`` generates a
    fresh one).

    Parameters
    ----------
    subject_id:
        Stable identifier; also seeds the noise when ``seed`` is None,
        so each subject is distinct but reproducible.
    scale:
        Downscale factor per spatial axis relative to 145 x 145 x 174.
    n_volumes:
        Real volumes generated (nominal stays 288).
    noise_sigma:
        Gaussian noise added to the signal (SNR knob for denoising).
    """
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    shape = tuple(max(8, s // scale) for s in NEURO_VOLUME_SHAPE)
    if seed is None:
        seed = _stable_seed("neuro", subject_id)
    rng = np.random.default_rng(seed)

    gtab = make_gradient_table(n_volumes=n_volumes)
    brain, tract = _brain_geometry(shape)

    # Per-voxel diffusion tensors: isotropic in brain, anisotropic in
    # the tract; background has near-zero signal.
    b = gtab.bvals
    g = gtab.bvecs
    # Quadratic forms g^T D g for the two tissue classes.
    q_iso = D_ISOTROPIC * np.sum(g * g, axis=1)
    d_tract = np.diag(D_TRACT)
    q_tract = np.einsum("ni,ij,nj->n", g, d_tract, g)

    signal_iso = S0_BRAIN * np.exp(-b * q_iso)
    signal_tract = S0_BRAIN * np.exp(-b * q_tract)

    data = np.empty(shape + (n_volumes,), dtype=np.float64)
    data[...] = S0_BACKGROUND * 0.05
    data[brain & ~tract] = signal_iso
    data[tract] = signal_tract
    # Mild *smooth* spatial modulation so volumes are not
    # piecewise-constant: tissue properties vary gradually, which is
    # also what lets patch-based denoising find similar neighborhoods.
    from repro.algorithms.stencil import convolve3d

    field = rng.standard_normal(shape)
    smooth_field = convolve3d(field, np.full((5, 5, 5), 1.0 / 125.0))
    spread = max(smooth_field.std(), 1e-9)
    modulation = 1.0 + 0.03 * (smooth_field / spread)[..., None]
    data *= modulation
    data += rng.normal(0.0, noise_sigma, size=data.shape)
    data = np.clip(data, 0.0, None).astype(np.float32)
    for array in (data, brain, gtab.bvals, gtab.bvecs):
        array.flags.writeable = False

    sized = SizedArray(
        data,
        nominal_shape=NEURO_VOLUME_SHAPE + (NEURO_N_VOLUMES,),
        meta={"subject_id": subject_id},
    )
    return Subject(
        subject_id=subject_id,
        data=sized,
        gtab=gtab,
        brain_mask_truth=brain,
    )


def _stable_seed(*parts):
    """Process-independent seed (Python's ``hash`` is salted)."""
    return zlib.crc32("/".join(str(p) for p in parts).encode("utf-8"))
