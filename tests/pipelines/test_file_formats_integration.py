"""Integration: synthetic data really flows through the file formats.

The paper's ingest discussion hinges on the real formats (NIfTI, FITS)
being parsed and converted; these tests write genuine files to disk and
run pipeline steps on what comes back.
"""

from dataclasses import replace

import numpy as np

from repro.data import generate_subject, generate_visit
from repro.formats.fits import read_fits, write_fits
from repro.formats.nifti import read_nifti, write_nifti
from repro.pipelines.astro.reference import preprocess_exposure
from repro.pipelines.neuro.reference import compute_mask


def test_subject_survives_nifti_disk_roundtrip(tmp_path):
    subject = generate_subject("disk", scale=14, n_volumes=12)
    path = str(tmp_path / "subject.nii.gz")
    write_nifti(subject.to_nifti(), path)
    back = read_nifti(path)
    assert np.array_equal(back.data, subject.data.array)
    # Compressed files are much smaller than raw (mostly smooth signal).
    import os

    raw_bytes = subject.data.array.nbytes
    assert os.path.getsize(path) < raw_bytes


def test_segmentation_on_reloaded_nifti(tmp_path):
    subject = generate_subject("disk2", scale=14, n_volumes=12)
    path = str(tmp_path / "s.nii")
    write_nifti(subject.to_nifti(), path)
    reloaded = read_nifti(path)
    # Re-wrap the loaded data and check the mask is unchanged.
    original_mask = compute_mask(subject)
    rewrapped = replace(subject, data=subject.data.with_array(reloaded.data))
    assert np.array_equal(compute_mask(rewrapped), original_mask)


def test_exposure_survives_fits_disk_roundtrip(tmp_path):
    visit = generate_visit(3, scale=80, n_sensors=2)
    exposure = visit.exposures[0]
    path = str(tmp_path / "exp.fits")
    write_fits(exposure.to_fits(), path)
    back = read_fits(path)
    assert np.allclose(back["FLUX"].data, exposure.flux.astype(np.float32))
    assert back[0].header["VISIT"] == 3
    assert back[0].header["SKYY0"] == exposure.sky_box.y0


def test_preprocess_on_reloaded_fits(tmp_path):
    visit = generate_visit(4, scale=80, n_sensors=1)
    exposure = visit.exposures[0]
    path = str(tmp_path / "exp.fits")
    write_fits(exposure.to_fits(), path)
    back = read_fits(path)
    reloaded = replace(
        exposure,
        flux=back["FLUX"].data.astype(np.float64),
        variance=back["VARIANCE"].data.astype(np.float64),
        mask=back["MASK"].data.astype(np.int32),
    )
    calibrated = preprocess_exposure(reloaded)
    # Background subtraction pulled the sky level (~200) out.
    assert abs(np.median(calibrated.flux)) < 20.0
