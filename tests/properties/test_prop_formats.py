"""Property-based tests: format round-trips."""

import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.formats.csvconv import array_to_csv, array_to_tsv, csv_to_array, tsv_to_array
from repro.formats.fits import FitsFile, FitsHDU, fits_bytes, read_fits
from repro.formats.nifti import NiftiImage, nifti_bytes, read_nifti

small_shapes_3d = st.tuples(
    st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)
)
small_shapes_2d = st.tuples(st.integers(1, 8), st.integers(1, 8))


@st.composite
def float32_volumes(draw):
    shape = draw(small_shapes_3d)
    return draw(
        hnp.arrays(
            np.float32,
            shape,
            elements=st.floats(-1e6, 1e6, width=32, allow_nan=False),
        )
    )


@st.composite
def float32_images(draw):
    shape = draw(small_shapes_2d)
    return draw(
        hnp.arrays(
            np.float32,
            shape,
            elements=st.floats(-1e6, 1e6, width=32, allow_nan=False),
        )
    )


@given(float32_volumes(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_nifti_roundtrip_preserves_data(volume, compress):
    image = NiftiImage(volume)
    back = read_nifti(io.BytesIO(nifti_bytes(image, compress=compress)))
    assert back.data.dtype == volume.dtype
    assert np.array_equal(back.data, volume)


@given(float32_images())
@settings(max_examples=40, deadline=None)
def test_fits_roundtrip_preserves_data(image):
    f = FitsFile([FitsHDU(), FitsHDU(data=image, name="DATA")])
    back = read_fits(io.BytesIO(fits_bytes(f)))
    assert np.array_equal(back["DATA"].data, image)


@given(float32_images())
@settings(max_examples=40, deadline=None)
def test_fits_file_size_block_aligned(image):
    f = FitsFile([FitsHDU(data=image)])
    assert len(fits_bytes(f)) % 2880 == 0


@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(1, 5)),
        elements=st.floats(-1e12, 1e12, allow_nan=False),
    )
)
@settings(max_examples=40, deadline=None)
def test_csv_roundtrip_exact(array):
    text = array_to_csv(array)
    back = csv_to_array(text, array.shape)
    # repr() round-trips float64 exactly.
    assert np.array_equal(back, array)


@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(1, 5)),
        elements=st.floats(-1e12, 1e12, allow_nan=False),
    )
)
@settings(max_examples=40, deadline=None)
def test_tsv_roundtrip_exact(array):
    assert np.array_equal(tsv_to_array(array_to_tsv(array)), array)
