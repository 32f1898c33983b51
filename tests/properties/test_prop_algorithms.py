"""Property-based tests: algorithm invariants."""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.algorithms.background import estimate_background
from repro.algorithms.coadd import coadd_stack, sigma_clip_stack
from repro.algorithms.cosmicray import detect_cosmic_rays, repair_cosmic_rays
from repro.algorithms.dtm import fractional_anisotropy, tensor_eigenvalues
from repro.algorithms.memo import memoized
from repro.algorithms.nlmeans import nlmeans_3d
from repro.algorithms.otsu import otsu_threshold
from repro.algorithms.patches import PatchGrid, SkyBox
from repro.algorithms.sources import detect_sources, label_regions
from repro.algorithms.stencil import median, median_filter_2d, median_filter_3d
from repro.formats.sizing import SizedArray
from repro.pipelines.astro.reference import patch_pieces, stitch_pieces
from tests.algorithms.test_background import (
    BACKGROUND_CLASSES,
    _reference_estimate_background,
)
from tests.algorithms.test_coadd import (
    STACK_CLASSES,
    _reference_sigma_clip_stack,
)
from tests.algorithms.test_cosmicray import (
    _reference_detect_cosmic_rays,
    _reference_repair_cosmic_rays,
    hits,
)
from tests.algorithms.test_nlmeans import (
    MASKS,
    ONE_ROW_SHAPE,
    _reference_nlmeans_3d,
)
from tests.algorithms.test_patches import (
    _reference_patch_pieces,
    assert_same_pieces,
    exposure_at,
)
from tests.algorithms.test_sources import (
    SOURCE_CLASSES,
    _reference_detect_sources,
    _reference_label_regions,
    source_bits,
)
from tests.algorithms.test_stencil import (
    VALUE_CLASSES,
    _reference_median_filter,
    assert_same_bytes,
)
from tests.pipelines.test_astro_reference import _reference_stitch_pieces


@given(
    hnp.arrays(
        np.float64, st.integers(20, 200),
        elements=st.floats(-1e6, 1e6, allow_nan=False),
    )
)
@settings(max_examples=50, deadline=None)
def test_otsu_threshold_within_range(values):
    assume(values.min() != values.max())
    t = otsu_threshold(values)
    assert values.min() <= t <= values.max()


@given(
    hnp.arrays(
        np.float64, st.integers(20, 200),
        elements=st.floats(-1e5, 1e5, allow_nan=False),
    ),
    st.floats(-1e3, 1e3),
)
@settings(max_examples=30, deadline=None)
@example(
    values=np.array([2.22507386e-313] + [0.0] * 19),
    shift=1.0,
).via("discovered failure")
def test_otsu_shift_equivariance(values, shift):
    assume(values.min() != values.max())
    shifted = values + shift
    # Adding the shift in float64 can annihilate a tiny span entirely
    # (e.g. a denormal next to 1.0), leaving a constant array that no
    # implementation could threshold -- the property is vacuous there.
    assume(shifted.min() != shifted.max())
    t1 = otsu_threshold(values)
    t2 = otsu_threshold(shifted)
    span = values.max() - values.min()
    assert abs((t2 - shift) - t1) < 0.02 * span + 1e-6


@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(3, 6), st.integers(3, 6), st.integers(3, 6)),
        elements=st.floats(-100, 100, allow_nan=False),
    )
)
@settings(max_examples=30, deadline=None)
def test_median_filter_output_within_input_range(volume):
    out = median_filter_3d(volume, radius=1)
    assert out.min() >= volume.min() - 1e-9
    assert out.max() <= volume.max() + 1e-9


@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(10, 24), st.integers(2, 5), st.integers(2, 5)),
        elements=st.floats(-1000, 1000, allow_nan=False),
    )
)
@settings(max_examples=30, deadline=None)
def test_sigma_clip_only_removes_never_alters(stack):
    clipped = sigma_clip_stack(stack.copy())
    surviving = ~np.isnan(clipped)
    assert np.array_equal(clipped[surviving], stack[surviving])


@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(10, 24), st.integers(2, 5), st.integers(2, 5)),
        elements=st.floats(-1000, 1000, allow_nan=False),
    )
)
@settings(max_examples=30, deadline=None)
def test_coadd_bounded_by_unclipped_sum(stack):
    coadd, counts = coadd_stack(stack.copy())
    assert counts.max() <= stack.shape[0]
    assert counts.min() >= 0
    # The coadd of surviving values can never exceed the sum of all
    # positive values (and symmetric for negative).
    positive_bound = np.where(stack > 0, stack, 0).sum(axis=0)
    negative_bound = np.where(stack < 0, stack, 0).sum(axis=0)
    assert np.all(coadd <= positive_bound + 1e-6)
    assert np.all(coadd >= negative_bound - 1e-6)


@given(
    st.tuples(st.floats(1e-6, 1.0), st.floats(1e-6, 1.0), st.floats(1e-6, 1.0))
)
@settings(max_examples=50, deadline=None)
def test_fa_in_unit_interval(evals):
    fa = fractional_anisotropy(np.array([sorted(evals, reverse=True)]))
    assert 0.0 <= fa[0] <= 1.0


@given(
    st.floats(-1e-2, 1e-2), st.floats(-1e-2, 1e-2), st.floats(-1e-2, 1e-2),
    st.floats(-1e-3, 1e-3), st.floats(-1e-3, 1e-3), st.floats(-1e-3, 1e-3),
)
@settings(max_examples=50, deadline=None)
def test_eigenvalues_sum_to_trace(dxx, dyy, dzz, dxy, dxz, dyz):
    elements = np.array([[dxx, dyy, dzz, dxy, dxz, dyz]])
    evals = tensor_eigenvalues(elements)[0]
    assert np.isclose(evals.sum(), dxx + dyy + dzz, atol=1e-9)
    assert evals[0] >= evals[1] >= evals[2]


@given(
    st.integers(1, 50), st.integers(1, 50),
    st.integers(0, 300), st.integers(0, 300),
    st.integers(1, 120), st.integers(1, 120),
)
@settings(max_examples=60, deadline=None)
def test_patch_fanout_covers_box(ph, pw, y0, x0, h, w):
    grid = PatchGrid(ph, pw)
    box = SkyBox(y0, x0, h, w)
    patches = grid.overlapping_patches(box)
    assert patches
    # Every patch genuinely intersects, and the union of intersections
    # covers the box's area exactly once.
    total = 0
    for patch_id in patches:
        overlap = box.intersect(grid.patch_box(patch_id))
        assert overlap is not None
        total += overlap.height * overlap.width
    assert total == box.height * box.width


@given(
    hnp.arrays(bool, st.tuples(st.integers(1, 12), st.integers(1, 12)))
)
@settings(max_examples=60, deadline=None)
def test_labeling_partitions_foreground(mask):
    labels, n = label_regions(mask)
    assert (labels > 0).sum() == mask.sum()
    assert set(np.unique(labels)) <= set(range(n + 1))
    # Every label in 1..n is used.
    if n:
        assert set(np.unique(labels[labels > 0])) == set(range(1, n + 1))


@given(
    hnp.arrays(bool, st.tuples(st.integers(2, 10), st.integers(2, 10)))
)
@settings(max_examples=60, deadline=None)
def test_labeling_8_coarser_than_4(mask):
    _l8, n8 = label_regions(mask, connectivity=8)
    _l4, n4 = label_regions(mask, connectivity=4)
    assert n8 <= n4


@given(
    hnp.arrays(bool, st.tuples(st.integers(1, 12), st.integers(1, 12))),
    st.sampled_from([4, 8]),
)
@settings(max_examples=60, deadline=None)
def test_labeling_matches_full_image_second_pass(mask, connectivity):
    labels, n = label_regions(mask, connectivity)
    want, want_n = _reference_label_regions(mask, connectivity)
    assert_same_bytes(labels, want)
    assert n == want_n


# The denoiser and the three astronomy kernels against the loops they
# replaced (the oracles live with the unit tests): same bytes on every
# shape, radius and value class, not only on the hand-picked ones.

@given(
    # Axes down to 1 voxel are shorter than patch_radius + block_radius,
    # so the reflect padding wraps more than once.
    shape=st.one_of(
        st.just((1, 4, 6)),
        st.tuples(*[st.integers(1, 10)] * 3),
        st.just(ONE_ROW_SHAPE),
    ),
    dtype=st.sampled_from([np.float32, np.float64]),
    mask_kind=st.sampled_from(sorted(MASKS)),
    patch_radius=st.integers(0, 2),
    block_radius=st.integers(1, 3),
    sigma=st.floats(0.5, 30.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_nlmeans_bytes_match_reference_loop(
    shape, dtype, mask_kind, patch_radius, block_radius, sigma, seed
):
    rng = np.random.default_rng(seed)
    volume = rng.normal(100.0, 25.0, shape).astype(dtype)
    mask = MASKS[mask_kind](rng, shape)
    args = (volume, sigma, mask, patch_radius, block_radius)
    assert (nlmeans_3d.__wrapped__(*args).tobytes()
            == _reference_nlmeans_3d(*args).tobytes())


@given(
    shape=st.one_of(
        st.tuples(st.integers(1, 14), st.integers(1, 14)),
        st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7)),
    ),
    radius=st.integers(0, 3),
    value_class=st.sampled_from(sorted(VALUE_CLASSES)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_median_filter_bytes_match_np_median(shape, radius, value_class, seed):
    # Axes shorter than the radius make the reflect padding wrap.
    volume = VALUE_CLASSES[value_class](np.random.default_rng(seed), shape)
    median_filter = median_filter_2d if len(shape) == 2 else median_filter_3d
    assert_same_bytes(
        median_filter(volume, radius), _reference_median_filter(volume, radius)
    )


@given(
    shape=st.tuples(st.integers(1, 30), st.integers(1, 30)),
    box_size=st.integers(1, 40),
    n_sigma=st.sampled_from([3.0, 2.0, 1.0, 0.5]),
    value_class=st.sampled_from(sorted(BACKGROUND_CLASSES)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_background_bytes_match_per_box_loop(
    shape, box_size, n_sigma, value_class, seed
):
    image = BACKGROUND_CLASSES[value_class](np.random.default_rng(seed), shape)
    assert_same_bytes(
        estimate_background(image, box_size, n_sigma),
        _reference_estimate_background(image, box_size, n_sigma),
    )


@given(
    shape=st.tuples(st.integers(1, 14), st.integers(1, 14)),
    radius=st.integers(0, 3),
    flagged=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    value_class=st.sampled_from(sorted(VALUE_CLASSES)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_repair_bytes_match_full_image_filter(
    shape, radius, flagged, value_class, seed
):
    rng = np.random.default_rng(seed)
    image = VALUE_CLASSES[value_class](rng, shape)
    mask = rng.random(shape) < flagged
    assert_same_bytes(
        repair_cosmic_rays(image, mask, radius),
        _reference_repair_cosmic_rays(image, mask, radius),
    )


@given(
    shape=st.tuples(st.integers(1, 14), st.integers(1, 14)),
    n_hits=st.sampled_from([0, 1, 5, 200]),
    variance=st.sampled_from(["none", "plane", "zero"]),
    radius=st.integers(0, 3),
    value_class=st.sampled_from(sorted(VALUE_CLASSES)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_detect_bytes_match_whole_image_detector(
    shape, n_hits, variance, radius, value_class, seed
):
    # Candidates: none, one, a few, or every pixel of a small image;
    # NaN and infinite pixels come with their value classes.
    rng = np.random.default_rng(seed)
    image = hits(rng, VALUE_CLASSES[value_class](rng, shape), n_hits)
    variance = {
        "none": None,
        "plane": rng.uniform(0.5, 30.0, shape),
        "zero": np.zeros(shape),
    }[variance]
    with np.errstate(invalid="ignore"):  # inf - inf in the residual
        assert_same_bytes(
            detect_cosmic_rays(image, variance, radius=radius),
            _reference_detect_cosmic_rays(image, variance, radius=radius),
        )


# The astronomy steps against the forms they replaced: Step 2-A's
# pieces and stitching, Step 3-A's clip, Step 4-A's detection.

@given(
    # Patches down to 1 x 1 and boxes wider than a patch: every ragged
    # overlap, 1 to many pieces.
    patch=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    corner=st.tuples(st.integers(0, 30), st.integers(0, 30)),
    size=st.tuples(st.integers(1, 25), st.integers(1, 25)),
    pixel_scale=st.sampled_from([1.0, 2.0, 4.0, 6.25, 100.0]),
    value_class=st.sampled_from(sorted(VALUE_CLASSES)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_patch_pieces_match_reference(patch, corner, size, pixel_scale,
                                      value_class, seed):
    flux = VALUE_CLASSES[value_class](np.random.default_rng(seed), size)
    exposure = exposure_at(flux, SkyBox(*corner, *size), visit_id=seed % 7)
    grid = PatchGrid(*patch)
    assert_same_pieces(patch_pieces(exposure, grid, pixel_scale),
                       _reference_patch_pieces(exposure, grid, pixel_scale))


@given(
    shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    n_pieces=st.integers(1, 4),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_stitch_pieces_match_reference(shape, n_pieces, dtype, seed):
    rng = np.random.default_rng(seed)
    pieces = []
    for _piece in range(n_pieces):
        array = VALUE_CLASSES["nan"](rng, shape).astype(dtype)
        array[rng.random(shape) < 0.5] = np.nan
        pieces.append(SizedArray(array, meta={"patch": (0, 1), "side": 2}))
    assert_same_pieces([(0, stitch_pieces(pieces))],
                       [(0, _reference_stitch_pieces(pieces))])


@given(
    # One-visit stacks, 1 x 1 patches, and the quick profile's 40 x 26.
    shape=st.one_of(
        st.tuples(st.integers(1, 12), st.integers(1, 5), st.integers(1, 5)),
        st.just((4, 40, 26)),
    ),
    stack_class=st.sampled_from(sorted(STACK_CLASSES)),
    n_sigma=st.sampled_from([3.0, 2.0, 1.0, 0.5]),
    n_iter=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_sigma_clip_bytes_match_nanfunctions(shape, stack_class, n_sigma,
                                             n_iter, seed):
    stack = STACK_CLASSES[stack_class](np.random.default_rng(seed), shape)
    assert_same_bytes(sigma_clip_stack(stack, n_sigma, n_iter),
                      _reference_sigma_clip_stack(stack, n_sigma, n_iter))


@given(
    shape=st.tuples(st.integers(1, 30), st.integers(1, 30)),
    value_class=st.sampled_from(sorted(SOURCE_CLASSES)),
    n_sigma=st.sampled_from([5.0, 2.0, 0.5]),
    npix_min=st.integers(1, 4),
    connectivity=st.sampled_from([4, 8]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_detect_sources_match_reference(shape, value_class, n_sigma,
                                        npix_min, connectivity, seed):
    image = SOURCE_CLASSES[value_class](np.random.default_rng(seed), shape)
    args = (image, n_sigma, npix_min, connectivity)
    with np.errstate(invalid="ignore", over="ignore"):
        assert (source_bits(detect_sources.__wrapped__(*args))
                == source_bits(_reference_detect_sources(*args)))


# A memo is a function of the arguments' values: any sequence of calls
# returns what the kernel returns, and computes once per distinct input,
# where inputs differing only in dtype, shape or scalar type (1, 1.0,
# True and np.float64(1.0) compare equal) are distinct.

@given(
    calls=st.lists(
        st.tuples(
            st.sampled_from(["|b1", "|u1", "<i4", "<f4", "<f8"]),
            st.sampled_from([(), (0,), (4,), (2, 2), (1, 4)]),
            st.integers(0, 2),
            st.sampled_from([None, 1, 1.0, True, "1", np.float64(1.0)]),
        ),
        min_size=1, max_size=12,
    ),
)
@settings(max_examples=100, deadline=None)
def test_memo_returns_the_kernel_result_once_per_distinct_input(calls):
    computed = []

    def echo(array, scale=None):
        computed.append(None)
        return array.copy(), scale

    kernel = memoized(echo)
    distinct = set()
    for dtype, shape, seed, scale in calls:
        size = int(np.prod(shape)) * np.dtype(dtype).itemsize
        # 0/1 bytes are valid values of every dtype drawn, bool included.
        raw = np.random.default_rng(seed).integers(0, 2, size, dtype=np.uint8)
        array = raw.view(dtype).reshape(shape)
        result, echoed = kernel(array, scale=scale)
        assert result.dtype == array.dtype and result.shape == array.shape
        assert result.tobytes() == array.tobytes()
        assert type(echoed) is type(scale) and echoed == scale
        result[...] = 1  # a later hit must not see this
        distinct.add((dtype, shape, array.tobytes(), type(scale), repr(scale)))
    assert len(computed) == len(distinct)


#: What a median can meet: signed zeros, infinities and NaN among
#: ordinary values (NaN partitions last and makes the median NaN; an
#: even length averages -inf with inf to NaN).
_MEDIAN_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
    st.floats(-1e6, 1e6, allow_nan=False),
)


def _assert_median_bytes(ours, theirs):
    assert type(ours) is type(theirs)
    assert np.asarray(ours).dtype == np.asarray(theirs).dtype
    assert np.asarray(ours).tobytes() == np.asarray(theirs).tobytes()


@given(
    st.sampled_from([np.float64, np.float32]),
    st.integers(1, 3),
    st.integers(1, 12),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_median_bytes_match_np_median(dtype, rows, length, data):
    """The flat form (cosmic-ray MAD, source threshold) and the
    ``axis=1`` form (background boxes) return ``np.median``'s bytes and
    type, odd lengths and even."""
    values = data.draw(hnp.arrays(dtype, (rows, length),
                                  elements=_MEDIAN_VALUES))
    with np.errstate(invalid="ignore"):
        _assert_median_bytes(median(values[0]), np.median(values[0]))
        _assert_median_bytes(median(values), np.median(values))
        _assert_median_bytes(median(values, axis=1),
                             np.median(values, axis=1))
