"""Tests for the content-keyed kernel memo."""

import hashlib

import numpy as np
import pytest

from repro.algorithms import dtm
from repro.algorithms.memo import memoized
from repro.algorithms.nlmeans import nlmeans_3d
from repro.algorithms.sources import detect_sources
from repro.harness.figures import FIGURES
from repro.harness.parallel import TRIAL_FNS
from repro.pipelines.astro import reference

#: Every memoized function with a small call it repeats.
KERNEL_CALLS = {
    "nlmeans_3d": (nlmeans_3d, lambda rng: (
        (rng.normal(100.0, 12.0, (6, 6, 7)),),
        {"sigma": 12.0, "mask": rng.random((6, 6, 7)) < 0.5},
    )),
    "detect_sources": (detect_sources, lambda rng: (
        (_sky(rng),), {"n_sigma": 5.0, "npix_min": 1},
    )),
    "_calibrate": (reference._calibrate, lambda rng: (
        (_sky(rng), np.full((40, 40), 25.0), 8), {},
    )),
    "_coadd_planes": (reference._coadd_planes, lambda rng: (
        tuple(_sky(rng).astype(np.float32) for _visit in range(3)), {},
    )),
    "_fit_planes": (dtm._fit_planes, lambda rng: (
        (rng.normal(100.0, 5.0, (3, 3, 2, 7)), rng.random((3, 3, 2)) < 0.7,
         np.array([0.0] + [1000.0] * 6),
         np.vstack([np.zeros(3), np.eye(3), np.eye(3)[::-1]])), {},
    )),
}


def _sky(rng):
    image = rng.normal(200.0, 5.0, (40, 40))
    image[rng.random((40, 40)) < 0.01] += 900.0
    return image


def _counting(kernel=lambda array, scale=1.0: np.asarray(array) * scale):
    """A fresh memo over ``kernel``, and the list of calls that reached it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    return memoized(counted), calls


@pytest.mark.parametrize("name", sorted(KERNEL_CALLS))
def test_a_hit_returns_the_bytes_and_dtype_of_the_kernel(name, rng):
    kernel, make = KERNEL_CALLS[name]
    args, kwargs = make(rng)
    kernel.cache_clear()
    expected = kernel.__wrapped__(*args, **kwargs)
    for _call in range(2):  # a miss, then a hit
        _assert_same_result(kernel(*args, **kwargs), expected)


def _assert_same_result(result, expected):
    assert type(result) is type(expected)
    if isinstance(expected, tuple):  # Step 1-A: flux and mask
        for got, want in zip(result, expected, strict=True):
            _assert_same_result(got, want)
    elif isinstance(expected, list):  # sources: frozen records
        assert result == expected
    else:
        assert result.dtype == expected.dtype
        assert result.shape == expected.shape
        assert result.tobytes() == expected.tobytes()
        assert result.flags.writeable


def test_a_hit_reads_the_table_instead_of_computing():
    kernel, calls = _counting()
    array = np.arange(6.0)
    kernel(array, scale=2.0)
    kernel(array.copy(), scale=2.0)
    assert len(calls) == 1


def test_writing_to_a_result_does_not_change_a_later_result():
    kernel, calls = _counting()
    array = np.arange(6.0)
    first = kernel(array)
    first[:] = -1.0
    second = kernel(array)
    second[:] = -2.0
    assert kernel(array).tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert len(calls) == 1


def test_writing_to_the_input_after_a_call_does_not_change_a_later_result():
    kernel, calls = _counting(lambda array: array)  # returns its own input
    array = np.arange(6.0)
    kernel(array)
    array[:] = 7.0
    assert kernel(np.arange(6.0)).tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert len(calls) == 1


def test_a_returned_list_is_a_new_list_each_call():
    kernel, _calls = _counting(lambda array: [float(array.sum())])
    for _call in range(3):
        result = kernel(np.ones(3))
        assert result == [3.0]
        result.append("extra")


def test_a_returned_tuple_holds_fresh_arrays():
    kernel, _calls = _counting(lambda array: (array * 2.0, array + 1.0))
    doubled, _shifted = kernel(np.ones(3))
    doubled[:] = 0.0
    doubled, shifted = kernel(np.ones(3))
    assert doubled.tolist() == [2.0, 2.0, 2.0]
    assert shifted.tolist() == [2.0, 2.0, 2.0]


@pytest.mark.parametrize("change", [
    "byte", "dtype", "shape", "scalar", "scalar type", "keyword", "missing",
])
def test_a_changed_input_misses(change):
    kernel, calls = _counting()
    array = np.arange(6, dtype=np.int64)
    kernel(array, scale=2)
    other = {
        "byte": lambda: kernel(np.arange(1, 7, dtype=np.int64), scale=2),
        # the same bytes as another dtype or shape
        "dtype": lambda: kernel(array.view(np.float64), scale=2),
        "shape": lambda: kernel(array.reshape(2, 3), scale=2),
        "scalar": lambda: kernel(array, scale=3),
        "scalar type": lambda: kernel(array, scale=2.0),
        "keyword": lambda: kernel(array, 2),
        "missing": lambda: kernel(array),
    }[change]
    other()
    assert len(calls) == 2


def test_a_keyword_is_not_its_name_and_value_passed_by_position():
    kernel, calls = _counting(lambda array, *args, **kwargs: (args, kwargs))
    assert kernel(np.ones(2), scale=2) == ((), {"scale": 2})
    assert kernel(np.ones(2), "scale", 2) == (("scale", 2), {})
    assert len(calls) == 2


def test_the_same_values_in_another_layout_hit():
    """The key is the C-order bytes, not the memory layout."""
    kernel, calls = _counting()
    array = np.arange(12.0).reshape(3, 4)
    kernel(array)
    kernel(np.asfortranarray(array))
    wide = np.zeros((3, 8))
    wide[:, ::2] = array
    kernel(wide[:, ::2])
    assert len(calls) == 1


def test_a_raising_call_is_not_cached():
    outcomes = [ValueError("transient"), None]

    def flaky(array):
        error = outcomes.pop(0)
        if error is not None:
            raise error
        return array + 1.0

    kernel, calls = _counting(flaky)
    with pytest.raises(ValueError, match="transient"):
        kernel(np.zeros(2))
    assert kernel(np.zeros(2)).tolist() == [1.0, 1.0]
    assert kernel(np.zeros(2)).tolist() == [1.0, 1.0]
    assert len(calls) == 2


def test_a_real_kernel_raises_every_time_it_is_given_a_bad_input():
    nlmeans_3d.cache_clear()
    for _call in range(2):
        with pytest.raises(ValueError, match="sigma"):
            nlmeans_3d(np.zeros((4, 4, 4)), sigma=0.0)


@pytest.mark.parametrize("argument", [
    [1.0, 2.0], (1.0, 2.0), {"a": 1}, np.array([None, 1], dtype=object),
])
def test_an_argument_that_is_not_an_array_or_scalar_raises(argument):
    kernel, calls = _counting()
    with pytest.raises(TypeError, match="arrays and plain scalars"):
        kernel(argument)
    with pytest.raises(TypeError, match="arrays and plain scalars"):
        kernel(np.ones(2), scale=argument)
    assert calls == []


def test_a_list_volume_raises_type_error_from_a_real_kernel():
    with pytest.raises(TypeError):
        nlmeans_3d(np.zeros((4, 4, 4)).tolist(), sigma=1.0)


def test_cache_clear_makes_the_next_call_compute():
    kernel, calls = _counting()
    kernel(np.ones(2))
    kernel.cache_clear()
    kernel(np.ones(2))
    assert len(calls) == 2


def _run_quick_cells(figure_id, counts):
    figure = FIGURES[figure_id]
    for engine in figure.quick["engine"].values:
        for count in counts:
            TRIAL_FNS[figure.trial](
                engine=engine, count=count, profile=figure.quick["profile"],
                **figure.fixed,
            )


def test_the_neuro_grid_cells_denoise_each_volume_once(monkeypatch):
    """Figure 10c's quick cells at 1 and 2 subjects (the ``neuro-grid``
    benchmark workload) make 216 denoise calls on 2 subjects x 24
    volumes.  Every engine must pass the volumes with the bytes, dtype
    and shape the others pass, or its calls silently miss."""
    computed = []
    kernel = nlmeans_3d.__wrapped__

    def counted(*args, **kwargs):
        computed.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(nlmeans_3d, "__wrapped__", counted)
    nlmeans_3d.cache_clear()
    _run_quick_cells("fig10c", (1, 2))
    assert len(computed) == 48


def _computed(monkeypatch, module, name):
    """Digests of the inputs of each call ``module.name`` computes."""
    digests = []
    kernel = getattr(module, name)

    def counted(*args, **kwargs):
        digest = hashlib.sha256()
        for array in args:
            if isinstance(array, np.ndarray):
                digest.update(np.ascontiguousarray(array).data)
        digests.append(digest.hexdigest())
        return kernel(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return digests


def test_the_astro_grid_cells_calibrate_and_coadd_each_input_once(
    monkeypatch,
):
    """Figure 10d's quick cells (the naive cells of the ``astro-grid``
    benchmark) run Step 1-A 72 times on 24 exposures and co-add 76
    times on 38 patch stacks: each distinct input is computed once."""
    repaired = _computed(monkeypatch, reference, "repair_cosmic_rays")
    coadded = _computed(monkeypatch, reference, "sigma_clip_stack")
    reference._calibrate.cache_clear()
    reference._coadd_planes.cache_clear()
    _run_quick_cells("fig10d", FIGURES["fig10d"].quick["count"].values)
    assert len(repaired) == len(set(repaired)) == 24
    assert len(coadded) == len(set(coadded)) == 38


def test_the_neuro_grid_cells_fit_each_block_once(monkeypatch):
    """Figure 10c's quick cells at 1 and 2 subjects fit 72 voxel
    blocks, 16 of them distinct: each is fitted once."""
    fitted = _computed(monkeypatch, dtm, "_wls_tensors")
    dtm._fit_planes.cache_clear()
    _run_quick_cells("fig10c", (1, 2))
    assert len(fitted) == len(set(fitted)) == 16
