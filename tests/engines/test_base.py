"""Tests for shared engine abstractions."""

from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines.base import (
    SMALL_RECORD_BYTES,
    CostedFunction,
    as_costed,
    nominal_bytes_of,
    udf,
)
from repro.formats.sizing import SizedArray


def test_nominal_bytes_sized_array():
    a = SizedArray(np.zeros((2, 2), dtype=np.float32), nominal_shape=(10, 10))
    assert nominal_bytes_of(a) == 400


def test_nominal_bytes_object_with_attribute():
    class Thing:
        nominal_bytes = 1234

    assert nominal_bytes_of(Thing()) == 1234


def test_nominal_bytes_ndarray_uses_real_size():
    assert nominal_bytes_of(np.zeros(10, dtype=np.float64)) == 80


def test_nominal_bytes_containers():
    a = SizedArray(np.zeros(1, dtype=np.float64), nominal_shape=(10,))
    assert nominal_bytes_of([a, a]) == 160
    assert nominal_bytes_of(("key", a)) == 3 + 80
    assert nominal_bytes_of({"x": a}) == 80


def test_nominal_bytes_scalar_fallback():
    assert nominal_bytes_of(42) == SMALL_RECORD_BYTES
    assert nominal_bytes_of(None) == SMALL_RECORD_BYTES


def _reference_nominal_bytes_of(item):
    """``nominal_bytes_of`` before its exact-type checks: the oracle for
    the property below and for ``benchmarks/test_sizing.py``."""
    if isinstance(item, SizedArray):
        return item.nominal_bytes
    nominal = getattr(item, "nominal_bytes", None)
    if nominal is not None:
        return int(nominal)
    if isinstance(item, np.ndarray):
        return item.nbytes
    if isinstance(item, (tuple, list)):
        return sum(_reference_nominal_bytes_of(x) for x in item)
    if isinstance(item, dict):
        return sum(_reference_nominal_bytes_of(x) for x in item.values())
    if isinstance(item, (bytes, bytearray, str)):
        return len(item)
    return SMALL_RECORD_BYTES


Pair = namedtuple("Pair", "key value")
# A tuple whose ``nominal_bytes`` is a field: sized by it, not summed.
SizedRow = namedtuple("SizedRow", "nominal_bytes payload")


class _Sized:
    def __init__(self, nominal_bytes):
        self.nominal_bytes = nominal_bytes


class _SizedSubclass(SizedArray):
    __slots__ = ()


class _Ints(int):
    pass


class _Text(str):
    pass


class _Items(list):
    pass


_leaves = st.one_of(
    st.builds(
        lambda shape, nominal, dtype: SizedArray(
            np.zeros(shape, dtype=dtype), nominal_shape=nominal),
        st.lists(st.integers(1, 3), max_size=3).map(tuple),
        st.lists(st.integers(1, 300), max_size=4).map(tuple),
        st.sampled_from([np.float32, np.float64, np.int16, np.bool_]),
    ),
    st.builds(lambda n: _SizedSubclass(np.zeros(n), nominal_shape=(n * 7,)),
              st.integers(1, 4)),
    st.builds(lambda n, dtype: np.zeros(n, dtype=dtype),
              st.integers(0, 6), st.sampled_from([np.float64, np.uint8])),
    st.text(max_size=8),
    st.text(max_size=8).map(_Text),
    st.binary(max_size=8),
    st.binary(max_size=8).map(bytearray),
    st.integers(-10 ** 12, 10 ** 12),
    st.integers(0, 9).map(_Ints),
    st.booleans(),
    st.floats(allow_nan=True),
    st.none(),
    st.integers(0, 255).map(np.uint8),
    st.floats(allow_nan=False).map(np.float64),
    st.integers(0, 10 ** 6).map(_Sized),
    st.floats(0, 10 ** 6, allow_nan=False).map(_Sized),
)

_records = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(_Items),
        st.dictionaries(st.text(max_size=3), children, max_size=3),
        st.tuples(children, children).map(lambda kv: Pair(*kv)),
        st.builds(SizedRow, st.integers(0, 10 ** 6), children),
    ),
    max_leaves=12,
)


@given(_records)
@settings(max_examples=300, deadline=None)
def test_nominal_bytes_of_matches_the_isinstance_chain(item):
    """Checking exact types first returns the general chain's value for
    every record shape, subclasses and look-alikes included."""
    got = nominal_bytes_of(item)
    assert got == _reference_nominal_bytes_of(item)
    assert type(got) is int


def test_costed_function_call_and_cost():
    fn = CostedFunction(lambda x: x + 1, cost_fn=lambda x: x * 0.5)
    assert fn(4) == 5
    assert fn.cost(4) == 2.0


def test_costed_function_default_cost_zero():
    fn = CostedFunction(lambda x: x)
    assert fn.cost(10) == 0.0


def test_udf_decorator_form():
    @udf(cost=lambda x: 1.0)
    def double(x):
        return 2 * x

    assert isinstance(double, CostedFunction)
    assert double(3) == 6
    assert double.cost(3) == 1.0


def test_udf_idempotent():
    fn = udf(lambda x: x)
    assert udf(fn) is fn


def test_as_costed_wraps_plain_callable():
    fn = as_costed(len)
    assert fn("abc") == 3
    assert fn.cost("abc") == 0.0


def test_costed_function_validation():
    with pytest.raises(TypeError):
        CostedFunction(42)
    with pytest.raises(TypeError):
        CostedFunction(lambda: None, cost_fn=42)


def test_engine_startup_charged_once(small_cluster):
    from repro.engines.base import Engine

    class Fake(Engine):
        name = "fake"

        def startup_cost(self):
            return 7.0

    engine = Fake(small_cluster)
    engine.ensure_started()
    engine.ensure_started()
    assert small_cluster.now == 7.0
