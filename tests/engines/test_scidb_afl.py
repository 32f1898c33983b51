"""Tests for the AFL language front-end."""

import numpy as np
import pytest

from repro.engines.scidb import DimSpec, SciDBConnection
from repro.engines.scidb.afl import AFLError, execute, parse, tokenize
from repro.engines.scidb.afl import Call, Comparison, Name, Number


@pytest.fixture
def sdb(worker_cluster, rng):
    connection = SciDBConnection(worker_cluster)
    real = rng.random((6, 6, 8))
    dims = [
        DimSpec("x", 60, 30),
        DimSpec("y", 60, 30),
        DimSpec("vol", 80, 10),
    ]
    connection.create_array("data", dims, real)
    return connection


# -- parsing --------------------------------------------------------------


def test_tokenize_basic():
    tokens = tokenize("scan(data)")
    assert [t[0] for t in tokens] == ["name", "punct", "name", "punct"]


def test_parse_nested_calls():
    ast = parse("aggregate(filter(scan(data), vol < 18), avg(v), x, y)")
    assert isinstance(ast, Call)
    assert ast.fname == "aggregate"
    inner = ast.args[0]
    assert inner.fname == "filter"
    assert isinstance(inner.args[1], Comparison)
    assert inner.args[1].op == "<"


def test_parse_arithmetic():
    ast = parse("apply(scan(data), w, v * 2)")
    assert ast.args[2].op == "*"


def test_parse_rejects_garbage():
    with pytest.raises(AFLError):
        parse("scan(data) extra")
    with pytest.raises(AFLError):
        parse("scan(")
    with pytest.raises(AFLError):
        tokenize("scan(@data)")


def test_parse_negative_number():
    ast = parse("filter(scan(data), v > -3)")
    assert ast.args[1].right.value == -3


# -- execution ------------------------------------------------------------


def test_scan_returns_array(sdb):
    out = execute(sdb, "scan(data)")
    assert out is sdb.arrays["data"]


def test_unknown_array_rejected(sdb):
    with pytest.raises(AFLError):
        execute(sdb, "scan(nope)")


def test_filter_on_dimension(sdb):
    out = execute(sdb, "filter(scan(data), vol < 10)")
    # vol < 10 keeps exactly the first chunk of the 80-long axis.
    assert out.nominal_shape[2] == 10


def test_figure5_style_query(sdb):
    """The Figure 5 pattern: filter on the volume axis, then mean."""
    out = execute(
        sdb, "aggregate(filter(scan(data), vol < 40), avg(v), x, y)"
    )
    assert out.nominal_shape == (60, 60)
    base = sdb.arrays["data"]
    filtered = base.real[:, :, : base.real.shape[2] // 2]
    assert np.allclose(out.real, filtered.mean(axis=2))


def test_aggregate_sum(sdb):
    out = execute(sdb, "aggregate(scan(data), sum(v), x, y)")
    assert np.allclose(out.real, sdb.arrays["data"].real.sum(axis=2))


def test_aggregate_all_dims_rejected(sdb):
    with pytest.raises(AFLError):
        execute(sdb, "aggregate(scan(data), avg(v), x, y, vol)")


def test_apply_arithmetic(sdb):
    out = execute(sdb, "apply(scan(data), w, v * 2)")
    assert np.allclose(out.real, sdb.arrays["data"].real * 2)
    assert out.attr == "w"


def test_apply_with_constant_add(sdb):
    out = execute(sdb, "apply(scan(data), w, v + 10)")
    assert np.allclose(out.real, sdb.arrays["data"].real + 10)


def test_project(sdb):
    out = execute(sdb, "project(apply(scan(data), w, v * 3), w)")
    assert out.attr == "w"
    with pytest.raises(AFLError):
        execute(sdb, "project(scan(data), nope)")


def test_between_restricts_dims(sdb):
    out = execute(sdb, "between(scan(data), 0, 0, 0, 29, 59, 79)")
    assert out.nominal_shape[0] == 30
    assert out.nominal_shape[1] == 60


def test_subarray_restricts_dims_like_between(sdb):
    out = execute(sdb, "subarray(scan(data), 0, 0, 0, 29, 59, 79)")
    same = execute(sdb, "between(scan(data), 0, 0, 0, 29, 59, 79)")
    assert out.nominal_shape == same.nominal_shape == (30, 60, 80)
    assert np.array_equal(out.real, same.real, equal_nan=True)


def test_between_wrong_arity(sdb):
    with pytest.raises(AFLError):
        execute(sdb, "between(scan(data), 0, 0, 29)")


def test_attribute_filter_marks_non_matching(sdb):
    out = execute(sdb, "filter(scan(data), v > 2)")
    # All values are < 1, so everything becomes empty (NaN).
    assert np.isnan(out.real).all()


def test_afl_charges_simulated_time(sdb):
    before = sdb.cluster.now
    execute(sdb, "aggregate(scan(data), avg(v), x, y)")
    assert sdb.cluster.now > before
