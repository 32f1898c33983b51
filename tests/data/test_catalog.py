"""Tests for the dataset catalog (Figures 10a/10b ground truth)."""

import pytest

from repro.data.catalog import (
    ASTRO_SENSOR_BYTES,
    ASTRO_SENSOR_SHAPE,
    ASTRO_SENSORS_PER_VISIT,
    NEURO_DTYPE_BYTES,
    NEURO_N_B0,
    NEURO_N_VOLUMES,
    NEURO_VOLUME_SHAPE,
    astro_size_table,
    astro_visit_bytes,
    neuro_size_table,
    neuro_subject_bytes,
)


def test_paper_dimensions():
    """Section 3.1.1 / 3.2.1 constants."""
    assert NEURO_VOLUME_SHAPE == (145, 145, 174)
    assert NEURO_N_VOLUMES == 288
    assert NEURO_N_B0 == 18
    assert ASTRO_SENSOR_SHAPE == (4000, 4072)
    assert ASTRO_SENSORS_PER_VISIT == 60


def test_subject_is_4_2_gb():
    """"totaling 1.4GB in compressed form, which expands to 4.2GB"."""
    assert neuro_subject_bytes() / 1e9 == pytest.approx(4.21, abs=0.05)


def test_volume_bytes():
    x, y, z = NEURO_VOLUME_SHAPE
    assert x * y * z * NEURO_DTYPE_BYTES * NEURO_N_VOLUMES == neuro_subject_bytes()


def test_visit_is_4_8_gb():
    """"The data for each visit is approximately 4.8GB"."""
    assert astro_visit_bytes() / 1e9 == pytest.approx(4.8, abs=0.01)
    assert ASTRO_SENSOR_BYTES == 80 * 1000 ** 2


def test_neuro_table_matches_figure_10a():
    table = {r["subjects"]: r for r in neuro_size_table()}
    assert table[25]["input_gb"] == pytest.approx(105, abs=1)
    assert table[25]["largest_intermediate_gb"] == pytest.approx(210, abs=2)
    assert table[2]["input_gb"] == pytest.approx(8.4, abs=0.1)


def test_astro_table_matches_figure_10b():
    table = {r["visits"]: r for r in astro_size_table()}
    assert table[24]["input_gb"] == pytest.approx(115.2, abs=0.1)
    assert table[24]["largest_intermediate_gb"] == pytest.approx(288, abs=1)
    assert table[2]["largest_intermediate_gb"] == pytest.approx(24, abs=0.1)


def test_tables_cover_paper_sweeps():
    assert [r["subjects"] for r in neuro_size_table()] == [1, 2, 4, 8, 12, 25]
    assert [r["visits"] for r in astro_size_table()] == [2, 4, 8, 12, 24]
