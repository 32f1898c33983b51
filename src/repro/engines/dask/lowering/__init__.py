"""Dask lowering backend: translate logical plans into delayed graphs."""
