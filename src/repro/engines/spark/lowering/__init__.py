"""Spark lowering backend: translate logical plans into RDD chains."""
