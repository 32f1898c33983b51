"""Benchmark harness: one experiment per table/figure of the paper.

- :mod:`repro.harness.runner` -- engine/cluster factories and dataset
  profiles shared by all experiments.
- :mod:`repro.harness.experiments` -- the trials every paper element
  (Table 1, Figures 10-15, Sections 5.3.1/5.3.3, the ablations) is a
  grid of.
- :mod:`repro.harness.figures` -- one declaration per paper element and
  ``grid()``, which runs it.
- :mod:`repro.harness.report` -- paper-style table printers.
- :mod:`repro.harness.loc` -- the lines-of-code accounting for Table 1.
"""

from repro.harness.runner import (
    ASTRO_BENCH,
    NEURO_BENCH,
    make_cluster,
    make_engine,
)

__all__ = ["ASTRO_BENCH", "NEURO_BENCH", "make_cluster", "make_engine"]
