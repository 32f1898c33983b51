"""What a quick cell leaves for the cyclic collector, per engine and
pipeline.

A run whose objects form reference cycles is freed only when the cyclic
collector next runs, and every collection walks whatever the process
holds (memos, frozen stores).  These counts are deterministic: each cell
runs once to warm the process's memos, then again with collection off,
and one ``gc.collect()`` reports what the second run left.  Each ceiling
is today's count; a fix that breaks a cycle lowers it.

``collect()`` counts every unreachable object, interpreter containers
included (tuples, closure cells, instance dicts).  How many of those a
cycle holds depends on the CPython version (3.11 stopped materializing
most instance dicts), so the total is held on the version it was
measured on, 3.11; the objects of ``repro``'s own classes in the
garbage are a property of the program and are held on every version.
"""

import gc
import sys

import pytest

from repro.harness.figures import grid
from repro.harness.parallel import configured

#: cell -> (figure, overrides, ceiling on collect()'s count on CPython
#: 3.11, ceiling on the ``repro`` objects among them).
CELLS = {
    "neuro/dask/1": ("fig10c", {"engine": ("dask",), "count": (1,)},
                     4690, 1267),
    "neuro/myria/1": ("fig10c", {"engine": ("myria",), "count": (1,)},
                      0, 0),
    "neuro/spark/1": ("fig10c", {"engine": ("spark",), "count": (1,)},
                      2605, 534),
    "astro/myria/2": ("fig10d", {"engine": ("myria",), "count": (2,)},
                      0, 0),
    "astro/spark/2": ("fig10d", {"engine": ("spark",), "count": (2,)},
                      1682, 442),
    "fig11/dask": ("fig11", {"system": ("dask",), "count": (1,)}, 454, 132),
    "fig11/scidb-1": ("fig11", {"system": ("scidb-1",), "count": (1,)},
                      0, 0),
    "fig12a/tensorflow": ("fig12a", {"system": ("tensorflow",)}, 124, 20),
    "fig12d/scidb": ("fig12d", {"system": ("scidb",)}, 0, 0),
}

MEASURED_ON = (3, 11)


def _garbage_of(figure, overrides):
    """``(collect()'s count, repro objects among them)`` of one warm
    run of the cell, collection off while it runs."""
    with configured(jobs=1, cache=None):
        grid(figure, True, **overrides)
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            grid(figure, True, **overrides)
            found = gc.collect()
            owned = sum(1 for obj in gc.garbage
                        if type(obj).__module__.startswith("repro."))
        finally:
            del gc.garbage[:]
            gc.set_debug(0)
            if was_enabled:
                gc.enable()
    return found, owned


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_a_quick_cell_leaves_no_more_cyclic_garbage_than_its_ceiling(cell):
    figure, overrides, total_ceiling, owned_ceiling = CELLS[cell]
    found, owned = _garbage_of(figure, overrides)
    assert owned <= owned_ceiling, (cell, owned)
    if sys.version_info[:2] == MEASURED_ON:
        assert found <= total_ceiling, (cell, found)
