"""Sizing ratios: the per-record bookkeeping against the forms it replaced.

Every block read, task output and Myria row is sized at its nominal,
paper-scale size, so this bookkeeping runs at record speed.  Both sides
are timed in this process, alternately, and the fastest run of each is
kept, so a slow phase of the host slows both sides of the ratio.  The
references are today's forms kept with the unit tests:
``_reference_block_bounds`` (two ``np.linspace`` calls) in
``tests/pipelines/test_common.py`` and ``_reference_nominal_bytes_of``
(the ``isinstance`` chain) in ``tests/engines/test_base.py``.

The input has the quick profile's shapes, as in ``neuro-grid``: six subjects
(24 volumes of 8 x 8 x 8 real, 145 x 145 x 2088 nominal voxels), 144
volumes split into the plan's 8 blocks the Dask way, one
``volume_block`` call per block, and the 1 152 ``(block_id, image_id,
block)`` rows Myria's Step 3-N stores, sized the way
``WorkerStorage.insert_rows`` sizes a shard.

On a 2-core Xeon the split read 0.31-0.39 of its reference and the
shard 0.30-0.32.  With the old code on both sides they read 0.85 and
1.04, so the bound of 0.6 fails it.
"""

import sys
import time
from pathlib import Path

from repro.data.neuro import generate_subject
from repro.engines.base import nominal_bytes_of
from repro.pipelines import common
from repro.plan.neuro import DEFAULT_BLOCKS

# The references live with the unit tests, which import one another as
# ``tests....``: find the repository root from this file, so the ratios
# run from any directory.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.engines.test_base import _reference_nominal_bytes_of  # noqa: E402
from tests.pipelines.test_common import _reference_block_bounds  # noqa: E402

BOUND = 0.6


def _volumes():
    subjects = [generate_subject(f"sizing-{i}", scale=20, n_volumes=24)
                for i in range(6)]
    return [volume for subject in subjects for volume in subject.volumes]


def _reference_volume_block(volume, n_blocks, index):
    bounds = _reference_block_bounds(volume, n_blocks)
    if not 0 <= index < len(bounds[0]) - 1:
        raise IndexError(f"block {index} of {len(bounds[0]) - 1}")
    return common._block(volume, bounds, index)


def _best_of(rounds, *fns):
    best = [float("inf")] * len(fns)
    for _ in range(rounds):
        for index, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def _check(label, new_s, reference_s):
    print(f"{label}: {new_s * 1e3:.3f} ms / {reference_s * 1e3:.3f} ms "
          f"= {new_s / reference_s:.2f} (bound {BOUND})")
    assert new_s <= BOUND * reference_s


def test_dask_split_of_144_volumes_against_linspace_bounds():
    volumes = _volumes()
    assert len(volumes) == 144

    def split(volume_block):
        return [volume_block(volume, DEFAULT_BLOCKS, index)
                for volume in volumes for index in range(DEFAULT_BLOCKS)]

    ours = split(common.volume_block)
    reference = split(_reference_volume_block)
    assert [b.nominal_shape for b in ours] == [
        b.nominal_shape for b in reference]
    new_s, reference_s = _best_of(
        30,
        lambda: split(common.volume_block),
        lambda: split(_reference_volume_block),
    )
    _check("volume_block x 1152", new_s, reference_s)


def test_myria_shard_sizing_against_the_isinstance_chain():
    rows = [
        (block_id, volume.meta["image_id"], block)
        for volume in _volumes()
        for block_id, block in common.split_volume_blocks(
            volume, DEFAULT_BLOCKS)
    ]
    assert len(rows) == 1152

    def shard_bytes(size):
        return sum(size(row) for row in rows)

    assert shard_bytes(nominal_bytes_of) == shard_bytes(
        _reference_nominal_bytes_of)
    new_s, reference_s = _best_of(
        30,
        lambda: shard_bytes(nominal_bytes_of),
        lambda: shard_bytes(_reference_nominal_bytes_of),
    )
    _check("shard of 1152 rows", new_s, reference_s)
