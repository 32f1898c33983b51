"""Cache-hit ratio: a warm ``run_grid`` replay against the old hit path.

The nine cells are Figure 10c's quick grid (three engines x one, two
and four subjects), computed once into a trial cache with their
snapshots, as ``harness fig10c --quick`` stores them.  The reference
is the hit path the cache had before its v3 format, kept here: per
trial, the key (``json.dumps(sort_keys=True)`` of the whole key
document, as both formats compute it), then one file read,
``zlib.decompress`` and ``json.loads`` of an old-format copy of the
same payload.  The new side is a whole ``run_grid`` over the same
specs, its telemetry phases and merge included; a hit there is the
same key, one read, one CRC and one ``marshal.loads``.

Both sides are timed in this process, alternately, best of many rounds
of ten replays, so a slow phase of the host slows both sides of the
ratio.  Measured at 0.56-0.64, mostly 0.57-0.58 (344-534 us against
603-878 us), over 12 runs on a 2-core x86-64 host under Python 3.11;
with the v2 codec put back in ``cache.py`` the same test reads
0.95-1.07.  The bound is 0.8.
"""

import json
import os
import time
import zlib

from repro.harness import experiments as E  # noqa: F401 - fills the registry
from repro.harness.cache import TrialCache
from repro.harness.figures import QUICK_NEURO
from repro.harness.parallel import TrialSpec, run_grid
from repro.harness.runner import DEFAULT_NODES

BOUND = 0.8
REPLAYS = 10


def _fig10c_quick_specs():
    return [
        TrialSpec("end_to_end", {
            "pipeline": "neuro", "n_nodes": DEFAULT_NODES, "optimize": False,
            "engine": engine, "count": count, "profile": dict(QUICK_NEURO),
        })
        for count in (1, 2, 4) for engine in ("dask", "myria", "spark")
    ]


def _reference_path(root, key):
    return os.path.join(root, key[:2], f"{key}.jz")


def _reference_replay(specs, root):
    payloads = []
    for spec in specs:
        with open(_reference_path(root, spec.key()), "rb") as fh:
            blob = fh.read()
        payloads.append(json.loads(zlib.decompress(blob)))
    return payloads


def _write_reference_copies(specs, payloads, root):
    for spec, payload in zip(specs, payloads):
        path = _reference_path(root, spec.key())
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(zlib.compress(
                json.dumps(payload, separators=(",", ":")).encode("utf-8"), 1
            ))


def _best_of(rounds, *sides):
    best = [float("inf")] * len(sides)
    for _ in range(rounds):
        for index, side in enumerate(sides):
            start = time.perf_counter()
            for _ in range(REPLAYS):
                side()
            best[index] = min(best[index], time.perf_counter() - start)
    return [seconds / REPLAYS for seconds in best]


def test_warm_replay_against_the_old_hit_path(tmp_path):
    specs = _fig10c_quick_specs()
    cache = TrialCache(str(tmp_path / "v3"))
    cold = run_grid(specs, jobs=1, cache=cache)
    assert cache.stats() == {"hits": 0, "misses": len(specs)}
    old_root = str(tmp_path / "v2")
    _write_reference_copies(specs, cold, old_root)

    warm = TrialCache(cache.root)
    # Both sides return what the cold pass computed.
    assert run_grid(specs, jobs=1, cache=warm) == cold
    assert _reference_replay(specs, old_root) == cold

    new_s, reference_s = _best_of(
        150,
        lambda: run_grid(specs, jobs=1, cache=warm),
        lambda: _reference_replay(specs, old_root),
    )
    assert warm.misses == 0
    print(f"warm replay of {len(specs)} cells: {new_s * 1e6:.0f} us / "
          f"{reference_s * 1e6:.0f} us = {new_s / reference_s:.2f} "
          f"(bound {BOUND})")
    assert new_s <= BOUND * reference_s
