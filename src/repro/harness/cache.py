"""Content-addressed trial cache for the experiment harness.

Every figure is a grid of independent *trials* (one engine on one data
size on one cluster size).  A trial is pure: its rows and ledger
snapshots are a deterministic function of (a) the trial function and
its arguments, a fault plan included, and (b) the simulator/harness
code itself, cost constants included (they are defaults in
``repro/cluster/costs.py``).  The cache keys on exactly those inputs,
so re-running a figure or a ledger compare replays cached trials
instantly.

The code-version salt is a hash of the ``repro`` source tree: any
source edit (new scheduling order, new blame category, a recalibrated
cost constant, ...) cold-starts the cache rather than serving stale
simulations.

A hit is one file read and one decode (a ``TrialSpec`` hashes its key
once): the payload is stored as a CRC-32 followed by the ``marshal``
bytes of its JSON-normalized form (:func:`encode_payload`).

The cache directory must be private to the user who runs the harness.
The CRC-32 catches torn writes and damaged bytes, not a crafted file,
and ``marshal`` is not hardened against one: an entry planted by
another user could crash the interpreter.  The default
``.harness-cache/`` is created with the process umask; a directory
named by ``$REPRO_CACHE_DIR`` is trusted as given.
"""

import hashlib
import json
import marshal
import os
import tempfile
import time
import zlib

from repro.obs import telemetry

#: Bump when the cached payload layout changes incompatibly.
#: v2: compact zlib-compressed JSON payloads (was pretty JSON).
#: v3: CRC-32 + ``marshal`` of the JSON-normalized payload, ``.tm`` files.
CACHE_SCHEMA_VERSION = 3

#: Environment variable overriding the cache directory, which must be
#: writable by this user only (see the module docstring).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".harness-cache"


_code_hash_cache = {}


def code_tree_hash(root=None):
    """Hash of every ``repro`` source file; the cache-version salt.

    Any edit to the simulator, engines, pipelines, or harness changes
    this digest and therefore every cache key: the cache can never
    serve a simulation produced by different code.  The default root's
    digest is memoized under ``None``, so the common call is one dict
    lookup.
    """
    if root is None:
        cached = _code_hash_cache.get(None)
        if cached is None:
            cached = _code_hash_cache[None] = code_tree_hash(
                os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
            )
        return cached
    root = os.path.abspath(root)
    cached = _code_hash_cache.get(root)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    paths = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames if d != "__pycache__"
        )
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                paths.append(os.path.join(dirpath, filename))
    for path in paths:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    result = digest.hexdigest()
    _code_hash_cache[root] = result
    return result


def cache_key(fn, kwargs, salt=None):
    """Content address of one trial.

    ``fn`` is the registered trial-function name, ``kwargs`` its
    JSON-safe arguments, and ``salt`` overrides the code-tree hash
    (tests).
    """
    document = {
        "schema": CACHE_SCHEMA_VERSION,
        "salt": salt if salt is not None else code_tree_hash(),
        "fn": fn,
        "kwargs": kwargs,
    }
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def encode_payload(payload):
    """Compact wire/disk form of a trial payload.

    The payload is first normalized through JSON, so it holds exactly
    what a JSON round trip would give back: tuples become lists, numpy
    floats ``float``, dict keys ``str``, key order is kept, and a value
    JSON cannot encode raises ``TypeError`` here.  (``marshal`` alone
    would write an ``np.float64`` as 8 raw bytes, silently.)  The form
    is the 4-byte little-endian CRC-32 of the ``marshal`` bytes of the
    normalized payload, then those bytes.  Keys keep the order the
    trial built them in, so a row decodes with the columns it would
    have had inline (``print_table`` takes them from the first row).
    """
    normalized = json.loads(json.dumps(payload, separators=(",", ":")))
    body = marshal.dumps(normalized)
    return zlib.crc32(body).to_bytes(4, "little") + body


def decode_payload(blob):
    """Inverse of :func:`encode_payload`.

    Raises ``ValueError`` on a CRC mismatch or a top-level value that
    is not a dict; bytes that pass the CRC but do not unmarshal raise
    whatever ``marshal.loads`` raises (``ValueError``, ``EOFError``,
    ``TypeError``).  ``marshal`` is not hardened against crafted input:
    decode only bytes this program wrote, from a private directory.
    """
    body = memoryview(blob)[4:]
    if zlib.crc32(body) != int.from_bytes(blob[:4], "little"):
        raise ValueError("payload CRC-32 mismatch")
    payload = marshal.loads(body)
    if not isinstance(payload, dict):
        raise ValueError(f"payload is a {type(payload).__name__}, not a dict")
    return payload


class TrialCache:
    """Directory of cached trial payloads, content-addressed.

    One :func:`encode_payload` blob (rows + snapshots) per trial key.
    A corrupt or truncated file counts as a miss: it is evicted and the
    result recomputed.
    """

    def __init__(self, root=None):
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
        self.root = root
        self.hits = 0
        self.misses = 0

    def _path(self, key):
        return os.path.join(self.root, key[:2], f"{key}.tm")

    def _evict(self, path):
        """Drop an unreadable cache file so the recomputed result can
        take its place (a second reader racing us is fine: unlink
        errors are ignored and ``put`` replaces atomically)."""
        try:
            os.unlink(path)
        except OSError:
            pass

    def get(self, key):
        """Cached payload for ``key``, or ``None`` on a miss."""
        rec = telemetry.recorder()
        start = time.perf_counter()
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            self.misses += 1
            rec.count("cache.misses")
            rec.observe("cache.get_s", time.perf_counter() - start)
            return None
        try:
            payload = decode_payload(blob)
        except Exception:  # noqa: BLE001 - any corruption is a miss
            self._evict(path)
            self.misses += 1
            rec.count("cache.misses")
            rec.count("cache.evictions")
            rec.observe("cache.get_s", time.perf_counter() - start)
            return None
        self.hits += 1
        rec.count("cache.hits")
        rec.observe("cache.get_s", time.perf_counter() - start)
        return payload

    def put(self, key, payload, encoded=None):
        """Store ``payload`` atomically (rename over a temp file).

        ``encoded`` short-circuits serialization when the caller
        already holds the :func:`encode_payload` bytes (worker lanes
        encode payloads for transport; the parent stores them as-is).
        """
        rec = telemetry.recorder()
        start = time.perf_counter()
        if encoded is None:
            encoded = encode_payload(payload)
        path = self._path(key)
        self._write_atomic(path, encoded)
        rec.count("cache.stores")
        rec.observe("cache.payload_bytes", len(encoded))
        rec.observe("cache.put_s", time.perf_counter() - start)

    def _write_atomic(self, path, blob):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def stats(self):
        """``{"hits", "misses"}`` counters for this cache handle."""
        return {"hits": self.hits, "misses": self.misses}

    def op_stats(self):
        """Zeros for the removed op tier: ``bench/child.py`` (frozen by
        BENCHMARK.json) still reads them for the ``harness.op_*``
        metrics; delete together with those."""
        return {"hits": 0, "misses": 0, "stores": 0}
