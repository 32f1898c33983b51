"""A content-keyed memo for the kernels and steps the engines repeat.

Every engine runs the same pipelines on the same staged inputs, so a
figure asks a kernel or a step for the same result many times over
(Figure 10c's quick cells at one and two subjects make 216 denoise
calls on 48 distinct volumes).  ``memoized`` computes each distinct
call once per process.

The key is a digest of the call's arguments, positional ones in order,
then keyword ones sorted by name.  An array contributes its dtype, its
shape and its C-order bytes, so two arrays share a key exactly when the
kernel would see the same values; a plain scalar contributes its
``repr``.  Anything else raises ``TypeError``: the ``repr`` of a list or
of a large array is truncated, so keying on it could hand one input
another's result.

A call returns what the kernel returns: arrays (also inside a tuple or
list) are fresh and writable on every call, hit or miss, and the memo
holds its own read-only copy, so neither a caller writing to its result
nor one writing to its input afterwards can change a later result.
Other values (scalars, frozen records) are shared as they are.  An
exception is never cached.  The table has no bound: it lives as long as
the process, like ``generate_subject``'s.
"""

import functools
import hashlib

import numpy as np

#: Arguments keyed by their ``repr``.
_SCALARS = (type(None), bool, int, float, str, np.generic)


def memoized(kernel):
    """``kernel``, computed once per distinct input in this process.

    The result has ``__wrapped__`` (the kernel itself, uncached; a miss
    calls it) and ``cache_clear()`` (empties this kernel's table).
    """
    table = {}

    @functools.wraps(kernel)
    def cached(*args, **kwargs):
        key = _key(args, kwargs)
        if key not in table:
            result = cached.__wrapped__(*args, **kwargs)
            table[key] = _frozen(result)
            return result
        return _fresh(table[key])

    cached.cache_clear = table.clear
    return cached


def _key(args, kwargs):
    digest = hashlib.sha256()
    # The count keeps f(x, "n", 1) apart from f(x, n=1).
    digest.update(len(args).to_bytes(8, "little"))
    for value in args:
        _feed(digest, value)
    for name in sorted(kwargs):
        _feed(digest, name)
        _feed(digest, kwargs[name])
    return digest.digest()


def _feed(digest, value):
    """Add one argument to ``digest``: a length-prefixed header, then
    an array's bytes (whose length the header's dtype and shape fix)."""
    if isinstance(value, np.ndarray) and not value.dtype.hasobject:
        header = f"array {value.dtype.str} {value.shape}"
        data = np.ascontiguousarray(value).data
    elif isinstance(value, _SCALARS):
        header, data = f"scalar {value!r}", b""
    else:
        raise TypeError(
            f"a memoized kernel takes arrays and plain scalars, "
            f"got {type(value).__name__}"
        )
    header = header.encode()
    digest.update(len(header).to_bytes(8, "little"))
    digest.update(header)
    digest.update(data)


def _frozen(value):
    """The memo's own copy of a result: arrays copied and read-only."""
    if isinstance(value, np.ndarray):
        held = value.copy()
        held.flags.writeable = False
        return held
    if type(value) in (tuple, list):
        return type(value)(_frozen(item) for item in value)
    return value


def _fresh(held):
    """A result as the kernel returned it, rebuilt from the memo's copy."""
    if isinstance(held, np.ndarray):
        return held.copy()
    if type(held) in (tuple, list):
        return type(held)(_fresh(item) for item in held)
    return held
