"""Manual device placement (the paper's ``steps`` tables).

"TensorFlow's support for distributed computation is currently limited.
The developer must manually map computation and data to each worker as
TensorFlow does not provide automatic static or dynamic work
assignment." (Section 4.5.)  Figure 9's code iterates over a predefined
``steps`` structure mapping data partitions to worker devices;
:func:`round_robin_steps` builds it.
"""


def round_robin_steps(devices, n_items):
    """Figure 9's ``steps``: batches of items assigned round-robin.

    Returns a list of steps; each step is a list of ``(item_index,
    device)`` pairs with at most one item per device -- the global
    barrier between steps is the caller's ``session.run``.
    """
    devices = list(devices)
    if not devices:
        raise ValueError("need at least one device")
    steps = []
    for start in range(0, n_items, len(devices)):
        batch = range(start, min(start + len(devices), n_items))
        steps.append(
            [(index, devices[i]) for i, index in enumerate(batch)]
        )
    return steps
