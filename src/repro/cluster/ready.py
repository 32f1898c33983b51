"""The executor's ready set: tasks that could run once something frees.

A task is *ready* when its dependencies are complete and it has not
started.  What still holds it back is one of three things, and the set
is indexed by which: its ``not_before`` floor has not passed (it sleeps
in a heap keyed by that floor, whose head the run's loop reads as a
wake), it is pinned to a node (one id-ordered queue per pin), or it only
needs a slot anywhere (one id-ordered queue for unpinned tasks, pin
``None``).  The run tells the set which pins are *shut*, so an event
merges, by task id, the heads of just the open queues: the tasks come
out in exactly the order a full scan in id order would have reached.
"""

from heapq import heapify, heappop, heappush, heapreplace


class ReadySet:
    """Ready tasks, indexed by what holds each one back.

    Queues are heaps of ``(task_id, task)``; ids are unique, so tuple
    comparison never reaches the task object.  A queue lives while it
    holds a task.  ``Task.node`` and ``Task.not_before`` are read when a
    task is added: whoever changes either on a ready task must take it
    out (``due`` pops what it yields; ``clear`` drops everything) and
    add it again.
    """

    __slots__ = ("asleep", "_queues", "_open", "_shut", "_size")

    def __init__(self):
        #: Heap of ``(not_before, task_id, task)``; read-only outside.
        self.asleep = []
        self._queues = {}  # pin (node name, or None) -> heap of (task_id, task)
        self._open = set()  # pins with a queue that are not shut
        self._shut = set()
        self._size = 0  # every task, asleep or queued

    def __len__(self):
        return self._size

    def clear(self):
        """Drop every task (schedule rebuilds start from scratch)."""
        del self.asleep[:]
        self._queues.clear()
        self._open.clear()
        self._size = 0

    def add(self, task, now):
        """Admit one task: asleep until its ``not_before``, or queued."""
        self._size += 1
        if task.not_before > now:
            heappush(self.asleep, (task.not_before, task.task_id, task))
            return
        pin = task.node
        queue = self._queues.get(pin)
        if queue is None:
            self._queues[pin] = [(task.task_id, task)]
            if pin not in self._shut:
                self._open.add(pin)
        else:
            heappush(queue, (task.task_id, task))

    def shut(self, pin):
        """``pin``'s usable node has no free slot (``None``: no usable
        node has one).  A dead, blacklisted or unknown pin is never shut."""
        self._shut.add(pin)
        self._open.discard(pin)

    def reopen(self, pin):
        """``pin``'s node (``None``: the cluster) has a free slot again."""
        self._shut.discard(pin)
        if pin in self._queues:
            self._open.add(pin)

    def reset_shut(self, usable, free_slots):
        """Shut the full nodes of ``usable`` (``{name: node}``), and
        ``None`` if no slot is free: after a node died or rejoined."""
        shut = {name for name, node in usable.items()
                if node.busy_slots >= node.slots}
        if free_slots <= 0:
            shut.add(None)
        self._shut = shut
        self._open = {pin for pin in self._queues if pin not in shut}

    def has_due(self, now):
        """Whether a queue is open or a sleeper's floor has passed."""
        asleep = self.asleep
        return self._open or (asleep and asleep[0][0] <= now)

    def first(self):
        """The lowest-id task, due or not (error reporting)."""
        heads = [queue[0] for queue in self._queues.values()]
        heads.extend((task_id, task) for _floor, task_id, task in self.asleep)
        return min(heads)[1]

    def due(self, now):
        """Pop and yield, in ascending task id, the due tasks of open queues.

        Sleepers whose floor has passed join their queue first.  The
        caller starts tasks between yields and reports each pin that
        fills with :meth:`shut`, so a queue open when the event began is
        passed over if it is shut by the time its head is reached (slots
        only fill within one event).  The caller owns a yielded task: it
        either starts it or hands it back with :meth:`add`.
        """
        asleep = self.asleep
        while asleep and asleep[0][0] <= now:
            self._size -= 1  # added again, now due
            self.add(heappop(asleep)[2], now)
        queues = self._queues
        open_pins = self._open
        shut = self._shut
        heads = [(queues[pin][0][0], pin) for pin in open_pins]
        heapify(heads)
        while heads:
            pin = heads[0][1]
            if pin in shut:
                heappop(heads)
                continue
            queue = queues[pin]
            task = heappop(queue)[1]
            self._size -= 1
            yield task
            if queue:
                heapreplace(heads, (queue[0][0], pin))
            else:
                heappop(heads)
                del queues[pin]
                open_pins.discard(pin)
