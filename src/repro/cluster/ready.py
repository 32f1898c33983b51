"""The executor's ready set: tasks that could run once something frees.

A task is *ready* when its dependencies are complete and it has not
started.  What still holds it back is one of three things, and the set
is indexed by which: its ``not_before`` floor has not passed (it sleeps
in a heap keyed by that floor), it is pinned to a node (one id-ordered
queue per pin), or it only needs a slot anywhere (one id-ordered queue
for unpinned tasks).  An event then merges the heads of just the queues
that can act instead of rescanning every ready task, and the merge is by
task id, so the tasks come out in exactly the order a full scan in id
order would have reached them.  The set counts its queued tasks, so an
event that woke nothing and finds every queue empty costs two compares.
"""

from collections import defaultdict
from heapq import heapify, heappop, heappush, heapreplace


class ReadySet:
    """Ready tasks, indexed by what holds each one back.

    Queues are heaps of ``(task_id, task)``; ids are unique, so tuple
    comparison never reaches the task object.  A queue that ``due``
    empties is dropped.  ``Task.node`` and ``Task.not_before`` are read
    when a task is added: whoever changes either on a ready task must
    take it out (``due`` pops what it yields; ``clear`` drops
    everything) and add it again.
    """

    __slots__ = ("_asleep", "_queues", "_size", "_queued")

    def __init__(self):
        self._asleep = []  # heap of (not_before, task_id, task)
        # pin (node name, or None) -> heap of (task_id, task)
        self._queues = defaultdict(list)
        self._size = 0  # every task, asleep or queued
        self._queued = 0  # tasks in ``_queues``

    def __len__(self):
        return self._size

    def clear(self):
        """Drop every task (schedule rebuilds start from scratch)."""
        del self._asleep[:]
        self._queues.clear()
        self._size = 0
        self._queued = 0

    def add(self, task, now):
        """Admit one task.

        Returns True when the task went to sleep until its
        ``not_before``: the caller owes it an event at that time, or
        nothing may ever look at the set again.
        """
        self._size += 1
        if task.not_before > now:
            heappush(self._asleep, (task.not_before, task.task_id, task))
            return True
        heappush(self._queues[task.node], (task.task_id, task))
        self._queued += 1
        return False

    def has_due(self, now):
        """Whether :meth:`due` may yield anything at ``now``: a task is
        queued, or a sleeper's floor has passed."""
        asleep = self._asleep
        return self._queued > 0 or (asleep and asleep[0][0] <= now)

    def first(self):
        """The lowest-id task, due or not (error reporting)."""
        heads = [queue[0] for queue in self._queues.values() if queue]
        heads.extend((task_id, task) for _floor, task_id, task in self._asleep)
        return min(heads)[1]

    def due(self, now, can_act):
        """Pop and yield, in ascending task id, the due tasks that can act.

        ``can_act(pin)`` says whether the head of that pin's queue could
        do anything right now (``None`` is the unpinned queue).  It is
        asked when a head is reached, not once up front: the caller
        starts tasks between yields, so a queue that could act at the
        start of the event may be shut by the time its turn comes.  A
        queue that cannot act is dropped for the rest of the event, so
        ``can_act`` must never turn true again within one call.

        The caller owns a yielded task: it either starts it or hands it
        back with :meth:`add`.
        """
        asleep = self._asleep
        queues = self._queues
        while asleep and asleep[0][0] <= now:
            _floor, task_id, task = heappop(asleep)
            heappush(queues[task.node], (task_id, task))
            self._queued += 1
        heads = [(queue[0][0], pin) for pin, queue in queues.items()
                 if queue and can_act(pin)]
        heapify(heads)
        while heads:
            pin = heads[0][1]
            if not can_act(pin):
                heappop(heads)
                continue
            queue = queues[pin]
            task = heappop(queue)[1]
            self._size -= 1
            self._queued -= 1
            yield task
            if queue:
                heapreplace(heads, (queue[0][0], pin))
            else:
                heappop(heads)
                del queues[pin]
