"""Bounded ring buffer shared by every retention point in the repo.

Before this existed, :class:`~repro.fabric.queues.QueueTracker` and
:class:`~repro.access.bgp.FailoverTimeline` each re-implemented the
same "keep the newest N entries, count what rolled off" logic inline.
:class:`RingBuffer` centralizes it: list-like reads (``len``, iteration,
indexing, slicing), append-only writes, and a mutable ``max_entries``
bound that is re-read on every append so owners can tighten or lift it
mid-run.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterator, List, Optional


class RingBuffer:
    """Append-only buffer whose oldest entries roll off past a bound.

    ``max_entries=None`` means unbounded. ``rolled_off`` counts entries
    evicted over the buffer's lifetime, so consumers can tell "empty"
    from "everything aged out".
    """

    __slots__ = ("_items", "max_entries", "rolled_off")

    def __init__(self, max_entries: Optional[int] = None):
        self._items: deque = deque()
        self.max_entries = max_entries
        self.rolled_off = 0

    def append(self, item: Any) -> None:
        self._items.append(item)
        bound = self.max_entries
        if bound is not None:
            while len(self._items) > bound:
                self._items.popleft()
                self.rolled_off += 1

    def extend(self, items) -> None:
        """Append every item, then trim once: the same items and
        ``rolled_off`` as one :meth:`append` per item."""
        buf = self._items
        added = len(buf)
        buf.extend(items)
        added = len(buf) - added
        bound = self.max_entries
        # like append(), the bound applies when an item arrives
        if added and bound is not None and len(buf) > bound:
            excess = len(buf) - bound
            self.rolled_off += excess
            for _ in range(excess):
                buf.popleft()

    def clear(self) -> None:
        self._items.clear()

    # -- list-like reads ----------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._items)[index]
        return self._items[index]

    def __bool__(self) -> bool:
        return bool(self._items)

    def __eq__(self, other) -> bool:
        if isinstance(other, RingBuffer):
            return list(self._items) == list(other._items)
        if isinstance(other, (list, tuple)):
            return list(self._items) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        bound = "∞" if self.max_entries is None else str(self.max_entries)
        return (f"RingBuffer({len(self._items)} items, bound={bound}, "
                f"rolled_off={self.rolled_off})")

    def to_list(self) -> List[Any]:
        return list(self._items)
