"""Object stores: FIFO producer/consumer queues in simulated time.

A :class:`Store` holds arbitrary items up to an optional capacity.
``put`` blocks while the store is full; ``get`` blocks while it is
empty.  Items leave in the order they arrived, and blocked puts and
gets are served in the order they were issued.  The cluster model uses
one as each QPU's kernel inbox.

A capacity-N pool of identical slots is a store pre-filled with N
tokens: ``get`` acquires a slot and ``put`` returns it.

>>> from repro.sim import Kernel, Store
>>> kernel = Kernel()
>>> slots = Store(kernel)
>>> for token in range(2):
...     _ = slots.put(token)
>>> log = []
>>> def user(k, name):
...     token = yield slots.get()
...     log.append((k.now, name, "acquired"))
...     yield k.timeout(1.0)
...     slots.put(token)
>>> for name in "abc":
...     _ = kernel.process(user(kernel, name))
>>> kernel.run()
>>> log
[(0.0, 'a', 'acquired'), (0.0, 'b', 'acquired'), (1.0, 'c', 'acquired')]
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional

from repro.errors import SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel


class StorePut(Event):
    """Pending insertion of ``item`` into a store."""

    __slots__ = ("item", "store")

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.kernel)
        self.item = item
        self.store = store
        store._put_waiters.append(self)
        store._dispatch()

    def cancel(self) -> None:
        """Withdraw a not-yet-accepted put."""
        try:
            self.store._put_waiters.remove(self)
        except ValueError:
            pass


class StoreGet(Event):
    """Pending retrieval of an item from a store."""

    __slots__ = ("store",)

    def __init__(self, store: "Store") -> None:
        super().__init__(store.kernel)
        self.store = store
        store._get_waiters.append(self)
        store._dispatch()

    def cancel(self) -> None:
        """Withdraw a not-yet-served get."""
        try:
            self.store._get_waiters.remove(self)
        except ValueError:
            pass


class Store:
    """FIFO object store with optional capacity."""

    def __init__(
        self, kernel: "Kernel", capacity: Optional[int] = None
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity!r}")
        self.kernel = kernel
        self.capacity = capacity
        self.items: List[Any] = []
        self._put_waiters: List[StorePut] = []
        self._get_waiters: List[StoreGet] = []

    def put(self, item: Any) -> StorePut:
        """Insert ``item``; the returned event fires once accepted."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Retrieve the next item; the event fires with the item."""
        return StoreGet(self)

    @property
    def size(self) -> int:
        """Number of items currently held."""
        return len(self.items)

    # -- internals -----------------------------------------------------------

    def _dispatch(self) -> None:
        """Match puts against free capacity and gets against items."""
        items = self.items
        puts = self._put_waiters
        gets = self._get_waiters
        capacity = self.capacity
        progress = True
        while progress:
            progress = False
            # Accept queued puts while capacity allows.
            while puts and (capacity is None or len(items) < capacity):
                put = puts.pop(0)
                items.append(put.item)
                put.succeed()
                progress = True
            # Serve queued gets while items remain.
            while gets and items:
                gets.pop(0).succeed(items.pop(0))
                progress = True

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} items={len(self.items)} "
            f"puts={len(self._put_waiters)} gets={len(self._get_waiters)}>"
        )
