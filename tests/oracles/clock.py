"""Reference service clock: one shared event that every tick sets.

:class:`SharedEventFleetService` is :class:`~repro.fleet.service.daemon.
FleetService` with the service clock written the simple way.  Every
task blocked in :meth:`wait_until` or :meth:`drain` waits on one
``asyncio.Event``; every tick sets it, so each tick wakes every
waiting task, and each woken task rechecks its condition when it runs
and waits again if it is not yet due.  That costs one task wakeup per
waiting task per tick.  The production daemon wakes only the tasks
that can be due, in the order this event wakes them; the differential
suite (``tests/test_service_clock.py``) holds the two to identical
runs.  Only the three clock methods are overridden.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from repro.fleet.service.daemon import FleetService


class SharedEventFleetService(FleetService):
    """A fleet service whose clock is one shared ``asyncio.Event``."""

    _shared: Optional[asyncio.Event] = None
    _shared_loop: Optional[asyncio.AbstractEventLoop] = None

    def _event(self) -> asyncio.Event:
        """The shared clock event of the running loop."""
        loop = asyncio.get_running_loop()
        if self._shared is None or self._shared_loop is not loop:
            self._shared = asyncio.Event()
            self._shared_loop = loop
        return self._shared

    async def wait_until(self, virtual_time: int) -> None:
        """Block until the service clock reaches ``virtual_time``."""
        while self._running and self.virtual_now < virtual_time:
            event = self._event()
            event.clear()
            await event.wait()

    async def drain(self) -> None:
        """Wait until no shard has residents or queued requests."""
        while self._running and not self._idle():
            event = self._event()
            event.clear()
            await event.wait()

    def _tick(self, bound: Optional[int] = None) -> None:
        """Wake every waiting task, whatever ``bound`` is."""
        self._event().set()
