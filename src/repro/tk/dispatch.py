"""Event dispatching (paper section 3.2).

Tk provides a centralized dispatcher supporting four kinds of events:

* **X events** — drained from the display connection and routed to the
  application's window handlers and Tcl bindings;
* **file events** — trigger when a file becomes readable;
* **timer events** — trigger at a point in time (``after``);
* **when-idle events** — trigger when all other pending events have
  been processed (used e.g. to coalesce widget redraws).

Time is the simulated server's millisecond clock, so tests are
deterministic: when nothing else is runnable and a blocking wait is
requested, the dispatcher advances the clock to the next timer
deadline instead of sleeping.
"""

from __future__ import annotations

import heapq
import select as _select
from collections import deque
from itertools import count
from typing import Callable, Dict, List, Optional

from ..tcl.errors import TclError
from ..x11.xserver import XConnectionLost, XProtocolError


class EventDispatcher:
    """The per-application event dispatcher."""

    def __init__(self, app):
        self.app = app
        self._timers: List[tuple] = []       # heap of (when, seq, id)
        self._timer_callbacks: Dict[int, Callable] = {}
        self._idle: deque = deque()
        self._files: List[tuple] = []        # (fileobj, callback)
        self._ids = count(1)

    # -- clock ----------------------------------------------------------

    def now(self) -> int:
        return self.app.display.server.time_ms

    def _advance_clock(self, when: int) -> None:
        server = self.app.display.server
        if when > server.time_ms:
            if server._jrec is not None:
                # A blocking wait jumping to a timer deadline is an
                # *input* to the session: journal it so a replay moves
                # the virtual clock along the same timeline.
                server._jrec.input("advance", (when, self.app.name))
            server.time_ms = when

    # -- timer events ------------------------------------------------------

    def after(self, ms: int, callback: Callable) -> int:
        """Schedule ``callback`` to run ``ms`` milliseconds from now."""
        timer_id = next(self._ids)
        when = self.now() + max(0, ms)
        heapq.heappush(self._timers, (when, timer_id))
        self._timer_callbacks[timer_id] = callback
        return timer_id

    def cancel_after(self, timer_id: int) -> None:
        self._timer_callbacks.pop(timer_id, None)

    def next_timer_deadline(self) -> Optional[int]:
        while self._timers and self._timers[0][1] not in \
                self._timer_callbacks:
            heapq.heappop(self._timers)
        return self._timers[0][0] if self._timers else None

    def _run_due_timer(self) -> bool:
        deadline = self.next_timer_deadline()
        if deadline is None or deadline > self.now():
            return False
        _, timer_id = heapq.heappop(self._timers)
        callback = self._timer_callbacks.pop(timer_id, None)
        if callback is None:
            return self._run_due_timer()
        callback()
        return True

    # -- when-idle events --------------------------------------------------

    def when_idle(self, callback: Callable) -> None:
        self._idle.append(callback)

    def _run_idle(self) -> bool:
        if not self._idle:
            return False
        # Run the handlers present now, not ones they themselves queue,
        # so a redraw that re-schedules itself cannot starve the loop.
        for _ in range(len(self._idle)):
            if not self._idle:
                break
            self._idle.popleft()()
        return True

    # -- file events ----------------------------------------------------------

    def create_file_handler(self, fileobj, callback: Callable) -> None:
        """Call ``callback(fileobj)`` whenever ``fileobj`` is readable."""
        self._files.append((fileobj, callback))

    def delete_file_handler(self, fileobj) -> None:
        self._files = [(f, cb) for f, cb in self._files if f is not fileobj]

    def _poll_files(self) -> bool:
        if not self._files:
            return False
        try:
            readable, _, _ = _select.select(
                [f for f, _ in self._files], [], [], 0)
        except (ValueError, OSError):
            return False
        ran = False
        for fileobj, callback in list(self._files):
            if fileobj in readable:
                callback(fileobj)
                ran = True
        return ran

    # -- the loop --------------------------------------------------------

    def do_one_event(self, block: bool = False) -> bool:
        """Process one pending event; optionally wait for one.

        Priority order matches Tk: X events, then timers, then file
        events, then idle handlers.  In blocking mode with nothing
        runnable, the virtual clock jumps to the next timer deadline.
        Returns False if nothing was (or will become) runnable.

        A Tcl or X protocol error escaping any handler is routed to the
        application's ``bgerror``/``tkerror`` proc if one is defined
        (Tk's background-error mechanism); only without a handler does
        it unwind the loop.  A lost connection is fatal, as in real Tk:
        it is reported once through the background-error path and the
        application is torn down — retrying requests against a dead
        wire would spin forever.
        """
        try:
            return self._do_one_event(block)
        except (TclError, XProtocolError) as error:
            return self._recover(error)

    def _recover(self, error) -> bool:
        """Route an error that escaped a handler (see
        :meth:`do_one_event`); returns whether the loop goes on and
        re-raises an error nothing handles."""
        if isinstance(error, XConnectionLost):
            handle = getattr(self.app, "connection_lost", None)
            if handle is None:
                raise error
            handle(error)
            return False
        report = getattr(self.app, "report_background_error", None)
        if report is None or not report(error):
            raise error
        return True

    def _do_one_event(self, block: bool) -> bool:
        event = self.app.display.next_event()
        if event is not None:
            self.app.deliver_event(event)
            return True
        return self._do_one_other(block)

    def _do_one_other(self, block: bool) -> bool:
        """One timer, file, idle or flush step: what runs when no X
        event is queued."""
        if self._run_due_timer():
            return True
        if self._poll_files():
            return True
        if self._run_idle():
            return True
        if self.app.display.flush():
            # Going idle is the flush point of the output buffer (the
            # Xlib discipline): deliver buffered one-way requests now,
            # before blocking, so their events can arrive.
            return True
        if block:
            deadline = self.next_timer_deadline()
            if deadline is not None:
                self._advance_clock(deadline)
                return self._run_due_timer()
        return False

    def update(self) -> int:
        """Process events until none are pending; returns the count.

        Runs exactly what ``while do_one_event(False)`` would, in the
        same order and with the same error routing, but takes queued X
        events in this one loop instead of one call each.
        """
        display = self.app.display
        deliver = self.app.deliver_event
        processed = 0
        while True:
            try:
                event = display.next_event()
                if event is not None:
                    deliver(event)
                elif not self._do_one_other(False):
                    return processed
            except (TclError, XProtocolError) as error:
                if not self._recover(error):
                    return processed
            processed += 1
            if processed > 100000:
                raise RuntimeError("update did not converge")

    def do_events(self, limit: int) -> int:
        """Process up to ``limit`` pending events; returns the count.

        The cooperative-scheduling variant of :meth:`update`: a fleet
        driver interleaving hundreds of sessions pumps each one with a
        bounded budget per scheduler round, so a session with a long
        redraw cascade cannot starve its neighbors.  A return value
        equal to ``limit`` means the session still has pending work and
        should be revisited before its next input.
        """
        processed = 0
        while processed < limit and self.do_one_event(block=False):
            processed += 1
        return processed

    def mainloop(self, until: Optional[Callable[[], bool]] = None,
                 max_iterations: int = 1000000) -> None:
        """Run until the application is destroyed (or ``until`` holds)."""
        for _ in range(max_iterations):
            if self.app.destroyed:
                return
            if until is not None and until():
                return
            if not self.do_one_event(block=True):
                return
