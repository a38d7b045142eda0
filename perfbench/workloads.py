"""The four benchmark workloads.

Each workload builds its own state in :meth:`setup`, runs one unit
operation per :meth:`op` call (the caller times it), and verifies the
operation in :meth:`check` against a reference computed here, never by
the program under test.  Clients are closed-loop: an op returns only
once every application it drove has reached idle (``update`` returned).

Inputs come only from the seed: the same seed gives the same op
sequence, so the per-op counts of a fixed op window repeat exactly.
"""

from __future__ import annotations

import io
import itertools
import os
import random
import string
from time import perf_counter_ns
from typing import Dict, List, Optional

from repro.obs import replay
from repro.obs.journal import Journal
from repro.tcl.errors import TclError
from repro.tcl.interp import Interp
from repro.tk import send as _send
from repro.tk.app import TkApp
from repro.x11.transport import ensure_host, shutdown_host
from repro.x11.xserver import XServer

#: the counters each workload reports per op (see :func:`read_counts`)
COUNT_NAMES = ("requests", "round_trips", "bytes_out", "bytes_in",
               "events", "journal_entries", "coalesced", "cache_hits",
               "cache_misses", "compile_hits", "compile_misses")


def read_counts(servers, registries, journal_entries: int = 0
                ) -> Dict[str, int]:
    """Totals from the program's public metrics registries.

    ``servers`` give the ``x11.*`` counters; ``registries`` are the
    application (or bare interpreter) registries with ``tk.*`` and
    ``tcl.*``.
    """
    counts = dict.fromkeys(COUNT_NAMES, 0)
    for server in servers:
        metrics = server.obs.metrics
        counts["requests"] += server.requests
        counts["round_trips"] += server.round_trips
        counts["bytes_out"] += metrics.total("x11.wire.bytes_out")
        counts["bytes_in"] += metrics.total("x11.wire.bytes_in")
        counts["coalesced"] += metrics.value("x11.requests_coalesced")
    for metrics in registries:
        counts["events"] += metrics.total("tk.events.dispatched")
        counts["cache_hits"] += metrics.total("tk.cache.hits")
        counts["cache_misses"] += metrics.total("tk.cache.misses")
        counts["compile_hits"] += metrics.total("tcl.compile.hits")
        counts["compile_misses"] += metrics.total("tcl.compile.misses")
    counts["journal_entries"] = journal_entries
    return counts


def reset_process_state() -> None:
    """Restart the program's process-wide serial counters.

    ``send`` serials are global to the process and their digits cross
    the wire, so without this a phase's byte counts would depend on how
    many sends earlier phases made.  Every phase starts as a fresh
    process would.
    """
    _send._serials = itertools.count(1)


def _new_app(server, name: str, transport=None) -> TkApp:
    app = TkApp(server, name=name, transport=transport)
    app.interp.stdout = io.StringIO()
    return app


def _windows(server) -> List[int]:
    return sorted(wid for bucket in server.resource_census().values()
                  for wid in bucket["windows"])


class Workload:
    """Interface shared by the workloads (state lives on the object)."""

    name = ""
    #: ops run during set-up, to fill caches and finish lazy set-up
    warmup = 1
    #: the first timed ops, over which the per-op counts are taken:
    #: a fixed window, so the counts repeat exactly for a seed
    counted = 1
    #: whether ops drive a ``send`` whose wall time is reported
    reports_send = False

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int) -> Optional[int]:
        """Run op ``index``; return the wall ns of its ``send``, if any."""
        raise NotImplementedError

    def check(self, index: int) -> bool:
        raise NotImplementedError

    def counts(self) -> Dict[str, int]:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError


class ButtonChurn(Workload):
    """Table II row 3: create, display and delete 50 buttons."""

    name = "button_churn"
    warmup = 5
    counted = 20
    #: requests one steady-state op issues (cache warm); pinned so that
    #: a change in wire behaviour shows as a failed check, not as noise
    REQUESTS_PER_OP = 700

    def setup(self) -> None:
        rng = random.Random(self.seed)
        labels = ["".join(rng.choice(string.ascii_lowercase)
                          for _ in range(6)) for _ in range(50)]
        self.create = ["button .b%d -text %s -command {set pressed %s}"
                       % (index, label, label)
                       for index, label in enumerate(labels)]
        self.pack = ["pack append . .b%d {top}" % index
                     for index in range(50)]
        self.destroy = ["destroy .b%d" % index for index in range(50)]
        self.server = XServer()
        self.app = _new_app(self.server, "buttons")
        self.baseline = _windows(self.server)
        self.requests = self.server.requests

    def op(self, index: int) -> None:
        app = self.app
        for create, pack in zip(self.create, self.pack):
            app.interp.eval(create)
            app.interp.eval(pack)
        app.update()
        for destroy in self.destroy:
            app.interp.eval(destroy)
        app.update()

    def check(self, index: int) -> bool:
        issued = self.server.requests - self.requests
        self.requests += issued
        # the first ops also fill the resource cache
        return _windows(self.server) == self.baseline and \
            (index < self.warmup or issued == self.REQUESTS_PER_OP)

    def counts(self) -> Dict[str, int]:
        return read_counts([self.server], [self.app.obs.metrics])

    def teardown(self) -> None:
        self.app.destroy()


class InputSocket(Workload):
    """A seeded input storm over the socket transport."""

    name = "input_socket"
    warmup = 200
    counted = 200
    reports_send = True
    SETUP = """
entry .e
button .b -text Click -command {incr clicks}
frame .pad -geometry 200x120
bind .pad <Motion> {set mx %x; set my %y}
pack append . .e {top} .b {top} .pad {top}
focus .e
set clicks 0
"""
    #: the entry is kept short with BackSpace so redraw cost stays flat
    MAX_TEXT = 12

    def setup(self) -> None:
        self.server = XServer()
        self.app = _new_app(self.server, "storm", transport="socket")
        self.peer = _new_app(self.server, "peer", transport="socket")
        self.host = ensure_host(self.server)
        self.peer.interp.eval("wm withdraw .")
        self.app.interp.eval(self.SETUP)
        self.app.display.set_input_focus(self.app.main.id)
        self.app.update()
        self.peer.update()
        self.pad = self._area(".pad")
        self.button = self._area(".b")
        self.inputs = self._generate()
        # the reference model the checks compare against
        self.text = ""
        self.clicks = 0
        self.last = None

    def _area(self, path: str):
        window = self.app.window(path)
        x, y = window.root_position()
        return x, y, window.width, window.height

    def _generate(self):
        """Endless seeded input stream: 40% motion, 30% keystrokes,
        20% clicks, 10% sends."""
        rng = random.Random(self.seed)
        length = 0
        serial = 0
        while True:
            roll = rng.random()
            if roll < 0.4:
                yield ("motion", rng.randrange(self.pad[2]),
                       rng.randrange(self.pad[3]))
            elif roll < 0.7:
                if length and (length >= self.MAX_TEXT
                               or rng.random() < 0.2):
                    length -= 1
                    yield ("key", "BackSpace")
                else:
                    length += 1
                    yield ("key", rng.choice(string.ascii_lowercase))
            elif roll < 0.9:
                yield ("click",)
            else:
                serial += 1
                yield ("send", "%s%d" % (rng.choice("pqrs"), serial))

    def _inject(self, name: str, *args) -> None:
        # server input runs on the host thread, as over a real wire
        self.host.inject(name, *args)

    def op(self, index: int) -> Optional[int]:
        item = self.last = next(self.inputs)
        kind = item[0]
        sent_ns = None
        if kind == "motion":
            self._inject("warp_pointer", self.pad[0] + item[1],
                         self.pad[1] + item[2], 0)
        elif kind == "key":
            self._inject("press_key", item[1], 0, None)
            self._inject("release_key", item[1], 0, None)
        elif kind == "click":
            self._inject("warp_pointer", self.button[0] + 2,
                         self.button[1] + 2, 0)
            self._inject("press_button", 1, 0)
            self._inject("release_button", 1, 0)
        else:
            started = perf_counter_ns()
            self.echo = self.app.interp.eval(
                "send peer {set echo %s}" % item[1])
            sent_ns = perf_counter_ns() - started
        self.app.update()
        self.peer.update()
        return sent_ns

    def check(self, index: int) -> bool:
        kind = self.last[0]
        interp = self.app.interp
        if kind == "motion":
            return interp.eval("list $mx $my") == \
                "%d %d" % (self.last[1], self.last[2])
        if kind == "key":
            if self.last[1] == "BackSpace":
                self.text = self.text[:-1]
            else:
                self.text += self.last[1]
            return interp.eval(".e get") == self.text
        if kind == "click":
            self.clicks += 1
            return interp.eval("set clicks") == str(self.clicks)
        return self.echo == self.last[1]

    def counts(self) -> Dict[str, int]:
        return read_counts([self.server], [self.app.obs.metrics,
                                           self.peer.obs.metrics])

    def teardown(self) -> None:
        self.peer.destroy()
        self.app.destroy()
        shutdown_host(self.server)


class GoldenReplay(Workload):
    """``replay_journal(examples/golden.journal)`` in default mode."""

    name = "golden_replay"
    warmup = 5
    counted = 50

    def setup(self) -> None:
        path = os.path.join(self.root, "examples", "golden.journal")
        self.journal = Journal.load(path)
        self.recorded = len(self.journal.wire())
        # The replay builds its own server and application; remember
        # them so their registries can be read after the op.
        self.created: list = []
        created = self.created
        self._restore = []
        for cls in (XServer, TkApp):
            init = cls.__init__

            def capture(obj, *args, _init=init, **kwargs):
                _init(obj, *args, **kwargs)
                created.append(obj)
            self._restore.append((cls, init))
            cls.__init__ = capture
        self.totals = dict.fromkeys(COUNT_NAMES, 0)
        self.result = None

    def op(self, index: int) -> None:
        del self.created[:]
        self.result = replay.replay_journal(self.journal, mode="default")

    def check(self, index: int) -> bool:
        result = self.result
        servers = [obj for obj in self.created if isinstance(obj, XServer)]
        apps = [obj for obj in self.created if isinstance(obj, TkApp)]
        counts = read_counts(servers, [app.obs.metrics for app in apps],
                             len(result.replay_log))
        for name in COUNT_NAMES:
            self.totals[name] += counts[name]
        return result.matched and not result.swallowed and \
            result.replayed_requests == self.recorded

    def counts(self) -> Dict[str, int]:
        return dict(self.totals)

    def teardown(self) -> None:
        for cls, init in self._restore:
            cls.__init__ = init


class TclCompute(Workload):
    """A seeded mix of pure-Tcl scripts; no Tk, no X."""

    name = "tcl_compute"
    POOL = 64
    warmup = POOL
    counted = POOL
    PROCS = """
proc fib {n} {
    if {$n < 2} {return $n}
    return [expr {[fib [expr {$n - 1}]] + [fib [expr {$n - 2}]]}]
}
proc wsum {n k} {
    set s 0
    for {set i 0} {$i < $n} {incr i} {set s [expr {$s + $i * $k}]}
    return $s
}
"""
    TEMPLATE = """set a 1
set f [fib {fib}]
set w [wsum {loop} {k}]
set t 0
set j 0
while {{$j < {loop}}} {{incr t [expr {{$j % {mod}}}]; incr j}}
set l {{}}
foreach x {{{items}}} {{lappend l [expr {{$x * 3 - 1}}]}}
set sorted [lsort -integer $l]
set words [split {{{text}}} " "]
set u [string toupper [join [lrange $words 1 end] -]]
list $a $f $w $t [llength $l] [lindex $sorted 0] [lindex $sorted end] \
    [string length $u] [string first {upper} $u] [lsearch $words {needle}]
"""

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.interp = Interp()
        self.interp.stdout = io.StringIO()
        self.interp.eval(self.PROCS)
        self.scripts = []
        self.expected = []
        for _ in range(self.POOL):
            params = {
                "fib": 11, "loop": 200,
                "k": rng.randrange(2, 10), "mod": rng.randrange(3, 17),
                "items": [rng.randrange(-500, 500) for _ in range(40)],
                "words": ["".join(rng.choice(string.ascii_lowercase)
                                  for _ in range(rng.randrange(3, 8)))
                          for _ in range(24)],
            }
            params["needle"] = rng.choice(params["words"][1:])
            self.scripts.append(self.TEMPLATE.format(
                fib=params["fib"], loop=params["loop"], k=params["k"],
                mod=params["mod"],
                items=" ".join(map(str, params["items"])),
                text=" ".join(params["words"]),
                needle=params["needle"], upper=params["needle"].upper()))
            self.expected.append(self._reference(params))
        self.order = list(range(self.POOL))
        rng.shuffle(self.order)
        self.result = None

    @staticmethod
    def _reference(params) -> str:
        def fib(n):
            a, b = 0, 1
            for _ in range(n):
                a, b = b, a + b
            return a
        loop, k, mod = params["loop"], params["k"], params["mod"]
        mapped = [x * 3 - 1 for x in params["items"]]
        words = params["words"]
        upper = "-".join(words[1:]).upper()
        needle = params["needle"]
        values = [1, fib(params["fib"]), sum(i * k for i in range(loop)),
                  sum(j % mod for j in range(loop)), len(mapped),
                  min(mapped), max(mapped), len(upper),
                  upper.find(needle.upper()), words.index(needle)]
        return " ".join(map(str, values))

    def _slot(self, index: int) -> int:
        return self.order[index % self.POOL]

    def op(self, index: int) -> None:
        self.result = self.interp.eval(self.scripts[self._slot(index)])

    def check(self, index: int) -> bool:
        return self.result == self.expected[self._slot(index)]

    def counts(self) -> Dict[str, int]:
        return read_counts([], [self.interp.obs.metrics])

    def teardown(self) -> None:
        self.interp = None


class SendProbe:
    """Table II row 2 on loopback: ``send`` of an empty command.

    Workloads whose ops send nothing still report ``send_ms.p50``: the
    timed phase calls :meth:`burst` between ops, so the sends are
    sampled across the whole phase, under the same conditions as the
    ops.
    """

    BURST = 20

    def __init__(self):
        self.server = XServer()
        self.sender = _new_app(self.server, "sender")
        self.receiver = _new_app(self.server, "receiver")

    def burst(self):
        """Send :attr:`BURST` times; returns ``(wall ns, ok)`` pairs."""
        samples = []
        for _ in range(self.BURST):
            started = perf_counter_ns()
            try:
                result = self.sender.interp.eval("send receiver {}")
            except TclError:
                result = None
            samples.append((perf_counter_ns() - started, result == ""))
            self.sender.update()
            self.receiver.update()
        return samples

    def close(self) -> None:
        self.receiver.destroy()
        self.sender.destroy()


WORKLOADS = {cls.name: cls for cls in
             (ButtonChurn, InputSocket, GoldenReplay, TclCompute)}
