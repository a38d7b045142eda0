"""The session journal: an append-only record of one display session.

X11 performance pathologies are only diagnosable from a faithful wire
trace ("The X-Files", PAPERS.md), and the paper's own claims (§3.3
resource caching, §5/§6 send) are statements about what crosses the
client/server wire.  A :class:`Journal` attached to an
:class:`~repro.x11.xserver.XServer` records, in one ordered stream:

* every **injected input event** — pointer warps, button presses,
  key presses — with its arguments (these are the *inputs* a replay
  re-injects);
* every **request** that reaches the server (the wire stream a replay
  diffs against), with the originating client where known;
* every **delivered batch** (client id, size, the per-request operand
  windows);
* every **round trip**, **injected fault**, and **send RPC**;
* **virtual-clock advances** made by a blocking event loop, so
  timer-driven sessions replay on the same timeline.

Entries carry *virtual* timestamps (the server's simulated millisecond
clock) and a per-journal sequence number, never wall time, so the same
scripted session always produces a byte-identical journal — which is
what lets any captured session serve as a deterministic regression
test (see :mod:`repro.obs.replay`).

Storage is a bounded ring (crash forensics: the *last* N entries are
the ones that matter) plus an optional JSONL file sink that streams
every entry, so a long session's full history survives even after the
ring has wrapped.  The hot-path contract matches the tracer's: the
server consults a single ``self._jrec is not None`` test per request
when no journal is recording.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from .session import SessionConfig

#: Default capacity of the in-memory entry ring.
JOURNAL_RING = 65536

#: Journal file-format version (the header's ``v`` field).
FORMAT_VERSION = 1

#: Input kinds a replay knows how to re-inject.  ``update`` pumps one
#: application's event loop, ``advance`` moves the virtual clock (a
#: blocking wait jumping to a timer deadline), ``eval`` evaluates a
#: top-level script (interactive wish sessions), ``new_app`` connects
#: an additional application to the shared server (multi-interpreter
#: sessions, e.g. the adversarial fuzzer's).
INPUT_KINDS = ("warp_pointer", "press_button", "release_button",
               "press_key", "release_key", "update", "advance", "eval",
               "new_app")


def _encode(entry: Dict[str, object]) -> str:
    """One canonical JSON line: sorted keys, no whitespace."""
    return json.dumps(entry, sort_keys=True, separators=(",", ":"))


def args_digest(args, kwargs) -> Optional[str]:
    """A compact, deterministic digest of a request's arguments.

    Request *names* alone cannot localize a value-level change (the
    same ``draw_string`` is issued whether the label says Hello or
    Howdy), so delivered requests carry this digest and the replay
    diffs it.  Only scalar arguments participate — objects (events,
    client handles) have no stable text form — and the result is
    truncated so journals stay compact.
    """
    parts = [str(value) for value in args
             if isinstance(value, (int, str, bool))]
    parts.extend("%s=%s" % (key, value)
                 for key, value in sorted(kwargs.items())
                 if isinstance(value, (int, str, bool)))
    return ",".join(parts)[:96] if parts else None


class Journal:
    """An append-only, ring-bounded record of one session."""

    def __init__(self, clock: Optional[Callable[[], int]] = None,
                 maxlen: int = JOURNAL_RING,
                 sink: Optional[str] = None):
        self.clock = clock if clock is not None else (lambda: 0)
        self.maxlen = maxlen
        self.ring: deque = deque()
        #: entries evicted from the ring (still present in the sink)
        self.dropped = 0
        #: ``obs.journal.dropped`` counter once bound to a registry, so
        #: fleet runs can detect silent telemetry loss without reaching
        #: into the journal object
        self._m_dropped = None
        self._seq = 0
        #: session metadata: name, ablation flags, the setup script
        self.meta: Dict[str, object] = {}
        self.recording = False
        self._sink_path = sink
        self._sink = None

    def bind_metrics(self, registry) -> None:
        """Mirror ring evictions as an ``obs.journal.dropped`` counter.

        Called by :meth:`XServer.attach_journal`; the counter is seeded
        from any drops that happened before binding, so the metric and
        :attr:`dropped` always agree.
        """
        self._m_dropped = registry.counter("obs.journal.dropped")
        self._m_dropped.value = self.dropped

    # -- recording ------------------------------------------------------

    def set_header(self, name: str = "", script: str = "",
                   config: Optional[SessionConfig] = None,
                   fault_plan: Optional[dict] = None,
                   planted: Optional[str] = None) -> None:
        """Record session metadata; embedded so journals are
        self-contained (a replay rebuilds the application from the
        header's script and ``config`` flags, and re-installs the
        header's fault plan so injected faults replay deterministically).
        ``planted`` names a test-only planted bug
        (:mod:`repro.fuzz.plants`) that must be active for the journal
        to reproduce."""
        self.meta = {
            "k": "header", "v": FORMAT_VERSION, "name": name,
            "script": script,
            "flags": (config or SessionConfig()).to_flags(),
        }
        if fault_plan is not None:
            self.meta["fault_plan"] = fault_plan
        if planted is not None:
            self.meta["planted"] = planted
        if self._sink is not None:
            self._sink.write(_encode(self.meta) + "\n")

    def record(self, kind: str, **fields) -> None:
        """Append one entry (``k``/``seq``/``t`` plus ``fields``)."""
        self._seq += 1
        entry = {"k": kind, "seq": self._seq, "t": self.clock()}
        entry.update(fields)
        self.ring.append(entry)
        if len(self.ring) > self.maxlen:
            self.ring.popleft()
            self.dropped += 1
            if self._m_dropped is not None:
                self._m_dropped.value += 1
        if self._sink is not None:
            self._sink.write(_encode(entry) + "\n")

    # The per-kind helpers the server-side hooks call.  Each is a thin
    # wrapper so call sites read as what they record.

    def input(self, name: str, args: Tuple) -> None:
        self.record("input", name=name, args=list(args))

    def request(self, name: str, client: Optional[int] = None,
                window: Optional[int] = None,
                detail: Optional[str] = None) -> None:
        fields: Dict[str, object] = {"name": name, "client": client}
        if window is not None:
            fields["w"] = window
        if detail is not None:
            fields["d"] = detail
        self.record("req", **fields)

    def batch(self, client: int, ops: List[tuple]) -> None:
        self.record("batch", client=client, n=len(ops),
                    ops=[[op[0], op[1]] for op in ops])

    def round_trip(self) -> None:
        self.record("rt")

    def fault(self, fault_type: str, detail: str) -> None:
        self.record("fault", type=fault_type, detail=detail)

    def disconnected(self, client: int) -> None:
        """A client's connection closed (clean close or fault).

        The dead-client oracle scans for requests attributed to a
        client after its ``disc`` entry — the output buffer must never
        deliver on behalf of a closed connection.
        """
        self.record("disc", client=client)

    def send_rpc(self, sender: str, target: str, script: str,
                 wait: bool) -> None:
        self.record("send", sender=sender, target=target, script=script,
                    wait=bool(wait))

    # -- sink -----------------------------------------------------------

    def open_sink(self, path: Optional[str] = None) -> None:
        """Start streaming entries (and the header, if set) to a file."""
        if path is not None:
            self._sink_path = path
        if self._sink_path is None or self._sink is not None:
            return
        self._sink = open(self._sink_path, "w")
        if self.meta:
            self._sink.write(_encode(self.meta) + "\n")
        for entry in self.ring:
            self._sink.write(_encode(entry) + "\n")

    def close_sink(self) -> None:
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    # -- reads ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ring)

    def entries(self) -> List[Dict[str, object]]:
        return list(self.ring)

    def inputs(self) -> List[Tuple[str, list]]:
        """The replayable input stream: ``(name, args)`` in order."""
        return [(entry["name"], list(entry["args"]))
                for entry in self.ring if entry["k"] == "input"]

    def wire(self) -> List[Tuple[str, Optional[int], Optional[str]]]:
        """The request stream a replay diffs: ``(name, window,
        argument-digest)``."""
        return [(entry["name"], entry.get("w"), entry.get("d"))
                for entry in self.ring if entry["k"] == "req"]

    def counts(self) -> Dict[str, int]:
        """Entries per kind — the ``obs journal dump`` summary line."""
        totals: Dict[str, int] = {}
        for entry in self.ring:
            totals[entry["k"]] = totals.get(entry["k"], 0) + 1
        return totals

    # -- serialization --------------------------------------------------

    def to_jsonl(self) -> str:
        """The whole journal as JSON-lines (header first)."""
        lines = []
        if self.meta:
            lines.append(_encode(self.meta))
        lines.extend(_encode(entry) for entry in self.ring)
        return "\n".join(lines) + ("\n" if lines else "")

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_jsonl())

    @classmethod
    def loads(cls, text: str) -> "Journal":
        journal = cls()
        entries = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("k") == "header":
                journal.meta = record
            else:
                entries.append(record)
        journal.maxlen = max(JOURNAL_RING, len(entries))
        journal.ring.extend(entries)
        journal._seq = entries[-1]["seq"] if entries else 0
        return journal

    @classmethod
    def load(cls, path: str) -> "Journal":
        with open(path) as handle:
            return cls.loads(handle.read())

    # -- output ---------------------------------------------------------

    def format(self, limit: Optional[int] = None) -> str:
        """Human-readable listing (``obs journal dump``)."""
        counts = self.counts()
        summary = " ".join("%s=%d" % item
                           for item in sorted(counts.items()))
        lines = ["JOURNAL: %d entries (%d dropped from ring)%s"
                 % (len(self.ring), self.dropped,
                    "  " + summary if summary else "")]
        entries = self.entries()
        if limit is not None and limit >= 0:
            entries = entries[-limit:]
        for entry in entries:
            lines.append(self._format_entry(entry))
        return "\n".join(lines)

    @staticmethod
    def _format_entry(entry: Dict[str, object]) -> str:
        kind = entry["k"]
        head = "%8d %6d  " % (entry["seq"], entry["t"])
        if kind == "input":
            return head + "input  %s %s" % (
                entry["name"], " ".join(str(a) for a in entry["args"]))
        if kind == "req":
            client = entry.get("client")
            window = entry.get("w")
            detail = entry.get("d")
            return head + "req    %-24s client=%s%s%s" % (
                entry["name"], client if client is not None else "-",
                " w=%d" % window if window is not None else "",
                " (%s)" % detail if detail else "")
        if kind == "batch":
            return head + "batch  client=%s n=%d [%s]" % (
                entry["client"], entry["n"],
                " ".join(op[0] for op in entry["ops"]))
        if kind == "rt":
            return head + "round-trip"
        if kind == "disc":
            return head + "disc   client=%s" % entry["client"]
        if kind == "fault":
            return head + "fault  %s: %s" % (entry["type"],
                                             entry["detail"])
        if kind == "send":
            return head + "send   %s -> %s%s: %s" % (
                entry["sender"], entry["target"],
                "" if entry["wait"] else " (async)", entry["script"])
        return head + json.dumps(entry, sort_keys=True)


__all__ = ["Journal", "JOURNAL_RING", "FORMAT_VERSION", "INPUT_KINDS",
           "args_digest"]
