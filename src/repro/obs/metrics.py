"""The metrics registry: counters, gauges, and histograms.

Every layer of the stack (x11 server, Tk intrinsics, Tcl interpreter,
send, fault injection) records what it does through one of these
registries instead of ad-hoc integer attributes.  Metrics are named in
a dotted namespace with optional labels::

    x11.requests{type=create_window}     per-request-type counts
    x11.round_trips                      waits on a server reply
    tk.cache.hits{kind=color}            resource-cache effectiveness
    tcl.compile.hits                     compile-once cache
    send.wait_ms                         histogram of send round trips

A registry can *mount* other registries: a Tk application mounts the
(shared) X server's registry so ``obs metrics`` shows the whole stack
in one view, while each component keeps writing to its own counters.
Metric handles are plain objects with a ``value`` attribute, so the
hot paths (one increment per X request or Tcl command) cost a single
attribute store — the registry is only consulted to create or read
metrics, never to update them.

Histograms bucket *virtual-time* durations: the simulator's clock
advances one millisecond per server request, so bucket boundaries are
in virtual milliseconds and runs are exactly reproducible.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple

#: Default virtual-millisecond bucket boundaries for histograms.
DEFAULT_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000)


def metric_key(name: str, labels: Tuple[Tuple[str, str], ...]) -> str:
    """The canonical string key: ``name`` or ``name{k=v,...}``."""
    if not labels:
        return name
    return "%s{%s}" % (name, ",".join("%s=%s" % pair for pair in labels))


class Counter:
    """A monotonically increasing count.

    Hot paths hold the handle and do ``counter.value += 1`` directly.
    """

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self):
        return self.value


class Gauge:
    """A value that can go up and down (queue depths, cache sizes)."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def snapshot(self):
        return self.value


class Histogram:
    """A distribution over virtual-time buckets.

    ``counts[i]`` counts observations ``<= bounds[i]``; the final slot
    counts overflows.  ``value`` is the observation count, so mixed
    metric listings can show histograms alongside counters.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "total")

    kind = "histogram"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...],
                 buckets: Tuple[int, ...] = DEFAULT_BUCKETS):
        self.name = name
        self.labels = labels
        self.bounds = tuple(buckets)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0

    @property
    def value(self) -> int:
        return sum(self.counts)

    def observe(self, value) -> None:
        self.total += value
        for position, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[position] += 1
                return
        self.counts[-1] += 1

    def percentile(self, quantile: float) -> Optional[int]:
        """Bucket-resolution percentile estimate.

        Returns the upper bound of the first bucket whose cumulative
        count reaches ``quantile`` of all observations — an upper
        estimate at the histogram's own resolution (overflow
        observations report the last bound; an empty histogram None).
        """
        count = self.value
        if count == 0:
            return None
        threshold = quantile * count
        cumulative = 0
        for bound, bucket_count in zip(self.bounds, self.counts):
            cumulative += bucket_count
            if cumulative >= threshold:
                return bound
        return self.bounds[-1]

    def percentiles(self) -> Dict[str, Optional[int]]:
        return {"p50": self.percentile(0.50),
                "p95": self.percentile(0.95),
                "p99": self.percentile(0.99)}

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's reservoir into this one.

        Identical bucket bounds merge exactly (element-wise count
        addition); differing bounds re-bucket each of the other's
        buckets at its own upper bound, which is the same upper-estimate
        resolution :meth:`percentile` already reports.  Both histograms
        stay live — the other side is read, never mutated.
        """
        self.total += other.total
        if other.bounds == self.bounds:
            for position, count in enumerate(other.counts):
                self.counts[position] += count
            return
        for bound, count in zip(other.bounds, other.counts):
            if count:
                self._add(bound, count)
        overflow = other.counts[-1]
        if overflow:
            # Overflow observations exceed the other's last bound; all
            # we know is "> bounds[-1]", so file them just past it.
            self._add(other.bounds[-1] + 1, overflow)

    def _add(self, value, count: int) -> None:
        for position, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[position] += count
                return
        self.counts[-1] += count

    def snapshot(self):
        buckets = {"<=%d" % bound: count
                   for bound, count in zip(self.bounds, self.counts)
                   if count}
        overflow = self.counts[-1]
        if overflow:
            buckets[">%d" % self.bounds[-1]] = overflow
        snapshot = {"count": self.value, "sum": self.total,
                    "buckets": buckets}
        if self.value:
            snapshot.update(self.percentiles())
        return snapshot


def _label_tuple(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((key, str(value))
                        for key, value in labels.items()))


class MetricsRegistry:
    """All metrics of one component, plus read-through mounts.

    ``counter``/``gauge``/``histogram`` get-or-create handles; reads
    (``value``, ``total``, ``snapshot``) see this registry's metrics
    *and* every mounted registry's, which is how a Tk application
    presents server-wide ``x11.*`` metrics next to its own ``tk.*``
    and ``tcl.*`` ones.
    """

    def __init__(self):
        self._metrics: Dict[str, object] = {}
        self._mounts: List["MetricsRegistry"] = []

    # -- creation ------------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(Counter, name, _label_tuple(labels))

    def histogram_total(self, name: str) -> "Histogram":
        """One histogram combining every label series of ``name``.

        A fresh (unregistered) histogram merged from all matching
        series — how a fleet report computes its fleet-wide percentile
        from per-session ``...{session=...}`` histograms.
        """
        combined: Optional[Histogram] = None
        merged = self._all()
        for key in sorted(merged):
            metric = merged[key]
            if metric.name == name and isinstance(metric, Histogram):
                if combined is None:
                    combined = Histogram(name, (), buckets=metric.bounds)
                combined.merge(metric)
        return combined if combined is not None else Histogram(name, ())

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(Gauge, name, _label_tuple(labels))

    def histogram(self, name: str,
                  buckets: Tuple[int, ...] = DEFAULT_BUCKETS,
                  **labels) -> Histogram:
        key = metric_key(name, _label_tuple(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = Histogram(name, _label_tuple(labels), buckets)
            self._metrics[key] = metric
        elif not isinstance(metric, Histogram):
            raise TypeError('metric "%s" is a %s, not a histogram'
                            % (key, metric.kind))
        return metric

    def _get_or_create(self, factory, name: str,
                       labels: Tuple[Tuple[str, str], ...]):
        key = metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory(name, labels)
            self._metrics[key] = metric
        elif type(metric) is not factory:
            raise TypeError('metric "%s" is a %s, not a %s'
                            % (key, metric.kind, factory.kind))
        return metric

    # -- composition ---------------------------------------------------

    def mount(self, registry: "MetricsRegistry") -> None:
        """Include another registry's metrics in every read."""
        if registry is not self and registry not in self._mounts:
            self._mounts.append(registry)

    def absorb(self, other: "MetricsRegistry") -> None:
        """Adopt another registry's metric *objects*.

        Used when a component built before its application is rebound
        to the application's hub: existing handles keep counting into
        the very same objects, now visible here.  A metric already
        visible here, own or mounted, is kept: an interpreter's own
        tracer-loss counters must not hide those of the server tracer
        its application shares.
        """
        visible = self._all()
        for key, metric in other._metrics.items():
            if key not in visible:
                self._metrics[key] = metric
        for mounted in other._mounts:
            self.mount(mounted)

    def merge(self, other: "MetricsRegistry",
              include_mounts: bool = True,
              labels: Optional[Dict[str, str]] = None) -> None:
        """Add another registry's *values* into this one.

        Unlike :meth:`absorb` (which shares metric objects) and
        :meth:`mount` (which reads through), ``merge`` copies: counters
        and gauges are summed into same-named metrics here, histogram
        reservoirs are folded bucket-wise (:meth:`Histogram.merge`), and
        both registries stay independently live afterwards.  This is
        the fleet rollup primitive: per-session registries merge into
        one fleet-level registry whose percentiles then describe the
        combined distribution.

        ``include_mounts=False`` merges only the other registry's own
        metrics, not its read-through mounts — used to avoid counting a
        shared (mounted) server registry once per session.  ``labels``
        adds extra labels to every merged key, so a rollup can keep
        per-session series (``...{session=s007}``) next to the
        unlabeled fleet aggregate.  Metrics are merged in sorted key
        order, so a merge over the same inputs is deterministic.

        A name+label collision between the two registries must agree on
        kind; a counter merging into a histogram (or vice versa) raises
        ``TypeError`` like the creation API does.
        """
        source = other._all() if include_mounts else other._metrics
        extra = _label_tuple(labels) if labels else ()
        for key in sorted(source):
            metric = source[key]
            merged_labels = tuple(sorted(metric.labels + extra))
            if isinstance(metric, Histogram):
                mine = self.histogram(metric.name, buckets=metric.bounds,
                                      **dict(merged_labels))
                mine.merge(metric)
            elif isinstance(metric, Gauge):
                mine = self.gauge(metric.name, **dict(merged_labels))
                mine.value += metric.value
            else:
                mine = self.counter(metric.name, **dict(merged_labels))
                mine.value += metric.value

    # -- reads ---------------------------------------------------------

    def _all(self) -> Dict[str, object]:
        merged: Dict[str, object] = {}
        for mounted in self._mounts:
            merged.update(mounted._all())
        merged.update(self._metrics)
        return merged

    def get(self, name: str, **labels):
        key = metric_key(name, _label_tuple(labels))
        metric = self._metrics.get(key)
        if metric is not None:
            return metric
        for mounted in self._mounts:
            metric = mounted.get(name, **labels)
            if metric is not None:
                return metric
        return None

    def value(self, name: str, **labels):
        """The current value of one metric (0 when absent)."""
        metric = self.get(name, **labels)
        return metric.value if metric is not None else 0

    def total(self, name: str):
        """Sum of ``value`` across every label combination of a name."""
        return sum(metric.value for metric in self._all().values()
                   if metric.name == name)

    def names(self) -> List[str]:
        return sorted(self._all())

    def snapshot(self) -> Dict[str, object]:
        """``{key: scalar-or-histogram-dict}`` over all metrics."""
        return {key: metric.snapshot()
                for key, metric in sorted(self._all().items())}

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def format(self, pattern: Optional[str] = None) -> str:
        """Human-readable ``name value`` lines, optionally filtered."""
        from ..tcl.strings import glob_match
        lines = []
        for key, metric in sorted(self._all().items()):
            if pattern is not None and not glob_match(pattern, key):
                continue
            if isinstance(metric, Histogram):
                line = "%-44s count=%d sum=%d" % (key, metric.value,
                                                  metric.total)
                if metric.value:
                    line += " p50=%d p95=%d p99=%d" % (
                        metric.percentile(0.50), metric.percentile(0.95),
                        metric.percentile(0.99))
                lines.append(line)
            else:
                lines.append("%-44s %s" % (key, metric.value))
        return "\n".join(lines)


__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_BUCKETS", "metric_key"]
