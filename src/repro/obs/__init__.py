"""repro.obs — unified metrics, tracing, and profiling.

See :mod:`repro.obs.metrics`, :mod:`repro.obs.trace`, and
:mod:`repro.obs.profile` for the three pillars; the
:class:`Observability` hub in :mod:`repro.obs.core` ties them to a
virtual clock.  Inside the interpreter the same data is reachable via
the ``obs`` Tcl command and ``info metrics``.
"""

from .core import Observability
from .journal import Journal
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profile import Profile, profile
from .timeseries import TimeSeriesRecorder
from .trace import Span, Tracer

__all__ = [
    "Observability",
    "Journal",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "Profile", "profile",
    "TimeSeriesRecorder",
    "Span", "Tracer",
]
