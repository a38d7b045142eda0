"""repro.fleet — journal-driven load generation with fleet telemetry.

The paper's toolkit was built for real deployments: many users, many
applications, one display server apiece.  This package simulates that
scale — hundreds of concurrent sessions (recorded journals, seeded
fuzz scenarios, synthetic outliers) interleaved over one shared
virtual clock — and makes *observability* the product: per-session
metric scoping, fleet-level rollups with latency percentiles,
top-N-slowest attribution where every outlier carries its own
reproduction handle, and declarative SLO checks.

Typical use::

    from repro.fleet import FleetDriver, SessionSpec
    from repro.fuzz import generate_scenario

    specs = [SessionSpec.from_journal("examples/golden.journal")]
    specs += [generate_scenario(seed) for seed in range(40)]
    result = FleetDriver(specs, seed=0).run()
    print(result.report(top=10))

or from the command line::

    python -m repro.fleet --sessions 200 --seed 0
    python -m repro.fleet --repro seed:17
    python -m repro.fleet --repro capture.journal
"""

from ..obs.session import SessionSpec
from .driver import FleetDriver, FleetResult
from .harness import FleetSession, make_slow_spec
from .telemetry import (DEFAULT_SLOS, SLO, FleetTelemetry, check_slos,
                        format_slos, format_top, top_slowest)

__all__ = [
    "FleetDriver", "FleetResult", "FleetSession", "SessionSpec",
    "make_slow_spec", "FleetTelemetry", "SLO", "DEFAULT_SLOS",
    "check_slos", "format_slos", "format_top", "top_slowest",
]
