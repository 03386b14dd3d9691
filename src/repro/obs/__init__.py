"""Live run observability, read side: Prometheus, ``/status``, ``repro top``.

Telemetry records, obs exports.  The library reports only through
:mod:`repro.telemetry`, whose sinks — the :class:`~repro.telemetry.
Recorder` and the live :class:`~repro.telemetry.ProgressEngine` — hold
the state.  This package reads them back: :mod:`repro.obs.prometheus`
renders them as Prometheus text exposition, :mod:`repro.obs.http` serves
``GET /metrics`` and ``GET /status`` while the run is still going, and
``repro top`` (:mod:`repro.obs.top`) polls that endpoint as a refreshing
terminal dashboard.

Reading never touches the run: handlers take sink snapshots under the
sinks' own locks, so estimates are bit-identical with an exporter up or
down.
"""

from repro.obs.prometheus import parse_exposition, render_exposition

__all__ = [
    "render_exposition",
    "parse_exposition",
]
