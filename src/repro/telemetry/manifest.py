"""Run manifest: everything needed to interpret (and re-run) a trace.

A trace without its context is noise: the manifest records the problem,
the seed, the worker grid, the adaptive-probe record when one ran, and
the package/python versions, so a trace artifact pulled out of CI three
months later still says what produced it.  Wall-clock timestamps are
included deliberately — the manifest, like all telemetry, sits outside
the determinism contract (compare results, never manifests).
"""

from __future__ import annotations

import platform
import sys
import time
from typing import Optional, Sequence


def build_manifest(
    command: Optional[str] = None,
    problem: Optional[str] = None,
    method: Optional[object] = None,
    seed: Optional[int] = None,
    n_workers: Optional[int] = None,
    backend: Optional[str] = None,
    argv: Optional[Sequence[str]] = None,
    adaptive: Optional[dict] = None,
    extra: Optional[dict] = None,
) -> dict:
    """Assemble the JSON-friendly run manifest.

    Parameters
    ----------
    command / problem / method / seed:
        What ran: CLI subcommand, problem key, method label(s), seed.
    n_workers / backend:
        The worker grid the parallel layer fanned out over (``None``
        means the one-worker inline executor).
    argv:
        The invocation's argument vector, verbatim.
    adaptive:
        The ``extras["adaptive_sharding"]`` record (probe numbers and
        the chosen grid) when adaptive sizing ran — the piece a bit-exact
        replay needs.
    extra:
        Free-form additions merged in last.
    """
    import numpy

    import repro

    manifest = {
        "command": command,
        "problem": problem,
        "method": method,
        "seed": seed,
        "workers": {"n_workers": n_workers, "backend": backend},
        "argv": list(argv) if argv is not None else None,
        "adaptive_sharding": adaptive,
        "versions": {
            "repro": repro.__version__,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
        },
        "platform": platform.platform(),
        "timestamp": time.time(),
        "timestamp_iso": time.strftime(
            "%Y-%m-%dT%H:%M:%S%z", time.localtime()
        ),
    }
    if extra:
        manifest.update(extra)
    return manifest
