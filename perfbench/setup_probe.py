"""Set-up probe: one fresh interpreter from start to ready.

Imports ``repro``, builds the workload's problem, starts its worker pool
(if any), prints ``ready`` and shuts down.  ``run.py`` times a few of
these from process start to the ``ready`` line and reports the median as
``setup_s``.

Usage: ``PYTHONPATH=src python3 perfbench/setup_probe.py <workload>``
"""

import sys

import workloads


def main(name: str) -> None:
    workload = workloads.WORKLOADS[name]
    workloads.build_problem()
    pool = workloads.open_pool(workload)
    print("ready", flush=True)
    if pool is not None:
        pool.close()


if __name__ == "__main__":
    main(sys.argv[1])
