"""The layer suite: pytest-benchmark timings of the kernel seam, fusion and
planning, outside tier-1's `testpaths`.

    python -m pytest benches -q --benchmark-json=BENCH_<pr>.json

writes every entry's statistics, and `machine_info["qsim"]` records what
they ran on. `pytest benches --benchmark-disable -q` runs each body once,
as CI does, so the suite keeps working. Only public functions are called,
so the same files time an older tree."""

import os

import numpy as np

from qsim import ckernel


def pytest_benchmark_update_machine_info(config, machine_info):
    machine_info["qsim"] = {
        "nproc": os.cpu_count(),
        "cores_allowed": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "kernel": "numpy" if ckernel.load() is None else "compiled",
        "core_share": ckernel.cores,
        "CC": os.environ.get("CC") or "cc",
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
