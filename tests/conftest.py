import os
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TESTS_DIR = Path(__file__).parent
SRC_DIR = TESTS_DIR.parent / "src"


def random_unitary(width: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dim = 1 << width
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def launch_tcp_workers(mode, world_size, out_paths, seed=None, timeout=90):
    """Spawn one tcp_worker.py process per rank and wait for all of them."""
    port = free_port()
    rendezvous = f"127.0.0.1:{port}"
    # the workers import qsim from this checkout, like the test process
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), env.get("PYTHONPATH")])
    )
    procs = []
    for rank in range(world_size):
        argv = [
            sys.executable,
            str(TESTS_DIR / "tcp_worker.py"),
            mode,
            str(rank),
            str(world_size),
            rendezvous,
            str(out_paths[rank]),
        ]
        if seed is not None:
            argv.append(str(seed))
        procs.append(
            subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                env=env,
            )
        )
    failures = []
    for rank, proc in enumerate(procs):
        out, _ = proc.communicate(timeout=timeout)
        if proc.returncode != 0:
            failures.append(f"rank {rank} rc={proc.returncode}:\n{out}")
    if failures:
        pytest.fail("\n".join(failures))
