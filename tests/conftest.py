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


def run_ranks(argv_for_rank, world_size, timeout=90) -> list[str]:
    """Start one process per rank, running argv_for_rank(rank, rendezvous),
    and wait for all of them. Fails the test if any rank exits nonzero;
    returns each rank's stdout."""
    rendezvous = f"127.0.0.1:{free_port()}"
    # the ranks import qsim from this checkout, like the test process
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), env.get("PYTHONPATH")])
    )
    procs = [
        subprocess.Popen(
            argv_for_rank(rank, rendezvous), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=env,
        )
        for rank in range(world_size)
    ]
    outs, failures = [], []
    for rank, proc in enumerate(procs):
        out, err = proc.communicate(timeout=timeout)
        outs.append(out)
        if proc.returncode != 0:
            failures.append(f"rank {rank} rc={proc.returncode}:\n{out}{err}")
    if failures:
        pytest.fail("\n".join(failures))
    return outs


def launch_tcp_workers(mode, world_size, out_paths, seed=None, timeout=90):
    """Spawn one tcp_worker.py process per rank and wait for all of them."""
    extra = [] if seed is None else [str(seed)]

    def argv(rank, rendezvous):
        return [sys.executable, str(TESTS_DIR / "tcp_worker.py"), mode, str(rank),
                str(world_size), rendezvous, str(out_paths[rank]), *extra]

    run_ranks(argv, world_size, timeout)
