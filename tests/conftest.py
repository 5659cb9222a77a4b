import ctypes
import functools
import math
import os
import socket
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from qsim import bench, ckernel, dist, perfmodel, svcore as sv
from qsim.fabric import create_world, run_spmd
from qsim.svcore import Circuit

TESTS_DIR = Path(__file__).parent
SRC_DIR = TESTS_DIR.parent / "src"
# the widest step that the compiled kernel takes (`ckernel.c`'s MAX_WIDTH,
# svcore's DEFAULT_FUSION_WIDTH: its widest FUSED op and fusion block, so
# no op that svcore builds is wider); `ckernel.apply` declines a wider
# step, touching nothing
KERNEL_WIDTH = 3


def model_traffic(cfg, ranks) -> dict:
    """A benchmark report's `traffic` as the model predicts it for each of
    `ranks` ranks: the per-rank profile summed over the config's circuits."""
    topo = perfmodel.nvl72_topology().for_ranks(ranks)
    profiles = [perfmodel.schedule_traffic(c, cfg.n, topo, fusion=cfg.fusion)
                for c in bench._build_circuits(cfg)]
    by_bit: dict[str, int] = {}
    for p in profiles:
        for bit, nbytes in p.exchange_bytes_per_level.items():
            by_bit[str(bit)] = by_bit.get(str(bit), 0) + nbytes
    return {
        "exchange_bytes_total": sum(p.total_exchange_bytes for p in profiles),
        "messages_total": sum(p.swap_count for p in profiles),
        "bytes_by_global_bit": by_bit,
    }


def random_unitary(width: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dim = 1 << width
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@functools.cache
def _kernel_library() -> ctypes.CDLL:
    """The compiled kernel's library, opened once per session for the
    exports that `svcore` never calls."""
    lib = ctypes.CDLL(str(ckernel.library_path()))
    for name in ("qsim_terms", "qsim_real"):
        getattr(lib, name).argtypes = [ctypes.c_void_p, ctypes.c_int, ctypes.c_uint64,
                                       ctypes.c_uint64]
    lib.qsim_threads.argtypes = [ctypes.c_int, ctypes.c_int]
    return lib


def _kernel_query(name: str, mat, targets, cmask: int) -> int:
    """The compiled kernel's export `name` on a step, which it answers
    without running the step."""
    fn = getattr(_kernel_library(), name)
    mat = np.ascontiguousarray(mat, dtype=np.complex128)
    return fn(mat.ctypes.data, len(targets), sum(t << (8 * j) for j, t in enumerate(targets)),
              cmask)


def kernel_terms(mat, targets, cmask: int = 0) -> int:
    """The terms that each output of a step sums in the compiled kernel
    (`qsim_terms`): 2 or 4 through a block body, else 2^w, through the
    real body too, whose terms each take one FMA where the dense bodies'
    take two; 0 for a width it declines."""
    return _kernel_query("qsim_terms", mat, targets, cmask)


def kernel_real(mat, targets, cmask: int = 0) -> bool:
    """Whether the compiled kernel runs a step through its real body
    (`qsim_real`): a matrix real up to powers of i that does not fall into
    blocks, with no control at bit 0 or 1."""
    return bool(_kernel_query("qsim_real", mat, targets, cmask))


def kernel_threads(bits: int, share: int) -> int:
    """The threads the compiled kernel gives a step over 2^bits amplitudes
    from a share of `share` cores, computed without starting any."""
    return _kernel_library().qsim_threads(bits, share)


def align_phase(reference: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Rescale `other` by a unit phase so its largest-magnitude amplitude
    agrees in phase with `reference` (global phase is unobservable)."""
    i = int(np.argmax(np.abs(other)))
    if abs(other[i]) == 0 or abs(reference[i]) == 0:
        return other
    phase = (reference[i] / abs(reference[i])) / (other[i] / abs(other[i]))
    return other * phase


def max_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Largest elementwise amplitude deviation between two state vectors."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def sample_one_rank(state, shots, seed, measured=None):
    """`dist.sample_distributed` of a full state held by the one rank of a
    loopback world."""

    def body(ep):
        st = dist.DistState(dist.RankLayout.identity(state.num_qubits, 0), state, ep)
        return dist.sample_distributed(st, shots, seed, measured)

    return run_spmd(create_world("loopback", 1), body)[0]


def _random_phases(width: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 1 << width)))


# (qubits the gate needs, whether it is a dense block, maker); dense blocks
# must fit the local space, diagonal ones need no local bits
_MIXED_MAKERS = [
    (1, False, lambda a, q, u: sv.h(q[0])),
    (1, False, lambda a, q, u: sv.y(q[0])),
    (1, False, lambda a, q, u: sv.rx(a, q[0])),
    (1, False, lambda a, q, u: sv.rz(a, q[0])),
    (1, False, lambda a, q, u: sv.p(a, q[0])),
    (1, False, lambda a, q, u: sv.z(q[0])),
    (2, False, lambda a, q, u: sv.cx(q[0], q[1])),
    (2, False, lambda a, q, u: sv.cz(q[0], q[1])),
    (2, False, lambda a, q, u: sv.cp(a, q[0], q[1])),
    (2, False, lambda a, q, u: sv.rzz(a, q[0], q[1])),
    (2, False, lambda a, q, u: sv.swap(q[0], q[1])),
    (2, True, lambda a, q, u: sv.fused(q[:2], random_unitary(2, u))),
    (3, True, lambda a, q, u: sv.fused(q[:3], random_unitary(3, u))),
    (3, False, lambda a, q, u: sv.fused(q[:3], _random_phases(3, u))),
    (4, False, lambda a, q, u: sv.diagonal(q[:4], np.diagonal(_random_phases(4, u)))),
]


@st.composite
def mixed_circuits(draw, k):
    """Circuits of k+1 to 7 qubits mixing diagonal, controlled and dense
    gates on shuffled qubits, runnable over 2^k ranks."""
    n = draw(st.integers(k + 1, 7))
    makers = [
        make for width, dense, make in _MIXED_MAKERS
        if width <= (n - k if dense else n)
    ]
    ops = []
    for _ in range(draw(st.integers(0, 16))):
        make = draw(st.sampled_from(makers))
        qubits = tuple(draw(st.permutations(range(n))))
        angle = draw(st.floats(-math.pi, math.pi))
        ops.append(make(angle, qubits, draw(st.integers(0, 2**32 - 1))))
    return Circuit(n, ops)


@pytest.fixture(scope="class")
def numpy_kernel():
    """Run every kernel call of the class on the numpy kernels, as where
    the compiled kernel cannot be built: `ckernel.apply` returns -1, and
    `apply_gate` runs `_apply_matrix_numpy` and `_apply_diagonal_numpy`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ckernel, "load", lambda: None)
        yield


@pytest.fixture(scope="class")
def small_dense_blocks(numpy_kernel):
    """Run every kernel call on the numpy kernels (`numpy_kernel`), with
    the blocks of `_apply_matrix_numpy` shrunk to 2^max(2, w) amplitudes
    for w targets, so that the few-qubit states of the oracle and property
    tests cross block boundaries."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sv, "_DENSE_BLOCK_BITS", 2)
        yield


@pytest.fixture(scope="class")
def small_sample_blocks():
    """Shrink the sampler's blocks to 2 amplitudes, so that the few-qubit
    states of the sampling tests span many blocks and several batches of
    blocks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sv, "_SAMPLE_BLOCK_BITS", 1)
        yield


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


@contextmanager
def tcp_world(world_size, timeout=20.0):
    """The endpoints of a tcp world whose ranks share this process, built
    on one thread per rank (the rendezvous blocks until all have joined);
    drive them with `fabric.run_spmd`. Every endpoint is closed on exit."""
    rendezvous = f"127.0.0.1:{free_port()}"
    world = [None] * world_size
    failures = []

    def join(rank):
        try:
            world[rank] = create_world(
                "tcp", world_size, rendezvous=rendezvous, rank=rank, timeout=timeout
            )
        except BaseException as e:  # re-raised once every rank has returned
            failures.append(e)

    threads = [threading.Thread(target=join, args=(r,)) for r in range(world_size)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout + 10)
    try:
        if failures:
            raise failures[0]
        if any(t.is_alive() for t in threads):
            raise RuntimeError("a rank never returned from the rendezvous")
        yield world
    finally:
        for ep in world:
            if ep is not None:
                ep.close()


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
