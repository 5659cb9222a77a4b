"""Timings of one `apply_gate` per kind, and of `fuse` and `dist.schedule`
on the workload families' circuits.

- 64 amplitudes, the size on which `fuse` builds a width-3 block's matrix:
  dense steps of 1 to 3 qubits, a width-3 step with a diagonal folded on
  each side, and a 3-qubit DIAGONAL.
- n=20, one array written once and shared by every entry: width-3 steps
  on (2, 13, 14) and on the lane set (0, 1, 2), a folded step and a
  13-qubit DIAGONAL, each beside `a *= 1.0`, the streaming ceiling of one
  read and one write of the same array. `extra_info["bytes"]` is what
  each entry reads and writes, so its GB/s is bytes / median.
- `fuse` and `dist.schedule` on the seed-1 circuits of the random, tfim
  and qpe families at n=20, as the benchmark workloads build them: a
  mirrored 100-gate random circuit on one rank, a mirrored 5-step TFIM
  echo on a 20-site ring and QPE, both on two ranks.
- `fuse` on one block of each kind, the cost of building the block it
  emits: a 13-qubit stretch of 12 CPs that share one qubit (the widest of
  QPE's inverse QFT) and a width-3 dense block of 3 ops."""

import numpy as np
import pytest

from qsim import circuits, dist, svcore as sv

N = 20


def unitary(width: int, seed: int) -> np.ndarray:
    """A random dense unitary: every entry nonzero and complex, so the
    compiled kernel takes its dense body."""
    rng = np.random.default_rng(seed)
    dim = 1 << width
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def phases(qubits, seed: int) -> sv.GateOp:
    rng = np.random.default_rng(seed)
    return sv.diagonal(qubits, np.exp(1j * rng.uniform(-np.pi, np.pi, 1 << len(qubits))))


def mirror(c: sv.Circuit) -> sv.Circuit:
    return sv.Circuit(c.num_qubits, c.ops + [sv.inverse(op) for op in reversed(c.ops)])


def family(name: str) -> tuple[sv.Circuit, int]:
    """The seed-1 circuit of a family at n=20, and its global bits."""
    rng = np.random.default_rng(1)
    if name == "random":
        return mirror(circuits.build_random_circuit(N, 100, 1)), 0
    if name == "tfim":
        ring = tuple(circuits.generate_lattice(circuits.LatticeSpec(1, N, periodic=True)))
        J, h = (float(v) for v in rng.uniform(0.5, 1.5, size=2))
        return mirror(circuits.build_tfim(circuits.TfimSpec(N, ring, J=J, h=h, t_total=1.0,
                                                            steps=5))), 1
    k = N - 1
    return circuits.build_qpe(circuits.QpeSpec(k, int(rng.integers(0, 1 << k)))), 1


def timed(benchmark, fn, nbytes: int) -> None:
    benchmark.extra_info["bytes"] = nbytes
    benchmark(fn)


SMALL = {
    "dense1": (sv.fused((4,), unitary(1, 1)), {}),
    "dense2": (sv.fused((1, 4), unitary(2, 2)), {}),
    "dense3": (sv.fused((1, 3, 4), unitary(3, 3)), {}),
    "folded3": (sv.fused((1, 3, 4), unitary(3, 3)),
                {"before": phases((0, 2), 4), "after": phases((4, 5), 5)}),
    "diagonal3": (phases((0, 3, 5), 6), {}),
}


@pytest.mark.parametrize("kind", SMALL)
def test_apply_gate_64(benchmark, kind):
    op, folds = SMALL[kind]
    amps = np.ones(64, dtype=complex) / 8
    timed(benchmark, lambda: sv.apply_gate(amps, op, range(6), **folds), 2 * amps.nbytes)


@pytest.fixture(scope="module")
def state():
    """One n=20 array, written once, so no entry times its first touch."""
    rng = np.random.default_rng(0)
    amps = rng.normal(size=1 << N) + 1j * rng.normal(size=1 << N)
    return amps / np.linalg.norm(amps)


LARGE = {
    "dense3-2-13-14": (sv.fused((2, 13, 14), unitary(3, 7)), {}),
    "dense3-0-1-2": (sv.fused((0, 1, 2), unitary(3, 8)), {}),
    "folded3-2-13-14": (sv.fused((2, 13, 14), unitary(3, 7)),
                        {"before": phases((0, 5, 9), 9), "after": phases((1, 13, 16), 10)}),
    "diagonal13": (phases(tuple(range(7, N)), 11), {}),
}


@pytest.mark.parametrize("kind", LARGE)
def test_apply_gate_n20(benchmark, state, kind):
    op, folds = LARGE[kind]
    timed(benchmark, lambda: sv.apply_gate(state, op, range(N), **folds), 2 * state.nbytes)


def test_stream_ceiling_n20(benchmark, state):
    timed(benchmark, lambda: np.multiply(state, 1.0, out=state), 2 * state.nbytes)


@pytest.mark.parametrize("name", ["random", "tfim", "qpe"])
def test_fuse(benchmark, name):
    circuit, k = family(name)
    _, rest = sv.split_start(circuit)
    benchmark(sv.fuse, rest, min(sv.DEFAULT_FUSION_WIDTH, N - k))


@pytest.mark.parametrize("name", ["random", "tfim", "qpe"])
def test_schedule(benchmark, name):
    circuit, k = family(name)
    benchmark(dist.schedule, circuit, N, k, True)


BLOCKS = {
    "stretch13": sv.Circuit(13, [sv.cp(-np.pi / 2 ** (12 - j), j, 12) for j in range(12)]),
    "dense3": sv.Circuit(3, [sv.fused((0, 1, 2), unitary(3, 12)), sv.cx(0, 1), sv.rx(0.3, 2)]),
}


@pytest.mark.parametrize("name", BLOCKS)
def test_fuse_block(benchmark, name):
    assert len(sv.fuse(BLOCKS[name]).ops) == 1
    benchmark(sv.fuse, BLOCKS[name])
