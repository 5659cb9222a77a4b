"""Benchmark circuit builders: phase estimation with exactly representable
phases, the (inverse) quantum Fourier transform, transverse-field Ising
evolution via first-order Suzuki-Trotter steps, and seeded random circuits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import svcore as sv
from .svcore import Circuit, GateOp


@dataclass(frozen=True)
class QpeSpec:
    """Phase-estimation instance: k counting qubits, phase = numerator / 2^k."""

    k: int
    phase_numerator: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("need at least one counting qubit")
        if not 0 <= self.phase_numerator < (1 << self.k):
            raise ValueError("phase numerator must lie in [0, 2^k)")

    @property
    def phase(self) -> float:
        return self.phase_numerator / (1 << self.k)


@dataclass(frozen=True)
class LatticeSpec:
    rows: int
    cols: int
    kind: str = "square"
    periodic: bool = False

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("lattice dimensions must be >= 1")
        if self.kind not in ("square", "triangular"):
            raise ValueError(f"unknown lattice kind {self.kind!r}")

    @property
    def sites(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class TfimSpec:
    """Transverse-field Ising evolution: H = -J sum ZZ - h sum X."""

    sites: int
    edges: tuple[tuple[int, int], ...]
    J: float = 1.0
    h: float = 1.0
    t_total: float = 1.0
    steps: int = 10

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        seen = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError("self-loop edge")
            if not (0 <= i < self.sites and 0 <= j < self.sites):
                raise ValueError("edge references a site out of range")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)


def build_qft(qubits) -> list[GateOp]:
    """Forward QFT, including the final bit-reversal SWAP network. With the
    package's little-endian indexing this realizes F[y, x] = w^(xy)/sqrt(N)."""
    qubits = list(qubits)
    m = len(qubits)
    if m < 1:
        raise ValueError("QFT needs at least one qubit")
    ops: list[GateOp] = []
    for i in reversed(range(m)):
        ops.append(sv.h(qubits[i]))
        for j in reversed(range(i)):
            ops.append(sv.cp(math.pi / (1 << (i - j)), qubits[j], qubits[i]))
    for i in range(m // 2):
        ops.append(sv.swap(qubits[i], qubits[m - 1 - i]))
    return ops


def build_inverse_qft(qubits) -> list[GateOp]:
    """Exact inverse of build_qft: reversed order, conjugated phases."""
    return [sv.inverse(op) for op in reversed(build_qft(qubits))]


def build_qpe(spec: QpeSpec) -> Circuit:
    """Phase estimation over k+1 qubits with the phase gate as the unitary
    and the target prepared in its |1> eigenstate. The noiseless outcome
    distribution is a delta on the counting value `phase_numerator`."""
    k = spec.k
    target = k
    ops: list[GateOp] = [sv.x(target)]
    ops += [sv.h(j) for j in range(k)]
    for j in range(k):
        ops.append(sv.cp(2.0 * math.pi * spec.phase * (1 << j), j, target))
    ops += build_inverse_qft(range(k))
    return Circuit(
        k + 1,
        ops,
        measured_qubits=tuple(range(k)),
        name=f"qpe-k{k}-m{spec.phase_numerator}",
    )


def generate_lattice(spec: LatticeSpec) -> list[tuple[int, int]]:
    """Deterministic edge list: right+down neighbors per cell, plus one
    wrapped diagonal per cell for triangular lattices. Duplicate edges from
    wrapping collapse; wrap-induced self-loops drop."""
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()

    def add(a: int, b: int):
        if a == b:
            return
        key = (min(a, b), max(a, b))
        if key not in seen:
            seen.add(key)
            edges.append(key)

    rows, cols = spec.rows, spec.cols
    site = lambda r, c: r * cols + c
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                add(site(r, c), site(r, c + 1))
            elif spec.periodic:
                add(site(r, c), site(r, 0))
            if r + 1 < rows:
                add(site(r, c), site(r + 1, c))
            elif spec.periodic:
                add(site(r, c), site(0, c))
            if spec.kind == "triangular":
                if r + 1 < rows and c + 1 < cols:
                    add(site(r, c), site(r + 1, c + 1))
                elif spec.periodic:
                    add(site(r, c), site((r + 1) % rows, (c + 1) % cols))
    return edges


def build_tfim(spec: TfimSpec) -> Circuit:
    """First-order Trotter circuit for exp(-iHt): an initial H layer (uniform
    superposition start), then per step RZZ(-2*J*dt) on every edge followed by
    RX(-2*h*dt) on every site. All sites are measured."""
    n = spec.sites
    dt = spec.t_total / spec.steps
    ops: list[GateOp] = [sv.h(q) for q in range(n)]
    for _ in range(spec.steps):
        for i, j in spec.edges:
            ops.append(sv.rzz(-2.0 * spec.J * dt, i, j))
        for q in range(n):
            ops.append(sv.rx(-2.0 * spec.h * dt, q))
    return Circuit(n, ops, name=f"tfim-{n}")


def tfim_from_lattice(
    lattice: LatticeSpec,
    J: float = 1.0,
    h: float = 1.0,
    t_total: float = 1.0,
    steps: int = 10,
) -> TfimSpec:
    return TfimSpec(
        sites=lattice.sites,
        edges=tuple(generate_lattice(lattice)),
        J=J,
        h=h,
        t_total=t_total,
        steps=steps,
    )


_RANDOM_POOL = ("H", "X", "RZ", "RX", "CX", "CZ", "CP", "SWAP")


def build_random_circuit(n: int, num_gates: int, seed: int) -> Circuit:
    """Seeded uniform draw over a fixed gate pool; deterministic per seed.
    Any integer seed is taken modulo 2^64, as sampling takes it."""
    if n < 2:
        raise ValueError("random circuits need n >= 2")
    if num_gates < 0:
        raise ValueError(f"num_gates must be >= 0, got {num_gates}")
    rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
    ops: list[GateOp] = []
    for _ in range(num_gates):
        kind = _RANDOM_POOL[int(rng.integers(len(_RANDOM_POOL)))]
        nt, nc, npar, _, _ = sv.KINDS[kind]
        # a one-qubit gate draws its angle before its qubit, a two-qubit
        # gate after its qubits: every seed keeps the circuit it gave first
        if nt + nc == 1:
            params = tuple(float(rng.uniform(0.0, 2.0 * math.pi)) for _ in range(npar))
            qubits = (int(rng.integers(n)),)
        else:
            qubits = tuple(int(q) for q in rng.choice(n, size=nt + nc, replace=False))
            params = tuple(float(rng.uniform(0.0, 2.0 * math.pi)) for _ in range(npar))
        # controls first, as in `sv.cx(control, target)`
        ops.append(GateOp(kind, qubits[nc:], qubits[:nc], params))
    return Circuit(n, ops, name=f"random-{n}q-s{seed}")
