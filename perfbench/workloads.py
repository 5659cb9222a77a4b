"""Workload circuits and their known answers.

Every circuit has a single basis state as its exact output, so each result
is checked without the dense oracle: mirror and echo circuits `U U^-1`
return to |0...0>, and QPE with an exactly representable phase puts all of
its amplitude on the numerator (Proctor et al., "Measuring the capabilities
of quantum computers", Nature Physics 2022, for the mirror idea).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qsim import circuits
from qsim.svcore import Circuit, GateOp

from spec import N

SELF_INVERSE = frozenset({"H", "X", "Y", "Z", "CX", "CZ", "SWAP"})
ANGLE_NEGATED = frozenset({"RX", "RZ", "P", "CP", "RZZ"})


def inverse(ops) -> list[GateOp]:
    """Exact inverse of a gate list: reversed order, negated angles."""
    out = []
    for op in reversed(ops):
        if op.kind in SELF_INVERSE:
            out.append(op)
        elif op.kind in ANGLE_NEGATED:
            out.append(
                GateOp(op.kind, op.targets, op.controls, tuple(-a for a in op.params))
            )
        else:
            raise ValueError(f"no inverse rule for {op.kind}")
    return out


@dataclass(frozen=True)
class Task:
    """One circuit and the basis state that must hold all of its amplitude."""

    circuit: Circuit
    answer: int  # basis index in program-qubit order
    key: str  # the measured bitstring every shot must show


def mirror(u: Circuit) -> Task:
    c = Circuit(u.num_qubits, list(u.ops) + inverse(u.ops), name=f"{u.name}-mirror")
    return Task(c, 0, "0" * u.num_qubits)


def random_tasks(seed: int, count: int) -> list[Task]:
    return [mirror(circuits.build_random_circuit(N, 100, seed + i)) for i in range(count)]


def tfim_tasks(seed: int, count: int) -> list[Task]:
    """Loschmidt echo: 5 Trotter steps forward on a periodic ring, then the
    exact inverse. Coupling and field are drawn from the seed."""
    rng = np.random.default_rng(seed)
    ring = tuple(circuits.generate_lattice(circuits.LatticeSpec(1, N, periodic=True)))
    tasks = []
    for _ in range(count):
        J, h = (float(v) for v in rng.uniform(0.5, 1.5, size=2))
        spec = circuits.TfimSpec(N, ring, J=J, h=h, t_total=1.0, steps=5)
        tasks.append(mirror(circuits.build_tfim(spec)))
    return tasks


def qpe_tasks(seed: int, count: int) -> list[Task]:
    """QPE with N-1 counting qubits; the numerator is drawn from the seed."""
    k = N - 1
    rng = np.random.default_rng(seed)
    tasks = []
    for m in rng.integers(0, 1 << k, size=count):
        m = int(m)
        # the target qubit k stays in |1>, so the full index carries bit k
        tasks.append(Task(circuits.build_qpe(circuits.QpeSpec(k, m)), m | (1 << k),
                          format(m, f"0{k}b")))
    return tasks


_TASKS = {"random-p1": random_tasks, "tfim-tcp2": tfim_tasks, "qpe-loop2": qpe_tasks}


def build(workload: str, seed: int, count: int) -> list[Task]:
    return _TASKS[workload](seed, count)
