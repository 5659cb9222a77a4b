"""Probes for the traced run: kernel roofline, transport throughput, P=1
against P=2 speed-up, and the performance-model cross-checks.

Kernel bytes are computed, not counted: every gate application is charged
2 x state bytes (one read and one write of each amplitude), whatever the
kernel really moves through the caches.
"""

from __future__ import annotations

from statistics import median

import numpy as np

from qsim import circuits, dist, fabric, perfmodel
from qsim import svcore as sv
from qsim.svcore import Circuit, Precision

from spec import N, ROOFLINE_GATES, SHOTS, TRANSPORT_SIZES
from tracing import clock


def _gates(n: int) -> dict:
    fused3 = sv.fuse(Circuit(n, [sv.h(0), sv.cx(0, 1), sv.cx(1, 2), sv.rz(0.3, 2)]), 3)
    (block,) = fused3.ops
    gates = {
        "h": sv.h(0),
        "rz": sv.rz(0.3, 0),
        "cx": sv.cx(1, 0),
        "cp": sv.cp(0.3, 1, 0),
        "rzz": sv.rzz(0.3, 0, 1),
        "fused3": block,
    }
    return {g: gates[g] for g in ROOFLINE_GATES}


def roofline(n: int, reps: int) -> dict:
    """GB/s of `dist.apply` on a one-rank n-qubit state for each gate kind,
    targets on qubits 0-2, against an in-place numpy multiply of the same
    array (the streaming ceiling). Median of `reps` applications each."""
    ep = fabric.create_world("loopback", 1)[0]
    st = dist.partition(n, ep, precision=Precision.DOUBLE)
    moved = 2 * st.slice.amps.nbytes
    out = {}
    for name, op in _gates(n).items():
        times = []
        for _ in range(reps):
            t0 = clock()
            dist.apply(st, op)
            times.append(clock() - t0)
        out[f"svcore.gbps.{name}.n{n}"] = moved / median(times) / 1e9
    amps = st.slice.amps
    phase = np.exp(0.1j)
    times = []
    for _ in range(max(5, reps)):
        t0 = clock()
        amps *= phase
        times.append(clock() - t0)
    out[f"svcore.stream_gbps.n{n}"] = moved / median(times) / 1e9
    return out


def transport(ep) -> dict:
    """Per-direction exchange GB/s with the partner rank at each payload
    size, and barrier latency. Run by both ranks of a 2-rank world."""
    peer = ep.rank ^ 1
    out = {}
    for label, size in TRANSPORT_SIZES:
        payload = bytes(size)
        reps = max(4, min(100, (256 << 20) // size))
        ep.barrier()
        times = []
        for _ in range(reps):
            t0 = clock()
            ep.exchange(peer, payload)
            times.append(clock() - t0)
        out[f"gbps.{label}"] = size / median(times) / 1e9
    ep.barrier()
    times = []
    for _ in range(500):
        t0 = clock()
        ep.barrier()
        times.append(clock() - t0)
    out["barrier_us"] = median(times) * 1e6
    return out


def loopback_transport() -> dict:
    res = fabric.run_spmd(fabric.create_world("loopback", 2), transport)
    return {f"fabric.loopback.{k}": v for k, v in res[0].items()}


def circuit_seconds(task, ranks: int, sample_seed: int) -> float:
    """One barrier-bracketed circuit on a loopback world, checked by shots."""

    def body(ep):
        ep.barrier()
        t0 = clock()
        st = dist.run_distributed(task.circuit, ep, fusion=True)
        counts = dist.sample_distributed(st, SHOTS, sample_seed, task.circuit.measured)
        ep.barrier()
        elapsed = clock() - t0
        if counts.entries != {task.key: SHOTS}:
            raise RuntimeError(f"{task.circuit.name} on {ranks} loopback ranks "
                               f"missed its known answer")
        return elapsed

    return fabric.run_spmd(fabric.create_world("loopback", ranks), body)[0]


def _paper_circuits() -> dict:
    ring34 = circuits.LatticeSpec(1, 34, "square", periodic=True)
    return {
        "qpe34": circuits.build_qpe(circuits.QpeSpec(33, 1)),
        "tfim34": circuits.build_tfim(circuits.tfim_from_lattice(ring34, steps=10)),
        "random34": circuits.build_random_circuit(34, 2000, 1),
    }


def paper_scale() -> dict:
    """Relocalization counts of 34-qubit circuits on 64 NVL72 ranks, fusion
    on and off, and the time the replays take."""
    topo = perfmodel.nvl72_topology(total=64)
    out = {}
    t0 = clock()
    for name, c in _paper_circuits().items():
        for fusion in (True, False):
            prof = perfmodel.schedule_traffic(c, 34, topo, fusion=fusion)
            out[f"perfmodel.relocalizations.{name}.{'fused' if fusion else 'unfused'}"] = (
                prof.swap_count
            )
    out["perfmodel.schedule_s"] = clock() - t0
    return out


def this_machine(ranks: int, mem_gbps: float, link_gbps: float | None):
    """A Topology for the machine the run is on: the kernel's measured rate
    as memory bandwidth and the transport's measured per-direction rate as
    the link."""
    if ranks == 1:
        return perfmodel.Topology((), mem_gbps * 1e9)
    lnk = perfmodel.LinkModel("this-machine", 2.0 * link_gbps * 1e9)
    return perfmodel.Topology(((ranks, lnk),), mem_gbps * 1e9)


def model_bytes(circuit, ranks: int) -> int:
    """Exchange bytes one rank sends, by the model's replay of the schedule."""
    topo = perfmodel.Topology(() if ranks == 1 else ((ranks, perfmodel.link("NVLink 5")),))
    return perfmodel.schedule_traffic(circuit, N, topo, fusion=True).total_exchange_bytes


def predicted_seconds(tasks, topo) -> list[float]:
    return [
        perfmodel.predict_time(
            perfmodel.schedule_traffic(t.circuit, N, topo, fusion=True), topo
        )
        for t in tasks
    ]
