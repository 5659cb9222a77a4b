"""Distributed state-vector engine.

The 2^n amplitudes are sharded over P = 2^k ranks: the low n-k bits of an
amplitude's position-space index address within a rank's slice, the high k
bits are the rank id. A permutation (program qubit -> position) tracks
which qubits currently sit on local vs global (rank-id) index bits.

Gates dispatch as:
  (a) all targets on local bits  -> local matrix application; global
      controls become per-rank predicates
  (b) any diagonal gate, with local or global targets -> phase multiply
      using the rank's known global bit values, zero communication
  (c) otherwise -> relocalize each global target (pairwise half-slice
      exchange with the partner rank), then apply locally
  (d) SWAP -> permutation relabel only, zero data movement
Rule (d) is tried first, then (b), then (a), then (c).

`plan_gate` encodes this policy once; the real engine executes its steps on
amplitudes and the performance model replays them on byte counters, so the
two always agree.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import svcore as sv
from .fabric import FabricEndpoint
from .svcore import (
    Circuit,
    CountsDistribution,
    DEFAULT_FUSION_WIDTH,
    GateOp,
    Precision,
    StateSlice,
)

GATHER_QUBIT_CAP = 26
_GIB = float(1 << 30)


def state_size_gib(n: int, precision: Precision) -> float:
    """Full 2^n-amplitude state size in GiB; exact for powers of two."""
    return math.ldexp(float(precision.value), n - 30)


@dataclass
class RankLayout:
    """Bijection program qubit -> position. Positions [0, n-k) are local
    index bits; positions [n-k, n) are global bits, where global position p
    is rank-id bit p - (n-k)."""

    n: int
    k: int
    perm: list[int]

    def __post_init__(self):
        if self.k < 0 or self.n <= self.k:
            raise ValueError("need more qubits than global index bits")
        if sorted(self.perm) != list(range(self.n)):
            raise ValueError("perm must be a bijection over positions")
        self._pos2q = [0] * self.n
        for q, pos in enumerate(self.perm):
            self._pos2q[pos] = q

    @classmethod
    def identity(cls, n: int, k: int) -> "RankLayout":
        return cls(n, k, list(range(n)))

    @property
    def local_bits(self) -> int:
        return self.n - self.k

    def position_of(self, q: int) -> int:
        return self.perm[q]

    def qubit_at(self, pos: int) -> int:
        return self._pos2q[pos]

    def is_local(self, q: int) -> bool:
        return self.perm[q] < self.local_bits

    def swap_positions(self, pa: int, pb: int):
        qa, qb = self._pos2q[pa], self._pos2q[pb]
        self.perm[qa], self.perm[qb] = pb, pa
        self._pos2q[pa], self._pos2q[pb] = qb, qa

    def full_state_gib(self, precision: Precision = Precision.SINGLE) -> float:
        return state_size_gib(self.n, precision)

    def copy(self) -> "RankLayout":
        return RankLayout(self.n, self.k, list(self.perm))


def memory_accounting(
    n: int, world_size: int = 1, precision: Precision = Precision.SINGLE
) -> dict:
    """Size bookkeeping without allocating anything."""
    k = int(world_size).bit_length() - 1
    if world_size & (world_size - 1):
        raise ValueError("world size must be a power of two")
    if n <= k:
        raise ValueError("need more qubits than global index bits")
    return {
        "qubits": n,
        "ranks": world_size,
        "bytes_per_amplitude": precision.value,
        "full_state_gib": state_size_gib(n, precision),
        "slice_amplitudes": 1 << (n - k),
        "slice_bytes": (1 << (n - k)) * precision.value,
    }


@dataclass
class DistState:
    """One rank's shard of a distributed state plus its layout and fabric."""

    layout: RankLayout
    slice: StateSlice
    ep: FabricEndpoint

    @property
    def n(self) -> int:
        return self.layout.n


# --------------------------------------------------------------------------
# scheduling policy (shared with the performance model)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanStep:
    """One scheduled action: 'relabel' | 'relocalize' | 'local' | 'diagonal'."""

    action: str
    op: GateOp | None = None
    global_pos: int = -1
    local_pos: int = -1


def _next_use(q: int, future_ops) -> float:
    for i, op in enumerate(future_ops):
        if q in op.targets or q in op.controls:
            return i
    return math.inf


def _choose_victim(layout: RankLayout, op: GateOp, future_ops) -> int:
    """Local position to surrender to an incoming global qubit: the one
    holding the qubit whose next use is farthest (Belady lookahead),
    ties broken toward the lowest position. Positions holding this gate's
    targets are never evicted; controls may be (they work from global bits)."""
    protected = set(op.targets)
    best_pos, best_use = -1, -1.0
    for pos in range(layout.local_bits):
        q = layout.qubit_at(pos)
        if q in protected:
            continue
        use = _next_use(q, future_ops)
        if use > best_use:
            best_pos, best_use = pos, use
    if best_pos < 0:
        raise ValueError(
            f"gate on {op.targets} needs more local index bits than the "
            f"{layout.local_bits} available"
        )
    return best_pos


def plan_gate(layout: RankLayout, op: GateOp, future_ops=()) -> list[PlanStep]:
    """Dispatch one gate into executable steps, updating `layout` in place.
    Data movement in the returned steps depends only on the step fields,
    never on the (already updated) permutation.

    A SWAP plans one "relabel" step. Every diagonal gate, wherever its
    targets and controls sit, plans one "diagonal" step: a phase multiply
    that reads global bits from the rank id, moves no data and leaves the
    layout alone. A non-diagonal gate plans a "relocalize" step for each
    global target and then one "local" step.

    Width rule: a non-diagonal gate needs all of its targets on local bits
    at once; when the local space cannot hold them, `_choose_victim`
    raises ValueError ("needs more local index bits"). Diagonal gates and
    SWAPs need no local bits, so they have no width limit."""
    if op.kind == "SWAP":
        a, b = op.targets
        layout.swap_positions(layout.position_of(a), layout.position_of(b))
        return [PlanStep("relabel", op=op)]
    if op.is_diagonal():
        return [PlanStep("diagonal", op=op)]
    if all(layout.is_local(t) for t in op.targets):
        return [PlanStep("local", op=op)]
    steps: list[PlanStep] = []
    for t in op.targets:
        gpos = layout.position_of(t)
        if gpos < layout.local_bits:
            continue
        lpos = _choose_victim(layout, op, future_ops)
        steps.append(PlanStep("relocalize", global_pos=gpos, local_pos=lpos))
        layout.swap_positions(gpos, lpos)
    steps.append(PlanStep("local", op=op))
    return steps


def scheduled_ops(circuit: Circuit, n: int, k: int, fusion: bool) -> list[GateOp]:
    """The op stream the engine will execute: fused (width capped by the
    local address space) or verbatim."""
    if fusion:
        return sv.fuse(circuit, min(DEFAULT_FUSION_WIDTH, n - k)).ops
    return list(circuit.ops)


# --------------------------------------------------------------------------
# execution on real amplitudes
# --------------------------------------------------------------------------


def partition(
    n: int,
    ep: FabricEndpoint,
    initial: int = 0,
    precision: Precision = Precision.DOUBLE,
    slice_qubit_cap: int = GATHER_QUBIT_CAP,
) -> DistState:
    """Identity layout; the rank owning `initial` holds its amplitude."""
    k = int(ep.world_size).bit_length() - 1
    if n <= k:
        raise ValueError(
            f"{n} qubits cannot be split over {ep.world_size} ranks"
        )
    if n - k > slice_qubit_cap:
        raise ValueError(
            f"slice of 2^{n - k} amplitudes exceeds the per-rank cap "
            f"of 2^{slice_qubit_cap}"
        )
    if not 0 <= initial < (1 << n):
        raise ValueError("initial basis index out of range")
    local = 1 << (n - k)
    amps = np.zeros(local, dtype=precision.dtype)
    if ep.rank == initial >> (n - k):
        amps[initial & (local - 1)] = 1.0
    return DistState(RankLayout.identity(n, k), StateSlice._adopt(amps, precision), ep)


def relocalize(st: DistState, global_pos: int, local_pos: int) -> None:
    """Swap an index bit between a global position and a local one via a
    pairwise half-slice exchange; updates the layout permutation."""
    lay = st.layout
    if not lay.local_bits <= global_pos < lay.n:
        raise ValueError(f"global position {global_pos} out of range")
    if not 0 <= local_pos < lay.local_bits:
        raise ValueError(f"local position {local_pos} out of range")
    _exchange_halves(st, global_pos, local_pos)
    lay.swap_positions(global_pos, local_pos)


def _exchange_halves(st: DistState, global_pos: int, local_pos: int) -> None:
    lay = st.layout
    bit = global_pos - lay.local_bits
    g = (st.ep.rank >> bit) & 1
    amps = st.slice.amps
    # entries whose local bit differs from the rank's global bit move out;
    # the partner's complementary half lands in the same slots
    moving = amps.reshape(-1, 2, 1 << local_pos)[:, 1 - g]
    received = st.ep.exchange(st.ep.rank ^ (1 << bit), moving.tobytes())
    moving[...] = np.frombuffer(received, dtype=amps.dtype).reshape(moving.shape)


def _execute(st: DistState, step: PlanStep) -> None:
    if step.action == "relabel":
        return
    if step.action == "relocalize":
        _exchange_halves(st, step.global_pos, step.local_pos)
        return
    if step.action == "local":
        _apply_local(st, step.op)
        return
    if step.action == "diagonal":
        _apply_diagonal_shortcut(st, step.op)
        return
    raise AssertionError(f"unknown plan step {step.action!r}")


def _apply_local(st: DistState, op: GateOp) -> None:
    lay = st.layout
    tpos = [lay.position_of(t) for t in op.targets]
    cpos_local = []
    for c in op.controls:
        pos = lay.position_of(c)
        if pos < lay.local_bits:
            cpos_local.append(pos)
        elif not (st.ep.rank >> (pos - lay.local_bits)) & 1:
            return  # a global control bit is 0 on this rank: predicate fails
    sv._apply_matrix(st.slice.amps, sv.base_matrix(op), tpos, cpos_local)


def _apply_diagonal_shortcut(st: DistState, op: GateOp) -> None:
    lay = st.layout
    mat, qubits = sv.op_matrix(op)
    positions = [lay.position_of(q) for q in qubits]
    # the diagonal tensor holds qubits[j] on axis len(qubits)-1-j; fix each
    # global qubit's axis at this rank's bit value
    fixed = [
        (st.ep.rank >> (pos - lay.local_bits)) & 1 if pos >= lay.local_bits
        else slice(None)
        for pos in reversed(positions)
    ]
    reduced = np.diag(mat).reshape((2,) * len(qubits))[tuple(fixed)]
    sv._apply_diagonal(
        st.slice.amps, reduced.ravel(), [pos for pos in positions if pos < lay.local_bits]
    )


def apply(st: DistState, gate: GateOp, future_ops=()) -> None:
    """Apply one gate to the distributed state, relocalizing index bits as
    dictated by the scheduling policy."""
    if any(q >= st.n for q in gate.qubits):
        raise ValueError(f"gate qubit out of range for {st.n}-qubit state")
    for step in plan_gate(st.layout, gate, future_ops):
        _execute(st, step)


def run_distributed(
    circuit: Circuit,
    ep: FabricEndpoint,
    fusion: bool = False,
    precision: Precision = Precision.DOUBLE,
) -> DistState:
    """SPMD circuit execution; every rank calls with identical arguments."""
    k = int(ep.world_size).bit_length() - 1
    ops = scheduled_ops(circuit, circuit.num_qubits, k, fusion)
    st = partition(circuit.num_qubits, ep, precision=precision)
    for i, op in enumerate(ops):
        apply(st, op, ops[i + 1 :])
    return st


def gather(st: DistState, qubit_cap: int = GATHER_QUBIT_CAP) -> StateSlice:
    """Reassemble the full state in program-qubit order (perm inverted).
    Test/report plumbing; every rank returns the identical vector."""
    n = st.n
    if n > qubit_cap:
        raise ValueError(f"gather of 2^{n} amplitudes exceeds the cap of 2^{qubit_cap}")
    blobs = st.ep.allgather_bytes(st.slice.amps.tobytes())
    by_position = np.concatenate(
        [np.frombuffer(b, dtype=st.slice.amps.dtype) for b in blobs]
    )
    # program bit q sits at position perm[q]
    axes = sv._bit_axes(n, st.layout.perm[::-1])
    return StateSlice._adopt(
        by_position.reshape((2,) * n).transpose(axes).ravel(), st.slice.precision
    )


def sample_distributed(
    st: DistState, shots: int, seed: int, measured=None
) -> CountsDistribution:
    """Noiseless sampling of the distributed state. The leader's seed fixes
    the multinomial split of shots across ranks; each rank then samples its
    conditional slice distribution with seed XOR rank. Every rank returns
    the identical final distribution."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    ep = st.ep
    lay = st.layout
    measured = tuple(range(st.n)) if measured is None else tuple(measured)

    local_probs = np.abs(st.slice.amps.astype(np.complex128)) ** 2
    masses = np.zeros(ep.world_size, dtype=np.float64)
    masses[ep.rank] = float(local_probs.sum())
    masses = ep.allreduce_sum(masses)
    total = float(masses.sum())
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"distributed state is not normalized (mass {total})")

    base_seed = struct.unpack(
        "<q", ep.broadcast(0, struct.pack("<q", int(seed)))
    )[0]
    split = sv._multinomial(
        np.random.default_rng(base_seed & 0xFFFFFFFFFFFFFFFF), shots, masses / total
    )

    entries: dict[str, int] = {}
    my_shots = int(split[ep.rank])
    if my_shots > 0:
        rng = np.random.default_rng((base_seed ^ ep.rank) & 0xFFFFFFFFFFFFFFFF)
        counts = sv._multinomial(rng, my_shots, local_probs / masses[ep.rank])
        width = len(measured)
        rank_base = ep.rank << lay.local_bits
        for idx in np.nonzero(counts)[0]:
            pos_index = rank_base | int(idx)
            prog = 0
            for q in range(st.n):
                prog |= ((pos_index >> lay.perm[q]) & 1) << q
            key = sv.render_bits(prog, measured)
            entries[key] = entries.get(key, 0) + int(counts[idx])

    blob = json.dumps(entries, sort_keys=True).encode()
    merged: dict[str, int] = {}
    for other in ep.allgather_bytes(blob):
        for key, cnt in json.loads(other.decode()).items():
            merged[key] = merged.get(key, 0) + cnt
    return CountsDistribution(dict(sorted(merged.items())), float(shots))
