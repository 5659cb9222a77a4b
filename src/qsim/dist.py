"""Distributed state-vector engine.

The 2^n amplitudes are sharded over P = 2^k ranks: the low n-k bits of an
amplitude's position-space index address within a rank's slice, the high k
bits are the rank id. A permutation (program qubit -> position) tracks
which qubits currently sit on local vs global (rank-id) index bits.

Gates dispatch as:
  (a) all targets on local bits  -> local matrix application; a global
      control reads its bit of the rank id, and a 0 skips the rank
  (b) any diagonal gate, with local or global targets -> phase multiply;
      a global qubit's phase reads its bit of the rank id, no messages.
      The engine folds it into the (a) step right after it, or else the
      one right before it, if that step's gate has no controls
      (`sweeps`), so with the compiled kernel it costs no sweep of its
      own
  (c) otherwise -> relocalize each global target (the partner ranks
      trade half-slices in place with one `FabricEndpoint.swap`: loopback
      swaps them directly, any other endpoint streams them in pieces of
      at most 2^14 amplitudes through one reused buffer), then apply
      locally
  (d) SWAP -> permutation relabel only, zero data movement
  (e) START, the circuit's leading one-qubit gates (`svcore.split_start`)
      -> each rank writes its slice of their product state over the
      slice `partition` wrote, with no messages: a global qubit reads its
      bit of the rank id, so it never relocalizes
Rule (e) is tried first, then (d), then (b), then (a), then (c); (a), (b)
and (e) are one `svcore.apply_gate` call. A rank whose slice is all zeros,
as `partition` leaves every rank but one and a START leaves a rank whose
global qubits read a 0 of the product state, skips (a) and (b) until its
first relocalization (`DistState.zero`): they would multiply zeros. Rule (d) holds with fusion on
too: `svcore.fuse` keeps every SWAP out of its blocks. Rule (b) holds for a
DIAGONAL op of up to 13 qubits from `svcore.fuse` too, local or global,
wherever they sit, so a whole stretch of diagonal gates is one phase
multiply.

When rule (c) must evict a local qubit, it looks ahead (Belady) to each
qubit's next use, and counts as a use only what rule (c) would have to
relocalize: a non-diagonal op with that qubit among its targets. Controls
and diagonal gates never need a local bit, and a SWAP is a relabel, so
the lookahead renames the qubit through each SWAP it passes.

`plan_gate` encodes this policy once, and `schedule` plans a whole circuit
into one step list, which `sweeps` pairs into the slice sweeps that run
it: the engine executes those on amplitudes and the performance model sums
the same pairs, so the two always agree. The ranks of a world all plan the
same circuit, so `run_distributed` asks its endpoint for the plan
(`FabricEndpoint.shared`), and a loopback world plans it once.
"""

from __future__ import annotations

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
            raise ValueError(f"{self.n} qubits cannot be split over {2 ** self.k} ranks")
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

    def copy(self) -> "RankLayout":
        return RankLayout(self.n, self.k, list(self.perm))


@dataclass
class DistState:
    """One rank's shard of a distributed state plus its layout and fabric.

    `zero` records that the slice is all zeros, so that local and diagonal
    steps, which leave zeros zero, are skipped (`_execute`): `partition`
    sets it on a rank that does not hold the initial amplitude, a START
    sets it where it leaves amplitude 0 at 0 (it then writes nothing
    else), and the rank's first relocalization clears it."""

    layout: RankLayout
    slice: StateSlice
    ep: FabricEndpoint
    zero: bool = False

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
    """Index of the first future op that needs the data now labelled q on
    a local bit: a non-diagonal op with q among its targets."""
    for i, op in enumerate(future_ops):
        if q in op.targets:
            if op.kind == "SWAP":
                a, b = op.targets
                q = b if q == a else a
            elif not op.is_diagonal():
                return i
    return math.inf


def _choose_victim(layout: RankLayout, op: GateOp, future_ops) -> int:
    """Local position to surrender to an incoming global qubit: the one
    holding the qubit whose next use (`_next_use`) is farthest (Belady
    lookahead), ties broken toward the lowest position. Positions holding
    this gate's targets are never evicted; controls may be (they work from
    global bits)."""
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
    Executing the steps in order moves a state's layout the same way, so
    plan on a copy of the layout the steps will run on.

    A START plans one "local" step wherever its qubits sit: it reads a
    global qubit's bit of the rank id. A SWAP plans one "relabel" step.
    Every diagonal gate, wherever its targets and controls sit, plans one
    "diagonal" step: a phase multiply that reads global bits from the rank
    id, moves no data and leaves the layout alone. A non-diagonal gate
    plans a "relocalize" step for each global target and then one "local"
    step.

    Width rule: a non-diagonal gate needs all of its targets on local bits
    at once; when the local space cannot hold them, `_choose_victim`
    raises ValueError ("needs more local index bits"). Diagonal gates and
    SWAPs need no local bits, so they have no width limit."""
    if op.kind == "START":
        return [PlanStep("local", op=op)]
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
    """The op stream the engine will execute on a slice as `partition`
    wrote it: first the START op of the circuit's leading one-qubit gates
    (`svcore.split_start`), if any, then the rest of the circuit, fused
    (dense blocks capped by the local address space; diagonal stretches
    of up to 13 qubits, which need no local bits) or verbatim. Fused,
    blocks on disjoint qubits stay open side by side, so a gate on other
    qubits never cuts a block short; the input's SWAPs trail the stream
    in input order and the ops after each SWAP are renamed through it
    (see `svcore.fuse`), so each SWAP plans as a free relabel."""
    start, rest = sv.split_start(circuit)
    ops = sv.fuse(rest, min(DEFAULT_FUSION_WIDTH, n - k)).ops if fusion else rest.ops
    return ops if start is None else [start, *ops]


def schedule(circuit: Circuit, n: int, k: int, fusion: bool) -> list[PlanStep]:
    """Every step of one run from |0...0>: `plan_gate` over
    `scheduled_ops` from the identity layout, built first so that a bad
    split fails before fusion takes a width from it. A START, when there
    is one, is the first step, one "local" step. The engine runs the
    list; the model sums it."""
    layout = RankLayout.identity(n, k)
    ops = scheduled_ops(circuit, n, k, fusion)
    return [step for i, op in enumerate(ops) for step in plan_gate(layout, op, ops[i + 1 :])]


def sweeps(steps) -> tuple[tuple[PlanStep, PlanStep | None, PlanStep | None], ...]:
    """`steps` as the engine runs them: each step with the "diagonal"
    steps folded into it to run before and after its op, or None. A
    diagonal step folds into the "local" step right after it, else into
    the one right before it, if that step's op has no controls, is not a
    START, and that side is still free; else it is a sweep of its own.
    Adjacent steps see the same layout, so a fold changes no result, and
    the compiled kernel multiplies a folded diagonal's phases in as the
    local step's sweep loads and stores each vector. The engine runs
    these; the model counts one slice sweep for each that holds a local or
    diagonal step. The result is a tuple, so the ranks of a loopback world
    can share it."""

    def takes(step) -> bool:
        return step.action == "local" and not step.op.controls and step.op.kind != "START"

    out: list[list] = []
    i = 0
    while i < len(steps):
        step = steps[i]
        if step.action == "diagonal" and i + 1 < len(steps) and takes(steps[i + 1]):
            out.append([steps[i + 1], step, None])
            i += 2
            continue
        if step.action == "diagonal" and i and takes(steps[i - 1]) and out[-1][2] is None:
            # a local step always heads the sweep that holds it
            out[-1][2] = step
        else:
            out.append([step, None, None])
        i += 1
    return tuple(tuple(s) for s in out)


# --------------------------------------------------------------------------
# execution on real amplitudes
# --------------------------------------------------------------------------


def partition(
    n: int,
    ep: FabricEndpoint,
    initial: int = 0,
    precision: Precision = Precision.DOUBLE,
) -> DistState:
    """Identity layout; the rank owning `initial` holds its amplitude.
    `precision` has one value, complex128's: the benchmark passes it, and
    its next change drops the keyword."""
    layout = RankLayout.identity(n, ep.hypercube_bits)
    k = layout.k
    if n - k > sv.QUBIT_CAP:
        raise ValueError(
            f"slice of 2^{n - k} amplitudes exceeds the per-rank cap "
            f"of 2^{sv.QUBIT_CAP}"
        )
    if not 0 <= initial < (1 << n):
        raise ValueError("initial basis index out of range")
    local = 1 << (n - k)
    amps = np.zeros(local, dtype=np.complex128)
    holds = ep.rank == initial >> (n - k)
    if holds:
        amps[initial & (local - 1)] = 1.0
    return DistState(layout, StateSlice._adopt(amps), ep, zero=not holds)


def relocalize(st: DistState, global_pos: int, local_pos: int) -> None:
    """Swap an index bit between a global position and a local one: the
    partner ranks trade half-slices in place with one `ep.swap`, which a
    loopback world does directly and any other endpoint streams through
    one reused piece buffer, so a relocalization stages one piece, not a
    slice. Logged as one message of half a slice; updates the layout
    permutation. The partner's half may hold data, so the slice is no
    longer known to be zero."""
    lay = st.layout
    if not lay.local_bits <= global_pos < lay.n:
        raise ValueError(f"global position {global_pos} out of range")
    if not 0 <= local_pos < lay.local_bits:
        raise ValueError(f"local position {local_pos} out of range")
    bit = global_pos - lay.local_bits
    g = (st.ep.rank >> bit) & 1
    amps = st.slice.amps
    # entries whose local bit differs from the rank's global bit move out,
    # in runs of 2^local_pos; the partner's complementary half lands in the
    # same slots
    run = 1 << local_pos
    moving = amps.reshape(-1, 2, run)[:, 1 - g]
    st.ep.swap(st.ep.rank ^ (1 << bit), moving)
    st.ep.traffic.record(bit, moving.nbytes)
    lay.swap_positions(global_pos, local_pos)
    st.zero = False


def _execute(st: DistState, step: PlanStep, before: PlanStep | None = None,
             after: PlanStep | None = None) -> None:
    """Run one step on the amplitudes, with the diagonal steps folded into
    it (`sweeps`); a relabel or relocalize step moves `st.layout` as it
    runs, so steps execute in their planned order. A slice known to be
    zero (`DistState.zero`) skips every local and diagonal step but a
    START: each maps zeros to zeros, up to the signs of zero."""
    lay = st.layout
    if step.action == "relabel":
        a, b = step.op.targets
        lay.swap_positions(lay.position_of(a), lay.position_of(b))
    elif step.action == "relocalize":
        relocalize(st, step.global_pos, step.local_pos)
    elif step.action in ("local", "diagonal"):
        if step.op.kind == "START":
            scalar, _ = sv.start_scalar(step.op, lay.perm, lay.local_bits, st.ep.rank)
            st.zero = scalar == 0
        elif st.zero:
            return
        sv.apply_gate(st.slice.amps, step.op, lay.perm, st.ep.rank,
                      before=before and before.op, after=after and after.op)
    else:
        raise AssertionError(f"unknown plan step {step.action!r}")


def apply(st: DistState, gate: GateOp, future_ops=()) -> None:
    """Apply one gate to the distributed state, relocalizing index bits as
    dictated by the scheduling policy."""
    if any(q >= st.n for q in gate.qubits):
        raise ValueError(f"gate qubit out of range for {st.n}-qubit state")
    for step in plan_gate(st.layout.copy(), gate, future_ops):
        _execute(st, step)


def run_distributed(
    circuit: Circuit,
    ep: FabricEndpoint,
    fusion: bool = False,
    precision: Precision = Precision.DOUBLE,
) -> DistState:
    """SPMD circuit execution; every rank calls with identical arguments,
    and a loopback world whose ranks pass the same `circuit` object plans
    it once for all of them (`FabricEndpoint.shared`). `precision` is
    `partition`'s."""
    st = partition(circuit.num_qubits, ep)
    plan = ep.shared(circuit, lambda: sweeps(schedule(circuit, st.n, st.layout.k, fusion)))
    for step, before, after in plan:
        _execute(st, step, before, after)
    return st


def gather(st: DistState) -> StateSlice:
    """Reassemble the full state in program-qubit order (perm inverted).
    Test/report plumbing; every rank returns the identical vector."""
    n = st.n
    if n > sv.QUBIT_CAP:
        raise ValueError(f"gather of 2^{n} amplitudes exceeds the cap of 2^{sv.QUBIT_CAP}")
    blobs = st.ep.allgather_bytes(st.slice.amps.tobytes())
    by_position = np.concatenate([np.frombuffer(b, dtype=np.complex128) for b in blobs])
    # program bit q sits at position perm[q]
    axes = sv._bit_axes(n, st.layout.perm[::-1])
    return StateSlice._adopt(by_position.reshape((2,) * n).transpose(axes).ravel())


def sample_distributed(
    st: DistState, shots: int, seed: int, measured=None
) -> CountsDistribution:
    """Noiseless sampling; every rank returns the identical distribution.
    The ranks allreduce their |amp|^2 masses, the leader's seed splits the
    shots across ranks, and each rank draws its share with seed XOR rank
    in two levels: one pass sums |amp|^2 per block of its slice, and only
    the blocks that draw shots are squared again (`svcore.draw_indices`),
    so no temporary is slice-sized."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    ep = st.ep
    lay = st.layout
    measured = sv.measured_register(measured, st.n)

    block_masses = sv.block_masses(st.slice.amps)
    masses = np.zeros(ep.world_size, dtype=np.float64)
    masses[ep.rank] = block_masses.sum()
    masses = ep.allreduce_sum(masses)
    total = float(masses.sum())
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"distributed state is not normalized (mass {total})")

    # any integer seed, negative or from 2^63 up, is taken modulo 2^64
    base_seed = struct.unpack(
        "<Q", ep.broadcast(0, struct.pack("<Q", int(seed) & 0xFFFFFFFFFFFFFFFF))
    )[0]
    split = sv.split_shots(np.random.default_rng(base_seed), shots, masses)

    # bit j of an outcome value is measured qubit j, at position perm[q]
    value = np.zeros(0, dtype=np.int64)
    my_shots = int(split[ep.rank])
    if my_shots > 0:
        rng = np.random.default_rng(base_seed ^ ep.rank)
        index = sv.draw_indices(st.slice.amps, block_masses, my_shots, rng)
        position = (ep.rank << lay.local_bits) | index
        value = np.zeros_like(position)
        for j, q in enumerate(measured):
            value |= ((position >> lay.perm[q]) & 1) << j
    every = np.frombuffer(b"".join(ep.allgather_bytes(value.tobytes())), dtype=np.int64)
    # ascending values of one width are ascending bitstrings
    entries = {
        sv.bitstring(int(v), len(measured)): int(c)
        for v, c in zip(*np.unique(every, return_counts=True))
    }
    return CountsDistribution(entries, float(shots))
