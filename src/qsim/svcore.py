"""Dense state-vector core: gate matrices, gate application, a reference
simulator, measurement sampling, and greedy gate fusion.

Conventions shared by every module in this package:
  - qubit 0 is the least-significant bit of an amplitude index
  - bitstrings render MSB-first (highest qubit index leftmost)
  - a multi-qubit matrix indexes its bits in target-list order; the first
    listed target is the least-significant matrix bit
  - a C-contiguous array of 2^m amplitudes viewed as `amps.reshape((2,) * m)`
    holds index bit b on axis m-1-b (`_bit_axes`); kernels, sampling and
    gather are views and reductions over that tensor, not index arrays
  - diagonal gates (`GateOp.is_diagonal`) never take the matrix path:
    `_apply_diagonal` multiplies the view `amps.reshape((2,) * (m-L) +
    (2^L,))`, L = min(m, 13) (`_DIAGONAL_INNER_BITS`), in place by a
    factor spelled out over the low L index bits, so its inner loop is a
    contiguous run of 2^L amplitudes wherever the gate's bits sit
  - global phase is not significant; `align_phase` quotients it out
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

MAX_FUSION_WIDTH = 5
DEFAULT_FUSION_WIDTH = 3
DENSE_QUBIT_CAP = 26
# low index bits over which `_apply_diagonal` spells out its factor. 2^13
# is numpy's default ufunc buffer size (np.getbufsize()); with a shorter
# contiguous run the broadcast multiply goes through the iterator's buffers
# and ran about 30% slower at n=20
_DIAGONAL_INNER_BITS = 13

_SQ2 = 1.0 / math.sqrt(2.0)
_H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

_DIAGONAL_KINDS = frozenset({"Z", "RZ", "P", "CZ", "CP", "RZZ"})
# kind -> (number of targets, number of controls, number of params)
_KIND_SHAPE = {
    "H": (1, 0, 0),
    "X": (1, 0, 0),
    "Y": (1, 0, 0),
    "Z": (1, 0, 0),
    "RX": (1, 0, 1),
    "RZ": (1, 0, 1),
    "P": (1, 0, 1),
    "CX": (1, 1, 0),
    "CZ": (1, 1, 0),
    "CP": (1, 1, 1),
    "RZZ": (2, 0, 1),
    "SWAP": (2, 0, 0),
}


class Precision(Enum):
    """Bytes per complex amplitude."""

    SINGLE = 8
    DOUBLE = 16

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.complex64 if self is Precision.SINGLE else np.complex128)


@dataclass(frozen=True, eq=False)
class GateOp:
    """One gate instruction over program-qubit indices.

    `targets` carry the gate matrix; `controls` gate it on |1> values.
    `matrix` is set only for kind "FUSED" (a dense block produced by fusion
    or supplied directly).
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    params: tuple[float, ...] = ()
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind != "FUSED" and self.kind not in _KIND_SHAPE:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("duplicate target qubits")
        if set(self.targets) & set(self.controls):
            raise ValueError("targets and controls must be disjoint")
        if any(q < 0 for q in self.targets + self.controls):
            raise ValueError("negative qubit index")
        if self.kind == "FUSED":
            if not 1 <= len(self.targets) <= MAX_FUSION_WIDTH:
                raise ValueError(
                    f"fused block width must be in [1, {MAX_FUSION_WIDTH}]"
                )
            if self.controls:
                raise ValueError("fused blocks fold controls into the matrix")
            m = self.matrix
            dim = 1 << len(self.targets)
            if m is None or m.shape != (dim, dim):
                raise ValueError("fused matrix shape does not match target count")
            err = np.max(np.abs(m @ m.conj().T - np.eye(dim)))
            if err > 1e-10:
                raise ValueError(f"fused matrix is not unitary (deviation {err:.2e})")
        else:
            nt, nc, npar = _KIND_SHAPE[self.kind]
            if len(self.targets) != nt or len(self.controls) != nc:
                raise ValueError(f"{self.kind} takes {nt} target(s), {nc} control(s)")
            if len(self.params) != npar:
                raise ValueError(f"{self.kind} takes {npar} parameter(s)")
            if any(not math.isfinite(a) for a in self.params):
                raise ValueError("non-finite gate parameter")

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.targets + self.controls

    def is_diagonal(self) -> bool:
        if self.kind in _DIAGONAL_KINDS:
            return True
        if self.kind == "FUSED":
            # plan_gate asks this of every op; equal counts mean no
            # nonzero entry sits off the diagonal
            return np.count_nonzero(self.matrix) == np.count_nonzero(
                np.diagonal(self.matrix)
            )
        return False

    def __eq__(self, other):
        if not isinstance(other, GateOp):
            return NotImplemented
        if (self.kind, self.targets, self.controls, self.params) != (
            other.kind,
            other.targets,
            other.controls,
            other.params,
        ):
            return False
        if (self.matrix is None) != (other.matrix is None):
            return False
        return self.matrix is None or np.array_equal(self.matrix, other.matrix)


# gate factories

def h(q: int) -> GateOp:
    return GateOp("H", (q,))


def x(q: int) -> GateOp:
    return GateOp("X", (q,))


def y(q: int) -> GateOp:
    return GateOp("Y", (q,))


def z(q: int) -> GateOp:
    return GateOp("Z", (q,))


def rx(theta: float, q: int) -> GateOp:
    return GateOp("RX", (q,), params=(float(theta),))


def rz(theta: float, q: int) -> GateOp:
    return GateOp("RZ", (q,), params=(float(theta),))


def p(theta: float, q: int) -> GateOp:
    return GateOp("P", (q,), params=(float(theta),))


def cx(control: int, target: int) -> GateOp:
    return GateOp("CX", (target,), controls=(control,))


def cz(control: int, target: int) -> GateOp:
    return GateOp("CZ", (target,), controls=(control,))


def cp(theta: float, control: int, target: int) -> GateOp:
    return GateOp("CP", (target,), controls=(control,), params=(float(theta),))


def rzz(theta: float, a: int, b: int) -> GateOp:
    return GateOp("RZZ", (a, b), params=(float(theta),))


def swap(a: int, b: int) -> GateOp:
    return GateOp("SWAP", (a, b))


def fused(qubits, matrix) -> GateOp:
    return GateOp("FUSED", tuple(qubits), matrix=np.asarray(matrix, dtype=complex))


def base_matrix(op: GateOp) -> np.ndarray:
    """Matrix over op.targets in listed order, control logic excluded."""
    k = op.kind
    if k == "H":
        return _H
    if k == "X" or k == "CX":
        return _X
    if k == "Y":
        return _Y
    if k == "Z" or k == "CZ":
        return _Z
    if k == "RX":
        t = op.params[0] / 2.0
        return np.array(
            [[math.cos(t), -1j * math.sin(t)], [-1j * math.sin(t), math.cos(t)]],
            dtype=complex,
        )
    if k == "RZ":
        t = op.params[0] / 2.0
        return np.array([[np.exp(-1j * t), 0], [0, np.exp(1j * t)]], dtype=complex)
    if k == "P" or k == "CP":
        return np.array([[1, 0], [0, np.exp(1j * op.params[0])]], dtype=complex)
    if k == "RZZ":
        e = np.exp(-1j * op.params[0] / 2.0)
        return np.diag([e, e.conjugate(), e.conjugate(), e]).astype(complex)
    if k == "SWAP":
        return _SWAP
    if k == "FUSED":
        return op.matrix
    raise ValueError(f"unknown gate kind {k!r}")


def _bit_axes(m: int, bits) -> tuple[int, ...]:
    """Axes of `amps.reshape((2,) * m)` that hold the given index bits."""
    return tuple(m - 1 - b for b in bits)


def op_matrix(op: GateOp) -> tuple[np.ndarray, tuple[int, ...]]:
    """Full matrix of the op, controls included, over its qubits sorted
    ascending (bit j of the matrix index = j-th listed qubit)."""
    qubits = tuple(sorted(op.qubits))
    return _embed(base_matrix(op), op.targets, qubits, op.controls), qubits


def _embed(mat: np.ndarray, targets, full: tuple[int, ...], controls=()) -> np.ndarray:
    """Matrix over qubits `full` of `mat` on `targets`, gated on `controls`,
    identity elsewhere (bit j of the result's index = j-th qubit of `full`)."""
    if tuple(targets) == full:
        # nothing to embed into (so no controls either); skipping the
        # product keeps fusion cheap, and the copy keeps the gate
        # constants out of fused ops
        return mat.astype(complex)
    f = len(full)
    out = np.eye(1 << f, dtype=complex)
    # in out.reshape(-1), index bit j + f is bit j of the row
    _apply_matrix(
        out.reshape(-1), mat,
        [full.index(q) + f for q in targets], [full.index(q) + f for q in controls],
    )
    return out


def _apply_matrix(amps: np.ndarray, mat: np.ndarray, targets, controls=()) -> None:
    """In-place matrix application on the target bits of a 2^m amplitude
    array, restricted to indices whose control bits are all 1."""
    m = int(amps.size).bit_length() - 1
    w = len(targets)
    caxes = _bit_axes(m, controls)
    # fixing each control axis at 1 leaves a view of the controlled part
    sub = amps.reshape((2,) * m)[
        tuple(1 if a in caxes else slice(None) for a in range(m))
    ]
    # each control axis removed before a target axis shifts it down by one
    taxes = [a - sum(c < a for c in caxes) for a in _bit_axes(m, targets)]
    # with target j moved to axis w-1-j, the leading axes index the matrix
    front = np.moveaxis(sub, taxes, _bit_axes(w, range(w)))
    front[...] = (
        mat.astype(amps.dtype, copy=False) @ front.reshape(1 << w, -1)
    ).reshape(front.shape)


def _apply_diagonal(amps: np.ndarray, diag: np.ndarray, positions) -> None:
    """In-place multiply by a diagonal indexed over the given bit positions
    (bit j of the diagonal's index = positions[j])."""
    m = int(amps.size).bit_length() - 1
    w = len(positions)
    d = diag.astype(amps.dtype, copy=False).reshape((2,) * w + (1,) * (m - w))
    # axes of size 2 where a position sits, size 1 (broadcast) elsewhere
    factor = np.moveaxis(d, _bit_axes(w, range(w)), _bit_axes(m, positions))
    # spell the factor out over the low index bits, so the multiply's inner
    # loop runs over 2^low contiguous amplitudes whatever the positions
    low = min(m, _DIAGONAL_INNER_BITS)
    high = factor.shape[: m - low]
    factor = np.broadcast_to(factor, high + (2,) * low).reshape(high + (1 << low,))
    view = amps.reshape((2,) * (m - low) + (1 << low,))
    view *= factor


@dataclass
class StateSlice:
    """A contiguous block of complex amplitudes (the full state, or one
    rank's shard of it).

    A StateSlice never writes into an array its caller still holds: the
    constructor copies `amps`, and `_adopt` wraps only arrays made for it."""

    amps: np.ndarray
    precision: Precision = Precision.DOUBLE

    def __post_init__(self):
        self.amps = np.array(self.amps, dtype=self.precision.dtype, order="C")
        if self.amps.ndim != 1 or self.amps.size & (self.amps.size - 1):
            raise ValueError("amplitude count must be a power of two")

    @classmethod
    def _adopt(cls, amps: np.ndarray, precision: Precision) -> "StateSlice":
        """Wrap a fresh 1-D array of `precision.dtype` that no caller holds,
        without the constructor's copy."""
        state = cls.__new__(cls)
        state.amps, state.precision = amps, precision
        return state

    @property
    def num_qubits(self) -> int:
        return int(self.amps.size).bit_length() - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def copy(self) -> "StateSlice":
        return StateSlice._adopt(self.amps.copy(), self.precision)


def zero_state(n: int, precision: Precision = Precision.DOUBLE) -> StateSlice:
    return basis_state(n, 0, precision)


def basis_state(n: int, index: int, precision: Precision = Precision.DOUBLE) -> StateSlice:
    if not 0 <= index < (1 << n):
        raise ValueError("basis index out of range")
    amps = np.zeros(1 << n, dtype=precision.dtype)
    amps[index] = 1.0
    return StateSlice._adopt(amps, precision)


@dataclass
class Circuit:
    """An ordered gate sequence over `num_qubits` program qubits.

    `measured_qubits` of None means every qubit is measured.
    """

    num_qubits: int
    ops: list[GateOp]
    measured_qubits: tuple[int, ...] | None = None
    name: str = ""

    def __post_init__(self):
        for op in self.ops:
            bad = [q for q in op.qubits if q >= self.num_qubits]
            if bad:
                raise ValueError(f"gate references qubit {bad[0]} >= {self.num_qubits}")
        if self.measured_qubits is not None:
            mq = tuple(self.measured_qubits)
            if len(set(mq)) != len(mq):
                raise ValueError("duplicate measured qubits")
            if any(q >= self.num_qubits or q < 0 for q in mq):
                raise ValueError("measured qubit out of range")
            self.measured_qubits = tuple(sorted(mq))

    @property
    def measured(self) -> tuple[int, ...]:
        if self.measured_qubits is None:
            return tuple(range(self.num_qubits))
        return self.measured_qubits


@dataclass
class CountsDistribution:
    """Outcome counts (or probabilities) keyed by MSB-first bitstring."""

    entries: dict[str, float]
    total: float


def render_bits(index: int, qubits) -> str:
    """MSB-first bitstring of `index` over the given qubits."""
    return "".join(
        "1" if (index >> q) & 1 else "0" for q in sorted(qubits, reverse=True)
    )


def apply_gate_dense(state: StateSlice, gate: GateOp) -> StateSlice:
    """Apply one gate in place to a full dense state; returns the state."""
    n = state.num_qubits
    if any(q >= n for q in gate.qubits):
        raise ValueError(f"gate qubit out of range for {n}-qubit state")
    if gate.is_diagonal():
        mat, qubits = op_matrix(gate)
        _apply_diagonal(state.amps, np.diag(mat), qubits)
    else:
        _apply_matrix(state.amps, base_matrix(gate), gate.targets, gate.controls)
    return state


def dense_run(
    circuit: Circuit,
    initial: int = 0,
    precision: Precision = Precision.DOUBLE,
    qubit_cap: int = DENSE_QUBIT_CAP,
) -> StateSlice:
    """Reference simulator: apply all ops in order to |initial>."""
    if circuit.num_qubits > qubit_cap:
        raise ValueError(
            f"{circuit.num_qubits} qubits exceeds the dense cap of {qubit_cap}"
        )
    state = basis_state(circuit.num_qubits, initial, precision)
    for op in circuit.ops:
        apply_gate_dense(state, op)
    return state


def probabilities(state: StateSlice, measured=None) -> dict[str, float]:
    """Exact outcome distribution over the measured register."""
    n = state.num_qubits
    measured = tuple(range(n)) if measured is None else tuple(measured)
    probs = np.abs(state.amps.astype(np.complex128)) ** 2
    unmeasured = _bit_axes(n, [q for q in range(n) if q not in measured])
    agg = probs.reshape((2,) * n).sum(axis=unmeasured).ravel()
    width = len(measured)
    return {
        format(v, f"0{width}b"): float(agg[v]) for v in np.nonzero(agg)[0]
    }


def _multinomial(rng: np.random.Generator, shots: int, pvals: np.ndarray) -> np.ndarray:
    """Multinomial draw tolerant of float rounding in pvals."""
    pv = np.clip(np.asarray(pvals, dtype=np.float64), 0.0, None)
    s = pv.sum()
    if s <= 0:
        raise ValueError("probability vector sums to zero")
    pv /= s
    # absorb the residual so the vector sums to 1.0 exactly
    pv[int(np.argmax(pv))] += 1.0 - pv.sum()
    return rng.multinomial(shots, pv)


def sample_dense(
    state: StateSlice, shots: int, seed: int, measured=None
) -> CountsDistribution:
    """Draw `shots` outcomes i.i.d. from |amp|^2; deterministic per seed."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = np.abs(state.amps.astype(np.complex128)) ** 2
    if abs(probs.sum() - 1.0) > 1e-6:
        raise ValueError("state is not normalized")
    n = state.num_qubits
    measured = tuple(range(n)) if measured is None else tuple(measured)
    counts = _multinomial(np.random.default_rng(seed), shots, probs)
    entries: dict[str, int] = {}
    for idx in np.nonzero(counts)[0]:
        key = render_bits(int(idx), measured)
        entries[key] = entries.get(key, 0) + int(counts[idx])
    return CountsDistribution(entries, float(shots))


def fuse(circuit: Circuit, max_width: int = DEFAULT_FUSION_WIDTH) -> Circuit:
    """Greedy left-to-right fusion into dense blocks of at most `max_width`
    qubits. Ops wider than the cap pass through unchanged; everything else
    lands inside a FUSED block. The overall unitary is preserved."""
    if not 1 <= max_width <= MAX_FUSION_WIDTH:
        raise ValueError(f"max_width must be in [1, {MAX_FUSION_WIDTH}]")
    out: list[GateOp] = []
    blk_qubits: tuple[int, ...] | None = None
    blk_mat: np.ndarray | None = None

    def flush():
        nonlocal blk_qubits, blk_mat
        if blk_qubits is not None:
            out.append(fused(blk_qubits, blk_mat))
            blk_qubits = blk_mat = None

    for op in circuit.ops:
        mat, qubits = op_matrix(op)
        if len(qubits) > max_width:
            flush()
            out.append(op)
            continue
        if blk_qubits is None:
            blk_qubits, blk_mat = qubits, mat
            continue
        union = tuple(sorted(set(blk_qubits) | set(qubits)))
        if len(union) <= max_width:
            blk_mat = _embed(mat, qubits, union) @ _embed(blk_mat, blk_qubits, union)
            blk_qubits = union
        else:
            flush()
            blk_qubits, blk_mat = qubits, mat
    flush()
    return Circuit(circuit.num_qubits, out, circuit.measured_qubits, circuit.name)


def align_phase(reference: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Rescale `other` by a unit phase so its largest-magnitude amplitude
    agrees in phase with `reference` (global phase is unobservable)."""
    i = int(np.argmax(np.abs(other)))
    if abs(other[i]) == 0 or abs(reference[i]) == 0:
        return other
    phase = (reference[i] / abs(reference[i])) / (other[i] / abs(other[i]))
    return other * phase


def max_deviation(a: np.ndarray, b: np.ndarray, quotient_phase: bool = False) -> float:
    """Largest elementwise amplitude deviation between two state vectors."""
    b = align_phase(a, b) if quotient_phase else b
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
