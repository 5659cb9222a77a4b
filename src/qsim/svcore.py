"""Dense state-vector core: gate matrices, gate application, a reference
simulator, measurement sampling, and greedy gate fusion.

Conventions shared by every module in this package:
  - `KINDS` is the one place a named gate kind is defined: its shape, its
    matrix or phases, whether it is diagonal, and so its inverse. FUSED
    and DIAGONAL ops carry their own arrays
  - qubit 0 is the least-significant bit of an amplitude index
  - bitstrings render MSB-first (highest qubit index leftmost)
  - a multi-qubit matrix indexes its bits in target-list order; the first
    listed target is the least-significant matrix bit
  - a C-contiguous array of 2^m amplitudes viewed as `amps.reshape((2,) * m)`
    holds index bit b on axis m-1-b (`_bit_axes`); kernels, sampling and
    gather are views and reductions over that tensor, not index arrays
  - `apply_gate(amps, op, positions, high)` is the one way an op reaches
    amplitudes, for the engine, the reference simulator and fusion: qubit
    q sits at index bit positions[q] of 2^m amplitudes, and a position
    p >= m reads bit p - m of `high` (a rank's id). The engine plans a
    SWAP as a relabel and never hands one over; the reference simulator
    applies it as its matrix, an exact permutation. A "START" op
    (`split_start`) writes a product state over a zero slice, with no
    kernel call (`_fill_start`). A diagonal op never takes the matrix
    path: `apply_gate` hands the compiled kernel (below) a table of its
    phases over the d index bits it touches, ascending (`_phases`: 2^d
    entries, at most 128 KiB), for one serial sweep that looks each
    amplitude's phase up by its index bits.
    Where the kernel declines it, `_apply_diagonal_numpy` multiplies the
    view `amps.reshape((2,) * (m-L) + (2^L,))`, L = min(m, 13)
    (`_DIAGONAL_INNER_BITS`), in place by a factor spelled out over the
    low L index bits, one value of the gate's higher bits at a time, so
    its inner loop is a contiguous run of 2^L amplitudes wherever the
    gate's bits sit and its one temporary holds 2^L. `diagonal_of` gives
    any diagonal op as a phase vector over its sorted qubits
  - `apply_gate` also takes the diagonal ops to apply just before and
    just after a non-diagonal op (`dist.sweeps` pairs them). For an op
    without controls the compiled kernel multiplies their tables into
    each vector as its sweep loads and stores it, so a folded diagonal
    costs no sweep of its own; otherwise, and without the compiled
    kernel, the three are applied in order. Every path multiplies an
    amplitude by its phase alike, so both give the same bytes
  - a "DIAGONAL" op holds only that phase vector, for 1 to 13 qubits, so
    it is never densified. `fuse` emits one for each stretch of diagonal
    gates: such a step costs about one sweep at any width, while a dense
    block's cost grows with its width. A stretch stays within 13 qubits
    (`_DIAGONAL_INNER_BITS`), wherever they sit: the compiled kernel's
    table takes at most 128 KiB, and the numpy fallback spells its factor
    out over the low 13 bits once per value of the positions above them,
    so its temporary stays 128 KiB too
  - `fuse` keeps a frontier of open blocks on pairwise disjoint qubits.
    Disjoint blocks commute, so a gate on other qubits never flushes a
    block, and a gate that would overfill the blocks it touches emits the
    oldest of them (the first opened) and tries again. A diagonal gate
    joins a dense block only if it adds no qubit to it: a wider dense
    block costs more per sweep and leaves later dense gates one qubit
    fewer, while a diagonal stretch takes the phase for nearly nothing.
    Fusion has no matrix algebra of its own: an open block is its qubits
    and its ops, and its array is built once, when it is emitted, by
    `apply_gate` (a stretch's phases by `_product`)
  - every other op is one `ckernel.apply` call from `apply_gate`, its
    folded diagonals included when it has no controls, into one compiled C
    kernel (`ckernel.c`, whose header describes its design, its bodies and
    what they cost), which `ckernel.load` builds with the system C
    compiler on the first dense step and caches under the package's
    `__pycache__`. `ckernel.apply` is the one place a call to it is
    packed, and it checks every array it hands over; the call releases the
    GIL, so loopback rank threads multiply in parallel. The kernel
    takes 1 to 3 targets: the engine fuses to `DEFAULT_FUSION_WIDTH` (3),
    and no named gate has more than 2. A FUSED op of 4 or 5 qubits, which
    only a caller builds, runs on the numpy kernel, and its diagonals in
    sweeps of their own. Both kernels add each matrix entry m as
    Re m * x + Im m * (i x), the same products summed in another order,
    so they agree to about 1e-15. A large step is split over the
    process's share of cores (`ckernel.core_share`), and any share gives
    the same bytes; fusion's unitaries and small states never start a
    thread
  - the numpy kernel, `_apply_matrix_numpy`, runs only where
    `ckernel.apply` declines a step: a width above 3, or no compiled
    kernel (no compiler, a failed build, or a cache that cannot be
    written). The tests hold it as the reference. It transposes the
    bit-axis view to put the target axes in front and multiplies one block
    of 2^14 amplitudes (`_DENSE_BLOCK_BITS`) at a time. It copies each
    block out with the block's other axes in `_copy_order`, so the copy
    and the copy back step along a long run of index bits rather than the
    1 or 2 amplitudes below a low target. It multiplies the copy x as
    reals, [Re M | Im M] @ [x ; 1j x]: one real GEMM with the complex
    GEMM's flop count. x, 1j x and the product take 768 KiB, so they stay
    in a 2 MiB L2 beside the 256 KiB block, and no temporary is full-size
  - read-out squares |amp|^2 as re^2 + im^2 in float64; sampling sums it
    per block of 2^8 amplitudes (`_SAMPLE_BLOCK_BITS`) and squares again
    only the blocks that draw shots, so no temporary is full-size
  - global phase is not significant
  - amplitudes are complex128, 16 bytes each: the one precision, in which
    the model and the traffic log count bytes
  - `QUBIT_CAP` (26) is the most qubits one array may hold: a reference
    state, a rank's slice, a gathered state or the bench oracle's state
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from . import ckernel

MAX_FUSION_WIDTH = 5
DEFAULT_FUSION_WIDTH = 3
QUBIT_CAP = 26
# the most qubits one DIAGONAL op holds, wherever they sit: its table from
# `_phases` then takes at most 128 KiB. It is also the count of low index
# bits over which `_apply_diagonal_numpy` spells out its factor: 2^13 is
# numpy's default ufunc buffer size (np.getbufsize()); with a shorter
# contiguous run the broadcast multiply goes through the iterator's
# buffers and ran about 30% slower at n=20
_DIAGONAL_INNER_BITS = 13
# log2 of the amplitudes in one block of `_apply_matrix_numpy`, the
# fallback kernel, whose staging holds three times as many. Summed over 12
# target sets of width 1-3 at n=20 (2-vCPU Xeon, median of 9), 2^13 /
# 2^14 / 2^15 took 57 / 55 / 78 ms with 1 BLAS thread and 60 / 58 / 79 ms
# with 2: at 2^15 the block and its 1.5 MiB of staging outgrow a 2 MiB L2
_DENSE_BLOCK_BITS = 14
# log2 of the amplitudes in one block of `block_masses`: 2^8 to 2^12 all
# took about 1 ms at n=20, and smaller blocks leave less to square again
_SAMPLE_BLOCK_BITS = 8
# blocks that `draw_indices` squares at once: 2^11 amplitudes
_SAMPLE_BATCH_BLOCKS = 8

_SQ2 = 1.0 / math.sqrt(2.0)


def _rx(theta: float) -> np.ndarray:
    t = theta / 2.0
    return np.array(
        [[math.cos(t), -1j * math.sin(t)], [-1j * math.sin(t), math.cos(t)]],
        dtype=complex,
    )


def _rz(theta: float) -> np.ndarray:
    t = theta / 2.0
    return np.array([np.exp(-1j * t), np.exp(1j * t)])


def _rzz(theta: float) -> np.ndarray:
    e = np.exp(-1j * theta / 2.0)
    return np.array([e, e.conjugate(), e.conjugate(), e])


class Kind(NamedTuple):
    """A named gate kind: its number of targets, controls and params,
    whether it is diagonal, and `build(*params)`, which gives a fresh
    array: its matrix over the targets or, for a diagonal kind, that
    matrix's diagonal."""

    targets: int
    controls: int
    params: int
    diagonal: bool
    build: Callable[..., np.ndarray]


# the one place a named kind is defined. A kind without params is its own
# inverse, and a kind with params is undone by negating them (`inverse`)
KINDS = {
    "H": Kind(1, 0, 0, False, lambda: np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)),
    "X": Kind(1, 0, 0, False, lambda: np.array([[0, 1], [1, 0]], dtype=complex)),
    "Y": Kind(1, 0, 0, False, lambda: np.array([[0, -1j], [1j, 0]], dtype=complex)),
    "Z": Kind(1, 0, 0, True, lambda: np.array([1, -1], dtype=complex)),
    "RX": Kind(1, 0, 1, False, _rx),
    "RZ": Kind(1, 0, 1, True, _rz),
    "P": Kind(1, 0, 1, True, lambda theta: np.array([1, np.exp(1j * theta)])),
    "CX": Kind(1, 1, 0, False, lambda: np.array([[0, 1], [1, 0]], dtype=complex)),
    "CZ": Kind(1, 1, 0, True, lambda: np.array([1, -1], dtype=complex)),
    "CP": Kind(1, 1, 1, True, lambda theta: np.array([1, np.exp(1j * theta)])),
    "RZZ": Kind(2, 0, 1, True, _rzz),
    "SWAP": Kind(2, 0, 0, False, lambda: np.eye(4, dtype=complex)[[0, 2, 1, 3]]),
}


class Precision(Enum):
    """Bytes per complex amplitude, of the one precision: complex128. It
    stays only as the value of the `precision` keyword of
    `dist.partition` and `dist.run_distributed`, which the benchmark
    passes; the benchmark's next change drops both."""

    DOUBLE = 16


@dataclass(frozen=True, eq=False)
class GateOp:
    """One gate instruction over program-qubit indices.

    `targets` carry the gate matrix; `controls` gate it on |1> values.
    `matrix` is set only for kind "FUSED" (a dense block produced by fusion
    or supplied directly), for kind "DIAGONAL", where it holds the
    matrix's diagonal: 2^w unit phases, bit j of whose index is target j,
    and for kind "START", the internal op that `split_start` makes of a
    circuit's leading one-qubit gates: row j is the unit 2-vector that
    target j holds, and every qubit it does not list is in |0>. A START
    takes no controls, is not diagonal, and has no `base_matrix` and no
    inverse.
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    params: tuple[float, ...] = ()
    matrix: np.ndarray | None = None
    # set once by __post_init__: plan_gate asks it of every op, and each
    # eviction's lookahead asks it again of the ops ahead
    _diagonal: bool = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("FUSED", "DIAGONAL", "START") and self.kind not in KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        for q in self.targets + self.controls:
            # a bool is an int to Python, and a float or a string fails only
            # deep inside a kernel
            if isinstance(q, bool) or not isinstance(q, (int, np.integer)):
                raise ValueError(f"qubit index {q!r} is not an integer")
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
            # a FUSED block is diagonal when no nonzero entry sits off its diagonal
            diagonal = np.count_nonzero(m) == np.count_nonzero(np.diagonal(m))
        elif self.kind == "DIAGONAL":
            if not 1 <= len(self.targets) <= _DIAGONAL_INNER_BITS:
                raise ValueError(
                    f"diagonal step width must be in [1, {_DIAGONAL_INNER_BITS}]"
                )
            if self.controls:
                raise ValueError("diagonal steps fold controls into the phases")
            v = self.matrix
            if v is None or v.shape != (1 << len(self.targets),):
                raise ValueError("phase vector length does not match target count")
            err = np.max(np.abs(np.abs(v) - 1.0))
            if err > 1e-10:
                raise ValueError(f"phases are not of unit modulus (deviation {err:.2e})")
            diagonal = True
        elif self.kind == "START":
            if not self.targets:
                raise ValueError("a START op holds at least one qubit")
            if self.controls:
                raise ValueError("a START op takes no controls")
            v = self.matrix
            if v is None or v.shape != (len(self.targets), 2):
                raise ValueError("START needs one 2-vector per target")
            # a few 2-vectors, checked in Python: numpy's reductions would
            # page in code that no other step of a run touches
            err = max(abs(abs(a) ** 2 + abs(b) ** 2 - 1) for a, b in v.tolist())
            if err > 1e-10:
                raise ValueError(f"START vectors are not unit vectors (deviation {err:.2e})")
            diagonal = False
        else:
            nt, nc, npar, diagonal, _ = KINDS[self.kind]
            if len(self.targets) != nt or len(self.controls) != nc:
                raise ValueError(f"{self.kind} takes {nt} target(s), {nc} control(s)")
            if len(self.params) != npar:
                raise ValueError(f"{self.kind} takes {npar} parameter(s)")
            if any(not math.isfinite(a) for a in self.params):
                raise ValueError("non-finite gate parameter")
        object.__setattr__(self, "_diagonal", diagonal)

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.targets + self.controls

    def is_diagonal(self) -> bool:
        return self._diagonal

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


def diagonal(qubits, phases) -> GateOp:
    return GateOp("DIAGONAL", tuple(qubits), matrix=np.asarray(phases, dtype=complex))


def base_matrix(op: GateOp) -> np.ndarray:
    """Matrix over op.targets in listed order, control logic excluded."""
    if op.kind == "FUSED":
        return op.matrix
    if op.is_diagonal():
        # 2^w x 2^w for a DIAGONAL op: the program's paths read `diagonal_of`
        return np.diag(base_diagonal(op))
    return KINDS[op.kind].build(*op.params)


def base_diagonal(op: GateOp) -> np.ndarray:
    """Diagonal of `base_matrix` of a diagonal op, built without the matrix."""
    if op.kind == "DIAGONAL":
        return op.matrix
    if op.kind == "FUSED":
        return np.diagonal(op.matrix)
    if not KINDS[op.kind].diagonal:
        raise ValueError(f"{op.kind} is not a diagonal gate kind")
    return KINDS[op.kind].build(*op.params)


def inverse(op: GateOp) -> GateOp:
    """The op that undoes a named kind's op, by the rule at `KINDS`."""
    if op.kind not in KINDS:
        raise ValueError(f"no inverse rule for {op.kind}")
    if not op.params:
        return op
    return GateOp(op.kind, op.targets, op.controls, tuple(-a for a in op.params))


def _bit_axes(m: int, bits) -> tuple[int, ...]:
    """Axes of `amps.reshape((2,) * m)` that hold the given index bits."""
    return tuple(m - 1 - b for b in bits)


def diagonal_of(op: GateOp) -> tuple[np.ndarray, tuple[int, ...]]:
    """Phase vector of a diagonal op, controls included, over its qubits
    sorted ascending (bit j of the index = j-th listed qubit). Built from
    the op's own diagonal, so a DIAGONAL op is never densified."""
    listed = op.targets + op.controls
    phases = base_diagonal(op)
    if op.controls:
        # the controls are the high bits of the listed order, so the gate
        # acts on the top block, where they are all 1
        full = np.ones(1 << len(listed), dtype=complex)
        full[-phases.size :] = phases
        phases = full
    qubits = tuple(sorted(listed))
    if qubits != listed:
        phases = _ascending(phases, listed)
    return phases, qubits


def _ascending(vector: np.ndarray, bits) -> np.ndarray:
    """A vector indexed over the given distinct bits (bit j of its index =
    bits[j]) as indexed over the same bits in ascending order: a transpose
    of its bit axes, so every entry keeps its bytes."""
    bits = list(bits)
    ascending = sorted(bits)
    if ascending == bits:
        return vector
    w = len(bits)
    # axis w-1-j holds bits[j] before and the j-th lowest after
    axes = [w - 1 - bits.index(b) for b in reversed(ascending)]
    return vector.reshape((2,) * w).transpose(axes).ravel()


def _copy_order(bits: list[int]) -> list[int]:
    """The ascending free index bits of one numpy-kernel block as axes,
    slowest first: descending, except that the run of consecutive bits the
    copies step along comes last. That is the run from bit 0 if it holds at
    least 8 amplitudes, else the longest run (the lowest of equals)."""
    if bits[:3] == [0, 1, 2]:
        # descending puts that run last
        return bits[::-1]
    # bits[start:stop] is the longest run so far, bits[first:i] the current
    start = stop = first = 0
    for i in range(1, len(bits) + 1):
        if i == len(bits) or bits[i] != bits[i - 1] + 1:
            if i - first > stop - start:
                start, stop = first, i
            first = i
    return bits[stop:][::-1] + bits[:start][::-1] + bits[start:stop][::-1]


def _apply_matrix_numpy(amps: np.ndarray, mat: np.ndarray, targets, controls=()) -> None:
    """A matrix on the target bits of a 2^m amplitude array, in place, over
    the indices whose control bits are all 1, in numpy: the fallback where
    `ckernel.apply` declines a step, and the tests' reference.

    The matrix multiplies one block of 2^max(B, w) amplitudes at a time,
    B = `_DENSE_BLOCK_BITS`: the w target axes times the lowest B - w other
    index bits. Each block is copied out with its other bits in
    `_copy_order`, so the copy's inner loop steps along a long run of them,
    and multiplied as reals: with x the block's 2^w rows and ix = 1j * x,
    one real GEMM [Re M | Im M] @ [x ; ix] gives M @ x as interleaved
    reals, with the complex GEMM's flop count, for every caller at every
    position. The staged rows and the product stay in cache, and no
    temporary is full-size."""
    m = int(amps.size).bit_length() - 1
    w = len(targets)
    free = [b for b in range(m) if b not in targets and b not in controls]
    inside = max(0, _DENSE_BLOCK_BITS - w)
    # one transpose puts the control axes first, then target j on axis
    # w-1-j after them, then the other bits outside the block, descending,
    # then those inside it; fixing the control axes at 1 leaves the
    # controlled part, whose leading axes index the matrix
    order = (*controls, *targets[::-1], *reversed(free[inside:]), *_copy_order(free[:inside]))
    front = amps.reshape((2,) * m).transpose(_bit_axes(m, order))[(1,) * len(controls)]
    # the loop fixes the axes after the matrix axes that lie outside the block
    outer = max(0, front.ndim - max(_DENSE_BLOCK_BITS, w))
    shape = (2,) * (front.ndim - outer)
    rows = 1 << w
    reals = amps.real.dtype
    wide = np.concatenate((mat.real, mat.imag), axis=1, dtype=reals)
    # one staging buffer serves every block: x, ix and the product. With a
    # fresh product per block, a target at bit 5 of n=25 faulted in new
    # pages for every block (196k minor faults, 3x the time)
    stage = np.empty((3, *shape), amps.dtype)
    x, ix, product = stage[0], stage[1], stage[2]
    flat = stage.view(reals).reshape(3 * rows, -1)
    pairs, out = flat[: 2 * rows], flat[2 * rows :]
    for lead in itertools.product((0, 1), repeat=outer):
        blk = front[(slice(None),) * w + lead]
        x[...] = blk
        # exact: times 1j swaps each pair and negates one of them
        np.multiply(x, 1j, out=ix)
        np.matmul(wide, pairs, out=out)
        blk[...] = product


def _apply_diagonal_numpy(amps: np.ndarray, diag: np.ndarray, positions) -> None:
    """A multiply in place by a diagonal indexed over the given bit
    positions (bit j of its index = positions[j]), in numpy: the fallback
    where `ckernel.apply` declines a width-0 sweep, and the tests'
    reference.

    It spells the factor out over the low L = min(m, 13) index bits
    (`_DIAGONAL_INNER_BITS`), once for each value of the h positions at or
    above bit L, and multiplies the amplitudes where those positions read
    that value, so the multiply's inner loop runs over 2^L contiguous
    amplitudes whatever the positions, and its one temporary holds 2^L
    amplitudes (128 KiB) for any h."""
    m = int(amps.size).bit_length() - 1
    w = len(positions)
    d = diag.astype(amps.dtype, copy=False).reshape((2,) * w + (1,) * (m - w))
    # axes of size 2 where a position sits, size 1 (broadcast) elsewhere:
    # axis w-1-j of d goes to the axis of positions[j], and d's size-1 axes
    # fill the others in order
    at = {m - 1 - b: w - 1 - j for j, b in enumerate(positions)}
    spare = iter(range(w, m))
    factor = d.transpose([at[a] if a in at else next(spare) for a in range(m)])
    low = min(m, _DIAGONAL_INNER_BITS)
    view = amps.reshape((2,) * (m - low) + (1 << low,))
    spelled = np.empty((2,) * low, amps.dtype)
    flat = spelled.reshape(-1)
    # one pass per value of the high positions; a high axis without a
    # position (size 1 in the factor) stays whole in the view
    high = factor.shape[: m - low]
    for lead in np.ndindex(high):
        spelled[...] = factor[lead]
        part = view[tuple(v if size == 2 else slice(None) for v, size in zip(lead, high))]
        np.multiply(part, flat, out=part)


def _phases(op: GateOp, positions, m: int, high: int) -> tuple[np.ndarray, int]:
    """A diagonal op's phases as the compiled kernel takes them: contiguous
    complex128 entries over the index bits below m that its qubits sit at,
    in ascending order, and those bits' mask. A position p >= m fixes its
    qubit's bit at bit p - m of `high`."""
    phases, qubits = diagonal_of(op)
    at = [positions[q] for q in qubits]
    if max(at) >= m:
        # axis len(at)-1-j of the phase tensor holds qubits[j]
        fixed = [(high >> (p - m)) & 1 if p >= m else slice(None) for p in reversed(at)]
        phases = phases.reshape((2,) * len(at))[tuple(fixed)].ravel()
        at = [p for p in at if p < m]
    table = _ascending(np.ascontiguousarray(phases, dtype=np.complex128), at)
    return table, sum(1 << p for p in at)


def _fill_start(amps: np.ndarray, op: GateOp, positions, m: int, high: int) -> None:
    """Write a START op's product state over a slice of zeros, in place.
    Amplitude 0 takes the product of the global qubits' entries at their
    bits of `high`, and of v[0] of each local qubit whose v[1] is 0; a
    global qubit that the op leaves in |0> reads 0 where its bit is 1.
    Then, for each other local qubit in ascending position p, the low 2^p
    amplitudes double: the next 2^p become them times v[1], and they take
    v[0]. Every multiply writes into the slice, so no temporary is made,
    and a slice whose amplitude 0 is 0 is left all zeros."""
    scalar = 1.0
    listed = 0
    doubling = []
    for q, v in zip(op.targets, op.matrix.tolist()):
        p = positions[q]
        if p >= m:
            scalar *= v[(high >> (p - m)) & 1]
            listed |= 1 << (p - m)
        elif v[1] == 0:
            scalar *= v[0]
        else:
            doubling.append((p, v))
    amps[0] = 0 if high & ~listed else scalar
    if amps[0] == 0:
        return
    for p, v in sorted(doubling):
        h = 1 << p
        np.multiply(amps[:h], v[1], out=amps[h : 2 * h])
        amps[:h] *= v[0]


def apply_gate(amps: np.ndarray, op: GateOp, positions, high: int = 0,
               before: GateOp | None = None, after: GateOp | None = None) -> None:
    """Apply `op` in place to a slice of 2^m amplitudes, qubit q at index
    bit positions[q]. A position p >= m reads bit p - m of `high`: it fixes
    a diagonal op's phases, and a control reading 0 skips the op.

    Every op but a START is one `ckernel.apply` call, or none where a
    global control reads 0, and the numpy kernels run what a call
    declines. `before` and `after`, diagonal ops or None, are applied just
    before and just after a non-diagonal `op`: in its call, so in one
    sweep, when `op` has no controls, else, and where that call is
    declined, in calls of their own. Both give the same bytes.

    A "START" op writes the product state it holds (`_fill_start`), with
    no diagonal folded in. Its precondition is a slice as
    `dist.partition` wrote it for |0...0>: zeros, and a 1 at index 0 of
    rank 0, or of a full state."""
    m = int(amps.size).bit_length() - 1
    if op.kind == "START":
        if before is not None or after is not None:
            raise ValueError("a START op takes no folded diagonal")
        _fill_start(amps, op, positions, m, high)
        return
    if op.is_diagonal():
        table, mask = _phases(op, positions, m, high)
        if ckernel.apply(amps, None, (), before=(table, mask)):
            _apply_diagonal_numpy(amps, table, [p for p in range(m) if mask >> p & 1])
        return
    mat = base_matrix(op)
    targets = [positions[t] for t in op.targets]
    if not op.controls:
        sides = (before, after)
        if before is not None or after is not None:
            sides = [None if d is None else _phases(d, positions, m, high) for d in sides]
        if not ckernel.apply(amps, mat, targets, (), *sides):
            return
    if before is not None:
        apply_gate(amps, before, positions, high)
    controls = [positions[c] for c in op.controls]
    if all((high >> (p - m)) & 1 for p in controls if p >= m):
        local = [p for p in controls if p < m]
        if not controls or ckernel.apply(amps, mat, targets, local):
            _apply_matrix_numpy(amps, mat, targets, local)
    if after is not None:
        apply_gate(amps, after, positions, high)


@dataclass
class StateSlice:
    """A contiguous block of complex amplitudes (the full state, or one
    rank's shard of it).

    A StateSlice never writes into an array its caller still holds: the
    constructor copies `amps`, and `_adopt` wraps only arrays made for it."""

    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.array(self.amps, dtype=np.complex128, order="C")
        if self.amps.ndim != 1 or self.amps.size & (self.amps.size - 1):
            raise ValueError("amplitude count must be a power of two")

    @classmethod
    def _adopt(cls, amps: np.ndarray) -> "StateSlice":
        """Wrap a fresh 1-D complex128 array that no caller holds, without
        the constructor's copy."""
        state = cls.__new__(cls)
        state.amps = amps
        return state

    @property
    def num_qubits(self) -> int:
        return int(self.amps.size).bit_length() - 1

    def copy(self) -> "StateSlice":
        return StateSlice._adopt(self.amps.copy())


def basis_state(n: int, index: int) -> StateSlice:
    if not 0 <= index < (1 << n):
        raise ValueError("basis index out of range")
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[index] = 1.0
    return StateSlice._adopt(amps)


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
            self.measured_qubits = measured_register(self.measured_qubits, self.num_qubits)

    @property
    def measured(self) -> tuple[int, ...]:
        return measured_register(self.measured_qubits, self.num_qubits)


@dataclass
class CountsDistribution:
    """Outcome counts (or probabilities) keyed by MSB-first bitstring."""

    entries: dict[str, float]
    total: float


def measured_register(measured, n: int) -> tuple[int, ...]:
    """The measured qubits of an n-qubit state in ascending order, all of
    them for None. Raises ValueError naming a qubit that is out of range
    or listed twice."""
    mq = tuple(range(n)) if measured is None else tuple(measured)
    for i, q in enumerate(mq):
        if not 0 <= q < n or q in mq[:i]:
            what = "a duplicate" if 0 <= q < n else f"out of range for {n} qubits"
            raise ValueError(f"measured qubit {q} is {what}")
    return tuple(sorted(mq))


def apply_gate_dense(state: StateSlice, gate: GateOp) -> StateSlice:
    """Apply one gate, a SWAP too, in place to a full dense state through
    `apply_gate`; returns the state."""
    n = state.num_qubits
    if any(q >= n for q in gate.qubits):
        raise ValueError(f"gate qubit out of range for {n}-qubit state")
    apply_gate(state.amps, gate, range(n))
    return state


def dense_run(circuit: Circuit, initial: int = 0) -> StateSlice:
    """Reference simulator: apply all ops in order to |initial>."""
    if circuit.num_qubits > QUBIT_CAP:
        raise ValueError(
            f"{circuit.num_qubits} qubits exceeds the dense cap of {QUBIT_CAP}"
        )
    state = basis_state(circuit.num_qubits, initial)
    for op in circuit.ops:
        apply_gate_dense(state, op)
    return state


def probabilities(state: StateSlice, measured=None) -> dict[str, float]:
    """Exact outcome distribution over the measured register."""
    n = state.num_qubits
    measured = measured_register(measured, n)
    probs = np.square(state.amps.real, dtype=np.float64)
    probs += np.square(state.amps.imag, dtype=np.float64)
    unmeasured = _bit_axes(n, [q for q in range(n) if q not in measured])
    agg = probs.reshape((2,) * n).sum(axis=unmeasured).ravel()
    return {bitstring(v, len(measured)): float(agg[v]) for v in np.nonzero(agg)[0]}


def bitstring(value: int, width: int) -> str:
    """`value` over `width` bits, MSB-first; an empty register's one
    outcome is ''."""
    return format(value, f"0{width}b") if width else ""


def split_shots(rng: np.random.Generator, shots: int, weights: np.ndarray) -> np.ndarray:
    """Multinomial split of `shots` over the non-negative `weights` of a
    short vector; a zero weight gets no shot, whatever the rounding."""
    out = np.zeros(len(weights), dtype=np.int64)
    live = np.flatnonzero(weights)
    out[live] = rng.multinomial(shots, weights[live] / weights[live].sum())
    return out


def block_masses(amps: np.ndarray) -> np.ndarray:
    """|amp|^2 summed over each block of 2^`_SAMPLE_BLOCK_BITS` amplitudes
    (one block for a smaller array)."""
    floats = amps.view(np.float64).reshape(-1, 2 * min(amps.size, 1 << _SAMPLE_BLOCK_BITS))
    return np.einsum("ij,ij->i", floats, floats)


def draw_indices(
    amps: np.ndarray, masses: np.ndarray, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Indices of `shots` i.i.d. draws from |amps|^2, given its
    `block_masses`. By the chain rule this is one multinomial: the shots
    are split over the blocks by mass, and each shot then inverts the
    cumulative |amp|^2 of its block. Chosen blocks are squared in float64
    `_SAMPLE_BATCH_BLOCKS` at a time, with one search per batch, so no
    temporary is full-size and no Python loop runs per block."""
    floats = amps.view(np.float64).reshape(masses.size, -1)
    width = floats.shape[1] // 2
    per_block = split_shots(rng, shots, masses)
    chosen = np.flatnonzero(per_block)
    keys = np.empty((_SAMPLE_BATCH_BLOCKS, width))
    found = [np.zeros(0, dtype=np.int64)]
    for start in range(0, chosen.size, _SAMPLE_BATCH_BLOCKS):
        rows = chosen[start : start + _SAMPLE_BATCH_BLOCKS]
        pairs, key = floats[rows], keys[: rows.size]
        np.square(pairs[:, 0::2], out=key, dtype=np.float64)
        key += np.square(pairs[:, 1::2], dtype=np.float64)
        np.cumsum(key, axis=1, out=key)
        key /= key[:, -1:]
        # row r's keys rise from r to r + 1; a shot of row r seeks r + u kept
        # below r + 1, so it lands on a step up: a nonzero amplitude of row r
        row = np.arange(rows.size)
        key += row[:, None]
        row = np.repeat(row, per_block[rows])
        target = np.minimum(row + rng.random(row.size), np.nextafter(row + 1.0, 0.0))
        at = np.searchsorted(key.ravel(), target, side="right")
        found.append((rows[row] - row) * width + at)
    return np.concatenate(found)


def _renamed(op: GateOp, where) -> GateOp:
    """`op` with each qubit q renamed to where[q]. A renaming by a
    permutation keeps everything `GateOp.__post_init__` checked, so the
    checks (a FUSED op's unitarity product among them) do not run again."""
    targets = tuple(where[q] for q in op.targets)
    controls = tuple(where[q] for q in op.controls)
    if (targets, controls) == (op.targets, op.controls):
        return op
    out = object.__new__(GateOp)
    out.__dict__.update(op.__dict__, targets=targets, controls=controls)
    return out


def _trusted(kind: str, qubits, array: np.ndarray, diagonal: bool) -> GateOp:
    """A FUSED or DIAGONAL op of `fuse` over its sorted qubits, adopting
    `array`, whose diagonality the caller gives. The array is a product of
    checked ops, built from the identity or from ones by the kernels, so
    `GateOp.__post_init__`'s checks (a unitarity product and a scan for
    entries off the diagonal among them) do not run. The array is made
    read-only, so the ranks of a loopback world can share the op."""
    array.flags.writeable = False
    out = object.__new__(GateOp)
    out.__dict__.update(kind=kind, targets=qubits, controls=(), params=(), matrix=array,
                        _diagonal=diagonal)
    return out


def _over(phases: np.ndarray, qubits, union) -> np.ndarray:
    """`phases` over sorted `qubits` as a tensor that broadcasts over the
    bit axes of the sorted superset `union`: size 2 on the axis of each of
    `qubits`, size 1 elsewhere. Both lists are sorted, so the axes need no
    reordering."""
    return phases.reshape([2 if q in qubits else 1 for q in reversed(union)])


def _product(gates) -> np.ndarray:
    """Phase vector, over the sorted union of their qubits, of the product
    of diagonal `gates`, each a (phase vector, sorted qubits) pair. The
    product widens only when a gate adds a qubit, so a stretch whose gates
    each add one costs about two multiplies at its full width, not one per
    gate."""
    out, span = np.ones(1, dtype=complex), ()
    for phases, qubits in gates:
        if set(qubits) <= set(span):
            view = out.reshape((2,) * len(span))
            view *= _over(phases, qubits, span)
        else:
            wider = tuple(sorted(set(span).union(qubits)))
            out = (_over(out, span, wider) * _over(phases, qubits, wider)).reshape(-1)
            span = wider
    return out


class _Block:
    """An open block of `fuse`: its sorted qubits, whether it is dense or a
    diagonal stretch, and its ops in order. Nothing is multiplied until
    the block is emitted."""

    __slots__ = ("qubits", "dense", "ops")

    def __init__(self):
        self.qubits: tuple[int, ...] = ()
        self.dense = False
        self.ops: list[GateOp] = []

    def op(self) -> GateOp:
        if self.dense:
            u = len(self.qubits)
            # the ops applied in order to the identity: flattened, the
            # 2^u x 2^u matrix is a 2u-bit state whose row bit j is index
            # bit u + j, and each op acts on the rows
            mat = np.eye(1 << u, dtype=complex)
            flat, rows = mat.reshape(-1), {q: u + j for j, q in enumerate(self.qubits)}
            for op in self.ops:
                apply_gate(flat, op, rows)
            # a product of dense gates can still be diagonal, as H H is
            diag = np.count_nonzero(mat) == np.count_nonzero(np.diagonal(mat))
            return _trusted("FUSED", self.qubits, mat, bool(diag))
        phases = _product(diagonal_of(op) for op in self.ops)
        return _trusted("DIAGONAL", self.qubits, phases, True)


def _fits(qubits: tuple[int, ...], dense: bool, max_width: int) -> bool:
    """Whether one block may span the distinct `qubits`: `max_width` for a
    dense block, and for a diagonal stretch also up to
    `_DIAGONAL_INNER_BITS` qubits, wherever they sit."""
    return len(qubits) <= (max_width if dense else _DIAGONAL_INNER_BITS)


def split_start(circuit: Circuit) -> tuple[GateOp | None, Circuit]:
    """A circuit's leading one-qubit gates as one "START" op, and the
    circuit without them. A qubit's leading gates are the one-qubit ops on
    it before its first op of more than one qubit (a SWAP among them);
    they commute with every earlier op of the rest, which touches other
    qubits, so on |0...0> they build the product of each qubit's u_k...u_1
    |0>. The START lists the qubits that this leaves other than (1, 0),
    ascending, and is None if there are none. The rest keeps its ops, and
    their order."""
    vectors: dict[int, tuple[complex, complex]] = {}
    passed: set[int] = set()
    rest = []
    for op in circuit.ops:
        if op.kind == "START":
            raise ValueError("a START op is not an input gate")
        if len(op.qubits) == 1 and op.targets[0] not in passed:
            q = op.targets[0]
            (a, b), (c, d) = base_matrix(op).tolist()
            v0, v1 = vectors.get(q, (1, 0))
            vectors[q] = (a * v0 + b * v1, c * v0 + d * v1)
        else:
            passed.update(op.qubits)
            rest.append(op)
    moved = sorted(q for q, v in vectors.items() if v != (1, 0))
    start = None
    if moved:
        matrix = np.array([vectors[q] for q in moved], dtype=complex)
        start = GateOp("START", tuple(moved), matrix=matrix)
        # shared by the ranks of a loopback world
        start.matrix.flags.writeable = False
    return start, Circuit(circuit.num_qubits, rest, circuit.measured_qubits, circuit.name)


def fuse(circuit: Circuit, max_width: int = DEFAULT_FUSION_WIDTH) -> Circuit:
    """Greedy left-to-right fusion into blocks of at most `max_width`
    qubits. The overall unitary is preserved.

    Fusion keeps a frontier: several open blocks on pairwise disjoint
    qubits, oldest first, and the open block that holds each qubit. Open
    blocks commute, so a gate on other qubits never forces one out, and
    any of them may be emitted before the rest. An op merges with every
    open block that holds one of its qubits if their union fits; if it
    does not, the oldest of those blocks is emitted and the op tries
    again; the merged block keeps its oldest member's place. An op that
    touches no open block joins the youngest open block of its kind
    (dense or diagonal stretch) that has room for it, else it opens a
    block of its own. At the end the open blocks are emitted oldest
    first.

    Diagonal gates commute and move no data, so a stretch of them grows
    past the cap into one phase vector, while it spans at most
    `_DIAGONAL_INNER_BITS` qubits, wherever they sit: fuse runs before
    any layout exists, and neither kernel needs one, since the compiled
    kernel's phase table costs the same at any position and the numpy
    fallback's temporary stays 2^13 amplitudes. A stretch is emitted as a
    DIAGONAL op at any width, so a FUSED block always holds a dense gate
    (its product may still be diagonal, as H H is). A diagonal gate joins
    a dense block only if it adds no qubit to it; otherwise it emits the
    dense blocks it touches and joins or opens a stretch, because a dense
    block's sweep costs more the wider it is, and a qubit it holds for a
    phase is one that a later dense gate cannot use. A dense gate takes a stretch it touches into its block when their
    union fits the cap. Ops wider than the cap, diagonal or not, emit the
    blocks they touch and pass through renamed.

    SWAPs never enter a block: each one is deferred to the end of the
    stream, in input order, and every later op is renamed through it
    (O2 · S = S · O2', O2' being O2 with the swapped qubits exchanged), so
    the engine still plans each SWAP as a free relabel. An op whose qubits
    no SWAP moved keeps its identity.

    Nothing is multiplied while a block is open: a merge joins op lists.
    An emitted dense block's matrix is its ops applied in order to the
    identity by `apply_gate`, and a stretch's phases are the `_product` of
    its ops' `diagonal_of`. No input op's array is written."""
    if not 1 <= max_width <= MAX_FUSION_WIDTH:
        raise ValueError(f"max_width must be in [1, {MAX_FUSION_WIDTH}]")
    out: list[GateOp] = []
    frontier: list[_Block] = []
    owner: dict[int, _Block] = {}
    # where[q]: the index bit that holds program qubit q's data while the
    # SWAPs seen so far are deferred
    where = list(range(circuit.num_qubits))
    swaps: list[GateOp] = []

    def touched(qubits) -> list[_Block]:
        """The open blocks that hold any of `qubits`, oldest first."""
        hit = {owner[q] for q in qubits if q in owner}
        return [b for b in frontier if b in hit] if len(hit) > 1 else list(hit)

    def emit(block: _Block) -> None:
        frontier.remove(block)
        for q in block.qubits:
            del owner[q]
        out.append(block.op())

    for op in circuit.ops:
        if op.kind == "START":
            raise ValueError("a START op is not fused: it runs before the blocks")
        if op.kind == "SWAP":
            a, b = op.targets
            where[a], where[b] = where[b], where[a]
            swaps.append(op)
            continue
        if swaps:
            op = _renamed(op, where)
        span = op.qubits
        hit = touched(span)
        if len(span) > max_width:
            for block in hit:
                emit(block)
            out.append(op)
            continue
        is_diag = op.is_diagonal()
        if is_diag:
            if len(hit) == 1 and hit[0].dense and set(span) <= set(hit[0].qubits):
                hit[0].ops.append(op)
                continue
            for block in hit:
                if block.dense:
                    emit(block)
            hit = [block for block in hit if not block.dense]
        union = tuple(sorted(set(span).union(*(b.qubits for b in hit))))
        while not _fits(union, not is_diag, max_width):
            emit(hit.pop(0))
            union = tuple(sorted(set(span).union(*(b.qubits for b in hit))))
        if not hit:
            for block in reversed(frontier):
                # the op touches no open block, so the two are disjoint
                if block.dense != is_diag and _fits(
                    block.qubits + span, not is_diag, max_width
                ):
                    hit, union = [block], tuple(sorted(block.qubits + span))
                    break
        if hit:
            block = hit[0]
            for other in hit[1:]:
                frontier.remove(other)
                for q in other.qubits:
                    owner[q] = block
                block.ops += other.ops
        else:
            block = _Block()
            frontier.append(block)
        for q in span:
            owner[q] = block
        # a dense op makes the merged block dense; a diagonal op only ever
        # joins a stretch
        block.dense = not is_diag
        block.ops.append(op)
        block.qubits = union
    for block in frontier:
        out.append(block.op())
    out.extend(swaps)
    return Circuit(circuit.num_qubits, out, circuit.measured_qubits, circuit.name)
