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
  - `apply_gate(amps, op, positions, high)` applies every non-SWAP op,
    for the engine, the reference simulator and fusion: qubit q sits at
    index bit positions[q] of 2^m amplitudes, and a position p >= m reads
    bit p - m of `high` (a rank's id). A diagonal op never takes the
    matrix path. `_apply_diagonal` hands the compiled kernel (below) a
    table of its phases over the d index bits it touches, ascending
    (`_phase_table`: 2^d entries, at most 128 KiB), for one serial sweep
    that looks each amplitude's phase up by its index bits. Without the
    compiled kernel, `_apply_diagonal_numpy` multiplies the view
    `amps.reshape((2,) * (m-L) + (2^L,))`, L = min(m, 13)
    (`_DIAGONAL_INNER_BITS`), in place by a factor spelled out over the
    low L index bits, so its inner loop is a contiguous run of 2^L
    amplitudes wherever the gate's bits sit. `diagonal_of` gives any
    diagonal op as a phase vector over its sorted qubits
  - `apply_gate` also takes the diagonal ops to apply just before and
    just after a non-diagonal op (`dist.sweeps` pairs them). For an op
    without controls the compiled kernel multiplies their tables into
    each vector as its sweep loads and stores it, so a folded diagonal
    costs no sweep of its own; otherwise, and without the compiled
    kernel, the three are applied in order. Every path multiplies an
    amplitude by its phase alike, so both give the same bytes
  - a "DIAGONAL" op holds only that phase vector, for 1 to 13 qubits, so
    it is never densified. `fuse` emits one for each stretch of diagonal
    gates wider than its cap: such a step costs about one sweep at any
    width, while a dense block's cost grows with its width. A stretch
    stays within 13 qubits with at most 3 at bit 13 or above
    (`_DIAGONAL_HIGH_BITS`), because the numpy fallback's factor is
    spelled out over the low 13 bits times 2^h for h positions above
    them; the compiled kernel's table costs the same wherever they sit
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
  - a SWAP in the reference simulator trades two quarter-blocks of that
    view (`_apply_swap`); the distributed engine only relabels it
  - every other gate takes `_apply_matrix`: one compiled C kernel
    (`ckernel.c`), which `ckernel.load` builds with the system C compiler
    on the first dense step, caches under the package's `__pycache__` and
    loads through ctypes, which releases the GIL, so loopback rank threads
    multiply in parallel. One 64-byte vector holds the 4 amplitudes that
    index bits 0 and 1 tell apart, and each matrix entry m adds
    Re m * x + Im m * (i x): the arithmetic below, with the same products
    summed in another order, so the two kernels agree to about 1e-15.
    With no target or control at bit 0 or 1 a vector holds 4 groups;
    otherwise it holds several rows, or control values, of fewer groups,
    and the kernel multiplies by per-lane coefficients and moves lanes in
    registers rather than gather amplitudes. A diagonal's phase for
    amplitude i is entry pext(i, mask) of its table (BMI2's pext where the
    compiler targets it, else a loop), and the 4 lanes of a vector take
    theirs from one 64-byte load and a shuffle
  - the compiled kernel splits a step that touches at least 2^15
    amplitudes into chunks of 2^12 over the process's share of cores:
    OMP_NUM_THREADS if it is a positive integer, else the CPUs the process
    may run on (`ckernel.core_share`). One step is split at a time; a
    call made meanwhile, such as another loopback rank's, runs serially.
    The caller and its helper threads claim chunks from one atomic
    counter and run the same body, so any thread count gives the same
    bytes; a serial step is one chunk through that body. Helpers block
    between steps and never spin, and the caller waits only for helpers
    that have joined its step, so one that wakes late or never starts
    stalls nothing. Fusion's unitaries and small states never start a
    thread
  - the numpy kernel, `_apply_matrix_numpy`, runs only where the compiled
    kernel is missing: no compiler, a failed build, or a cache that cannot
    be written. The tests hold it as the reference. It transposes the
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
# low index bits over which `_apply_diagonal` spells out its factor. 2^13
# is numpy's default ufunc buffer size (np.getbufsize()); with a shorter
# contiguous run the broadcast multiply goes through the iterator's buffers
# and ran about 30% slower at n=20
_DIAGONAL_INNER_BITS = 13
# positions at or above bit 13 that one DIAGONAL op from `fuse` may hold;
# the numpy fallback's factor holds 2^h x 2^13 entries for h such
# positions. A 13-qubit step at n=20 (2-vCPU Xeon, one streaming sweep
# 0.48 ms) took 0.58-0.72 ms with h <= 3, 1.2 ms with h = 5, and 1.65 ms,
# 3.4 sweeps, with h = 7, which an unbounded 13-qubit TFIM stretch has.
# The compiled kernel's table does not grow with h (a 13-qubit step with
# h = 7 took 0.84 ms against numpy's 2.4), so this bounds the fallback only
_DIAGONAL_HIGH_BITS = 3
# log2 of the amplitudes in one block of `_apply_matrix_numpy`, the
# fallback kernel, whose staging holds three times as many; it also sizes
# `_apply_swap`'s chunks. Summed over 12 target sets of width 1-3 at
# n=20 (2-vCPU Xeon, median of 9), 2^13 / 2^14 / 2^15 took 57 / 55 / 78 ms
# with 1 BLAS thread and 60 / 58 / 79 ms with 2: at 2^15 the block and its
# 1.5 MiB of staging outgrow a 2 MiB L2
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
    or supplied directly) and for kind "DIAGONAL", where it holds the
    matrix's diagonal: 2^w unit phases, bit j of whose index is target j.
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
        if self.kind not in ("FUSED", "DIAGONAL") and self.kind not in KINDS:
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
    if qubits == listed:
        return phases, qubits
    w = len(listed)
    # axis w-1-j holds listed qubit j before and sorted qubit j after
    order = [w - 1 - listed.index(q) for q in reversed(qubits)]
    return phases.reshape((2,) * w).transpose(order).ravel(), qubits


def _copy_order(bits: list[int]) -> list[int]:
    """The ascending free index bits of one `_apply_matrix` block as axes,
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


def _phase_table(diag: np.ndarray, positions) -> tuple[np.ndarray, int]:
    """A diagonal indexed over the given bit positions (bit j of its index
    = positions[j]) as the compiled kernel takes one: complex128 entries
    over the same positions in ascending order, and their mask."""
    w = len(positions)
    order = sorted(range(w), key=positions.__getitem__)
    table = np.ascontiguousarray(diag, dtype=np.complex128)
    if order != list(range(w)):
        # axis w-1-j holds positions[j] before and the j-th lowest after
        table = table.reshape((2,) * w).transpose([w - 1 - j for j in reversed(order)]).ravel()
    return table, sum(1 << p for p in positions)


def _compiled(amps: np.ndarray, mat=None, targets=(), controls=(), before=None,
              after=None) -> bool:
    """Whether the compiled kernel applied, in place on a 2^m amplitude
    array: the diagonal `before`, then `mat` on the target bits over the
    indices whose control bits are all 1 (no matrix if None), then the
    diagonal `after`, each a `_phase_table` or None. False, touching
    nothing, if the array is not contiguous complex128, the kernel cannot
    be built, or it does not take the call."""
    if amps.dtype != np.complex128 or not amps.flags.c_contiguous:
        return False
    apply = ckernel.load()
    if apply is None:
        return False
    if mat is not None:
        mat = np.ascontiguousarray(mat, dtype=np.complex128)
    (bt, bmask), (at, amask) = before or (None, 0), after or (None, 0)
    return apply(
        amps.ctypes.data, int(amps.size).bit_length() - 1,
        None if mat is None else mat.ctypes.data, len(targets),
        sum(t << (8 * j) for j, t in enumerate(targets)), sum(1 << c for c in controls),
        ckernel.cores, None if bt is None else bt.ctypes.data, bmask,
        None if at is None else at.ctypes.data, amask,
    ) == 0


def _apply_matrix(amps: np.ndarray, mat: np.ndarray, targets, controls=()) -> None:
    """In-place matrix application on the target bits of a 2^m amplitude
    array, restricted to indices whose control bits are all 1: by the
    compiled kernel for a contiguous complex128 array, else, or if the
    kernel cannot be built, by `_apply_matrix_numpy`."""
    if not _compiled(amps, mat, targets, controls):
        _apply_matrix_numpy(amps, mat, targets, controls)


def _apply_matrix_numpy(amps: np.ndarray, mat: np.ndarray, targets, controls=()) -> None:
    """`_apply_matrix` in numpy: the fallback, and the tests' reference.

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


def _apply_diagonal(amps: np.ndarray, diag: np.ndarray, positions) -> None:
    """In-place multiply by a diagonal indexed over the given bit positions
    (bit j of the diagonal's index = positions[j]): by the compiled
    kernel's width-0 sweep for a contiguous complex128 array, else, or if
    the kernel cannot be built, by `_apply_diagonal_numpy`."""
    if not _compiled(amps, before=_phase_table(diag, positions)):
        _apply_diagonal_numpy(amps, diag, positions)


def _apply_diagonal_numpy(amps: np.ndarray, diag: np.ndarray, positions) -> None:
    """`_apply_diagonal` in numpy: the fallback, and the tests' reference."""
    m = int(amps.size).bit_length() - 1
    w = len(positions)
    d = diag.astype(amps.dtype, copy=False).reshape((2,) * w + (1,) * (m - w))
    # axes of size 2 where a position sits, size 1 (broadcast) elsewhere:
    # axis w-1-j of d goes to the axis of positions[j], and d's size-1 axes
    # fill the others in order
    at = {m - 1 - b: w - 1 - j for j, b in enumerate(positions)}
    spare = iter(range(w, m))
    factor = d.transpose([at[a] if a in at else next(spare) for a in range(m)])
    # spell the factor out over the low index bits, so the multiply's inner
    # loop runs over 2^low contiguous amplitudes whatever the positions
    low = min(m, _DIAGONAL_INNER_BITS)
    high = factor.shape[: m - low]
    spelled = np.empty(high + (2,) * low, amps.dtype)
    spelled[...] = factor
    view = amps.reshape((2,) * (m - low) + (1 << low,))
    view *= spelled.reshape(high + (1 << low,))


def _apply_swap(amps: np.ndarray, a: int, b: int) -> None:
    """In-place SWAP of index bits a and b: the amplitudes with bit a set
    and bit b clear trade places with those the other way round, and the
    other half stays put.

    It works one chunk of 2^c amplitudes at a time, c covering both bits
    and at least `_DENSE_BLOCK_BITS`, so the quarter it holds stays in
    cache. At n=20 on a 2-vCPU Xeon, a SWAP of bits 0 and 1 took 9-12 ms
    unchunked, 2.8-3.5 ms chunked and 6.8-7.8 ms through `_apply_matrix`."""
    m = int(amps.size).bit_length() - 1
    c = min(m, max(a, b, _DENSE_BLOCK_BITS - 1) + 1)
    chunks = amps.reshape((-1,) + (2,) * c)
    axis_a, axis_b = (1 + axis for axis in _bit_axes(c, (a, b)))

    def quarter(bit_a: int, bit_b: int) -> np.ndarray:
        index = [slice(None)] * (1 + c)
        index[axis_a], index[axis_b] = bit_a, bit_b
        return chunks[tuple(index)]

    one_zero, zero_one = quarter(1, 0), quarter(0, 1)
    held = np.empty_like(one_zero[0, ...])
    for i in range(len(chunks)):
        # [i, ...] is a view even when a quarter holds one amplitude
        x, y = one_zero[i, ...], zero_one[i, ...]
        np.copyto(held, x)
        x[...] = y
        y[...] = held


def _local_phases(op: GateOp, positions, m: int, high: int):
    """A diagonal op's phases over the index bits below m that its qubits
    sit at, and those bits; a position p >= m reads bit p - m of `high`."""
    phases, qubits = diagonal_of(op)
    at = [positions[q] for q in qubits]
    if max(at) >= m:
        # axis len(at)-1-j of the phase tensor holds qubits[j]
        fixed = [(high >> (p - m)) & 1 if p >= m else slice(None) for p in reversed(at)]
        phases = phases.reshape((2,) * len(at))[tuple(fixed)].ravel()
        at = [p for p in at if p < m]
    return phases, at


def apply_gate(amps: np.ndarray, op: GateOp, positions, high: int = 0,
               before: GateOp | None = None, after: GateOp | None = None) -> None:
    """Apply `op` in place to a slice of 2^m amplitudes, qubit q at index
    bit positions[q]. A position p >= m reads bit p - m of `high`: it fixes
    a diagonal op's phases, and a control reading 0 skips the op.

    `before` and `after`, diagonal ops or None, are applied just before and
    just after a non-diagonal `op`: in the same compiled call, so in one
    sweep, when `op` has no controls and the compiled kernel takes the
    array, else in calls of their own. Both give the same bytes."""
    m = int(amps.size).bit_length() - 1
    if op.is_diagonal():
        _apply_diagonal(amps, *_local_phases(op, positions, m, high))
        return
    controls = [positions[c] for c in op.controls]
    targets = [positions[t] for t in op.targets]
    if (before is not None or after is not None) and not controls:
        tables = [None if d is None else _phase_table(*_local_phases(d, positions, m, high))
                  for d in (before, after)]
        if _compiled(amps, base_matrix(op), targets, (), *tables):
            return
    if before is not None:
        apply_gate(amps, before, positions, high)
    if not controls or all((high >> (p - m)) & 1 for p in controls if p >= m):
        _apply_matrix(amps, base_matrix(op), targets, [p for p in controls if p < m])
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
    """Apply one gate in place to a full dense state; returns the state.
    A SWAP moves half the amplitudes instead of a matrix sweep over all,
    which matters to a fused stream: it ends in all of the input's SWAPs."""
    n = state.num_qubits
    if any(q >= n for q in gate.qubits):
        raise ValueError(f"gate qubit out of range for {n}-qubit state")
    if gate.kind == "SWAP":
        _apply_swap(state.amps, *gate.targets)
    else:
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

    def op(self, max_width: int) -> GateOp:
        u = len(self.qubits)
        if self.dense:
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
        if u > max_width:
            return _trusted("DIAGONAL", self.qubits, phases, True)
        return _trusted("FUSED", self.qubits, np.diag(phases), True)


def _fits(qubits: tuple[int, ...], dense: bool, max_width: int) -> bool:
    """Whether one block may span the distinct `qubits`: `max_width` for a
    dense block, and for a diagonal stretch also up to
    `_DIAGONAL_INNER_BITS` qubits with at most `_DIAGONAL_HIGH_BITS` at
    index 13 or above."""
    u = len(qubits)
    return u <= max_width or (
        not dense
        and u <= _DIAGONAL_INNER_BITS
        and sum(q >= _DIAGONAL_INNER_BITS for q in qubits) <= _DIAGONAL_HIGH_BITS
    )


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
    `_DIAGONAL_INNER_BITS` qubits with at most `_DIAGONAL_HIGH_BITS` of
    them at index 13 or above. fuse runs before any layout exists, so it
    counts program qubits, which are the positions under the identity
    layout. A stretch that ends within the cap is emitted as a FUSED block,
    a wider one as a DIAGONAL op. A diagonal gate joins a dense block only
    if it adds no qubit to it; otherwise it emits the dense blocks it
    touches and joins or opens a stretch, because a dense block's sweep
    costs more the wider it is, and a qubit it holds for a phase is one
    that a later dense gate cannot use. A dense gate takes a stretch it
    touches into its block when their union fits the cap. Ops wider than
    the cap, diagonal or not, emit the blocks they touch and pass through
    renamed.

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
        out.append(block.op(max_width))

    for op in circuit.ops:
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
        out.append(block.op(max_width))
    out.extend(swaps)
    return Circuit(circuit.num_qubits, out, circuit.measured_qubits, circuit.name)
