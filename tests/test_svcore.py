import hashlib
import itertools
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from conftest import (
    KERNEL_WIDTH,
    align_phase,
    kernel_real,
    kernel_terms,
    kernel_threads,
    max_deviation,
    mixed_circuits,
    random_unitary,
    sample_one_rank,
)
from hypothesis import given, settings, strategies as st

from qsim import ckernel, svcore as sv
from qsim.circuits import build_random_circuit
from qsim.svcore import (
    Circuit,
    GateOp,
    Precision,
    StateSlice,
    apply_gate_dense,
    dense_run,
    fuse,
    probabilities,
)

ALL_KIND_SAMPLES = [
    sv.h(0),
    sv.x(0),
    sv.y(0),
    sv.z(0),
    sv.rx(0.7, 0),
    sv.rz(-1.3, 0),
    sv.p(2.1, 0),
    sv.cx(1, 0),
    sv.cz(1, 0),
    sv.cp(0.9, 1, 0),
    sv.rzz(1.7, 0, 1),
    sv.swap(0, 1),
    sv.fused((0, 1), np.kron(np.eye(2), [[0, 1], [1, 0]])),
    sv.diagonal((0, 1), np.exp(1j * np.array([0.1, -0.7, 2.3, 1.9]))),
]


# unsorted target lists, and controls above and below their target
SCATTERED_SAMPLES = [
    sv.rzz(0.6, 3, 1),
    sv.fused((3, 0, 2), random_unitary(3, 1)),
    sv.swap(4, 1),
    sv.cx(0, 3),
    sv.cx(4, 2),
    sv.cp(1.1, 4, 2),
    sv.cz(1, 4),
    sv.h(4),
    sv.diagonal((4, 0, 2), np.exp(1j * np.arange(8.0))),
]


def brute_force_matrix(op: GateOp, n: int) -> np.ndarray:
    """Full 2^n matrix of `op`, built column by column from basis states."""
    base = sv.base_matrix(op)
    tmask = sum(1 << t for t in op.targets)
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        if not all((col >> c) & 1 for c in op.controls):
            out[col, col] = 1.0
            continue
        t_in = sum(((col >> t) & 1) << j for j, t in enumerate(op.targets))
        for t_out in range(base.shape[0]):
            row = col & ~tmask
            row |= sum(((t_out >> j) & 1) << t for j, t in enumerate(op.targets))
            out[row, col] = base[t_out, t_in]
    return out


class TestGateOp:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown gate kind"):
            GateOp("T", (0,))

    def test_target_control_overlap_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            GateOp("CX", (0,), controls=(0,))

    def test_non_unitary_fused_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            sv.fused((0,), [[1, 0], [0, 2]])

    def test_fused_width_cap(self):
        with pytest.raises(ValueError, match="width"):
            sv.fused(tuple(range(6)), np.eye(64))

    def test_diagonal_op_checked(self):
        with pytest.raises(ValueError, match="unit modulus"):
            sv.diagonal((0,), [1, 2])
        with pytest.raises(ValueError, match="length"):
            sv.diagonal((0, 1), [1, 1])
        with pytest.raises(ValueError, match="width"):
            sv.diagonal(tuple(range(14)), np.ones(1 << 14))
        with pytest.raises(ValueError, match="controls"):
            GateOp("DIAGONAL", (0,), controls=(1,), matrix=np.ones(2, complex))
        assert sv.diagonal((0,), [1, 1j]).is_diagonal()

    @pytest.mark.parametrize(
        "qubit",
        [1.5, True, False, "a", np.float64(1.0), np.bool_(True)],
        ids=["float", "true", "false", "str", "np-float", "np-bool"],
    )
    def test_non_integer_qubit_named(self, qubit):
        message = re.escape(f"qubit index {qubit!r} is not an integer")
        with pytest.raises(ValueError, match=message):
            GateOp("H", (qubit,))
        with pytest.raises(ValueError, match=message):
            GateOp("CX", (0,), controls=(qubit,))

    def test_numpy_integer_qubits_accepted(self):
        op = GateOp("CX", (np.int64(1),), controls=(np.int32(0),))
        state = dense_run(Circuit(2, [sv.x(0), op]))
        assert np.argmax(np.abs(state.amps)) == 3

    def test_all_kinds_unitary_within_1e12(self):
        for op in ALL_KIND_SAMPLES:
            mat = brute_force_matrix(op, 2)
            dim = mat.shape[0]
            dev = np.max(np.abs(mat @ mat.conj().T - np.eye(dim)))
            assert dev <= 1e-12, op.kind


class TestInverse:
    @pytest.mark.parametrize("kind", list(sv.KINDS))
    def test_op_then_inverse_is_identity(self, kind):
        nt, nc, npar, _, _ = sv.KINDS[kind]
        qubits = (2, 0, 1)
        op = GateOp(kind, qubits[:nt], qubits[nt : nt + nc], (0.7, -1.9)[:npar])
        rng = np.random.default_rng(17)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        state = StateSlice(amps)
        for gate in (op, sv.inverse(op)):
            apply_gate_dense(state, gate)
        assert max_deviation(state.amps, amps) <= 1e-12

    @pytest.mark.parametrize(
        "op",
        [sv.fused((0, 1), random_unitary(2, 3)), sv.diagonal((0,), [1, 1j])],
        ids=["fused", "diagonal"],
    )
    def test_fused_and_diagonal_have_no_rule(self, op):
        with pytest.raises(ValueError, match="no inverse rule"):
            sv.inverse(op)


class TestApplyGateDense:
    def test_hadamard_on_zero(self):
        state = apply_gate_dense(sv.basis_state(1, 0), sv.h(0))
        np.testing.assert_allclose(state.amps, [0.70710678, 0.70710678], atol=1e-8)

    def test_x_on_qubit1_of_10(self):
        # |10> MSB-first means qubit 1 is set: basis index 2
        state = apply_gate_dense(sv.basis_state(2, 2), sv.x(1))
        np.testing.assert_allclose(state.amps, [1, 0, 0, 0], atol=0)

    def test_cp_pi_on_11(self):
        state = apply_gate_dense(sv.basis_state(2, 3), sv.cp(math.pi, 0, 1))
        assert state.amps[3] == pytest.approx(-1.0, abs=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_gate_dense(sv.basis_state(1, 0), sv.x(1))

    def test_little_endian_indexing(self):
        # X on qubit q of |0...0> yields basis index 2^q
        for n in (1, 3, 5):
            for q in range(n):
                state = apply_gate_dense(sv.basis_state(n, 0), sv.x(q))
                assert np.argmax(np.abs(state.amps)) == 1 << q

    def test_norm_preserved_over_random_ops(self):
        rng = np.random.default_rng(11)
        state = sv.basis_state(6, 0)
        ops = build_random_circuit(6, 300, seed=5).ops
        for op in ops:
            apply_gate_dense(state, op)
        assert abs(np.linalg.norm(state.amps) - 1.0) <= 1e-9
        assert np.all(np.isfinite(state.amps.view(np.float64)))


class TestKernelOracle:
    n = 5
    # the bit pairs that a SWAP exchanges in `test_swap_exchanges_index_bits`
    swap_pairs = list(itertools.permutations(range(5), 2))

    @pytest.mark.parametrize(
        "op",
        ALL_KIND_SAMPLES + SCATTERED_SAMPLES,
        ids=lambda op: f"{op.kind}-t{op.targets}-c{op.controls}",
    )
    def test_apply_gate_dense_matches_brute_force(self, op):
        rng = np.random.default_rng(3)
        psi = rng.normal(size=1 << self.n) + 1j * rng.normal(size=1 << self.n)
        psi /= np.linalg.norm(psi)
        state = apply_gate_dense(StateSlice(psi.copy()), op)
        # the samples act on bits 0 to 4: each run of 32 amplitudes takes
        # the 5-qubit matrix
        expect = psi.reshape(-1, 32) @ brute_force_matrix(op, 5).T
        assert np.max(np.abs(state.amps - expect.ravel())) <= 1e-12

    def test_swap_exchanges_index_bits(self):
        # a SWAP runs as its matrix, and moves each amplitude exactly
        rng = np.random.default_rng(17)
        psi = rng.normal(size=1 << self.n) + 1j * rng.normal(size=1 << self.n)
        index = np.arange(1 << self.n)
        for a, b in self.swap_pairs:
            # index i takes the amplitude at i with bits a and b exchanged
            differ = ((index >> a) ^ (index >> b)) & 1
            got = apply_gate_dense(StateSlice(psi), sv.swap(a, b)).amps
            assert np.array_equal(got, psi[index ^ (differ << a) ^ (differ << b)])


@pytest.mark.usefixtures("numpy_kernel")
class TestKernelOracleNumpy(TestKernelOracle):
    """The same oracle on the numpy kernel."""


@pytest.mark.usefixtures("small_dense_blocks")
class TestKernelOracleSmallBlocks(TestKernelOracle):
    """The same oracle on the numpy kernel with its smallest blocks."""


class TestKernelOracleSplit(TestKernelOracle):
    """The same oracle on 2^17 amplitudes through the compiled kernel, on a
    share of one core, where a step runs serially as one chunk, and of two,
    where it is split into chunks over two threads."""

    n = 17
    swap_pairs = [(0, 1), (3, 16), (15, 16)]

    @pytest.fixture(autouse=True, params=[1, 2], ids=["one-chunk", "split"])
    def cores(self, request, monkeypatch):
        if ckernel.load() is None:
            pytest.skip("the compiled kernel could not be built")
        # no sample has more than one control
        assert kernel_threads(self.n - 1, request.param) == request.param
        monkeypatch.setattr(ckernel, "cores", request.param)


def one_shot_apply_matrix(amps, mat, targets, controls=(), arithmetic="real"):
    """Reference for `_apply_matrix_numpy`: the same view, multiplied in one
    product over all of it rather than block by block. By default it is the
    kernel's own arithmetic, [Re M | Im M] @ [x ; 1j x] over interleaved
    reals; "complex" multiplies `mat @ x` as complex numbers."""
    m = int(amps.size).bit_length() - 1
    w = len(targets)
    caxes = sv._bit_axes(m, controls)
    sub = amps.reshape((2,) * m)[
        tuple(1 if a in caxes else slice(None) for a in range(m))
    ]
    taxes = [a - sum(c < a for c in caxes) for a in sv._bit_axes(m, targets)]
    front = np.moveaxis(sub, taxes, sv._bit_axes(w, range(w)))
    x = front.reshape(1 << w, -1)
    if arithmetic == "complex":
        product = mat.astype(amps.dtype) @ x
    else:
        reals = amps.real.dtype
        wide = np.concatenate((mat.real, mat.imag), axis=1).astype(reals)
        stacked = np.ascontiguousarray(np.concatenate((x, x * 1j)))
        product = (wide @ stacked.view(reals)).view(amps.dtype)
    front[...] = product.reshape(front.shape)


# blocks hold the targets and the lowest 14-w other bits of n=17: the cases
# put targets low, in the middle, high, on both sides of the block edge and
# unsorted, with controls above and below; the gapped low targets leave
# short runs of other bits below and between them, so the copies step
# along a longer run higher up. Together they give the compiled kernel
# every body it has: each width with 0, 1, 2 and 4 rows per 64-byte
# vector where the width allows it (targets at bits 0 and 1, or a control
# there), and the fold runs each case's targets with diagonals
_BLOCK_CASES = [
    ((0,), ()),
    ((0, 1, 2), ()),
    ((6,), ()),
    ((9, 4, 7), ()),
    ((16,), ()),
    ((16, 15, 14, 13), ()),
    ((13, 14), ()),
    ((3, 15), ()),
    ((10, 2, 16, 12, 5), ()),
    ((7,), (16, 1)),
    ((2, 11), (0, 15)),
    ((14,), (13,)),
    ((1, 4, 5), ()),
    ((0, 2, 10), ()),
    ((1, 9), ()),
    ((1,), ()),
    ((2, 13, 14), ()),
    ((0, 1), ()),
    ((0, 1, 9, 14), ()),
    ((1, 6, 11, 15), ()),
    ((0, 1, 8, 12, 16), ()),
    ((5, 0, 9, 13, 16), ()),
    ((3, 9, 12), (1,)),
    ((4, 7, 10, 15), (0,)),
    ((2, 5, 8, 11, 14), (1, 16)),
]


def _sparse_matrix(kind: str, seed: int) -> np.ndarray:
    """An 8 x 8 unitary with complex entries whose rows and columns fall
    into blocks, as the compiled kernel's block bodies take them: a
    "permutation" (one nonzero entry per row) or "pairs" (two per row: H
    on one qubit and X on the other two, between random phases) in blocks
    of 2, and "fours" (X on one qubit, a random 2-qubit unitary on the
    others, with the rows and columns shuffled alike) in blocks of 4."""
    rng = np.random.default_rng(seed)
    left, right = (np.diag(np.exp(1j * rng.uniform(-math.pi, math.pi, 8))) for _ in range(2))
    shuffle = np.eye(8)[rng.permutation(8)]
    flip = np.array([[0, 1], [1, 0]])
    if kind == "permutation":
        return left @ shuffle
    if kind == "fours":
        return left @ shuffle @ np.kron(flip, random_unitary(2, seed)) @ shuffle.T
    hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    return left @ np.kron(np.kron(flip, flip), hadamard) @ right


def _ring_of_3() -> np.ndarray:
    """A permutation whose rows 0, 1 and 2 also take 0.5j in columns 1, 2
    and 0: a group of 3 columns, which a block of 4 holds with column 3."""
    mat = np.eye(8, dtype=complex)[[0, 1, 2, 3, 5, 4, 7, 6]]
    mat[0, 1] = mat[1, 2] = mat[2, 0] = 0.5j
    return mat


def _with_tiny_entries(mat: np.ndarray) -> np.ndarray:
    """`mat` with 1e-300 in place of every real or imaginary part of 0: no
    entry is zero, and none is real or imaginary, so the compiled kernel
    takes it through a dense body, and each tiny term leaves a sum of
    normal amplitudes as it is."""
    return (np.where(mat.real == 0, 1e-300, mat.real)
            + 1j * np.where(mat.imag == 0, 1e-300, mat.imag))


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _kron(*gates) -> np.ndarray:
    """The product of one-qubit gates, the first on the first target (the
    least significant matrix bit)."""
    out = np.eye(1)
    for gate in reversed(gates):
        out = np.kron(out, gate)
    return out


_H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]])


def _real_matrix(kind: str, seed: int) -> np.ndarray:
    """A unitary real up to powers of i (D_a R D_b, R real, D_a and D_b
    diagonal in powers of i), as the compiled kernel's real body takes
    it: "rx3" (RX (x) RX (x) RX at angles drawn from the seed), "h3" (H (x)
    H (x) H), "cx-h-rx" (CX times H (x) RX, 4 x 4), "h" (H), or
    "orthogonal-w" for w = 1 to 3 (a random real orthogonal R between
    powers of i, half of the rows and half of the columns turned)."""
    rng = np.random.default_rng(seed)
    if kind == "rx3":
        return _kron(*(_rx(t) for t in rng.uniform(-math.pi, math.pi, 3)))
    if kind == "h3":
        return _kron(_H, _H, _H)
    if kind == "cx-h-rx":
        return np.eye(4)[[0, 3, 2, 1]] @ _kron(_H, _rx(rng.uniform(-math.pi, math.pi)))
    if kind == "h":
        return _H
    dim = 1 << int(kind.rsplit("-", 1)[1])
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    a, b = (1j ** rng.permutation(np.arange(dim) % 2) for _ in range(2))
    return np.diag(a) @ q @ np.diag(b)


# sparse matrices for the fold and thread-count tests: through the block
# bodies with targets above bit 1 (a control there too), and through the
# lane bodies with a target or a control at bit 0 or 1
_SPARSE_CASES = [
    ((9, 4, 7), (), "permutation"),
    ((2, 13, 14), (), "pairs"),
    ((16, 5, 10), (12,), "pairs"),
    ((8, 15, 3), (), "fours"),
    ((1, 4, 5), (), "pairs"),
    ((3, 9, 12), (1,), "permutation"),
    ((0, 6, 11), (), "fours"),
]
# matrices real up to powers of i, through the real body: on row vectors
# of one row (a control above bit 1 too), the lane set (0, 1, 2), and H
# with its target at bit 0 and at bit 5
_REAL_CASES = [
    ((9, 4, 7), (), "rx3"),
    ((6, 10, 14), (3,), "rx3"),
    ((2, 13, 14), (), "h3"),
    ((5, 11), (), "cx-h-rx"),
    ((0, 1, 2), (), "rx3"),
    ((0,), (), "h"),
    ((5,), (), "h"),
]
_REAL_KINDS = {kind for _, _, kind in _REAL_CASES}
_MATRIX_CASES = [(t, c, None) for t, c in _BLOCK_CASES] + _SPARSE_CASES + _REAL_CASES
_MATRIX_IDS = [f"t{t}-c{c}" + (f"-{kind}" if kind else "") for t, c, kind in _MATRIX_CASES]


def _block_case(targets, controls, kind=None):
    """A random n=17 state and a random unitary for one `_BLOCK_CASES` case,
    or with `kind` the `_sparse_matrix` or `_real_matrix` of that kind."""
    n = 17
    assert n - len(controls) > sv._DENSE_BLOCK_BITS  # more than one block
    rng = np.random.default_rng(len(targets) + 7 * len(controls))
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    if kind in _REAL_KINDS:
        return psi, _real_matrix(kind, targets[0])
    if kind:
        return psi, _sparse_matrix(kind, targets[0])
    return psi, random_unitary(len(targets), targets[0])


def _through_dense(psi, mat, targets, controls, cores, **sides):
    """psi after one step of `mat` through a dense body: with 1e-300 in
    every part of 0 (`_with_tiny_entries`), which the real body does not
    take. The real body's result must equal it, signs of zero aside."""
    dense = _with_tiny_entries(mat)
    assert not kernel_real(dense, targets, sum(1 << c for c in controls))
    got = psi.copy()
    assert ckernel.apply(got, dense, targets, controls, share=cores, **sides) == 0
    return got


@pytest.mark.parametrize(
    "bits, order",
    [
        ([], []),
        ([0, 1, 2, 5, 6, 7, 8], [8, 7, 6, 5, 2, 1, 0]),  # 8 amplitudes from bit 0
        ([0, 2, 3, 6, 7, 8], [3, 2, 0, 8, 7, 6]),  # the longest run last
        ([0, 1, 3, 4], [4, 3, 1, 0]),  # of equal runs, the lowest
        ([1, 2, 3, 4], [4, 3, 2, 1]),
        ([0, 3, 4, 5, 6, 9], [9, 0, 6, 5, 4, 3]),
    ],
)
def test_copy_order_puts_the_chosen_run_innermost(bits, order):
    assert sv._copy_order(bits) == order


class TestBlockedDenseKernel:
    @pytest.mark.parametrize(
        "targets, controls", _BLOCK_CASES, ids=[f"t{t}-c{c}" for t, c in _BLOCK_CASES]
    )
    def test_equals_one_shot_matmul(self, targets, controls):
        # bit for bit, so only the numpy kernel: the compiled one sums the
        # same products in another order
        psi, mat = _block_case(targets, controls)
        got, expect = psi.copy(), psi.copy()
        sv._apply_matrix_numpy(got, mat, targets, controls)
        one_shot_apply_matrix(expect, mat, targets, controls)
        assert not np.array_equal(got, psi)
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize(
        "targets, controls", _BLOCK_CASES, ids=[f"t{t}-c{c}" for t, c in _BLOCK_CASES]
    )
    def test_matches_complex_matmul(self, targets, controls):
        # whichever kernel runs the step: the compiled one, or the numpy one
        # where it declines
        psi, mat = _block_case(targets, controls)
        got, expect = psi.copy(), psi.copy()
        if ckernel.apply(got, mat, targets, controls):
            sv._apply_matrix_numpy(got, mat, targets, controls)
        one_shot_apply_matrix(expect, mat, targets, controls, arithmetic="complex")
        assert np.max(np.abs(got - expect)) <= 1e-12


def _small_cases():
    """(m, targets, controls) on arrays of 2^2 to 2^6 amplitudes, down to
    the 2^2 of a 1-qubit block in `fuse`: every width to 5 at each size,
    on shuffled bits, with up to two controls."""
    rng = np.random.default_rng(23)
    cases = []
    for m in range(2, 7):
        for w in range(1, min(m, sv.MAX_FUSION_WIDTH) + 1):
            for _ in range(3):
                bits = [int(b) for b in rng.permutation(m)]
                nc = int(rng.integers(0, min(2, m - w) + 1))
                cases.append((m, tuple(bits[:w]), tuple(bits[w : w + nc])))
    return cases


# diagonal bit sets for the fold at n=17: bit 0, bit 1, both, neither,
# bits 13 and above, a 13-bit stretch with 5 of them there, and none (an
# all-global diagonal: one scalar phase)
_FOLD_SETS = [(0,), (1,), (0, 1), (5, 9), (13, 15, 16),
              (0, 1, 2, 3, 4, 5, 8, 10, 12, 13, 14, 15, 16), ()]


def _kernel_table(diag, bits, n=17):
    """A diagonal over the index `bits` of 2^n amplitudes (bit j of its
    index = bits[j]) as `sv._phases` hands it to the kernel. No bits is a
    diagonal whose one qubit sits at global position n, whose bit reads 0."""
    if not bits:
        return sv._phases(sv.diagonal((n,), [diag[0], 1]), range(n + 1), n, 0)
    return sv._phases(sv.diagonal(bits, diag), range(n), n, 0)


def _random_phases(rng, bits):
    """Random unit phases over `bits` as the kernel takes them."""
    return _kernel_table(np.exp(1j * rng.uniform(-math.pi, math.pi, 1 << len(bits))), bits)


def _lane_shapes(widths):
    """Every (width, rows per 64-byte row vector, with diagonals) of a step
    of those widths: 4 rows per vector need width 2 or more, and 1, a
    control at bit 0 or 1, takes no diagonals."""
    return [(w, held, phased)
            for w in widths for held in (0, 1, 2, 4) for phased in (False, True)
            if not (held == 4 and w < 2) and not (held == 1 and phased)]


# every body that the compiled kernel has (see the top of `ckernel.c`):
# each shape to its width; "pairs" and "fours", the bodies of 8 rows with
# none at bit 0 or 1 in blocks of 2 and of 4; and "real-held0", "-held2"
# and "-held4", the real body on the shapes of held 0, 2 and 4 (it takes
# no control at bit 0 or 1)
_BODIES = _lane_shapes(range(1, KERNEL_WIDTH + 1)) + [
    (3, blocks, phased) for blocks in ("pairs", "fours") for phased in (False, True)] + [
    (w, f"real-held{held}", phased)
    for w, held, phased in _lane_shapes(range(1, KERNEL_WIDTH + 1)) if held != 1]
# the same shapes at the widths that a caller's FUSED op may still have
_WIDE_SHAPES = _lane_shapes(range(KERNEL_WIDTH + 1, sv.MAX_FUSION_WIDTH + 1))
# the matrices that each block body is tried on, and the terms per output
_BLOCK_BODIES = {"pairs": (("permutation", "pairs"), 2), "fours": (("fours",), 4)}


def _body_case(w, held, phased):
    """(targets, controls) of a width-w step whose row vectors hold `held`
    rows: held 0 and the block bodies have no target or control at bit 0
    or 1, 1 a control at bit 1, 2 a target at bit 1 and 4 targets at bits
    0 and 1; a real body takes the shape of the held it names. A step
    without diagonals also takes a control at bit 16."""
    if isinstance(held, str) and held.startswith("real"):
        held = int(held.rsplit("held", 1)[1])
    if held == 1:
        return (3, 6, 9, 12, 15)[:w], (1,)
    targets = {2: (1, 4, 7, 10, 13), 4: (1, 0, 6, 10, 14)}.get(held, (2, 5, 8, 11, 14))
    return targets[:w], () if phased else (16,)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The status of every `ckernel.apply` call the test makes, in order."""
    calls = []
    real = ckernel.apply

    def counted(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(ckernel, "apply", counted)
    return calls


class TestCompiledKernel:
    """The compiled kernel against the numpy one, within 1e-12, and a step
    wider than it takes, which it declines, against the complex product."""

    @pytest.fixture(autouse=True)
    def compiled(self):
        if ckernel.load() is None:
            pytest.skip("the compiled kernel could not be built")

    @staticmethod
    def check(psi, mat, targets, controls):
        got, expect = psi.copy(), psi.copy()
        kernel_step(got, mat, targets, controls, None)
        reference_matrix(expect, mat, targets, controls)
        assert not np.array_equal(got, psi)
        assert np.max(np.abs(got - expect)) <= 1e-12

    @pytest.mark.parametrize(
        "targets, controls", _BLOCK_CASES, ids=[f"t{t}-c{c}" for t, c in _BLOCK_CASES]
    )
    def test_block_cases(self, targets, controls):
        self.check(*_block_case(targets, controls), targets, controls)

    @pytest.mark.parametrize("m, targets, controls", _small_cases())
    def test_small_arrays(self, m, targets, controls):
        rng = np.random.default_rng(m)
        psi = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
        self.check(psi, random_unitary(len(targets), m), targets, controls)

    @pytest.mark.parametrize(
        "m, targets, controls, phase_mask, spoil",
        [(*case, None) for case in (
            (4, (4,), (), None), (4, (1, 1), (), None), (4, (1,), (1,), None),
            (4, (0,), (4,), None), (4, (0,) * 6, (), None), (4, (), (), None),
            (1, (0,), (), None), (4, (0,), (1,), 0b100), (4, (), (1,), 0b100),
            (4, (0,), (), 0b10000), (4, (), (), 0b10010), (4, (0,) * 6, (), 0b10),
            (15, (), (), (1 << 14) - 1),
            (6, (0, 1, 2, 3), (), None), (6, (5, 1, 3, 0, 2), (), None),
            (6, (2, 5, 3, 4), (), 0b100011), (6, (4, 0, 1, 2, 3), (), 0b100100))] + [
         (4, (0, 2), (), None, "short-matrix"), (4, (0,), (), None, "no-matrix"),
         (4, (0,), (), 0b110, "short-table"), (4, (), (), 0b110, "complex64-table"),
         (4, (3,), (), 0b101, "strided-table"), (4, (0,), (), None, "complex64-amps"),
         (4, (0,), (), 0b10, "strided-amps"), (4, (1,), (), None, "read-only-amps"),
         (4, (1,), (), None, "two-dimensional-amps"), (4, (1,), (), 0b1, "unaligned-amps")],
        ids=["target-out-of-range", "repeated-target", "target-is-control",
             "control-out-of-range", "too-wide", "no-target", "two-amplitudes",
             "phases-with-control", "width-0-phases-with-control", "phase-bit-at-m",
             "width-0-phase-bit-above-m", "too-wide-with-phases",
             "phases-over-14-bits", "width-4", "width-5", "width-4-with-phases",
             "width-5-with-phases", "short-matrix", "no-matrix", "short-table",
             "complex64-table", "strided-table", "complex64-amps", "strided-amps",
             "read-only-amps", "two-dimensional-amps", "unaligned-amps"],
    )
    def test_rejects_what_it_cannot_take_untouched(self, m, targets, controls, phase_mask,
                                                   spoil):
        # C would read or write a spoiled array past its end, or write
        # where it may not: amplitudes that are not one aligned, writable
        # run of complex128 (each a view into a parent twice its size, so
        # that a stray write lands inside the parent), a matrix of another
        # width, or a table of another length, dtype or stride
        psi = np.arange(1 << m, dtype=complex)
        mat = {"short-matrix": np.eye(2, dtype=complex),
               "no-matrix": None}.get(spoil, np.eye(1 << len(targets), dtype=complex)[::-1].copy())
        parent = np.concatenate((psi, psi))
        got = parent[: 1 << m]
        if spoil == "complex64-amps":
            got = parent.view(np.complex64)[: 1 << m]
        elif spoil == "strided-amps":
            got = parent[::2]
        elif spoil == "two-dimensional-amps":
            got = got.reshape(4, -1)
        elif spoil == "unaligned-amps":
            got = parent.view(np.uint8)[1 : 1 + got.nbytes].view(complex)
        got.flags.writeable = spoil != "read-only-amps"
        expect = got.copy()
        for side in ("before", "after") if phase_mask is not None else (None,):
            phases = None
            if side:
                size = 1 << bin(phase_mask).count("1")
                table = {"short-table": np.full(size - 1, 1j),
                         "complex64-table": np.full(size, 1j, dtype=np.complex64),
                         "strided-table": np.full(2 * size, 1j)[::2]}.get(spoil,
                                                                          np.full(size, 1j))
                phases = (table, phase_mask)
            assert ckernel.apply(got, mat, targets, controls, share=2,
                                 **({side: phases} if side else {})) == -1
            assert np.array_equal(got, expect)
            assert np.array_equal(parent, np.concatenate((psi, psi)))

    @pytest.mark.parametrize("op", [sv.h(3), sv.fused((2, 5, 8), random_unitary(3, 3))],
                             ids=["H", "fused3"])
    @pytest.mark.parametrize("sides", [(), ("before",), ("after",), ("before", "after")],
                             ids=["alone", "before", "after", "both"])
    def test_a_step_is_one_kernel_call(self, kernel_calls, op, sides):
        # the folded diagonals multiply in as the step's one call sweeps
        n = 10
        rng = np.random.default_rng(5)
        folds = {"before": sv.rzz(0.3, 0, 7),
                 "after": sv.diagonal((9, 2, 4), np.exp(1j * rng.uniform(-3, 3, 8)))}
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        got = psi.copy()
        sv.apply_gate(got, op, range(n), **{side: folds[side] for side in sides})
        assert kernel_calls == [0]
        assert not np.array_equal(got, psi)

    def test_a_global_control_reading_0_makes_no_call(self, kernel_calls):
        psi = np.arange(16, dtype=complex)
        got = psi.copy()
        sv.apply_gate(got, sv.cx(4, 0), range(5), high=0)
        assert kernel_calls == []
        assert np.array_equal(got, psi)

    @pytest.mark.parametrize("targets, controls, kind", _MATRIX_CASES, ids=_MATRIX_IDS)
    def test_fold_gives_the_bytes_of_separate_sweeps(self, targets, controls, kind):
        # the fold takes no controls, so each case runs on its targets
        # alone; each diagonal set comes before the next one after. A real
        # case, which runs through the real body, also gives the values
        # of a dense body
        psi, mat = _block_case(targets, controls, kind)
        assert kernel_real(mat, targets) == (kind in _REAL_KINDS)
        rng = np.random.default_rng(len(targets))
        tables = [_random_phases(rng, bits) for bits in _FOLD_SETS]
        for i, table in enumerate(tables):
            before, after = table, tables[(i + 1) % len(tables)]
            for sides in ({"before": before}, {"after": after},
                          {"before": before, "after": after}):
                separate = psi.copy()
                if "before" in sides:
                    assert ckernel.apply(separate, None, (), before=before, share=1) == 0
                kernel_step(separate, mat, targets, (), 1)
                if "after" in sides:
                    assert ckernel.apply(separate, None, (), before=after, share=1) == 0
                expect = digest(separate)
                for cores in (1, 2, 3):
                    got = psi.copy()
                    kernel_step(got, mat, targets, (), cores, **sides)
                    assert digest(got) == expect, (sides.keys(), _FOLD_SETS[i], cores)
                if kind in _REAL_KINDS:
                    assert np.array_equal(got, _through_dense(psi, mat, targets, (), 1, **sides))

    @pytest.mark.parametrize("bits", _FOLD_SETS, ids=[str(b) for b in _FOLD_SETS])
    @pytest.mark.parametrize("order", ["ascending", "descending"])
    def test_width_0_matches_numpy(self, bits, order):
        psi, _ = _block_case((0,), ())
        bits = bits if order == "ascending" else bits[::-1]
        rng = np.random.default_rng(len(bits))
        diag = np.exp(1j * rng.uniform(-math.pi, math.pi, 1 << len(bits)))
        got, expect = psi.copy(), psi.copy()
        assert ckernel.apply(got, None, (), before=_kernel_table(diag, bits), share=1) == 0
        sv._apply_diagonal_numpy(expect, diag, bits)
        assert not np.array_equal(got, psi)
        assert np.max(np.abs(got - expect)) <= 1e-14

    @pytest.mark.parametrize("targets, controls, kind", _MATRIX_CASES, ids=_MATRIX_IDS)
    def test_same_bytes_at_any_thread_count(self, targets, controls, kind):
        psi, mat = _block_case(targets, controls, kind)
        # big enough that 3 cores split the step three ways
        assert kernel_threads(psi.size.bit_length() - 1 - len(controls), 3) == 3
        digests = {compiled_digest(psi, mat, targets, controls, cores) for cores in (1, 2, 3)}
        assert len(digests) == 1
        if kind in _REAL_KINDS:
            cmask = sum(1 << c for c in controls)
            assert kernel_real(mat, targets, cmask)
            got = psi.copy()
            kernel_step(got, mat, targets, controls, 3)
            assert np.array_equal(got, _through_dense(psi, mat, targets, controls, 3))

    @pytest.mark.parametrize("cores", [1, 2], ids=["one-chunk", "split"])
    @pytest.mark.parametrize(
        "w, held, phased", _BODIES + _WIDE_SHAPES,
        ids=[(f"rows{1 << w}-{h}" if isinstance(h, str) else f"rows{1 << w}-held{h}")
             + f"-{'phased' if p else 'plain'}" for w, h, p in _BODIES + _WIDE_SHAPES],
    )
    def test_every_body_matches_numpy(self, w, held, phased, cores):
        # a block body takes each of its sparse matrices, and gives the
        # bytes that a dense body gives with 1e-300 for their zeros; the
        # real body takes a real orthogonal matrix between powers of i,
        # and gives the values that a dense body gives with 1e-300 for its
        # parts of 0. A wide shape has no body: its step runs as
        # `kernel_step` runs it, and matches the complex product
        targets, controls = _body_case(w, held, phased)
        psi, mat = _block_case(targets, controls)
        cmask = sum(1 << c for c in controls)
        assert kernel_threads(psi.size.bit_length() - 1 - len(controls), cores) == cores
        rng = np.random.default_rng(w)
        sides, diagonals = {}, None
        if phased:
            # diagonals over the lane bits and above, one of each side
            diagonals = [
                (bits, np.exp(1j * rng.uniform(-math.pi, math.pi, 1 << len(bits))))
                for bits in ((0, 5, 9), (1, 13, 16))
            ]
            sides = {side: _kernel_table(diag, bits)
                     for side, (bits, diag) in zip(("before", "after"), diagonals)}
        kinds, terms = _BLOCK_BODIES.get(held, ((), None))
        real = isinstance(held, str) and held.startswith("real")
        mats = [_sparse_matrix(kind, w) for kind in kinds]
        if real:
            mats = [_real_matrix(f"orthogonal-{w}", w + seed) for seed in (0, 10)]
        for mat in mats or [mat]:
            expect = psi.copy()
            if phased:
                sv._apply_diagonal_numpy(expect, diagonals[0][1], diagonals[0][0])
            reference_matrix(expect, mat, targets, controls)
            if phased:
                sv._apply_diagonal_numpy(expect, diagonals[1][1], diagonals[1][0])
            got = psi.copy()
            kernel_step(got, mat, targets, controls, cores, **sides)
            assert not np.array_equal(got, psi)
            assert np.max(np.abs(got - expect)) <= 1e-12
            if terms or real:
                assert kernel_terms(mat, targets, cmask) == (terms or 1 << w)
                assert kernel_real(mat, targets, cmask) == real
                assert kernel_terms(_with_tiny_entries(mat), targets, cmask) == 1 << w
                through_dense = _through_dense(psi, mat, targets, controls, cores, **sides)
                assert np.array_equal(got, through_dense)

    @pytest.mark.parametrize(
        "mat, targets, cmask, terms",
        [(_sparse_matrix("pairs", 1), (2, 5, 8), 0, 2),
         (_sparse_matrix("permutation", 1), (9, 4, 7), 0, 2),
         (_sparse_matrix("pairs", 2), (16, 3, 9), 1 << 12, 2),
         (_sparse_matrix("fours", 1), (2, 5, 8), 0, 4),
         (np.kron(np.eye(2), random_unitary(2, 3)) @ np.eye(8)[[0, 2, 4, 6, 1, 3, 5, 7]],
          (6, 3, 12), 0, 4),
         (_ring_of_3(), (2, 5, 8), 0, 4),
         (random_unitary(3, 1), (2, 5, 8), 0, 8),
         (_with_tiny_entries(_sparse_matrix("pairs", 1)), (2, 5, 8), 0, 8),
         (_sparse_matrix("pairs", 1), (1, 5, 8), 0, 8),
         (_sparse_matrix("permutation", 1), (9, 4, 7), 1, 8),
         (np.eye(8, k=1) + np.eye(8, k=-7) + np.eye(8), (2, 5, 8), 0, 8),
         (np.eye(4)[::-1], (2, 5), 0, 4),
         (np.eye(16)[::-1], (2, 5, 8, 11), 0, 0),
         (_kron(_H, _X, _X), (2, 5, 8), 0, 2)],
        ids=["X-H-X", "generalized-permutation", "controlled", "blocks-of-4",
             "blocks-of-4-interleaved", "ring-of-3", "dense", "tiny-entries",
             "target-at-bit-1", "control-at-bit-0", "chain-of-8", "width-2",
             "width-4-declined", "real-in-blocks-of-2"],
    )
    def test_sparse_steps_take_a_block_body(self, mat, targets, cmask, terms):
        # a sparse step that fell back to a dense body would still pass
        # every check of its amplitudes: only a slower sweep would show it.
        # The interleaved blocks hold the even and the odd columns; each
        # row of the chain has two nonzero entries, in columns r and r + 1
        # (mod 8), so all 8 columns form one group. A step wider than the
        # kernel takes reads 0
        assert kernel_terms(mat, targets, cmask) == terms

    @pytest.mark.parametrize(
        "mat, targets, cmask, real",
        [(_real_matrix("rx3", 1), (2, 5, 8), 0, True),
         (_real_matrix("h3", 1), (9, 4, 7), 0, True),
         (_real_matrix("rx3", 2), (0, 1, 2), 0, True),
         (_real_matrix("cx-h-rx", 1), (5, 11), 0, True),
         (_H, (0,), 0, True),
         (_H, (5,), 0, True),
         (_real_matrix("rx3", 3), (2, 5, 8), 1 << 12, True),
         (_real_matrix("orthogonal-3", 1) @ np.diag([1, 1, 1, 1, 1, 1, 1, 1j]), (2, 5, 8), 0,
          True),
         (_real_matrix("rx3", 3), (2, 5, 8), 1, False),
         (_real_matrix("rx3", 1) + np.diag([1e-3j, 0, 0, 0, 0, 0, 0, 0]), (2, 5, 8), 0, False),
         (np.where(np.arange(64).reshape(8, 8) == 0, 1j, 1) * _real_matrix("rx3", 1),
          (2, 5, 8), 0, False),
         (np.where(np.arange(64).reshape(8, 8) == 9, 1j, 1) * _real_matrix("rx3", 1),
          (0, 1, 2), 0, False),
         (_kron(_H, _X, _X), (2, 5, 8), 0, False),
         (_with_tiny_entries(_real_matrix("rx3", 1)), (2, 5, 8), 0, False),
         (random_unitary(3, 1), (2, 5, 8), 0, False),
         (np.eye(16)[::-1], (2, 5, 8, 11), 0, False)],
        ids=["RX-RX-RX", "H-H-H", "lanes-0-1-2", "CX-H-RX", "H-at-bit-0", "H-at-bit-5",
             "control-above-bit-1", "one-column-turned", "control-at-bit-0",
             "both-parts-nonzero", "entry-0-0-turned", "entry-1-1-turned-at-lanes",
             "falls-into-blocks", "tiny-parts", "dense", "width-4-declined"],
    )
    def test_real_steps_take_the_real_body(self, mat, targets, cmask, real):
        # a real step that fell back to a dense body would pass every check
        # of its amplitudes: only a slower sweep would show it. A near miss
        # must not take it: an entry with both parts nonzero; RX (x) RX (x)
        # RX, every entry nonzero, with entry (0, 0) turned by i, or entry
        # (1, 1), so that no bits a and b give its pattern. Turning a whole
        # column keeps the pattern. H (x) X (x) X falls into blocks of 2,
        # and keeps that body (`test_sparse_steps_take_a_block_body`)
        assert kernel_real(mat, targets, cmask) == real
        if real:
            assert kernel_terms(mat, targets, cmask) == 1 << len(targets)

    @pytest.mark.parametrize("w", [4, 5])
    def test_wide_fused_op_gives_the_bytes_of_its_steps_apart(self, w):
        # the kernel declines the fold, so `apply_gate` applies the
        # diagonals through its width-0 sweep and the matrix through the
        # numpy kernel
        n = 17
        rng = np.random.default_rng(w)
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        op = sv.fused((2, 5, 9, 14, 0)[:w], random_unitary(w, w))
        before, after = (
            sv.diagonal(bits, np.exp(1j * rng.uniform(-math.pi, math.pi, 1 << len(bits))))
            for bits in ((0, 5, 9), (1, 13, 16)))
        positions = list(range(n))
        got = psi.copy()
        sv.apply_gate(got, op, positions, before=before, after=after)
        apart = psi.copy()
        for each in (before, op, after):
            sv.apply_gate(apart, each, positions)
        assert not np.array_equal(got, psi)
        assert digest(got) == digest(apart)

    def test_calls_at_once_give_the_serial_bytes(self):
        # three threads whose calls overlap, each with a share of 6 cores:
        # one call's step splits while the others find it open and run
        # serially
        cases = [(*_block_case(t, c), t, c) for t, c in _BLOCK_CASES[:3]]
        expect = [compiled_digest(*case, 1, rounds=8) for case in cases]
        got = [None] * len(cases)

        def body(i):
            got[i] = compiled_digest(*cases[i], 6, rounds=8)

        threads = [threading.Thread(target=body, args=(i,), daemon=True)
                   for i in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == expect

    @pytest.mark.parametrize(
        "bits, share, count",
        [(2, 4, 1), (14, 2, 1), (15, 0, 1), (15, 1, 1), (15, 2, 2), (15, 100, 8),
         (20, 3, 3), (40, 1000, 64)],
        ids=["fused-block", "below-threshold", "no-share", "one-core", "two-cores",
             "one-per-chunk", "three-cores", "at-most-64"],
    )
    def test_thread_count(self, bits, share, count):
        # 2^15 amplitudes before a step splits, 2^12 per chunk
        assert kernel_threads(bits, share) == count


def kernel_step(amps, mat, targets, controls, cores, before=None, after=None) -> None:
    """One step as `apply_gate` runs it: `ckernel.apply` with a share of
    `cores` cores, which must take a width up to `KERNEL_WIDTH` and
    decline a wider one, touching nothing. A declined step's diagonals
    then run through width-0 calls and its matrix through
    `_apply_matrix_numpy`, which is what runs there. A share of None is
    this process's."""
    if len(targets) <= KERNEL_WIDTH:
        assert ckernel.apply(amps, mat, targets, controls, before, after, cores) == 0
        return
    untouched = amps.copy()
    assert ckernel.apply(amps, mat, targets, controls, before, after, cores) == -1
    assert np.array_equal(amps, untouched)
    if before is not None:
        assert ckernel.apply(amps, None, (), before=before, share=1) == 0
    sv._apply_matrix_numpy(amps, mat, targets, controls)
    if after is not None:
        assert ckernel.apply(amps, None, (), before=after, share=1) == 0


def reference_matrix(amps, mat, targets, controls) -> None:
    """What the compiled kernel's steps are checked against: the numpy
    kernel for a width that the compiled one takes, else the complex
    product, since the numpy kernel is what runs such a step."""
    if len(targets) <= KERNEL_WIDTH:
        sv._apply_matrix_numpy(amps, mat, targets, controls)
    else:
        one_shot_apply_matrix(amps, mat, targets, controls, arithmetic="complex")


def digest(amps) -> str:
    return hashlib.sha256(amps.tobytes()).hexdigest()


def compiled_digest(psi, mat, targets, controls, cores, rounds=1) -> str:
    """sha256 of psi after `rounds` steps through `kernel_step` with a
    share of `cores` cores."""
    got = psi.copy()
    for _ in range(rounds):
        kernel_step(got, mat, targets, controls, cores)
    return digest(got)


# the kernel spells its factor out over the low B index bits; the cases
# put bits below B, at and above it, and on both sides of it
_B = sv._DIAGONAL_INNER_BITS


class TestDiagonalKernel:
    @pytest.mark.parametrize(
        "n, positions",
        [(_B + 2, ()), (_B + 2, (0,)), (_B + 2, (2, 5, _B - 1)), (_B + 2, (_B,)),
         (_B + 2, (_B + 1, _B)), (_B + 2, (_B - 2, _B, _B + 1)), (_B + 2, (_B - 1, _B)),
         (_B + 2, (_B + 1, 3, 7)),
         # 4 to 7 positions at bit 13 or above, which one stretch from
         # `fuse` may hold wherever its qubits sit
         (19, (_B, _B + 2, _B + 4, _B + 5)),
         (19, (_B + 5, 3, _B, _B + 1, _B - 1, _B + 3, _B + 2)),
         (19, tuple(range(_B, 19)) + (0, 1, 2, 7, 8, 9, 10)),
         (20, (_B + 6, _B + 1, _B + 4, _B)),
         (20, tuple(range(19, _B - 1, -1))),
         (20, tuple(range(7, 20))),
         (20, (_B + 6, 0, _B + 5, 1, _B + 4, 2, _B + 3, _B - 1, _B + 2, 11, _B + 1, 5, _B))],
        ids=["none", "low", "low3", "high", "high2", "straddle3", "straddle2",
             "unsorted", "n19-high4", "n19-high5", "n19-high6", "n20-high4",
             "n20-high7", "n20-chain13", "n20-interleaved13"],
    )
    def test_matches_brute_force(self, n, positions):
        rng = np.random.default_rng(len(positions))
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        diag = np.exp(1j * rng.uniform(-math.pi, math.pi, size=1 << len(positions)))
        got = psi.copy()
        if positions:
            sv.apply_gate(got, sv.diagonal(positions, diag), range(n))
        else:
            # one qubit at global position n, whose bit of `high` reads 1
            sv.apply_gate(got, sv.diagonal((n,), [1, diag[0]]), range(n + 1), high=1)
        # basis state |i> picks the entry whose bit j is bit positions[j] of i
        index = np.arange(1 << n)
        entry = sum(((index >> pos) & 1) << j for j, pos in enumerate(positions))
        assert np.max(np.abs(got - diag[entry] * psi)) <= 1e-12


class TestDiagonalOp:
    """The DIAGONAL op through `apply_gate_dense` at n=15, against each
    basis state's phase: its factor is spelled out over the low 13 bits, so
    the cases put positions below, at and above bit 13, and unsorted."""

    @pytest.mark.parametrize(
        "targets",
        [(0,), (1, 4, 7, 12), (_B,), (_B + 1, _B), (_B - 1, _B, _B + 1),
         (_B + 1, 2, _B - 1, 0), tuple(range(_B - 3, -1, -1)) + (_B, _B + 1)],
        ids=["low", "low4", "at", "high2", "straddle3", "unsorted", "widest"],
    )
    def test_matches_phase_per_basis_state(self, targets):
        n = _B + 2
        rng = np.random.default_rng(len(targets))
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        phases = np.exp(1j * rng.uniform(-math.pi, math.pi, size=1 << len(targets)))
        state = apply_gate_dense(StateSlice(psi), sv.diagonal(targets, phases))
        index = np.arange(1 << n)
        entry = sum(((index >> t) & 1) << j for j, t in enumerate(targets))
        assert np.max(np.abs(state.amps - phases[entry] * psi)) <= 1e-12


@pytest.mark.usefixtures("numpy_kernel")
class TestDiagonalKernelNumpy(TestDiagonalKernel):
    """The same cases on the numpy kernel, whose factor is spelled out over
    the low 13 bits once per value of the positions above them."""

    def test_temporaries_do_not_grow_with_high_positions(self):
        # 7 of 13 positions at bit 13 or above at n=20. A factor spelled
        # out over the low 13 bits times 2^7 would take 16 MiB; the bound
        # is what a factor over 3 high positions took, 1 MiB
        n, positions = 20, tuple(range(7, 20))
        amps = np.ones(1 << n, dtype=complex)
        diag = np.exp(1j * np.linspace(0, 1, 1 << len(positions)))
        tracemalloc.start()
        try:
            sv._apply_diagonal_numpy(amps, diag, positions)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20
        assert amps[-1] == diag[-1]


@pytest.mark.usefixtures("numpy_kernel")
class TestDiagonalOpNumpy(TestDiagonalOp):
    """The same cases on the numpy kernel."""


@pytest.mark.parametrize("k", [1, 2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_apply_gate_per_block_equals_whole_state(k, data):
    # block b of an n-qubit state is a slice of 2^(n-k) amplitudes whose
    # high k index bits read b: a rank's slice, with b its rank id
    c = data.draw(mixed_circuits(k))
    n = c.num_qubits
    positions = data.draw(st.permutations(range(n)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    width = data.draw(st.integers(1, n))
    wide = sv.diagonal(positions[:width], np.exp(1j * rng.uniform(-3, 3, 1 << width)))
    for op in c.ops + [wide]:
        if op.kind == "SWAP" or (
            not op.is_diagonal() and max(positions[t] for t in op.targets) >= n - k
        ):
            continue
        full = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        rows = full.reshape(1 << k, -1).copy()
        for b in range(1 << k):
            sv.apply_gate(rows[b], op, positions, high=b)
        sv.apply_gate(full, op, positions)
        assert np.max(np.abs(rows.reshape(-1) - full)) <= 1e-12


class TestStateSliceOwnership:
    def test_never_writes_into_callers_array(self):
        psi = np.array([1, 0], dtype=complex)
        state = apply_gate_dense(StateSlice(psi), sv.x(0))
        assert np.array_equal(state.amps, [0, 1])
        assert np.array_equal(psi, [1, 0])

    def test_copy_is_independent(self):
        state = sv.basis_state(2, 0)
        twin = state.copy()
        apply_gate_dense(twin, sv.x(1))
        assert np.array_equal(state.amps, [1, 0, 0, 0])
        assert np.array_equal(twin.amps, [0, 0, 1, 0])


_GATE_MAKERS = [
    (1, lambda a, q, u: sv.h(q[0])),
    (1, lambda a, q, u: sv.y(q[0])),
    (1, lambda a, q, u: sv.rx(a, q[0])),
    (1, lambda a, q, u: sv.rz(a, q[0])),
    (2, lambda a, q, u: sv.cx(q[0], q[1])),
    (2, lambda a, q, u: sv.cp(a, q[0], q[1])),
    (2, lambda a, q, u: sv.rzz(a, q[0], q[1])),
    (2, lambda a, q, u: sv.swap(q[0], q[1])),
    (2, lambda a, q, u: sv.fused(q[:2], random_unitary(2, u))),
    (3, lambda a, q, u: sv.fused(q[:3], random_unitary(3, u))),
    (4, lambda a, q, u: sv.fused(q[:4], random_unitary(4, u))),
]


@st.composite
def small_circuits(draw):
    # 8 qubits hold two or three disjoint open blocks of fuse at once
    n = draw(st.integers(1, 8))
    makers = [make for width, make in _GATE_MAKERS if width <= n]
    ops = []
    for _ in range(draw(st.integers(0, 24))):
        make = draw(st.sampled_from(makers))
        qubits = tuple(draw(st.permutations(range(n))))
        angle = draw(st.floats(-math.pi, math.pi))
        ops.append(make(angle, qubits, draw(st.integers(0, 2**32 - 1))))
    return Circuit(n, ops)


def circuit_action(circuit: Circuit, probe: np.ndarray) -> np.ndarray:
    """The circuit's unitary times `probe`, one brute-force matrix per op."""
    for op in circuit.ops:
        probe = brute_force_matrix(op, circuit.num_qubits) @ probe
    return probe


def check_fuse_preserves_unitary(circuit, max_width):
    # two unitaries that differ move four random unit vectors apart with
    # probability 1; four columns keep an 8-qubit check cheap
    rng = np.random.default_rng(0)
    probe = rng.normal(size=(1 << circuit.num_qubits, 4, 2)).view(complex)[..., 0]
    probe /= np.linalg.norm(probe, axis=0)
    expect = circuit_action(circuit, probe)
    got = circuit_action(fuse(circuit, max_width), probe)
    assert np.max(np.abs(got - expect)) <= 1e-10


class TestFusionProperty:
    @settings(max_examples=60, deadline=None)
    @given(circuit=small_circuits(), max_width=st.integers(1, 5))
    def test_fuse_preserves_unitary(self, circuit, max_width):
        check_fuse_preserves_unitary(circuit, max_width)


@pytest.mark.usefixtures("numpy_kernel")
class TestFusionPropertyNumpy:
    """The same property, fusing on the numpy kernel."""

    @settings(max_examples=60, deadline=None)
    @given(circuit=small_circuits(), max_width=st.integers(1, 5))
    def test_fuse_preserves_unitary(self, circuit, max_width):
        check_fuse_preserves_unitary(circuit, max_width)


class TestDenseRun:
    def test_empty_circuit_identity(self):
        state = dense_run(Circuit(3, []))
        assert state.amps[0] == 1.0
        assert np.count_nonzero(state.amps) == 1

    def test_bell_construction(self):
        state = dense_run(Circuit(2, [sv.h(0), sv.cx(0, 1)]))
        np.testing.assert_allclose(
            state.amps, [2**-0.5, 0, 0, 2**-0.5], atol=1e-12
        )

    def test_memory_guard(self, monkeypatch):
        monkeypatch.setattr(sv, "QUBIT_CAP", 6)
        with pytest.raises(ValueError, match="cap"):
            dense_run(Circuit(7, []))

    def test_initial_basis_index(self):
        state = dense_run(Circuit(4, []), initial=9)
        assert np.argmax(np.abs(state.amps)) == 9


class TestSampling:
    def test_delta_state_all_shots(self):
        counts = sample_one_rank(sv.basis_state(4, 0), 1000, seed=1)
        assert counts.entries == {"0000": 1000}
        assert counts.total == 1000

    def test_bell_binomial_bound(self):
        # p = 1/2, shots = 1e5 -> sigma = sqrt(n p (1-p)) ~ 158.1
        shots = 100_000
        bell = dense_run(Circuit(2, [sv.h(0), sv.cx(0, 1)]))
        counts = sample_one_rank(bell, shots, seed=123)
        assert set(counts.entries) <= {"00", "11"}
        sigma = math.sqrt(shots * 0.25)
        for key in ("00", "11"):
            assert abs(counts.entries.get(key, 0) - shots / 2) <= 5 * sigma

    def test_seed_determinism(self):
        state = dense_run(build_random_circuit(5, 60, seed=3))
        a = sample_one_rank(state, 5000, seed=77)
        b = sample_one_rank(state, 5000, seed=77)
        assert a == b

    def test_unnormalized_rejected(self):
        bad = StateSlice(np.array([1.0, 1.0], dtype=complex))
        with pytest.raises(ValueError, match="normalized"):
            sample_one_rank(bad, 10, seed=0)

    def test_measured_subset_marginal(self):
        bell = dense_run(Circuit(2, [sv.h(0), sv.cx(0, 1)]))
        counts = sample_one_rank(bell, 1000, seed=5, measured=(0,))
        assert set(counts.entries) <= {"0", "1"}
        assert sum(counts.entries.values()) == 1000


class TestProbabilities:
    def test_counts_sum_to_one(self):
        state = dense_run(build_random_circuit(6, 80, seed=9))
        probs = probabilities(state)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)

    def test_marginal_is_consistent(self):
        state = dense_run(build_random_circuit(4, 40, seed=2))
        full = probabilities(state)
        marg = probabilities(state, measured=(1, 3))
        for key, value in marg.items():
            # key renders qubits (3, 1) MSB-first
            total = sum(
                v for k, v in full.items() if k[0] == key[0] and k[2] == key[1]
            )
            assert value == pytest.approx(total, abs=1e-12)


    def test_measured_qubit_out_of_range_named(self):
        with pytest.raises(ValueError, match="measured qubit 7 is out of range"):
            probabilities(sv.basis_state(3, 5), (0, 7))

    def test_empty_register_keys_its_outcome_empty(self):
        assert probabilities(sv.basis_state(3, 5), ()) == {"": 1.0}


class TestFusedOpsReadOnly:
    """`fuse` adopts its arrays read-only, so that the ranks of a loopback
    world can share one schedule, and both kernels apply them, folded as
    the engine folds them or each on its own."""

    @pytest.mark.parametrize("kernel", ["compiled", "numpy"])
    def test_kernels_take_read_only_ops(self, kernel, monkeypatch):
        if kernel == "numpy":
            monkeypatch.setattr(ckernel, "load", lambda: None)
        elif ckernel.load() is None:
            pytest.skip("the compiled kernel could not be built")
        n = 8
        # a diagonal stretch over every qubit first, wider than a block: one
        # DIAGONAL op, which folds into the dense block after it
        head = [sv.rz(0.1 * q + 0.2, q) for q in range(n)]
        c = Circuit(n, head + build_random_circuit(n, 80, seed=9).ops)
        ops = fuse(c, 3).ops
        adopted = [op for op in ops if op.kind in ("FUSED", "DIAGONAL")]
        assert {op.kind for op in adopted} == {"FUSED", "DIAGONAL"}
        assert not any(op.matrix.flags.writeable for op in adopted)
        with pytest.raises(ValueError, match="read-only"):
            adopted[0].matrix[0] = 0
        amps = sv.basis_state(n, 0).amps
        positions = list(range(n))
        folded, i = 0, 0
        while i < len(ops):
            op, after = ops[i], ops[i + 1] if i + 1 < len(ops) else None
            if op.is_diagonal() and after is not None and not after.is_diagonal() \
                    and not after.controls:
                sv.apply_gate(amps, after, positions, before=op)
                folded, i = folded + 1, i + 2
            else:
                sv.apply_gate(amps, op, positions)
                i += 1
        assert folded
        assert max_deviation(dense_run(c).amps, amps) <= 1e-10


class TestFusion:
    def test_hh_is_identity(self):
        fused_c = fuse(Circuit(1, [sv.h(0), sv.h(0)]), max_width=1)
        assert len(fused_c.ops) == 1
        assert fused_c.ops[0].kind == "FUSED"
        np.testing.assert_allclose(fused_c.ops[0].matrix, np.eye(2), atol=1e-12)

    def test_rz_angles_add(self):
        # a stretch of diagonal gates is a DIAGONAL op of its phases
        a, b = 0.37, -1.12
        (step,) = fuse(Circuit(1, [sv.rz(a, 0), sv.rz(b, 0)]), max_width=1).ops
        assert step.kind == "DIAGONAL"
        expect = sv.base_diagonal(sv.rz(a + b, 0))
        got = align_phase(expect, step.matrix)
        assert np.max(np.abs(got - expect)) <= 1e-12

    def test_random_circuit_equivalence(self):
        c = build_random_circuit(6, 50, seed=21)
        dev = max_deviation(dense_run(c).amps, dense_run(fuse(c, 3)).amps)
        assert dev <= 1e-10

    def test_fusion_equivalence_sweep(self):
        # spec invariant: n <= 10, 200 gates, 100 seeds, deviation <= 1e-10
        for seed in range(100):
            n = 4 + seed % 7
            c = build_random_circuit(n, 200, seed=seed)
            width = 1 + seed % 5
            dev = max_deviation(dense_run(c).amps, dense_run(fuse(c, width)).amps)
            assert dev <= 1e-10, (seed, width, dev)

    def test_wide_ops_pass_through(self):
        wide = sv.fused(tuple(range(4)), np.eye(16))
        c = Circuit(5, [sv.h(0), wide, sv.h(0)])
        fused_c = fuse(c, max_width=3)
        assert any(op is wide for op in fused_c.ops)

    def test_swap_stays_out_of_block(self):
        # h(1) after swap(0, 1) acts on the data of qubit 0, so it is
        # renamed to h(0) and cancels the first h; the SWAP trails
        fused_c = fuse(Circuit(3, [sv.h(0), sv.swap(0, 1), sv.h(1)]), max_width=3)
        block, last = fused_c.ops
        assert (block.kind, block.targets) == ("FUSED", (0,))
        np.testing.assert_allclose(block.matrix, np.eye(2), atol=1e-12)
        assert last == sv.swap(0, 1)

    def test_ops_before_any_swap_keep_identity(self):
        wide = sv.fused(tuple(range(4)), np.eye(16))
        c = Circuit(5, [wide, sv.swap(0, 4), wide])
        first, renamed, last = fuse(c, max_width=3).ops
        assert first is wide
        assert renamed.targets == (4, 1, 2, 3)
        assert last is c.ops[1]

    def test_renaming_does_not_validate_again(self, monkeypatch):
        wide = sv.fused(tuple(range(4)), random_unitary(4, 5))
        c = Circuit(5, [sv.swap(0, 4), wide])
        checked = []
        validate = GateOp.__post_init__
        monkeypatch.setattr(
            GateOp, "__post_init__", lambda op: checked.append(op) or validate(op)
        )
        renamed, _ = fuse(c, max_width=3).ops
        assert renamed.targets == (4, 1, 2, 3)
        assert renamed.matrix is wide.matrix
        assert checked == []

    def test_never_writes_into_an_input_op(self):
        # a phase and a CX join a user's FUSED block, and a user's DIAGONAL
        # op joins a stretch; neither input array changes
        block = sv.fused((0, 1), random_unitary(2, 9))
        phases = sv.diagonal((0, 1), np.exp(1j * np.arange(4.0)))
        before = [block.matrix.copy(), phases.matrix.copy()]
        dense = fuse(Circuit(2, [block, sv.rz(0.3, 0), sv.cx(0, 1)]), 3).ops
        stretch = fuse(Circuit(4, [sv.rz(0.2, 0), phases, sv.cz(2, 3)]), 3).ops
        assert [op.kind for op in dense + stretch] == ["FUSED", "DIAGONAL"]
        for op, copy in zip((block, phases), before):
            assert op.matrix.tobytes() == copy.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(circuit=small_circuits(), max_width=st.integers(1, 5))
    def test_swaps_trail_in_input_order(self, circuit, max_width):
        swaps = [op for op in circuit.ops if op.kind == "SWAP"]
        ops = fuse(circuit, max_width).ops
        assert ops[len(ops) - len(swaps):] == swaps
        assert all(op.kind != "SWAP" for op in ops[: len(ops) - len(swaps)])

    def test_invalid_width(self):
        with pytest.raises(ValueError, match="max_width"):
            fuse(Circuit(1, [sv.h(0)]), max_width=0)

    def test_diagonal_block_detected(self):
        c = Circuit(2, [sv.rz(0.5, 0), sv.cp(0.25, 0, 1), sv.rzz(0.8, 0, 1)])
        fused_c = fuse(c, max_width=2)
        assert len(fused_c.ops) == 1
        assert fused_c.ops[0].is_diagonal()

    def test_diagonal_joins_open_dense_block(self):
        # the kernel roofline probe unpacks this n=20 fusion as one block
        c = Circuit(20, [sv.h(0), sv.cx(0, 1), sv.cx(1, 2), sv.rz(0.3, 2)])
        (block,) = fuse(c, max_width=3).ops
        assert block.kind == "FUSED" and not block.is_diagonal()
        assert block.targets == (0, 1, 2)

    def test_diagonal_adding_a_qubit_leaves_dense_block(self):
        # cp(1, 2) would widen the block on (0, 1): the block is emitted
        # and the phase opens a stretch of its own
        c = Circuit(3, [sv.h(0), sv.cx(0, 1), sv.cp(0.3, 1, 2)])
        dense, phase = fuse(c, 3).ops
        assert dense.targets == (0, 1) and not dense.is_diagonal()
        assert phase.targets == (1, 2) and phase.is_diagonal()

    def test_interleaved_registers_fuse_to_two_blocks(self):
        ops = [
            sv.cx(0, 1), sv.cx(10, 11), sv.cx(1, 2), sv.cx(11, 12),
            sv.h(0), sv.h(10), sv.cx(2, 0), sv.cx(12, 10),
        ]
        c = Circuit(13, ops)
        fused_c = fuse(c, 3)
        assert [op.targets for op in fused_c.ops] == [(0, 1, 2), (10, 11, 12)]
        psi = dense_run(build_random_circuit(13, 60, seed=4))
        want, got = psi.copy(), psi.copy()
        for op in c.ops:
            apply_gate_dense(want, op)
        for op in fused_c.ops:
            apply_gate_dense(got, op)
        assert np.max(np.abs(got.amps - want.amps)) <= 1e-12

    def test_oldest_touching_block_is_evicted(self):
        # blocks on (0, 1) and (2, 3) are open; cx(1, 2) cannot hold both
        # at width 3, so the older one, (0, 1), goes first and (2, 3) grows
        c = Circuit(4, [sv.cx(0, 1), sv.cx(2, 3), sv.cx(1, 2)])
        first, second = fuse(c, 3).ops
        assert first.targets == (0, 1)
        assert second.targets == (1, 2, 3)

    @staticmethod
    def rzz_ring(n):
        return Circuit(n, [sv.rzz(0.1 * (q + 1), q, (q + 1) % n) for q in range(n)])

    def test_ring_of_12_is_one_diagonal_step(self):
        (step,) = fuse(self.rzz_ring(12), max_width=3).ops
        assert (step.kind, step.targets) == ("DIAGONAL", tuple(range(12)))
        expect = dense_run(self.rzz_ring(12), initial=0b101100111010).amps
        got = apply_gate_dense(sv.basis_state(12, 0b101100111010), step).amps
        assert np.max(np.abs(got - expect)) <= 1e-12

    def test_chain_over_high_qubits_is_one_diagonal_step(self):
        # 13 sites on qubits 7-19 of 20: 7 of them at bit 13 or above
        chain = Circuit(20, [sv.rzz(0.1 * q, q, q + 1) for q in range(7, 19)])
        (step,) = fuse(chain, max_width=3).ops
        assert (step.kind, step.targets) == ("DIAGONAL", tuple(range(7, 20)))
        psi = sv.basis_state(20, 0)
        for q in range(7, 20):
            apply_gate_dense(psi, sv.h(q))
        want, got = psi.copy(), psi.copy()
        for op in chain.ops:
            apply_gate_dense(want, op)
        apply_gate_dense(got, step)
        assert np.max(np.abs(got.amps - want.amps)) <= 1e-12

    def test_ring_of_20_takes_at_most_4_steps(self):
        ring = self.rzz_ring(20)
        steps = fuse(ring, max_width=3).ops
        assert len(steps) <= 4
        for step in steps:
            assert step.is_diagonal()
            assert len(step.targets) <= sv._DIAGONAL_INNER_BITS
        psi = sv.basis_state(20, 0)
        for q in range(20):
            apply_gate_dense(psi, sv.h(q))
        want, got = psi.copy(), psi.copy()
        for op in ring.ops:
            apply_gate_dense(want, op)
        for op in steps:
            apply_gate_dense(got, op)
        assert np.max(np.abs(got.amps - want.amps)) <= 1e-12


def start_op(qubits, vectors) -> GateOp:
    return GateOp("START", tuple(qubits), matrix=np.asarray(vectors, dtype=complex))


class TestStart:
    """The START op of a circuit's leading one-qubit gates: its checks, its
    split from a circuit and its fill of a zero slice."""

    @pytest.mark.parametrize(
        "qubits, vectors, controls, message",
        [
            ((0, 1), [[1, 0]], (), "one 2-vector per target"),
            ((0,), [1, 0], (), "one 2-vector per target"),
            ((0,), [[1, 0, 0]], (), "one 2-vector per target"),
            ((0,), None, (), "one 2-vector per target"),
            ((0, 1), [[1, 0], [0.5, 0.5]], (), "not unit vectors"),
            ((0,), [[0, 1]], (1,), "no controls"),
            ((), np.zeros((0, 2)), (), "at least one qubit"),
        ],
        ids=["rows", "flat", "columns", "none", "non-unit", "controls", "empty"],
    )
    def test_malformed_start_rejected(self, qubits, vectors, controls, message):
        matrix = None if vectors is None else np.asarray(vectors, dtype=complex)
        with pytest.raises(ValueError, match=message):
            GateOp("START", qubits, controls, matrix=matrix)

    def test_start_is_neither_fused_nor_inverted(self):
        op = start_op((0,), [[0, 1]])
        assert not op.is_diagonal()
        with pytest.raises(ValueError, match="not fused"):
            fuse(Circuit(2, [op, sv.cx(0, 1)]))
        with pytest.raises(ValueError, match="no inverse rule"):
            sv.inverse(op)
        with pytest.raises(ValueError, match="not an input gate"):
            sv.split_start(Circuit(2, [op]))

    def test_leading_one_qubit_ops_fold_into_the_vectors(self):
        u = random_unitary(1, 4)
        phase = np.exp(0.2j)
        ops = [
            sv.h(0), sv.rz(0.3, 0), sv.diagonal((0,), [1, phase]),
            sv.h(1), sv.p(0.5, 1),
            sv.h(2), sv.z(2),
            sv.fused((3,), u),
            sv.rz(0.9, 4),
            sv.cx(0, 1), sv.h(0), sv.cz(2, 3), sv.x(5), sv.swap(4, 5), sv.h(5),
        ]
        c = Circuit(6, ops, measured_qubits=(0, 1), name="folded")
        start, rest = sv.split_start(c)
        r = 2**-0.5
        expect = [
            [r * np.exp(-0.15j), r * np.exp(0.15j) * phase],
            [r, r * np.exp(0.5j)],
            [r, -r],
            u[:, 0],
            [np.exp(-0.45j), 0],
        ]
        # qubit 5's X leaves it in |1>: 5 is listed, 4's phase stays with it
        assert start.targets == (0, 1, 2, 3, 4, 5)
        assert np.allclose(start.matrix, [*expect, [0, 1]], atol=1e-15)
        assert not start.matrix.flags.writeable
        assert rest.ops == ops[9:12] + ops[13:]
        assert (rest.num_qubits, rest.measured_qubits, rest.name) == (6, (0, 1), "folded")
        filled = dense_run(Circuit(6, [start, *rest.ops])).amps
        assert max_deviation(filled, dense_run(c).amps) <= 1e-12

    def test_qubits_left_in_zero_are_not_listed(self):
        c = Circuit(3, [sv.x(0), sv.x(0), sv.h(1), sv.cx(1, 2)])
        start, rest = sv.split_start(c)
        assert start.targets == (1,)
        assert rest.ops == [sv.cx(1, 2)]
        assert sv.split_start(Circuit(2, [sv.x(1), sv.x(1), sv.cx(0, 1)]))[0] is None

    @pytest.mark.parametrize("high", range(4))
    def test_fill_writes_the_slice_of_the_product(self, high):
        # 5 qubits on 3 local bits of one of 4 ranks, on a shuffled layout;
        # qubit 3 is left in |0> on a global bit, qubit 0 keeps only a phase
        vectors = {q: random_unitary(1, 10 + q)[:, 0] for q in (1, 2, 4)}
        vectors[0] = np.array([np.exp(0.4j), 0])
        op = start_op(sorted(vectors), [vectors[q] for q in sorted(vectors)])
        positions = [2, 0, 4, 3, 1]
        by_position = {positions[q]: v for q, v in vectors.items()}
        full = np.ones(1)
        for p in range(5):
            full = np.kron(by_position.get(p, [1, 0]), full)
        amps = np.zeros(8, dtype=complex)
        if high == 0:
            amps[0] = 1
        sv.apply_gate(amps, op, positions, high)
        assert max_deviation(amps, full[8 * high : 8 * high + 8]) <= 1e-15
        # qubit 0's |0> halves the nonzeros of the ranks where qubit 3 reads 0
        assert np.count_nonzero(amps) == (4 if high in (0, 2) else 0)

    def test_fill_takes_no_folded_diagonal(self):
        with pytest.raises(ValueError, match="no folded diagonal"):
            sv.apply_gate(np.zeros(2, complex), start_op((0,), [[0, 1]]), [0], after=sv.z(0))

    def test_fill_allocates_no_slice_sized_temporary(self):
        op = start_op(range(16), [[2**-0.5, 2**-0.5]] * 16)
        amps = np.zeros(1 << 16, dtype=complex)
        amps[0] = 1
        tracemalloc.start()
        sv.apply_gate(amps, op, range(16))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < amps.nbytes // 16
        assert np.allclose(amps, 2**-8, atol=1e-15)


class TestCircuitValidation:
    def test_qubit_out_of_range(self):
        with pytest.raises(ValueError, match="references"):
            Circuit(2, [sv.x(2)])

    def test_duplicate_measured(self):
        with pytest.raises(ValueError, match="duplicate"):
            Circuit(2, [], measured_qubits=(0, 0))

    @pytest.mark.parametrize("measured, qubit", [((0, 7), 7), ((1, 1), 1), ((-1,), -1)])
    def test_bad_measured_qubit_named(self, measured, qubit):
        with pytest.raises(ValueError, match=f"measured qubit {qubit} "):
            Circuit(3, [], measured_qubits=measured)

    def test_measured_defaults_to_all(self):
        assert Circuit(3, []).measured == (0, 1, 2)


class TestPrecision:
    def test_bytes_per_amplitude(self):
        assert list(Precision) == [Precision.DOUBLE]
        assert Precision.DOUBLE.value == 16
        assert dense_run(Circuit(1, [])).amps.itemsize == 16
