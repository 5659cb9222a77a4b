import math

import numpy as np
import pytest
from conftest import random_unitary
from hypothesis import given, settings, strategies as st

from qsim import svcore as sv
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
    sample_dense,
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

    def test_all_kinds_unitary_within_1e12(self):
        for op in ALL_KIND_SAMPLES:
            mat, _ = sv.op_matrix(op)
            dim = mat.shape[0]
            dev = np.max(np.abs(mat @ mat.conj().T - np.eye(dim)))
            assert dev <= 1e-12, op.kind


class TestApplyGateDense:
    def test_hadamard_on_zero(self):
        state = apply_gate_dense(sv.zero_state(1), sv.h(0))
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
            apply_gate_dense(sv.zero_state(1), sv.x(1))

    def test_little_endian_indexing(self):
        # X on qubit q of |0...0> yields basis index 2^q
        for n in (1, 3, 5):
            for q in range(n):
                state = apply_gate_dense(sv.zero_state(n), sv.x(q))
                assert np.argmax(np.abs(state.amps)) == 1 << q

    def test_norm_preserved_over_random_ops(self):
        rng = np.random.default_rng(11)
        state = sv.zero_state(6)
        ops = build_random_circuit(6, 300, seed=5).ops
        for op in ops:
            apply_gate_dense(state, op)
        assert abs(state.norm() - 1.0) <= 1e-9
        assert np.all(np.isfinite(state.amps.view(np.float64)))


class TestKernelOracle:
    @pytest.mark.parametrize("precision", list(Precision), ids=lambda p: p.name)
    @pytest.mark.parametrize(
        "op",
        ALL_KIND_SAMPLES + SCATTERED_SAMPLES,
        ids=lambda op: f"{op.kind}-t{op.targets}-c{op.controls}",
    )
    def test_apply_gate_dense_matches_brute_force(self, op, precision):
        n = 5
        rng = np.random.default_rng(3)
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi /= np.linalg.norm(psi)
        state = apply_gate_dense(StateSlice(psi.copy(), precision), op)
        tol = 1e-12 if precision is Precision.DOUBLE else 1e-6
        assert np.max(np.abs(state.amps - brute_force_matrix(op, n) @ psi)) <= tol


# the kernel spells its factor out over the low B index bits; the cases
# put bits below B, at and above it, and on both sides of it
_B = sv._DIAGONAL_INNER_BITS


class TestDiagonalKernel:
    @pytest.mark.parametrize("precision", list(Precision), ids=lambda p: p.name)
    @pytest.mark.parametrize(
        "positions",
        [(), (0,), (2, 5, _B - 1), (_B,), (_B + 1, _B), (_B - 2, _B, _B + 1),
         (_B - 1, _B), (_B + 1, 3, 7)],
        ids=["none", "low", "low3", "high", "high2", "straddle3", "straddle2",
             "unsorted"],
    )
    def test_matches_brute_force(self, positions, precision):
        n = _B + 2
        rng = np.random.default_rng(len(positions))
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        diag = np.exp(1j * rng.uniform(-math.pi, math.pi, size=1 << len(positions)))
        got = psi.astype(precision.dtype)
        sv._apply_diagonal(got, diag, positions)
        # basis state |i> picks the entry whose bit j is bit positions[j] of i
        entry = [
            sum(((i >> pos) & 1) << j for j, pos in enumerate(positions))
            for i in range(1 << n)
        ]
        tol = 1e-12 if precision is Precision.DOUBLE else 1e-5
        assert np.max(np.abs(got - diag[entry] * psi)) <= tol


class TestStateSliceOwnership:
    @pytest.mark.parametrize("precision", list(Precision), ids=lambda p: p.name)
    def test_never_writes_into_callers_array(self, precision):
        psi = np.array([1, 0], dtype=precision.dtype)
        state = apply_gate_dense(StateSlice(psi, precision), sv.x(0))
        assert np.array_equal(state.amps, [0, 1])
        assert np.array_equal(psi, [1, 0])

    def test_copy_is_independent(self):
        state = sv.zero_state(2)
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
    n = draw(st.integers(1, 5))
    makers = [make for width, make in _GATE_MAKERS if width <= n]
    ops = []
    for _ in range(draw(st.integers(0, 12))):
        make = draw(st.sampled_from(makers))
        qubits = tuple(draw(st.permutations(range(n))))
        angle = draw(st.floats(-math.pi, math.pi))
        ops.append(make(angle, qubits, draw(st.integers(0, 2**32 - 1))))
    return Circuit(n, ops)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    dim = 1 << circuit.num_qubits
    u = np.eye(dim, dtype=complex)
    for op in circuit.ops:
        u = brute_force_matrix(op, circuit.num_qubits) @ u
    return u


class TestFusionProperty:
    @settings(max_examples=60, deadline=None)
    @given(circuit=small_circuits(), max_width=st.integers(1, 5))
    def test_fuse_preserves_unitary(self, circuit, max_width):
        expect = circuit_unitary(circuit)
        got = circuit_unitary(fuse(circuit, max_width))
        assert np.max(np.abs(got - expect)) <= 1e-10


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

    def test_memory_guard(self):
        with pytest.raises(ValueError, match="cap"):
            dense_run(Circuit(7, []), qubit_cap=6)

    def test_initial_basis_index(self):
        state = dense_run(Circuit(4, []), initial=9)
        assert np.argmax(np.abs(state.amps)) == 9


class TestSampling:
    def test_delta_state_all_shots(self):
        counts = sample_dense(sv.zero_state(4), 1000, seed=1)
        assert counts.entries == {"0000": 1000}
        assert counts.total == 1000

    def test_bell_binomial_bound(self):
        # p = 1/2, shots = 1e5 -> sigma = sqrt(n p (1-p)) ~ 158.1
        shots = 100_000
        bell = dense_run(Circuit(2, [sv.h(0), sv.cx(0, 1)]))
        counts = sample_dense(bell, shots, seed=123)
        assert set(counts.entries) <= {"00", "11"}
        sigma = math.sqrt(shots * 0.25)
        for key in ("00", "11"):
            assert abs(counts.entries.get(key, 0) - shots / 2) <= 5 * sigma

    def test_seed_determinism(self):
        state = dense_run(build_random_circuit(5, 60, seed=3))
        a = sample_dense(state, 5000, seed=77)
        b = sample_dense(state, 5000, seed=77)
        assert a == b

    def test_unnormalized_rejected(self):
        bad = StateSlice(np.array([1.0, 1.0], dtype=complex))
        with pytest.raises(ValueError, match="normalized"):
            sample_dense(bad, 10, seed=0)

    def test_measured_subset_marginal(self):
        bell = dense_run(Circuit(2, [sv.h(0), sv.cx(0, 1)]))
        counts = sample_dense(bell, 1000, seed=5, measured=(0,))
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


class TestFusion:
    def test_hh_is_identity(self):
        fused_c = fuse(Circuit(1, [sv.h(0), sv.h(0)]), max_width=1)
        assert len(fused_c.ops) == 1
        assert fused_c.ops[0].kind == "FUSED"
        np.testing.assert_allclose(fused_c.ops[0].matrix, np.eye(2), atol=1e-12)

    def test_rz_angles_add(self):
        a, b = 0.37, -1.12
        fused_c = fuse(Circuit(1, [sv.rz(a, 0), sv.rz(b, 0)]), max_width=1)
        assert len(fused_c.ops) == 1
        expect = sv.base_matrix(sv.rz(a + b, 0))
        got = sv.align_phase(expect.ravel(), fused_c.ops[0].matrix.ravel())
        assert np.max(np.abs(got - expect.ravel())) <= 1e-12

    def test_random_circuit_equivalence(self):
        c = build_random_circuit(6, 50, seed=21)
        dev = sv.max_deviation(dense_run(c).amps, dense_run(fuse(c, 3)).amps)
        assert dev <= 1e-10

    def test_fusion_equivalence_sweep(self):
        # spec invariant: n <= 10, 200 gates, 100 seeds, deviation <= 1e-10
        for seed in range(100):
            n = 4 + seed % 7
            c = build_random_circuit(n, 200, seed=seed)
            width = 1 + seed % 5
            dev = sv.max_deviation(dense_run(c).amps, dense_run(fuse(c, width)).amps)
            assert dev <= 1e-10, (seed, width, dev)

    def test_wide_ops_pass_through(self):
        wide = sv.fused(tuple(range(4)), np.eye(16))
        c = Circuit(5, [sv.h(0), wide, sv.h(0)])
        fused_c = fuse(c, max_width=3)
        assert any(op is wide for op in fused_c.ops)

    def test_invalid_width(self):
        with pytest.raises(ValueError, match="max_width"):
            fuse(Circuit(1, [sv.h(0)]), max_width=0)

    def test_diagonal_block_detected(self):
        c = Circuit(2, [sv.rz(0.5, 0), sv.cp(0.25, 0, 1), sv.rzz(0.8, 0, 1)])
        fused_c = fuse(c, max_width=2)
        assert len(fused_c.ops) == 1
        assert fused_c.ops[0].is_diagonal()


class TestCircuitValidation:
    def test_qubit_out_of_range(self):
        with pytest.raises(ValueError, match="references"):
            Circuit(2, [sv.x(2)])

    def test_duplicate_measured(self):
        with pytest.raises(ValueError, match="duplicate"):
            Circuit(2, [], measured_qubits=(0, 0))

    def test_measured_defaults_to_all(self):
        assert Circuit(3, []).measured == (0, 1, 2)


class TestPrecision:
    def test_bytes_per_amplitude(self):
        assert Precision.SINGLE.value == 8
        assert Precision.DOUBLE.value == 16

    def test_single_precision_run(self):
        state = dense_run(Circuit(2, [sv.h(0), sv.cx(0, 1)]), precision=Precision.SINGLE)
        assert state.amps.dtype == np.complex64
        np.testing.assert_allclose(state.amps, [2**-0.5, 0, 0, 2**-0.5], atol=1e-6)
