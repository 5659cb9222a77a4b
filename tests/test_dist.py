import math

import numpy as np
import pytest
from conftest import random_unitary
from hypothesis import given, settings, strategies as st

from qsim import dist, fabric, svcore as sv
from qsim.circuits import build_qpe, build_random_circuit, QpeSpec
from qsim.dist import (
    DistState,
    RankLayout,
    memory_accounting,
    partition,
    plan_gate,
    state_size_gib,
)
from qsim.fabric import create_world, instrument_world, run_spmd
from qsim.svcore import Circuit, Precision, dense_run


def spmd(P, fn, instrument=False, events=None):
    world = create_world("loopback", P)
    log = None
    if instrument:
        world, log = instrument_world(world, events=events)
    results = run_spmd(world, fn)
    return (results, log) if instrument else results


class TestAccounting:
    def test_memory_formula_single_precision(self):
        for n in range(27, 41):
            assert state_size_gib(n, Precision.SINGLE) == 2.0 ** (n - 27)

    def test_paper_sizes(self):
        assert state_size_gib(33, Precision.SINGLE) == 64.0
        assert state_size_gib(34, Precision.SINGLE) == 128.0

    def test_double_is_twice_single(self):
        for n in (20, 30, 40):
            assert state_size_gib(n, Precision.DOUBLE) == 2 * state_size_gib(
                n, Precision.SINGLE
            )

    def test_layout_accounting_no_allocation(self):
        layout = RankLayout.identity(40, 3)
        assert layout.full_state_gib(Precision.SINGLE) == 2.0**13

    def test_memory_accounting_dict(self):
        acct = memory_accounting(33, world_size=1, precision=Precision.SINGLE)
        assert acct["full_state_gib"] == 64.0
        acct = memory_accounting(10, world_size=4, precision=Precision.DOUBLE)
        assert acct["slice_amplitudes"] == 256
        assert acct["slice_bytes"] == 256 * 16


class TestPartition:
    def test_each_rank_holds_slice(self):
        def body(ep):
            st = partition(4, ep, initial=0)
            return st.slice.amps.copy()

        amps = spmd(4, body)
        assert all(a.size == 4 for a in amps)
        assert amps[0][0] == 1.0
        assert sum(np.count_nonzero(a) for a in amps) == 1

    def test_initial_on_other_rank(self):
        def body(ep):
            st = partition(4, ep, initial=13)  # rank 3, local index 1
            return st.slice.amps.copy()

        amps = spmd(4, body)
        assert amps[3][1] == 1.0
        assert sum(np.count_nonzero(a) for a in amps) == 1

    def test_too_few_qubits(self):
        def body(ep):
            with pytest.raises(ValueError, match="split"):
                partition(2, ep)

        spmd(4, body)

    def test_slice_cap(self):
        (ep,) = create_world("loopback", 1)
        with pytest.raises(ValueError, match="cap"):
            partition(12, ep, slice_qubit_cap=10)


def relocalize_oracle(n, k, global_pos, local_pos, full_index):
    """Brute-force index arithmetic: where does the amplitude at
    position-space index `full_index` live after the bit transposition?"""
    local_bits = n - k
    bits = [(full_index >> b) & 1 for b in range(n)]
    bits[global_pos], bits[local_pos] = bits[local_pos], bits[global_pos]
    new_index = sum(bit << b for b, bit in enumerate(bits))
    return new_index >> local_bits, new_index & ((1 << local_bits) - 1)


class TestRelocalize:
    def test_spec_worked_example(self):
        # n=3, P=2, |100> (qubit 2 set): relocalizing qubit 2's global
        # position with local position 0 moves it to rank 0, local index 1
        def body(ep):
            st = partition(3, ep, initial=4)
            dist.relocalize(st, 2, 0)
            return st.slice.amps.copy(), list(st.layout.perm)

        results = spmd(2, body)
        assert results[0][0][1] == 1.0
        assert np.count_nonzero(results[0][0]) == 1
        assert np.count_nonzero(results[1][0]) == 0
        assert results[0][1] == [2, 1, 0]  # qubit 2 -> position 0

    def test_involution(self):
        rng = np.random.default_rng(5)
        n, P = 6, 4
        vec = rng.normal(size=(P, 1 << (n - 2))) + 1j * rng.normal(size=(P, 1 << (n - 2)))

        def body(ep):
            st = partition(n, ep)
            st.slice.amps[:] = vec[ep.rank]
            before = st.slice.amps.copy()
            dist.relocalize(st, 4, 1)
            dist.relocalize(st, 4, 1)
            return np.array_equal(st.slice.amps, before), list(st.layout.perm)

        results = spmd(P, body)
        assert all(same for same, _ in results)
        assert all(perm == list(range(n)) for _, perm in results)

    def test_placement_matches_bruteforce_enumeration(self):
        n, k = 3, 1
        for global_pos in (2,):
            for local_pos in (0, 1):
                for src in range(1 << n):

                    def body(ep, src=src, gp=global_pos, lp=local_pos):
                        st = partition(n, ep, initial=src)
                        dist.relocalize(st, gp, lp)
                        return st.slice.amps.copy()

                    amps = spmd(2, body)
                    rank, local = relocalize_oracle(n, k, global_pos, local_pos, src)
                    assert amps[rank][local] == 1.0
                    assert sum(np.count_nonzero(a) for a in amps) == 1

    def test_bytes_exchanged_formula(self):
        n, P = 9, 8  # k = 3
        def body(ep):
            st = partition(n, ep)
            dist.relocalize(st, 7, 2)

        (_, log) = spmd(P, body, instrument=True)
        expect = (1 << (n - 3 - 1)) * 16
        for r in range(P):
            assert log.bytes_sent(src=r) == expect
        # bit level: position 7 -> global bit 1
        assert log.bit_bytes(0) == {1: expect}

    def test_position_validation(self):
        def body(ep):
            st = partition(4, ep)
            with pytest.raises(ValueError, match="global position"):
                dist.relocalize(st, 1, 0)
            with pytest.raises(ValueError, match="local position"):
                dist.relocalize(st, 3, 2)

        spmd(4, body)

    def test_norm_drift_over_many_swaps(self):
        def body(ep):
            st = dist.run_distributed(build_random_circuit(8, 1000, seed=3), ep)
            local = np.array([float(np.sum(np.abs(st.slice.amps) ** 2))])
            return ep.allreduce_sum(local)[0]

        totals = spmd(4, body)
        assert all(abs(t - 1.0) <= 1e-9 for t in totals)


class TestApplyDispatch:
    def test_cx_global_control_local_target(self):
        # n=4, P=2: qubit 3 is the global bit; only rank 1 (control bit 1)
        # touches data, and the result matches the dense oracle
        circuit = Circuit(4, [sv.h(3), sv.cx(3, 0)])
        dense = dense_run(circuit).amps

        def body(ep):
            st = partition(4, ep)
            dist.apply(st, sv.h(3))  # localizes qubit 3 temporarily? no: H needs local
            dist.apply(st, sv.cx(3, 0))
            return dist.gather(st).amps

        amps = spmd(2, body)
        assert np.max(np.abs(amps[0] - dense)) <= 1e-12

    def test_global_control_noop_rank_traffic(self):
        # put the control on the global bit and check zero exchange bytes
        def body(ep):
            st = partition(4, ep)
            before = st.slice.amps.copy()
            dist.apply(st, sv.cx(3, 0))  # control qubit 3 sits on the global bit
            return np.array_equal(st.slice.amps, before)

        (results, log) = spmd(2, body, instrument=True)
        assert log.bytes_sent() == 0
        assert all(results)  # control bit is 0 in |0...0>: no rank changes data

    def test_diagonal_global_zero_traffic(self):
        ops = [sv.rz(0.4, 5), sv.z(4), sv.p(0.3, 5), sv.cp(0.2, 4, 5),
               sv.rzz(0.9, 0, 5), sv.cz(5, 0)]
        circuit = Circuit(6, [sv.h(q) for q in range(6)] + ops)
        dense = dense_run(circuit).amps

        def body(ep):
            st = partition(6, ep)
            for q in range(6):
                dist.apply(st, sv.h(q))
            # other ranks may still be recording their H-gate exchanges, so
            # each rank reads only its own sent bytes, which only it adds to
            baseline = ep.traffic.bytes_sent(src=ep.rank)
            for op in ops:
                dist.apply(st, op)
            added = ep.traffic.bytes_sent(src=ep.rank) - baseline
            return dist.gather(st).amps, baseline, added

        (results, log) = spmd(4, body, instrument=True)
        # the H gates may move data; the diagonal block must add zero bytes
        for amps, _, added in results:
            assert added == 0
            assert np.max(np.abs(amps - dense)) <= 1e-12
        assert log.bytes_sent() == sum(baseline for _, baseline, _ in results)

    def test_diagonal_wider_than_local_space_matches_dense(self):
        # n=2 over P=2 leaves one local bit for two-target diagonals
        ops = [sv.h(0), sv.h(1), sv.rzz(0.9, 0, 1), sv.cp(0.2, 0, 1), sv.cz(1, 0)]
        dense = dense_run(Circuit(2, ops)).amps

        def body(ep):
            st = partition(2, ep)
            for op in ops:
                dist.apply(st, op)
            return dist.gather(st).amps

        for amps in spmd(2, body):
            assert np.max(np.abs(amps - dense)) <= 1e-12

    def test_h_on_global_single_relocalize(self):
        def body(ep):
            st = partition(10, ep)
            dist.apply(st, sv.h(9))
            return dist.gather(st).amps

        (results, log) = spmd(4, body, instrument=True)
        dense = dense_run(Circuit(10, [sv.h(9)])).amps
        assert np.max(np.abs(results[0] - dense)) <= 1e-12
        for r in range(4):
            assert log.bit_messages(r) == {1: 1}
            assert log.bytes_sent(src=r) == (1 << (10 - 2 - 1)) * 16

    def test_swap_is_pure_relabel(self):
        def body(ep):
            st = partition(6, ep)
            dist.apply(st, sv.h(0))
            dist.apply(st, sv.swap(0, 5))  # local <-> global swap: relabel only
            return dist.gather(st).amps

        (results, log) = spmd(4, body, instrument=True)
        dense = dense_run(Circuit(6, [sv.h(0), sv.swap(0, 5)])).amps
        assert log.bytes_sent() == 0
        assert np.max(np.abs(results[0] - dense)) <= 1e-12


class TestPlanGate:
    def test_belady_victim_prefers_farthest_next_use(self):
        layout = RankLayout.identity(6, 2)  # local positions 0..3
        future = [sv.h(1), sv.h(0), sv.h(3)]  # qubit 2 never used again
        steps = plan_gate(layout, sv.h(4), future)
        reloc = [s for s in steps if s.action == "relocalize"]
        assert len(reloc) == 1
        assert reloc[0].local_pos == 2  # position of qubit 2 (the farthest)

    def test_tie_breaks_to_lowest_position(self):
        layout = RankLayout.identity(6, 2)
        steps = plan_gate(layout, sv.h(5), future_ops=())
        reloc = [s for s in steps if s.action == "relocalize"]
        assert reloc[0].local_pos == 0

    def test_gate_wider_than_local_space(self):
        # a dense block needs both targets on local bits at once
        layout = RankLayout.identity(4, 3)  # one local bit
        h = sv.base_matrix(sv.h(0))
        wide = sv.fused((0, 3), np.kron(h, h))
        with pytest.raises(ValueError, match="local index bits"):
            plan_gate(layout, wide)

    @pytest.mark.parametrize(
        "op", [sv.fused((0, 3), np.eye(4)), sv.rzz(0.9, 0, 3)],
        ids=["fused-identity", "rzz"],
    )
    def test_diagonal_wider_than_local_space(self, op):
        # rule (b): a diagonal gate reads global target bits from the rank
        # id, so it needs no local index bits whatever its width
        layout = RankLayout.identity(4, 3)  # one local bit
        steps = plan_gate(layout, op)
        assert [s.action for s in steps] == ["diagonal"]
        assert layout.perm == list(range(4))

    @pytest.mark.parametrize(
        "op",
        [
            sv.rz(0.3, 1),
            sv.cz(0, 2),
            sv.cp(0.4, 2, 1),
            sv.rzz(0.5, 3, 0),
            sv.fused((2, 0, 1), np.diag(np.exp(1j * np.arange(8.0)))),
            sv.cp(0.4, 5, 1),
        ],
        ids=["rz", "cz", "cp", "rzz", "fused-diagonal", "cp-global-control"],
    )
    def test_diagonal_plans_one_diagonal_step(self, op):
        # rule (b) comes before rule (a): a diagonal on local bits is a
        # phase multiply too, not a dense local block
        layout = RankLayout.identity(6, 2)  # local positions 0..3
        steps = plan_gate(layout, op)
        assert [(s.action, s.op) for s in steps] == [("diagonal", op)]
        assert layout.perm == list(range(6))

    def test_dense_local_block_plans_local(self):
        layout = RankLayout.identity(6, 2)
        h = sv.base_matrix(sv.h(0))
        op = sv.fused((2, 0), np.kron(h, h))
        assert [s.action for s in plan_gate(layout, op)] == ["local"]
        assert layout.perm == list(range(6))

    def test_control_eviction_allowed(self):
        # one local bit held by the control: the target must displace it
        layout = RankLayout.identity(2, 1)
        steps = plan_gate(layout, sv.cx(0, 1))
        actions = [s.action for s in steps]
        assert actions == ["relocalize", "local"]


class TestRunDistributed:
    def test_p1_equals_dense(self):
        c = build_random_circuit(7, 150, seed=8)

        def body(ep):
            return dist.gather(dist.run_distributed(c, ep)).amps

        amps = spmd(1, body)
        assert np.array_equal(amps[0], dense_run(c).amps)

    @pytest.mark.parametrize("P", [2, 4, 8])
    @pytest.mark.parametrize("fusion", [False, True])
    def test_oracle_equivalence(self, P, fusion):
        c = build_random_circuit(8, 100, seed=17)
        dense = dense_run(c).amps

        def body(ep):
            return dist.gather(dist.run_distributed(c, ep, fusion=fusion)).amps

        for amps in spmd(P, body):
            assert np.max(np.abs(amps - dense)) <= 1e-12

    def test_ghz_n6_p4(self):
        ops = [sv.h(0)] + [sv.cx(q, q + 1) for q in range(5)]
        c = Circuit(6, ops)

        def body(ep):
            return dist.gather(dist.run_distributed(c, ep)).amps

        amps = spmd(4, body)[0]
        assert amps[0] == pytest.approx(2**-0.5, abs=1e-12)
        assert amps[63] == pytest.approx(2**-0.5, abs=1e-12)
        assert np.count_nonzero(np.abs(amps) > 1e-12) == 2

    def test_needs_more_qubits_than_ranks_bits(self):
        c = Circuit(2, [sv.h(0)])

        def body(ep):
            with pytest.raises(ValueError, match="split"):
                dist.run_distributed(c, ep)

        spmd(4, body)


def _random_phases(width: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 1 << width)))


# (qubits the gate needs, whether it is a dense block, maker); dense blocks
# must fit the local space, diagonal ones need no local bits
_MIXED_MAKERS = [
    (1, False, lambda a, q, u: sv.h(q[0])),
    (1, False, lambda a, q, u: sv.y(q[0])),
    (1, False, lambda a, q, u: sv.rx(a, q[0])),
    (1, False, lambda a, q, u: sv.rz(a, q[0])),
    (1, False, lambda a, q, u: sv.p(a, q[0])),
    (1, False, lambda a, q, u: sv.z(q[0])),
    (2, False, lambda a, q, u: sv.cx(q[0], q[1])),
    (2, False, lambda a, q, u: sv.cz(q[0], q[1])),
    (2, False, lambda a, q, u: sv.cp(a, q[0], q[1])),
    (2, False, lambda a, q, u: sv.rzz(a, q[0], q[1])),
    (2, False, lambda a, q, u: sv.swap(q[0], q[1])),
    (2, True, lambda a, q, u: sv.fused(q[:2], random_unitary(2, u))),
    (3, True, lambda a, q, u: sv.fused(q[:3], random_unitary(3, u))),
    (3, False, lambda a, q, u: sv.fused(q[:3], _random_phases(3, u))),
    (4, False, lambda a, q, u: sv.fused(q[:4], _random_phases(4, u))),
]


@st.composite
def mixed_circuits(draw, k):
    """Circuits of k+1 to 7 qubits mixing diagonal, controlled and dense
    gates on shuffled qubits, runnable over 2^k ranks."""
    n = draw(st.integers(k + 1, 7))
    makers = [
        make for width, dense, make in _MIXED_MAKERS
        if width <= (n - k if dense else n)
    ]
    ops = []
    for _ in range(draw(st.integers(0, 16))):
        make = draw(st.sampled_from(makers))
        qubits = tuple(draw(st.permutations(range(n))))
        angle = draw(st.floats(-math.pi, math.pi))
        ops.append(make(angle, qubits, draw(st.integers(0, 2**32 - 1))))
    return Circuit(n, ops)


class TestDistributedEqualsDense:
    @pytest.mark.parametrize("precision", list(Precision), ids=lambda p: p.name)
    @pytest.mark.parametrize("fusion", [False, True], ids=["unfused", "fused"])
    @pytest.mark.parametrize("P", [1, 2, 4])
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_gathered_state_matches_dense_run(self, P, fusion, precision, data):
        c = data.draw(mixed_circuits(P.bit_length() - 1))
        dense = dense_run(c).amps
        tol = 1e-12 if precision is Precision.DOUBLE else 1e-5

        def body(ep):
            st = dist.run_distributed(c, ep, fusion=fusion, precision=precision)
            return dist.gather(st).amps

        for amps in spmd(P, body):
            assert amps.dtype == precision.dtype
            assert np.max(np.abs(amps - dense), initial=0.0) <= tol
        if P == 1 and not fusion:
            # one rank runs the same kernels on the same ops as dense_run
            assert np.array_equal(amps, dense_run(c, precision=precision).amps)


class TestGather:
    def test_p1_identity(self):
        def body(ep):
            st = partition(5, ep, initial=3)
            return dist.gather(st).amps

        amps = spmd(1, body)[0]
        assert amps[3] == 1.0

    def test_round_trip_no_gates(self):
        def body(ep):
            return dist.gather(partition(6, ep, initial=45)).amps

        for amps in spmd(8, body):
            assert amps[45] == 1.0
            assert np.count_nonzero(amps) == 1

    def test_size_cap(self):
        def body(ep):
            st = partition(8, ep)
            with pytest.raises(ValueError, match="cap"):
                dist.gather(st, qubit_cap=7)

        spmd(2, body)

    def test_matches_oracle_after_random_circuit(self):
        c = build_random_circuit(9, 120, seed=30)
        dense = dense_run(c).amps

        def body(ep):
            return dist.gather(dist.run_distributed(c, ep, fusion=True)).amps

        for amps in spmd(8, body):
            assert np.max(np.abs(amps - dense)) <= 1e-12


class TestSampleDistributed:
    def test_delta_state_any_p(self):
        for P in (1, 2, 4):

            def body(ep):
                st = partition(5, ep, initial=21)
                return dist.sample_distributed(st, 500, seed=3)

            for counts in spmd(P, body):
                assert counts.entries == {"10101": 500}

    def test_bell_binomial_bound_p2(self):
        shots = 100_000
        c = Circuit(2, [sv.h(0), sv.cx(0, 1)])

        def body(ep):
            st = dist.run_distributed(c, ep)
            return dist.sample_distributed(st, shots, seed=11)

        counts = spmd(2, body)[0]
        assert set(counts.entries) <= {"00", "11"}
        sigma = math.sqrt(shots * 0.25)
        for key in ("00", "11"):
            assert abs(counts.entries.get(key, 0) - shots / 2) <= 5 * sigma

    def test_identical_across_ranks(self):
        c = build_random_circuit(6, 60, seed=2)

        def body(ep):
            st = dist.run_distributed(c, ep)
            return dist.sample_distributed(st, 2000, seed=9)

        results = spmd(4, body)
        assert all(r == results[0] for r in results)

    def test_p1_vs_p4_statistical_agreement(self):
        shots = 20_000
        c = build_random_circuit(5, 60, seed=14)
        probs = sv.probabilities(dense_run(c))

        def run_with(P):
            def body(ep):
                st = dist.run_distributed(c, ep)
                return dist.sample_distributed(st, shots, seed=4)

            return spmd(P, body)[0]

        c1, c4 = run_with(1), run_with(4)
        for key, prob in probs.items():
            sigma = math.sqrt(shots * prob * (1 - prob)) or 1.0
            for counts in (c1, c4):
                assert abs(counts.entries.get(key, 0) - shots * prob) <= 5 * sigma

    def test_measured_mapping_through_perm(self):
        # SWAP relabels the layout; sampled bitstrings must still be in
        # program-qubit order
        c = Circuit(4, [sv.x(0), sv.swap(0, 3)], measured_qubits=(0, 1, 2, 3))
        dense_probs = sv.probabilities(dense_run(c))
        assert dense_probs == {"1000": 1.0}

        def body(ep):
            st = dist.run_distributed(c, ep)
            return dist.sample_distributed(st, 100, seed=0)

        counts = spmd(2, body)[0]
        assert counts.entries == {"1000": 100}

    def test_unnormalized_rejected(self):
        def body(ep):
            st = partition(4, ep)
            st.slice.amps[:] = 0
            with pytest.raises(ValueError, match="normalized"):
                dist.sample_distributed(st, 10, seed=0)

        spmd(2, body)


class TestTransportEquivalenceSmall:
    def test_loopback_vs_tcp_small(self, tmp_path):
        # a small cross-transport check; the k=16 acceptance run lives in
        # test_acceptance.py
        import json
        from conftest import launch_tcp_workers

        c = build_qpe(QpeSpec(16, 4321))

        def body(ep):
            st = dist.run_distributed(c, ep, fusion=True)
            full = dist.gather(st)
            counts = dist.sample_distributed(st, 1000, 7, c.measured)
            return full.amps.tobytes(), counts.entries

        loop_state, loop_counts = spmd(4, body)[0]
        outs = [tmp_path / f"r{r}.bin" for r in range(4)]
        launch_tcp_workers("qpe", 4, outs, seed=7)
        for r in range(4):
            assert outs[r].read_bytes() == loop_state
            got = json.loads((tmp_path / f"r{r}.bin.counts").read_text())
            assert got == loop_counts
