import hashlib
import itertools
import math
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import KERNEL_WIDTH, kernel_real, kernel_terms, mixed_circuits, tcp_world
from hypothesis import given, settings, strategies as st

from qsim import circuits, ckernel, dist, fabric, perfmodel, svcore as sv
from qsim.circuits import build_qpe, build_random_circuit, QpeSpec
from qsim.dist import RankLayout, partition, plan_gate
from qsim.fabric import FabricEndpoint, create_world, run_spmd
from qsim.svcore import Circuit, Precision, dense_run

# the traced benchmark's runner, imported as its worker imports it
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402
import workloads  # noqa: E402


def spmd(P, fn, with_log=False):
    """fn's result per rank, and with_log also each rank's traffic log."""
    world = create_world("loopback", P)
    results = run_spmd(world, fn)
    return (results, [ep.traffic for ep in world]) if with_log else results


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

    def test_slice_cap(self, monkeypatch):
        monkeypatch.setattr(sv, "QUBIT_CAP", 10)
        (ep,) = create_world("loopback", 1)
        with pytest.raises(ValueError, match="cap"):
            partition(12, ep)


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

        (_, logs) = spmd(P, body, with_log=True)
        expect = (1 << (n - 3 - 1)) * 16
        for r in range(P):
            assert logs[r].bytes_sent() == expect
        # bit level: position 7 -> global bit 1
        assert logs[0].bit_bytes == {1: expect}

    @pytest.mark.parametrize("local_pos", [3, 15])
    def test_one_message_however_many_pieces(self, local_pos):
        # n=18 at P=4: the half-slice of 2^15 amplitudes is two pieces
        def body(ep):
            st = partition(18, ep)
            dist.relocalize(st, 17, local_pos)

        (_, logs) = spmd(4, body, with_log=True)
        assert (1 << 15) >> fabric.EXCHANGE_PIECE_BITS == 2
        for log in logs:
            assert log.bit_messages == {1: 1}
            assert log.bit_bytes == {1: (1 << 15) * 16}

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


class TestTcpRelocalize:
    def test_every_local_position_matches_loopback(self):
        # the strided piece pack and the write-back at every local
        # position, over real sockets. n=17 at P=2: the half-slice is two
        # pieces, and from local position 14 up one run of moving
        # amplitudes is a piece or more
        n = 17
        rng = np.random.default_rng(23)
        full = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        half = 1 << (n - 1)

        def body(ep):
            st = partition(n, ep)
            st.slice.amps[:] = full[ep.rank * half : (ep.rank + 1) * half]
            for lp in range(n - 1):
                dist.relocalize(st, n - 1, lp)
            return dist.gather(st).amps

        over_loopback = spmd(2, body)
        with tcp_world(2) as world:
            over_tcp = run_spmd(world, body)
        for got, expect in zip(over_tcp, over_loopback):
            assert got.tobytes() == expect.tobytes()
            # relocalizing relabels bits; the program-order state is unmoved
            assert np.array_equal(got, full)


class LenCountingEndpoint(FabricEndpoint):
    """Counts exchange bytes as `len(payload)`, the way a tracing wrapper
    that never looks inside the buffer does, and counts the calls."""

    def __init__(self, inner: FabricEndpoint):
        super().__init__(inner.rank, inner.world_size, inner.timeout)
        self.inner = inner
        self.counted = 0
        self.calls = 0

    def exchange(self, peer, payload):
        got = self.inner.exchange(peer, payload)
        self.counted += len(payload)
        self.calls += 1
        return got

    def _transfer(self, peer, tag, payload):
        return self.inner._transfer(peer, tag, payload)


class TestExchangePayloadLength:
    @pytest.mark.parametrize("P", [2, 4])
    def test_len_of_every_payload_is_its_byte_count(self, P):
        c = build_random_circuit(8, 120, seed=41)
        topo = perfmodel.nvl72_topology().for_ranks(P)
        prof = perfmodel.schedule_traffic(c, c.num_qubits, topo, True)
        world = [LenCountingEndpoint(ep) for ep in create_world("loopback", P)]
        run_spmd(world, lambda ep: dist.run_distributed(c, ep, True))
        assert prof.total_exchange_bytes > 0
        for ep in world:
            assert ep.counted == prof.total_exchange_bytes

    @pytest.mark.parametrize("P", [2, 4])
    def test_pieces_sum_to_the_model_bytes(self, P):
        # n=18: each relocalization's half-slice is 8 / P pieces, so the
        # exchange calls outnumber the logged messages
        c = build_random_circuit(18, 30, seed=41)
        topo = perfmodel.nvl72_topology().for_ranks(P)
        prof = perfmodel.schedule_traffic(c, c.num_qubits, topo, fusion=True)
        pieces = (1 << (18 - P.bit_length())) >> fabric.EXCHANGE_PIECE_BITS
        world = [LenCountingEndpoint(ep) for ep in create_world("loopback", P)]
        run_spmd(world, lambda ep: dist.run_distributed(c, ep, True))
        assert prof.swap_count > 0 and pieces > 1
        for ep in world:
            assert ep.counted == prof.total_exchange_bytes
            assert ep.calls == pieces * prof.swap_count
            assert ep.traffic.bit_messages == prof.swap_count_per_level


class ExchangeOnlyEndpoint(FabricEndpoint):
    """Wraps an endpoint and overrides only `exchange`, counting its calls
    and bytes, as perfbench's `TracedEndpoint` does, so its swaps stream
    through the base class's piece loop, one exchange per piece."""

    def __init__(self, inner: FabricEndpoint):
        super().__init__(inner.rank, inner.world_size, inner.timeout)
        self.inner = inner
        self.counted = 0
        self.calls = 0

    def exchange(self, peer, payload):
        got = self.inner.exchange(peer, payload)
        self.counted += len(payload)
        self.calls += 1
        return got


class TestStreamedSwapEqualsDirect:
    @pytest.mark.parametrize("P", [2, 4])
    def test_every_local_position(self, P):
        # n = 16 + k: each half-slice is 2^15 amplitudes, two pieces. The
        # global position cycles over every global bit
        k = P.bit_length() - 1
        n = 16 + k

        def body(ep):
            st = partition(n, ep)
            _spread_slice(st, 5)
            digests = []
            for lp in range(n - k):
                dist.relocalize(st, n - 1 - lp % k, lp)
                h = hashlib.sha256(st.slice.amps.tobytes())
                h.update(repr(st.layout.perm).encode())
                digests.append(h.hexdigest())
            return digests

        direct = spmd(P, body)
        world = [ExchangeOnlyEndpoint(ep) for ep in create_world("loopback", P)]
        assert run_spmd(world, body) == direct
        half = 1 << (n - k - 1)
        for ep in world:
            assert ep.calls == (n - k) * (half >> fabric.EXCHANGE_PIECE_BITS)
            assert ep.counted == ep.traffic.bytes_sent() == (n - k) * half * 16


class TestOneSchedulePerWorld:
    """A loopback world plans each `run_distributed` call once for all of
    its ranks; ranks of other endpoints plan for themselves."""

    @pytest.fixture
    def schedules(self, monkeypatch):
        calls = []
        schedule = dist.schedule

        def counting(*args, **kwargs):
            calls.append(threading.current_thread().name)
            return schedule(*args, **kwargs)

        monkeypatch.setattr(dist, "schedule", counting)
        return calls

    @staticmethod
    def body(c):
        return lambda ep: dist.gather(dist.run_distributed(c, ep, fusion=True)).amps

    @pytest.mark.parametrize("P", [2, 4])
    def test_one_schedule_per_call(self, P, schedules):
        c = build_random_circuit(8, 100, seed=17)
        dense = dense_run(c).amps
        world = create_world("loopback", P)
        for call in (1, 2):
            for amps in run_spmd(world, self.body(c)):
                assert np.max(np.abs(amps - dense)) <= 1e-12
            assert len(schedules) == call
        # every rank took the plan, so the world holds none
        assert world[0]._shared.by_call == {}

    @pytest.mark.parametrize("P", [2, 4])
    def test_a_wrapped_endpoint_plans_per_rank(self, P, schedules):
        c = build_random_circuit(8, 100, seed=17)
        run_spmd([LenCountingEndpoint(ep) for ep in create_world("loopback", P)], self.body(c))
        assert len(schedules) == P

    def test_a_mutated_circuit_gets_a_fresh_schedule(self, schedules):
        c = build_random_circuit(8, 60, seed=3)
        world = create_world("loopback", 2)
        first = run_spmd(world, self.body(c))
        # qubit 7 is the global one: the new H relocalizes it
        c.ops[:0] = [sv.h(7), sv.cx(7, 0)]
        second = run_spmd(world, self.body(c))
        assert len(schedules) == 2
        assert not np.allclose(first[0], second[0])
        for amps in second:
            assert np.max(np.abs(amps - dense_run(c).amps)) <= 1e-12


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

        (results, logs) = spmd(2, body, with_log=True)
        assert [log.bytes_sent() for log in logs] == [0, 0]
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
            baseline = ep.traffic.bytes_sent()
            for op in ops:
                dist.apply(st, op)
            added = ep.traffic.bytes_sent() - baseline
            return dist.gather(st).amps, baseline, added

        (results, logs) = spmd(4, body, with_log=True)
        # the H gates may move data; the diagonal block must add zero bytes
        for amps, _, added in results:
            assert added == 0
            assert np.max(np.abs(amps - dense)) <= 1e-12
        assert [log.bytes_sent() for log in logs] == [baseline for _, baseline, _ in results]

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

        (results, logs) = spmd(4, body, with_log=True)
        dense = dense_run(Circuit(10, [sv.h(9)])).amps
        assert np.max(np.abs(results[0] - dense)) <= 1e-12
        for r in range(4):
            assert logs[r].bit_messages == {1: 1}
            assert logs[r].bytes_sent() == (1 << (10 - 2 - 1)) * 16

    def test_swap_is_pure_relabel(self):
        def body(ep):
            st = partition(6, ep)
            dist.apply(st, sv.h(0))
            dist.apply(st, sv.swap(0, 5))  # local <-> global swap: relabel only
            return dist.gather(st).amps

        (results, logs) = spmd(4, body, with_log=True)
        dense = dense_run(Circuit(6, [sv.h(0), sv.swap(0, 5)])).amps
        assert [log.bytes_sent() for log in logs] == [0] * 4
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


# P=2 circuits where a lookahead that counts controls, diagonal gates or
# SWAPs as uses evicts the qubit the next dense gate needs, and so plans 2
# relocalizations. The second also needs the lookahead to follow qubit 0's
# data through the SWAP to h(3).
_EVICTION_CASES = {
    "control-and-diagonal": Circuit(3, [sv.h(2), sv.cx(0, 2), sv.rz(0.3, 0), sv.h(1)]),
    "across-swap": Circuit(4, [sv.h(3), sv.rz(0.2, 2), sv.swap(0, 3), sv.h(1), sv.h(3)]),
}


class TestEvictionLookahead:
    @pytest.mark.parametrize("name", _EVICTION_CASES)
    def test_keeps_the_qubit_a_dense_target_needs(self, name):
        c = _EVICTION_CASES[name]
        layout = RankLayout.identity(c.num_qubits, 1)
        steps = [
            s for i, op in enumerate(c.ops) for s in plan_gate(layout, op, c.ops[i + 1:])
        ]
        assert sum(s.action == "relocalize" for s in steps) == 1
        check_distributed_equals_dense(2, False, c)


class TestFusedSwapsRelabel:
    @pytest.mark.parametrize("k", [0, 1, 2], ids=["P1", "P2", "P4"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_one_relabel_per_input_swap(self, k, data):
        # rule (d) holds with fusion on: fuse keeps every SWAP out of its
        # blocks, so plan_gate relabels each one instead of moving data
        c = data.draw(mixed_circuits(k))
        n = c.num_qubits
        layout = RankLayout.identity(n, k)
        ops = dist.scheduled_ops(c, n, k, fusion=True)
        steps = [s for i, op in enumerate(ops) for s in plan_gate(layout, op, ops[i + 1:])]
        relabels = [s.op for s in steps if s.action == "relabel"]
        assert relabels == [op for op in c.ops if op.kind == "SWAP"]


# (local, diagonal, relocalize) plan steps of the fused stream at n=20. A
# local or diagonal step is one sweep over the slice, the START among the
# local ones; the counts before the fusion frontier were (26, 10, 0),
# (42, 20, 6) and (25, 34, 3), and before the START (16, 6, 0), (42, 10, 6)
# and (26, 22, 2)
PLAN_CENSUS = {
    "random": (lambda: build_random_circuit(20, 100, 61), 0, (14, 7, 0)),
    "tfim": (
        lambda: circuits.build_tfim(circuits.tfim_from_lattice(
            circuits.LatticeSpec(1, 20, "square", periodic=True), steps=5)),
        1,
        (36, 10, 5),
    ),
    "qpe": (lambda: build_qpe(QpeSpec(19, 299593)), 1, (20, 22, 0)),
}


@pytest.mark.parametrize("name", PLAN_CENSUS)
def test_fused_plan_census_pinned(name):
    build, k, expect = PLAN_CENSUS[name]
    c = build()
    actions = [s.action for s in dist.schedule(c, c.num_qubits, k, fusion=True)]
    got = tuple(actions.count(a) for a in ("local", "diagonal", "relocalize"))
    assert got == expect


def test_random_workload_block_steps_pinned():
    # the local steps of the first four seed-1 random-p1 circuits at n=20
    # on one rank, and those that the compiled kernel runs through a block
    # body: the width-3 blocks whose rows and columns fall into blocks of
    # 2 or 4, with no target or control at bit 0 or 1
    if ckernel.load() is None:
        pytest.skip("the compiled kernel could not be built")
    got = []
    for task in workloads.build("random-p1", 1, 4):
        c = task.circuit
        layout = RankLayout.identity(c.num_qubits, 0)
        local = blocks = 0
        for op in dist.scheduled_ops(c, c.num_qubits, 0, fusion=True):
            # the START is no kernel step
            if [step.action for step in plan_gate(layout, op)] != ["local"] or op.kind == "START":
                continue
            w = len(op.targets)
            terms = kernel_terms(sv.base_matrix(op), [layout.perm[q] for q in op.targets],
                                 sum(1 << layout.perm[q] for q in op.controls))
            local, blocks = local + 1, blocks + (terms < 1 << w)
        got.append((local, blocks))
    # before the START took the leading gates: (34, 19), (39, 21), (39, 24),
    # (37, 21)
    assert got == [(33, 18), (35, 23), (37, 24), (36, 19)]


def test_tfim_workload_real_steps_pinned():
    # the local steps of the first four seed-1 tfim-tcp2 circuits at n=20
    # on two ranks, each on the layout that the schedule has given it by
    # then, and those that the compiled kernel runs through its real body:
    # fused products of RX gates, real up to powers of i. A change to
    # fusion or to the schedule that loses that structure fails here
    if ckernel.load() is None:
        pytest.skip("the compiled kernel could not be built")
    got = []
    for task in workloads.build("tfim-tcp2", 1, 4):
        c = task.circuit
        layout = RankLayout.identity(c.num_qubits, 1)
        local = real = 0
        for step in dist.schedule(c, c.num_qubits, 1, fusion=True):
            if step.action == "relabel":
                a, b = step.op.targets
                layout.swap_positions(layout.position_of(a), layout.position_of(b))
            elif step.action == "relocalize":
                layout.swap_positions(step.global_pos, step.local_pos)
            elif step.action == "local" and step.op.kind != "START":
                op = step.op
                cmask = sum(1 << layout.perm[q] for q in op.controls if layout.is_local(q))
                local += 1
                real += kernel_real(sv.base_matrix(op), [layout.perm[q] for q in op.targets],
                                    cmask)
        got.append((local, real))
    # (77, 72) before the START took the leading gates
    assert got == [(70, 66)] * 4


@pytest.mark.parametrize("fusion", [True, False], ids=["fused", "unfused"])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("name", PLAN_CENSUS)
def test_dense_steps_fit_the_compiled_kernel(name, k, fusion):
    # the compiled kernel has bodies for steps of up to KERNEL_WIDTH
    # targets, the engine's fusion width, and declines a wider one, which
    # then runs on the numpy kernel: a change that emits wider dense steps,
    # or fuses wider, fails here, and must give the kernel their bodies
    # back on purpose
    c = PLAN_CENSUS[name][0]()
    assert c.num_qubits == 20
    ops = dist.scheduled_ops(c, 20, k, fusion)
    # a START is no kernel step: it writes the product state it holds
    widths = [len(op.targets) for op in ops
              if not op.is_diagonal() and op.kind not in ("SWAP", "START")]
    assert widths and max(widths) <= KERNEL_WIDTH


class TestRunDistributed:
    def test_p1_equals_dense(self):
        c = build_random_circuit(7, 150, seed=8)

        def body(ep):
            return dist.gather(dist.run_distributed(c, ep)).amps

        amps = spmd(1, body)
        # one rank runs the same kernels on the same ops, the START among them
        stream = Circuit(7, dist.scheduled_ops(c, 7, 0, False))
        assert np.array_equal(amps[0], dense_run(stream).amps)
        assert np.max(np.abs(amps[0] - dense_run(c).amps)) <= 1e-12

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

    @pytest.mark.parametrize("fusion", [False, True], ids=["unfused", "fused"])
    def test_needs_more_qubits_than_ranks_bits(self, fusion):
        c = Circuit(2, [sv.h(0)])

        def body(ep):
            with pytest.raises(ValueError, match="2 qubits cannot be split over 4 ranks"):
                dist.run_distributed(c, ep, fusion=fusion)

        spmd(4, body)


class TestStart:
    """Each rank writes its slice of the leading gates' product state: a
    global qubit reads its bit of the rank id, and nothing relocalizes."""

    @pytest.mark.parametrize(
        "lead",
        [[sv.x(3), sv.x(4)], [sv.h(4), sv.rx(0.7, 3)], [sv.x(4), sv.rx(-1.1, 3), sv.rz(0.4, 3)]],
        ids=["ones", "superposed", "mixed"],
    )
    def test_global_qubits_start_on_each_rank(self, lead):
        # qubits 3 and 4 sit on the two global bits of P=4
        c = Circuit(5, lead + [sv.h(0), sv.cx(0, 1), sv.rz(0.3, 2), sv.cz(1, 3)])
        ops = dist.scheduled_ops(c, 5, 2, False)
        assert ops[0].kind == "START" and ops[0].targets == (0, 2, 3, 4)
        assert [s.action for s in dist.schedule(c, 5, 2, False)] == ["local", "local", "diagonal"]
        dense = dense_run(c)
        probs = sv.probabilities(dense)
        shots = 20000

        def body(ep):
            st = dist.run_distributed(c, ep)
            counts = dist.sample_distributed(st, shots, 5)
            return dist.gather(st).amps, counts, ep.traffic.bytes_sent()

        for amps, counts, sent in spmd(4, body):
            assert sent == 0
            assert np.max(np.abs(amps - dense.amps)) <= 1e-12
            assert set(counts.entries) <= set(probs)
            for key, p in probs.items():
                assert abs(counts.entries.get(key, 0) / shots - p) < 0.02

    def test_a_rank_whose_scalar_is_zero_draws_no_shot(self):
        # the X puts qubit 4, global, in |1>, so rank 0 holds only zeros; at
        # P=4 qubit 3 is global too and stays in |0>, so only rank 2 is live
        c = Circuit(5, [sv.x(4), sv.h(0), sv.cx(0, 1)])

        def body(ep):
            st = dist.run_distributed(c, ep)
            return st.slice.amps.copy(), dist.sample_distributed(st, 500, 3)

        for P, live in ((2, 1), (4, 2)):
            for rank, (amps, counts) in enumerate(spmd(P, body)):
                assert bool(np.count_nonzero(amps)) == (rank == live)
                assert counts.entries.keys() == {"10000", "10011"}
                assert sum(counts.entries.values()) == 500

    @pytest.mark.parametrize("fusion", [False, True], ids=["unfused", "fused"])
    def test_no_leading_one_qubit_gate_plans_todays_steps(self, fusion):
        # every qubit meets a two-qubit gate first, so there is no START
        c = Circuit(4, [sv.cx(0, 3), sv.rzz(0.5, 1, 2), sv.h(3), sv.h(0), sv.cx(3, 1),
                        sv.swap(0, 2), sv.rx(0.2, 2)])
        start, rest = sv.split_start(c)
        assert start is None and rest.ops == c.ops
        ops = sv.fuse(c, 3).ops if fusion else c.ops
        layout = RankLayout.identity(4, 1)
        expect = [s for i, op in enumerate(ops) for s in plan_gate(layout, op, ops[i + 1:])]
        assert dist.scheduled_ops(c, 4, 1, fusion) == ops
        assert dist.schedule(c, 4, 1, fusion) == expect


class TestZeroSlice:
    """A rank whose slice is all zeros skips its local and diagonal steps
    until its first relocalization: zeros stay zeros, and the traffic and
    the model's bytes do not change."""

    @staticmethod
    def kernel_calls_by_rank(monkeypatch):
        """The rank of every `ckernel.apply` call, in order, from a
        thread-local that each rank's body sets (None outside a rank)."""
        calls, local = [], threading.local()
        real = ckernel.apply

        def counted(*args, **kwargs):
            calls.append(getattr(local, "rank", None))
            return real(*args, **kwargs)

        monkeypatch.setattr(ckernel, "apply", counted)
        return calls, local

    def test_partition_marks_every_rank_but_the_initial_one(self):
        def body(ep):
            return partition(4, ep, initial=13).zero

        assert spmd(4, body) == [True, True, True, False]

    @pytest.mark.parametrize("fusion", [False, True], ids=["unfused", "fused"])
    def test_a_zero_rank_makes_no_kernel_call(self, monkeypatch, fusion):
        # the X leaves global qubit 6 in |1> for the whole run, as QPE
        # leaves its target qubit, so rank 0's slice stays all zeros
        c = Circuit(7, [sv.x(6), sv.h(0), sv.h(1)] + [sv.cp(0.3 * j, j, 6) for j in range(6)]
                    + [sv.cx(0, 2), sv.rzz(0.4, 1, 3), sv.h(2), sv.cz(2, 6)])
        dense = dense_run(c).amps
        calls, local = self.kernel_calls_by_rank(monkeypatch)

        def body(ep):
            local.rank = ep.rank
            st = dist.run_distributed(c, ep, fusion=fusion)
            return st.zero, st.slice.amps.copy(), ep.traffic.bytes_sent()

        results = spmd(2, body)
        assert [zero for zero, _, _ in results] == [True, False]
        assert calls and set(calls) == {1}
        assert not np.any(results[0][1])
        # rank 1's slice is the upper half of the state; nothing moved
        assert np.max(np.abs(results[1][1] - dense[64:])) <= 1e-12
        assert [sent for _, _, sent in results] == [0, 0]

    @pytest.mark.parametrize("fusion", [False, True], ids=["unfused", "fused"])
    def test_a_zero_rank_computes_again_after_receiving_data(self, monkeypatch, fusion):
        # rank 1 holds zeros until the CX on global qubit 4 relocalizes it
        c = Circuit(5, [sv.h(0), sv.rz(0.2, 1), sv.cx(0, 4), sv.h(4), sv.rzz(0.7, 4, 1),
                        sv.cp(0.5, 4, 2), sv.rx(0.3, 3)])
        dense = dense_run(c).amps
        calls, local = self.kernel_calls_by_rank(monkeypatch)

        def body(ep):
            local.rank = ep.rank
            st = partition(5, ep)
            zero = [st.zero]
            for step, before, after in dist.sweeps(dist.schedule(c, 5, 1, fusion)):
                dist._execute(st, step, before, after)
                zero.append(st.zero)
            return zero, dist.gather(st).amps, ep.traffic.bytes_sent()

        (zero0, amps0, sent0), (zero1, amps1, sent1) = spmd(2, body)
        assert not any(zero0)
        assert zero1[0] and zero1[1] and not zero1[-1]
        assert 1 in calls
        assert sent0 == sent1 == perfmodel.schedule_traffic(
            c, 5, perfmodel.nvl72_topology().for_ranks(2), fusion=fusion).total_exchange_bytes
        for amps in (amps0, amps1):
            assert np.max(np.abs(amps - dense)) <= 1e-12


TRACED_CIRCUITS = {
    "random": lambda: build_random_circuit(6, 60, 5),
    "tfim": lambda: circuits.build_tfim(circuits.tfim_from_lattice(
        circuits.LatticeSpec(1, 6, "square", periodic=True), steps=3)),
    "qpe": lambda: build_qpe(QpeSpec(5, 11)),
}


class _PlanRecorder:
    """`dist` as `tracing` sees it, whose `plan_gate` also records the
    steps it plans for the calling rank thread."""

    def __init__(self):
        self.local = threading.local()

    def __getattr__(self, name):
        return getattr(dist, name)

    def plan_gate(self, layout, op, future_ops=()):
        steps = dist.plan_gate(layout, op, future_ops)
        self.local.planned += steps
        return steps


_RECORDER = _PlanRecorder()


@pytest.fixture(scope="module")
def recording_plans():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tracing, "dist", _RECORDER)
        yield


def traced_calls(c, ep):
    """The traced benchmark's own run, `tracing.traced_run`, on `ep`
    wrapped as its worker wraps it: relocalizations are taken out of
    `dist.apply` by planning each op on a layout copy, and no diagonal step
    is folded. Returns the state, every step the run planned, in order, and
    the traced endpoint."""
    tep = tracing.TracedEndpoint(ep, tracing.Tracer(ep.rank))
    _RECORDER.local.planned = []
    st, _, _ = tracing.traced_run(c, tep, 0)
    return st, _RECORDER.local.planned, tep


@pytest.mark.usefixtures("recording_plans")
@pytest.mark.parametrize("P", [2, 4])
@pytest.mark.parametrize("name", TRACED_CIRCUITS)
def test_traced_calls_equal_run_distributed_and_model(name, P):
    # run_distributed folds diagonal steps into their neighbours, the
    # traced run applies op by op: the same bytes either way
    c = TRACED_CIRCUITS[name]()
    topo = perfmodel.nvl72_topology().for_ranks(P)
    prof = perfmodel.schedule_traffic(c, c.num_qubits, topo, fusion=True)
    if (name, P) == ("qpe", 2):
        # the START writes the X on the one global qubit: no relocalization
        assert prof.swap_count == 0 and prof.total_exchange_bytes == 0
    else:
        assert prof.swap_count > 0
    traced = spmd(P, lambda ep: traced_calls(c, ep))
    plain = spmd(P, lambda ep: dist.run_distributed(c, ep, fusion=True))
    for rank in range(P):
        st, _, tep = traced[rank]
        assert np.array_equal(st.slice.amps, plain[rank].slice.amps)
        assert st.layout.perm == plain[rank].layout.perm
        assert tep.traffic.bytes_sent() == prof.total_exchange_bytes
        assert tep.exchange_bytes == prof.total_exchange_bytes


def step_fields(steps):
    return [(s.action, s.global_pos, s.local_pos) for s in steps]


@pytest.mark.usefixtures("recording_plans")
@pytest.mark.parametrize("P", [2, 4])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_schedule_equals_traced_per_op_plans(P, data):
    # the traced run plans each op on a copy of the state's layout as it
    # runs; `dist.schedule` plans the whole stream before anything runs
    k = P.bit_length() - 1
    c = data.draw(mixed_circuits(k))
    expect = step_fields(dist.schedule(c, c.num_qubits, k, True))
    for _, planned, _ in spmd(P, lambda ep: traced_calls(c, ep)):
        assert step_fields(planned) == expect


def fewest_relocalizations(ops, n, k) -> int:
    """The fewest relocalizations that any choice of evictions gives `ops`
    from the identity layout: an exhaustive DP over the set of qubits on
    global bits. A SWAP renames its two qubits in the set, a diagonal op
    and a START cost nothing, and any other op pays one per global target,
    each evicting any local qubit that is not one of its targets."""
    cost = {frozenset(range(n - k, n)): 0}
    for op in ops:
        after: dict[frozenset, int] = {}
        for glob, c in cost.items():
            if op.kind == "SWAP":
                a, b = op.targets
                moves = [frozenset({a: b, b: a}.get(q, q) for q in glob)]
            elif op.is_diagonal() or op.kind == "START":
                moves = [glob]
            else:
                incoming = glob & set(op.targets)
                free = set(range(n)) - glob - set(op.targets)
                c += len(incoming)
                moves = [(glob - incoming) | set(out)
                         for out in itertools.combinations(sorted(free), len(incoming))]
            for g in moves:
                after[g] = min(after.get(g, c), c)
        cost = after
    return min(cost.values())


@pytest.mark.parametrize("fusion", [False, True], ids=["unfused", "fused"])
@pytest.mark.parametrize("P", [2, 4, 8])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_schedule_relocalizes_as_few_times_as_any_eviction_order(P, fusion, data):
    # Belady lookahead is optimal for the op stream it is given
    k = P.bit_length() - 1
    c = data.draw(mixed_circuits(k))
    n = c.num_qubits
    steps = dist.schedule(c, n, k, fusion)
    ops = dist.scheduled_ops(c, n, k, fusion)
    got = sum(s.action == "relocalize" for s in steps)
    assert got == fewest_relocalizations(ops, n, k)


def check_distributed_equals_dense(P, fusion, c):
    dense = dense_run(c).amps

    def body(ep):
        # with the one `precision` there is, as the benchmark's worker passes it
        st = dist.run_distributed(c, ep, fusion=fusion, precision=Precision.DOUBLE)
        return dist.gather(st).amps

    for amps in spmd(P, body):
        assert amps.dtype == np.complex128
        assert np.max(np.abs(amps - dense), initial=0.0) <= 1e-12
    if P == 1 and not fusion:
        # one rank runs the same kernels on the same ops as dense_run of
        # its scheduled stream, the START among them
        n = c.num_qubits
        assert np.array_equal(amps, dense_run(Circuit(n, dist.scheduled_ops(c, n, 0, False))).amps)


class TestDistributedEqualsDense:
    @pytest.mark.parametrize("fusion", [False, True], ids=["unfused", "fused"])
    @pytest.mark.parametrize("P", [1, 2, 4, 8])
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_gathered_state_matches_dense_run(self, P, fusion, data):
        c = data.draw(mixed_circuits(P.bit_length() - 1))
        check_distributed_equals_dense(P, fusion, c)


@pytest.mark.usefixtures("numpy_kernel")
class TestDistributedEqualsDenseNumpy:
    """The same property on the numpy kernel."""

    @pytest.mark.parametrize("fusion", [False, True], ids=["unfused", "fused"])
    @pytest.mark.parametrize("P", [1, 2, 4, 8])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_gathered_state_matches_dense_run(self, P, fusion, data):
        c = data.draw(mixed_circuits(P.bit_length() - 1))
        check_distributed_equals_dense(P, fusion, c)


@pytest.mark.usefixtures("small_dense_blocks")
class TestDistributedEqualsDenseSmallBlocks:
    """The same property on the numpy kernel with its smallest blocks."""

    @pytest.mark.parametrize("fusion", [False, True], ids=["unfused", "fused"])
    @pytest.mark.parametrize("P", [1, 2, 4, 8])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_gathered_state_matches_dense_run(self, P, fusion, data):
        c = data.draw(mixed_circuits(P.bit_length() - 1))
        check_distributed_equals_dense(P, fusion, c)


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

    def test_size_cap(self, monkeypatch):
        # each rank's 2^7 slice is within the cap; the gathered 2^8 is not
        monkeypatch.setattr(sv, "QUBIT_CAP", 7)

        def body(ep):
            st = partition(8, ep)
            with pytest.raises(ValueError, match="cap"):
                dist.gather(st)

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

    @pytest.mark.parametrize("P", [1, 2])
    def test_seed_taken_modulo_2_to_64(self, P):
        c = build_random_circuit(5, 40, seed=6)

        def counts(seed):
            def body(ep):
                return dist.sample_distributed(dist.run_distributed(c, ep), 3000, seed)

            return spmd(P, body)[0].entries

        assert counts(2**64 + 5) == counts(5)
        assert counts(-3) == counts(2**64 - 3)
        assert sum(counts(2**63).values()) == 3000

    @pytest.mark.parametrize("P", [1, 2])
    def test_empty_register_keys_its_outcome_empty(self, P):
        def body(ep):
            return dist.sample_distributed(partition(3, ep, initial=5), 10, seed=0, measured=())

        for counts in spmd(P, body):
            assert counts.entries == {"": 10}

    def test_unnormalized_rejected(self):
        def body(ep):
            st = partition(4, ep)
            st.slice.amps[:] = 0
            with pytest.raises(ValueError, match="normalized"):
                dist.sample_distributed(st, 10, seed=0)

        spmd(2, body)


    @pytest.mark.parametrize(
        "measured, qubit", [((0, 7), 7), ((1, 1), 1), ((-1,), -1)]
    )
    def test_bad_measured_qubit_named(self, measured, qubit):
        def body(ep):
            st = partition(3, ep, initial=5)
            with pytest.raises(ValueError, match=f"measured qubit {qubit} "):
                dist.sample_distributed(st, 10, 1, measured=measured)

        spmd(1, body)


def _spread_slice(st: dist.DistState, seed: int) -> None:
    """Fill the rank's slice with random amplitudes, the state normalized."""
    rng = np.random.default_rng(seed + st.ep.rank)
    local = rng.normal(size=(2, st.slice.amps.size)).view(np.complex128).ravel()
    st.slice.amps[:] = local / (np.linalg.norm(local) * math.sqrt(st.ep.world_size))


class TestSampleMemory:
    """Sampling holds no slice-sized temporary: the traced peak of a draw
    stays under 1/8 of the slices' bytes. The P=2 ranks share this process,
    so the bound covers both slices. The register is one local and one
    global qubit: the counts returned are no temporary, and a dict of 1000
    distinct 18-bit keys alone holds about 100 KiB per rank; the draw of
    the spread state still visits almost every block."""

    @pytest.mark.parametrize("spread", [False, True], ids=["delta", "spread"])
    @pytest.mark.parametrize("P", [1, 2])
    def test_peak_under_an_eighth_of_the_slice(self, P, spread):
        n = 18

        def body(ep):
            st = partition(n, ep, initial=(1 << n) - 77)
            if spread:
                _spread_slice(st, 5)
            dist.sample_distributed(st, 10, 0)  # first-call set-up is not traced
            ep.barrier()
            if ep.rank == 0:
                tracemalloc.start()
            ep.barrier()
            try:
                counts = dist.sample_distributed(st, 1000, 3, measured=(0, n - 1))
                ep.barrier()
                peak = tracemalloc.get_traced_memory()[1] if ep.rank == 0 else 0
            finally:
                if ep.rank == 0:
                    tracemalloc.stop()
            assert sum(counts.entries.values()) == 1000
            return peak, st.slice.amps.nbytes

        peak, slice_bytes = spmd(P, body)[0]
        assert peak < P * slice_bytes / 8, (peak, slice_bytes)


class TestRelocalizeMemory:
    """A relocalization stages pieces, not its half-slice: the traced peak
    of one relocalize stays at or under 4 pieces per rank (1 MiB at
    complex128) at every local position, including those where one run of
    moving amplitudes is longer than a piece. Packing the whole half at
    once held half a slice per rank (4 MiB at n=20, P=2). The P ranks
    share this process, so the bound covers all of them."""

    @pytest.mark.parametrize("P", [2, 4])
    def test_peak_at_most_four_pieces_per_rank(self, P):
        n = 20

        def body(ep):
            st = partition(n, ep)
            _spread_slice(st, 9)
            dist.relocalize(st, n - 1, 0)  # first-call set-up is not traced
            peaks = []
            ep.barrier()
            if ep.rank == 0:
                tracemalloc.start()
            try:
                for lp in range(st.layout.local_bits):
                    ep.barrier()
                    if ep.rank == 0:
                        tracemalloc.reset_peak()
                    ep.barrier()
                    dist.relocalize(st, n - 1, lp)
                    ep.barrier()
                    if ep.rank == 0:
                        peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                if ep.rank == 0:
                    tracemalloc.stop()
            return peaks, st.slice.amps.itemsize

        peaks, itemsize = spmd(P, body)[0]
        bound = P * 4 * (itemsize << fabric.EXCHANGE_PIECE_BITS)
        assert len(peaks) == n - (P.bit_length() - 1)
        for lp, peak in enumerate(peaks):
            assert peak <= bound, (lp, peak, bound)


@pytest.mark.usefixtures("small_sample_blocks")
class TestSamplingAcrossBlockEdges:
    """The sampler with 2-amplitude blocks, so that every state here spans
    many blocks and several batches of them."""

    @pytest.mark.parametrize("P", [1, 2, 4])
    def test_spread_binomial_bounds(self, P):
        shots = 20_000
        c = build_random_circuit(8, 80, seed=41)
        probs = sv.probabilities(dense_run(c))

        def body(ep):
            return dist.sample_distributed(dist.run_distributed(c, ep), shots, seed=8)

        counts = spmd(P, body)[0].entries
        assert sum(counts.values()) == shots
        assert set(counts) <= set(probs)
        for key, prob in probs.items():
            sigma = math.sqrt(shots * prob * (1 - prob)) or 1.0
            assert abs(counts.get(key, 0) - shots * prob) <= 5 * sigma, key

    @pytest.mark.parametrize("P", [1, 2, 4])
    def test_delta_at_every_basis_index(self, P):
        n = 6

        def body(ep):
            return [
                dist.sample_distributed(partition(n, ep, initial=i), 100, seed=i).entries
                for i in range(1 << n)
            ]

        for got in spmd(P, body):
            assert got == [{format(i, f"0{n}b"): 100} for i in range(1 << n)]

    def test_identical_across_ranks(self):
        c = build_random_circuit(7, 60, seed=12)

        def body(ep):
            return dist.sample_distributed(dist.run_distributed(c, ep), 3000, seed=21)

        results = spmd(4, body)
        assert all(r == results[0] for r in results)

    def test_loopback_equals_tcp(self):
        c = build_qpe(QpeSpec(8, 77))

        def body(ep):
            st = dist.run_distributed(c, ep, fusion=True)
            counts = dist.sample_distributed(st, 1000, 7, c.measured)
            return dist.gather(st).amps.tobytes(), counts.entries

        loop = spmd(4, body)
        with tcp_world(4) as world:
            tcp = run_spmd(world, body)
        assert tcp == loop


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
