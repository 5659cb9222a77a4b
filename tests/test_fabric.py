import json
import socket
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest

from conftest import free_port, launch_tcp_workers, tcp_world
from qsim import dist, fabric
from qsim.fabric import (
    FabricError,
    FabricTimeoutError,
    FramingError,
    TcpEndpoint,
    TrafficLog,
    create_world,
    run_spmd,
)


class TestWorldConstruction:
    def test_loopback_ranks(self):
        world = create_world("loopback", 4)
        assert [ep.rank for ep in world] == [0, 1, 2, 3]
        assert all(ep.world_size == 4 for ep in world)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            create_world("loopback", 3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fabric"):
            create_world("carrier-pigeon", 2)

    def test_tcp_needs_rank_and_rendezvous(self):
        with pytest.raises(ValueError, match="rendezvous"):
            create_world("tcp", 2)

    @pytest.mark.parametrize("world_size, rank", [(2, 5), (2, -1), (2, 2), (1, 1)])
    def test_tcp_rank_out_of_range_rejected_before_any_socket(self, world_size, rank):
        # nothing listens at the address, so reaching the rendezvous would
        # wait out the timeout
        with pytest.raises(ValueError, match=f"rank {rank} out of range"):
            create_world("tcp", world_size, rendezvous=f"127.0.0.1:{free_port()}",
                         rank=rank, timeout=30.0)


class TestExchange:
    def test_pairwise_swap(self):
        world = create_world("loopback", 2)

        def body(ep):
            payload = bytes([1, 2, 3, 4]) if ep.rank == 0 else bytes([5, 6, 7, 8])
            return ep.exchange(1 - ep.rank, payload)

        got = run_spmd(world, body)
        assert got[0] == bytes([5, 6, 7, 8])
        assert got[1] == bytes([1, 2, 3, 4])

    def test_self_exchange_rejected(self):
        world = create_world("loopback", 2)
        with pytest.raises(FabricError, match="self"):
            run_spmd(world, lambda ep: ep.exchange(ep.rank, b"x"))

    def test_xor_partnering(self):
        # 4 ranks partnered by flipping bit 1: 0<->2, 1<->3
        world = create_world("loopback", 4)

        def body(ep):
            return ep.exchange(ep.rank ^ 2, bytes([ep.rank]) * 4)

        got = run_spmd(world, body)
        assert [g[0] for g in got] == [2, 3, 0, 1]

    def test_length_mismatch_detected(self):
        world = create_world("loopback", 2)

        def body(ep):
            return ep.exchange(1 - ep.rank, b"x" * (4 if ep.rank == 0 else 6))

        with pytest.raises(FramingError, match="length mismatch"):
            run_spmd(world, body)


# each maker turns the same raw bytes into another kind of buffer
PAYLOAD_KINDS = {
    "bytes": bytes,
    "bytearray": bytearray,
    "memoryview": memoryview,
    "complex128": lambda raw: np.frombuffer(raw, dtype=np.complex128).copy(),
}


class TestExchangeBuffers:
    @pytest.mark.parametrize("kind", list(PAYLOAD_KINDS))
    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    def test_any_buffer_round_trips_and_counts_nbytes(self, transport, kind):
        # 37 complex128 values: len() of the array is 37, its nbytes 592,
        # and all 592 bytes travel
        raws = [np.random.default_rng(r).bytes(16 * 37) for r in range(2)]

        def body(ep):
            return bytes(ep.exchange(1 - ep.rank, PAYLOAD_KINDS[kind](raws[ep.rank])))

        if transport == "loopback":
            results = run_spmd(create_world("loopback", 2), body)
        else:
            with tcp_world(2) as world:
                results = run_spmd(world, body)
        for rank, got in enumerate(results):
            assert got == raws[1 - rank]

    def test_strided_payload_rejected_before_sending(self):
        ep = create_world("loopback", 2)[0]
        with pytest.raises(TypeError, match="C-contiguous"):
            ep.exchange(1, np.zeros(8, dtype=np.complex128)[::2])
        assert ep._channels[(0, 1)].empty()


class TestBarrier:
    def test_flags_set_before_release(self):
        world = create_world("loopback", 4)
        flags = [False] * 4

        def body(ep):
            flags[ep.rank] = True
            ep.barrier()
            return all(flags)

        assert all(run_spmd(world, body))

    def test_single_rank_immediate(self):
        (ep,) = create_world("loopback", 1)
        ep.barrier()  # returns without blocking

    def test_missing_rank_times_out(self):
        world = create_world("loopback", 4, timeout=0.3)

        def body(ep):
            if ep.rank != 3:
                ep.barrier()

        with pytest.raises(FabricTimeoutError, match="barrier"):
            run_spmd(world, body)


class TestBroadcast:
    def test_seed_from_root(self):
        world = create_world("loopback", 8)

        def body(ep):
            return ep.broadcast(0, b"\x01\x02\x03" if ep.rank == 0 else b"")

        assert run_spmd(world, body) == [b"\x01\x02\x03"] * 8

    def test_nonzero_root(self):
        world = create_world("loopback", 4)

        def body(ep):
            return ep.broadcast(2, b"payload" if ep.rank == 2 else b"")

        assert run_spmd(world, body) == [b"payload"] * 4

    def test_world_of_one_identity(self):
        (ep,) = create_world("loopback", 1)
        assert ep.broadcast(0, b"abc") == b"abc"

    def test_empty_payload(self):
        world = create_world("loopback", 4)
        assert run_spmd(world, lambda ep: ep.broadcast(0, b"")) == [b""] * 4

    def test_root_out_of_range(self):
        (ep,) = create_world("loopback", 1)
        with pytest.raises(FabricError, match="root"):
            ep.broadcast(5, b"")


class TestAllreduce:
    def test_scalar_sum(self):
        world = create_world("loopback", 4)
        got = run_spmd(world, lambda ep: ep.allreduce_sum([1.0]))
        assert all(v[0] == 4.0 for v in got)

    def test_vector_sum(self):
        world = create_world("loopback", 2)

        def body(ep):
            return ep.allreduce_sum([1.0, 2.0] if ep.rank == 0 else [3.0, 4.0])

        got = run_spmd(world, body)
        for v in got:
            np.testing.assert_array_equal(v, [4.0, 6.0])

    def test_single_rank_identity(self):
        (ep,) = create_world("loopback", 1)
        np.testing.assert_array_equal(ep.allreduce_sum([7.5, 1.25]), [7.5, 1.25])

    def test_bit_identical_across_ranks(self):
        world = create_world("loopback", 8)
        rng = np.random.default_rng(3)
        inputs = rng.normal(size=(8, 16))
        got = run_spmd(world, lambda ep: ep.allreduce_sum(inputs[ep.rank]))
        for v in got[1:]:
            assert v.tobytes() == got[0].tobytes()

    def test_length_mismatch(self):
        world = create_world("loopback", 2)

        def body(ep):
            return ep.allreduce_sum([1.0] * (2 if ep.rank == 0 else 3))

        with pytest.raises(FabricError, match="length"):
            run_spmd(world, body)


class TestAllgather:
    def test_rank_ordered_blobs(self):
        world = create_world("loopback", 8)
        got = run_spmd(world, lambda ep: ep.allgather_bytes(bytes([ep.rank]) * ep.rank))
        expect = [bytes([r]) * r for r in range(8)]
        assert all(g == expect for g in got)


def mismatched_calls(ep):
    """Rank 0 enters a barrier while rank 1 enters an exchange."""
    if ep.rank == 0:
        ep.barrier()
    else:
        ep.exchange(0, b"\x07")


class TestFailures:
    def test_collective_mismatch_raises_on_both_ranks(self):
        world = create_world("loopback", 2, timeout=5)
        errors = {}

        def body(ep):
            with pytest.raises(FramingError) as err:
                mismatched_calls(ep)
            errors[ep.rank] = str(err.value)

        run_spmd(world, body)
        assert "rank 0 in barrier met rank 1 in exchange" in errors[0]
        assert "rank 1 in exchange met rank 0 in barrier" in errors[1]

    def test_peer_of_closed_rank_fails_at_once(self):
        world = create_world("loopback", 2, timeout=5)
        world[1].close()
        with pytest.raises(FabricError, match="rank 1 closed"):
            world[0].barrier()

    @pytest.mark.parametrize("P", [2, 4])
    def test_root_cause_surfaces_before_timeout(self, P):
        # the last rank fails; the others, blocked in a barrier, fail on its
        # closed channels, and run_spmd raises the failure that came first
        world = create_world("loopback", P, timeout=1.5)

        def body(ep):
            if ep.rank == P - 1:
                raise ValueError("real cause")
            ep.barrier()

        start = time.monotonic()
        with pytest.raises(ValueError, match="real cause"):
            run_spmd(world, body)
        assert time.monotonic() - start < 0.5


class TestTrafficLog:
    def test_exchange_symmetry(self):
        # n=6 over 4 ranks: a slice of 16 amplitudes, so each
        # relocalization sends 8 of them, 128 bytes. A bare exchange is
        # transport only and logs nothing
        world = create_world("loopback", 4)

        def body(ep):
            st = dist.partition(6, ep)
            dist.relocalize(st, 4, 0)
            dist.relocalize(st, 5, 1)
            ep.exchange(ep.rank ^ 1, b"z" * 32)

        run_spmd(world, body)
        # each rank logs only its own sends, so every pair is seen from
        # both ends: the same bytes on the bit that the pair crosses
        for ep in world:
            assert ep.traffic.bytes_sent() == 256
            assert ep.traffic.bit_bytes == {0: 128, 1: 128}
            assert ep.traffic.bit_messages == {0: 1, 1: 1}
        assert sum(sum(ep.traffic.bit_messages.values()) for ep in world) == 8

    def test_collectives_not_counted(self):
        world = create_world("loopback", 4)

        def body(ep):
            ep.barrier()
            ep.broadcast(0, b"x" * 100 if ep.rank == 0 else b"")
            ep.allreduce_sum([1.0, 2.0])
            ep.allgather_bytes(b"y" * 50)

        run_spmd(world, body)
        for ep in world:
            assert ep.traffic.bytes_sent() == 0
            assert ep.traffic.bit_messages == {}

    def test_counters_monotone(self):
        log = TrafficLog()
        log.record(0, 10)
        before = log.bytes_sent()
        log.record(0, 5)
        assert log.bytes_sent() >= before


class TestFraming:
    def test_corrupt_length_prefix_raises(self):
        a, b = socket.socketpair()
        try:
            # a frame whose prefix claims an absurd length
            b.sendall(struct.pack("<Q", 1 << 50) + b"oops")
            a.settimeout(2.0)
            with pytest.raises(FramingError, match="corrupt"):
                fabric._recv_frame(a)
        finally:
            a.close()
            b.close()

    def test_frame_round_trip(self):
        a, b = socket.socketpair()
        try:
            payload = bytes(range(256)) * 11
            fabric._send_frame(b, payload, fabric._ALLGATHER)
            a.settimeout(2.0)
            assert fabric._recv_frame(a) == (fabric._ALLGATHER, payload)
        finally:
            a.close()
            b.close()

    def test_exchange_length_checked_before_any_payload_byte(self):
        # rank 1 receives first; its peer's header announces 1 TiB. The
        # exchange must refuse it from the header alone, without reading
        # or allocating the announced size
        a, b = socket.socketpair()
        a.settimeout(2.0)
        ep = TcpEndpoint(1, 2, {0: a}, timeout=2.0)
        try:
            b.sendall(struct.pack("<QB", 1 << 40, fabric._EXCHANGE))
            tracemalloc.start()
            start = time.monotonic()
            try:
                with pytest.raises(FramingError, match="length mismatch"):
                    ep.exchange(0, b"x" * 16)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert time.monotonic() - start < 1.0
            assert peak < 1 << 20
        finally:
            ep.close()
            b.close()

    def test_disconnect_detected(self):
        a, b = socket.socketpair()
        b.close()
        a.settimeout(2.0)
        with pytest.raises(FabricError, match="disconnected"):
            fabric._recv_frame(a)
        with pytest.raises(FabricError, match="disconnected"):
            fabric._send_frame(a, bytes(1 << 20))
        a.close()


class TestTcpTransport:
    def test_two_rank_smoke(self, tmp_path):
        outs = [tmp_path / f"r{r}.txt" for r in range(2)]
        launch_tcp_workers("smoke", 2, outs)
        assert all(p.read_text() == "ok" for p in outs)

    def test_collective_mismatch_raises_on_both_ranks(self, tmp_path):
        outs = [tmp_path / f"r{r}.txt" for r in range(2)]
        launch_tcp_workers("mismatch", 2, outs)
        assert "rank 0 in barrier met rank 1 in exchange" in outs[0].read_text()
        assert "rank 1 in exchange met rank 0 in barrier" in outs[1].read_text()

    def test_four_rank_smoke(self, tmp_path):
        outs = [tmp_path / f"r{r}.txt" for r in range(4)]
        launch_tcp_workers("smoke", 4, outs)
        assert all(p.read_text() == "ok" for p in outs)

    def test_rendezvous_timeout(self):
        port = free_port()
        with pytest.raises(FabricTimeoutError):
            create_world(
                "tcp", 2, rendezvous=f"127.0.0.1:{port}", rank=1, timeout=0.5
            )

    def test_failed_rendezvous_closes_accepted_peers(self):
        # rank 0 of 4 accepts rank 1, then times out waiting for the rest.
        # Rank 1 must see its connection closed at once, even while the
        # error, and with it the failed call's frames, is still held
        port = free_port()
        errors = []

        def leader():
            try:
                create_world("tcp", 4, rendezvous=f"127.0.0.1:{port}", rank=0,
                             timeout=1.0)
            except FabricTimeoutError as e:
                errors.append(e)

        thread = threading.Thread(target=leader)
        thread.start()
        peer = fabric._connect_with_retry(("127.0.0.1", port), 5.0)
        try:
            peer.sendall(struct.pack("<Q", 1))
            fabric._send_frame(peer, b"127.0.0.1:1")
            thread.join(10)
            assert not thread.is_alive()
            assert len(errors) == 1
            peer.settimeout(2.0)
            assert peer.recv(1) == b""
        finally:
            peer.close()

    @pytest.mark.parametrize("announced", [[5], [1, 1]], ids=["out-of-range", "duplicate"])
    def test_rank_0_rejects_a_bad_announced_rank(self, announced):
        # raw peers announce ranks to rank 0 of 4; the last one is bad, so
        # rank 0 fails naming it, before it reads that peer's address, and
        # closes every peer it accepted
        port = free_port()
        errors = []

        def leader():
            try:
                create_world("tcp", 4, rendezvous=f"127.0.0.1:{port}", rank=0,
                             timeout=10.0)
            except FabricError as e:
                errors.append(e)

        thread = threading.Thread(target=leader)
        thread.start()
        peers = []
        try:
            for i, rank in enumerate(announced, 1):
                peer = fabric._connect_with_retry(("127.0.0.1", port), 5.0)
                peers.append(peer)
                peer.sendall(struct.pack("<Q", rank))
                if i < len(announced):
                    fabric._send_frame(peer, b"127.0.0.1:1")
            thread.join(10)
            assert not thread.is_alive()
            assert len(errors) == 1
            assert type(errors[0]) is FabricError
            assert f"announced rank {announced[-1]}" in str(errors[0])
            for peer in peers:
                peer.settimeout(2.0)
                assert peer.recv(1) == b""
        finally:
            for peer in peers:
                peer.close()

    def test_mesh_rejects_a_bad_announced_rank(self):
        # this test plays rank 0 of 4 for a real rank 1, then connects to
        # rank 1's mesh listener as a peer announcing rank 5
        port = free_port()
        errors = []

        def member():
            try:
                create_world("tcp", 4, rendezvous=f"127.0.0.1:{port}", rank=1,
                             timeout=10.0)
            except FabricError as e:
                errors.append(e)

        with socket.create_server(("127.0.0.1", port)) as server:
            server.settimeout(10.0)
            thread = threading.Thread(target=member)
            thread.start()
            conn, _ = server.accept()
            with conn:
                conn.settimeout(10.0)
                assert struct.unpack("<Q", fabric._recv_exact(conn, 8)) == (1,)
                address = fabric._recv_frame(conn)[1].decode()
                fabric._send_frame(conn, json.dumps({"1": address}).encode())
                with socket.create_connection(fabric._parse_address(address), 5.0) as peer:
                    peer.sendall(struct.pack("<Q", 5))
                    thread.join(10)
                    assert not thread.is_alive()
                    assert len(errors) == 1
                    assert type(errors[0]) is FabricError
                    assert "rank 1: a peer announced rank 5" in str(errors[0])
                    peer.settimeout(2.0)
                    assert peer.recv(1) == b""
                conn.settimeout(2.0)
                assert conn.recv(1) == b""

    def test_large_symmetric_exchange_no_deadlock(self):
        # a 2-rank swap far beyond socket buffers, through threads sharing
        # localhost sockets; random bytes of an odd size, so that a receive
        # landing at a wrong offset shows
        payload_size = (1 << 21) + 7
        payloads = [np.random.default_rng(r).bytes(payload_size) for r in range(2)]

        def body(ep):
            return bytes(ep.exchange(1 - ep.rank, payloads[ep.rank]))

        with tcp_world(2) as world:
            results = run_spmd(world, body)
        assert results[0] == payloads[1]
        assert results[1] == payloads[0]
