"""Rank-to-rank message passing with interchangeable transports.

Two endpoint flavors share one contract:
  - loopback: every rank is a worker thread in one process, and channels
    are in-memory queues
  - tcp: one OS process per rank, full mesh of localhost sockets with
    frames headed by a little-endian 8-byte length and a 1-byte tag

Every frame is tagged with the operation that sent it (exchange, barrier,
broadcast, allreduce or allgather). When two paired ranks are in different
operations, both raise FramingError instead of reading the other's bytes.
Closing an endpoint makes a peer blocked on it raise FabricError at once,
so a failing rank does not leave the others to wait out their timeout.

A world holds P = 2^k ranks, by the one power-of-two rule `rank_bits`.
A tcp world checks its rank against P before it opens any socket, and a
rank rejects a peer that announces a rank not above its own, not below P,
or already taken.

exchange() is a pure transport call:
  - a tcp frame is the 9-byte header plus the caller's buffer, written
    from where it lies (a small frame goes out in one write)
  - the receiver checks the announced length against its own payload's
    length (the exchange is symmetric) before it reads any payload byte,
    then receives into one uninitialised buffer of that size
  - loopback copies the payload as it sends it
Either way the caller may write its buffer again once exchange() returns,
so `dist.relocalize` streams a half-slice through one reused piece buffer.
Collectives read their frames in pieces bounded by the bytes actually
received, never into a buffer sized only by an unchecked header.

Every endpoint, of either flavor, carries a `TrafficLog` in `ep.traffic`,
which `dist.relocalize` fills: one message of half a slice per
relocalization, however many exchange() pieces carried it, keyed by the
hypercube bit it crossed. These are the bytes and the per-level shape that
the performance model predicts for one rank.

Every collective (barrier, broadcast, allreduce, allgather) is one
recursive-doubling allgather over the pairwise primitive, so a world of
P = 2^k ranks finishes it in k rounds and all transports produce
bit-identical results.
"""

from __future__ import annotations

import json
import queue
import socket
import struct
import threading
import time

import numpy as np

DEFAULT_TIMEOUT = 30.0
_MAX_FRAME = 1 << 40  # anything larger is a corrupt length prefix
# frame tags, by index: the operation a frame belongs to
_OPS = ("exchange", "barrier", "broadcast", "allreduce", "allgather")
_EXCHANGE, _BARRIER, _BROADCAST, _ALLREDUCE, _ALLGATHER = range(len(_OPS))


class FabricError(RuntimeError):
    pass


class FabricTimeoutError(FabricError):
    pass


class FramingError(FabricError):
    pass


def rank_bits(count: int, what: str = "world size") -> int:
    """log2 of a rank count. The one power-of-two rule: the engine, the
    model and the command line all accept exactly the counts 1, 2, 4, ..."""
    if count < 1 or count & (count - 1):
        raise ValueError(f"{what} must be a power of two, got {count}")
    return int(count).bit_length() - 1


class FabricEndpoint:
    """One rank's handle into a world of P = 2^k connected ranks.

    Subclasses provide `_transfer`; everything else is shared. An endpoint
    is confined to a single worker at a time. `traffic` logs this rank's
    relocalizations (see `TrafficLog`).
    """

    kind = "abstract"

    def __init__(self, rank: int, world_size: int, timeout: float = DEFAULT_TIMEOUT):
        self.hypercube_bits = rank_bits(world_size)
        self.rank = rank
        self.world_size = world_size
        self.timeout = timeout
        self.traffic = TrafficLog()

    # --- transport primitive -------------------------------------------

    def _transfer(
        self, peer: int, tag: int, payload: bytes | memoryview
    ) -> tuple[int, bytes | memoryview]:
        """Send one tagged frame to peer; return the tag and payload of the
        frame peer sent back."""
        raise NotImplementedError

    def _sendrecv(
        self, peer: int, tag: int, payload: bytes | memoryview
    ) -> bytes | memoryview:
        got_tag, got = self._transfer(peer, tag, payload)
        if got_tag != tag:
            raise FramingError(
                f"rank {self.rank} in {_OPS[tag]} met rank {peer} in {_OPS[got_tag]}"
            )
        return got

    def close(self):
        pass

    # --- point-to-point -------------------------------------------------

    def exchange(self, peer: int, payload) -> bytes | memoryview:
        """Symmetric swap: returns the peer's bytes (a tcp frame lands in a
        byte memoryview, a loopback one is the peer's copy). Both sides
        must send buffers of equal byte length.

        `payload` is any C-contiguous buffer (bytes, bytearray, memoryview,
        ndarray), sent as its nbytes. Once this returns, the caller may
        write it again."""
        if peer == self.rank:
            raise FabricError("exchange with self")
        if not 0 <= peer < self.world_size:
            raise FabricError(f"peer {peer} out of range")
        payload = memoryview(payload).cast("B")
        got = self._sendrecv(peer, _EXCHANGE, payload)
        if len(got) != len(payload):
            raise FramingError(
                f"exchange length mismatch: sent {len(payload)} bytes, "
                f"received {len(got)}"
            )
        return got

    # --- collectives ------------------------------------------------------

    def _allgather(self, tag: int, blob: bytes) -> list[bytes]:
        """Every rank's blob, ordered by rank: one recursive-doubling round
        per hypercube bit, each frame tagged `tag`."""
        items: dict[int, bytes] = {self.rank: bytes(blob)}
        for j in range(self.hypercube_bits):
            peer = self.rank ^ (1 << j)
            try:
                got = self._sendrecv(peer, tag, _pack_items(items))
            except FabricTimeoutError as e:
                raise FabricTimeoutError(
                    f"{_OPS[tag]} timed out on rank {self.rank} waiting for rank {peer}"
                ) from e
            items.update(_unpack_items(got))
        return [items[r] for r in range(self.world_size)]

    def barrier(self):
        """No rank returns before every rank has entered."""
        self._allgather(_BARRIER, b"")

    def broadcast(self, root: int, data: bytes) -> bytes:
        """Every rank returns root's buffer bit-exactly."""
        if not 0 <= root < self.world_size:
            raise FabricError(f"broadcast root {root} out of range")
        return self._allgather(_BROADCAST, data if self.rank == root else b"")[root]

    def allreduce_sum(self, values) -> np.ndarray:
        """Elementwise float64 sum across ranks. The gathered vectors are
        added pairwise in rank order, lower block plus upper block, so every
        rank computes bit-identical results."""
        acc = np.array(values, dtype=np.float64).reshape(-1)
        blobs = self._allgather(_ALLREDUCE, acc.tobytes())
        if any(len(b) != acc.nbytes for b in blobs):
            raise FabricError("allreduce vector length mismatch")
        vecs = [acc if r == self.rank else np.frombuffer(b) for r, b in enumerate(blobs)]
        while len(vecs) > 1:
            vecs = [lower + upper for lower, upper in zip(vecs[::2], vecs[1::2])]
        return vecs[0]

    def allgather_bytes(self, blob: bytes) -> list[bytes]:
        """Every rank receives all ranks' blobs, ordered by rank."""
        return self._allgather(_ALLGATHER, blob)


def _pack_items(items: dict[int, bytes]) -> bytes:
    parts = [struct.pack("<I", len(items))]
    for r in sorted(items):
        blob = items[r]
        parts.append(struct.pack("<IQ", r, len(blob)))
        parts.append(blob)
    return b"".join(parts)


def _unpack_items(payload: bytes) -> dict[int, bytes]:
    (count,) = struct.unpack_from("<I", payload, 0)
    off = 4
    items = {}
    for _ in range(count):
        r, n = struct.unpack_from("<IQ", payload, off)
        off += 12
        items[r] = payload[off : off + n]
        off += n
    return items


# --------------------------------------------------------------------------
# loopback transport: worker threads + queues
# --------------------------------------------------------------------------


class LoopbackEndpoint(FabricEndpoint):
    """Channels carry (tag, payload) pairs, the payload copied to bytes as
    it is sent (a collective's bytes are not copied again); `close` puts
    None on each of this rank's outgoing channels."""

    kind = "loopback"

    def __init__(self, rank, world_size, channels, timeout=DEFAULT_TIMEOUT):
        super().__init__(rank, world_size, timeout)
        self._channels = channels

    def _transfer(
        self, peer: int, tag: int, payload: bytes | memoryview
    ) -> tuple[int, bytes | memoryview]:
        self._channels[(self.rank, peer)].put((tag, bytes(payload)))
        try:
            frame = self._channels[(peer, self.rank)].get(timeout=self.timeout)
        except queue.Empty:
            raise FabricTimeoutError(
                f"rank {self.rank}: no message from rank {peer} "
                f"within {self.timeout}s"
            ) from None
        if frame is None:
            raise FabricError(f"rank {peer} closed")
        return frame

    def close(self):
        for peer in range(self.world_size):
            if peer != self.rank:
                self._channels[(self.rank, peer)].put(None)


# --------------------------------------------------------------------------
# tcp transport: one process per rank, full mesh on localhost
# --------------------------------------------------------------------------


_SMALL_FRAME = 1 << 16  # header and payload up to this size go in one write


def _send_frame(
    sock: socket.socket, payload: bytes | memoryview, tag: int = _EXCHANGE
):
    """One frame: the header, then the payload (bytes or a byte memoryview)
    from where it lies. A small frame (every collective's) is one write,
    which keeps barrier latency down; a large one is not copied behind
    its header."""
    header = struct.pack("<QB", len(payload), tag)
    try:
        if len(payload) <= _SMALL_FRAME:
            sock.sendall(header + payload)
        else:
            sock.sendall(header)
            sock.sendall(payload)
    except socket.timeout:
        raise FabricTimeoutError("socket send timed out") from None
    except OSError as e:
        raise FabricError(f"peer disconnected ({e})") from None


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """n bytes, read in pieces: memory grows only with what arrives."""
    chunks = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except socket.timeout:
            raise FabricTimeoutError("socket receive timed out") from None
        if not chunk:
            raise FabricError("peer disconnected")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_into(sock: socket.socket, buf: memoryview) -> None:
    got = 0
    while got < len(buf):
        try:
            n = sock.recv_into(buf[got:])
        except socket.timeout:
            raise FabricTimeoutError("socket receive timed out") from None
        if not n:
            raise FabricError("peer disconnected")
        got += n


def _recv_frame(
    sock: socket.socket, expect: int | None = None
) -> tuple[int, bytes | memoryview]:
    """The tag and payload of the next frame.

    With `expect` set, an exchange frame must announce exactly `expect`
    bytes. That is checked before any payload byte is read; the payload
    then lands in one uninitialised buffer and comes back as a memoryview.
    Any other frame is read in bounded pieces."""
    length, tag = struct.unpack("<QB", _recv_exact(sock, 9))
    if length > _MAX_FRAME:
        raise FramingError(f"implausible frame length {length}; corrupt prefix?")
    if tag >= len(_OPS):
        raise FramingError(f"unknown frame tag {tag}; corrupt header?")
    if expect is None or tag != _EXCHANGE:
        return tag, _recv_exact(sock, int(length))
    if length != expect:
        raise FramingError(
            f"exchange length mismatch: sent {expect} bytes, peer announced {length}"
        )
    buf = memoryview(np.empty(expect, dtype=np.uint8))
    _recv_into(sock, buf)
    return tag, buf


def _parse_address(address: str) -> tuple[str, int]:
    host, sep, port = address.rpartition(":")
    if not sep:
        raise ValueError(f"rendezvous address {address!r} is not host:port")
    return host, int(port)


class TcpEndpoint(FabricEndpoint):
    kind = "tcp"

    def __init__(self, rank, world_size, socks, timeout=DEFAULT_TIMEOUT):
        super().__init__(rank, world_size, timeout)
        self._socks = socks  # peer rank -> connected socket

    def _transfer(
        self, peer: int, tag: int, payload: bytes | memoryview
    ) -> tuple[int, bytes | memoryview]:
        sock = self._socks[peer]
        # an exchange is symmetric: the peer's frame is as long as ours
        expect = len(payload) if tag == _EXCHANGE else None
        # lower rank sends first; keeps large symmetric swaps deadlock-free
        if self.rank < peer:
            _send_frame(sock, payload, tag)
            return _recv_frame(sock, expect)
        got = _recv_frame(sock, expect)
        _send_frame(sock, payload, tag)
        return got

    def close(self):
        for sock in self._socks.values():
            try:
                sock.close()
            except OSError:
                pass


def _configure(sock: socket.socket, timeout: float) -> socket.socket:
    sock.settimeout(timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _connect_with_retry(addr, timeout: float) -> socket.socket:
    deadline = time.monotonic() + timeout
    while True:
        try:
            return _configure(socket.create_connection(addr, timeout=timeout), timeout)
        except ConnectionRefusedError:
            if time.monotonic() >= deadline:
                raise FabricTimeoutError(
                    f"rendezvous at {addr[0]}:{addr[1]} timed out"
                ) from None
            time.sleep(0.02)


def _create_tcp_endpoint(rank, world_size, rendezvous, timeout) -> TcpEndpoint:
    host, port = _parse_address(rendezvous)
    socks: dict[int, socket.socket] = {}
    if world_size == 1:
        return TcpEndpoint(0, 1, socks, timeout)
    # every peer socket opened here, closed again if the world cannot form
    opened: list[socket.socket] = []

    def accept(listener, on_timeout: str) -> tuple[int, socket.socket]:
        """A peer's socket and its announced rank: above ours, below P, untaken."""
        try:
            conn, _ = listener.accept()
        except socket.timeout:
            raise FabricTimeoutError(on_timeout) from None
        opened.append(conn)
        _configure(conn, timeout)
        (peer,) = struct.unpack("<Q", _recv_exact(conn, 8))
        if not rank < peer < world_size or peer in socks:
            raise FabricError(f"rank {rank}: a peer announced rank {peer}, "
                              f"out of range or taken in a world of {world_size}")
        return int(peer), conn

    def connect(addr) -> socket.socket:
        sock = _connect_with_retry(addr, timeout)
        opened.append(sock)
        sock.sendall(struct.pack("<Q", rank))
        return sock

    try:
        if rank == 0:
            with socket.create_server((host, port)) as server:
                server.settimeout(timeout)
                table = {}
                for _ in range(world_size - 1):
                    peer, conn = accept(server, "rendezvous timed out waiting for peers")
                    table[str(peer)] = _recv_frame(conn)[1].decode()
                    socks[peer] = conn  # the rendezvous socket doubles as pair (0, peer)
                blob = json.dumps(table, sort_keys=True).encode()
                for conn in socks.values():
                    _send_frame(conn, blob)
            return TcpEndpoint(0, world_size, socks, timeout)

        with socket.create_server((host, 0)) as listener:
            listener.settimeout(timeout)
            socks[0] = connect((host, port))
            _send_frame(socks[0], f"{host}:{listener.getsockname()[1]}".encode())
            table = json.loads(_recv_frame(socks[0])[1].decode())
            # deterministic mesh: connect to every lower nonzero rank, accept the rest
            for peer in range(1, rank):
                socks[peer] = connect(_parse_address(table[str(peer)]))
            for _ in range(world_size - 1 - rank):
                peer, conn = accept(listener, "mesh construction timed out")
                socks[peer] = conn
        return TcpEndpoint(rank, world_size, socks, timeout)
    except BaseException:
        for sock in opened:
            sock.close()
        raise


# --------------------------------------------------------------------------
# traffic instrumentation
# --------------------------------------------------------------------------


class TrafficLog:
    """One rank's relocalizations, as `dist.relocalize` records them: each
    one message of half a slice, keyed by the hypercube bit it crossed,
    (rank ^ peer).bit_length() - 1, the shape of the model's per-level
    profile. Neither exchange() nor a collective records anything."""

    def __init__(self):
        self.bit_bytes: dict[int, int] = {}
        self.bit_messages: dict[int, int] = {}

    def record(self, bit: int, nbytes: int):
        self.bit_bytes[bit] = self.bit_bytes.get(bit, 0) + nbytes
        self.bit_messages[bit] = self.bit_messages.get(bit, 0) + 1

    def bytes_sent(self) -> int:
        return sum(self.bit_bytes.values())


# --------------------------------------------------------------------------
# world construction and SPMD driving
# --------------------------------------------------------------------------


def create_world(
    kind: str,
    world_size: int,
    rendezvous: str | None = None,
    rank: int | None = None,
    timeout: float = DEFAULT_TIMEOUT,
):
    """loopback -> list of P endpoints (run them on P workers);
    tcp -> this process's single endpoint (requires rendezvous and rank)."""
    rank_bits(world_size)
    if kind == "loopback":
        channels = {
            (i, j): queue.Queue()
            for i in range(world_size)
            for j in range(world_size)
            if i != j
        }
        return [
            LoopbackEndpoint(r, world_size, channels, timeout)
            for r in range(world_size)
        ]
    if kind == "tcp":
        if rendezvous is None or rank is None:
            raise ValueError("tcp worlds need a rendezvous address and a rank")
        if not 0 <= rank < world_size:
            raise ValueError(f"rank {rank} out of range for world size {world_size}")
        return _create_tcp_endpoint(rank, world_size, rendezvous, timeout)
    raise ValueError(f"unknown fabric kind {kind!r}")


def run_spmd(endpoints, fn) -> list:
    """Run fn(ep) on one thread per rank; join all; re-raise the failure
    that happened first. A failing rank closes its endpoint, so the peers
    waiting on it fail at once instead of timing out. The standard driver
    for loopback worlds."""
    results = [None] * len(endpoints)
    failures: list[BaseException] = []  # in the order they happened
    lock = threading.Lock()

    def worker(i, ep):
        try:
            results[i] = fn(ep)
        except BaseException as e:  # surfaced after join
            with lock:
                failures.append(e)
            ep.close()

    threads = [
        threading.Thread(target=worker, args=(i, ep), name=f"rank-{ep.rank}")
        for i, ep in enumerate(endpoints)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise failures[0]
    return results
