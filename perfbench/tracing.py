"""Spans taken around the calls into each qsim layer, and a traced runner
that mirrors `dist.run_distributed` step by step through public calls.

A span is [name, start, end, parent index, rank, circuit id]; spans stay in
memory and the worker writes them out when it ends. All times come from
CLOCK_MONOTONIC, which every process on the machine shares.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from qsim import dist
from qsim.fabric import FabricEndpoint
from qsim.svcore import Precision

from spec import SHOTS

clock = time.monotonic


class Tracer:
    def __init__(self, rank: int):
        self.rank = rank
        self.circuit = -1
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, clock(), 0.0, self._open[-1] if self._open else -1,
               self.rank, self.circuit]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = clock()
            self._open.pop()


class TracedEndpoint(FabricEndpoint):
    """Times `exchange` and each collective as one span and counts exchange
    traffic, delegating all transport work to the wrapped endpoint (the
    wrapping pattern of `fabric.InstrumentedEndpoint`)."""

    def __init__(self, inner: FabricEndpoint, tracer: Tracer):
        super().__init__(inner.rank, inner.world_size, inner.timeout)
        self.inner = inner
        self.tracer = tracer
        self.kind = f"traced-{inner.kind}"
        self.exchange_bytes = 0
        self.exchange_msgs = 0

    def exchange(self, peer, payload):
        with self.tracer.span("fabric.exchange"):
            got = self.inner.exchange(peer, payload)
        self.exchange_bytes += len(payload)
        self.exchange_msgs += 1
        return got

    def barrier(self):
        with self.tracer.span("fabric.barrier"):
            self.inner.barrier()

    def broadcast(self, root, data):
        with self.tracer.span("fabric.broadcast"):
            return self.inner.broadcast(root, data)

    def allreduce_sum(self, values):
        with self.tracer.span("fabric.allreduce_sum"):
            return self.inner.allreduce_sum(values)

    def allgather_bytes(self, blob):
        with self.tracer.span("fabric.allgather_bytes"):
            return self.inner.allgather_bytes(blob)

    def close(self):
        self.inner.close()


def traced_run(circuit, ep: TracedEndpoint, sample_seed: int):
    """`run_distributed` (fusion on, double precision) plus sampling, with a
    span around every call. Relocalizations are pulled out of `dist.apply`
    by replaying `plan_gate` on a layout copy, so the apply span holds the
    kernel alone. Returns the state, the counts and the step census."""
    span = ep.tracer.span
    census = {"local": 0, "diagonal": 0, "relocalize": 0, "relabel": 0}
    k = ep.world_size.bit_length() - 1
    n = circuit.num_qubits
    with span("dist.scheduled_ops"):
        ops = dist.scheduled_ops(circuit, n, k, True)
    with span("dist.partition"):
        st = dist.partition(n, ep, precision=Precision.DOUBLE)
    for i, op in enumerate(ops):
        future = ops[i + 1 :]
        with span("dist.plan_gate"):
            steps = dist.plan_gate(st.layout.copy(), op, future)
        for step in steps:
            census[step.action] += 1
            if step.action == "relocalize":
                with span("dist.relocalize"):
                    dist.relocalize(st, step.global_pos, step.local_pos)
        with span("dist.apply"):
            dist.apply(st, op, future)
    with span("dist.sample_distributed"):
        counts = dist.sample_distributed(st, SHOTS, sample_seed, circuit.measured)
    census["fused_ops"] = len(ops)
    return st, counts, census
