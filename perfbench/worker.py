"""One benchmark process, launched by run.py in one of these modes:

  setup     build the circuit pool, create the world, pass the first barrier
  run       set-up, then closed-loop circuits, untraced
  trace     set-up, then closed-loop circuits, alternately traced and untraced
  probe     the traced run's in-process probes: P=1/P=2 speed-up, kernel
            roofline, loopback transport and the model
  tcpprobe  one rank of the tcp transport probe

The process writes one JSON document to --out. It exits 1 after writing
the first failing rank's traceback to stderr, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import traceback
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from qsim import dist, fabric  # noqa: E402
from qsim.svcore import Precision  # noqa: E402

import probes  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from spec import AMPLITUDE_FLOOR, FABRIC_TIMEOUT, N, POOL, ROOFLINE_GATES, SHOTS, WORKLOADS  # noqa: E402
from tracing import clock  # noqa: E402


def peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_circuit(ep, tep, task, i: int, j: int, seed: int, traced: bool) -> dict:
    """Circuit i of the run, on task j: barrier-bracketed (the protocol of
    `bench.run_benchmark`) and followed, outside the bracket, by its
    known-answer check."""
    sample_seed = seed + j
    ep.barrier()
    t0 = clock()
    if traced:
        tracer = tep.tracer
        tracer.circuit = i
        b0, m0 = tep.exchange_bytes, tep.exchange_msgs
        with tracer.span("circuit"):
            st, counts, census = tracing.traced_run(task.circuit, tep, sample_seed)
            arrive = clock()
            tep.barrier()
    else:
        st = dist.run_distributed(task.circuit, ep, fusion=True, precision=Precision.DOUBLE)
        counts = dist.sample_distributed(st, SHOTS, sample_seed, task.circuit.measured)
        arrive = clock()
        if i == 0:
            # the high-water mark before any gather, which holds a full-state copy
            rss = peak_rss_kib()
        ep.barrier()
    rec = {"i": i, "task": j, "traced": traced, "seconds": clock() - t0, "arrive": arrive}
    if i == 0:
        rec["rss_kib"] = rss

    if traced:
        with tracer.span("dist.gather"):
            full = dist.gather(st)
    else:
        full = dist.gather(st)
    amp2 = float(abs(full.amps[task.answer]) ** 2)
    rec["ok"] = counts.entries == {task.key: SHOTS} and amp2 >= AMPLITUDE_FLOOR
    if not rec["ok"]:
        top = sorted(counts.entries.items(), key=lambda kv: -kv[1])[:3]
        rec["detail"] = (f"{task.circuit.name}: expected all {SHOTS} shots on "
                         f"{task.key}, got {top}; |amp|^2 = {amp2:.12f}")
    if traced:
        rec.update(census)
        rec["exchange_bytes"] = tep.exchange_bytes - b0
        rec["exchange_msgs"] = tep.exchange_msgs - m0
        rec["model_bytes"] = probes.model_bytes(task.circuit, ep.world_size)
        if rec["exchange_bytes"] != rec["model_bytes"]:
            rec["ok"] = False
            rec["detail"] = (f"{task.circuit.name}: model bytes {rec['model_bytes']} "
                             f"!= counted bytes {rec['exchange_bytes']}")
    return rec


def rank_body(ep, tasks, args, rec: dict) -> None:
    """Closed loop, one circuit in flight: the warm-up circuit, then timed
    circuits until the next one would end past --seconds. A traced run
    runs each task twice, so the pair measures the cost of tracing. Rank 0
    decides when to stop and broadcasts it, so every rank runs the same
    circuits. Fills `rec` as it goes, so a failure keeps what was done."""
    ep.barrier()
    rec["ready"] = clock()
    if args.mode == "setup":
        return
    traced_mode = args.mode == "trace"
    tracer = tracing.Tracer(ep.rank)
    tep = tracing.TracedEndpoint(ep, tracer) if traced_mode else None
    rec["circuits"] = circuits = []
    rec["spans"] = tracer.spans
    # a round is one task: run once, or in a traced run twice, untraced and
    # then traced; round 0 is the warm-up
    rounds: list[float] = []
    i = 0
    for j, task in enumerate(tasks):
        start = clock()
        for traced in (False, True) if traced_mode and j > 0 else (False,):
            circuits.append(run_circuit(ep, tep, task, i, j, args.seed, traced))
            i += 1
        if j == 0:
            window = clock()
            continue
        rounds.append(clock() - start)
        go = clock() - window + median(rounds) <= args.seconds
        if ep.broadcast(0, b"\x01" if go else b"\x00") != b"\x01":
            return


def run_ranks(eps, body, deadline: float):
    """Run body(ep, rec) for every endpoint. Returns the records and the
    failures. Several ranks run on one thread each; a rank still running
    at the deadline is reported as hung, and after the first failure the
    others get a second to end, then are abandoned (the process exits
    without joining them). A lone rank runs on the calling thread, and the
    launcher enforces its deadline: on a thread of its own, the circuits
    after each check's full-state gather ran up to 30% slower."""
    recs = [{"rank": ep.rank} for ep in eps]
    errors: list[dict] = []
    lock = threading.Lock()

    def work(ep, rec):
        try:
            body(ep, rec)
        except BaseException:
            with lock:
                errors.append({"rank": ep.rank, "at": clock(), "error": traceback.format_exc()})
            ep.close()  # a tcp peer then fails at once instead of timing out

    if len(eps) == 1:
        work(eps[0], recs[0])
        return recs, errors
    threads = [threading.Thread(target=work, args=(ep, rec), daemon=True, name=f"rank-{ep.rank}")
               for ep, rec in zip(eps, recs)]
    for t in threads:
        t.start()
    give_up = deadline
    while any(t.is_alive() for t in threads):
        if errors:
            give_up = min(give_up, errors[0]["at"] + 1.0)
        if clock() > give_up:
            if not errors:
                hung = [ep.rank for t, ep in zip(threads, eps) if t.is_alive()]
                errors.append({"rank": hung[0], "at": clock(),
                               "error": f"ranks {hung} still running at their deadline"})
            break
        for t in threads:
            t.join(timeout=0.05)
    return recs, errors


def world(args) -> dict:
    wl = WORKLOADS[args.workload]
    t0 = clock()
    tasks = workloads.build(args.workload, args.seed, POOL)
    build_s = (clock() - t0) / len(tasks)
    if wl.transport == "loopback":
        eps = fabric.create_world("loopback", wl.ranks, timeout=FABRIC_TIMEOUT)
    else:
        eps = [fabric.create_world("tcp", wl.ranks, rendezvous=args.rendezvous,
                                   rank=args.rank, timeout=FABRIC_TIMEOUT)]
    try:
        recs, errors = run_ranks(eps, lambda ep, rec: rank_body(ep, tasks, args, rec),
                                 args.deadline)
    finally:
        for ep in eps:
            ep.close()
    return {"ranks": recs, "errors": errors, "build_s": build_s}


def probe(args) -> dict:
    wl = WORKLOADS[args.workload]
    tasks = workloads.build(args.workload, args.seed, POOL)
    out = {}
    p1 = probes.circuit_seconds(tasks[1], 1, args.seed + 1)
    p2 = probes.circuit_seconds(tasks[1], 2, args.seed + 1)
    out["dist.speedup_p2"] = p1 / p2
    out.update(probes.roofline(N, 5))
    out.update(probes.loopback_transport())
    out.update(probes.paper_scale())
    mem = median(out[f"svcore.gbps.{g}.n{N}"] for g in ROOFLINE_GATES)
    link = out["fabric.loopback.gbps.4m"] if wl.transport == "loopback" else args.tcp_gbps
    topo = probes.this_machine(wl.ranks, mem, link)
    idx = [int(v) for v in args.tasks.split(",")]
    predicted = probes.predicted_seconds([tasks[i] for i in idx], topo)
    # last: the n=25 state and its index arrays take about 2 GB
    out.update(probes.roofline(25, 1))
    return {"metrics": out, "predicted": dict(zip(map(str, idx), predicted))}


def tcp_probe(args) -> dict:
    ep = fabric.create_world("tcp", 2, rendezvous=args.rendezvous, rank=args.rank,
                             timeout=FABRIC_TIMEOUT)
    try:
        res = probes.transport(ep)
    finally:
        ep.close()
    return {"metrics": {f"fabric.tcp.{k}": v for k, v in res.items()}}


MODES = {"setup": world, "run": world, "trace": world, "probe": probe, "tcpprobe": tcp_probe}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=sorted(MODES), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rank", type=int, default=0)
    ap.add_argument("--rendezvous", default=None)
    ap.add_argument("--deadline", type=float, required=True,
                    help="CLOCK_MONOTONIC time by which every rank must be done")
    ap.add_argument("--tcp-gbps", type=float, default=None)
    ap.add_argument("--tasks", default="1", help="tasks to predict times for (probe)")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    doc = {"mode": args.mode, "errors": [], "python": sys.version.split()[0],
           "numpy": np.__version__, "qsim": os.path.relpath(dist.__file__)}
    try:
        doc.update(MODES[args.mode](args))
    except BaseException:
        doc["errors"].append({"rank": args.rank, "at": clock(), "error": traceback.format_exc()})
    doc["peak_rss_kib"] = peak_rss_kib()
    tmp = args.out + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    os.replace(tmp, args.out)
    if doc["errors"]:
        first = min(doc["errors"], key=lambda e: e["at"])
        sys.stderr.write(f"rank {first['rank']} failed:\n{first['error']}\n")
        sys.stderr.flush()
        os._exit(1)  # a hung rank thread must not keep the process alive
    return 0


if __name__ == "__main__":
    sys.exit(main())
