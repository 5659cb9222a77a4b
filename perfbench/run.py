"""qsim benchmark: three closed-loop, self-checking workloads.

    python3 perfbench/run.py --workload {random-p1,tfim-tcp2,qpe-loop2,all}
                             [--seed S] [--seconds T] [--trace 0|1]

Run from the repository root. Each workload runs in processes of its own
(worker.py), so a process's memory high-water mark is its own. One circuit
is in flight at a time; each is bracketed by barriers (barrier, clock,
`dist.run_distributed` + `dist.sample_distributed`, barrier, clock) and
checked afterwards against its known answer.

--trace 0 reports the end-to-end metrics: circuit_s, setup_s and
peak_rss_mib, and prints fail_frac. --trace 1 reports the per-layer metrics
from spans taken around each call into qsim, plus the roofline, transport
and model probes. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the full record, spans
included, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import socket
import subprocess
import sys
import time
from collections import defaultdict
from statistics import mean, median

from spec import END_TO_END, LAYER, MOVES, N, RUN_DEADLINE, SETUP_LAUNCHES, UNITS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
clock = time.monotonic


class RunFailed(Exception):
    pass


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def blas_threads(ranks: int) -> int:
    """BLAS threads per process: the cores shared out among the ranks, so
    that ranks and their BLAS threads never outnumber the cores. Left to
    its default, OpenBLAS starts one spinning thread per core in every
    rank, and two ranks on two cores slow each other down."""
    return max(1, len(os.sched_getaffinity(0)) // ranks)


def launch(mode: str, workload: str, seed: int, procs: int, deadline: float,
           seconds: float = 0.0, extra=()) -> tuple[float, list[dict]]:
    """Start `procs` worker processes (ranks 0..procs-1 of one world), wait
    for all of them, and return the launch time and their documents. Kills
    every process at the deadline. Raises RunFailed with the first failing
    rank's own error."""
    # the probes run two ranks; every other mode runs the workload's world
    ranks = WORKLOADS[workload].ranks if mode in ("setup", "run", "trace") else 2
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads(ranks)),
               OMP_NUM_THREADS=str(blas_threads(ranks)))
    rendezvous = f"127.0.0.1:{free_port()}"
    tag = f"{os.getpid()}-{mode}"
    paths = [os.path.join(OUT, f"{tag}-r{r}.json") for r in range(procs)]
    errs = [os.path.join(OUT, f"{tag}-r{r}.err") for r in range(procs)]
    running = []
    t_launch = clock()
    try:
        for r in range(procs):
            argv = [sys.executable, WORKER, "--mode", mode, "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--rank", str(r),
                    "--rendezvous", rendezvous, "--deadline", repr(deadline - 2.0),
                    "--out", paths[r], *extra]
            with open(errs[r], "w") as err:
                running.append(subprocess.Popen(argv, cwd=ROOT, env=env,
                                                stdout=subprocess.DEVNULL, stderr=err))
        hung = False
        for proc in running:
            try:
                proc.wait(timeout=max(0.0, deadline - clock()))
            except subprocess.TimeoutExpired:
                hung = True
                break
    finally:
        for proc in running:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    docs, failures = [], []
    for r, (proc, path, err) in enumerate(zip(running, paths, errs)):
        with open(err, encoding="utf-8", errors="replace") as f:
            stderr = f.read()
        os.remove(err)
        if not os.path.exists(path):
            failures.append((float("inf"), f"{mode} rank {r} wrote no result "
                             f"(exit code {proc.returncode}):\n{stderr}"))
            continue
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        os.remove(path)
        docs.append(doc)
        failures += [(e["at"], f"{mode} rank {e['rank']} failed:\n{e['error']}")
                     for e in doc["errors"]]
    if hung:
        failures.append((float("inf"), f"{mode} did not finish before the deadline"))
    if failures:
        raise RunFailed(min(failures)[1], docs)
    return t_launch, docs


def ranks_of(docs) -> list[dict]:
    return sorted((r for d in docs for r in d.get("ranks", [])), key=lambda r: r["rank"])


def circuit_outcomes(ranks) -> tuple[list[dict], int]:
    """Rank 0's circuit records, each marked failed if any rank's check
    failed, and the number that failed."""
    by_i = defaultdict(list)
    for rec in ranks:
        for c in rec.get("circuits", []):
            by_i[c["i"]].append(c)
    out = []
    for i in sorted(by_i):
        recs = by_i[i]
        c = dict(recs[0])
        c["ok"] = all(r["ok"] for r in recs)
        c["detail"] = next((r["detail"] for r in recs if "detail" in r), None)
        out.append(c)
    return out, sum(not c["ok"] for c in out)


def tail_percentile(values):
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value), or None below eleven samples."""
    if len(values) < 11:
        return None
    v = sorted(values)
    return 100.0 * (len(v) - 10) / len(v), v[len(v) - 11]


def environment(workload: str, seed: int, docs) -> dict:
    wl = WORKLOADS[workload]
    env = {"workload": workload, "seed": seed, "transport": wl.transport, "ranks": wl.ranks,
           "qubits": N, "state_bytes_per_rank": (1 << N) // wl.ranks * 16,
           "blas_threads_per_process": blas_threads(wl.ranks),
           "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
           "cpu_model": "unknown", "llc": "unknown",
           "python": docs[0]["python"], "numpy": docs[0]["numpy"], "qsim": docs[0]["qsim"],
           "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            env["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                "unknown")
        cache = "/sys/devices/system/cpu/cpu0/cache"
        levels = []
        for d in os.listdir(cache):
            if d.startswith("index"):
                with open(os.path.join(cache, d, "level")) as f:
                    level = int(f.read())
                with open(os.path.join(cache, d, "size")) as f:
                    levels.append((level, f"L{level} {f.read().strip()}"))
        env["llc"] = max(levels)[1]
    except (OSError, ValueError, StopIteration):
        pass
    return env


# ---------------------------------------------------------------- untraced


def run_untraced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    wl = WORKLOADS[workload]
    procs = wl.ranks if wl.transport == "tcp" else 1
    setups = []
    for _ in range(SETUP_LAUNCHES - 1):
        t_launch, docs = launch("setup", workload, seed, procs, deadline)
        setups.append(max(r["ready"] for r in ranks_of(docs)) - t_launch)
    try:
        t_launch, docs = launch("run", workload, seed, procs, deadline, seconds)
        failure = None
    except RunFailed as e:
        failure, docs = e.args
    ranks = ranks_of(docs)
    circuits, failed = circuit_outcomes(ranks)
    attempted = len(circuits)
    if failure is not None:
        # the circuit in flight when a rank raised or hung
        attempted += 1
        failed += 1
    timed = [c["seconds"] for c in circuits if c["i"] > 0]
    metrics = {}
    if failure is None:
        setups.append(max(r["ready"] for r in ranks) - t_launch)
        metrics = {
            "circuit_s": median(timed),
            "setup_s": median(setups),
            "peak_rss_mib": max(c["rss_kib"] for r in ranks for c in r["circuits"]
                                if c["i"] == 0) / 1024.0,
        }
    return {"docs": docs, "circuits": circuits, "attempted": attempted, "failed": failed,
            "failure": failure, "metrics": metrics, "timed": timed, "setups": setups}


# ------------------------------------------------------------------ traced


# layer of each span taken inside the circuit bracket; fabric.* is fabric
SPAN_LAYER = {
    "dist.scheduled_ops": "svcore",
    "dist.apply": "svcore",
    "dist.partition": "dist",
    "dist.plan_gate": "dist",
    "dist.relocalize": "dist",
    "dist.sample_distributed": "dist",
}


def span_sums(rec) -> dict:
    """Per circuit id: total duration and self time of each span name, and
    inside the circuit bracket the self time of each layer and the time in
    collectives."""
    spans = rec["spans"]
    dur = [s[2] - s[1] for s in spans]
    covered = [0.0] * len(spans)
    root = [""] * len(spans)
    for j, s in enumerate(spans):
        parent = s[3]
        root[j] = s[0] if parent < 0 else root[parent]
        if parent >= 0:
            covered[parent] += dur[j]
    sums = defaultdict(lambda: defaultdict(float))
    for j, (name, *_, circuit) in enumerate(spans):
        d = sums[circuit]
        d[name + ".dur"] += dur[j]
        d[name + ".self"] += dur[j] - covered[j]
        if root[j] == "circuit" and name != "circuit":
            d["layer." + SPAN_LAYER.get(name, "fabric")] += dur[j] - covered[j]
            if name.startswith("fabric.") and name != "fabric.exchange":
                d["collective"] += dur[j]
    return sums


def per_rank_circuit(c, d) -> dict:
    return {
        "svcore.kernel_s": d["dist.apply.self"],
        "svcore.sweeps": c["local"] + c["diagonal"],
        "svcore.fused_ops": c["fused_ops"],
        "svcore.fuse_s": d["dist.scheduled_ops.dur"],
        "dist.plan_s": d["dist.plan_gate.dur"],
        "dist.relocalizations": c["relocalize"],
        "dist.relocalize_s": d["dist.relocalize.dur"],
        "dist.diagonal_steps": c["diagonal"],
        "dist.sample_s": d["dist.sample_distributed.dur"],
        "dist.gather_s": d["dist.gather.dur"],
        "fabric.exchange_bytes": c["exchange_bytes"],
        "fabric.exchange_msgs": c["exchange_msgs"],
        "fabric.exchange_s": d["fabric.exchange.dur"],
        "fabric.collective_s": d["collective"],
        "trace.uncovered_frac": d["circuit.self"] / d["circuit.dur"],
        **{k: v for k, v in d.items() if k.startswith("layer.")},
    }


def layer_metrics(ranks) -> dict:
    """Per-layer metrics of the traced circuits: for each, the median over
    circuits of the mean over ranks."""
    per_circuit = defaultdict(list)
    arrivals = defaultdict(list)
    for rec in ranks:
        sums = span_sums(rec)
        for c in rec["circuits"]:
            if c["traced"]:
                per_circuit[c["i"]].append(per_rank_circuit(c, sums[c["i"]]))
                arrivals[c["i"]].append(c["arrive"])
    names = {k for rs in per_circuit.values() for r in rs for k in r}
    out = {
        name: median(mean(r.get(name, 0.0) for r in rs) for rs in per_circuit.values())
        for name in names
    }
    out["fabric.imbalance_s"] = median(max(a) - min(a) for a in arrivals.values())
    return out


def run_traced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    wl = WORKLOADS[workload]
    procs = wl.ranks if wl.transport == "tcp" else 1
    _, docs = launch("trace", workload, seed, procs, deadline, seconds)
    ranks = ranks_of(docs)
    circuits, failed = circuit_outcomes(ranks)
    metrics = layer_metrics(ranks)
    self_by_layer = {k[6:]: metrics.pop(k) for k in sorted(metrics) if k.startswith("layer.")}
    timed = [c for c in circuits if c["i"] > 0]
    untraced = {c["task"]: c["seconds"] for c in timed if not c["traced"]}
    traced = {c["task"]: c["seconds"] for c in timed if c["traced"]}
    metrics["trace.circuit_s"] = median(traced.values())
    metrics["trace.overhead_frac"] = median(traced[j] / untraced[j] for j in traced) - 1.0
    metrics["circuits.build_s"] = mean(d["build_s"] for d in docs)
    metrics["perfmodel.bytes_match"] = float(all(
        c["exchange_bytes"] == c["model_bytes"]
        for r in ranks for c in r["circuits"] if c["traced"]))

    _, tcp = launch("tcpprobe", workload, seed, 2, deadline)
    metrics.update(next(d["metrics"] for d in tcp if "metrics" in d))
    _, prb = launch("probe", workload, seed, 1, deadline, extra=(
        "--tcp-gbps", repr(metrics["fabric.tcp.gbps.4m"]),
        "--tasks", ",".join(map(str, untraced))))
    metrics.update(prb[0]["metrics"])
    predicted = prb[0]["predicted"]
    metrics["perfmodel.pred_ratio"] = median(predicted[str(j)] / t for j, t in untraced.items())
    return {"docs": docs + tcp + prb, "circuits": circuits, "attempted": len(circuits),
            "failed": failed, "failure": None, "metrics": metrics,
            "self_by_layer": self_by_layer}


# ----------------------------------------------------------------- report


def fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = clock() + RUN_DEADLINE
    print(f"perfbench: workload={workload} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)}", flush=True)
    try:
        res = (run_traced if trace else run_untraced)(workload, seed, seconds, deadline)
    except RunFailed as e:
        res = {"docs": e.args[1], "circuits": [], "attempted": 1, "failed": 1,
               "failure": e.args[0], "metrics": {}}
    env = environment(workload, seed, res["docs"]) if res["docs"] else {}
    print("env: " + json.dumps(env, sort_keys=True))
    for c in res["circuits"]:
        if not c["ok"]:
            print(f"FAILED circuit {c['i']}: {c['detail']}")
    if res["failure"]:
        print("FAILED run:\n" + res["failure"])
    correct = res["failed"] == 0 and res["failure"] is None
    if not trace and correct:
        timed = res["timed"]
        tail = tail_percentile(timed)
        tail_text = (f"p{tail[0]:.0f} {tail[1]:.6g} s" if tail else
                     f"no percentile has 10 samples beyond it with {len(timed)} samples")
        print(f"circuit_s: median {res['metrics']['circuit_s']:.6g} s over {len(timed)} "
              f"timed circuits (warm-up excluded); {tail_text}; "
              f"samples {[round(t, 4) for t in timed]}")
        print(f"setup_s: median {res['metrics']['setup_s']:.6g} s over "
              f"{len(res['setups'])} launches {[round(t, 4) for t in res['setups']]}")
    if trace and correct:
        probe = next(d for d in res["docs"] if d["mode"] == "probe")
        n25_h = 2 * (16 << 25) / 1e9 / res["metrics"]["svcore.gbps.h.n25"]
        print(f"roofline: states of n20 = 16 MiB and n25 = 512 MiB against the {env['llc']} "
              f"last-level cache; bytes are computed as 2 x state bytes per gate; an H gate "
              f"at n25 takes {n25_h:.3g} s; the probe's peak RSS is "
              f"{probe['peak_rss_kib'] / 1024:.0f} MiB")
        print("self time per traced circuit by layer: " + ", ".join(
            f"{k} {v:.6g} s" for k, v in res["self_by_layer"].items()))
        # the layers' self times must add up to the traced circuit time
        uncovered = res["metrics"]["trace.uncovered_frac"]
        tolerance = max(abs(res["metrics"]["trace.overhead_frac"]), 0.01)
        if uncovered > tolerance:
            print(f"FAILED trace: {uncovered:.4f} of the traced circuit time lies "
                  f"outside the layer spans, more than the tolerance {tolerance:.4f}")
            correct = False
    names = [m[0] for m in (LAYER if trace else END_TO_END)]
    metrics = res["metrics"]
    if correct and sorted(metrics) != sorted(names):
        print(f"FAILED report: metrics {sorted(set(names) ^ set(metrics))} missing or extra")
        correct = False
    for name in names:
        if name in metrics:
            moves = f"  (should move: {MOVES[name]})" if name in MOVES else ""
            print(f"{name} = {fmt(metrics[name])} {UNITS[name]}{moves}")
    if not trace:
        print(f"fail_frac = {res['failed']}/{res['attempted']} = "
              f"{res['failed'] / res['attempted']:.6g} ratio")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{workload}-s{seed}-t{int(trace)}.json"), "w",
              encoding="utf-8") as f:
        json.dump({"env": env, **res}, f)
    return {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {n: {"value": metrics[n], "unit": UNITS[n]}
                        for n in names if n in metrics}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qsim", "__init__.py")):
        print(f"perfbench: no qsim sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    if len(results) == 1:
        summary = results[names[0]]
    else:
        for w, r in results.items():
            print(f"{w}: " + json.dumps(r))
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
