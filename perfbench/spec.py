"""What the benchmark runs and reports: workloads, fixed sizes and the
metric tables. Imports nothing from qsim, so the launcher can read it
without loading the simulator.

BENCHMARK.json at the repository root repeats the workload reasons and the
metric names, units and directions; the `moves` column below, which says
which end-to-end metric each layer metric should move, lives only here
because BENCHMARK.json admits no extra keys.
"""

from __future__ import annotations

from dataclasses import dataclass

N = 20  # qubits in every workload circuit
SHOTS = 1000  # shots sampled inside every timed bracket
POOL = 16  # circuits built at set-up: the warm-up plus up to 15 timed ones
SETUP_LAUNCHES = 7  # set-up samples per untraced run; setup_s is their median
FABRIC_TIMEOUT = 60.0  # seconds a rank waits on a peer before it fails
RUN_DEADLINE = 170.0  # seconds after launch at which the launcher gives up
AMPLITUDE_FLOOR = 1.0 - 1e-9  # |amp|^2 the known answer must reach


@dataclass(frozen=True)
class Workload:
    name: str
    transport: str  # "loopback" (ranks are threads) or "tcp" (ranks are processes)
    ranks: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "random-p1", "loopback", 1,
            "mirror of a 100-gate random circuit on one rank: kernel and fusion "
            "do all the work, with no relocalization and no exchange",
        ),
        Workload(
            "tfim-tcp2", "tcp", 2,
            "TFIM Loschmidt echo on a 20-site ring over 2 tcp processes: 12 "
            "relocalizations (48 MiB) and 12 diagonal shortcuts per rank",
        ),
        Workload(
            "qpe-loop2", "loopback", 2,
            "the paper's QPE over 2 loopback threads: global controls and "
            "diagonals, 3 relocalizations and the sampling collectives",
        ),
    )
}

# (name, unit, better, bound) -- bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
# Over ten seeds on a shared 2-core Xeon KVM guest, the run-to-run spread
# (IQR over median) measured 6-14% for circuit_s and 6-20% for setup_s.
# For peak_rss_mib it measured 1-6%; the high end is qpe-loop2, whose two
# rank threads overlap their temporaries differently from run to run.
END_TO_END = (
    ("circuit_s", "s", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.15),
)

ROOFLINE_GATES = ("h", "rz", "cx", "cp", "rzz", "fused3")
ROOFLINE_SIZES = (20, 25)
TRANSPORT_SIZES = (("64k", 1 << 16), ("1m", 1 << 20), ("4m", 1 << 22), ("64m", 1 << 26))
PAPER_CIRCUITS = ("qpe34", "tfim34", "random34")

_ALL3 = "circuit_s on all three"

# (name, unit, better, moves). Values are per rank and per circuit unless the
# name says otherwise (probes and the paper-scale replay are per run).
LAYER = (
    ("svcore.kernel_s", "s", "lower",
     _ALL3 + ", most on random-p1; peak_rss_mib through the index arrays"),
    ("svcore.sweeps", "count", "lower", _ALL3),
    ("svcore.fused_ops", "count", "lower", _ALL3),
    ("svcore.fuse_s", "s", "lower", "circuit_s, mostly on random-p1"),
    *(
        (f"svcore.gbps.{g}.n{n}", "GB/s", "higher", _ALL3)
        for g in ROOFLINE_GATES
        for n in ROOFLINE_SIZES
    ),
    *((f"svcore.stream_gbps.n{n}", "GB/s", "higher", "none; describes the machine")
      for n in ROOFLINE_SIZES),
    ("dist.plan_s", "s", "lower", "circuit_s on tfim-tcp2; no change on random-p1"),
    ("dist.relocalizations", "count", "lower",
     "circuit_s on tfim-tcp2; no change on random-p1"),
    ("dist.relocalize_s", "s", "lower", "circuit_s and peak_rss_mib on tfim-tcp2"),
    ("dist.diagonal_steps", "count", "higher", "circuit_s on qpe-loop2 and tfim-tcp2"),
    ("dist.sample_s", "s", "lower", _ALL3 + " (small share)"),
    ("dist.gather_s", "s", "lower", "none; check path only"),
    ("dist.speedup_p2", "ratio", "higher", "circuit_s on tfim-tcp2 and qpe-loop2"),
    ("fabric.exchange_bytes", "B", "lower", "circuit_s on tfim-tcp2"),
    ("fabric.exchange_msgs", "count", "lower", "circuit_s on tfim-tcp2"),
    ("fabric.exchange_s", "s", "lower", "circuit_s on tfim-tcp2; zero on random-p1"),
    ("fabric.collective_s", "s", "lower", "circuit_s on qpe-loop2"),
    ("fabric.imbalance_s", "s", "lower", "circuit_s on both P=2 workloads"),
    *(
        (f"fabric.{t}.gbps.{label}", "GB/s", "higher",
         "circuit_s on " + ("qpe-loop2" if t == "loopback" else "tfim-tcp2"))
        for t in ("loopback", "tcp")
        for label, _ in TRANSPORT_SIZES
    ),
    *((f"fabric.{t}.barrier_us", "us", "lower",
       "circuit_s on " + ("qpe-loop2" if t == "loopback" else "tfim-tcp2"))
      for t in ("loopback", "tcp")),
    ("circuits.build_s", "s", "lower", "setup_s"),
    ("perfmodel.bytes_match", "bool", "higher", "fail_frac"),
    ("perfmodel.pred_ratio", "ratio", "higher", "none; measures model accuracy"),
    *(
        (f"perfmodel.relocalizations.{c}.{f}", "count", "lower",
         "the direction of dist.relocalizations on tfim-tcp2")
        for c in PAPER_CIRCUITS
        for f in ("fused", "unfused")
    ),
    ("perfmodel.schedule_s", "s", "lower", "none; paper-scale replay"),
    ("trace.circuit_s", "s", "lower", "none; traced circuit time"),
    ("trace.overhead_frac", "ratio", "lower", "none; cost of tracing"),
    ("trace.uncovered_frac", "ratio", "lower", "none; circuit time outside layer spans"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + LAYER}
MOVES = {name: moves for name, _, _, moves in LAYER}
