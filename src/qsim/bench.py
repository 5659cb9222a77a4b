"""Benchmark harness: SPMD execution with barrier-bracketed timing, warm-up
exclusion, normalized Hellinger fidelity, and leader-only reporting.

Per circuit the harness runs: barrier, start clock, distributed execution
plus sampling, barrier, stop clock. With warm-up exclusion the first
circuit's time never enters the statistics. The clock is injectable so the
timing protocol itself is testable.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import circuits as circ
from . import svcore as sv
from .dist import run_distributed, sample_distributed
from .fabric import FabricEndpoint
from .svcore import Circuit, CountsDistribution

SCHEMA_VERSION = 1
ORACLE_QUBIT_CAP = 26


def _normalized(dist) -> dict[str, float]:
    if isinstance(dist, CountsDistribution):
        entries, total = dist.entries, dist.total
    else:
        entries, total = dict(dist), float(sum(dist.values()))
    if not entries or total <= 0:
        raise ValueError("empty distribution")
    return {k: v / total for k, v in entries.items()}


def hellinger_fidelity(p: dict[str, float], q: dict[str, float]) -> float:
    """Raw Hellinger fidelity (sum_x sqrt(p_x q_x))^2 of two normalized
    distributions."""
    overlap = sum(math.sqrt(p[x] * q[x]) for x in p.keys() & q.keys())
    return overlap * overlap


def fidelity(measured, ideal) -> float:
    """Normalized Hellinger fidelity in [0, 1]: the raw fidelity rescaled
    against the ideal's fidelity with the uniform distribution over the
    measured register, clamped to [0, 1]. Equal distributions score 1,
    uniform output against a nonuniform ideal scores 0."""
    p = _normalized(measured)
    q = _normalized(ideal)
    widths = {len(k) for k in p} | {len(k) for k in q}
    if len(widths) != 1:
        raise ValueError("bitstring widths differ between distributions")
    width = widths.pop()
    f = hellinger_fidelity(p, q)
    # same floating path as above so a uniform measured distribution lands
    # exactly on the baseline
    u = 1.0 / float(1 << width)
    overlap_u = sum(math.sqrt(v * u) for v in q.values())
    f_uniform = overlap_u * overlap_u
    if 1.0 - f_uniform < 1e-12:
        # the ideal *is* uniform; only an exact match counts
        return 1.0 if f > 1.0 - 1e-12 else 0.0
    return min(1.0, max(0.0, (f - f_uniform) / (1.0 - f_uniform)))


@dataclass
class BenchmarkConfig:
    """One benchmark invocation; all ranks must pass identical configs."""

    benchmark: str  # qpe | tfim | random
    n: int
    shots: int = 1000
    num_circuits: int = 10
    exclude_warmup: bool = True
    steps: int = 10
    seed: int = 1234
    fabric: str = "loopback"
    fusion: bool = True
    # tfim lattice/model parameters
    rows: int | None = None
    cols: int | None = None
    lattice: str = "square"
    periodic: bool = True
    coupling: float = 1.0
    transverse_field: float = 1.0
    t_total: float = 1.0
    # random-circuit size (defaults to 10 gates per qubit)
    random_gates: int | None = None

    def validate(self):
        if self.benchmark not in ("qpe", "tfim", "random"):
            raise ValueError(f"unknown benchmark {self.benchmark!r}")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.num_circuits < 1:
            raise ValueError("num_circuits must be >= 1")
        if self.exclude_warmup and self.num_circuits < 2:
            raise ValueError("warm-up exclusion needs at least two circuits")
        if self.n < 1:
            raise ValueError("qubit count must be >= 1")


@dataclass
class BenchmarkReport:
    schema_version: int
    config: dict
    world_size: int
    transport: str
    creation_time_seconds: float
    circuit_names: list[str]
    wall_times: list[float]
    fidelities: list[float | None]
    warmup_excluded: bool
    mean_wall_time: float
    std_wall_time: float
    traffic: dict | None = None

    def timed_count(self) -> int:
        return len(self.wall_times) - (1 if self.warmup_excluded else 0)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "config": self.config,
            "world_size": self.world_size,
            "transport": self.transport,
            "creation_time_seconds": self.creation_time_seconds,
            "circuits": [
                {
                    "index": i,
                    "name": self.circuit_names[i],
                    "wall_time_seconds": self.wall_times[i],
                    "fidelity": self.fidelities[i],
                }
                for i in range(len(self.wall_times))
            ],
            "warmup_excluded": self.warmup_excluded,
            "timed_circuits": self.timed_count(),
            "mean_wall_time_seconds": self.mean_wall_time,
            "std_wall_time_seconds": self.std_wall_time,
            "traffic": self.traffic,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def to_csv(self) -> str:
        """One row per circuit plus a summary row."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["circuit", "name", "wall_time_seconds", "fidelity"])
        for i in range(len(self.wall_times)):
            fid = self.fidelities[i]
            writer.writerow(
                [i, self.circuit_names[i], repr(self.wall_times[i]),
                 "" if fid is None else repr(fid)]
            )
        writer.writerow(
            ["mean_excl_warmup" if self.warmup_excluded else "mean",
             self.config.get("benchmark", ""),
             repr(self.mean_wall_time), repr(self.std_wall_time)]
        )
        return buf.getvalue()


def report_from_json(text: str) -> BenchmarkReport:
    d = json.loads(text)
    return BenchmarkReport(
        schema_version=d["schema_version"],
        config=d["config"],
        world_size=d["world_size"],
        transport=d["transport"],
        creation_time_seconds=d["creation_time_seconds"],
        circuit_names=[c["name"] for c in d["circuits"]],
        wall_times=[c["wall_time_seconds"] for c in d["circuits"]],
        fidelities=[c["fidelity"] for c in d["circuits"]],
        warmup_excluded=d["warmup_excluded"],
        mean_wall_time=d["mean_wall_time_seconds"],
        std_wall_time=d["std_wall_time_seconds"],
        traffic=d.get("traffic"),
    )


def emit_report(report: BenchmarkReport, fmt: str, path) -> None:
    if fmt == "json":
        payload = report.to_json() + "\n"
    elif fmt == "csv":
        payload = report.to_csv()
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    with open(path, "w", encoding="utf-8") as f:
        f.write(payload)


class OutputPolicy:
    """Leader-only stdout: rank 0 writes through, other ranks' report/log
    writes are discarded. Errors still surface on stderr everywhere."""

    def __init__(self, rank: int):
        self.rank = rank
        self.is_leader = rank == 0
        self._null = None if self.is_leader else open(os.devnull, "w")
        self._saved_stdout = None

    @property
    def stdout(self):
        return sys.stdout if self.is_leader else self._null

    def print(self, *args, **kwargs):
        kwargs.setdefault("file", self.stdout)
        print(*args, **kwargs)

    def redirect_process_stdout(self):
        """Process-wide redirect for one-process-per-rank transports. Do not
        use under loopback, where all ranks share one interpreter."""
        if not self.is_leader and self._saved_stdout is None:
            self._saved_stdout = sys.stdout
            sys.stdout = self._null

    def restore(self):
        if self._saved_stdout is not None:
            sys.stdout = self._saved_stdout
            self._saved_stdout = None
        if self._null is not None and not self._null.closed:
            self._null.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def leader_only_output(ep: FabricEndpoint) -> OutputPolicy:
    return OutputPolicy(ep.rank)


def _build_circuits(cfg: BenchmarkConfig) -> tuple[list[Circuit], list[dict | None]]:
    if cfg.benchmark == "qpe":
        k = cfg.n - 1
        if k < 1:
            raise ValueError("qpe needs at least 2 qubits (k counting + 1 target)")
        built, ideals = [], []
        for i in range(cfg.num_circuits):
            numerator = i % (1 << k)
            built.append(circ.build_qpe(circ.QpeSpec(k, numerator)))
            ideals.append({format(numerator, f"0{k}b"): 1.0})
        return built, ideals
    if cfg.benchmark == "tfim":
        rows = cfg.rows if cfg.rows is not None else 1
        cols = cfg.cols if cfg.cols is not None else cfg.n
        if rows * cols != cfg.n:
            raise ValueError(f"lattice {rows}x{cols} does not have {cfg.n} sites")
        lattice = circ.LatticeSpec(rows, cols, cfg.lattice, cfg.periodic)
        spec = circ.tfim_from_lattice(
            lattice, cfg.coupling, cfg.transverse_field, cfg.t_total, cfg.steps
        )
        one = circ.build_tfim(spec)
        ideal = _oracle_distribution(one)
        return [one] * cfg.num_circuits, [ideal] * cfg.num_circuits
    # random: a fresh seed per circuit
    gates = cfg.random_gates if cfg.random_gates is not None else 10 * cfg.n
    built = [
        circ.build_random_circuit(cfg.n, gates, cfg.seed + i)
        for i in range(cfg.num_circuits)
    ]
    return built, [_oracle_distribution(c) for c in built]


def _oracle_distribution(circuit: Circuit) -> dict[str, float] | None:
    """Ideal outcome distribution from the dense oracle, or None above the
    cap (a missing fidelity is reported as null, never approximated)."""
    if circuit.num_qubits > ORACLE_QUBIT_CAP:
        return None
    return sv.probabilities(sv.dense_run(circuit), circuit.measured)


def run_benchmark(
    cfg: BenchmarkConfig,
    ep: FabricEndpoint,
    clock=time.perf_counter,
) -> BenchmarkReport:
    """SPMD benchmark body; every rank calls with an identical config and
    returns the same report (timings are measured per rank)."""
    cfg.validate()
    blob = json.dumps(asdict(cfg), sort_keys=True).encode()
    if ep.broadcast(0, blob) != blob:
        raise ValueError("benchmark config differs across ranks")

    t_create = clock()
    built, ideals = _build_circuits(cfg)
    creation_seconds = clock() - t_create

    wall_times: list[float] = []
    fidelities: list[float | None] = []
    for i, circuit in enumerate(built):
        ep.barrier()
        t0 = clock()
        st = run_distributed(circuit, ep, fusion=cfg.fusion)
        counts = sample_distributed(st, cfg.shots, cfg.seed + i, circuit.measured)
        ep.barrier()
        wall_times.append(clock() - t0)
        ideal = ideals[i]
        fidelities.append(None if ideal is None else fidelity(counts, ideal))

    timed = wall_times[1:] if cfg.exclude_warmup else wall_times
    traffic = None
    log = getattr(ep, "traffic", None)
    if log is not None:
        traffic = {
            "exchange_bytes_total": log.bytes_sent(),
            "messages_total": log.message_count,
            "bytes_by_global_bit": {str(b): v for b, v in sorted(log.bit_bytes().items())},
        }
    return BenchmarkReport(
        schema_version=SCHEMA_VERSION,
        config=asdict(cfg),
        world_size=ep.world_size,
        transport=ep.kind,
        creation_time_seconds=creation_seconds,
        circuit_names=[c.name for c in built],
        wall_times=wall_times,
        fidelities=fidelities,
        warmup_excluded=cfg.exclude_warmup,
        mean_wall_time=float(np.mean(timed)),
        std_wall_time=float(np.std(timed)),
        traffic=traffic,
    )
